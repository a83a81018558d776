import numpy as np
import pytest
from functools import reduce
from math import cos, pi, sin, sqrt

from belllab.qlinalg import BadNorm, BadSubset
from belllab.states import (
    Direction,
    TriorthogonalSpec,
    ZeroProbability,
    branch_probability,
    branch_selection,
    condition_on,
    conditional_closed_form,
    make_triorthogonal,
    measurement_basis,
    product_sum,
    reduced_density,
    sign_bit,
)
from oracles import from_unit_vector, partial_trace, projector

INV_SQRT2 = 1 / sqrt(2)


def random_spec(rng, n):
    c1 = rng.uniform(-1, 1)
    c2 = float(np.sign(rng.uniform(-1, 1)) or 1) * sqrt(1 - c1 * c1)
    labels = tuple(int(z) for z in rng.choice([1, -1], n))
    return TriorthogonalSpec(n, c1, c2, labels)


def random_direction(rng):
    return Direction(rng.uniform(-pi, pi), rng.uniform(0, 2 * pi))


class TestDirection:
    def test_normalized(self):
        d = from_unit_vector(Direction(-pi / 2, 0.0).unit_vector)
        assert 0 <= d.theta <= pi and 0 <= d.phi < 2 * pi
        assert np.allclose(d.unit_vector, Direction(-pi / 2, 0.0).unit_vector)
        # a tiny negative y rounded phi up to 2 pi (6.283185307179586 at y = -1e-20 and -1e-17)
        for y in (-1e-20, -1e-17, -1e-15):
            d = from_unit_vector([1.0, y, 0.0])
            assert 0 <= d.theta <= pi and 0 <= d.phi < 2 * pi
            assert np.allclose(d.unit_vector, [1.0, y, 0.0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("theta", [1e-12, 1e-9, 1e-7, pi - 1e-8])
    def test_round_trip_near_the_poles(self, theta):
        # acos(z) returned 0.0 for theta = 1e-9 and 9.996e-8 for 1e-7
        for phi in (0.0, 0.3, 4.0):
            d = from_unit_vector(Direction(theta, phi).unit_vector)
            assert abs(d.theta - theta) <= 1e-15 * theta
            assert abs(d.phi - phi) <= 1e-15 * max(phi, 1.0)

    def test_raw_values_preserved(self):
        d = Direction(-pi / 2, 0.0)
        assert d.theta == -pi / 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Direction(float("nan"), 0.0)


class TestMakeTriorthogonal:
    def test_ghz(self):
        psi = make_triorthogonal(TriorthogonalSpec(3, INV_SQRT2, INV_SQRT2, (1, 1, 1)))
        expected = np.zeros(8)
        expected[0] = expected[7] = INV_SQRT2
        assert np.allclose(psi.amplitudes, expected)

    def test_product_state(self):
        psi = make_triorthogonal(TriorthogonalSpec(3, 1.0, 0.0, (1, -1, 1)))
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_mixed_labels_indices(self):
        # |up down up> is index 0b010 = 2; |down up down> is 0b101 = 5
        psi = make_triorthogonal(TriorthogonalSpec(3, INV_SQRT2, -INV_SQRT2, (1, -1, 1)))
        assert psi.amplitudes[2] == pytest.approx(INV_SQRT2)
        assert psi.amplitudes[5] == pytest.approx(-INV_SQRT2)
        assert np.count_nonzero(psi.amplitudes) == 2

    def test_bad_norm(self):
        with pytest.raises(BadNorm):
            TriorthogonalSpec(3, 0.8, 0.7, (1, 1, 1))

    def test_nan_coefficient(self):
        with pytest.raises(BadNorm):
            TriorthogonalSpec(3, float("nan"), 0.0, (1, 1, 1))

    def test_bad_label(self):
        with pytest.raises(ValueError):
            TriorthogonalSpec(3, 1.0, 0.0, (1, 0, 1))


def eigenket(d, z):
    """Column sign_bit(z) of measurement_basis(d): the eigenket of sigma(d) with eigenvalue z."""
    return measurement_basis(d)[:, sign_bit(z)]


class TestMeasurementBasis:
    def test_z_axis(self):
        assert np.allclose(eigenket(Direction(0.0, 0.0), +1), [1, 0])

    def test_antipodal(self):
        amps = eigenket(Direction(pi, 0.0), +1)
        assert abs(amps[0]) <= 1e-15 and abs(abs(amps[1]) - 1) <= 1e-12

    def test_x_axis(self):
        amps = eigenket(Direction(pi / 2, 0.0), +1)
        assert np.allclose(amps, [INV_SQRT2, INV_SQRT2])

    def test_inverts_basis_change(self):
        # |z> must be recovered as cos(t/2) e^{i z phi/2} |z>* - z sin(t/2) e^{i z phi/2} |-z>*
        rng = np.random.default_rng(2)
        for _ in range(50):
            theta, phi = rng.uniform(-pi, pi), rng.uniform(0, 2 * pi)
            for z in (+1, -1):
                plus = eigenket(Direction(theta, phi), z)
                minus = eigenket(Direction(theta, phi), -z)
                half = theta / 2.0
                recon = (
                    cos(half) * np.exp(1j * z * phi / 2) * plus
                    - z * sin(half) * np.exp(1j * z * phi / 2) * minus
                )
                expected = np.array([1, 0]) if z == +1 else np.array([0, 1])
                assert np.max(np.abs(recon - expected)) <= 1e-12


class TestProductRule:
    @pytest.mark.parametrize("kind", ["real", "complex", "complex-then-real"])
    def test_product_sum_is_the_sum_of_kron_chains(self, kind):
        # one array axis per factor, and flattened it is sum_j w_j kron(v_j1, ..., v_jm)
        rng = np.random.default_rng(7)

        def draw(shape, complex_):
            return rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0)

        for n_terms in (1, 2, 3):
            for m in range(1, 6):
                lengths = [int(v) for v in rng.choice([2, 3], m)]
                kinds = {"real": [False] * n_terms, "complex": [True] * n_terms,
                         "complex-then-real": [True] + [False] * (n_terms - 1)}[kind]
                terms = [(draw((), c), [draw(k, c) for k in lengths]) for c in kinds]
                out = product_sum(terms)
                expected = sum(w * reduce(np.kron, factors) for w, factors in terms)
                assert out.shape == tuple(lengths)
                assert np.max(np.abs(out.reshape(-1) - expected)) <= 1e-14 * max(1.0, np.max(np.abs(expected)))


class TestConditionOn:
    def test_ghz_equatorial(self):
        psi = make_triorthogonal(TriorthogonalSpec(3, INV_SQRT2, INV_SQRT2, (1, 1, 1)))
        res = condition_on(psi, {3: (Direction(pi / 2, 0.0), +1)})
        assert res.probability == pytest.approx(0.5, abs=1e-12)
        bell_pair = np.array([INV_SQRT2, 0, 0, INV_SQRT2])
        overlap = abs(np.vdot(bell_pair, res.state.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_z_axis_gives_product_state(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng, 3)
        psi = make_triorthogonal(spec)
        res = condition_on(psi, {3: (Direction(0.0, 0.0), spec.labels[2])})
        assert res.probability == pytest.approx(spec.c1**2, abs=1e-12)
        assert np.count_nonzero(np.abs(res.state.amplitudes) > 1e-12) == 1

    def test_zero_probability(self):
        psi = make_triorthogonal(TriorthogonalSpec(3, 0.0, 1.0, (1, 1, 1)))
        with pytest.raises(ZeroProbability):
            condition_on(psi, {3: (Direction(0.0, 0.0), +1)})

    def test_bad_subset(self):
        psi = make_triorthogonal(TriorthogonalSpec(3, 1.0, 0.0, (1, 1, 1)))
        with pytest.raises(BadSubset):
            condition_on(psi, {})
        with pytest.raises(BadSubset):
            condition_on(psi, {i: (Direction(0, 0), 1) for i in (1, 2, 3)})

    def test_bad_outcome_is_named_an_outcome(self):
        # the same words as conditional_closed_form and branch_probability use
        psi = make_triorthogonal(TriorthogonalSpec(3, 0.8, 0.6, (1, 1, 1)))
        with pytest.raises(ValueError, match=r"^outcome must be \+1 or -1, got 2$"):
            condition_on(psi, {3: (Direction(pi / 2, 0.0), 2)})

    def test_four_particle_pair_measurement(self):
        spec = TriorthogonalSpec(4, INV_SQRT2, INV_SQRT2, (1, 1, 1, 1))
        psi = make_triorthogonal(spec)
        measured = {
            3: (Direction(pi / 2, 0.0), +1),
            4: (Direction(pi / 2, 0.0), +1),
        }
        res = condition_on(psi, measured)
        assert res.probability == pytest.approx(0.25, abs=1e-12)
        # maximally entangled pair: both Schmidt coefficients 1/sqrt(2)
        svals = np.linalg.svd(res.state.amplitudes.reshape(2, 2), compute_uv=False)
        assert np.allclose(svals, [INV_SQRT2, INV_SQRT2], atol=1e-12)

    def test_polar_measured_direction_leaves_product_state(self):
        rng = np.random.default_rng(9)
        for m in (-1, 0, 1, 2):
            spec = random_spec(rng, 3)
            psi = make_triorthogonal(spec)
            try:
                res = condition_on(psi, {3: (Direction(m * pi, rng.uniform(0, 2 * pi)), +1)})
            except ZeroProbability:
                continue
            svals = np.linalg.svd(res.state.amplitudes.reshape(2, 2), compute_uv=False)
            assert svals[1] <= 1e-10


class TestClosedForm:
    def test_plus_branch_probability(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            spec = random_spec(rng, 3)
            d3 = random_direction(rng)
            expected = spec.c1**2 * cos(d3.theta / 2) ** 2 + spec.c2**2 * sin(d3.theta / 2) ** 2
            p = branch_probability(spec, branch_selection(spec, d3, +1))
            assert p == pytest.approx(expected, abs=1e-12)

    def test_minus_branch_antipodal_axis(self):
        rng = np.random.default_rng(6)
        spec = random_spec(rng, 3)
        p = branch_probability(spec, branch_selection(spec, Direction(pi, 0.0), -1))
        assert p == pytest.approx(spec.c1**2, abs=1e-12)

    def test_branch_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = random_spec(rng, 3)
            d3 = random_direction(rng)
            p_plus = branch_probability(spec, branch_selection(spec, d3, +1))
            p_minus = branch_probability(spec, branch_selection(spec, d3, -1))
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    def test_matches_projection_n5(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            spec = random_spec(rng, 5)
            psi = make_triorthogonal(spec)
            measured = {
                j: (random_direction(rng), int(rng.choice([1, -1]))) for j in (3, 4, 5)
            }
            try:
                closed = conditional_closed_form(spec, measured)
                projected = condition_on(psi, measured)
            except ZeroProbability:
                continue
            assert closed.probability == pytest.approx(projected.probability, abs=1e-12)
            overlap = abs(np.vdot(closed.state.amplitudes, projected.state.amplitudes))
            assert overlap >= 1 - 1e-12

    def test_branch_probability_matches_projection_on_any_strict_subset(self):
        # not only suffixes: simulate asks for the selector's branch alone, on particle 1 or 2 too
        rng = np.random.default_rng(21)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            spec = random_spec(rng, n)
            subset = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n)), replace=False)
            measured = {int(p): (random_direction(rng), int(rng.choice([1, -1]))) for p in subset}
            try:
                projected = condition_on(make_triorthogonal(spec), measured)
            except ZeroProbability:
                continue
            assert branch_probability(spec, measured) == pytest.approx(projected.probability, abs=1e-12)

    @pytest.mark.parametrize("particles", [(1, 2, 3), (0,), (7,)], ids=["all", "zero", "seven"])
    def test_branch_probability_needs_strict_subset(self, particles):
        # measuring all three along x gives Born probability 0.245, not the product formula's 0.125
        spec = TriorthogonalSpec(3, 0.8, 0.6, (1, 1, 1))
        with pytest.raises(BadSubset):
            branch_probability(spec, {p: (Direction(pi / 2, 0.0), 1) for p in particles})

    def test_branch_selection_needs_particle_3_and_a_sign(self):
        x = Direction(pi / 2, 0.0)
        with pytest.raises(BadSubset):
            branch_selection(TriorthogonalSpec(2, 0.8, 0.6, (1, 1)), x, 1)
        with pytest.raises(ValueError):
            branch_selection(TriorthogonalSpec(3, 0.8, 0.6, (1, 1, 1)), x, 0)
        assert branch_selection(TriorthogonalSpec(3, 0.8, 0.6, (1, 1, -1)), x, -1) == {3: (x, 1)}

    def test_any_strict_subset_matches_projection(self):
        # not only suffixes: the kept particles stay in their order, as condition_on keeps them
        rng = np.random.default_rng(22)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            spec = random_spec(rng, n)
            subset = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n)), replace=False)
            measured = {int(p): (random_direction(rng), int(rng.choice([1, -1]))) for p in subset}
            try:
                projected = condition_on(make_triorthogonal(spec), measured)
            except ZeroProbability:
                continue
            closed = conditional_closed_form(spec, measured)
            assert closed.probability == pytest.approx(projected.probability, abs=1e-12)
            assert np.max(np.abs(closed.state.amplitudes - projected.state.amplitudes)) <= 1e-12
        with pytest.raises(BadSubset):  # no particle left
            conditional_closed_form(TriorthogonalSpec(2, 0.8, 0.6, (1, 1)),
                                    {p: (Direction(0, 0), 1) for p in (1, 2)})

    def test_conditional_states_orthogonal_iff_balanced(self):
        d3 = Direction(1.1, 0.7)
        balanced = TriorthogonalSpec(3, INV_SQRT2, -INV_SQRT2, (1, -1, 1))
        plus = conditional_closed_form(balanced, {3: (d3, +1)}).state
        minus = conditional_closed_form(balanced, {3: (d3, -1)}).state
        assert abs(np.vdot(plus.amplitudes, minus.amplitudes)) <= 1e-12
        lopsided = TriorthogonalSpec(3, 0.6, 0.8, (1, -1, 1))
        plus = conditional_closed_form(lopsided, {3: (d3, +1)}).state
        minus = conditional_closed_form(lopsided, {3: (d3, -1)}).state
        assert abs(np.vdot(plus.amplitudes, minus.amplitudes)) > 1e-6


class TestReducedDensity:
    def test_ghz(self):
        spec = TriorthogonalSpec(3, INV_SQRT2, INV_SQRT2, (1, 1, 1))
        rho = reduced_density(spec, 2)
        assert np.allclose(rho.matrix, np.diag([0.5, 0, 0, 0.5]))

    def test_pure_projector(self):
        spec = TriorthogonalSpec(3, 1.0, 0.0, (1, -1, 1))
        rho = reduced_density(spec, 2)
        assert np.allclose(rho.matrix, np.diag([0, 1, 0, 0]))

    def test_bad_subset(self):
        spec = TriorthogonalSpec(3, 1.0, 0.0, (1, 1, 1))
        with pytest.raises(BadSubset):
            reduced_density(spec, 3)

    def test_mixture_decompositions_agree(self):
        # subensemble mixture == product-state mixture == partial trace,
        # whatever axis the third observer picks
        rng = np.random.default_rng(10)
        for _ in range(25):
            spec = random_spec(rng, 3)
            psi = make_triorthogonal(spec)
            rho_direct = reduced_density(spec, 2).matrix
            rho_traced = partial_trace(projector(psi), {1, 2}).matrix
            assert np.max(np.abs(rho_direct - rho_traced)) <= 1e-12
            for _ in range(2):
                d3 = random_direction(rng)
                mixture = np.zeros((4, 4), dtype=complex)
                for outcome in (spec.labels[2], -spec.labels[2]):
                    try:
                        res = conditional_closed_form(spec, {3: (d3, outcome)})
                    except ZeroProbability:
                        continue
                    amps = res.state.amplitudes
                    mixture += res.probability * np.outer(amps, amps.conj())
                assert np.max(np.abs(mixture - rho_direct)) <= 1e-12
