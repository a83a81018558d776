import numpy as np
import pytest
from functools import reduce
from itertools import product
from math import cos, pi, sin, sqrt

from belllab import correlations
from belllab.qlinalg import BadSubset, DensityMatrix, NumericalFault, PureState, spin_operator
from belllab.correlations import (
    DimensionMismatch,
    conditional_correlation_closed,
    correlation_tensor,
    expectation,
    spin_product_operator,
)
from belllab.states import (
    Direction,
    TriorthogonalSpec,
    ZeroProbability,
    branch_probability,
    branch_selection,
    condition_on,
    make_triorthogonal,
    reduced_density,
)
from test_bell import LABEL_SETS, random_pure_state
from test_states import random_direction, random_spec

INV_SQRT2 = 1 / sqrt(2)


class TestExpectation:
    def test_spin_up(self):
        up = PureState(1, np.array([1, 0], dtype=complex))
        assert expectation(up, np.diag([1, -1])) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        rho = DensityMatrix(2, np.eye(4) / 4.0)
        zz = spin_product_operator([Direction(0, 0), Direction(0, 0)])
        assert expectation(rho, zz) == pytest.approx(0.0)

    def test_ghz_pair_cosines(self):
        spec = TriorthogonalSpec(3, INV_SQRT2, INV_SQRT2, (1, 1, 1))
        rho = reduced_density(spec, 2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            d1, d2 = random_direction(rng), random_direction(rng)
            val = expectation(rho, spin_product_operator([d1, d2]))
            assert val == pytest.approx(cos(d1.theta) * cos(d2.theta), abs=1e-12)

    def test_dimension_mismatch(self):
        up = PureState(1, np.array([1, 0], dtype=complex))
        with pytest.raises(DimensionMismatch):
            expectation(up, np.eye(4))
        with pytest.raises(DimensionMismatch):
            expectation(up.projector(), np.eye(4))
        with pytest.raises(TypeError):  # neither a PureState nor a DensityMatrix
            expectation(up.amplitudes, np.eye(2))

    def test_nan_residue_fails(self):
        up = PureState(1, np.array([1, 0], dtype=complex))
        with pytest.raises(NumericalFault):
            expectation(up, np.full((2, 2), np.nan))


class TestCorrelationTensor:
    def test_singlet_is_minus_identity(self):
        singlet = PureState(2, np.array([0, 1, -1, 0]) / sqrt(2))
        assert np.max(np.abs(correlation_tensor(singlet, 2) + np.eye(3))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pure_and_density_agree_with_spin_products(self, n):
        # T contracted with unit vectors is the correlation along those axes
        rng = np.random.default_rng(12 + n)
        pure = [random_pure_state(rng, n) for _ in range(3)]
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = a @ a.conj().T
        for state in pure + [psi.projector() for psi in pure] + [DensityMatrix(n, rho / np.trace(rho).real)]:
            t = correlation_tensor(state, n)
            for _ in range(3):
                dirs = [random_direction(rng) for _ in range(n)]
                value = t.ravel() @ reduce(np.kron, (d.unit_vector for d in dirs))
                assert value == pytest.approx(expectation(state, spin_product_operator(dirs)), abs=1e-12)

    def test_builds_no_product_operator(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("correlation_tensor built a product operator")

        monkeypatch.setattr(correlations, "tensor_product", refuse)
        monkeypatch.setattr(correlations, "expectation", refuse)
        c1, c2, labels = 0.6, -0.8, (1, -1, 1)
        psi = make_triorthogonal(TriorthogonalSpec(3, c1, c2, labels))
        # c1^2 (x)_k z_k e_z + c2^2 (x)_k (-z_k e_z) + 2 c1 c2 Re (x)_k (1, -i z_k, 0)
        closed = (c1**2 * reduce(np.multiply.outer, [z * np.array([0, 0, 1]) for z in labels])
                  + c2**2 * reduce(np.multiply.outer, [-z * np.array([0, 0, 1]) for z in labels])
                  + 2 * c1 * c2 * reduce(np.multiply.outer, [np.array([1, -1j * z, 0]) for z in labels]).real)
        for state in (psi, psi.projector()):
            assert np.max(np.abs(correlation_tensor(state, 3) - closed)) <= 1e-12

    def test_imaginary_residue_fails(self, monkeypatch):
        monkeypatch.setattr(correlations, "_PAULIS", 1j * correlations._PAULIS)  # anti-Hermitian
        with pytest.raises(NumericalFault):
            correlation_tensor(make_triorthogonal(TriorthogonalSpec(3, 0.6, 0.8, (1, 1, 1))), 3)

    def test_rank_must_match_state(self):
        rho = DensityMatrix(2, np.eye(4) / 4.0)
        with pytest.raises(DimensionMismatch):
            correlation_tensor(rho, 3)
        with pytest.raises(ValueError):
            correlation_tensor(rho, 0)


class TestUnconditionalClosed:
    def test_aligned_axes(self):
        spec = TriorthogonalSpec(3, 0.6, 0.8, (1, 1, 1))
        value = conditional_correlation_closed(spec, {1: Direction(0, 0), 2: Direction(0, 0)}, {})
        assert value == pytest.approx(1.0)

    def test_opposite_labels_flip_sign(self):
        spec = TriorthogonalSpec(3, 0.6, 0.8, (1, -1, 1))
        d1, d2 = Direction(0.4, 1.0), Direction(1.2, 2.0)
        value = conditional_correlation_closed(spec, {1: d1, 2: d2}, {})
        assert value == pytest.approx(-cos(d1.theta) * cos(d2.theta), abs=1e-12)

    def test_three_particle_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            spec = random_spec(rng, 4)
            dirs = [random_direction(rng) for _ in range(3)]
            closed = conditional_correlation_closed(spec, dict(enumerate(dirs, 1)), {})
            oracle = expectation(reduced_density(spec, 3), spin_product_operator(dirs))
            assert closed == pytest.approx(oracle, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            spec = random_spec(rng, 3)
            dirs = [random_direction(rng) for _ in range(2)]
            assert abs(conditional_correlation_closed(spec, dict(enumerate(dirs, 1)), {})) <= 1 + 1e-12


def paper_conditional_correlation(spec, e1, e2, e3, branch):
    """E+-(e1, e2) for n = 3 in the paper's trigonometric form, gamma = z1 z2."""
    z1, z2, z3 = spec.labels
    gamma = z1 * z2
    p = branch_probability(spec, branch_selection(spec, e3, branch))
    return gamma * cos(e1.theta) * cos(e2.theta) + branch * z3 * (spec.c1 * spec.c2 / p) * sin(
        e1.theta) * sin(e2.theta) * sin(e3.theta) * cos(e1.phi + gamma * e2.phi + z1 * z3 * e3.phi)


def dense_correlation(spec, dirs, measured):
    """<prod sigma(e_k)> over ``dirs`` by the operator route: project ``measured``, identity on the rest."""
    state = condition_on(make_triorthogonal(spec), measured).state if measured else make_triorthogonal(spec)
    kept = [p for p in range(1, spec.n + 1) if p not in measured]
    ops = [spin_operator(dirs[p].theta, dirs[p].phi) if p in dirs else np.eye(2) for p in kept]
    return expectation(state, reduce(np.kron, ops))


class TestConditionalClosed:
    def test_paper_trig_form(self):
        # the paper's E+-, kept here as test_plus_branch_probability keeps p+-
        rng = np.random.default_rng(11)
        for _ in range(200):
            spec = random_spec(rng, 3)
            e1, e2, e3 = (random_direction(rng) for _ in range(3))
            for branch in (+1, -1):
                closed = conditional_correlation_closed(spec, {1: e1, 2: e2}, branch_selection(spec, e3, branch))
                assert abs(closed - paper_conditional_correlation(spec, e1, e2, e3, branch)) <= 1e-14

    def test_polar_third_axis_is_classical(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            spec = random_spec(rng, 3)
            e1, e2 = random_direction(rng), random_direction(rng)
            gamma = spec.labels[0] * spec.labels[1]
            try:
                value = conditional_correlation_closed(spec, {1: e1, 2: e2}, branch_selection(spec, Direction(0.0, 0.7), 1))
            except ZeroProbability:
                continue
            assert value == pytest.approx(gamma * cos(e1.theta) * cos(e2.theta), abs=1e-12)

    def test_ghz_equatorial_unity(self):
        spec = TriorthogonalSpec(3, INV_SQRT2, INV_SQRT2, (1, 1, 1))
        eq = Direction(pi / 2, 0.0)
        value = conditional_correlation_closed(spec, {1: eq, 2: eq}, {3: (eq, +1)})
        assert value == pytest.approx(1.0, abs=1e-12)
        assert value == pytest.approx(dense_correlation(spec, {1: eq, 2: eq}, {3: (eq, +1)}), abs=1e-12)

    def test_product_state_has_no_entangled_term(self):
        spec = TriorthogonalSpec(3, 0.0, 1.0, (1, 1, 1))
        e = Direction(pi / 2, 0.3)
        for outcome in (+1, -1):
            value = conditional_correlation_closed(spec, {1: e, 2: e}, {3: (Direction(pi / 2, 0.0), outcome)})
            assert value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("branch", [+1, -1])
    @pytest.mark.parametrize("z3", [+1, -1])
    def test_sign_combinations_pinned_to_oracle(self, branch, z3):
        # a transcription slip in the +-z3 factors cannot survive this sweep: n = 3..6, every
        # selector s >= 3 alone, and all of 3..n together, where the two branches still interfere
        rng = np.random.default_rng(100 + branch + 2 * z3)
        for n in range(3, 7):
            for selected in sorted({(s,) for s in range(3, n + 1)} | {tuple(range(3, n + 1))}):
                for _ in range(10):
                    c1 = rng.uniform(0.3, 0.9)
                    labels = [z3 if p == 3 else int(rng.choice([1, -1])) for p in range(1, n + 1)]
                    spec = TriorthogonalSpec(n, c1, sqrt(1 - c1 * c1), tuple(labels))
                    e1, e2 = random_direction(rng), random_direction(rng)
                    measured = {p: (random_direction(rng), branch * labels[p - 1]) for p in selected}
                    try:
                        closed = conditional_correlation_closed(spec, {1: e1, 2: e2}, measured)
                    except ZeroProbability:
                        continue
                    assert closed == pytest.approx(dense_correlation(spec, {1: e1, 2: e2}, measured), abs=1e-10)

    def test_law_of_total_expectation(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            spec = random_spec(rng, 3)
            e1, e2, e3 = (random_direction(rng) for _ in range(3))
            total = 0.0
            for branch in (+1, -1):
                p = branch_probability(spec, branch_selection(spec, e3, branch))
                if p <= 1e-12:
                    continue
                total += p * conditional_correlation_closed(spec, {1: e1, 2: e2}, branch_selection(spec, e3, branch))
            uncond = conditional_correlation_closed(spec, {1: e1, 2: e2}, {})
            assert total == pytest.approx(uncond, abs=1e-10)

    def test_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            spec = random_spec(rng, 3)
            e1, e2, e3 = (random_direction(rng) for _ in range(3))
            for branch in (+1, -1):
                try:
                    value = conditional_correlation_closed(spec, {1: e1, 2: e2}, branch_selection(spec, e3, branch))
                except ZeroProbability:
                    continue
                assert abs(value) <= 1 + 1e-12

    def test_zero_probability(self):
        spec = TriorthogonalSpec(3, 0.0, 1.0, (1, 1, 1))
        with pytest.raises(ZeroProbability):
            conditional_correlation_closed(spec, {1: Direction(0, 0), 2: Direction(0, 0)}, {3: (Direction(0, 0), +1)})

    def test_bad_read_or_measured_sets(self):
        # read particles: non-empty, within 1..n and apart from the measured ones
        x = Direction(1, 0)
        cases = [(4, (1, 2), (2,)), (4, (1, 2), (1, 3)), (3, (1, 2), (1, 2)), (2, (1, 2), (3,)),
                 (3, (), ()), (3, (), (3,)), (3, (0, 1), ()), (3, (1, 4), (2,)), (3, (1, 3), (3,))]
        for n, read, particles in cases:
            spec = TriorthogonalSpec(n, 1.0, 0.0, (1,) * n)
            with pytest.raises(BadSubset):
                conditional_correlation_closed(spec, {p: x for p in read}, {p: (x, +1) for p in particles})

    def test_pair_with_nothing_measured(self):
        # read {1, 2} with nothing measured: the mixture at n = 3, the full correlation at n = 2
        rng = np.random.default_rng(7)
        for _ in range(20):
            e1, e2 = random_direction(rng), random_direction(rng)
            spec3, spec2 = random_spec(rng, 3), random_spec(rng, 2)
            mixture = (spec3.c1**2 + spec3.c2**2) * spec3.labels[0] * spec3.labels[1] * cos(e1.theta) * cos(e2.theta)
            assert conditional_correlation_closed(spec3, {1: e1, 2: e2}, {}) == pytest.approx(mixture, abs=1e-12)
            dense = expectation(make_triorthogonal(spec2), spin_product_operator([e1, e2]))
            assert conditional_correlation_closed(spec2, {1: e1, 2: e2}, {}) == pytest.approx(dense, abs=1e-12)


def test_every_split_matches_dense_operator():
    # n = 2..6: a measured set (maybe empty), a non-empty read set among the rest, the rest traced out
    rng = np.random.default_rng(31)
    drawn = {"full": 0, "covering": 0, "mixture": 0}
    for _ in range(1500):
        n = int(rng.integers(2, 7))
        spec = random_spec(rng, n)
        order = [int(p) for p in rng.permutation(np.arange(1, n + 1))]
        m = int(rng.integers(0, n))
        r = int(rng.integers(1, n - m + 1))
        measured = {p: (random_direction(rng), int(rng.choice([1, -1]))) for p in order[:m]}
        dirs = {p: random_direction(rng) for p in order[m:m + r]}
        try:
            closed = conditional_correlation_closed(spec, dirs, measured)
        except ZeroProbability:
            continue
        assert closed == pytest.approx(dense_correlation(spec, dirs, measured), abs=1e-12)
        drawn["full" if r == n else "covering" if m + r == n else "mixture"] += 1
    assert min(drawn.values()) >= 50, drawn


@pytest.mark.parametrize("c2_sign", [+1, -1])
@pytest.mark.parametrize("labels", LABEL_SETS)
def test_all_or_nothing(labels, c2_sign):
    # x = (pi/2, 0) and y = (pi/2, z pi/2) per particle: E(xxx), E(xyy), E(yxy), E(yyx) = 2 c1 c2 (1, -1, -1, -1).
    # Their product is -(2 c1 c2)^4, while each local +-1 assignment gives +1, so the four
    # predictions are certain and contradict every local model exactly when |c1| = |c2|.
    triples = ["xxx", "xyy", "yxy", "yyx"]
    for alpha in (pi / 4, 0.7, 0.5):
        spec = TriorthogonalSpec(3, cos(alpha), c2_sign * sin(alpha), labels)
        axes = [{"x": Direction(pi / 2, 0.0), "y": Direction(pi / 2, z * pi / 2)} for z in labels]
        settings = [{k: axes[k - 1][a] for k, a in enumerate(t, 1)} for t in triples]
        values = [conditional_correlation_closed(spec, dirs, {}) for dirs in settings]
        expected = 2 * spec.c1 * spec.c2 * np.array([1, -1, -1, -1])
        assert np.max(np.abs(np.array(values) - expected)) <= 1e-12
        assert np.max(np.abs([dense_correlation(spec, dirs, {}) for dirs in settings] - expected)) <= 1e-12
        assert np.prod(values) == pytest.approx(-(2 * spec.c1 * spec.c2) ** 4, abs=1e-12)
        fits = 0
        for assignment in product((1, -1), repeat=6):  # (x_k, y_k) = assignment[2k - 2 : 2k]
            local = [np.prod([assignment[2 * k + "xy".index(a)] for k, a in enumerate(t)]) for t in triples]
            assert np.prod(local) == 1
            fits += all(abs(value - model) <= 1e-12 for value, model in zip(values, local))
        if alpha == pi / 4:
            assert fits == 0 and all(abs(abs(v) - 1) <= 1e-12 for v in values)
        else:  # |E| = sin(2 alpha) < 1: no prediction is certain, no all-or-nothing argument
            assert all(abs(v) == pytest.approx(sin(2 * alpha), abs=1e-12) for v in values)
