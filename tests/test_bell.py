import warnings

import numpy as np
import pytest
from itertools import product
from math import asin, atan, cos, pi, sin, sqrt

import belllab.bell as bell
from belllab.qlinalg import DensityMatrix, PureState, hermitian_eigen, spin_operator, tensor_product
from belllab.bell import (
    bell_operator,
    chsh_condition_lhs,
    chsh_horodecki_max,
    chsh_operator,
    chsh_special_case_lhs,
    flip_first_particle,
    hardy_maximum,
    hardy_operator,
    included_angle,
    lambda_closed,
    maximal_family,
    optimize_settings,
    singlet_equality_lhs,
    triplet_equality_lhs,
)
from belllab.correlations import correlation_tensor_closed, expectation
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
import oracles
from oracles import correlation_tensor, optimized, oriented_included_angles, projector, seesaw_settings
from test_states import random_direction, random_spec

INV_SQRT2 = 1 / sqrt(2)
TSIRELSON = 2 * sqrt(2)

X = Direction(pi / 2, 0.0)
Y = Direction(pi / 2, pi / 2)

SINGLET_SPEC = TriorthogonalSpec(3, INV_SQRT2, -INV_SQRT2, (1, -1, 1))
SINGLET_SETTINGS = (
    (Direction(0.0, 0.0), Direction(pi / 2, 0.0)),
    (Direction(pi / 4, 0.0), Direction(-pi / 4, 0.0)),
)
TRIPLET_SPEC = TriorthogonalSpec(3, INV_SQRT2, INV_SQRT2, (1, -1, 1))
TRIPLET_SETTINGS = (
    (Direction(0.0, pi / 2), Direction(-pi / 2, pi / 2)),
    (Direction(pi / 4, pi / 2), Direction(-pi / 4, pi / 2)),
)
EQUATORIAL_E3 = Direction(pi / 2, 0.0)


def random_pure_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, amps / np.linalg.norm(amps))


def random_pairs(rng, n):
    return tuple((random_direction(rng), random_direction(rng)) for _ in range(n))


def pair_z(pairs):
    """z_k = e_k' + i e_k for each (e_k, e_k') pair, the see-saw's variables."""
    return [ep.unit_vector + 1j * e.unit_vector for e, ep in pairs]


# oracles for bell_operator: the two operators summed term by term, independent of its one form
def chsh_kron_sum(s):
    """sigma(e1) (x) [sigma(e2)+sigma(e2')] + sigma(e1') (x) [sigma(e2)-sigma(e2')]."""
    s1, s1p, s2, s2p = (spin_operator(d.theta, d.phi) for pair in s for d in pair)
    return tensor_product(s1, s2 + s2p) + tensor_product(s1p, s2 - s2p)


def hardy_kron_sum(s):
    """[s1 (x) s2' + s1' (x) s2] (x) s3' + [s1' (x) s2' - s1 (x) s2] (x) s3."""
    s1, s1p, s2, s2p, s3, s3p = (spin_operator(d.theta, d.phi) for pair in s for d in pair)
    return tensor_product(tensor_product(s1, s2p) + tensor_product(s1p, s2), s3p) + tensor_product(
        tensor_product(s1p, s2p) - tensor_product(s1, s2), s3
    )


# (n, beta) for the form's identities: the two kinds' points (2, pi/4) and (3, 0) and a generic phase
FORM_CASES = [pytest.param(n, beta, id=f"n{n}-{name}")
              for n in (2, 3, 4, 5) for beta, name in ((0.0, "beta0"), (pi / 4, "beta_pi4"), (1.1, "beta1.1"))]


class TestChshOperator:
    def test_matches_kron_sum(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            s = random_pairs(rng, 2)
            assert np.max(np.abs(chsh_operator(s) - chsh_kron_sum(s))) <= 1e-14

    def test_degenerate_settings_collapse(self):
        d = Direction(0.7, 1.1)
        s = ((d, d), (d, d))
        op = chsh_operator(s)
        sigma = spin_operator(d.theta, d.phi)
        assert np.max(np.abs(op - 2 * tensor_product(sigma, sigma))) <= 1e-12
        evals = hermitian_eigen(op)
        assert np.allclose(sorted(set(np.round(evals, 9))), [-2.0, 2.0])

    def test_classic_optimal_setting(self):
        s = ((X, Y), (Direction(pi / 2, pi / 4), Direction(pi / 2, -pi / 4)))
        evals = hermitian_eigen(chsh_operator(s))
        assert abs(evals[0] - TSIRELSON) <= 1e-9

    def test_square_identity(self):
        # B^2 = 4(I + sin t1 sin t2 sigma_perp1 (x) sigma_perp2)
        rng = np.random.default_rng(0)
        for _ in range(25):
            s = random_pairs(rng, 2)
            (e1, e1p), (e2, e2p) = s
            n1 = np.cross(e1.unit_vector, e1p.unit_vector)
            n2 = np.cross(e2.unit_vector, e2p.unit_vector)
            if np.linalg.norm(n1) < 1e-8 or np.linalg.norm(n2) < 1e-8:
                continue
            t1 = included_angle(e1, e1p)
            t2 = included_angle(e2, e2p)
            perp = [n / np.linalg.norm(n) for n in (n1, n2)]
            sig = [
                v[0] * spin_operator(pi / 2, 0) + v[1] * spin_operator(pi / 2, pi / 2) + v[2] * spin_operator(0, 0)
                for v in perp
            ]
            expected = 4 * (np.eye(4) + sin(t1) * sin(t2) * tensor_product(sig[0], sig[1]))
            b = chsh_operator(s)
            assert np.max(np.abs(b @ b - expected)) <= 1e-9


class TestLambdaClosed:
    def test_parallel_pair(self):
        d = Direction(0.3, 0.2)
        s = ((d, d), (Direction(1.0, 2.0), Direction(2.0, 0.5)))
        assert sqrt(2) * lambda_closed(s, pi / 4) == pytest.approx(2.0)

    def test_parallel_axes_give_zero(self):
        # B_(pi/4) of one particle with e = e' is the zero operator; acos of the dot
        # product gave many (d, d) an angle near 1.5e-8 and a top |eigenvalue| near 1e-8
        rng = np.random.default_rng(30)
        for _ in range(1000):
            d = random_direction(rng)
            assert included_angle(d, d) == 0.0
            assert lambda_closed(((d, d),), pi / 4) <= 1e-15

    def test_right_angles(self):
        s = ((X, Y), (Direction(pi / 2, pi / 4), Direction(pi / 2, -pi / 4)))
        assert sqrt(2) * lambda_closed(s, pi / 4) == pytest.approx(TSIRELSON)

    def test_random_vs_eigensolver(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = random_pairs(rng, 2)
            evals = hermitian_eigen(chsh_operator(s))
            assert abs(evals[0] - sqrt(2) * lambda_closed(s, pi / 4)) <= 1e-9

    def test_tsirelson_ceiling(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            s = random_pairs(rng, 2)
            assert sqrt(2) * lambda_closed(s, pi / 4) <= TSIRELSON + 1e-12

    @pytest.mark.parametrize("beta", [0.0, pi / 4, pi / 2, 1.234, -0.7])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_dense_spectrum(self, n, beta):
        # one closed form for every pair count and phase: the top |eigenvalue| of B_beta itself
        rng = np.random.default_rng(29 + n)
        for _ in range(15):
            s = random_pairs(rng, n)
            evals = hermitian_eigen(bell_operator(s, beta))
            assert abs(lambda_closed(s, beta) - max(abs(evals[0]), abs(evals[-1]))) <= 1e-12

    def test_right_angles_reach_mermin_maximum(self):
        # every pair at a right angle: Mermin's 2^(n-1), far past any operator one could build
        for n in range(1, 21):
            assert lambda_closed(((X, Y),) * n, 0.0) == pytest.approx(2.0 ** (n - 1), rel=1e-15)


class TestConditionLhs:
    def test_singlet_maximal(self):
        lhs = chsh_condition_lhs(SINGLET_SPEC, SINGLET_SETTINGS, EQUATORIAL_E3, +1)
        assert lhs == pytest.approx(TSIRELSON, abs=1e-9)

    def test_triplet_maximal(self):
        lhs = chsh_condition_lhs(TRIPLET_SPEC, TRIPLET_SETTINGS, EQUATORIAL_E3, +1)
        assert lhs == pytest.approx(TSIRELSON, abs=1e-9)

    def test_no_violation_for_polar_third_axis(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            spec = random_spec(rng, 3)
            s = random_pairs(rng, 2)
            lhs = chsh_condition_lhs(spec, s, Direction(0.0, rng.uniform(0, 2 * pi)), +1)
            assert lhs <= 2.0 + 1e-12

    def test_reduces_to_special_case(self):
        # theta1' = theta1, theta2' = theta2, phi1' = phi1 + pi/2,
        # gamma phi2' = gamma phi2 + pi/2, phi1 + gamma phi2 + z1 z3 phi3 = 3pi/4 + n pi
        rng = np.random.default_rng(4)
        for n_phase in (0, 1, 2, 3):
            for _ in range(10):
                spec = random_spec(rng, 3)
                z1, z2, z3 = spec.labels
                gamma = z1 * z2
                t1, t2 = rng.uniform(-pi, pi, 2)
                phi1 = rng.uniform(0, 2 * pi)
                phi3 = rng.uniform(0, 2 * pi)
                phi2 = gamma * (3 * pi / 4 + n_phase * pi - phi1 - z1 * z3 * phi3)
                e3 = Direction(rng.uniform(0.2, pi - 0.2), phi3)
                s = (
                    (Direction(t1, phi1), Direction(t1, phi1 + pi / 2)),
                    (Direction(t2, phi2), Direction(t2, phi2 + gamma * pi / 2)),
                )
                for branch in (+1, -1):
                    full = chsh_condition_lhs(spec, s, e3, branch)
                    reduced = chsh_special_case_lhs(spec, t1, t2, e3, branch, n_odd=bool(n_phase % 2))
                    assert full == pytest.approx(2 * reduced, abs=1e-10)

    @pytest.mark.parametrize("n", [4, 5])
    def test_special_case_needs_three_particles(self, n):
        # with particles 4..n traced out the branches no longer interfere on
        # the pair, so the reduced formula does not hold there
        spec = random_spec(np.random.default_rng(n), n)
        with pytest.raises(ValueError, match=f"needs a three-particle state, got n={n}"):
            chsh_special_case_lhs(spec, 0.3, 0.7, Direction(pi / 2, 0.0), +1, n_odd=True)


class TestMaximalFamily:
    def test_recovers_explicit_singlet_example(self):
        (e1, e1p), (e2, e2p) = maximal_family(0.0, pi / 4)
        assert e1.theta == pytest.approx(0.0)
        assert e1p.theta == pytest.approx(pi / 2)
        assert e2.theta == pytest.approx(pi / 4)
        assert e2p.theta == pytest.approx(-pi / 4)
        assert all(d.phi == 0.0 for d in (e1, e1p, e2, e2p))

    def test_random_family_points(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            phi0, theta0 = rng.uniform(0, 2 * pi), rng.uniform(-pi, pi)
            fs = maximal_family(phi0, theta0)
            assert singlet_equality_lhs(fs) == pytest.approx(TSIRELSON, abs=1e-9)
            ft = flip_first_particle(fs)
            assert triplet_equality_lhs(ft) == pytest.approx(TSIRELSON, abs=1e-9)

    def test_theta_flip_maps_singlet_to_triplet(self):
        # the triplet twin of test_family_attains_condition_lhs: the flipped family
        # reaches 2*sqrt(2) through the conditional-correlation route on the triplet
        # state, and flipping twice gives back the very same pairs
        rng = np.random.default_rng(6)
        for _ in range(25):
            fs = maximal_family(rng.uniform(0, 2 * pi), rng.uniform(-pi, pi))
            ft = flip_first_particle(fs)
            assert flip_first_particle(ft) == fs
            lhs = chsh_condition_lhs(TRIPLET_SPEC, ft, EQUATORIAL_E3, +1)
            assert lhs == pytest.approx(TSIRELSON, abs=1e-9)

    def test_family_attains_condition_lhs(self):
        # the family is not just an identity of trig sums: fed into the full
        # conditional-correlation route it reaches 2*sqrt(2) as well
        rng = np.random.default_rng(7)
        for _ in range(10):
            fs = maximal_family(rng.uniform(0, 2 * pi), rng.uniform(-pi, pi))
            lhs = chsh_condition_lhs(SINGLET_SPEC, fs, EQUATORIAL_E3, +1)
            assert lhs == pytest.approx(TSIRELSON, abs=1e-9)

    def test_equalities_match_condition_lhs_everywhere(self):
        # off the family too, each paper equality is the general conditional CHSH
        # quantity of its state; the triplet one is otherwise only a flip of the singlet one
        rng = np.random.default_rng(27)
        for _ in range(200):
            p = random_pairs(rng, 2)
            assert abs(singlet_equality_lhs(p) - chsh_condition_lhs(SINGLET_SPEC, p, EQUATORIAL_E3, +1)) <= 1e-12
            assert abs(triplet_equality_lhs(p) - chsh_condition_lhs(TRIPLET_SPEC, p, EQUATORIAL_E3, +1)) <= 1e-12


class TestHardy:
    def test_matches_kron_sum(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            s = random_pairs(rng, 3)
            assert np.max(np.abs(hardy_operator(s) - hardy_kron_sum(s))) <= 1e-14

    def test_ghz_and_mermin_values(self):
        s = ((X, Y),) * 3
        op = hardy_operator(s)
        ghz = make_triorthogonal(TriorthogonalSpec(3, INV_SQRT2, INV_SQRT2, (1, 1, 1)))
        mermin = make_triorthogonal(TriorthogonalSpec(3, INV_SQRT2, -INV_SQRT2, (1, 1, 1)))
        assert expectation(ghz, op) == pytest.approx(-4.0, abs=1e-9)
        assert expectation(mermin, op) == pytest.approx(4.0, abs=1e-9)

    def test_degenerate_settings_spectrum(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            d1, d2, d3 = (random_direction(rng) for _ in range(3))
            s = ((d1, d1), (d2, d2), (d3, d3))
            evals = hermitian_eigen(hardy_operator(s))
            assert max(abs(evals[0]), abs(evals[-1])) <= 2.0 + 1e-9
            assert lambda_closed(s, 0.0) == pytest.approx(2.0)

    def test_lambda_with_one_parallel_pair(self):
        rng = np.random.default_rng(9)
        d1 = random_direction(rng)
        s = ((d1, d1), (X, Y), (X, Direction(pi / 2, pi / 3)))
        t2, t3 = (included_angle(e, ep) for e, ep in s[1:])
        assert lambda_closed(s, 0.0) == pytest.approx(2 * sqrt(1 + abs(sin(t2) * sin(t3))))

    def test_all_right_angles_reach_four(self):
        s = ((X, Y),) * 3
        assert lambda_closed(s, 0.0) == pytest.approx(4.0)

    def test_random_vs_eigensolver(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            s = random_pairs(rng, 3)
            evals = hermitian_eigen(hardy_operator(s))
            top = max(abs(evals[0]), abs(evals[-1]))
            assert abs(top - lambda_closed(s, 0.0)) <= 1e-9


class TestBellKinds:
    def test_rows_build_the_named_operators(self):
        # a kind is its row (n, beta, scale); the named operators cannot drift from it
        rng = np.random.default_rng(28)
        for kind, named in (("chsh", chsh_operator), ("hardy", hardy_operator)):
            n, beta, scale = bell.BELL_KINDS[kind]
            for _ in range(20):
                p = random_pairs(rng, n)
                assert np.array_equal(scale * bell_operator(p, beta), named(p))


class TestOptimizer:
    SINGLET = PureState(2, np.array([0, 1, -1, 0]) / sqrt(2))

    def test_singlet_reaches_tsirelson(self):
        settings, value = optimized(self.SINGLET, "chsh", restarts=8, seed=0)
        assert value >= TSIRELSON - 1e-6
        assert value <= sqrt(2) * lambda_closed(settings, pi / 4) + 1e-9

    def test_product_state_stays_classical(self):
        up_up = PureState(2, np.array([1, 0, 0, 0], dtype=complex))
        _, value = optimized(up_up, "chsh", restarts=8, seed=1)
        assert value <= 2.0 + 1e-9

    def test_ghz_hardy_reaches_four(self):
        ghz = make_triorthogonal(TriorthogonalSpec(3, INV_SQRT2, INV_SQRT2, (1, 1, 1)))
        _, value = optimized(ghz, "hardy", restarts=6, seed=2)
        assert value >= 4.0 - 1e-6

    def test_deterministic(self):
        s1, v1 = optimized(self.SINGLET, "chsh", restarts=4, seed=7)
        s2, v2 = optimized(self.SINGLET, "chsh", restarts=4, seed=7)
        assert v1 == v2 and s1 == s2

    def test_hardy_deterministic(self):
        # chsh takes its settings in closed form; the see-saw is what draws from the seed
        state = make_triorthogonal(TriorthogonalSpec(3, cos(0.3), sin(0.3), (1, -1, 1)))
        s1, v1 = optimized(state, "hardy", restarts=4, seed=7)
        s2, v2 = optimized(state, "hardy", restarts=4, seed=7)
        assert v1 == v2 and s1 == s2

    def test_maximal_solutions_have_perpendicular_pairs(self):
        for seed in range(3):
            settings, value = optimized(self.SINGLET, "chsh", restarts=8, seed=seed)
            assert value >= TSIRELSON - 1e-6
            assert all(abs(np.dot(e.unit_vector, ep.unit_vector)) <= 1e-4 for e, ep in settings)

    def test_singlet_oriented_angle_signs_opposite(self):
        for seed in range(3):
            settings, value = optimized(self.SINGLET, "chsh", restarts=8, seed=seed)
            assert value >= TSIRELSON - 1e-6
            t1, t2 = oriented_included_angles(settings)
            assert np.sign(sin(t1)) != np.sign(sin(t2))
        # a parallel pair defines no normal: the plain unoriented angles come back
        e, f = Direction(0.4, 0.2), Direction(1.3, 2.0)
        assert oriented_included_angles(((e, e), (e, f))) == (0.0, included_angle(e, f))

    def test_unconditional_mixture_never_violates(self):
        rng = np.random.default_rng(11)
        for i in range(3):
            spec = random_spec(rng, 3)
            rho = reduced_density(spec, 2)
            _, value = optimized(rho, "chsh", restarts=8, seed=i)
            assert value <= 2.0 + 1e-6

    def test_rejects_bad_arguments(self):
        t = correlation_tensor(self.SINGLET, 2)
        with pytest.raises(ValueError):
            seesaw_settings(t, "mermin", restarts=1, seed=0)
        with pytest.raises(ValueError):
            seesaw_settings(t, "chsh", restarts=0, seed=0)

    @pytest.mark.parametrize("kind, n", [("chsh", 2), ("hardy", 3)])
    def test_rejects_a_tensor_of_the_wrong_shape(self, kind, n):
        # the kind's particle count fixes T's shape; a mismatched T is no correlation tensor of it
        for shape in ((3,) * (n - 1), (3,) * (n + 1), (2,) * n, (3 ** n,), ()):
            with pytest.raises(ValueError, match="correlation tensor"):
                seesaw_settings(np.zeros(shape), kind, restarts=1, seed=0)


class TestTensorObjective:
    """The optimizer's correlation-tensor routes against the operator route."""

    @pytest.mark.parametrize("n, beta", FORM_CASES)
    def test_contraction_matches_operator(self, n, beta):
        # <B_beta> = Im(e^(-i beta) T(z_1, ..., z_n)) with z = e' + i e, the see-saw's identity
        rng = np.random.default_rng(13)
        psi = random_pure_state(rng, n)
        axes = "abcde"[:n]
        for state in (psi, projector(psi)):
            t = correlation_tensor(state, n)
            for _ in range(20):
                pairs = random_pairs(rng, n)
                contracted = (np.exp(-1j * beta) * np.einsum(f"{axes},{','.join(axes)}->", t, *pair_z(pairs))).imag
                target = expectation(state, bell_operator(pairs, beta))
                assert contracted == pytest.approx(target, abs=1e-12)

    @pytest.mark.parametrize("n, beta", FORM_CASES)
    def test_seesaw_coefficients_match_operator(self, n, beta):
        # <B_beta> = e.u + e'.w for each particle's pair, the others fixed
        rng = np.random.default_rng(13)
        psi = random_pure_state(rng, n)
        for state in (psi, projector(psi)):
            t_axes = oracles._axis_first(correlation_tensor(state, n), beta)
            for _ in range(20):
                pairs = random_pairs(rng, n)
                z = pair_z(pairs)
                target = expectation(state, bell_operator(pairs, beta))
                for party, (e, ep) in enumerate(pairs):
                    u, w = oracles._coefficients(t_axes, z, party)
                    assert e.unit_vector @ u + ep.unit_vector @ w == pytest.approx(target, abs=1e-12)

    def test_closed_form_chsh_reaches_horodecki(self):
        rng = np.random.default_rng(16)
        pure = [random_pure_state(rng, 2) for _ in range(10)]
        mixtures = [reduced_density(random_spec(rng, 3), 2) for _ in range(10)]
        up_up = PureState(2, np.array([1, 0, 0, 0], dtype=complex))
        # maximally mixed: T = 0, so every coefficient vector is zero and the fallback axis applies
        mixed = DensityMatrix(2, np.eye(4) / 4)
        for state in pure + mixtures + [up_up, mixed]:
            settings, value = optimized(state, "chsh", restarts=1, seed=0)
            assert value == pytest.approx(chsh_horodecki_max(correlation_tensor(state, 2)), abs=1e-12)
            assert abs(expectation(state, chsh_operator(settings))) == value
            # restarts and seed do not enter the closed form
            assert optimized(state, "chsh", restarts=5, seed=9) == (settings, value)
        assert value == 0.0
        # a third route: the see-saw of B_(pi/4) on two particles, the CHSH operator over sqrt(2)
        for state in pure + mixtures + [up_up, mixed]:
            t_axes = oracles._axis_first(correlation_tensor(state, 2), pi / 4)
            seesaw = max(oracles._seesaw(t_axes, pair_z(random_pairs(rng, 2))) for _ in range(8))
            assert sqrt(2) * seesaw == pytest.approx(chsh_horodecki_max(correlation_tensor(state, 2)), abs=1e-9)

    @pytest.mark.parametrize("kind, n", [("chsh", 2), ("hardy", 3)])
    def test_builds_no_operator(self, monkeypatch, kind, n):
        # closed forms pick the settings; the operator route stays free to check them
        def refuse(*args):
            raise AssertionError("optimize_settings built an operator")

        for name in ("bell_operator", "spin_operator", "tensor_product"):
            monkeypatch.setattr(bell, name, refuse)
        monkeypatch.setattr(np, "kron", refuse)
        settings, _ = optimize_settings(TriorthogonalSpec(n, 0.8, 0.6, (1,) * n), kind)
        assert len(settings) == n


class TestHorodecki:
    def test_triorthogonal_pair(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            spec = random_spec(rng, 2)
            ceiling = 2 * sqrt(1 + 4 * spec.c1**2 * spec.c2**2)
            t = correlation_tensor(make_triorthogonal(spec), 2)
            assert chsh_horodecki_max(t) == pytest.approx(ceiling, abs=1e-12)

    def test_product_state(self):
        up_up = PureState(2, np.array([1, 0, 0, 0], dtype=complex))
        assert chsh_horodecki_max(correlation_tensor(up_up, 2)) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_a_tensor_of_the_wrong_shape(self):
        # a three-particle T, a flattened one or a 2x2 matrix is no two-particle correlation tensor
        for shape in ((3, 3, 3), (9,), (2, 2), (3, 4), ()):
            with pytest.raises(ValueError, match="correlation tensor"):
                chsh_horodecki_max(np.zeros(shape))

    def test_generic_mixed_state(self):
        # three distinct singular values of T: every pure, triorthogonal or diagonal state in
        # this suite has s2 = s3, where the second and third eigenvalues of T^T T coincide
        rng = np.random.default_rng(9)
        a = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        rho = DensityMatrix(2, a @ a.conj().T / np.trace(a @ a.conj().T).real)
        s = np.linalg.svd(correlation_tensor(rho, 2), compute_uv=False)
        assert min(s[0] - s[1], s[1] - s[2]) > 0.05
        _, value = optimized(rho, "chsh")
        assert chsh_horodecki_max(correlation_tensor(rho, 2)) == pytest.approx(value, abs=1e-9)

    def test_optimizer_reaches_it(self):
        rng = np.random.default_rng(15)
        for i in range(5):
            psi = random_pure_state(rng, 2)
            _, value = optimized(psi, "chsh", restarts=8, seed=i)
            assert value == pytest.approx(chsh_horodecki_max(correlation_tensor(psi, 2)), abs=1e-9)

    def test_conditional_ceiling_closed_form(self):
        # the post-selected pair's maximum over e1, e1', e2, e2' is 2 sqrt(1 + (c1 c2 sin theta3 / p+-)^2)
        rng = np.random.default_rng(22)
        for _ in range(200):
            alpha = rng.uniform(0.0, pi / 2)
            labels = tuple(int(z) for z in rng.choice([1, -1], 3))
            spec = TriorthogonalSpec(3, cos(alpha), float(rng.choice([1, -1])) * sin(alpha), labels)
            e3, branch = random_direction(rng), int(rng.choice([1, -1]))
            try:
                cond = condition_on(make_triorthogonal(spec), branch_selection(spec, e3, branch))
            except ZeroProbability:
                continue
            p = branch_probability(spec, branch_selection(spec, e3, branch))
            ceiling = 2 * sqrt(1 + (spec.c1 * spec.c2 * sin(e3.theta) / p) ** 2)
            assert chsh_horodecki_max(correlation_tensor(cond.state, 2)) == pytest.approx(ceiling, abs=1e-12)

    def test_tilted_e3_reaches_tsirelson(self):
        # tan(theta3 / 2) = |c1/c2| on branch +, |c2/c1| on branch -: 2 sqrt(2) at p+- = 2 c1^2 c2^2
        rng = np.random.default_rng(23)
        for _ in range(20):
            alpha = rng.uniform(0.05, pi / 2 - 0.05)
            labels = tuple(int(z) for z in rng.choice([1, -1], 3))
            spec = TriorthogonalSpec(3, cos(alpha), float(rng.choice([1, -1])) * sin(alpha), labels)
            for branch, ratio in ((1, spec.c1 / spec.c2), (-1, spec.c2 / spec.c1)):
                e3 = Direction(2 * atan(abs(ratio)), rng.uniform(0, 2 * pi))
                cond = condition_on(make_triorthogonal(spec), branch_selection(spec, e3, branch))
                assert chsh_horodecki_max(correlation_tensor(cond.state, 2)) == pytest.approx(TSIRELSON, abs=1e-12)
                assert branch_probability(spec, branch_selection(spec, e3, branch)) == pytest.approx(
                    2 * spec.c1**2 * spec.c2**2, abs=1e-12)


LABEL_SETS = [(1, 1, 1), (1, -1, 1), (-1, -1, 1)]


class TestOptimizerExactness:
    """The closed-form CHSH settings and the see-saw reach the known maxima."""

    def test_chsh_single_restart_near_balance(self):
        # within 0.004 of alpha = pi/4 the top two singular values of T nearly coincide
        rng = np.random.default_rng(17)
        for i in range(20):
            alpha = rng.uniform(pi / 4 - 0.004, pi / 4 + 0.004)
            labels = tuple(int(z) for z in rng.choice([1, -1], 2))
            state = make_triorthogonal(TriorthogonalSpec(2, cos(alpha), sin(alpha), labels))
            _, value = optimized(state, "chsh", restarts=1, seed=i)
            assert value == pytest.approx(chsh_horodecki_max(correlation_tensor(state, 2)), abs=1e-12)

    @pytest.mark.parametrize("alpha, labels", [
        pytest.param(alpha, labels, id=f"labels{i}" if alpha == 0.3 else f"labels{i}-alpha{alpha}")
        for alpha in (0.27, 0.3, 0.4, 0.6, 0.75) for i, labels in enumerate(LABEL_SETS)
    ])
    def test_hardy_reaches_mermin_value_at_alpha_03(self, alpha, labels):
        # past the threshold sin 2 alpha = 1/2 the maximum is Mermin's value 8|c1 c2|
        # (2.2586 at alpha = 0.3); some single restarts end on a lower local maximum
        c1, c2 = cos(alpha), sin(alpha)
        state = make_triorthogonal(TriorthogonalSpec(3, c1, c2, labels))
        settings, value = optimized(state, "hardy")
        assert value == pytest.approx(8 * abs(c1 * c2), abs=1e-9)
        assert value <= lambda_closed(settings, 0.0) + 1e-9

    @pytest.mark.parametrize("labels", LABEL_SETS)
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2, 0.25])
    def test_hardy_no_violation_below_threshold(self, alpha, labels):
        # sin 2 alpha <= 1/2: no setting violates (Scarani & Gisin, J. Phys. A 34, 6043 (2001)),
        # though the maximum can exceed 8|c1 c2| (1.848 against 1.558 at alpha = 0.2)
        state = make_triorthogonal(TriorthogonalSpec(3, cos(alpha), sin(alpha), labels))
        _, value = optimized(state, "hardy")
        assert value <= 2.0 + 1e-12

    @pytest.mark.parametrize("labels", LABEL_SETS)
    def test_hardy_maximum_closed_form(self, labels):
        # max(8|c1 c2|, 2 sqrt((c1^2 - c2^2)^2 + 4 c1^4 c2^4)); the branches cross at
        # sin 2 alpha = sqrt(6) - 2 (alpha = 0.2331), below the threshold sin 2 alpha = 1/2 (alpha = 0.2618)
        for alpha in (0.05, 0.15, 0.22, 0.23, 0.236, 0.25, 0.26, 0.265, 0.3, 0.5, pi / 4, 1.2):
            c1, c2 = cos(alpha), sin(alpha)
            _, value = optimized(make_triorthogonal(TriorthogonalSpec(3, c1, c2, labels)), "hardy")
            closed = max(8 * abs(c1 * c2), 2 * sqrt((c1**2 - c2**2) ** 2 + 4 * c1**4 * c2**4))
            assert value == pytest.approx(closed, abs=1e-9)

    def test_later_restart_wins(self):
        # at seed 36 restart 0 ends at 8|c1 c2| = 1.33395, below the maximum, and a later restart reaches it
        c1, c2 = cos(0.17), sin(0.17)
        state = make_triorthogonal(TriorthogonalSpec(3, c1, c2, (1, 1, 1)))
        _, first = optimized(state, "hardy", restarts=1, seed=36)
        _, best = optimized(state, "hardy", restarts=4, seed=36)
        assert best == pytest.approx(2 * sqrt((c1**2 - c2**2) ** 2 + 4 * c1**4 * c2**4), abs=1e-9)
        assert best > first

    def test_hardy_restart_at_sweep_cap_warns(self):
        # a generic 3-qubit state: this restart still gains about 3e-10 per sweep at the cap
        psi = random_pure_state(np.random.default_rng(3), 3)
        with pytest.warns(RuntimeWarning, match="SEESAW_MAX_SWEEPS") as caught:
            seesaw_settings(correlation_tensor(psi, 3), "hardy", restarts=1, seed=0)
        assert [w.filename for w in caught] == [__file__]

    def test_triorthogonal_hardy_does_not_warn(self):
        t = correlation_tensor_closed(TriorthogonalSpec(3, cos(0.3), sin(0.3), (1, 1, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seesaw_settings(t, "hardy")


ALL_LABEL_SETS = list(product((1, -1), repeat=3))
# sin 2 alpha = sqrt(6) - 2: 8|c1 c2| = 1 + (c1^2 - c2^2)^2, where the closed settings change branch
ALPHA_CROSSOVER = 0.5 * asin(sqrt(6) - 2)


class TestHardyClosedForm:
    """optimize_settings' "hardy" settings reach hardy_maximum, which no see-saw exceeds."""

    # a grid over [-pi, pi] and the crossover in each quadrant
    ALPHAS = np.linspace(-pi, pi, 49).tolist() + [sign * (k * pi / 2 + side * ALPHA_CROSSOVER)
                                                  for sign in (1, -1) for k in (0, 1) for side in (1, -1)]

    @pytest.mark.parametrize("labels", ALL_LABEL_SETS, ids=lambda labels: "".join("+-"[z < 0] for z in labels))
    def test_dense_value_at_closed_settings_is_the_maximum(self, labels):
        # the operator route on psi, not |<B>|: the closed settings give +maximum for either sign of c1 c2
        for alpha in self.ALPHAS:
            spec = TriorthogonalSpec(3, cos(alpha), sin(alpha), labels)
            settings, maximum = optimize_settings(spec, "hardy")
            value = expectation(make_triorthogonal(spec), hardy_operator(settings))
            c1, c2 = spec.c1, spec.c2
            closed = max(8 * abs(c1 * c2), 2 * sqrt((c1**2 - c2**2) ** 2 + 4 * c1**4 * c2**4))
            assert maximum == hardy_maximum(spec)
            assert abs(value - maximum) <= 1e-12
            assert abs(maximum - closed) <= 1e-12
            assert value <= lambda_closed(settings, 0.0) + 1e-12
        # product states and GHZ
        for alpha, known in ((0.0, 2.0), (pi / 2, 2.0), (pi, 2.0), (pi / 4, 4.0), (-pi / 4, 4.0), (3 * pi / 4, 4.0)):
            assert hardy_maximum(TriorthogonalSpec(3, cos(alpha), sin(alpha), labels)) == pytest.approx(known, abs=1e-12)

    def test_seesaw_never_exceeds_the_maximum(self):
        # the oracle see-saw works on the rho-route T of psi, not on (c1, c2) or the closed T
        rng = np.random.default_rng(47)
        signs = set()
        for i in range(200):
            alpha = rng.uniform(0.0, pi / 2)
            labels = tuple(int(z) for z in rng.choice([1, -1], 3))
            spec = TriorthogonalSpec(3, cos(alpha), float(rng.choice([1, -1])) * sin(alpha), labels)
            signs.add(np.sign(spec.c1 * spec.c2))
            _, value = optimized(make_triorthogonal(spec), "hardy", restarts=48, seed=i)
            assert value <= hardy_maximum(spec) + 1e-12
        assert signs == {1.0, -1.0}

    def test_rejects_other_kinds_and_particle_counts(self):
        three = TriorthogonalSpec(3, 0.8, 0.6, (1, 1, 1))
        with pytest.raises(ValueError, match="kind"):
            optimize_settings(three, "mermin")
        for spec, kind in ((three, "chsh"), (TriorthogonalSpec(2, 0.8, 0.6, (1, 1)), "hardy")):
            with pytest.raises(ValueError, match="particle state"):
                optimize_settings(spec, kind)
        with pytest.raises(ValueError, match="three-particle"):
            hardy_maximum(TriorthogonalSpec(4, 0.8, 0.6, (1, 1, 1, 1)))


class TestChshClosedForm:
    """optimize_settings' "chsh" settings reach the Horodecki maximum 2 sqrt(1 + (2 c1 c2)^2) of T."""

    # a grid over [-pi, pi] with the product states (alpha = 0) and the balanced states (alpha = +-pi/4)
    ALPHAS = np.linspace(-pi, pi, 73).tolist() + [0.0, pi / 4, -pi / 4, 3 * pi / 4, 1e-9, pi / 4 + 1e-9]

    @pytest.mark.parametrize("labels", list(product((1, -1), repeat=2)),
                             ids=lambda labels: "".join("+-"[z < 0] for z in labels))
    def test_dense_value_at_closed_settings_is_the_maximum(self, labels):
        # the operator route on psi, not |<B>|: the closed settings give +maximum for either sign of c1 c2
        for alpha in self.ALPHAS:
            spec = TriorthogonalSpec(2, cos(alpha), sin(alpha), labels)
            settings, maximum = optimize_settings(spec, "chsh")
            value = expectation(make_triorthogonal(spec), chsh_operator(settings))
            closed = 2 * sqrt(1 + (2 * spec.c1 * spec.c2) ** 2)
            assert maximum == chsh_horodecki_max(correlation_tensor_closed(spec))
            assert abs(value - maximum) <= 1e-12
            assert abs(maximum - closed) <= 1e-12
            assert value <= sqrt(2) * lambda_closed(settings, pi / 4) + 1e-12
        # a product state, and the balanced states where T's three singular values are all 1
        for alpha, known in ((0.0, 2.0), (pi / 4, TSIRELSON), (-pi / 4, TSIRELSON)):
            spec = TriorthogonalSpec(2, cos(alpha), sin(alpha), labels)
            settings, maximum = optimize_settings(spec, "chsh")
            assert maximum == pytest.approx(known, abs=1e-12)
            assert expectation(make_triorthogonal(spec), chsh_operator(settings)) == pytest.approx(known, abs=1e-12)

    def test_pinned_settings(self):
        # y = 2 c1 c2 = 0.96 > 0: e1 = z, e1' = x, e2 and e2' at u = atan(0.96) from z, and the
        # label -1 of particle 2 maps its axes by (theta, phi) -> (pi - theta, -phi)
        settings, maximum = optimize_settings(TriorthogonalSpec(2, 0.6, 0.8, (1, -1)), "chsh")
        u = atan(0.96)
        expected = (((0.0, 0.0), (pi / 2, 0.0)), ((pi - u, 0.0), (pi - u, -pi)))
        assert [[(e.theta, e.phi) for e in pair] for pair in settings] == [
            [pytest.approx(axis, abs=1e-15) for axis in pair] for pair in expected]
        assert maximum == pytest.approx(2 * sqrt(1 + 0.96**2), abs=1e-12)
