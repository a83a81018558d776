"""Acceptance suite: one numbered pass/fail line per criterion.

Each criterion prints directly to the terminal (bypassing capture) so the
verdicts are visible in a plain ``pytest`` run.  The conftest collection hook
runs this module last, which lets the final criterion check the wall-clock
time of the whole session.
"""

import time
from itertools import product
from math import cos, pi, sin, sqrt

import numpy as np
import pytest

from belllab.bell import (
    chsh_condition_lhs,
    chsh_horodecki_max,
    chsh_operator,
    flip_first_particle,
    hardy_maximum,
    hardy_operator,
    lambda_closed,
    maximal_family,
    optimize_settings,
    singlet_equality_lhs,
    triplet_equality_lhs,
)
from belllab.correlations import conditional_correlation_closed, expectation
from belllab.experiment import postselect, sample_shots
from belllab.qlinalg import hermitian_eigen
from belllab.states import (
    Direction,
    TriorthogonalSpec,
    ZeroProbability,
    born_table,
    branch_probability,
    branch_selection,
    condition_on,
    conditional_closed_form,
    make_triorthogonal,
    reduced_density,
)
from conftest import session_elapsed
from oracles import correlation_tensor, optimized, partial_trace, projector, spin_product_operator
from test_states import random_direction, random_spec

INV_SQRT2 = 1 / sqrt(2)
TSIRELSON = 2 * sqrt(2)

GHZ_SPEC = TriorthogonalSpec(3, INV_SQRT2, INV_SQRT2, (1, 1, 1))
SINGLET_SPEC = TriorthogonalSpec(3, INV_SQRT2, -INV_SQRT2, (1, -1, 1))
EQUATORIAL = Direction(pi / 2, 0.0)

SINGLET_SETTINGS = (
    (Direction(0.0, 0.0), Direction(pi / 2, 0.0)),
    (Direction(pi / 4, 0.0), Direction(-pi / 4, 0.0)),
)
TRIPLET_SETTINGS = (
    (Direction(0.0, pi / 2), Direction(-pi / 2, pi / 2)),
    (Direction(pi / 4, pi / 2), Direction(-pi / 4, pi / 2)),
)


@pytest.fixture
def verdict(capfd):
    def _verdict(number: int, ok: bool, label: str) -> None:
        with capfd.disabled():
            print(f"\nACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {label}",
                  flush=True)
        assert ok, f"acceptance criterion {number} failed: {label}"

    return _verdict


def test_criterion_01_singlet_maximal_violation(verdict):
    chsh_condition_lhs(SINGLET_SPEC, SINGLET_SETTINGS, EQUATORIAL, +1)  # warm up
    # the fastest of 5 calls, so one call preempted on a busy host does not fail it
    dt = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        lhs = chsh_condition_lhs(SINGLET_SPEC, SINGLET_SETTINGS, EQUATORIAL, +1)
        dt = min(dt, time.perf_counter() - t0)
    ok = abs(lhs - TSIRELSON) <= 1e-9 and dt < 1e-3
    verdict(1, ok, f"singlet settings give 2*sqrt(2) within 1e-9 in <1 ms "
                   f"(lhs={lhs!r}, {dt * 1e6:.0f} us)")


def test_criterion_02_triplet_maximal_violation(verdict):
    lhs = triplet_equality_lhs(TRIPLET_SETTINGS)
    ok = abs(lhs - TSIRELSON) <= 1e-9
    verdict(2, ok, f"triplet y-z settings give 2*sqrt(2) within 1e-9 (lhs={lhs!r})")


def test_criterion_03_hardy_values(verdict):
    s = ((Direction(pi / 2, 0.0), Direction(pi / 2, pi / 2)),) * 3
    op = hardy_operator(s)
    ghz = expectation(make_triorthogonal(GHZ_SPEC), op)
    mermin_spec = TriorthogonalSpec(3, INV_SQRT2, -INV_SQRT2, (1, 1, 1))
    mermin = expectation(make_triorthogonal(mermin_spec), op)
    ok = abs(ghz + 4.0) <= 1e-9 and abs(mermin - 4.0) <= 1e-9
    verdict(3, ok, f"<B_H> = -4 on GHZ and +4 on Mermin's state within 1e-9 "
                   f"(got {ghz!r}, {mermin!r})")


def test_criterion_04_spectral_closed_forms(verdict):
    rng = np.random.default_rng(41)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        hardy = tuple((random_direction(rng), random_direction(rng)) for _ in range(3))
        chsh = hardy[:2]
        evals = hermitian_eigen(chsh_operator(chsh))
        top = max(abs(evals[0]), abs(evals[-1]))
        worst = max(worst, abs(top - sqrt(2) * lambda_closed(chsh, pi / 4)))
        evals = hermitian_eigen(hardy_operator(hardy))
        top = max(abs(evals[0]), abs(evals[-1]))
        worst = max(worst, abs(top - lambda_closed(hardy, 0.0)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 30.0
    verdict(4, ok, f"1000 random settings: eigensolver top matches closed forms "
                   f"within 1e-9 in <30 s (worst={worst:.2e}, {dt:.1f} s)")


def test_criterion_05_conditional_oracle_equivalence(verdict):
    rng = np.random.default_rng(42)
    worst_corr, worst_norm = 0.0, 0.0
    done = 0
    while done < 1000:
        spec = random_spec(rng, 3)
        e1, e2, e3 = (random_direction(rng) for _ in range(3))
        branch = int(rng.choice([1, -1]))
        p_plus = branch_probability(spec, branch_selection(spec, e3, +1))
        p_minus = branch_probability(spec, branch_selection(spec, e3, -1))
        worst_norm = max(worst_norm, abs(p_plus + p_minus - 1.0))
        measured = branch_selection(spec, e3, branch)
        try:
            closed = conditional_correlation_closed(spec, {1: e1, 2: e2}, measured)
        except ZeroProbability:
            continue
        res = condition_on(make_triorthogonal(spec), measured)
        oracle = expectation(res.state, spin_product_operator([e1, e2]))
        worst_corr = max(worst_corr, abs(closed - oracle))
        done += 1
    ok = worst_corr <= 1e-10 and worst_norm <= 1e-12
    verdict(5, ok, f"1000 draws: conditional closed form vs projection within 1e-10 "
                   f"(worst={worst_corr:.2e}), p+ + p- = 1 within 1e-12 "
                   f"(worst={worst_norm:.2e})")


def test_criterion_06_decomposition_equivalence(verdict):
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(200):
        spec = random_spec(rng, 3)
        rho_diag = reduced_density(spec, 2).matrix
        rho_traced = partial_trace(projector(make_triorthogonal(spec)), {1, 2}).matrix
        worst = max(worst, float(np.max(np.abs(rho_diag - rho_traced))))
        e3 = random_direction(rng)
        mixture = np.zeros((4, 4), dtype=complex)
        for outcome in (+1, -1):
            try:
                res = conditional_closed_form(spec, {3: (e3, outcome)})
            except ZeroProbability:
                continue
            amps = res.state.amplitudes
            mixture += res.probability * np.outer(amps, amps.conj())
        worst = max(worst, float(np.max(np.abs(mixture - rho_diag))))
    ok = worst <= 1e-12
    verdict(6, ok, f"200 draws: subensemble mixture = projector mixture = partial "
                   f"trace within 1e-12, any third axis (worst={worst:.2e})")


def test_criterion_07_unconditional_no_violation(verdict):
    rng = np.random.default_rng(44)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        spec = random_spec(rng, 3)
        rho = reduced_density(spec, 2)
        _, value = optimized(rho, "chsh", restarts=32, seed=int(rng.integers(2**31)))
        worst = max(worst, value)
    dt = time.perf_counter() - t0
    ok = worst <= 2.0 + 1e-6 and dt < 120.0
    verdict(7, ok, f"20 draws x 32 restarts: unconditional |<B>| never exceeds "
                   f"2 + 1e-6 in <2 min (max={worst!r}, {dt:.1f} s)")


def test_criterion_08_family_sweep(verdict):
    rng = np.random.default_rng(45)
    worst = 0.0
    for _ in range(100):
        phi0 = rng.uniform(0, 2 * pi)
        theta0 = rng.uniform(-pi, pi)
        singlet = maximal_family(phi0, theta0)
        worst = max(worst, abs(singlet_equality_lhs(singlet) - TSIRELSON))
        worst = max(worst, abs(triplet_equality_lhs(flip_first_particle(singlet)) - TSIRELSON))
    ok = worst <= 1e-9
    verdict(8, ok, f"100 (phi0, theta0) points: singlet family and its flipped "
                   f"triplet image reach 2*sqrt(2) within 1e-9 (worst={worst:.2e})")


def test_criterion_09_n_particle_generalization(verdict):
    rng = np.random.default_rng(46)
    worst_p, worst_ov, worst_corr = 0.0, 0.0, 0.0
    for n in (4, 5):
        for n_keep in (2, 3):
            done = 0
            while done < 25:
                spec = random_spec(rng, n)
                psi = make_triorthogonal(spec)
                measured = {
                    j: (random_direction(rng), int(rng.choice([1, -1])))
                    for j in range(n_keep + 1, n + 1)
                }
                try:
                    closed = conditional_closed_form(spec, measured)
                    projected = condition_on(psi, measured)
                except ZeroProbability:
                    continue
                worst_p = max(worst_p, abs(closed.probability - projected.probability))
                worst_ov = max(worst_ov, 1.0 - abs(np.vdot(closed.state.amplitudes, projected.state.amplitudes)))
                dirs = [random_direction(rng) for _ in range(n_keep)]
                value = conditional_correlation_closed(spec, dict(enumerate(dirs, 1)), {})
                oracle = expectation(
                    reduced_density(spec, n_keep), spin_product_operator(dirs)
                )
                worst_corr = max(worst_corr, abs(value - oracle))
                done += 1
    ok = worst_p <= 1e-12 and worst_ov <= 1e-12 and worst_corr <= 1e-12
    verdict(9, ok, f"n in {{4,5}}, N in {{2,3}}, 100 draws: closed-form conditional "
                   f"state and product correlation match oracles (worst prob "
                   f"{worst_p:.2e}, overlap defect {worst_ov:.2e}, corr {worst_corr:.2e})")


def test_criterion_10_monte_carlo(verdict):
    t0 = time.perf_counter()
    shots = 1_000_000
    ok = True
    notes = []

    xxx = born_table(GHZ_SPEC, {1: EQUATORIAL, 2: EQUATORIAL, 3: EQUATORIAL}, {})
    arr = sample_shots(xxx, shots, seed=1001)
    arr2 = sample_shots(xxx, shots, seed=1001)
    ok &= arr.tobytes() == arr2.tobytes()
    stats = postselect(arr, 3, +1)
    e_closed = conditional_correlation_closed(GHZ_SPEC, {1: EQUATORIAL, 2: EQUATORIAL}, {3: (EQUATORIAL, +1)})
    p_closed = branch_probability(GHZ_SPEC, branch_selection(GHZ_SPEC, EQUATORIAL, +1))
    ok &= abs(stats.e12_hat - e_closed) <= max(5 * stats.stderr, 1e-12)
    ok &= abs(stats.p_hat - p_closed) <= 5 * sqrt(p_closed * (1 - p_closed) / shots)
    notes.append(f"GHZ/xxx e12_hat={stats.e12_hat:.4f} vs {e_closed:.4f}")

    (a, ap), (b, bp) = SINGLET_SETTINGS
    pairs = [(a, b, +1), (a, bp, +1), (ap, b, +1), (ap, bp, -1)]
    total, var = 0.0, 0.0
    per_pair = shots // 4
    for i, (e1, e2, sign) in enumerate(pairs):
        arr = sample_shots(born_table(SINGLET_SPEC, {1: e1, 2: e2, 3: EQUATORIAL}, {}), per_pair, seed=2000 + i)
        stats = postselect(arr, 3, +1)
        closed = conditional_correlation_closed(SINGLET_SPEC, {1: e1, 2: e2}, {3: (EQUATORIAL, +1)})
        ok &= abs(stats.e12_hat - closed) <= max(5 * stats.stderr, 1e-12)
        p = branch_probability(SINGLET_SPEC, branch_selection(SINGLET_SPEC, EQUATORIAL, +1))
        ok &= abs(stats.p_hat - p) <= 5 * sqrt(p * (1 - p) / per_pair)
        total += sign * stats.e12_hat
        var += stats.stderr**2
    ok &= abs(abs(total) - TSIRELSON) <= 5 * sqrt(var)
    notes.append(f"singlet CHSH sum {abs(total):.4f} vs {TSIRELSON:.4f}")

    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    verdict(10, bool(ok), f"1e6-shot Monte Carlo within 5 sigma, byte-identical "
                          f"reruns, <30 s ({'; '.join(notes)}; {dt:.1f} s)")


def _equatorial_pair_ceiling(spec, phi3: float, branch: int) -> float:
    """CHSH maximum of the pair that an equatorial e3 = (pi/2, phi3) selects, by projection and the rho-route T."""
    cond = condition_on(make_triorthogonal(spec), branch_selection(spec, Direction(pi / 2, phi3), branch))
    return chsh_horodecki_max(correlation_tensor(cond.state, 2))


# defined before criterion 11, which times the whole session and so runs last
def test_criterion_12_all_or_nothing_selection(verdict):
    # The paper's third claim, scoped to e3 perpendicular to z.  An equatorial selection (p = 1/2 on
    # either branch) leaves a pair whose CHSH maximum is 2 sqrt(1 + (2 c1 c2)^2).  It is 2 sqrt(2)
    # exactly where the three-particle maximum hardy_maximum is 4, and there the four terms of B_0
    # at optimize_settings' (Mermin's) settings are certain, with product -1: every local +-1
    # assignment gives the product +1 (the all-or-nothing contradiction of test_all_or_nothing).
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(200):
        spec = random_spec(rng, 3)
        ceiling = _equatorial_pair_ceiling(spec, rng.uniform(0, 2 * pi), int(rng.choice([1, -1])))
        worst = max(worst, abs(ceiling - 2 * sqrt(1 + (2 * spec.c1 * spec.c2) ** 2)))
    agree, contradictions = True, 0
    for labels in product((1, -1), repeat=3):
        for alpha in (pi / 4, -pi / 4, 3 * pi / 4, -3 * pi / 4, 0.7, 0.5, 0.2, 0.0, 1.2):
            spec = TriorthogonalSpec(3, cos(alpha), sin(alpha), labels)
            tsirelson = abs(_equatorial_pair_ceiling(spec, 0.0, 1) - TSIRELSON) <= 1e-12
            four = abs(hardy_maximum(spec) - 4.0) <= 1e-12
            agree &= tsirelson == four
            if four:
                ((a, ap), (b, bp), (c, cp)), _ = optimize_settings(spec, "hardy")
                # B_0 = E(e1 e2' e3') + E(e1' e2 e3') + E(e1' e2' e3) - E(e1 e2 e3)
                terms = [conditional_correlation_closed(spec, dict(enumerate(dirs, 1)), {})
                         for dirs in ((a, bp, cp), (ap, b, cp), (ap, bp, c), (a, b, c))]
                certain = all(abs(abs(e) - 1.0) <= 1e-12 for e in terms)
                contradictions += certain and abs(np.prod(terms) + 1.0) <= 1e-12
    ok = worst <= 1e-12 and agree and contradictions == 32
    verdict(12, ok, f"e3 perpendicular to z (a tilted e3 is out of scope): 200 draws, the selected pair's "
                    f"CHSH maximum is 2 sqrt(1 + (2 c1 c2)^2) within 1e-12 (worst={worst:.2e}); on 72 states "
                    f"it is 2 sqrt(2) exactly where the Mermin maximum is 4 ({'yes' if agree else 'no'}), and at "
                    f"Mermin's settings the four terms are certain with product -1 on {contradictions} of those 32")


def test_criterion_11_suite_runtime(verdict):
    dt = session_elapsed()
    ok = dt < 300.0
    verdict(11, ok, f"full test session under 5 minutes ({dt:.1f} s elapsed)")
