"""Bell operators as one multilinear form, and their maxima.

With z_k = sigma(e_k') + i sigma(e_k), every Bell operator here is B_beta =
Im(e^(-i beta) (x)_k z_k) (``bell_operator``): the CHSH operator is sqrt(2) B_(pi/4)
on two particles, the three-particle (Mermin) operator is B_0.  Independent
routes to the same numbers coexist on purpose: the operator spectrum (LAPACK
eigensolver), the closed-form largest eigenvalue ``lambda_closed``, 2(1 + sum
of |sin| products)^(1/2), and measurement-angle families attaining the
quantum maximum.  ``optimize_settings`` finds maximizing settings from the
state's correlation tensor T (T_ij = <sigma_i (x) sigma_j>, or T_ijk).  For
CHSH the maximum, 2(m1 + m2)^(1/2) from the top eigenvalues of T^T T, and
settings reaching it, from T's singular vectors, are closed forms (Horodecki,
Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)).  <B_beta> = Im(e^(-i
beta) T(z_1, ..., z_n)) is linear in each particle's pair of axes: a see-saw of
exact per-particle updates climbs it from seeded restarts, for any n and beta
(Pal & Vertesi, Phys. Rev. A 82, 022116 (2010)); a restart cut off at
SEESAW_MAX_SWEEPS warns.  The value returned is the operator route's |<B>| at
the returned settings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from functools import reduce
from math import acos, atan2, cos, pi, sin, sqrt

import numpy as np

from .qlinalg import spin_operator, tensor_product
from .states import Direction, TriorthogonalSpec, branch_probability, branch_selection, nonzero_probability
from .correlations import conditional_correlation_closed, correlation_tensor, expectation

CHSH_BOUND = 2.0
VIOLATION_TOL = 1e-12
SEESAW_TOL = 1e-14  # a see-saw sweep gaining no more has converged
SEESAW_MAX_SWEEPS = 2000  # bounds the slow approach on some generic 3-qubit states
_Z_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class ChshSettings:
    e1: Direction
    e1p: Direction
    e2: Direction
    e2p: Direction


@dataclass(frozen=True)
class HardySettings:
    e1: Direction
    e1p: Direction
    e2: Direction
    e2p: Direction
    e3: Direction
    e3p: Direction


def _pairs(s) -> list:
    """The settings' (e_k, e_k') pairs, one per particle: its fields taken two at a time."""
    axes = [getattr(s, f.name) for f in fields(s)]
    return list(zip(axes[::2], axes[1::2]))


def included_angle(a: Direction, b: Direction) -> float:
    """Unoriented angle between two measurement axes, in [0, pi]."""
    return acos(float(np.clip(np.dot(a.unit_vector, b.unit_vector), -1.0, 1.0)))


def oriented_included_angles(s: ChshSettings):
    """Included angles with signs consistent across the two particles.

    The sign convention is fixed by particle 1: theta_1 is reported positive
    and its pair's cross product defines the reference normal; theta_2 gets
    the sign of (e2 x e2') projected on that normal.  Returns (theta_1,
    theta_2); either pair being (anti)parallel leaves the plain unoriented
    angles (no normal is defined).
    """
    t1 = included_angle(s.e1, s.e1p)
    t2 = included_angle(s.e2, s.e2p)
    n1 = np.cross(s.e1.unit_vector, s.e1p.unit_vector)
    n2 = np.cross(s.e2.unit_vector, s.e2p.unit_vector)
    if np.linalg.norm(n1) < 1e-8 or np.linalg.norm(n2) < 1e-8:
        return t1, t2
    if float(np.dot(n2, n1)) < 0:
        t2 = -t2
    return t1, t2


def bell_operator(pairs, beta: float) -> np.ndarray:
    """B_beta = Im(e^(-i beta) W) = (e^(-i beta) W - h.c.)/2i, W = (x)_k [sigma(e_k') + i sigma(e_k)].

    ``pairs`` holds one (e_k, e_k') pair of Directions per particle; B_beta weighs each
    product of one axis per particle, m of them unprimed, by sin(m pi/2 - beta).
    """
    m = np.exp(-1j * beta) * reduce(
        tensor_product, (spin_operator(ep.theta, ep.phi) + 1j * spin_operator(e.theta, e.phi) for e, ep in pairs))
    return (m - m.conj().T) * -0.5j


def chsh_operator(s: ChshSettings) -> np.ndarray:
    """sigma(e1) (x) [sigma(e2)+sigma(e2')] + sigma(e1') (x) [sigma(e2)-sigma(e2')], sqrt(2) B_(pi/4)."""
    return sqrt(2.0) * bell_operator(_pairs(s), pi / 4)


def hardy_operator(s: HardySettings) -> np.ndarray:
    """[s1 (x) s2' + s1' (x) s2] (x) s3' + [s1' (x) s2' - s1 (x) s2] (x) s3, Mermin's B_0."""
    return bell_operator(_pairs(s), 0.0)


def lambda_closed(s) -> float:
    """Largest |eigenvalue| of the CHSH or three-particle Bell operator (at most 2 sqrt(2) or 4).

    2(1 + sum_{j<k} |sin t_j sin t_k|)^(1/2), t_k the angle between e_k and e_k' (``_pairs``),
    summed (1,2), (2,3), (1,3): the order fixes the last digit of reports.
    """
    sines = [sin(included_angle(e, ep)) for e, ep in _pairs(s)]
    total = 1.0
    for gap in range(1, len(sines)):
        for j in range(len(sines) - gap):
            total += abs(sines[j] * sines[j + gap])
    return 2.0 * sqrt(total)


# kind -> (settings class, two axes per particle; Bell operator)
BELL_KINDS = {"chsh": (ChshSettings, chsh_operator), "hardy": (HardySettings, hardy_operator)}


def _chsh_combination(E, s: ChshSettings) -> float:
    """E(e1,e2) + E(e1,e2') + E(e1',e2) - E(e1',e2'), summed in that order, for a pair function E."""
    return E(s.e1, s.e2) + E(s.e1, s.e2p) + E(s.e1p, s.e2) - E(s.e1p, s.e2p)


def chsh_condition_lhs(spec: TriorthogonalSpec, s: ChshSettings, e3: Direction, branch: int) -> float:
    """|E(e1,e2) + E(e1,e2') + E(e1',e2) - E(e1',e2')| within one subensemble.

    Particle 3 gave outcome branch * z3 along e3 (``branch_selection``); values above 2 mean the
    post-selected pair violates the CHSH inequality.
    """
    measured = branch_selection(spec, e3, branch)
    return abs(_chsh_combination(lambda a, b: conditional_correlation_closed(spec, {1: a, 2: b}, measured), s))


def chsh_special_case_lhs(
    spec: TriorthogonalSpec, theta1: float, theta2: float, e3: Direction, branch: int, n_odd: bool
) -> float:
    """Simplified violation quantity for the symmetric setting choice.

    A three-particle formula: it needs the two branches to interfere on the
    pair, and with particles 4..n traced out that term vanishes.  Applies
    when theta1' = theta1, theta2' = theta2, phi1' = phi1 + pi/2,
    gamma phi2' = gamma phi2 + pi/2 and the combined phase equals
    3*pi/4 + n*pi:
    |gamma cos t1 cos t2 +- mu z3 (c1 c2/p+-) sqrt(2) sin t1 sin t2 sin t3|,
    with mu = +1 for n odd, -1 for n even.  Violation means value > 1 (the
    full four-term quantity is exactly twice this).
    """
    if spec.n != 3:
        raise ValueError(f"chsh_special_case_lhs needs a three-particle state, got n={spec.n}")
    z1, z2, z3 = spec.labels
    gamma = z1 * z2
    mu = 1.0 if n_odd else -1.0
    p = nonzero_probability(branch_probability(spec, branch_selection(spec, e3, branch)), "branch")
    return abs(
        gamma * cos(theta1) * cos(theta2)
        + branch * mu * z3 * (spec.c1 * spec.c2 / p) * sqrt(2.0) * sin(theta1) * sin(theta2) * sin(e3.theta)
    )


def maximal_family(phi0: float, theta0: float, which: str) -> ChshSettings:
    """A one-parameter-per-angle family of settings attaining the 2*sqrt(2) maximum.

    Singlet family: all azimuths phi0, theta1 = theta0 - pi/4,
    theta1' = theta0 + pi/4, theta2 = theta0, theta2' = theta0 - pi/2.
    Triplet family: the same with the first particle's polar angles negated.
    """
    sign = {"singlet": 1.0, "triplet": -1.0}[which]
    thetas = (sign * (theta0 - pi / 4), sign * (theta0 + pi / 4), theta0, theta0 - pi / 2)
    return ChshSettings(*(Direction(theta, phi0) for theta in thetas))


def _equality_lhs(s: ChshSettings, sin_sign: float) -> float:
    c = _chsh_combination(lambda a, b: cos(a.theta) * cos(b.theta), s)
    t = _chsh_combination(lambda a, b: sin(a.theta) * sin(b.theta) * cos(a.phi - b.phi), s)
    return abs(c + sin_sign * t)


def singlet_equality_lhs(s: ChshSettings) -> float:
    """Maximal-violation quantity for the singlet conditional state (max 2*sqrt(2))."""
    return _equality_lhs(s, +1.0)


def triplet_equality_lhs(s: ChshSettings) -> float:
    """Maximal-violation quantity for the triplet conditional state (max 2*sqrt(2))."""
    return _equality_lhs(s, -1.0)


def flip_first_particle(s: ChshSettings) -> ChshSettings:
    """Map theta_1 -> -theta_1, theta_1' -> -theta_1'.

    Sends any settings satisfying the singlet equality onto settings
    satisfying the triplet equality, and vice versa.
    """
    return replace(s, e1=Direction(-s.e1.theta, s.e1.phi), e1p=Direction(-s.e1p.theta, s.e1p.phi))


def chsh_horodecki_max(state) -> float:
    """Largest |<B_CHSH>| over all settings for a two-particle state.

    2(m1 + m2)^(1/2), where m1 and m2 are the two largest eigenvalues of
    T^T T and T is the state's 3x3 correlation tensor.
    """
    t = correlation_tensor(state, 2)
    m = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * sqrt(float(m[-1] + m[-2]))


def _unit_or(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0.0 else fallback


def _chsh_closed_settings(t: np.ndarray) -> ChshSettings:
    """Settings with <B_CHSH> = chsh_horodecki_max for the correlation tensor t = U diag(s) V^T.

    For tan(u) = s2/s1, b and b' = cos(u) v1 +- sin(u) v2 give t(b +- b') of
    lengths 2 s1 cos(u) and 2 s2 sin(u), and a, a' along them reach
    2(s1^2 + s2^2)^(1/2).  A zero vector (no effect on <B>) becomes the z axis.
    """
    _, s, vt = np.linalg.svd(t)
    u = atan2(s[1], s[0])
    b, bp = cos(u) * vt[0] + sin(u) * vt[1], cos(u) * vt[0] - sin(u) * vt[1]
    a, ap = (_unit_or(t @ v, _Z_AXIS) for v in (b + bp, b - bp))
    return ChshSettings(*(Direction.from_unit_vector(v) for v in (a, ap, b, bp)))


def _axis_first(t: np.ndarray, beta: float) -> list:
    """e^(-i beta) T once per particle p, with p's axis first: the operand of ``_coefficients``."""
    return [np.exp(-1j * beta) * np.moveaxis(t, p, 0) for p in range(t.ndim)]


def _coefficients(t_axes, z, party: int):
    """(u, w) with <B_beta> = e.u + e'.w in one particle's pair (e, e'), t_axes = _axis_first(T, beta).

    With z[k] = e_k' + i e_k, <B_beta> = Im(e^(-i beta) T(z[0], ..., z[n-1])), so e^(-i beta) T
    contracted with every other particle's z is u + i w.
    """
    c = t_axes[party]
    for k in reversed(range(len(z))):
        if k != party:
            c = c @ z[k]
    return c.real, c.imag


def _seesaw(t_axes, z) -> float:
    """Set one particle's pair at a time to its exact best response e = u/|u|, e' = w/|w|.

    A zero coefficient vector keeps the current axis.  Stops when a sweep gains
    at most SEESAW_TOL, or with a RuntimeWarning after SEESAW_MAX_SWEEPS sweeps;
    updates z in place and returns the value reached, |u| + |w|.
    """
    value = -np.inf
    for _ in range(SEESAW_MAX_SWEEPS):
        previous = value
        for party in range(len(z)):
            u, w = _coefficients(t_axes, z, party)
            z[party] = _unit_or(w, z[party].real) + 1j * _unit_or(u, z[party].imag)
        value = float(np.linalg.norm(u) + np.linalg.norm(w))
        if value - previous <= SEESAW_TOL:
            break
    else:
        warnings.warn(f"see-saw restart stopped at SEESAW_MAX_SWEEPS = {SEESAW_MAX_SWEEPS} sweeps, "
                      f"last gain {value - previous:.3g}", RuntimeWarning, stacklevel=3)
    return value


def optimize_settings(state, kind: str, restarts: int = 32, seed: int = 0):
    """Settings maximizing |<B>| for a 2-particle (kind="chsh") or 3-particle ("hardy") state.

    "chsh" settings are in closed form (_chsh_closed_settings): ``restarts``
    and ``seed`` do not change them.  "hardy" restart i runs the see-saw of B_0
    from 2n angle pairs drawn from substream (seed, i); the best value wins, ties
    by lowest index (negating a pair negates <B>, so the see-saw maximizes <B>).
    Returns (settings, |<B>|), the value from one Bell operator build.
    """
    if kind not in BELL_KINDS:
        raise ValueError(f"kind must be one of {sorted(BELL_KINDS)}, got {kind!r}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if kind == "chsh":
        settings = _chsh_closed_settings(correlation_tensor(state, 2))
        return settings, abs(expectation(state, chsh_operator(settings)))
    t_axes = _axis_first(correlation_tensor(state, 3), 0.0)
    best_value, best_z = -np.inf, None
    for i in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        e = [Direction(theta, phi).unit_vector for theta, phi in rng.uniform(0.0, 2 * pi, size=(2 * len(t_axes), 2))]
        z = [ep + 1j * e_k for e_k, ep in zip(e[::2], e[1::2])]
        value = _seesaw(t_axes, z)
        if best_z is None or value > best_value:
            best_value, best_z = value, z
    settings = HardySettings(*(Direction.from_unit_vector(v) for zp in best_z for v in (zp.imag, zp.real)))
    return settings, abs(expectation(state, hardy_operator(settings)))
