"""CHSH and three-particle (Hardy-type) Bell operators and their maxima.

Three independent routes to the same numbers coexist here on purpose:
the operator spectrum (LAPACK eigensolver), the closed-form largest
eigenvalue 2(1 + sum of |sin| products)^(1/2), and explicit measurement-angle
families that attain the quantum maximum.  A derivative-free optimizer
searches the angle space directly as a fourth, fully numerical route.

<B> depends on the state only through its correlation tensor T (T_ij =
<sigma_i (x) sigma_j>, or T_ijk for three particles), so the optimizer builds
T once per call and its objective contracts T with the measurement unit
vectors in plain floats: no operator is built per evaluation.  The value it
returns is the operator route's |<B>| at the winning settings, one Bell
operator build per call.  For CHSH the maximum over all settings also has a
closed form, 2(m1 + m2)^(1/2) from the two largest eigenvalues of T^T T
(Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)), which
checks the optimizer.  Restarts run one after another.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, cos, pi, sin, sqrt

import numpy as np

from .qlinalg import DensityMatrix, PureState, spin_operator, tensor_product
from .states import PROBABILITY_FLOOR, Direction, TriorthogonalSpec, ZeroProbability
from .correlations import (
    conditional_correlation_closed,
    conditional_probability,
    correlation_tensor,
    expectation,
)

CHSH_BOUND = 2.0
VIOLATION_TOL = 1e-12


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


@dataclass(frozen=True)
class ViolationReport:
    expectation_value: float
    bound: float
    violated: bool
    margin: float

    @classmethod
    def from_value(cls, value: float, bound: float = CHSH_BOUND) -> "ViolationReport":
        return cls(
            expectation_value=float(value),
            bound=float(bound),
            violated=abs(value) > bound + VIOLATION_TOL,
            margin=float(abs(value) - bound),
        )


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


def chsh_operator(s: ChshSettings) -> np.ndarray:
    """sigma(e1) (x) [sigma(e2)+sigma(e2')] + sigma(e1') (x) [sigma(e2)-sigma(e2')]."""
    s1 = spin_operator(s.e1.theta, s.e1.phi)
    s1p = spin_operator(s.e1p.theta, s.e1p.phi)
    s2 = spin_operator(s.e2.theta, s.e2.phi)
    s2p = spin_operator(s.e2p.theta, s.e2p.phi)
    return tensor_product(s1, s2 + s2p) + tensor_product(s1p, s2 - s2p)


def chsh_lambda_closed(s: ChshSettings) -> float:
    """Largest eigenvalue of the CHSH operator: 2(1 + |sin t1 sin t2|)^(1/2)."""
    t1 = included_angle(s.e1, s.e1p)
    t2 = included_angle(s.e2, s.e2p)
    return 2.0 * sqrt(1.0 + abs(sin(t1) * sin(t2)))


def hardy_operator(s: HardySettings) -> np.ndarray:
    """[s1 (x) s2' + s1' (x) s2] (x) s3' + [s1' (x) s2' - s1 (x) s2] (x) s3."""
    s1 = spin_operator(s.e1.theta, s.e1.phi)
    s1p = spin_operator(s.e1p.theta, s.e1p.phi)
    s2 = spin_operator(s.e2.theta, s.e2.phi)
    s2p = spin_operator(s.e2p.theta, s.e2p.phi)
    s3 = spin_operator(s.e3.theta, s.e3.phi)
    s3p = spin_operator(s.e3p.theta, s.e3p.phi)
    return tensor_product(tensor_product(s1, s2p) + tensor_product(s1p, s2), s3p) + tensor_product(
        tensor_product(s1p, s2p) - tensor_product(s1, s2), s3
    )


def hardy_lambda_closed(s: HardySettings) -> float:
    """Largest |eigenvalue| of the three-particle Bell operator.

    2(1 + |sin t1 sin t2| + |sin t2 sin t3| + |sin t1 sin t3|)^(1/2), where
    t_i is the angle between e_i and e_i'.  Tops out at 4 when all three
    pairs are perpendicular.
    """
    t1 = included_angle(s.e1, s.e1p)
    t2 = included_angle(s.e2, s.e2p)
    t3 = included_angle(s.e3, s.e3p)
    return 2.0 * sqrt(
        1.0 + abs(sin(t1) * sin(t2)) + abs(sin(t2) * sin(t3)) + abs(sin(t1) * sin(t3))
    )


def chsh_condition_lhs(
    spec: TriorthogonalSpec,
    s: ChshSettings,
    e3: Direction,
    branch: int,
) -> float:
    """|E(e1,e2) + E(e1,e2') + E(e1',e2) - E(e1',e2')| within one subensemble.

    Values above 2 mean the post-selected pair violates the CHSH inequality.
    """
    terms = [
        conditional_correlation_closed(spec, s.e1, s.e2, e3, branch).value,
        conditional_correlation_closed(spec, s.e1, s.e2p, e3, branch).value,
        conditional_correlation_closed(spec, s.e1p, s.e2, e3, branch).value,
        -conditional_correlation_closed(spec, s.e1p, s.e2p, e3, branch).value,
    ]
    return abs(sum(terms))


def chsh_special_case_lhs(
    spec: TriorthogonalSpec,
    theta1: float,
    theta2: float,
    e3: Direction,
    branch: int,
    n_odd: bool,
) -> float:
    """Simplified violation quantity for the symmetric setting choice.

    Applies when theta1' = theta1, theta2' = theta2, phi1' = phi1 + pi/2,
    gamma phi2' = gamma phi2 + pi/2 and the combined phase equals
    3*pi/4 + n*pi:
    |gamma cos t1 cos t2 +- mu z3 (c1 c2/p+-) sqrt(2) sin t1 sin t2 sin t3|,
    with mu = +1 for n odd, -1 for n even.  Violation means value > 1 (the
    full four-term quantity is exactly twice this).
    """
    z1, z2, z3 = spec.labels
    gamma = z1 * z2
    mu = 1.0 if n_odd else -1.0
    p = conditional_probability(spec, e3, branch)
    if p <= PROBABILITY_FLOOR:
        raise ZeroProbability(f"branch probability {p!r} below 1e-12")
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
    return ChshSettings(
        e1=Direction(sign * (theta0 - pi / 4), phi0),
        e1p=Direction(sign * (theta0 + pi / 4), phi0),
        e2=Direction(theta0, phi0),
        e2p=Direction(theta0 - pi / 2, phi0),
    )


def _equality_lhs(s: ChshSettings, sin_sign: float) -> float:
    c = (
        cos(s.e1.theta) * cos(s.e2.theta)
        + cos(s.e1.theta) * cos(s.e2p.theta)
        + cos(s.e1p.theta) * cos(s.e2.theta)
        - cos(s.e1p.theta) * cos(s.e2p.theta)
    )
    t = (
        sin(s.e1.theta) * sin(s.e2.theta) * cos(s.e1.phi - s.e2.phi)
        + sin(s.e1.theta) * sin(s.e2p.theta) * cos(s.e1.phi - s.e2p.phi)
        + sin(s.e1p.theta) * sin(s.e2.theta) * cos(s.e1p.phi - s.e2.phi)
        - sin(s.e1p.theta) * sin(s.e2p.theta) * cos(s.e1p.phi - s.e2p.phi)
    )
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
    return ChshSettings(
        e1=Direction(-s.e1.theta, s.e1.phi),
        e1p=Direction(-s.e1p.theta, s.e1p.phi),
        e2=s.e2,
        e2p=s.e2p,
    )


def chsh_horodecki_max(state) -> float:
    """Largest |<B_CHSH>| over all settings for a two-particle state.

    2(m1 + m2)^(1/2), where m1 and m2 are the two largest eigenvalues of
    T^T T and T is the state's 3x3 correlation tensor.
    """
    t = correlation_tensor(state, 2)
    m = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * sqrt(float(m[-1] + m[-2]))


def _settings_from_vector(x: np.ndarray, kind: str):
    dirs = [Direction(float(x[2 * i]), float(x[2 * i + 1])) for i in range(len(x) // 2)]
    if kind == "chsh":
        return ChshSettings(*dirs)
    return HardySettings(*dirs)


def _unit_vectors(x):
    """The (theta, phi) pairs of a flat angle list as unit 3-vectors (Direction.unit_vector)."""
    out = []
    for theta, phi in zip(x[::2], x[1::2]):
        st = sin(theta)
        out.append((st * cos(phi), st * sin(phi), cos(theta)))
    return out


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _chsh_contraction(t, x) -> float:
    """<B_CHSH> = a.T(b + b') + a'.T(b - b'), T a 3x3 nested list, x the 8 angles."""
    a, ap, b, bp = _unit_vectors(x)
    bsum = (b[0] + bp[0], b[1] + bp[1], b[2] + bp[2])
    bdiff = (b[0] - bp[0], b[1] - bp[1], b[2] - bp[2])
    return sum(ai * _dot(ti, bsum) + api * _dot(ti, bdiff) for ti, ai, api in zip(t, a, ap))


def _hardy_contraction(t, x) -> float:
    """<B_Hardy> for T a 3x3x3 nested list and x the 12 angles.

    The hardy_operator bracket [a(x)b' + a'(x)b](x)c' + [a'(x)b' - a(x)b](x)c
    contracted with T_ijk.
    """
    a, ap, b, bp, c, cp = _unit_vectors(x)
    total = 0.0
    for ti, ai, api in zip(t, a, ap):
        for tij, bj, bpj in zip(ti, b, bp):
            total += (ai * bpj + api * bj) * _dot(tij, cp) + (api * bpj - ai * bj) * _dot(tij, c)
    return total


def optimize_settings(state, kind: str, restarts: int = 32, seed: int = 0):
    """Maximize |<B>| over all measurement angles by restarted Nelder-Mead.

    ``state`` is a 2-particle PureState/DensityMatrix for kind="chsh" or a
    3-particle one for kind="hardy".  The objective contracts the state's
    correlation tensor, built once; the returned value is |<B>| from the
    Bell operator at the winning settings.  Deterministic for fixed (inputs,
    seed): restart i draws its start point from substream (seed, i), and the
    best result is chosen by value, ties by lowest restart index.  Returns
    (settings, value).
    """
    from scipy.optimize import minimize  # deferred: importing scipy dominates CLI start-up

    if kind not in ("chsh", "hardy"):
        raise ValueError(f"kind must be 'chsh' or 'hardy', got {kind!r}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if kind == "chsh":
        n_particles, build, contract = 2, chsh_operator, _chsh_contraction
    else:
        n_particles, build, contract = 3, hardy_operator, _hardy_contraction
    n_angles = 4 * n_particles  # two directions per particle
    t = correlation_tensor(state, n_particles).tolist()

    def objective(x):
        return -abs(contract(t, x.tolist()))

    def run_restart(i):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        x0 = rng.uniform(0.0, 2 * pi, size=n_angles)
        simplex = np.vstack([x0, x0 + 0.5 * np.eye(n_angles)])
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "maxiter": 2000,
                "fatol": 1e-12,
                "xatol": 1e-10,
            },
        )
        return -float(res.fun), res.x

    results = [run_restart(i) for i in range(restarts)]
    best_idx = max(range(restarts), key=lambda i: (results[i][0], -i))
    settings = _settings_from_vector(results[best_idx][1], kind)
    return settings, abs(expectation(state, build(settings)))
