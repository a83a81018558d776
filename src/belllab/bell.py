"""Bell operators as one multilinear form, and their maxima.

A settings value is a tuple of (e_k, e_k') Direction pairs, one per particle:
((e1, e1'), (e2, e2')) for CHSH, three pairs for the three-particle operator.
With z_k = sigma(e_k') + i sigma(e_k), every Bell operator here is B_beta =
Im(e^(-i beta) (x)_k z_k) (``bell_operator``), and a kind is a row of
``BELL_KINDS``, (particle count, beta, scale): the CHSH operator is sqrt(2)
B_(pi/4) on two particles, the three-particle (Mermin) operator is B_0.
Independent routes to the same numbers coexist on purpose: the operator
spectrum (LAPACK eigensolver), the closed-form largest |eigenvalue|
``lambda_closed`` of B_beta at any n and beta, and a measurement-angle family
attaining the quantum maximum.  ``optimize_settings`` returns maximizing
settings for the two-branch state, and the maximum they reach, in closed form.
For CHSH the maximum ``chsh_horodecki_max``, 2(m1 + m2)^(1/2) from the top
eigenvalues of T^T T for the correlation tensor T (T_ij = <sigma_i (x)
sigma_j>; ``correlations.correlation_tensor_closed``), is a closed form
(Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)).  On the
two-branch state it is 2(1 + (2 c1 c2)^2)^(1/2) (Gisin, Phys. Lett. A 154, 201
(1991)), and settings reaching it are closed forms in c1 c2 and the labels.
For the three-particle operator the maximum ``hardy_maximum``, max(8|c1 c2|,
1 + (c1^2 - c2^2)^2), and settings reaching it are closed forms in (c1, c2)
and the labels (Mermin, Phys. Rev. Lett. 65, 1838 (1990); Scarani & Gisin,
J. Phys. A 34, 6043 (2001)).  The settings of both kinds are written for
labels +1 and mapped to the state's labels by one rule (``_labelled``).
Neither kind builds an operator, so the operator route's |<B>| at the
returned settings is an independent check of both.
"""

from __future__ import annotations

from functools import reduce
from math import atan2, cos, hypot, pi, prod, sin, sqrt

import numpy as np

from .qlinalg import spin_operator, tensor_product
from .states import Direction, TriorthogonalSpec, branch_probability, branch_selection, nonzero_probability
from .correlations import conditional_correlation_closed, correlation_tensor_closed

CHSH_BOUND = 2.0
VIOLATION_TOL = 1e-12


def included_angle(a: Direction, b: Direction) -> float:
    """Unoriented angle between two measurement axes, in [0, pi].

    atan2(|e x e'|, e . e') keeps full precision near 0 and pi, where acos of
    the dot product loses half the digits (parallel axes would get ~1.5e-8).
    """
    # plain floats: on 3-vectors numpy's per-call overhead would dominate
    (x1, y1, z1), (x2, y2, z2) = a.unit_vector.tolist(), b.unit_vector.tolist()
    cross = hypot(y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
    return atan2(cross, x1 * x2 + y1 * y2 + z1 * z2)


def bell_operator(pairs, beta: float) -> np.ndarray:
    """B_beta = Im(e^(-i beta) W) = (e^(-i beta) W - h.c.)/2i, W = (x)_k [sigma(e_k') + i sigma(e_k)].

    ``pairs`` holds one (e_k, e_k') pair of Directions per particle; B_beta weighs each
    product of one axis per particle, m of them unprimed, by sin(m pi/2 - beta).
    """
    m = np.exp(-1j * beta) * reduce(
        tensor_product, (spin_operator(ep.theta, ep.phi) + 1j * spin_operator(e.theta, e.phi) for e, ep in pairs))
    return (m - m.conj().T) * -0.5j


def chsh_operator(pairs) -> np.ndarray:
    """sigma(e1) (x) [sigma(e2)+sigma(e2')] + sigma(e1') (x) [sigma(e2)-sigma(e2')], sqrt(2) B_(pi/4)."""
    return sqrt(2.0) * bell_operator(pairs, pi / 4)


def hardy_operator(pairs) -> np.ndarray:
    """[s1 (x) s2' + s1' (x) s2] (x) s3' + [s1' (x) s2' - s1 (x) s2] (x) s3, Mermin's B_0."""
    return bell_operator(pairs, 0.0)


def lambda_closed(pairs, beta: float) -> float:
    """Largest |eigenvalue| of B_beta = bell_operator(pairs, beta) for any number n >= 1 of pairs.

    2^((n-2)/2) (prod(1 + s_k) + prod(1 - s_k) - 2 cos(n pi/2 - 2 beta) prod c_k)^(1/2), s_k = sin t_k,
    c_k = cos t_k, t_k the angle between e_k and e_k'.  B_beta^2 is diagonal in the product eigenbasis of
    the (e_k x e_k').sigma, and the top eigenvalue has every factor on its + side; at right angles it is
    2^(n-1) (Mermin, Phys. Rev. Lett. 65, 1838 (1990)).
    """
    angles = [included_angle(e, ep) for e, ep in pairs]
    radicand = (prod(1.0 + sin(t) for t in angles) + prod(1.0 - sin(t) for t in angles)
                - 2.0 * cos(len(angles) * pi / 2 - 2.0 * beta) * prod(cos(t) for t in angles))
    return sqrt(2.0 ** (len(angles) - 2) * radicand)


# kind -> (particle count n, phase beta, scale): the kind's operator is scale * bell_operator(pairs, beta)
BELL_KINDS = {"chsh": (2, pi / 4, sqrt(2.0)), "hardy": (3, 0.0, 1.0)}


def _chsh_combination(E, pairs) -> float:
    """E(e1,e2) + E(e1,e2') + E(e1',e2) - E(e1',e2'), summed in that order, for a pair function E."""
    (a, ap), (b, bp) = pairs
    return E(a, b) + E(a, bp) + E(ap, b) - E(ap, bp)


def chsh_condition_lhs(spec: TriorthogonalSpec, pairs, e3: Direction, branch: int) -> float:
    """|E(e1,e2) + E(e1,e2') + E(e1',e2) - E(e1',e2')| within one subensemble.

    Particle 3 gave outcome branch * z3 along e3 (``branch_selection``); values above 2 mean the
    post-selected pair violates the CHSH inequality.
    """
    measured = branch_selection(spec, e3, branch)
    return abs(_chsh_combination(lambda a, b: conditional_correlation_closed(spec, {1: a, 2: b}, measured), pairs))


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


def maximal_family(phi0: float, theta0: float) -> tuple:
    """A one-parameter-per-angle family of settings attaining the 2*sqrt(2) maximum.

    Singlet family: all azimuths phi0, theta1 = theta0 - pi/4,
    theta1' = theta0 + pi/4, theta2 = theta0, theta2' = theta0 - pi/2.
    The triplet family is its image under ``flip_first_particle``.
    """
    thetas = ((theta0 - pi / 4, theta0 + pi / 4), (theta0, theta0 - pi / 2))
    return tuple((Direction(t, phi0), Direction(tp, phi0)) for t, tp in thetas)


def singlet_equality_lhs(pairs) -> float:
    """Maximal-violation quantity for the singlet conditional state (max 2*sqrt(2))."""
    c = _chsh_combination(lambda a, b: cos(a.theta) * cos(b.theta), pairs)
    t = _chsh_combination(lambda a, b: sin(a.theta) * sin(b.theta) * cos(a.phi - b.phi), pairs)
    return abs(c + t)


def triplet_equality_lhs(pairs) -> float:
    """Maximal-violation quantity for the triplet conditional state: the singlet one at flipped settings."""
    return singlet_equality_lhs(flip_first_particle(pairs))


def flip_first_particle(pairs) -> tuple:
    """Map theta_1 -> -theta_1, theta_1' -> -theta_1'.

    Sends any settings satisfying the singlet equality onto settings
    satisfying the triplet equality, and vice versa.
    """
    return (tuple(Direction(-e.theta, e.phi) for e in pairs[0]), *pairs[1:])


def chsh_horodecki_max(t: np.ndarray) -> float:
    """Largest |<B_CHSH>| over all settings for a two-particle state of 3x3 correlation tensor ``t``.

    2(m1 + m2)^(1/2), where m1 and m2 are the two largest eigenvalues of
    T^T T.  ValueError unless t.shape is (3, 3).
    """
    if t.shape != (3, 3):
        raise ValueError(f"expected the correlation tensor of 2 particles, shape (3, 3), got {t.shape}")
    m = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * sqrt(float(m[-1] + m[-2]))


def _labelled(labels, pairs) -> tuple:
    """Directions of axes (theta, phi) written for labels +1, one (e_k, e_k') pair per particle.

    A particle of label -1 takes the image (theta, phi) -> (pi - theta, -phi) of its axes: its basis
    states swap, which flips sigma_y and sigma_z and leaves sigma_x.
    """
    return tuple(tuple(Direction(theta, phi) if z == 1 else Direction(pi - theta, -phi) for theta, phi in pair)
                 for z, pair in zip(labels, pairs))


def _chsh_closed_settings(spec: TriorthogonalSpec) -> tuple:
    """Settings with <B_CHSH> = 2(1 + y^2)^(1/2) = chsh_horodecki_max of the two-particle state, y = 2 c1 c2.

    For labels +1, T = diag(y, -y, 1).  With u = atan2(|y|, 1), e1 = z, e1' = sign(y) x, and e2, e2'
    tilted from z by u at azimuths 0 and pi: e2 + e2' = 2 cos(u) z and e2 - e2' = 2 sin(u) x, so
    <B_CHSH> = 2 cos u + 2|y| sin u = 2(1 + y^2)^(1/2).  Other labels follow by ``_labelled``.
    """
    y = 2.0 * spec.c1 * spec.c2
    u = atan2(abs(y), 1.0)
    return _labelled(spec.labels, (((0.0, 0.0), (pi / 2, 0.0 if y >= 0 else pi)), ((u, 0.0), (u, pi))))


def _mermin_xy(spec: TriorthogonalSpec) -> tuple:
    """(x, y) = (c1^2 - c2^2, 2 c1 c2) of a three-particle two-branch state; ValueError at any other n."""
    if spec.n != 3:
        raise ValueError(f"the hardy closed form needs a three-particle state, got n = {spec.n}")
    return spec.c1**2 - spec.c2**2, 2.0 * spec.c1 * spec.c2


def hardy_maximum(spec: TriorthogonalSpec) -> float:
    """Largest |<B_0>| over all settings for the three-particle two-branch state ``spec``.

    max(8|c1 c2|, 1 + (c1^2 - c2^2)^2) (Mermin, Phys. Rev. Lett. 65, 1838 (1990); Scarani & Gisin,
    J. Phys. A 34, 6043 (2001)): 2 for a product state, 4 for GHZ, the branches crossing at
    sin 2 alpha = sqrt(6) - 2.  ``_hardy_closed_settings`` reach it.  ValueError unless spec.n is 3.
    """
    x, y = _mermin_xy(spec)
    return max(4.0 * abs(y), 1.0 + x * x)


def _hardy_closed_settings(spec: TriorthogonalSpec) -> tuple:
    """Settings with <B_0> = hardy_maximum(spec), with x = c1^2 - c2^2 and y = 2 c1 c2.

    If 4|y| >= 1 + x^2 every axis lies on the equator, e_k' at azimuth a_k and e_k at a_k + pi/2,
    a = (-pi/2, 0, 0) for y >= 0 and (pi/2, 0, 0) for y < 0: <B_0> = 4|y| = 8|c1 c2|.  Otherwise
    e_k' = z and e_k is tilted from z by t = atan2(|y|, x) at azimuths (pi, 0, 0) for y >= 0 and
    (0, 0, 0) for y < 0: <B_0> = 3x cos t - x cos^3 t + |y| sin^3 t = 1 + x^2.  Both are written for
    labels +1; other labels follow by ``_labelled``.
    """
    x, y = _mermin_xy(spec)
    if 4.0 * abs(y) >= 1.0 + x * x:
        pairs = [((pi / 2, a + pi / 2), (pi / 2, a)) for a in (-pi / 2 if y >= 0 else pi / 2, 0.0, 0.0)]
    else:
        t = atan2(abs(y), x)
        pairs = [((t, a), (0.0, 0.0)) for a in (pi if y >= 0 else 0.0, 0.0, 0.0)]
    return _labelled(spec.labels, pairs)


def optimize_settings(spec: TriorthogonalSpec, kind: str) -> tuple:
    """(settings, maximum) for the two-branch state ``spec``: settings reaching the largest |<B>|, in closed form.

    B is the kind's row of BELL_KINDS.  Settings come from (c1, c2) and the labels:
    _chsh_closed_settings for "chsh", _hardy_closed_settings for "hardy".  The maximum comes by
    another formula: chsh_horodecki_max of T = correlation_tensor_closed(spec) for "chsh",
    hardy_maximum(spec) for "hardy".  ValueError unless spec.n is the row's n.  No operator is built.
    """
    if kind not in BELL_KINDS:
        raise ValueError(f"kind must be one of {sorted(BELL_KINDS)}, got {kind!r}")
    n = BELL_KINDS[kind][0]
    if spec.n != n:
        raise ValueError(f"{kind} settings need a {n}-particle state, got n = {spec.n}")
    if kind == "chsh":
        return _chsh_closed_settings(spec), chsh_horodecki_max(correlation_tensor_closed(spec))
    return _hardy_closed_settings(spec), hardy_maximum(spec)
