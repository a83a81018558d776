"""Reference helpers that only the tests use: a partial trace, a pure state's
projector, the dense spin-product operator, the density-matrix correlation
tensor, an optimizer for any state's correlation tensor, the optimizer's
operator-route value, the canonical Direction of a unit vector,
sign-consistent included angles, the Pauli matrices and the 2x2 identity.

``partial_trace`` is the index-contraction oracle that
``states.reduced_density`` (a closed form) is tested against.
``spin_product_operator`` is the dense reference for both correlation routes:
its expectation on a projected state or a reduced density must match
``correlations.conditional_correlation_closed`` and
``correlations.born_table_correlation``.  ``correlation_tensor`` contracts a
state's rho with the Pauli matrices: the oracle for
``correlations.correlation_tensor_closed`` on two-branch states, and the T of
any other pure or mixed state the optimizer is tested on.  ``seesaw_settings``
finds maximizing settings from such a T for any state.  For CHSH they come
from T's singular vectors (Horodecki, Horodecki & Horodecki, Phys. Lett. A
200, 340 (1995)).  For any n and beta, <B_beta> = Im(e^(-i beta) T(z_1, ...,
z_n)) is linear in each particle's pair of axes, and a see-saw of exact
per-particle updates climbs it from seeded restarts (Pal & Vertesi, Phys.
Rev. A 82, 022116 (2010)); a restart cut off at SEESAW_MAX_SWEEPS warns.
Both read the axes back from unit vectors with ``from_unit_vector``.  They are
the reference that ``bell.optimize_settings``' closed forms, written in
(c1, c2) and the labels, are tested against.  These helpers live on the test
side because no CLI command runs them.
"""

import warnings
from functools import reduce
from math import atan2, cos, hypot, pi, sin

import numpy as np

from belllab.bell import BELL_KINDS, bell_operator, included_angle
from belllab.correlations import DimensionMismatch, expectation, real_part
from belllab.qlinalg import DensityMatrix, PureState, spin_operator, strict_subset, tensor_product
from belllab.states import Direction

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = np.stack((SIGMA_X, SIGMA_Y, SIGMA_Z))
SEESAW_TOL = 1e-14  # a see-saw sweep gaining no more has converged
SEESAW_MAX_SWEEPS = 2000  # bounds the slow approach on some generic 3-qubit states
_Z_AXIS = np.array([0.0, 0.0, 1.0])


def spin_product_operator(dirs) -> np.ndarray:
    """sigma(e_1) (x) sigma(e_2) (x) ... for the given directions."""
    return reduce(tensor_product, (spin_operator(d.theta, d.phi) for d in dirs))


def correlation_tensor(state, k: int) -> np.ndarray:
    """T[i1, ..., ik] = Tr[rho sigma_i1 (x) ... (x) sigma_ik] of a k-particle state.

    Indices 0, 1, 2 stand for x, y, z.  rho is contracted once per particle
    with the stacked Pauli matrices, so no Pauli product is built.  k must be
    the state's n (:class:`DimensionMismatch`); every entry passes the
    imaginary-residue check that ``expectation`` applies.
    """
    if k != state.n:
        raise DimensionMismatch(f"rank {k!r} vs a {state.n}-particle state")
    rho = np.outer(state.amplitudes, state.amplitudes.conj()) if isinstance(state, PureState) else state.matrix
    t = rho.reshape([2] * (2 * k))
    for rows in range(k, 0, -1):  # trace out the leading particle, append its Pauli index
        t = np.tensordot(t, _PAULIS, axes=([0, rows], [2, 1]))
    return real_part(t)


def from_unit_vector(v) -> Direction:
    """The canonical (theta in [0, pi], phi in [0, 2*pi)) Direction of a unit 3-vector.

    theta = atan2(hypot(x, y), z) keeps full precision near the poles, where
    acos(z) loses it (theta = 1e-9 would come back as 0).  A tiny negative
    azimuth, such as atan2(-1e-20, 1), rounds up to 2*pi under ``% (2*pi)``
    and is returned as 0.  ``from_unit_vector(d.unit_vector)`` is the canonical
    representative of any Direction d.
    """
    x, y, z = (float(c) for c in v)
    phi = float(np.arctan2(y, x) % (2 * pi))
    return Direction(atan2(hypot(x, y), z), 0.0 if phi == 2 * pi else phi)


def _unit_or(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0.0 else fallback


def _chsh_svd_settings(t: np.ndarray) -> tuple:
    """Settings with <B_CHSH> = chsh_horodecki_max for the correlation tensor t = U diag(s) V^T.

    For tan(u) = s2/s1, b and b' = cos(u) v1 +- sin(u) v2 give t(b +- b') of
    lengths 2 s1 cos(u) and 2 s2 sin(u), and a, a' along them reach
    2(s1^2 + s2^2)^(1/2).  A zero vector (no effect on <B>) becomes the z axis.
    """
    _, s, vt = np.linalg.svd(t)
    u = atan2(s[1], s[0])
    b, bp = cos(u) * vt[0] + sin(u) * vt[1], cos(u) * vt[0] - sin(u) * vt[1]
    a, ap = (_unit_or(t @ v, _Z_AXIS) for v in (b + bp, b - bp))
    return tuple((from_unit_vector(e), from_unit_vector(ep)) for e, ep in ((a, ap), (b, bp)))


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
                      f"last gain {value - previous:.3g}", RuntimeWarning, stacklevel=4)
    return value


def _best_restart(t_axes, restarts: int, seed: int) -> tuple:
    """Settings of the best of ``restarts`` see-saw runs, ties by lowest index.

    Restart i starts from 2n angle pairs drawn from substream (seed, i); negating a pair negates
    <B>, so the see-saw maximizes <B> itself.
    """
    best_value, best_z = -np.inf, None
    for i in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        e = [Direction(theta, phi).unit_vector for theta, phi in rng.uniform(0.0, 2 * pi, size=(2 * len(t_axes), 2))]
        z = [ep + 1j * e_k for e_k, ep in zip(e[::2], e[1::2])]
        value = _seesaw(t_axes, z)
        if best_z is None or value > best_value:
            best_value, best_z = value, z
    return tuple((from_unit_vector(zp.imag), from_unit_vector(zp.real)) for zp in best_z)


def seesaw_settings(t: np.ndarray, kind: str, restarts: int = 32, seed: int = 0) -> tuple:
    """Settings maximizing |<B>| for the correlation tensor ``t`` of a state, B the kind's row of BELL_KINDS.

    ``t`` is T[i1, ..., in] = <sigma_i1 (x) ... (x) sigma_in> over the row's n
    particles (ValueError unless t.shape is (3,) * n).  "chsh" settings are in
    closed form from T's singular vectors (_chsh_svd_settings): ``restarts``
    and ``seed`` do not change them.  Any other kind runs ``restarts`` see-saws
    of B_beta at the row's beta (_best_restart).  No operator is built.
    """
    if kind not in BELL_KINDS:
        raise ValueError(f"kind must be one of {sorted(BELL_KINDS)}, got {kind!r}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    n, beta, _ = BELL_KINDS[kind]
    if t.shape != (3,) * n:
        raise ValueError(f"expected the correlation tensor of {n} particles, shape {(3,) * n}, got {t.shape}")
    return _chsh_svd_settings(t) if kind == "chsh" else _best_restart(_axis_first(t, beta), restarts, seed)


def optimized(state, kind: str, restarts: int = 32, seed: int = 0) -> tuple:
    """(settings, |<B>|) for any state: ``seesaw_settings`` on its rho-route T, the value by the operator route.

    B is the kind's operator, scale * bell_operator(settings, beta), as the CLI's ``optimize`` reports it.
    """
    n, beta, scale = BELL_KINDS[kind]
    settings = seesaw_settings(correlation_tensor(state, n), kind, restarts=restarts, seed=seed)
    return settings, abs(expectation(state, scale * bell_operator(settings, beta)))


def projector(state: PureState) -> DensityMatrix:
    """|psi><psi| of a pure state, as a DensityMatrix."""
    return DensityMatrix(state.n, np.outer(state.amplitudes, state.amplitudes.conj()))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every particle not in ``keep`` (1-indexed), preserving order.

    ``keep`` must be a non-empty strict subset of {1, ..., N}.
    """
    n = rho.n
    keep = strict_subset(keep, n)
    mat = rho.matrix.reshape([2] * (2 * n))
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[:n])
    col = [letters[i] if (i + 1) not in keep else letters[n + i] for i in range(n)]
    out = "".join(row[p - 1] for p in keep) + "".join(col[p - 1] for p in keep)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out, mat)
    dim = 2 ** len(keep)
    return DensityMatrix(len(keep), reduced.reshape(dim, dim))


def oriented_included_angles(pairs):
    """Included angles with signs consistent across the two particles.

    The sign convention is fixed by particle 1: theta_1 is reported positive
    and its pair's cross product defines the reference normal; theta_2 gets
    the sign of (e2 x e2') projected on that normal.  Returns (theta_1,
    theta_2); either pair being (anti)parallel leaves the plain unoriented
    angles (no normal is defined).
    """
    (a, ap), (b, bp) = pairs
    t1, t2 = included_angle(a, ap), included_angle(b, bp)
    n1, n2 = np.cross(a.unit_vector, ap.unit_vector), np.cross(b.unit_vector, bp.unit_vector)
    if np.linalg.norm(n1) < 1e-8 or np.linalg.norm(n2) < 1e-8:
        return t1, t2
    if float(np.dot(n2, n1)) < 0:
        t2 = -t2
    return t1, t2
