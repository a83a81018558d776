"""Reference helpers that only the tests use: a partial trace, a pure state's
projector, the dense spin-product operator, the density-matrix correlation
tensor, the optimizer's operator-route value, sign-consistent included angles,
the Pauli matrices and the 2x2 identity.

``partial_trace`` is the index-contraction oracle that
``states.reduced_density`` (a closed form) is tested against.
``spin_product_operator`` is the dense reference for both correlation routes:
its expectation on a projected state or a reduced density must match
``correlations.conditional_correlation_closed`` and
``correlations.born_table_correlation``.  ``correlation_tensor`` contracts a
state's rho with the Pauli matrices: the oracle for
``correlations.correlation_tensor_closed`` on two-branch states, and the T of
any other pure or mixed state the optimizer is tested on.  These helpers live
on the test side because no CLI command runs them.
"""

from functools import reduce

import numpy as np

from belllab.bell import BELL_KINDS, bell_operator, included_angle, optimize_settings
from belllab.correlations import DimensionMismatch, _real_part, expectation
from belllab.qlinalg import DensityMatrix, PureState, spin_operator, strict_subset, tensor_product

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = np.stack((SIGMA_X, SIGMA_Y, SIGMA_Z))


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
    return _real_part(t)


def optimized(state, kind: str, restarts: int = 32, seed: int = 0) -> tuple:
    """(settings, |<B>|) for any state: ``optimize_settings`` on its rho-route T, the value by the operator route.

    B is the kind's operator, scale * bell_operator(settings, beta), as the CLI's ``optimize`` reports it.
    """
    n, beta, scale = BELL_KINDS[kind]
    settings = optimize_settings(correlation_tensor(state, n), kind, restarts=restarts, seed=seed)
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
