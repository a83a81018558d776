"""Spin correlation functions: operator expectations and their closed forms.

Each closed form is a product formula; the matching operator route (build the
tensor-product observable and take the expectation) is kept deliberately
separate so the two can be tested against each other.  p+-, the branch
amplitudes and the zero-probability guard come from :mod:`belllab.states`.
"""

from __future__ import annotations

from functools import reduce
from math import cos, sin

import numpy as np

from .qlinalg import (SIGMA_X, SIGMA_Y, SIGMA_Z, BadSubset, DensityMatrix, NumericalFault, PureState,
                      spin_operator, strict_subset, tensor_product)
from .states import (Direction, TriorthogonalSpec, branch_amplitudes, branch_probability, nonzero_probability,
                     sign_bit)

IMAG_RESIDUE_TOL = 1e-10
_PAULIS = np.stack((SIGMA_X, SIGMA_Y, SIGMA_Z))


class DimensionMismatch(ValueError):
    """Operator and state dimensions disagree."""


def expectation(state, operator: np.ndarray) -> float:
    """<psi|O|psi> for a PureState, or Tr[rho O] for a DensityMatrix.

    The imaginary residue must be at most 1e-10 (the operator is expected to be
    Hermitian; a NaN residue fails); it is checked and discarded.
    """
    operator = np.asarray(operator, dtype=complex)
    if isinstance(state, PureState):
        if operator.shape != (2**state.n, 2**state.n):
            raise DimensionMismatch(f"operator shape {operator.shape} vs 2^{state.n}")
        val = complex(np.vdot(state.amplitudes, operator @ state.amplitudes))
    elif isinstance(state, DensityMatrix):
        if operator.shape != state.matrix.shape:
            raise DimensionMismatch(f"operator shape {operator.shape} vs {state.matrix.shape}")
        val = complex(np.einsum("ij,ji->", state.matrix, operator))
    else:
        raise TypeError(f"expected PureState or DensityMatrix, got {type(state)!r}")
    return float(_real_part(val))


def _real_part(val):
    """Real part of a value (or array) whose imaginary residue must be at most 1e-10; NaN fails."""
    residue = np.max(np.abs(np.imag(val)))
    if not residue <= IMAG_RESIDUE_TOL:
        raise NumericalFault(f"imaginary residue {residue!r} exceeds 1e-10")
    return np.real(val)


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


def unconditional_correlation_closed(spec: TriorthogonalSpec, dirs) -> float:
    """Unconditional N-particle correlation over the c1/c2 projector mixture.

    E = (c1^2 + (-1)^N c2^2) z_1...z_N cos(t_1)...cos(t_N): the two mixture
    branches contribute products of single-particle cosines of opposite label,
    so the c2 branch picks up a (-1)^N.  For even N the coefficients drop out
    entirely.  Either way the result is a product of single-particle factors,
    so these correlations are always classically explainable no matter how
    entangled the full state is.  Particles 1..N must be a strict subset
    (:class:`BadSubset` otherwise).
    """
    dirs = tuple(dirs)
    strict_subset(range(1, len(dirs) + 1), spec.n)
    value = spec.c1**2 + (-1.0) ** len(dirs) * spec.c2**2
    for z, d in zip(spec.labels, dirs):
        value *= z * cos(d.theta)
    return float(value)


def conditional_probability(spec: TriorthogonalSpec, e3: Direction, branch: int) -> float:
    """p+ (branch=+1) or p- (branch=-1): branch_probability of particle 3's outcome branch * z3 along e3."""
    sign_bit(branch, "branch")
    strict_subset((3,), spec.n)  # before reading z3: n = 2 has no particle 3
    return branch_probability(spec, {3: (e3, branch * spec.labels[2])})


def conditional_correlation_closed(spec: TriorthogonalSpec, e1: Direction, e2: Direction,
                                   measured: dict) -> float:
    """Correlation of particles 1 and 2 where ``measured``, particles among 3..n, gave its outcomes.

    With (a1, a2) = ``branch_amplitudes(spec, measured)`` and p = |a1|^2 + |a2|^2,
    E = z1 z2 cos(t1) cos(t2) + 2 Re(a1* a2 e^{-i(z1 phi1 + z2 phi2)}) sin(t1) sin(t2) / p, the
    interference term only if 1 and 2 are all that stays unmeasured (else the branches differ
    on a kept particle); :class:`BadSubset` if ``measured`` holds 1 or 2.  For n = 3 this is
    the paper's E+-(e1, e2) = gamma cos(t1) cos(t2) +- z3 (c1 c2 / p+-) sin(t1) sin(t2)
    sin(t3) cos(phi1 + gamma phi2 + z1 z3 phi3), gamma = z1 z2, for measured = {3: (e3, +-z3)}.
    """
    if not measured.keys().isdisjoint((1, 2)):
        raise BadSubset(f"particles 1 and 2 must stay unmeasured, got {sorted(measured)}")
    amp1, amp2 = branch_amplitudes(spec, measured)
    p = nonzero_probability(abs(amp1) ** 2 + abs(amp2) ** 2, "branch")
    z1, z2 = spec.labels[:2]
    value = z1 * z2 * cos(e1.theta) * cos(e2.theta)
    if len(measured) == spec.n - 2:
        phase = np.exp(-1j * (z1 * e1.phi + z2 * e2.phi))
        value += 2.0 * (amp1.conjugate() * amp2 * phase).real * sin(e1.theta) * sin(e2.theta) / p
    return float(value)
