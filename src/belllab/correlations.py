"""Spin correlation functions: operator expectations and their one closed form.

``conditional_correlation_closed`` is the closed form for any read set after any
measured set, nothing measured (the unconditional mixture) included; the
operator route (build the tensor-product observable and take the expectation)
is kept deliberately separate so the two can be tested against each other.
The branch amplitudes and the zero-probability guard come from
:mod:`belllab.states`.
"""

from __future__ import annotations

import cmath
from functools import reduce
from math import cos, sin

import numpy as np

from .qlinalg import (SIGMA_X, SIGMA_Y, SIGMA_Z, BadSubset, DensityMatrix, NumericalFault, PureState,
                      spin_operator, tensor_product)
from .states import TriorthogonalSpec, branch_amplitudes, nonzero_probability

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


def conditional_correlation_closed(spec: TriorthogonalSpec, dirs: dict, measured: dict) -> float:
    """<prod_k sigma(e_k)> over the particles read, ``dirs`` ({particle: Direction}), after ``measured``.

    ``measured`` ({particle: (Direction, outcome)}, possibly empty) leaves the branch amplitudes
    (a1, a2) = ``branch_amplitudes(spec, measured)``, or (c1, c2) when empty; p = |a1|^2 + |a2|^2.
    Each read particle with label z has <z|sigma(e)|z> = z cos(t) and <z|sigma(e)|-z> = sin(t)
    e^{-i z phi}, so with N = len(dirs)
    E = [(|a1|^2 + (-1)^N |a2|^2) prod z cos(t) + 2 Re(a1* a2 prod sin(t) e^{-i z phi})] / p,
    the interference term only if ``dirs`` and ``measured`` cover all n particles (else the
    branches differ on a traced-out one).  With nothing measured and a strict subset read, E is
    the unconditional mixture (c1^2 + (-1)^N c2^2) prod z cos(t): a product of single-particle
    factors however entangled the state, so classically explainable.  For n = 3, read {1, 2}
    and ``branch_selection(spec, e3, +-1)`` it is the paper's E+-(e1, e2) = gamma cos(t1) cos(t2)
    +- z3 (c1 c2 / p+-) sin(t1) sin(t2) sin(t3) cos(phi1 + gamma phi2 + z1 z3 phi3), gamma = z1 z2.
    :class:`BadSubset` if ``dirs`` is empty, names a particle outside 1..n or overlaps ``measured``.
    """
    read = sorted(dirs)
    if not read or read[0] < 1 or read[-1] > spec.n or not measured.keys().isdisjoint(read):
        raise BadSubset(f"read particles {read} must be a non-empty subset of 1..{spec.n} "
                        f"apart from the measured {sorted(measured)}")
    amp1, amp2 = branch_amplitudes(spec, measured) if measured else (spec.c1, spec.c2)
    p = nonzero_probability(abs(amp1) ** 2 + abs(amp2) ** 2, "branch")
    value = abs(amp1) ** 2 + (-1.0) ** len(read) * abs(amp2) ** 2
    interference = 2.0 * amp1.conjugate() * amp2
    for k in read:
        z, d = spec.labels[k - 1], dirs[k]
        value *= z * cos(d.theta)
        interference *= sin(d.theta) * cmath.exp(-1j * z * d.phi)
    if len(read) + len(measured) == spec.n:
        value += interference.real
    return float(value / p)
