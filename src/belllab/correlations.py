"""Spin correlation functions: operator expectations and two routes to one correlation.

``conditional_correlation_closed`` is the closed form for any read set after any
measured set, nothing measured (the unconditional mixture) included.
``born_table_correlation`` takes the same arguments and is its second route: the
+-1 parity sum of the Born table of the particles read (``states.born_table``,
which multiplies the measured outcomes into the branch amplitudes first), built
from ``states.branch_factors`` rather than the cos/sin formula, so the two can
be checked against each other without a 2^n state or a product operator.  Both
routes read the one read/measured rule and the branch amplitudes from
``states.selected_branches``, and so ``branch_factors`` on the measured side;
only the Born table reads it on the read side, so a fault in that rule fails
the check.  The measured side has its own checks in the dense tests
(``condition_on``).  The Born table and the zero-probability guard
come from :mod:`belllab.states`.

``correlation_tensor_closed`` is the two-branch state's correlation tensor T,
the one input of the Bell optimizer and of the Horodecki maximum, in its rank-2
closed form: no state vector and no density matrix.  Its reference, rho
contracted with the Pauli matrices, is a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import cmath
from math import cos, sin

import numpy as np

from .qlinalg import DensityMatrix, NumericalFault, PureState
from .states import TriorthogonalSpec, born_table, nonzero_probability, product_sum, selected_branches

IMAG_RESIDUE_TOL = 1e-10
_Z_AXIS = np.array([0.0, 0.0, 1.0])


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
    return float(real_part(val))


def real_part(val):
    """Real part of a value (or array) whose imaginary residue must be at most 1e-10; NaN fails."""
    residue = np.max(np.abs(np.imag(val)))
    if not residue <= IMAG_RESIDUE_TOL:
        raise NumericalFault(f"imaginary residue {residue!r} exceeds 1e-10")
    return np.real(val)


def correlation_tensor_closed(spec: TriorthogonalSpec) -> np.ndarray:
    """T[i1, ..., in] = <sigma_i1 (x) ... (x) sigma_in> of c1 |z_1 ... z_n> + c2 |-z_1 ... -z_n>.

    Indices 0, 1, 2 stand for x, y, z.  T has rank 2:
    (c1^2 + (-1)^n c2^2) (x)_k z_k e_z + 2 c1 c2 Re (x)_k (1, -i z_k, 0), the two
    branches' weights and their interference, <z|sigma|-z> = (1, -i z, 0).  One
    ``states.product_sum`` of the two terms over n three-vectors, the complex one
    first: no state vector and no rho.
    """
    return product_sum([(2.0 * spec.c1 * spec.c2, [np.array([1.0, -1j * z, 0.0]) for z in spec.labels]),
                        (spec.c1**2 + (-1) ** spec.n * spec.c2**2, [z * _Z_AXIS for z in spec.labels])]).real


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
    :class:`BadSubset` unless ``dirs`` is a non-empty subset of 1..n apart from ``measured``, the
    rule and the amplitudes of ``states.selected_branches``, which ``born_table`` shares.
    """
    read, amp1, amp2 = selected_branches(spec, dirs, measured)
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


def born_table_correlation(spec: TriorthogonalSpec, dirs: dict, measured: dict) -> float:
    """<prod_k sigma(e_k)> over ``dirs`` after ``measured``, as the parity sum of a Born table.

    Takes the arguments of :func:`conditional_correlation_closed`.  P is the
    ``born_table`` of the particles read after ``measured``, whose total is
    the selection's probability (guarded by ``nonzero_probability``); E =
    sum_i (-1)^(number of -1 outcomes in i) P[i] / total.  With every
    particle read or measured the table holds the two branches' interference.
    O(2^k) work for k particles read, and no 2^n state.
    """
    table = born_table(spec, dirs, measured).reshape([2] * len(dirs))
    p = nonzero_probability(float(table.sum()), "branch")
    for _ in dirs:  # fold the last axis: outcome +1 (bit 0) minus outcome -1 (bit 1)
        table = table[..., 0] - table[..., 1]
    return float(table / p)
