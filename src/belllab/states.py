"""Triorthogonal n-particle states and the conditional-projection protocol.

A triorthogonal state is the two-term superposition
``c1 |z_1 ... z_n> + c2 |-z_1 ... -z_n>`` with real c1, c2 and per-particle
spin labels z_i = +-1.  Measuring any strict subset of the particles along arbitrary
directions and keeping the runs with a fixed outcome leaves the remaining
particles in a conditional pure state; both the exact projection and the
analytic product formula for it live here, so each can check the other.
So do the one branch-probability formula, the one map from the paper's branch +- to
particle 3's outcome (``branch_selection``), the one zero-probability guard,
the one +-1 check and basis-bit map (``SIGNS``, ``sign_bit``), the one sigma(d)
eigenbasis (``measurement_basis``), the one rule for which of its entries go to
which branch (``branch_factors``: the entry at z to branch 1, at -z to branch 2),
whose factors ``branch_amplitudes`` multiplies into the two branch amplitudes a
measurement leaves and ``born_table`` into the joint outcome table of any
particles read after it, and the one product rule (``product_sum``: a weighted
sum of product chains, one array axis per factor), which builds every Born
table and the correlation tensor.  ``selected_branches`` holds
the one rule for a read set after a measured set, which ``born_table`` and the
closed-form correlation share; one helper places the two branch amplitudes of
the state, of its conditional states and of its reduced density.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import cos, sin, sqrt
from operator import iadd

import numpy as np

from .qlinalg import BadNorm, BadSubset, DensityMatrix, NumericalFault, PureState, NORM_TOL, strict_subset, subset

PROBABILITY_FLOOR = 1e-12
SIGNS = (+1, -1)  # spin labels, outcomes and branches; SIGNS[b] is the sign of basis bit b


class ZeroProbability(ValueError):
    """Conditioning on an outcome whose probability is numerically zero."""


def nonzero_probability(p: float, what: str = "outcome") -> float:
    """``p``, or :class:`ZeroProbability` naming it ``what`` when p <= 1e-12."""
    if p <= PROBABILITY_FLOOR:
        raise ZeroProbability(f"{what} probability {p!r} below 1e-12")
    return p


@dataclass(frozen=True)
class Direction:
    """Measurement axis on the unit sphere, (polar, azimuthal) in radians.

    Raw values are preserved (negative theta is legal and meaningful in the
    half-angle formulas).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (np.isfinite(self.theta) and np.isfinite(self.phi)):
            raise ValueError("angles must be finite")

    @property
    def unit_vector(self) -> np.ndarray:
        st = sin(self.theta)
        return np.array([st * cos(self.phi), st * sin(self.phi), cos(self.theta)])


def sign_bit(s, what: str = "spin label") -> int:
    """Basis bit of ``s``: 0 for +1 (spin up along z), 1 for -1; else ValueError naming ``what``."""
    if s not in SIGNS:
        raise ValueError(f"{what} must be +1 or -1, got {s!r}")
    return SIGNS.index(s)


def measurement_basis(d: Direction) -> np.ndarray:
    """2x2 unitary whose column ``sign_bit(s)`` is the eigenket of sigma(d) with eigenvalue s.

    |s>* = cos(theta/2) e^{-i s phi/2} |s> + s sin(theta/2) e^{+i s phi/2} |-s>,
    expressed in the computational (z) basis.
    """
    half = d.theta / 2.0
    down, up = np.exp(-1j * d.phi / 2.0), np.exp(1j * d.phi / 2.0)
    return np.array([[cos(half) * down, -sin(half) * down], [sin(half) * up, cos(half) * up]])


@dataclass(frozen=True)
class TriorthogonalSpec:
    """Parameters of the two-term state: real (c1, c2) and n spin labels."""

    n: int
    c1: float
    c2: float
    labels: tuple

    def __post_init__(self):
        labels = tuple(SIGNS[sign_bit(z)] for z in self.labels)
        if self.n < 2 or len(labels) != self.n:
            raise ValueError(f"need n >= 2 labels, got n={self.n}, {len(labels)} labels")
        if not abs(self.c1**2 + self.c2**2 - 1.0) <= NORM_TOL:
            raise BadNorm(f"c1^2 + c2^2 = {self.c1**2 + self.c2**2!r}, not 1")
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class ConditionalResult:
    """Post-measurement state of the kept particles and the outcome probability."""

    state: PureState
    probability: float


def _two_branch(labels, a1, a2) -> np.ndarray:
    """The 2^N amplitudes a1 |z_1 ... z_N> + a2 |-z_1 ... -z_N> (particle 1 = MSB, +1 = bit 0)."""
    idx = 0
    for z in labels:
        idx = (idx << 1) | sign_bit(z)
    amps = np.zeros(2 ** len(labels), dtype=complex)
    amps[idx] += a1
    amps[idx ^ (len(amps) - 1)] += a2
    return amps


def make_triorthogonal(spec: TriorthogonalSpec) -> PureState:
    """Build c1 |z_1 ... z_n> + c2 |-z_1 ... -z_n> in the computational basis."""
    return PureState(spec.n, _two_branch(spec.labels, spec.c1, spec.c2))


def condition_on(state: PureState, measured: dict) -> ConditionalResult:
    """Project out measured particles and renormalize the remainder.

    ``measured`` maps 1-indexed particle numbers to ``(Direction, outcome)``
    pairs, where outcome is the +-1 eigenvalue found for that particle.  The
    kept particles retain their original relative order.  Raises
    :class:`ZeroProbability` when the selected outcome has probability below
    1e-12.
    """
    amps = state.amplitudes.reshape([2] * state.n)
    for p in reversed(strict_subset(measured, state.n)):
        d, outcome = measured[p]
        vec = measurement_basis(d)[:, sign_bit(outcome, "outcome")].conj()
        amps = np.tensordot(amps, vec, axes=([p - 1], [0]))
    prob = nonzero_probability(float(np.sum(np.abs(amps) ** 2)))
    kept = PureState(state.n - len(measured), amps.reshape(-1) / sqrt(prob))
    return ConditionalResult(kept, prob)


def branch_factors(spec: TriorthogonalSpec, p: int, d: Direction):
    """(f, g): the entries at z_p and -z_p of particle p's two outcome bras along ``d``.

    The one rule for which entry goes to which branch: f multiplies branch 1
    (c1 |z_1 ... z_n>), g branch 2 (c2 |-z_1 ... -z_n>).  Both are lists indexed
    by outcome bit (``sign_bit``); an outcome bra is a conjugated
    ``measurement_basis`` column, the one :func:`condition_on` contracts with.
    """
    # row b of the conjugated basis holds entry b of every outcome bra
    bras, bit = measurement_basis(d).conj().tolist(), sign_bit(spec.labels[p - 1])
    return bras[bit], bras[1 - bit]


def branch_amplitudes(spec: TriorthogonalSpec, measured: dict):
    """Unnormalized amplitudes (c1 * prod f, c2 * prod g) left on the two
    branches after projecting every measured particle onto its outcome.

    f and g are :func:`branch_factors` at each measured particle's outcome.
    ``measured`` is any strict subset: with no particle left the two branches
    would interfere."""
    amp1, amp2 = complex(spec.c1), complex(spec.c2)
    for p in strict_subset(measured, spec.n):
        d, outcome = measured[p]
        bit = sign_bit(outcome, "outcome")
        f, g = branch_factors(spec, p, d)
        amp1, amp2 = amp1 * f[bit], amp2 * g[bit]
    return amp1, amp2


def conditional_closed_form(spec: TriorthogonalSpec, measured: dict) -> ConditionalResult:
    """Analytic conditional state of the particles a measured strict subset leaves.

    ``measured`` maps each measured particle to ``(Direction, outcome)``; the
    kept particles retain their original relative order, as in
    :func:`condition_on`.  Evaluates the explicit two-term product formula (no
    projection is performed), making this the independent oracle for
    :func:`condition_on`.
    """
    amp1, amp2 = branch_amplitudes(spec, measured)
    prob = nonzero_probability(abs(amp1) ** 2 + abs(amp2) ** 2)
    kept = [z for p, z in enumerate(spec.labels, 1) if p not in measured]
    amps = _two_branch(kept, amp1 / sqrt(prob), amp2 / sqrt(prob))
    return ConditionalResult(PureState(len(kept), amps), float(prob))


def selected_branches(spec: TriorthogonalSpec, dirs: dict, measured: dict):
    """The sorted particles read and the branch amplitudes (a1, a2) that ``measured`` leaves.

    The one rule for a read set after a measured set: :class:`BadSubset` unless
    ``dirs`` ({particle: Direction}) is a non-empty subset of 1..n
    (``qlinalg.subset``) apart from ``measured`` ({particle: (Direction,
    outcome)}, possibly empty).  (a1, a2) is ``branch_amplitudes(spec,
    measured)``, or (c1, c2) when nothing is measured.
    """
    read = subset(dirs, spec.n)
    if not measured.keys().isdisjoint(read):
        raise BadSubset(f"read particles {read} overlap the measured {sorted(measured)}")
    amp1, amp2 = branch_amplitudes(spec, measured) if measured else (spec.c1, spec.c2)
    return read, amp1, amp2


def born_table(spec: TriorthogonalSpec, dirs: dict, measured: dict) -> np.ndarray:
    """Born-rule table of the joint outcomes of the particles read together with ``measured``'s outcomes.

    Takes the arguments of ``correlations.conditional_correlation_closed`` and
    its rule (:func:`selected_branches`): ``measured`` is multiplied into the
    branch amplitudes (a1, a2) first, so the table has 2^k entries for the k
    particles read, and sums to the selection's probability |a1|^2 + |a2|^2
    (1 when nothing is measured).  Particle i's outcome bras give the
    :func:`branch_factors` (f_i, g_i), as in :func:`branch_amplitudes`, and the
    table is |a1|^2 (x)_i |f_i|^2 + |a2|^2 (x)_i |g_i|^2 when some particle is
    neither read nor measured, or |a1 (x)_i f_i + a2 (x)_i g_i|^2 when the two
    sets cover all n, where the two branches interfere.  Built by one
    :func:`product_sum` and no state; the index bits run over the particles
    read in increasing order, most significant first, each the particle's
    ``sign_bit``, as in the PureState basis.  The dense oracle is
    ``experiment.outcome_probabilities``, after ``condition_on`` when
    something is measured.
    """
    read, amp1, amp2 = selected_branches(spec, dirs, measured)
    f, g = zip(*(branch_factors(spec, p, dirs[p]) for p in read))
    total = abs(amp1) ** 2 + abs(amp2) ** 2
    if len(read) + len(measured) == spec.n:
        return unit_sum(np.abs(product_sum([(amp1, f), (amp2, g)]).reshape(-1)) ** 2, total)
    # a particle neither read nor measured tells the branches apart: the table is real all along
    probs = product_sum([(abs(amp1) ** 2, np.abs(f) ** 2), (abs(amp2) ** 2, np.abs(g) ** 2)])
    return unit_sum(probs.reshape(-1), total)


def product_sum(terms) -> np.ndarray:
    """sum_j w_j v_j1 (x) ... (x) v_jm for ``terms``, pairs (w_j, [v_j1, ..., v_jm]); one array axis per factor.

    The one product rule of the two-branch tables.  Each chain folds its weight
    in first, then one factor at a time; the later chains are added into the
    first in place, so the first term must carry the widest dtype (complex
    before real).
    """
    return reduce(iadd, (reduce(np.multiply.outer, factors, np.asarray(weight)) for weight, factors in terms))


def unit_sum(probs: np.ndarray, total: float = 1.0) -> np.ndarray:
    """``probs``, or :class:`NumericalFault` unless they sum to ``total`` within 1e-12."""
    found = float(probs.sum())
    if not abs(found - total) <= 1e-12:
        raise NumericalFault(f"probabilities sum to {found!r}, not {total!r} within 1e-12")
    return probs


def branch_probability(spec: TriorthogonalSpec, measured: dict) -> float:
    """Probability of the given outcome of a strict subset of particles, by the product formula.

    The one closed form for it, p+- included; a zero result is returned as
    is, and conditioning on it goes through :func:`nonzero_probability`.
    """
    amp1, amp2 = branch_amplitudes(spec, measured)
    return float(abs(amp1) ** 2 + abs(amp2) ** 2)


def branch_selection(spec: TriorthogonalSpec, e3: Direction, branch: int) -> dict:
    """The paper's +- subensemble as a measured set: ``{3: (e3, branch * z3)}``.

    ValueError unless ``branch`` is +-1; :class:`BadSubset` when n = 2 has no particle 3.
    p+- is ``branch_probability(spec, branch_selection(spec, e3, +-1))``.
    """
    sign_bit(branch, "branch")
    strict_subset((3,), spec.n)  # before reading z3
    return {3: (e3, branch * spec.labels[2])}


def reduced_density(spec: TriorthogonalSpec, n_keep: int) -> DensityMatrix:
    """Unconditional reduced density matrix of particles 1..n_keep.

    Equals c1^2 |z_1..z_N><z_1..z_N| + c2^2 |-z_1..-z_N><-z_1..-z_N| -- a
    mixture of two product states, independent of any measurement direction
    chosen for the traced-out particles.
    """
    strict_subset(range(1, n_keep + 1), spec.n)
    return DensityMatrix(n_keep, np.diag(_two_branch(spec.labels[:n_keep], spec.c1**2, spec.c2**2)))
