"""Triorthogonal n-particle states and the conditional-projection protocol.

A triorthogonal state is the two-term superposition
``c1 |z_1 ... z_n> + c2 |-z_1 ... -z_n>`` with real c1, c2 and per-particle
spin labels z_i = +-1.  Measuring any strict subset of the particles along arbitrary
directions and keeping the runs with a fixed outcome leaves the remaining
particles in a conditional pure state; both the exact projection and the
analytic product formula for it live here, so each can check the other.
So do the one branch-probability formula, the one map from the paper's branch +- to
particle 3's outcome (``branch_selection``), the one zero-probability guard,
the one +-1 check and basis-bit map (``SIGNS``, ``sign_bit``) and the one sigma(d)
eigenbasis (``measurement_basis``), whose entries ``branch_amplitudes`` multiplies
into the two branch amplitudes a measurement leaves; one helper places the two branch
amplitudes of the state, of its conditional states and of its reduced density.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, pi, sin, sqrt

import numpy as np

from .qlinalg import BadNorm, DensityMatrix, PureState, NORM_TOL, strict_subset

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
    half-angle formulas); ``from_unit_vector(d.unit_vector)`` gives the
    canonical representative with theta in [0, pi] and phi in [0, 2*pi).
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

    @classmethod
    def from_unit_vector(cls, v) -> "Direction":
        """The canonical (theta in [0, pi], phi in [0, 2*pi)) axis of a unit 3-vector."""
        x, y, z = v
        return cls(float(np.arccos(np.clip(z, -1.0, 1.0))), float(np.arctan2(y, x) % (2 * pi)))


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
        vec = measurement_basis(d)[:, sign_bit(outcome)].conj()
        amps = np.tensordot(amps, vec, axes=([p - 1], [0]))
    prob = nonzero_probability(float(np.sum(np.abs(amps) ** 2)))
    kept = PureState(state.n - len(measured), amps.reshape(-1) / sqrt(prob))
    return ConditionalResult(kept, prob)


def branch_amplitudes(spec: TriorthogonalSpec, measured: dict):
    """Unnormalized amplitudes (c1 * prod f, c2 * prod g) left on the two
    branches after projecting every measured particle onto its outcome.

    For particle p with label z, f and g are the entries at z and -z of the
    outcome bra, the conjugated ``measurement_basis`` column that
    :func:`condition_on` contracts with.  ``measured`` is any strict subset:
    with no particle left the two branches would interfere."""
    amp1, amp2 = complex(spec.c1), complex(spec.c2)
    for p in strict_subset(measured, spec.n):
        d, outcome = measured[p]
        bra = measurement_basis(d)[:, sign_bit(outcome, "outcome")].conj().tolist()
        bit = sign_bit(spec.labels[p - 1])
        amp1 *= bra[bit]
        amp2 *= bra[1 - bit]
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
