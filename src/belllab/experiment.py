"""Seeded Monte Carlo of the measure-and-postselect protocol.

Every particle is measured along its own axis in each run; the outcomes of a
chosen selector particle split the runs into + and - subensembles, and the
conditional pair correlation is estimated from the selected runs only.

Shots are drawn by inverse-CDF sampling over the exact 2^n outcome
distribution.  The RNG is Philox (counter-based, splittable): chunk c of
CHUNK_SIZE shots draws from the substream spawned from (seed, c), so the shot
stream is fixed by the seed and the chunk size alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .qlinalg import NumericalFault, PureState, strict_subset
from .states import measurement_basis, sign_bit

CHUNK_SIZE = 1 << 16


class EmptySubensemble(ValueError):
    """Post-selection matched no shots."""


@dataclass(frozen=True)
class SubensembleStats:
    shots_total: int
    shots_selected: int
    p_hat: float
    e12_hat: float
    stderr: float


def outcome_probabilities(state: PureState, dirs) -> np.ndarray:
    """Exact Born-rule distribution over the 2^n joint outcomes.

    Index bit for particle i is its (n-i)-th bit as in the PureState basis
    convention; bit ``sign_bit(s)`` means outcome s.
    """
    dirs = tuple(dirs)
    if len(dirs) != state.n:
        raise ValueError(f"need one direction per particle, got {len(dirs)} for n={state.n}")
    amps = state.amplitudes.reshape([2] * state.n)
    for i, d in enumerate(dirs):
        amps = np.moveaxis(np.tensordot(amps, measurement_basis(d).conj(), axes=([i], [0])), -1, i)
    probs = np.abs(amps.reshape(-1)) ** 2
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-12:
        raise NumericalFault(f"probabilities sum to {total!r}, not 1 within 1e-12")
    return probs


def sample_shots(state: PureState, dirs, shots: int, seed: int) -> np.ndarray:
    """Draw joint +-1 outcomes for every particle; shape (shots, n), dtype int8.

    Deterministic given (state, dirs, shots, seed).  Each chunk is unpacked
    straight into the result, so the peak memory stays near its size.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = outcome_probabilities(state, dirs)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    # index bit for particle i is its (n-i)-th bit; bit 0 means outcome +1
    bit_shifts = np.arange(state.n - 1, -1, -1)
    out = np.empty((shots, state.n), dtype=np.int8)
    for c, lo in enumerate(range(0, shots, CHUNK_SIZE)):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(c,))))
        idx = np.searchsorted(cdf, rng.random(min(CHUNK_SIZE, shots - lo)), side="right")
        out[lo : lo + len(idx)] = 1 - 2 * ((idx[:, None] >> bit_shifts) & 1)
    return out


def postselect(shots: np.ndarray, selector_particle: int, selector_outcome: int) -> SubensembleStats:
    """Statistics of particles 1 and 2 within one selector subensemble.

    ``shots`` is the (shots, n) array from :func:`sample_shots`;
    ``selector_particle`` is 1-indexed; ``selector_outcome`` is +1 or -1.
    """
    total, n = shots.shape
    strict_subset((selector_particle,), n)
    sign_bit(selector_outcome, "selector outcome")
    mask = shots[:, selector_particle - 1] == selector_outcome
    selected = int(mask.sum())
    if selected == 0:
        raise EmptySubensemble("no shot matched the selector outcome")
    products = shots[mask, 0].astype(np.float64) * shots[mask, 1].astype(np.float64)
    e12 = float(products.mean())
    return SubensembleStats(
        shots_total=total,
        shots_selected=selected,
        p_hat=selected / total,
        e12_hat=e12,
        stderr=sqrt(max(0.0, 1.0 - e12 * e12) / selected),
    )
