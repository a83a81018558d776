"""Seeded Monte Carlo of the measure-and-postselect protocol.

The axes passed in name the sampled particles: k axes measure particles 1..k,
and the outcomes of a chosen selector particle split the runs into + and -
subensembles; the conditional pair correlation is estimated from the selected
runs only.  By no-signalling, the joint outcome distribution of particles 1..k
does not depend on the axes of particles k+1..n, so a caller that reads only
the pair and the selector s passes the first max(2, s) axes and samples their
2^k marginal Born table alone.

Shots are drawn by inverse-CDF sampling over the exact outcome distribution.
The RNG is Philox (counter-based, splittable): chunk c of CHUNK_SIZE shots
draws from the substream spawned from (seed, c), so the shot stream is fixed
by the seed and the chunk size alone.
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
    """Exact Born-rule distribution over the joint outcomes of particles 1..k.

    ``dirs`` holds the axes of particles 1..k, k = len(dirs) in 1..n.  Summing
    |amplitude|^2 over the trailing n - k particles leaves their marginal.
    Index bit for particle i is its (k-i)-th bit as in the PureState basis
    convention; bit ``sign_bit(s)`` means outcome s.
    """
    k = len(dirs)
    if not 1 <= k <= state.n:
        raise ValueError(f"need 1 to n={state.n} directions, got {k}")
    amps = state.amplitudes.reshape([2] * state.n)
    for i, d in enumerate(dirs):
        amps = np.moveaxis(np.tensordot(amps, measurement_basis(d).conj(), axes=([i], [0])), -1, i)
    probs = (np.abs(amps.reshape(2**k, -1)) ** 2).sum(axis=1)
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-12:
        raise NumericalFault(f"probabilities sum to {total!r}, not 1 within 1e-12")
    return probs


def sample_shots(state: PureState, dirs, shots: int, seed: int) -> np.ndarray:
    """Draw joint +-1 outcomes of particles 1..k; shape (shots, k), dtype int8.

    k = len(dirs), as in :func:`outcome_probabilities`.  Deterministic given
    (state, dirs, shots, seed), and the same draws whatever k is: the result
    equals the first k columns of the table drawn with more axes, up to
    rounding at CDF boundaries, since the marginal's CDF is summed in another
    order than the wider table's block ends.  Each chunk is unpacked column by
    column straight into the result, so the peak memory stays near its size.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    cdf = np.cumsum(outcome_probabilities(state, dirs))
    cdf[-1] = 1.0
    k = len(dirs)
    out = np.empty((shots, k), dtype=np.int8)
    for c, lo in enumerate(range(0, shots, CHUNK_SIZE)):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(c,))))
        idx = np.searchsorted(cdf, rng.random(min(CHUNK_SIZE, shots - lo)), side="right")
        # index bit for particle i is its (k-i)-th bit; bit 0 means outcome +1
        for i in range(k):
            out[lo : lo + len(idx), i] = 1 - 2 * ((idx >> (k - 1 - i)) & 1)
    return out


def postselect(shots: np.ndarray, selector_particle: int, selector_outcome: int) -> SubensembleStats:
    """Statistics of particles 1 and 2 within one selector subensemble.

    ``shots`` is the (shots, k) array from :func:`sample_shots`, k >= 2;
    ``selector_particle`` is 1-indexed; ``selector_outcome`` is +1 or -1.
    """
    total, k = shots.shape
    strict_subset((selector_particle,), k)
    sign_bit(selector_outcome, "selector outcome")
    mask = shots[:, selector_particle - 1] == selector_outcome
    selected = int(mask.sum())
    if selected == 0:
        raise EmptySubensemble("no shot matched the selector outcome")
    # a sum of +-1 products is an exact integer: the same float as their mean
    agree = int(np.count_nonzero(mask & (shots[:, 0] == shots[:, 1])))
    e12 = (2 * agree - selected) / selected
    return SubensembleStats(
        shots_total=total,
        shots_selected=selected,
        p_hat=selected / total,
        e12_hat=e12,
        stderr=sqrt(max(0.0, 1.0 - e12 * e12) / selected),
    )
