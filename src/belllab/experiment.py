"""Seeded Monte Carlo of the measure-and-postselect protocol.

The sampler draws joint outcomes of the particles read from their Born table,
and the outcomes of a chosen selector particle split the runs into + and -
subensembles; the conditional pair correlation is estimated from the selected
runs only.  By no-signalling, the joint outcome distribution of the particles
read does not depend on the axes of the others, so a caller that reads only
the pair and the selector s samples the table of {1, 2, s} alone, at most 2^3
entries whatever n and s are.  For the two-branch state that table comes from
the branch factors (``states.born_table``) with no 2^n state;
:func:`outcome_probabilities` builds it from any dense state and is the oracle
for it.  Both take the read set as one {particle: Direction} dict.

Shots are drawn by inverse-CDF sampling over the exact outcome distribution,
with an indexed search (a guide table of CDF positions at j/m, Chen & Asau
1974): it is exact, giving the index a binary search over the CDF gives and so
the same shots, and its expected cost per shot does not grow with the table.
The RNG is Philox (counter-based, splittable): chunk c of CHUNK_SIZE shots
draws from the substream spawned from (seed, c), so the shot stream is fixed
by the table, the seed and the chunk size alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .qlinalg import PureState, strict_subset, subset
from .states import measurement_basis, sign_bit, unit_sum

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


def outcome_probabilities(state: PureState, dirs: dict) -> np.ndarray:
    """Exact Born-rule distribution over the joint outcomes of the particles read, for any state.

    ``dirs`` maps each particle read to its axis ({particle: Direction}), a
    non-empty subset of 1..n (:class:`BadSubset` otherwise).  Summing
    |amplitude|^2 over the unread particles leaves the marginal of those
    read.  The index bits run over the particles read in increasing order,
    most significant first, as in the PureState basis convention; bit
    ``sign_bit(s)`` means outcome s.  The dense oracle for
    ``states.born_table``: it rotates all 2^n amplitudes, one read axis at a
    time.
    """
    read = subset(dirs, state.n)
    amps = state.amplitudes
    for p in read:
        amps = measurement_basis(dirs[p]).conj().T @ amps.reshape(2 ** (p - 1), 2, -1)
    unread = tuple(p - 1 for p in range(1, state.n + 1) if p not in dirs)
    return unit_sum((np.abs(amps) ** 2).reshape([2] * state.n).sum(axis=unread).reshape(-1))


def sample_shots(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Draw joint +-1 outcomes of k particles; shape (shots, k), dtype int8.

    ``probs`` is a Born table of 2^k entries, k >= 1, indexed as
    :func:`outcome_probabilities` and ``states.born_table`` return it.
    Deterministic given (probs, shots, seed), and the same draws whatever k
    is: the result equals the first k columns of the table drawn from a wider
    table, up to rounding at CDF boundaries, since the marginal's CDF is
    summed in another order than the wider table's block ends.  Each chunk is
    unpacked column by column straight into the result, so the peak memory
    stays near its size.

    Each uniform u gets the outcome ``searchsorted(cdf, u, side="right")``
    gives, found through a guide table of m = 2^j buckets: about four per
    outcome, at least 2^12, and no more than ``shots`` rounded up to a power
    of two, so building it never costs more than the shots it serves.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    k = len(probs).bit_length() - 1
    if k < 1 or len(probs) != 1 << k:
        raise ValueError(f"need a table of 2^k entries, k >= 1, got {len(probs)}")
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    m = 1 << min(max(k + 2, 12), max(12, (shots - 1).bit_length()))
    start = np.searchsorted(cdf, np.arange(m) / m, side="right")
    out = np.empty((shots, k), dtype=np.int8)
    for c, lo in enumerate(range(0, shots, CHUNK_SIZE)):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(c,))))
        idx = _outcome_index(cdf, start, m, rng.random(min(CHUNK_SIZE, shots - lo)))
        # index bit for particle i is its (k-i)-th bit; bit 0 means outcome +1
        for i in range(k):
            out[lo : lo + len(idx), i] = 1 - 2 * ((idx >> (k - 1 - i)) & 1)
    return out


def _outcome_index(cdf: np.ndarray, start: np.ndarray, m: int, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, side="right")`` through the guide table ``start``.

    m is a power of two and u lies in [0, 1), so b = floor(u m) is exact and
    ``start[b]``, the count of CDF entries <= b/m, never passes u's index.  It
    falls short only when an entry lies in [b/m, u]; those shots fail
    ``cdf[idx] > u`` and take the binary search.
    """
    idx = start[(u * m).astype(np.intp)]
    late = np.flatnonzero(cdf[idx] <= u)
    idx[late] = np.searchsorted(cdf, u[late], side="right")
    return idx


def postselect(shots: np.ndarray, selector_particle: int, selector_outcome: int) -> SubensembleStats:
    """Statistics of particles 1 and 2, the first two columns, within one selector subensemble.

    ``shots`` is the (shots, k) array from :func:`sample_shots`, k >= 2;
    ``selector_particle`` is the selector's 1-indexed column, its rank among
    the particles sampled; ``selector_outcome`` is +1 or -1.
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
