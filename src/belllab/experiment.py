"""Seeded Monte Carlo of the measure-and-postselect protocol.

A run measures the particles read along their axes; the outcome of a chosen
selector particle splits the runs into + and - subensembles, and the
conditional pair correlation is estimated from the selected runs only.  By
no-signalling, the joint outcome distribution of the particles read does not
depend on the axes of the others, so a caller that reads only the pair and
the selector s samples the table of {1, 2, s} alone, at most 2^3 entries
whatever n and s are.  For the two-branch state that table comes from the
branch factors (``states.born_table``) with no 2^n state;
:func:`outcome_probabilities` builds it from any dense state and is the oracle
for it.  Both take the read set as one {particle: Direction} dict.

Every statistic of the subensembles is a function of the joint outcome
counts, so the sampler draws those counts, one multinomial over the Born
table, and never the shots themselves.  A sampled count k of N is checked
against its binomial law Bin(N, p) by ``binomial_divergence``, N D(k/N || p)
at most ``BINOMIAL_DIVERGENCE_LIMIT``: the Chernoff-Hoeffding bound makes
that fail a correct count at a rate of at most 5.7e-7, with no normal
approximation, so it holds in the tails (rare selections, near-perfect
correlations) as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log, sqrt

import numpy as np

from .qlinalg import PureState, strict_subset, subset
from .states import measurement_basis, sign_bit, unit_sum

# a sampled count fails its check when binomial_divergence exceeds this: the two tails
# together then occur at rate at most 2 exp(-L) = 5.7e-7, the two-sided 5 sigma rate
BINOMIAL_DIVERGENCE_LIMIT = log(2 / 5.7e-7)


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
    """Outcome counts of ``shots`` joint draws of k particles: 2^k int64 entries summing to ``shots``.

    ``probs`` is a Born table of 2^k entries, k >= 1, indexed as
    :func:`outcome_probabilities` and ``states.born_table`` return it, and
    the counts are indexed the same way.  They are one
    ``np.random.default_rng(seed).multinomial`` draw, so deterministic given
    (probs, shots, seed).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    _particle_count(probs)
    probs = unit_sum(probs)
    # numpy rejects an entry above 1, which a valid table can hold by a few ulp
    return np.random.default_rng(seed).multinomial(shots, probs / probs.sum())


def postselect(counts: np.ndarray, selector_particle: int, selector_outcome: int) -> SubensembleStats:
    """Statistics of particles 1 and 2, the two leading index bits, within one selector subensemble.

    ``counts`` are the 2^k outcome counts from :func:`sample_shots`, k >= 2;
    ``selector_particle`` is the selector's 1-indexed rank among the
    particles sampled; ``selector_outcome`` is +1 or -1.
    """
    k = _particle_count(counts)
    strict_subset((selector_particle,), k)
    wanted = sign_bit(selector_outcome, "selector outcome")
    # column i - 1 holds the i-th particle's bit of every index, most significant first
    bits = (np.arange(len(counts))[:, None] >> np.arange(k - 1, -1, -1)) & 1
    mask = bits[:, selector_particle - 1] == wanted
    total = int(counts.sum())
    selected = int(counts[mask].sum())
    if selected == 0:
        raise EmptySubensemble("no shot matched the selector outcome")
    # a sum of +-1 products is an exact integer: the same float as their mean
    agree = int(counts[mask & (bits[:, 0] == bits[:, 1])].sum())
    e12 = (2 * agree - selected) / selected
    return SubensembleStats(
        shots_total=total,
        shots_selected=selected,
        p_hat=selected / total,
        e12_hat=e12,
        stderr=sqrt(max(0.0, 1.0 - e12 * e12) / selected),
    )


def binomial_divergence(k: int, trials: int, p: float) -> float:
    """trials * D(k/trials || p), with D the binary Kullback-Leibler divergence in nats.

    By the Chernoff-Hoeffding bound (Hoeffding, J. Am. Stat. Assoc. 58, 13
    (1963)) a Bin(trials, p) count lies this far out on either side of its mean
    with probability at most exp(-value).  ``p`` is clamped into [0, 1], so a
    closed form an ulp outside reads as its boundary; a count that p rules
    out, some success at p = 0 or some failure at p = 1, gives inf.  At k
    near trials * p the two terms cancel, and a negative rounding residue
    reads as 0.
    """
    p = min(max(p, 0.0), 1.0)
    return max(0.0, sum(c * log(c / (trials * q)) if q else inf for c, q in ((k, p), (trials - k, 1.0 - p)) if c))


def _particle_count(table: np.ndarray) -> int:
    """k for a table of 2^k entries, k >= 1; ValueError otherwise."""
    k = len(table).bit_length() - 1
    if k < 1 or len(table) != 1 << k:
        raise ValueError(f"need a table of 2^k entries, k >= 1, got {len(table)}")
    return k
