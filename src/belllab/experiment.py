"""Seeded Monte Carlo of the measure-and-postselect protocol.

Every particle is measured along its own axis in each run; the outcomes of a
chosen selector particle split the runs into + and - subensembles, and the
conditional pair correlation is estimated from the selected runs only.

Shots are drawn by inverse-CDF sampling over the exact 2^n outcome
distribution.  The RNG is Philox (counter-based, splittable): chunk c of any
run uses the substream spawned from (seed, c), so the shot stream is
identical no matter how the chunks are scheduled.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import sqrt
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .qlinalg import PureState
from .states import rotated_ket

CHUNK_SIZE = 1 << 16


def worker_count() -> int:
    """Sampler parallelism cap from BELLLAB_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("BELLLAB_THREADS", "1")))
    except ValueError:
        return 1


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
    convention; bit 0 means outcome +1.
    """
    dirs = tuple(dirs)
    if len(dirs) != state.n:
        raise ValueError(f"need one direction per particle, got {len(dirs)} for n={state.n}")
    amps = state.amplitudes.reshape([2] * state.n)
    for i, d in enumerate(dirs):
        # unitary whose columns are the +1 / -1 eigenkets of sigma(d)
        u = np.column_stack([rotated_ket(d, +1).amplitudes, rotated_ket(d, -1).amplitudes])
        amps = np.moveaxis(np.tensordot(amps, u.conj(), axes=([i], [0])), -1, i)
    probs = np.abs(amps.reshape(-1)) ** 2
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"probabilities sum to {total!r}, not 1 within 1e-12")
    return probs


def sample_shots(state: PureState, dirs, shots: int, seed: int) -> np.ndarray:
    """Draw joint +-1 outcomes for every particle; shape (shots, n), dtype int8.

    Deterministic given (state, dirs, shots, seed) at any parallelism level.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = outcome_probabilities(state, dirs)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    n = state.n

    def sample_chunk(c):
        lo = c * CHUNK_SIZE
        size = min(CHUNK_SIZE, shots - lo)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(c,))))
        u = rng.random(size)
        return np.searchsorted(cdf, u, side="right").astype(np.int64)

    n_chunks = (shots + CHUNK_SIZE - 1) // CHUNK_SIZE
    workers = worker_count()
    if workers > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            indices = np.concatenate(list(pool.map(sample_chunk, range(n_chunks))))
    else:
        indices = np.concatenate([sample_chunk(c) for c in range(n_chunks)])

    bit_shifts = np.arange(n - 1, -1, -1)
    bits = (indices[:, None] >> bit_shifts[None, :]) & 1
    return (1 - 2 * bits).astype(np.int8)


def postselect(shots: np.ndarray, selector_particle: int, selector_outcome: int) -> SubensembleStats:
    """Statistics of particles 1 and 2 within one selector subensemble.

    ``shots`` is the (shots, n) array from :func:`sample_shots`;
    ``selector_particle`` is 1-indexed; ``selector_outcome`` is +1 or -1.
    """
    total, n = shots.shape
    if not 1 <= selector_particle <= n:
        raise ValueError(f"selector particle {selector_particle} out of range 1..{n}")
    if selector_outcome not in (+1, -1):
        raise ValueError("selector outcome must be +1 or -1")
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
