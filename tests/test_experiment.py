import tracemalloc

import numpy as np
import pytest
from math import pi, sqrt

from belllab import experiment
from belllab.qlinalg import BadSubset, PureState
from belllab.correlations import conditional_correlation_closed
from belllab.experiment import (
    EmptySubensemble,
    outcome_probabilities,
    postselect,
    sample_shots,
)
from belllab.states import (Direction, TriorthogonalSpec, branch_probability, branch_selection, make_triorthogonal,
                            measurement_basis, sign_bit)
from test_states import random_direction, random_spec

INV_SQRT2 = 1 / sqrt(2)
Z = Direction(0.0, 0.0)
X = Direction(pi / 2, 0.0)

GHZ = make_triorthogonal(TriorthogonalSpec(3, INV_SQRT2, INV_SQRT2, (1, 1, 1)))


class TestSampling:
    def test_deterministic_product_state(self):
        up_up = PureState(2, np.array([1, 0, 0, 0], dtype=complex))
        shots = sample_shots(up_up, [Z, Z], 1000, seed=0)
        assert np.all(shots == 1)

    def test_ghz_z_outcomes_perfectly_correlated(self):
        shots = sample_shots(GHZ, [Z, Z, Z], 20000, seed=1)
        same = (shots[:, 0] == shots[:, 1]) & (shots[:, 1] == shots[:, 2])
        assert np.all(same)
        frac_up = np.mean(shots[:, 0] == 1)
        assert abs(frac_up - 0.5) <= 5 * sqrt(0.25 / 20000)

    def test_ghz_x_product_always_plus_one(self):
        # GHZ is the +1 eigenstate of the triple-x observable
        shots = sample_shots(GHZ, [X, X, X], 20000, seed=2)
        assert np.all(shots[:, 0] * shots[:, 1] * shots[:, 2] == 1)

    def test_distribution_matches_born_rule(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng, 3)
        psi = make_triorthogonal(spec)
        dirs = [random_direction(rng) for _ in range(3)]
        probs = outcome_probabilities(psi, dirs)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        n_shots = 50000
        shots = sample_shots(psi, dirs, n_shots, seed=4)
        idx = np.sum(((1 - shots) // 2) * (2 ** np.arange(2, -1, -1)), axis=1)
        counts = np.bincount(idx, minlength=8) / n_shots
        for k in range(8):
            band = 5 * sqrt(max(probs[k] * (1 - probs[k]), 1e-12) / n_shots)
            assert abs(counts[k] - probs[k]) <= band

    def test_seed_determinism_byte_identical(self):
        a = sample_shots(GHZ, [X, X, Z], 100000, seed=9)
        b = sample_shots(GHZ, [X, X, Z], 100000, seed=9)
        assert a.tobytes() == b.tobytes()

    def test_prefix_matches_full_table_columns(self):
        # 200 003 shots span four chunks, so every chunk boundary is crossed
        for n in (3, 12):
            rng = np.random.default_rng(100 + n)
            psi = make_triorthogonal(random_spec(rng, n))
            dirs = [random_direction(rng) for _ in range(n)]
            full = sample_shots(psi, dirs, 200_003, seed=10)
            for k in range(1, n + 1):
                assert sample_shots(psi, dirs[:k], 200_003, seed=10).tobytes() == full[:, :k].tobytes()

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_prefix_is_the_marginal(self, n):
        # no-signalling: the first k particles' table is the full table's block sums,
        # and the axes of particles k+1..n do not move those sums
        rng = np.random.default_rng(200 + n)
        if n == 6:  # a generic state, not only the two-term one
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi = PureState(n, amps / np.linalg.norm(amps))
        else:
            psi = make_triorthogonal(random_spec(rng, n))
        dirs = [random_direction(rng) for _ in range(n)]
        full = outcome_probabilities(psi, dirs)
        for k in range(1, n + 1):
            block_sums = full.reshape(2**k, -1).sum(axis=1)
            marginal = outcome_probabilities(psi, dirs[:k])
            assert marginal.shape == (2**k,)
            assert np.max(np.abs(marginal - block_sums)) <= 1e-15
            others = dirs[:k] + [random_direction(rng) for _ in range(n - k)]
            other_sums = outcome_probabilities(psi, others).reshape(2**k, -1).sum(axis=1)
            assert np.max(np.abs(other_sums - block_sums)) <= 1e-15

    @pytest.mark.parametrize("k", [0, 4])
    def test_direction_count_out_of_range(self, k):
        dirs = [X, X, Z, Z][:k]
        with pytest.raises(ValueError, match=f"need 1 to n=3 directions, got {k}"):
            outcome_probabilities(GHZ, dirs)
        with pytest.raises(ValueError, match=f"need 1 to n=3 directions, got {k}"):
            sample_shots(GHZ, dirs, 10, seed=0)

    @pytest.mark.parametrize("n", [3, 12])
    def test_stream_definition(self, n):
        # the shot stream, rebuilt in plain numpy: chunk c of 65536 shots draws
        # from Philox substream (seed, c), inverse-CDF over the Born table,
        # then the index bits are unpacked most significant first (0 -> +1)
        rng = np.random.default_rng(n)
        psi = make_triorthogonal(random_spec(rng, n))
        dirs = [random_direction(rng) for _ in range(n)]
        shots, seed = 200_003, 11
        cdf = np.cumsum(outcome_probabilities(psi, dirs))
        cdf[-1] = 1.0
        draws = []
        for c, lo in enumerate(range(0, shots, 65536)):
            sub = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(c,))))
            draws.append(sub.random(min(65536, shots - lo)))
        idx = np.searchsorted(cdf, np.concatenate(draws), side="right")
        bits = (idx[:, None] // 2 ** np.arange(n - 1, -1, -1)) % 2
        expected = (1 - 2 * bits).astype(np.int8)
        assert sample_shots(psi, dirs, shots, seed).tobytes() == expected.tobytes()

    def test_peak_memory_near_result_size(self):
        # outcomes are unpacked chunk by chunk, a column at a time, into the
        # int8 result, never through (shots, k) int64 temporaries
        rng = np.random.default_rng(16)
        psi = make_triorthogonal(random_spec(rng, 16))
        dirs = [random_direction(rng) for _ in range(16)]
        for sampled in (dirs, dirs[:3]):
            tracemalloc.start()
            try:
                shots = sample_shots(psi, sampled, 1_000_000, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * shots.nbytes

    def test_born_table_peak_memory(self):
        # each axis rotates one particle into one new state-sized array, so at
        # most the previous and the next are alive besides the state itself
        rng = np.random.default_rng(17)
        psi = make_triorthogonal(random_spec(rng, 16))
        dirs = [random_direction(rng) for _ in range(16)]
        for sampled in (dirs[:3], dirs):
            tracemalloc.start()
            try:
                outcome_probabilities(psi, sampled)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * psi.amplitudes.nbytes

    def test_probability_sum_guard(self, monkeypatch):
        # a basis scaled off unitarity breaks the Born-rule sum; the
        # guard must raise even under python -O, so it cannot be an assert
        monkeypatch.setattr(experiment, "measurement_basis", lambda d: 1.01 * measurement_basis(d))
        with pytest.raises(ValueError, match="probabilities sum to"):
            outcome_probabilities(GHZ, [X, X, Z])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_shots(GHZ, [X, X, Z], 0, seed=0)
        with pytest.raises(ValueError):
            sample_shots(GHZ, [X, X, Z, Z], 10, seed=0)


class TestPostselect:
    def test_trivial(self):
        shots = np.ones((50, 3), dtype=np.int8)
        stats = postselect(shots, 3, +1)
        assert stats.p_hat == 1.0 and stats.e12_hat == 1.0 and stats.stderr == 0.0

    def test_empty_subensemble(self):
        shots = np.ones((50, 3), dtype=np.int8)
        with pytest.raises(EmptySubensemble):
            postselect(shots, 3, -1)

    def test_ghz_x_selection(self):
        shots = sample_shots(GHZ, [X, X, X], 100000, seed=5)
        stats = postselect(shots, 3, +1)
        ghz = TriorthogonalSpec(3, INV_SQRT2, INV_SQRT2, (1, 1, 1))
        closed = conditional_correlation_closed(ghz, {1: X, 2: X}, {3: (X, +1)})
        assert closed == pytest.approx(1.0)
        assert abs(stats.e12_hat - closed) <= max(5 * stats.stderr, 1e-12)
        assert abs(stats.p_hat - 0.5) <= 5 * sqrt(0.25 / stats.shots_total)

    def test_singlet_chsh_combination(self):
        spec = TriorthogonalSpec(3, INV_SQRT2, -INV_SQRT2, (1, -1, 1))
        psi = make_triorthogonal(spec)
        e3 = Direction(pi / 2, 0.0)
        pairs = [
            (Direction(0, 0), Direction(pi / 4, 0), +1),
            (Direction(0, 0), Direction(-pi / 4, 0), +1),
            (Direction(pi / 2, 0), Direction(pi / 4, 0), +1),
            (Direction(pi / 2, 0), Direction(-pi / 4, 0), -1),
        ]
        total, var = 0.0, 0.0
        for i, (e1, e2, sign) in enumerate(pairs):
            shots = sample_shots(psi, [e1, e2, e3], 200000, seed=100 + i)
            stats = postselect(shots, 3, +1)
            total += sign * stats.e12_hat
            var += stats.stderr**2
        assert abs(abs(total) - 2 * sqrt(2)) <= 5 * sqrt(var)

    def test_empirical_analytic_convergence(self):
        # 5 sigma bands hold across seeds (binomial slack on the 5 sigma event)
        rng = np.random.default_rng(6)
        spec = random_spec(rng, 3)
        psi = make_triorthogonal(spec)
        dirs = [random_direction(rng) for _ in range(3)]
        branch = +1
        measured = branch_selection(spec, dirs[2], branch)
        p = branch_probability(spec, measured)
        if p <= 1e-6:
            pytest.skip("degenerate draw")
        closed = conditional_correlation_closed(spec, {1: dirs[0], 2: dirs[1]}, measured)
        n_shots = 20000
        hits = 0
        n_seeds = 100
        for seed in range(n_seeds):
            shots = sample_shots(psi, dirs, n_shots, seed=seed)
            stats = postselect(shots, 3, measured[3][1])
            ok_e = abs(stats.e12_hat - closed) <= max(5 * stats.stderr, 1e-12)
            ok_p = abs(stats.p_hat - p) <= 5 * sqrt(p * (1 - p) / n_shots)
            hits += ok_e and ok_p
        assert hits >= 0.99 * n_seeds

    def test_rejects_bad_arguments(self):
        shots = np.ones((10, 3), dtype=np.int8)
        with pytest.raises(ValueError):
            postselect(shots, 0, +1)
        with pytest.raises(ValueError):
            postselect(shots, 1, 0)
        # a one-particle table has no pair to correlate
        with pytest.raises(BadSubset):
            postselect(np.ones((5, 1), np.int8), 1, 1)
        for bad in (0, 2, "1", None):
            with pytest.raises(ValueError, match=r"must be \+1 or -1"):
                sign_bit(bad)
            with pytest.raises(ValueError, match="selector outcome"):
                postselect(shots, 3, bad)
