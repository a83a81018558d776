import itertools
import tracemalloc

import numpy as np
import pytest
from math import comb, exp, inf, log, pi, sqrt

from belllab import experiment, states
from belllab.qlinalg import BadSubset, NumericalFault, PureState
from belllab.correlations import conditional_correlation_closed
from belllab.experiment import (
    BINOMIAL_DIVERGENCE_LIMIT,
    EmptySubensemble,
    binomial_divergence,
    outcome_probabilities,
    postselect,
    sample_shots,
)
from belllab.states import (Direction, TriorthogonalSpec, born_table, branch_probability, branch_selection,
                            condition_on, make_triorthogonal, measurement_basis, sign_bit)
from test_states import random_direction, random_spec

INV_SQRT2 = 1 / sqrt(2)
Z = Direction(0.0, 0.0)
X = Direction(pi / 2, 0.0)

GHZ_SPEC = TriorthogonalSpec(3, INV_SQRT2, INV_SQRT2, (1, 1, 1))
GHZ = make_triorthogonal(GHZ_SPEC)


class TestSampling:
    def test_deterministic_product_state(self):
        up_up = PureState(2, np.array([1, 0, 0, 0], dtype=complex))
        counts = sample_shots(outcome_probabilities(up_up, {1: Z, 2: Z}), 1000, seed=0)
        assert counts.tolist() == [1000, 0, 0, 0]

    def test_ghz_z_outcomes_perfectly_correlated(self):
        counts = sample_shots(born_table(GHZ_SPEC, {1: Z, 2: Z, 3: Z}, {}), 20000, seed=1)
        # only +++ (index 0) and --- (index 7) occur
        assert np.flatnonzero(counts).tolist() == [0, 7] and counts.sum() == 20000
        assert abs(counts[0] / 20000 - 0.5) <= 5 * sqrt(0.25 / 20000)

    def test_ghz_x_product_always_plus_one(self):
        # GHZ is the +1 eigenstate of the triple-x observable: an even number of
        # -1 outcomes, so an even number of set index bits
        counts = sample_shots(born_table(GHZ_SPEC, {1: X, 2: X, 3: X}, {}), 20000, seed=2)
        parity = [bin(i).count("1") % 2 for i in range(8)]
        assert all(parity[i] == 0 for i in np.flatnonzero(counts)) and counts.sum() == 20000

    def test_distribution_matches_born_rule(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng, 3)
        psi = make_triorthogonal(spec)
        dirs = dict(enumerate((random_direction(rng) for _ in range(3)), 1))
        probs = outcome_probabilities(psi, dirs)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        n_shots = 50000
        freqs = sample_shots(born_table(spec, dirs, {}), n_shots, seed=4) / n_shots
        for k in range(8):
            band = 5 * sqrt(max(probs[k] * (1 - probs[k]), 1e-12) / n_shots)
            assert abs(freqs[k] - probs[k]) <= band

    def test_seed_determinism_byte_identical(self):
        a = sample_shots(born_table(GHZ_SPEC, {1: X, 2: X, 3: Z}, {}), 100000, seed=9)
        b = sample_shots(born_table(GHZ_SPEC, {1: X, 2: X, 3: Z}, {}), 100000, seed=9)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_prefix_is_the_marginal(self, n):
        # no-signalling: the table of the particles read is the full table summed over
        # the others, and the axes of the others do not move those sums; every prefix,
        # and every subset of the generic n = 6 state
        rng = np.random.default_rng(200 + n)
        if n == 6:  # a generic state, not only the two-term one
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi = PureState(n, amps / np.linalg.norm(amps))
        else:
            psi = make_triorthogonal(random_spec(rng, n))
        dirs = [random_direction(rng) for _ in range(n)]
        full = outcome_probabilities(psi, dict(enumerate(dirs, 1)))
        for read in (read_sets(n) if n == 6 else prefixes(n)):
            unread = tuple(p - 1 for p in range(1, n + 1) if p not in read)
            block_sums = full.reshape([2] * n).sum(axis=unread).reshape(-1)
            marginal = outcome_probabilities(psi, {p: dirs[p - 1] for p in read})
            assert marginal.shape == (2 ** len(read),)
            assert np.max(np.abs(marginal - block_sums)) <= 1e-15
            others = [d if p in read else random_direction(rng) for p, d in enumerate(dirs, 1)]
            other_sums = outcome_probabilities(psi, dict(enumerate(others, 1))).reshape([2] * n).sum(axis=unread)
            assert np.max(np.abs(other_sums.reshape(-1) - block_sums)) <= 1e-15

    @pytest.mark.parametrize("n", range(2, 9))
    def test_born_table_is_the_branch_product(self, n):
        # the sampler's dense table against the closed form, entry by entry: outcome
        # index bit k - i, most significant first, is particle i's sign_bit
        rng = np.random.default_rng(300 + n)
        for _ in range(4):
            spec = random_spec(rng, n)
            psi = make_triorthogonal(spec)
            dirs = [random_direction(rng) for _ in range(n)]
            for k in range(1, n):
                probs = outcome_probabilities(psi, dict(enumerate(dirs[:k], 1)))
                for outcomes in itertools.product((1, -1), repeat=k):
                    index = sum(sign_bit(o) << (k - i) for i, o in enumerate(outcomes, 1))
                    measured = {i: (dirs[i - 1], o) for i, o in enumerate(outcomes, 1)}
                    assert abs(probs[index] - branch_probability(spec, measured)) <= 1e-15

    @pytest.mark.parametrize("n", range(2, 11))
    def test_born_table_matches_dense_oracle(self, n):
        # the branch-factor table against the dense rotation: every read set up to
        # n = 6, every prefix beyond, the interfering read of all n included
        rng = np.random.default_rng(400 + n)
        for _ in range(3):
            spec = random_spec(rng, n)
            psi = make_triorthogonal(spec)
            dirs = [random_direction(rng) for _ in range(n)]
            for read in (read_sets(n) if n <= 6 else prefixes(n)):
                chosen = {p: dirs[p - 1] for p in read}
                assert np.max(np.abs(born_table(spec, chosen, {}) - outcome_probabilities(psi, chosen))) <= 1e-15

    @pytest.mark.parametrize("n", range(2, 9))
    def test_born_table_after_a_measured_set_matches_dense_oracle(self, n):
        # a measured set multiplied into the branches, against the dense projection:
        # p times the conditional state's table, its kept particles renumbered 1..n - m;
        # every other draw covers all n with the read and measured particles together, where the
        # branches interfere; the rest leave one or more particles traced out (n = 2 has none)
        rng = np.random.default_rng(500 + n)
        for draw in range(40):
            spec = random_spec(rng, n)
            order = [int(p) for p in rng.permutation(np.arange(1, n + 1))]
            traced = draw % 2 and n > 2
            m = int(rng.integers(1, n - 1 if traced else n))
            r = int(rng.integers(1, n - m)) if traced else n - m
            measured = {p: (random_direction(rng), int(rng.choice([1, -1]))) for p in order[:m]}
            dirs = {p: random_direction(rng) for p in order[m:m + r]}
            conditional = condition_on(make_triorthogonal(spec), measured)
            kept = [p for p in range(1, n + 1) if p not in measured]
            renumbered = {kept.index(p) + 1: d for p, d in dirs.items()}
            dense = conditional.probability * outcome_probabilities(conditional.state, renumbered)
            table = born_table(spec, dirs, measured)
            assert table.shape == (2**r,) and np.max(np.abs(table - dense)) <= 1e-15
            assert abs(table.sum() - branch_probability(spec, measured)) <= 1e-15

    @pytest.mark.parametrize("read, particles", [((1, 2), (2,)), ((1, 3), (1, 3)), ((2,), (1, 2))])
    def test_born_table_read_overlaps_measured(self, read, particles):
        # a particle is read or measured, never both
        with pytest.raises(BadSubset, match="overlap the measured"):
            born_table(GHZ_SPEC, {p: X for p in read}, {p: (X, +1) for p in particles})

    def test_born_table_memory_is_the_read_set(self):
        # 18 of 20 particles measured: the table has 4 entries, not 2^20 (the table over the
        # read and measured particles together peaked at 42 MB)
        spec = TriorthogonalSpec(20, INV_SQRT2, INV_SQRT2, (1,) * 20)
        measured = {p: (X, +1) for p in range(3, 21)}
        tracemalloc.start()
        try:
            table = born_table(spec, {1: X, 2: X}, measured)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.shape == (4,) and peak < 64 << 10
        assert abs(table.sum() - 2.0**-18) <= 1e-18

    @pytest.mark.parametrize("dirs", [{}, {0: X}, {4: X}], ids=["empty", "0", "4"])
    def test_bad_read_set(self, dirs):
        # the particles read are a non-empty subset of 1..n
        with pytest.raises(BadSubset, match="not a non-empty subset of 1..3"):
            outcome_probabilities(GHZ, dirs)
        with pytest.raises(BadSubset, match="not a non-empty subset of 1..3"):
            born_table(GHZ_SPEC, dirs, {})

    @pytest.mark.parametrize("n, shots", [
        pytest.param(3, 200_003, id="3"),
        pytest.param(12, 200_003, id="12"),
        pytest.param(16, 200_003, id="16"),
        pytest.param(16, 1000, id="16-1000"),
    ])
    def test_stream_definition(self, n, shots):
        # the count stream, rebuilt in plain numpy: one multinomial from
        # default_rng(seed) over the table normalised by its sum; the reference
        # table is the dense oracle's, the sampler's the branch factors'
        rng = np.random.default_rng(n)
        spec = random_spec(rng, n)
        psi = make_triorthogonal(spec)
        dirs = dict(enumerate((random_direction(rng) for _ in range(n)), 1))
        probs = outcome_probabilities(psi, dirs)
        expected = np.random.default_rng(11).multinomial(shots, probs / probs.sum())
        assert sample_shots(born_table(spec, dirs, {}), shots, 11).tobytes() == expected.tobytes()

    def test_peak_memory_independent_of_shots(self):
        # counts, not shots: drawing 10^8 shots traces under 1 MB (a shot array took 3e8 bytes)
        rng = np.random.default_rng(16)
        spec = random_spec(rng, 16)
        table = born_table(spec, dict(enumerate((random_direction(rng) for _ in range(3)), 1)), {})
        tracemalloc.start()
        try:
            counts = sample_shots(table, 100_000_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.sum() == 100_000_000 and peak < 1 << 20

    def test_born_table_peak_memory(self):
        # each axis rotates one particle into one new state-sized array, so at
        # most the previous and the next are alive besides the state itself
        rng = np.random.default_rng(17)
        psi = make_triorthogonal(random_spec(rng, 16))
        dirs = [random_direction(rng) for _ in range(16)]
        for sampled in (dict(enumerate(dirs[:3], 1)), dict(enumerate(dirs, 1))):
            tracemalloc.start()
            try:
                outcome_probabilities(psi, sampled)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * psi.amplitudes.nbytes

    def test_born_table_builds_within_a_few_tables(self):
        # 20 particles read: the product_sum chains peak at 2.52 tables (real, a 21st particle
        # traced out) and 5.03 tables (interfering: the complex chains, then |.|^2)
        x = Direction(pi / 3, 0.4)
        for n, bound in ((21, 3.0), (20, 5.5)):
            spec = TriorthogonalSpec(n, 0.6, 0.8, (1, -1) * 10 + (1,) * (n - 20))
            tracemalloc.start()
            try:
                table = born_table(spec, {p: x for p in range(1, 21)}, {})
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert table.shape == (2**20,) and peak <= bound * table.nbytes

    def test_probability_sum_guard(self, monkeypatch):
        # a basis scaled off unitarity breaks the Born-rule sum; the
        # guard must raise even under python -O, so it cannot be an assert
        monkeypatch.setattr(experiment, "measurement_basis", lambda d: 1.01 * measurement_basis(d))
        with pytest.raises(ValueError, match="probabilities sum to"):
            outcome_probabilities(GHZ, {1: X, 2: X, 3: Z})

    def test_born_table_sum_guard(self, monkeypatch):
        # with a measured set the table must sum to the selection's probability, which the
        # scaled basis also scales, once per measured particle rather than per particle read
        monkeypatch.setattr(states, "measurement_basis", lambda d: 1.01 * measurement_basis(d))
        for dirs, measured in (({1: X, 2: X}, {}), ({1: X, 2: X, 3: Z}, {}),  # the real table and the interfering one
                               ({1: X}, {3: (Z, +1)}), ({1: X, 2: X}, {3: (Z, +1)})):
            with pytest.raises(NumericalFault, match="probabilities sum to"):
                born_table(GHZ_SPEC, dirs, measured)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="shots must be >= 1"):
            sample_shots(born_table(GHZ_SPEC, {1: X, 2: X, 3: Z}, {}), 0, seed=0)
        # a table for k >= 1 particles has 2^k entries
        for table in (np.ones(1), np.full(3, 1 / 3), np.full(6, 1 / 6)):
            with pytest.raises(ValueError, match="need a table of 2\\^k entries"):
                sample_shots(table, 10, seed=0)
        with pytest.raises(NumericalFault, match="probabilities sum to"):
            sample_shots(np.full(4, 0.3), 10, seed=0)


def prefixes(n):
    return [range(1, k + 1) for k in range(1, n + 1)]


def read_sets(n):
    # every non-empty subset of 1..n, in increasing size
    return [c for k in range(1, n + 1) for c in itertools.combinations(range(1, n + 1), k)]


class TestBinomialDivergence:
    @pytest.mark.parametrize("p", [1e-3, 0.02, 0.1, 0.3, 0.5, 0.77, 0.95, 0.999])
    def test_bounds_exact_binomial_tails(self, p):
        # the Chernoff-Hoeffding bound against the exact tails from math.comb for N <= 60: a
        # count k on one side of the mean is at least as far out with probability at most
        # exp(-N D(k/N || p)), and a check fails a correct count with probability at most
        # 2 exp(-L) = 5.7e-7
        for trials in range(1, 61):
            pmf = [comb(trials, j) * p**j * (1 - p) ** (trials - j) for j in range(trials + 1)]
            divergences = [binomial_divergence(k, trials, p) for k in range(trials + 1)]
            for k, divergence in enumerate(divergences):
                tail = sum(pmf[k:]) if k >= trials * p else sum(pmf[:k + 1])
                assert divergence >= 0.0 and tail <= exp(-divergence) * (1 + 1e-12)
            failing = sum(q for q, divergence in zip(pmf, divergences) if divergence > BINOMIAL_DIVERGENCE_LIMIT)
            assert failing <= 2 * exp(-BINOMIAL_DIVERGENCE_LIMIT) == pytest.approx(5.7e-7)

    def test_boundaries(self):
        # p = 0 and 1 allow only k = 0 and k = N; a p an ulp outside [0, 1] is clamped, not a domain error
        above_one, below_zero = float(np.nextafter(1.0, 2.0)), -5e-324
        for p in (0.0, below_zero):
            assert binomial_divergence(0, 50, p) == 0.0 and binomial_divergence(1, 50, p) == inf
        for p in (1.0, above_one):
            assert binomial_divergence(50, 50, p) == 0.0 and binomial_divergence(49, 50, p) == inf
        assert binomial_divergence(1, 1, 0.5) == pytest.approx(log(2), abs=1e-15)
        assert binomial_divergence(30, 100, 0.2) == pytest.approx(binomial_divergence(70, 100, 0.8), abs=1e-12)


class TestPostselect:
    def test_trivial(self):
        counts = np.array([50, 0, 0, 0, 0, 0, 0, 0])
        stats = postselect(counts, 3, +1)
        assert stats.p_hat == 1.0 and stats.e12_hat == 1.0 and stats.stderr == 0.0

    def test_empty_subensemble(self):
        counts = np.array([50, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(EmptySubensemble):
            postselect(counts, 3, -1)

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_shot_by_shot_statistics(self, k):
        # the counts expanded into one row of +-1 outcomes per shot, index bits
        # most significant first, then selected and averaged shot by shot
        counts = np.random.default_rng(k).integers(0, 40, size=2**k)
        index = np.repeat(np.arange(2**k), counts)
        shots = 1 - 2 * ((index[:, None] >> np.arange(k - 1, -1, -1)) & 1)
        for selector, outcome in itertools.product(range(1, k + 1), (1, -1)):
            kept = shots[shots[:, selector - 1] == outcome]
            stats = postselect(counts, selector, outcome)
            assert stats.shots_total == len(shots) and stats.shots_selected == len(kept)
            assert stats.p_hat == len(kept) / len(shots)
            assert stats.e12_hat == np.mean(kept[:, 0] * kept[:, 1])

    def test_ghz_x_selection(self):
        counts = sample_shots(born_table(GHZ_SPEC, {1: X, 2: X, 3: X}, {}), 100000, seed=5)
        stats = postselect(counts, 3, +1)
        ghz = TriorthogonalSpec(3, INV_SQRT2, INV_SQRT2, (1, 1, 1))
        closed = conditional_correlation_closed(ghz, {1: X, 2: X}, {3: (X, +1)})
        assert closed == pytest.approx(1.0)
        assert abs(stats.e12_hat - closed) <= max(5 * stats.stderr, 1e-12)
        assert abs(stats.p_hat - 0.5) <= 5 * sqrt(0.25 / stats.shots_total)

    def test_singlet_chsh_combination(self):
        spec = TriorthogonalSpec(3, INV_SQRT2, -INV_SQRT2, (1, -1, 1))
        e3 = Direction(pi / 2, 0.0)
        pairs = [
            (Direction(0, 0), Direction(pi / 4, 0), +1),
            (Direction(0, 0), Direction(-pi / 4, 0), +1),
            (Direction(pi / 2, 0), Direction(pi / 4, 0), +1),
            (Direction(pi / 2, 0), Direction(-pi / 4, 0), -1),
        ]
        total, var = 0.0, 0.0
        for i, (e1, e2, sign) in enumerate(pairs):
            counts = sample_shots(born_table(spec, {1: e1, 2: e2, 3: e3}, {}), 200000, seed=100 + i)
            stats = postselect(counts, 3, +1)
            total += sign * stats.e12_hat
            var += stats.stderr**2
        assert abs(abs(total) - 2 * sqrt(2)) <= 5 * sqrt(var)

    def test_empirical_analytic_convergence(self):
        # 5 sigma bands hold across seeds (binomial slack on the 5 sigma event)
        rng = np.random.default_rng(6)
        spec = random_spec(rng, 3)
        dirs = [random_direction(rng) for _ in range(3)]
        table = born_table(spec, dict(enumerate(dirs, 1)), {})
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
            counts = sample_shots(table, n_shots, seed=seed)
            stats = postselect(counts, 3, measured[3][1])
            ok_e = abs(stats.e12_hat - closed) <= max(5 * stats.stderr, 1e-12)
            ok_p = abs(stats.p_hat - p) <= 5 * sqrt(p * (1 - p) / n_shots)
            hits += ok_e and ok_p
        assert hits >= 0.99 * n_seeds

    def test_rejects_bad_arguments(self):
        counts = np.full(8, 10)
        with pytest.raises(ValueError):
            postselect(counts, 0, +1)
        with pytest.raises(ValueError):
            postselect(counts, 1, 0)
        # a one-particle table has no pair to correlate
        with pytest.raises(BadSubset):
            postselect(np.full(2, 5), 1, 1)
        with pytest.raises(ValueError, match="need a table of 2\\^k entries"):
            postselect(np.full(6, 5), 1, 1)
        for bad in (0, 2, "1", None):
            with pytest.raises(ValueError, match=r"must be \+1 or -1"):
                sign_bit(bad)
            with pytest.raises(ValueError, match="selector outcome"):
                postselect(counts, 3, bad)
