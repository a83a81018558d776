"""Monte Carlo check: post-selected shots reproduce the conditional formulas.

Draw the joint outcome counts of all three particles from their Born table,
keep only the runs where particle 3 gave the designated outcome, and compare
the surviving pair's empirical correlation with the analytic conditional
correlation.  The CHSH combination of four such subensembles lands at
2*sqrt(2) - far beyond the local-realistic bound of 2 - even though the
unconditional pair correlations are a plain product of cosines.
"""

from math import pi, sqrt

from belllab import (
    Direction,
    TriorthogonalSpec,
    born_table,
    conditional_correlation_closed,
    postselect,
    sample_shots,
)

INV_SQRT2 = 1 / sqrt(2)
SHOTS = 200_000


def main():
    spec = TriorthogonalSpec(3, INV_SQRT2, -INV_SQRT2, (1, -1, 1))
    e3 = Direction(pi / 2, 0.0)

    pairs = [
        ("e1  e2 ", Direction(0.0, 0.0), Direction(pi / 4, 0.0), +1),
        ("e1  e2'", Direction(0.0, 0.0), Direction(-pi / 4, 0.0), +1),
        ("e1' e2 ", Direction(pi / 2, 0.0), Direction(pi / 4, 0.0), +1),
        ("e1' e2'", Direction(pi / 2, 0.0), Direction(-pi / 4, 0.0), -1),
    ]

    print(f"{SHOTS} shots per setting pair, post-selected on particle 3 = +1")
    print(f"{'pair':>8} {'empirical':>12} {'analytic':>12} {'sigma':>8}")
    chsh = 0.0
    for i, (name, e1, e2, sign) in enumerate(pairs):
        counts = sample_shots(born_table(spec, {1: e1, 2: e2, 3: e3}, {}), SHOTS, seed=10 + i)
        stats = postselect(counts, 3, +1)
        closed = conditional_correlation_closed(spec, {1: e1, 2: e2}, {3: (e3, +1)})
        pull = abs(stats.e12_hat - closed) / stats.stderr if stats.stderr else 0.0
        print(f"{name:>8} {stats.e12_hat:12.6f} {closed:12.6f} {pull:8.2f}")
        chsh += sign * stats.e12_hat
    print(f"empirical CHSH combination: {abs(chsh):.6f}  (quantum max {2 * sqrt(2):.6f})")
    print()

    pair = {1: Direction(0.0, 0.0), 2: Direction(pi / 4, 0.0)}
    uncond = conditional_correlation_closed(spec, pair, {})
    table = born_table(spec, {**pair, 3: e3}, {})
    counts = sample_shots(table, SHOTS, seed=99)
    # the whole ensemble is the two subensembles together, each weighted by its share
    e12_all = sum(sub.p_hat * sub.e12_hat for sub in (postselect(counts, 3, +1), postselect(counts, 3, -1)))
    print("without post-selection the same pair is classical:")
    print(f"  empirical {e12_all:+.6f} vs analytic product of cosines {uncond:+.6f}")


if __name__ == "__main__":
    main()
