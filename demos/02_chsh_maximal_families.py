"""Infinitely many CHSH-maximal measurement settings for the conditional pair.

Conditioning a balanced triorthogonal state on an equatorial third-particle
measurement leaves a singlet (or triplet) pair.  This script evaluates the
conditional CHSH quantity at the textbook settings, then sweeps the
one-parameter family of alternative settings that all sit exactly at the
Tsirelson bound 2*sqrt(2).
"""

from math import pi, sqrt

import numpy as np

from belllab import (
    Direction,
    TriorthogonalSpec,
    chsh_condition_lhs,
    flip_first_particle,
    maximal_family,
    singlet_equality_lhs,
    triplet_equality_lhs,
)

INV_SQRT2 = 1 / sqrt(2)
TSIRELSON = 2 * sqrt(2)


def main():
    singlet = TriorthogonalSpec(3, INV_SQRT2, -INV_SQRT2, (1, -1, 1))
    e3 = Direction(pi / 2, 0.0)
    # one (e_k, e_k') pair of axes per particle
    settings = (
        (Direction(0.0, 0.0), Direction(pi / 2, 0.0)),
        (Direction(pi / 4, 0.0), Direction(-pi / 4, 0.0)),
    )
    lhs = chsh_condition_lhs(singlet, settings, e3, +1)
    print(f"textbook singlet settings: CHSH = {lhs:.12f} (bound 2, max {TSIRELSON:.12f})")
    print()

    print("family sweep (all four azimuths = phi0, polar angles offset from theta0):")
    print(f"{'phi0':>8} {'theta0':>8} {'singlet':>16} {'triplet':>16}")
    rng = np.random.default_rng(0)
    for _ in range(8):
        phi0 = rng.uniform(0, 2 * pi)
        theta0 = rng.uniform(-pi, pi)
        fam = maximal_family(phi0, theta0)
        s = singlet_equality_lhs(fam)
        t = triplet_equality_lhs(flip_first_particle(fam))
        print(f"{phi0:8.4f} {theta0:8.4f} {s:16.12f} {t:16.12f}")
    print()
    print("every row sits at 2*sqrt(2): the Schmidt decomposition of a maximally")
    print("entangled pair is not unique, so the maximal settings form a continuum.")


if __name__ == "__main__":
    main()
