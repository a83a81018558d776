"""Three-particle Bell operator: spectrum, closed form, and the GHZ extreme.

The three-particle analogue of the CHSH operator has largest eigenvalue
2*sqrt(1 + |s1 s2| + |s2 s3| + |s1 s3|), reaching 4 when all three included
angles are right angles.  The GHZ state saturates that bound with x/y
measurements - the same settings that power the all-or-nothing GHZ argument.
"""

from math import pi, sqrt

import numpy as np

from belllab import (
    Direction,
    TriorthogonalSpec,
    correlation_tensor_closed,
    expectation,
    hardy_operator,
    hermitian_eigen,
    lambda_closed,
    make_triorthogonal,
    optimize_settings,
)

INV_SQRT2 = 1 / sqrt(2)


def main():
    x = Direction(pi / 2, 0.0)
    y = Direction(pi / 2, pi / 2)
    settings = ((x, y),) * 3  # one (e_k, e_k') pair per particle

    op = hardy_operator(settings)
    evals = hermitian_eigen(op)
    print("x/y settings for all three particles:")
    print(f"  spectrum: {np.round(evals, 10)}")
    print(f"  closed-form largest eigenvalue: {lambda_closed(settings, 0.0):.12f}")

    ghz_spec = TriorthogonalSpec(3, INV_SQRT2, INV_SQRT2, (1, 1, 1))
    ghz = make_triorthogonal(ghz_spec)
    mermin = make_triorthogonal(TriorthogonalSpec(3, INV_SQRT2, -INV_SQRT2, (1, 1, 1)))
    print(f"  <B_H> on the GHZ state:     {expectation(ghz, op):+.12f}")
    print(f"  <B_H> on Mermin's state:    {expectation(mermin, op):+.12f}")
    print("  (local realism caps |<B_H>| at 2; quantum mechanics doubles it)")
    print()

    print("a see-saw from random settings (one particle's exact best response at a time)")
    print("finds the same ceiling:")
    found = optimize_settings(correlation_tensor_closed(ghz_spec), "hardy", restarts=8, seed=0)
    print(f"  optimized |<B_H>| = {abs(expectation(ghz, hardy_operator(found))):.9f}")
    print(f"  closed-form ceiling at the optimizer's angles = "
          f"{lambda_closed(found, 0.0):.9f}")


if __name__ == "__main__":
    main()
