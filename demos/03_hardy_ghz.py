"""Three-particle Bell operator: spectrum, closed form, and the GHZ extreme.

The three-particle analogue of the CHSH operator has largest eigenvalue
2*sqrt(1 + |s1 s2| + |s2 s3| + |s1 s3|), reaching 4 when all three included
angles are right angles.  The GHZ state saturates that bound with x/y
measurements - the same settings that power the all-or-nothing GHZ argument.
On c1 |000> + c2 |111> the maximum over all settings is the larger of two
closed-form branches, 8|c1 c2| (x/y settings) and 1 + (c1^2 - c2^2)^2 (settings
tilted from z), which cross at sin 2 alpha = sqrt(6) - 2.
"""

from math import cos, pi, sin, sqrt

import numpy as np

from belllab import (
    Direction,
    TriorthogonalSpec,
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

    print("c1 = cos(alpha), c2 = sin(alpha): the two branches, the maximum over all settings,")
    print("and <B_H> at optimize_settings' closed-form settings (the operator route on psi):")
    print("  alpha    8|c1 c2|   1+(c1^2-c2^2)^2   maximum   <B_H>")
    for alpha in (0.0, 0.1, 0.2, 0.5 * np.arcsin(sqrt(6) - 2), 0.3, 0.5, pi / 4):
        spec = TriorthogonalSpec(3, cos(alpha), sin(alpha), (1, 1, 1))
        found, maximum = optimize_settings(spec, "hardy")
        value = expectation(make_triorthogonal(spec), hardy_operator(found))
        c1, c2 = spec.c1, spec.c2
        print(f"  {alpha:.4f}   {8 * abs(c1 * c2):.6f}   {1 + (c1**2 - c2**2) ** 2:.6f}          "
              f"{maximum:.6f}  {value:.6f}")
    print("  (above 2 only for sin 2 alpha > 1/2; 4 only at GHZ, where the predictions are certain)")


if __name__ == "__main__":
    main()
