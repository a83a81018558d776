"""Dense complex linear algebra for few-qubit problems.

Operators are plain numpy arrays of shape (2^N, 2^N); state vectors are
wrapped in :class:`PureState` and density operators in :class:`DensityMatrix`.
Spin operators are built from their angles (``spin_operator``), so the package
holds no Pauli matrices: the density-matrix correlation tensor that contracts
with them is a test oracle.
Basis convention everywhere: particle 1 owns the most significant index bit,
and a spin label or outcome s along z has bit ``states.SIGNS.index(s)``
(``states.sign_bit``): 0 for spin-up (+1), 1 for spin-down (-1).

The Hermitian eigensolver is LAPACK's, through ``numpy.linalg.eigvalsh``:
every caller reads the spectrum only, so no eigenvectors are built.  The
wrapper adds the Hermiticity check and the descending order the rest of the
package relies on.  ``subset`` holds the one rule for a particle set: a
non-empty subset of 1..N, such as the particles read; kept or measured
particles are its ``strict_subset``, which leaves one out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-12
PSD_TOL = 1e-10


class NotHermitian(ValueError):
    """Matrix handed to the Hermitian eigensolver is not Hermitian."""


class BadSubset(ValueError):
    """Particle subset is empty or not a strict subset of 1..N."""


class BadNorm(ValueError):
    """Amplitude vector (or coefficient pair) is not normalized."""


class NumericalFault(ValueError):
    """A computed quantity breaks an identity it must hold: a probability sum, a real expectation."""


@dataclass(frozen=True)
class PureState:
    """Normalized state vector of ``n`` spin-1/2 particles.

    ``amplitudes[k]`` multiplies the product basis ket whose bits are the
    binary digits of ``k`` (particle 1 = most significant bit, 0 = up).
    """

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.n < 1 or amps.shape[0] != 2**self.n:
            raise ValueError(f"expected 2^{self.n} amplitudes, got {amps.shape[0]}")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise BadNorm(f"state norm^2 = {norm2!r}, not 1 within {NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on ``n`` particles."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.n
        if mat.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}, got {mat.shape}")
        evals = hermitian_eigen(mat)  # raises NotHermitian
        tr = float(mat.trace().real)
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"trace = {tr!r}, not 1 within {NORM_TOL}")
        if evals[-1] < -PSD_TOL:
            raise ValueError(f"negative eigenvalue {evals[-1]!r}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def tensor_product(a, b):
    """Kronecker product of two operators, the left one acting on the leading particles.

    Consistent with the PureState bit ordering: the left factor's particles
    come first.  Anything but two matrices is a ValueError.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("operands must both be matrices")
    return np.kron(a, b)


def spin_operator(theta: float, phi: float) -> np.ndarray:
    """Spin operator along the unit vector with polar/azimuthal angles (theta, phi).

    sigma(e) = sin(theta)cos(phi) sigma_x + sin(theta)sin(phi) sigma_y
             + cos(theta) sigma_z.  Eigenvalues are +1 and -1; the +1
    eigenvector is cos(theta/2) e^{-i phi/2}|up> + sin(theta/2) e^{+i phi/2}|down>.
    """
    st, ct = np.sin(theta), np.cos(theta)
    return np.array(
        [[ct, st * np.exp(-1j * phi)], [st * np.exp(1j * phi), -ct]], dtype=complex
    )


def hermitian_eigen(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix in descending order, by LAPACK (``numpy.linalg.eigvalsh``).

    Raises :class:`NotHermitian` if the input fails the Hermiticity check,
    and ``numpy.linalg.LinAlgError`` if LAPACK does not converge.
    """
    a = np.asarray(h, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if not defect <= HERMITICITY_TOL:  # NaN fails too
        raise NotHermitian(f"Hermiticity defect {defect!r} > 1e-12")
    # LAPACK reads the lower triangle only, so the check above bounds what it leaves out
    return np.linalg.eigvalsh(a)[::-1]


def subset(particles, n: int, strict: bool = False) -> list:
    """Sorted ``particles``; :class:`BadSubset` unless a non-empty subset of {1, ..., n}, a strict one if ``strict``."""
    chosen = sorted(set(particles))
    if not chosen or chosen[0] < 1 or chosen[-1] > n or (strict and len(chosen) == n):
        raise BadSubset(f"particles {chosen} are not a non-empty {'strict ' * strict}subset of 1..{n}")
    return chosen


def strict_subset(particles, n: int) -> list:
    """:func:`subset` with at least one particle of 1..n left out: the rule for kept or measured particles."""
    return subset(particles, n, strict=True)
