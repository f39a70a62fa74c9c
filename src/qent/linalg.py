"""Complex linear algebra for small Hermitian problems.

Everything here operates on dense square complex numpy arrays and is a pure
function of its inputs.  Spectral routines go through ``eig_hermitian`` so
that eigenvector phases (and therefore all downstream results) are
deterministic across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, NotPSDError

HERMITICITY_TOL = 1e-10
#: eigenvalues in (-PSD_CLIP_TOL, 0) are round-off and get clipped to 0
PSD_CLIP_TOL = 1e-10
#: eigenvalues at or below this are treated as exact zeros (outside support)
SUPPORT_TOL = 1e-14


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are sorted nondecreasing; eigenvector columns are
    orthonormal and phase-fixed (first nonzero component real positive).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ V.conj().T


@dataclass(frozen=True)
class MatrixLog:
    """Natural log of a PSD matrix on its support, plus the support projector."""

    value: np.ndarray
    support: np.ndarray
    rank: int


def as_complex_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    return M


def hermiticity_defect(M: np.ndarray) -> float:
    """max |M_ij - conj(M_ji)|."""
    return float(np.abs(M - M.conj().T).max()) if M.size else 0.0


def frobenius_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


def _fix_phases(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero component is real positive."""
    nonzero = np.abs(V) > 1e-12
    pivot = V[nonzero.argmax(0), np.arange(V.shape[1])]
    # a column with no component above 1e-12 keeps its phase (pivot 1)
    pivot = np.where(nonzero.any(0), pivot, 1.0)
    return V * (np.conj(pivot) / np.abs(pivot))


def eig_hermitian(M, tol: float = HERMITICITY_TOL) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix with deterministic phases.

    Raises NotHermitianError if max |M_ij - conj(M_ji)| exceeds ``tol``.
    """
    M = as_complex_matrix(M)
    defect = hermiticity_defect(M)
    if defect > tol:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds {tol:.1e}")
    w, V = np.linalg.eigh((M + M.conj().T) / 2)
    return Spectrum(eigenvalues=w, eigenvectors=_fix_phases(V))


def psd_spectrum(M) -> Spectrum:
    """Eigendecomposition of a PSD Hermitian matrix.

    Eigenvalues in (-PSD_CLIP_TOL, 0) are clipped to 0; a more negative one
    raises NotPSDError.
    """
    spec = eig_hermitian(M)
    w = spec.eigenvalues
    if w.size and w[0] < -PSD_CLIP_TOL:
        raise NotPSDError(f"negative eigenvalue {w[0]:.3e}")
    return Spectrum(eigenvalues=np.maximum(w, 0.0), eigenvectors=spec.eigenvectors)


def matrix_power_q(M, q: float) -> np.ndarray:
    """M**q for PSD M and q in [0, 2].

    Conventions: eigenvalues <= SUPPORT_TOL are exact zeros and 0**q = 0 for
    q > 0; M**0 = I on the full space.
    """
    if not 0.0 <= q <= 2.0:
        raise ValueError(f"q must lie in [0, 2], got {q}")
    M = as_complex_matrix(M)
    spec = psd_spectrum(M)  # validates PSD even where the result ignores it
    if q == 0.0:
        return np.eye(M.shape[0], dtype=complex)
    if q == 1.0:
        return M.copy()
    w, V = spec.eigenvalues, spec.eigenvectors
    powers = np.where(w > SUPPORT_TOL, np.power(w, q), 0.0)
    return (V * powers) @ V.conj().T


def matrix_log(M) -> MatrixLog:
    """Natural log of a PSD matrix on its support.

    Eigenvalues <= SUPPORT_TOL are treated as exact zeros: they do not
    enter the log and are excluded from the support projector.
    """
    spec = psd_spectrum(M)
    w = spec.eigenvalues
    on_support = w > SUPPORT_TOL
    logs = np.where(on_support, np.log(np.where(on_support, w, 1.0)), 0.0)
    V = spec.eigenvectors
    value = (V * logs) @ V.conj().T
    support = (V * on_support.astype(float)) @ V.conj().T
    return MatrixLog(value=value, support=support, rank=int(on_support.sum()))


def trace_norm(M, tol: float = HERMITICITY_TOL) -> float:
    """Sum of |eigenvalues| of a Hermitian matrix."""
    spec = eig_hermitian(M, tol=tol)
    return float(np.sum(np.abs(spec.eigenvalues)))


def kron(A, B) -> np.ndarray:
    return np.kron(as_complex_matrix(A), as_complex_matrix(B))


def partial_trace(M, dA: int, dB: int, keep: str = "A") -> np.ndarray:
    """Trace out one tensor factor of a dA*dB-dimensional operator.

    ``keep`` selects the surviving subsystem: "A" (first) or "B" (second).
    """
    M = as_complex_matrix(M)
    if M.shape[0] != dA * dB:
        raise DimensionMismatchError(
            f"matrix dimension {M.shape[0]} != dA*dB = {dA * dB}"
        )
    T = M.reshape(dA, dB, dA, dB)
    if keep == "A":
        return np.trace(T, axis1=1, axis2=3)
    if keep == "B":
        return np.trace(T, axis1=0, axis2=2)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
