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
    For a stack of matrices both arrays carry a leading stack axis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues[..., None, :]) @ V.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class MatrixLog:
    """Natural log of a PSD matrix on its support, plus the support projector."""

    value: np.ndarray
    support: np.ndarray
    rank: int


def _as_complex(M, ndims) -> np.ndarray:
    """M as a finite complex array of ``ndims`` dimensions whose last two
    are equal: (2,) for one square matrix, (2, 3) to admit a stack."""
    M = np.asarray(M, dtype=complex)
    if M.ndim not in ndims or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    return M


def as_complex_matrix(M) -> np.ndarray:
    return _as_complex(M, (2,))


def hermiticity_defect(M: np.ndarray) -> float:
    """max |M_ij - conj(M_ji)|."""
    return float(np.abs(M - M.conj().T).max()) if M.size else 0.0


def frobenius_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


def _fix_phases(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero component is real positive."""
    magnitude = np.abs(V)
    nonzero = magnitude > 1e-12
    at = nonzero.argmax(0), np.arange(V.shape[1])
    # a column with no component above 1e-12 keeps its phase (pivot 1)
    found = nonzero.any(0)
    pivot = np.where(found, V[at], 1.0)
    return V * (np.conj(pivot) / np.where(found, magnitude[at], 1.0))


def eig_hermitian(M, tol: float = HERMITICITY_TOL) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix with deterministic phases.

    ``M`` may also be a stack (n, d, d): the Spectrum then holds eigenvalues
    (n, d) and eigenvectors (n, d, d) from one LAPACK call, and slice k is
    bit-identical to ``eig_hermitian(M[k])``.

    Raises NotHermitianError if max |M_ij - conj(M_ji)| exceeds ``tol`` (on
    any member of a stack).
    """
    M = _as_complex(M, (2, 3))
    H = M.conj().swapaxes(-1, -2)
    defect = float(np.abs(M - H).max()) if M.size else 0.0
    if defect > tol:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds {tol:.1e}")
    w, V = np.linalg.eigh((M + H) / 2)
    # every member's columns side by side, phase-fixed as one matrix
    d = M.shape[-1]
    fixed = _fix_phases(V.reshape(-1, d, d).transpose(1, 0, 2).reshape(d, -1))
    fixed = np.ascontiguousarray(fixed.reshape(d, -1, d).transpose(1, 0, 2))
    return Spectrum(eigenvalues=w, eigenvectors=fixed.reshape(V.shape))


def psd_spectrum(M) -> Spectrum:
    """Eigendecomposition of a PSD Hermitian matrix, or of each member of a
    stack (see ``eig_hermitian``).

    Eigenvalues in (-PSD_CLIP_TOL, 0) are clipped to 0; a more negative one
    raises NotPSDError.
    """
    spec = eig_hermitian(M)
    w = spec.eigenvalues
    if w.size and w.min() < -PSD_CLIP_TOL:
        raise NotPSDError(f"negative eigenvalue {w.min():.3e}")
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
    spec = psd_spectrum(as_complex_matrix(M))
    w = spec.eigenvalues
    on_support = w > SUPPORT_TOL
    logs = np.where(on_support, np.log(np.where(on_support, w, 1.0)), 0.0)
    V = spec.eigenvectors
    value = (V * logs) @ V.conj().T
    support = (V * on_support.astype(float)) @ V.conj().T
    return MatrixLog(value=value, support=support, rank=int(on_support.sum()))


def trace_norm(M, tol: float = HERMITICITY_TOL) -> float:
    """Sum of |eigenvalues| of a Hermitian matrix."""
    spec = eig_hermitian(as_complex_matrix(M), tol=tol)
    return float(np.sum(np.abs(spec.eigenvalues)))


def kron(A, B) -> np.ndarray:
    """Kronecker product of two matrices, or of two stacks member by member."""
    A, B = _as_complex(A, (2, 3)), _as_complex(B, (2, 3))
    out = A[..., :, None, :, None] * B[..., None, :, None, :]
    d = A.shape[-1] * B.shape[-1]
    return out.reshape(out.shape[:-4] + (d, d))


def partial_trace(M, dA: int, dB: int, keep: str = "A") -> np.ndarray:
    """Trace out one tensor factor of a dA*dB-dimensional operator, or of
    each member of a stack.

    ``keep`` selects the surviving subsystem: "A" (first) or "B" (second).
    """
    M = _as_complex(M, (2, 3))
    if M.shape[-1] != dA * dB:
        raise DimensionMismatchError(
            f"matrix dimension {M.shape[-1]} != dA*dB = {dA * dB}"
        )
    T = M.reshape(M.shape[:-2] + (dA, dB, dA, dB))
    if keep == "A":
        return T.trace(axis1=-3, axis2=-1)
    if keep == "B":
        return T.trace(axis1=-4, axis2=-2)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
