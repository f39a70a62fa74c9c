"""Density operators: construction, validation, randomization, file I/O.

Qubit-pair basis order is |uu>, |ud>, |du>, |dd> (row-major), which pins
the numeric matrix of the Werner family bit-exactly.
"""

from __future__ import annotations

import json
import weakref
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import OutOfRangeError, QentError, ZeroVectorError

DENSITY_TOL = 1e-9


def _read_only(*arrays) -> None:
    for array in arrays:
        array.flags.writeable = False


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, unit-trace complex matrix.

    ``matrix`` is a read-only copy of the input, so the spectrum computed
    from it on first use stays valid for the life of the object.
    """

    matrix: np.ndarray

    def __post_init__(self):
        M = linalg.as_complex_matrix(self.matrix).copy()
        _read_only(M)
        object.__setattr__(self, "matrix", M)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> linalg.Spectrum:
        """Validated eigendecomposition (see ``linalg.psd_spectrum``), unless
        ``_fill_spectra`` filled it with other operators' in one call.

        Raises NotHermitianError or NotPSDError on every access for an
        invalid matrix, since a failed computation is not cached.  Its
        arrays are read-only because every caller shares them.
        """
        spec = linalg.psd_spectrum(self.matrix)
        _read_only(spec.eigenvalues, spec.eigenvectors)
        return spec

    @staticmethod
    def _fill_spectra(ops, stack: np.ndarray) -> None:
        """Fill the ``spectrum`` of ``ops``, whose matrices ``stack`` holds, from
        one stacked ``linalg.psd_spectrum`` call; a call that raises fills nothing."""
        spec = linalg.psd_spectrum(stack)
        _read_only(spec.eigenvalues, spec.eigenvectors)  # and every slice
        for op, w, V in zip(ops, spec.eigenvalues, spec.eigenvectors):
            op.__dict__["spectrum"] = linalg.Spectrum(w, V)

    @classmethod
    def _from_stack(cls, stack: np.ndarray) -> list:
        """One operator per member of ``stack`` (n, d, d): a read-only view of
        one copy of it, with ``spectrum`` filled by ``_fill_spectra``, whose
        checks of every member stand in for ``__post_init__``."""
        stack = np.array(stack, dtype=complex)
        _read_only(stack)  # and every slice
        out = [object.__new__(cls) for _ in stack]
        for rho, M in zip(out, stack):
            rho.__dict__["matrix"] = M
        cls._fill_spectra(out, stack)
        return out

    def _spectra_with(self, other: DensityOperator) -> tuple:
        """Both spectra, from one stacked call when neither is computed yet.
        If that call raises, each is decomposed alone, so an invalid operator
        raises its own error, on every access, and nothing invalid is cached."""
        known = "spectrum" in self.__dict__ or "spectrum" in other.__dict__
        if not (known or self is other):
            with suppress(QentError, ValueError):  # LinAlgError is a ValueError
                self._fill_spectra((self, other), np.array((self.matrix, other.matrix)))
        return self.spectrum, other.spectrum

    def _paired(self, other: DensityOperator, build):
        """``build(self, other)``, remembered for the last ``other`` only.

        The entry holds ``other`` by a weak reference, so it never keeps
        ``other`` alive, and it is a hit only for that very object: sound
        because both operators are immutable.  A build that raises stores
        nothing.
        """
        memo = self.__dict__.get("_pair_memo")
        if memo is not None and memo[0]() is other:
            return memo[1]
        value = build(self, other)
        self.__dict__["_pair_memo"] = (weakref.ref(other), value)
        return value

    def __getstate__(self):
        # weakrefs do not pickle, and the memo is cheap to rebuild
        return {k: v for k, v in self.__dict__.items() if k != "_pair_memo"}

    def __setstate__(self, state):
        # unpickled arrays come back writeable; the cached spectrum and the
        # pair memo are sound only while the matrix cannot change
        self.__dict__.update(state)
        _read_only(self.matrix)
        if "spectrum" in state:
            _read_only(self.spectrum.eigenvalues, self.spectrum.eigenvectors)


@dataclass(frozen=True)
class BipartiteState:
    """A density operator with a fixed tensor split dim = dA * dB."""

    state: DensityOperator
    dA: int
    dB: int

    def __post_init__(self):
        if self.dA * self.dB != self.state.dim:
            raise OutOfRangeError(
                f"dA*dB = {self.dA * self.dB} != dim = {self.state.dim}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.state.matrix

    def reduction(self, keep: str) -> DensityOperator:
        red = linalg.partial_trace(self.matrix, self.dA, self.dB, keep=keep)
        return DensityOperator(red)

    @cached_property
    def product(self) -> DensityOperator:
        """Tensor product of the two reductions, computed on first use."""
        return DensityOperator(
            linalg.kron(self.reduction("A").matrix, self.reduction("B").matrix)
        )


@dataclass(frozen=True)
class DensityReport:
    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    passed: bool


def validate_density(M, tol: float = DENSITY_TOL) -> DensityReport:
    """Hermiticity / trace / positivity diagnostics for a candidate state."""
    M = linalg.as_complex_matrix(M)
    herm = linalg.hermiticity_defect(M)
    trace = abs(np.trace(M) - 1.0)
    w = np.linalg.eigvalsh((M + M.conj().T) / 2)
    min_eig = float(w[0])
    passed = herm <= tol and trace <= tol and min_eig >= -tol
    return DensityReport(herm, float(trace), min_eig, passed)


def density_from_pure(v) -> DensityOperator:
    """Rank-one projector |v><v| / <v|v>."""
    v = np.asarray(v, dtype=complex).ravel()
    norm2 = float(np.vdot(v, v).real)
    if norm2 <= 0.0:
        raise ZeroVectorError("cannot build a state from the zero vector")
    return DensityOperator(np.outer(v, v.conj()) / norm2)


_BELL_VECTORS = {
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
}


def bell_vector(kind: str) -> np.ndarray:
    try:
        return _BELL_VECTORS[kind].copy()
    except KeyError:
        raise OutOfRangeError(f"unknown Bell state {kind!r}") from None


def bell_state(kind: str) -> BipartiteState:
    """One of the four Bell states as a 2x2 bipartite density operator."""
    return BipartiteState(density_from_pure(bell_vector(kind)), 2, 2)


_BELL_PROJECTORS = {
    kind: density_from_pure(v).matrix for kind, v in _BELL_VECTORS.items()
}


def _werner_matrix(F):
    """F on the singlet, (1-F)/3 on each of the other three Bell projectors:
    one matrix for a float F, a stack for F of shape (n, 1, 1)."""
    values = np.asarray(F, dtype=float)
    outside = values[~((0.0 <= values) & (values <= 1.0))]  # NaN included
    if outside.size:
        raise OutOfRangeError(f"F must lie in [0, 1], got {outside[0]}")
    M = F * _BELL_PROJECTORS["psi-"]
    for kind in ("psi+", "phi-", "phi+"):
        M = M + (1.0 - F) / 3.0 * _BELL_PROJECTORS[kind]
    return M


def werner_states(Fs) -> list:
    """``werner_state(F)`` for every F in ``Fs``, with the spectra of the
    states and of their reduced products already computed, each family as
    one stack (one ``linalg.psd_spectrum`` call each)."""
    M = _werner_matrix(np.asarray(Fs, dtype=float).reshape(-1, 1, 1))
    products = linalg.kron(
        linalg.partial_trace(M, 2, 2, "A"), linalg.partial_trace(M, 2, 2, "B")
    )
    out = []
    for state, product in zip(
        DensityOperator._from_stack(M), DensityOperator._from_stack(products)
    ):
        W = BipartiteState(state, 2, 2)
        W.__dict__["product"] = product  # fills the cached_property
        out.append(W)
    return out


def werner_state(F: float) -> BipartiteState:
    """The Werner state at F; its spectrum and reduced product are computed
    on first use."""
    return BipartiteState(DensityOperator(_werner_matrix(F)), 2, 2)


def _complex_gaussian(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_density(dim: int, seed: int) -> DensityOperator:
    """Hilbert-Schmidt (Ginibre) random state, deterministic per seed."""
    G = _complex_gaussian(dim, np.random.default_rng(seed))
    M = G @ G.conj().T
    return DensityOperator(M / np.trace(M).real)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian with phase fix."""
    G = _complex_gaussian(dim, np.random.default_rng(seed))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def random_bipartite(dA: int, dB: int, seed: int) -> BipartiteState:
    return BipartiteState(random_density(dA * dB, seed), dA, dB)


def reduced_product(sigma: BipartiteState) -> DensityOperator:
    """Tensor product of the two reductions of a bipartite state (cached on
    the state)."""
    return sigma.product


# --- state file format -----------------------------------------------------
#
# JSON object {"dims": [dA, dB] or [d], "re": [[...]], "im": [[...]]} with
# row-major real/imaginary parts, written with 17 significant digits.


def _grid(M: np.ndarray, part) -> str:
    rows = [
        "[" + ", ".join(format(x, ".17g") for x in part(row)) + "]" for row in M
    ]
    return "[" + ", ".join(rows) + "]"


def state_to_json(M: np.ndarray, dims) -> str:
    M = linalg.as_complex_matrix(M)
    dims_txt = "[" + ", ".join(str(int(d)) for d in dims) + "]"
    return (
        "{"
        + f'"dims": {dims_txt}, "re": {_grid(M, np.real)}, "im": {_grid(M, np.imag)}'
        + "}"
    )


def save_state(path, M: np.ndarray, dims) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(M, dims) + "\n")


def load_state(path):
    """Read a state file; returns (matrix, dims list)."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    dims = [int(d) for d in obj["dims"]]
    M = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    M = linalg.as_complex_matrix(M)
    expected = int(np.prod(dims))
    if M.shape[0] != expected:
        raise ValueError(f"dims {dims} inconsistent with matrix size {M.shape[0]}")
    return M, dims
