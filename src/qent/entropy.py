"""Deformed logarithms and the entropic functionals.

All logarithms are natural.  With rho = sum_i p_i |u_i><u_i|,
sigma = sum_j r_j |v_j><v_j|, P_ij = |<u_i|v_j>|^2 and
Delta_ij = ln p_i - ln r_j, every relative entropy here comes from the two
cached spectra by one formula, exact as q -> 1:

    D_q = Tr[rho - rho**q sigma**(1-q)] / (1-q)
        = sum_ij P_ij p_i expm1((q-1) Delta_ij) / (q-1),   D_1 = sum_ij P_ij p_i Delta_ij.

Conventions: eigenvalues <= ``linalg.SUPPORT_TOL`` are exact zeros, with
0**q = 0 for q > 0 and M**0 = I (so D_0 = 0).  Columns of sigma outside its
support take r**(1-q) = 0: their weight m = sum P_ij p_i adds m / (1-q), and
for q >= 1 a weight above ``SUPPORT_VIOLATION_TOL`` makes the value +inf
with ``support_violation`` set, the only way a value is infinite.

The q-independent terms of a pair are computed once and kept on rho for the
last sigma it was paired with (``DensityOperator._paired``: one entry,
weakly referencing sigma), so a q grid evaluated one q per call builds them
once.  A single q then costs one 1-D dot, expm1((q-1) Delta) . (P_ij p_i);
a grid of q is one matrix-vector product.  Single-q values are bit-stable:
the same for a pair whether its terms are fresh or remembered.  A grid row
may differ from the single-q value in the last bit, since the matrix-vector
product sums in another order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, DomainError
from .states import DensityOperator

#: Tr[(I - supp sigma) rho] above this counts as a genuine divergence
SUPPORT_VIOLATION_TOL = 1e-10


@dataclass(frozen=True)
class EntropyValue:
    value: float
    q: float
    support_violation: bool = False

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def q_log(x: float, q: float) -> float:
    """ln_q(x) = (x**(1-q) - 1) / (1-q), with the natural log at q = 1.

    Returns -inf at x = 0 when 1-q <= 0 would require it; callers guard
    that case.
    """
    if x < 0:
        raise DomainError(f"q_log requires x >= 0, got {x}")
    if q == 1.0:
        return math.log(x) if x > 0 else -math.inf
    if x == 0.0:
        return -1.0 / (1.0 - q) if q < 1.0 else -math.inf
    return (x ** (1.0 - q) - 1.0) / (1.0 - q)


def tsallis_entropy(rho: DensityOperator, q: float) -> float:
    """S_q = -sum_i w_i**q ln_q(w_i) over the spectrum; S_1 is von Neumann."""
    if not 0.0 <= q <= 2.0:
        raise DomainError(f"q must lie in [0, 2], got {q}")
    w = rho.spectrum.eigenvalues
    w = w[w > linalg.SUPPORT_TOL]
    if q == 1.0:
        return float(-np.sum(w * np.log(w)))
    return float(-np.sum(w**q * (w ** (1.0 - q) - 1.0) / (1.0 - q)))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -Tr[rho ln rho], with 0 ln 0 = 0."""
    return tsallis_entropy(rho, 1.0)


def _pair_terms(rho: DensityOperator, sigma: DensityOperator) -> tuple:
    """The q-independent terms of D_q(rho|sigma) from the cached spectra:
    (weight P_ij p_i, delta Delta_ij, off-support weight, Umegaki value,
    support violation)."""
    # eigenvalues are sorted, so each support is a suffix of its spectrum
    p, U = rho.spectrum.eigenvalues, rho.spectrum.eigenvectors
    r, V = sigma.spectrum.eigenvalues, sigma.spectrum.eigenvectors
    i, j = (w.searchsorted(linalg.SUPPORT_TOL, "right") for w in (p, r))
    weight = np.abs(U[:, i:].conj().T @ V) ** 2 * p[i:, None]  # P_ij p_i
    off_support = float(weight[:, :j].sum())
    weight = weight[:, j:].ravel()
    delta = np.subtract.outer(np.log(p[i:]), np.log(r[j:])).ravel()
    return (
        weight, delta, off_support, float(weight @ delta),
        off_support > SUPPORT_VIOLATION_TOL,
    )


def _relative_entropies(rho: DensityOperator, sigma: DensityOperator, qs) -> list:
    """D_q(rho|sigma) for every q in ``qs`` (q = 1: Umegaki); +inf marks a
    support violation."""
    weight, delta, off_support, umegaki, violation = rho._paired(sigma, _pair_terms)

    def value(q, term):
        if q == 0.0:
            return 0.0
        if q >= 1.0 and violation:
            return math.inf
        if q == 1.0:
            return umegaki
        return (term - off_support) / (q - 1.0)

    if len(qs) == 1:
        q = float(qs[0])
        return [value(q, float(np.expm1((q - 1.0) * delta).dot(weight)))]
    qs = np.asarray(qs, dtype=float)
    terms = np.expm1(np.multiply.outer(qs - 1.0, delta)) @ weight
    return [value(q, term) for q, term in zip(qs.tolist(), terms.tolist())]


def _entropy_value(rho: DensityOperator, sigma: DensityOperator, q: float):
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims differ: {rho.dim} vs {sigma.dim}")
    value = _relative_entropies(rho, sigma, (q,))[0]
    return EntropyValue(value, q, support_violation=math.isinf(value))


def umegaki_relative_entropy(
    rho: DensityOperator, sigma: DensityOperator
) -> EntropyValue:
    """U(rho|sigma) = Tr[rho (ln rho - ln sigma)]."""
    return _entropy_value(rho, sigma, 1.0)


def tsallis_relative_entropy(
    rho: DensityOperator, sigma: DensityOperator, q: float
) -> EntropyValue:
    """D_q(rho|sigma) = Tr[rho - rho**q sigma**(1-q)] / (1-q), q in [0, 2].

    q = 1 is the Umegaki relative entropy (the limit); q = 0 is identically 0.
    """
    if not 0.0 <= q <= 2.0:
        raise DomainError(f"q must lie in [0, 2], got {q}")
    return _entropy_value(rho, sigma, q)


def tsallis_relative_entropy_diagonal(p, r, q: float) -> float:
    """Scalar-path D_q for commuting (diagonal) inputs, used as an oracle."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    if q == 1.0:
        mask = p > 0
        if np.any(r[mask] <= 0):
            return math.inf
        return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(r[mask]))))
    if q == 0.0:
        return 0.0
    terms = np.where(p > 0, np.power(p, q), 0.0) * np.where(
        r > 0, np.power(r, 1.0 - q), 0.0
    )
    if q > 1.0 and np.any((p > SUPPORT_VIOLATION_TOL) & (r <= linalg.SUPPORT_TOL)):
        return math.inf
    return float((1.0 - np.sum(terms)) / (1.0 - q))
