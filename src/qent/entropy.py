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
with ``support_violation`` set, the only way a value is infinite.  These
choices are made in one place, the scalar ``_value``.

Supports are masks, not slices: the terms of a pair (``_pair_terms``) run
over every (i, j), with zero weight where p_i or r_j is off its support, so
one code path takes one pair or a stack of pairs of mixed ranks (a stack of
Werner states holds the rank-3 W_0 and the pure W_1).

The q-independent terms of a pair are computed once and kept on rho for the
last sigma it was paired with (``DensityOperator._paired``: one entry,
weakly referencing sigma), so a q grid evaluated one q per call builds them
once, from spectra that one stacked call computes when neither is known
(``DensityOperator._spectra_with``: a state and its reduced product in every
measure).  A single q then costs one frame: the remembered terms, one 1-D
dot, expm1((q-1) Delta) . (P_ij p_i), and ``_value``.
A grid of q, for one pair or for a stack (``_relative_entropy_table``), is
one expm1 and one ``vecdot``; ``_value`` sets only the entries where a
convention applies.  Values are bit-stable: the same for a pair whether its
terms are fresh or remembered, and a grid or table entry equals the
single-q value, since every sum is reduced by the same dot.
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


def _pair_terms(rho: linalg.Spectrum, sigma: linalg.Spectrum) -> tuple:
    """The q-independent terms of D_q(rho|sigma) from two spectra, or member
    by member from two stacks (n, d), (n, d, d): (weight P_ij p_i, delta
    Delta_ij, off-support weight, Umegaki value, support violation).

    weight and delta are flat over (i, j); weight is zero wherever p_i or r_j
    is off its support, so pairs of any ranks share one shape.  The last
    three are Python scalars for one pair and columns (n, 1) for a stack.
    """
    p, U = rho.eigenvalues, rho.eigenvectors
    r, V = sigma.eigenvalues, sigma.eigenvectors
    d = p.shape[-1]
    pr = np.concatenate((p, r), -1)
    on = pr > linalg.SUPPORT_TOL
    logs = np.log(np.maximum(pr, linalg.SUPPORT_TOL))  # finite off the supports
    weight = np.abs(U.conj().mT @ V)
    weight **= 2
    weight *= (pr * on)[..., :d, None]  # P_ij p_i on rho's support
    on_support = weight * on[..., None, d:]
    weight -= on_support  # what sigma's support drops
    off_support = weight.sum((-2, -1))
    weight = on_support.reshape(p.shape[:-1] + (-1,))
    delta = (logs[..., :d, None] - logs[..., None, d:]).reshape(weight.shape)
    umegaki = np.vecdot(weight, delta)
    if p.ndim == 1:
        off_support, umegaki = float(off_support), float(umegaki)
    else:  # one row per member, to broadcast against a table of q
        off_support, umegaki = off_support[:, None], umegaki[:, None]
    return weight, delta, off_support, umegaki, off_support > SUPPORT_VIOLATION_TOL


def _spectral_pair_terms(rho: DensityOperator, sigma: DensityOperator) -> tuple:
    """The build that ``_paired`` remembers, so the dimensions are checked
    and the spectra read only on a miss (both from one stacked call when
    neither is computed yet: ``DensityOperator._spectra_with``)."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims differ: {rho.dim} vs {sigma.dim}")
    return _pair_terms(*rho._spectra_with(sigma))


def _value(q, term, off_support, umegaki, violation):
    """D_q from the pair sum term = sum_ij P_ij p_i expm1((q-1) Delta_ij),
    with the conventions at q = 0, at q = 1 and for a support violation."""
    if q == 0.0:
        return 0.0
    if q >= 1.0 and violation:
        return math.inf
    if q == 1.0:
        return umegaki
    return (term - off_support) / (q - 1.0)


def _grid(terms, qs) -> np.ndarray:
    """D_q for every q in ``qs`` from the terms of one pair or of a stack of
    n pairs: an (n, len(qs)) array, n = 1 for one pair.

    Each sum is its own ``vecdot`` row, reduced by the same dot as the
    single-q path, so an entry equals the single-q value bit for bit,
    whatever other q the grid holds.  ``_value`` sets only the entries that
    a convention decides."""
    weight, delta, off_support = terms[:3]
    qs = np.asarray(qs, dtype=float)
    shift = qs - 1.0
    summands = np.expm1(shift[:, None] * delta[..., None, :])
    sums = np.vecdot(summands, weight[..., None, :]).reshape(-1, qs.size)
    table = (sums - off_support) / np.where(shift != 0.0, shift, 1.0)
    # a convention decides q = 0 and q = 1 on every member, and q > 1 on a
    # member that violates the support condition
    ql = qs.tolist()
    cols = [j for j, q in enumerate(ql) if q == 0.0 or q >= 1.0]
    if cols:
        members = [terms[2:]] if weight.ndim == 1 else zip(
            *(x[:, 0].tolist() for x in terms[2:])
        )
        for k, (off, umegaki, violation) in enumerate(members):
            for j in cols:
                if ql[j] <= 1.0 or violation:
                    table[k, j] = _value(ql[j], sums[k, j], off, umegaki, violation)
    return table


def _relative_entropies(rho: DensityOperator, sigma: DensityOperator, qs) -> list:
    """D_q(rho|sigma) for every q in the grid ``qs`` (q = 1: Umegaki); +inf
    marks a support violation."""
    return _grid(rho._paired(sigma, _spectral_pair_terms), qs)[0].tolist()


def _relative_entropy_table(rhos, sigmas, qs) -> np.ndarray:
    """D_q(rho_k|sigma_k) for pairs of one dimension and every q in ``qs``:
    an (n, len(qs)) array from the pairs' cached spectra, with the values of
    ``_relative_entropies`` row by row."""

    def stacked(ops):
        return linalg.Spectrum(
            np.stack([op.spectrum.eigenvalues for op in ops]),
            np.stack([op.spectrum.eigenvectors for op in ops]),
        )

    return _grid(_pair_terms(stacked(rhos), stacked(sigmas)), qs)


def umegaki_relative_entropy(
    rho: DensityOperator, sigma: DensityOperator
) -> EntropyValue:
    """U(rho|sigma) = Tr[rho (ln rho - ln sigma)]."""
    # the pair sum is not read at q = 1
    value = _value(1.0, 0.0, *rho._paired(sigma, _spectral_pair_terms)[2:])
    return EntropyValue(value, 1.0, support_violation=math.isinf(value))


def tsallis_relative_entropy(
    rho: DensityOperator, sigma: DensityOperator, q: float
) -> EntropyValue:
    """D_q(rho|sigma) = Tr[rho - rho**q sigma**(1-q)] / (1-q), q in [0, 2].

    q = 1 is the Umegaki relative entropy (the limit); q = 0 is identically 0.
    """
    if not 0.0 <= q <= 2.0:
        raise DomainError(f"q must lie in [0, 2], got {q}")
    weight, delta, off, umegaki, violation = rho._paired(sigma, _spectral_pair_terms)
    term = float(np.expm1((q - 1.0) * delta).dot(weight))
    value = _value(q, term, off, umegaki, violation)
    return EntropyValue(value, q, support_violation=math.isinf(value))


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
