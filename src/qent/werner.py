"""Closed forms for the Werner family and the measure-comparison sweep."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfRangeError


@dataclass(frozen=True)
class WernerSweepRow:
    F: float
    e_tsallis: float
    e_rel: float
    e_mutual: float


@dataclass(frozen=True)
class CrossingReport:
    """Sign changes of e_tsallis - e_rel, refined to width 1e-6."""

    crossings: tuple


def werner_er_closed(F: float) -> float:
    """Relative entropy of entanglement of W_F: 0 below F = 1/2, else
    F ln F + (1-F) ln(1-F) + ln 2."""
    if not 0.0 <= F <= 1.0:
        raise OutOfRangeError(f"F must lie in [0, 1], got {F}")
    if F <= 0.5:
        return 0.0
    rest = (1.0 - F) * math.log(1.0 - F) if F < 1.0 else 0.0
    return F * math.log(F) + rest + math.log(2.0)


def werner_tsallis_closed(F: float, q: float) -> float:
    """Deformed measure of W_F against its reduced product I/4.

    Direct spectral evaluation with eigenvalues {F, (1-F)/3 x3} gives
    [1 - (1/4)**(1-q) F**q - (3/4)**(1-q) (1-F)**q] / (1-q), with 0**q = 0.
    """
    if not 0.0 <= F <= 1.0:
        raise OutOfRangeError(f"F must lie in [0, 1], got {F}")
    if not 0.0 <= q < 1.0:
        raise OutOfRangeError(f"q must lie in [0, 1), got {q}")
    if q == 0.0:
        return 0.0
    fq = F**q if F > 0 else 0.0
    gq = (1.0 - F) ** q if F < 1.0 else 0.0
    return (1.0 - 0.25 ** (1.0 - q) * fq - 0.75 ** (1.0 - q) * gq) / (1.0 - q)


def werner_mutual(F: float) -> float:
    """Mutual-entropy measure of W_F: U(W_F | I/4), from the spectrum
    {F, (1-F)/3 x3} as 2 ln 2 + F ln F + (1-F) ln((1-F)/3), with 0 ln 0 = 0."""
    if not 0.0 <= F <= 1.0:
        raise OutOfRangeError(f"F must lie in [0, 1], got {F}")
    singlet = F * math.log(F) if F > 0.0 else 0.0
    rest = (1.0 - F) * math.log((1.0 - F) / 3.0) if F < 1.0 else 0.0
    return 2.0 * math.log(2.0) + singlet + rest


def _refine_crossing(lo: float, hi: float, q: float, width: float = 1e-6) -> float:
    def diff(F):
        return werner_tsallis_closed(F, q) - werner_er_closed(F)

    dlo = diff(lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        dm = diff(mid)
        if dlo * dm <= 0:
            hi = mid
        else:
            lo, dlo = mid, dm
    return (lo + hi) / 2


def werner_sweep(F_start: float, F_end: float, step: float, q: float):
    """Rows of (F, e_tsallis, e_rel, e_mutual) plus refined crossings.

    Crossing detection and bisection run on the closed forms, which are
    exact; the optimizer plays no part here.
    """
    if not (0.0 <= F_start < F_end <= 1.0) or not step > 0:  # NaN included
        raise OutOfRangeError(
            f"need 0 <= F_start < F_end <= 1 and step > 0, got "
            f"({F_start}, {F_end}, {step})"
        )
    grid = []
    F = F_start
    while F < F_end + step / 2:
        grid.append(min(F, F_end))
        F += step
    rows = [
        WernerSweepRow(
            F=F,
            e_tsallis=werner_tsallis_closed(F, q),
            e_rel=werner_er_closed(F),
            e_mutual=werner_mutual(F),
        )
        for F in grid
    ]
    crossings = []
    for a, b in zip(rows[:-1], rows[1:]):
        da = a.e_tsallis - a.e_rel
        db = b.e_tsallis - b.e_rel
        if da * db < 0:  # strict sign change; a flat zero is not a crossing
            crossings.append(_refine_crossing(a.F, b.F, q))
    return rows, CrossingReport(crossings=tuple(crossings))
