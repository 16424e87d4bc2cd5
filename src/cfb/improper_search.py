"""Grid search for populations where the oracle predictor scores below chance.

Setup: two covariate levels with equal mass (c = 0.5 by default), a
benefit triple per level, and the oracle predictor h(x) = E[B | X=x].
A configuration is interesting when the high-h level really does have
the larger mean benefit and yet the concordance statistic lands below
0.5, i.e. the best possible predictor looks worse than coin flipping.

Two closed-form conditions characterize this.  With the low-level
triple (pm, p0, pp) and high-level triple (qm, q0, qp):

  1. mean benefit increases with h:   qp - qm > pp - pm
  2. cross pairs reverse the ranking: the draw from the high-mean level
     is strictly less likely to realize the larger benefit,
     Pr(B_high > B_low) < Pr(B_high < B_low), which expands to
     qp - qm + qm*pp < pp - pm + qp*pm.

The search enumerates all pairs of triples on the hundredths simplex
and keeps those satisfying both, recording the statistic for each.
Survivors come back as columns (ImproperSet): the integer hundredths of
both triples, the statistic and its deviation from 0.5.

A note on arithmetic.  The survivor set is defined by double precision
evaluation of the filter expressions exactly as grid_search writes them
(term order and all); boundary cells where the exact value of an
expression is zero can land on either side depending on rounding, so
reordering terms would change the census.  The public predicates
mean_benefit_increasing and cross_pair_reversal are the exact-rational
versions for use on individual pairs; grid_search keeps its own frozen
floating-point filter so results stay reproducible cell for cell.

It runs that filter only where it can pass.  In integer hundredths,
with d = qm + pp - pm, the two conditions read qp > d and qp * (100 - pm)
< 100 * d - qm * pp, so for a fixed low triple and high minus level qm
the exact survivors are one open interval of qp.  A cell outside its
closure makes an exact expression a nonzero multiple of 1e-2 or 1e-4,
far beyond double rounding, so the float filter rejects it too; the
closure's ends are the exact-zero cells, where rounding decides: at
step 0.01 the open intervals hold 262,492 cells, the exact census, and
21,031 of the 283,523 float survivors sit on an end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cfb_engine import _two_group_masses
from .population_model import ProbTriple

__all__ = [
    "ImproperSet",
    "SearchSummary",
    "GridSearchResult",
    "mean_benefit_increasing",
    "cross_pair_reversal",
    "grid_search",
]

# low triples per candidate block: at step 0.01 about 18,000 cells, so each
# per-cell temporary is about 140 kB
_ROWS = 256


class ImproperSet:
    """Grid findings as columns, one entry per (low, high) triple pair.

    p_minus, p_plus and q_minus, q_plus are the integer hundredths of the
    low and the high triple (the zero share is 100 minus the other two).
    cfb_star is the statistic under the oracle predictor, deviation the
    raw signed distance from 0.5 before the final addition.  In
    grid_search's set deviation is strictly negative for every survivor,
    but 0.5 + deviation can round back to exactly 0.5 when the deviation
    is below resolution, so cfb_star < 0.5 is deliberately not enforced.
    A set read back from a `search` CSV (cfb._csv._read_improper_csv)
    has only the 10-digit cfb_star, so its deviation is cfb_star - 0.5,
    and 0.0 wherever that text reads 0.5: for 671 of the 283,523
    survivors at step 0.01, and 47 of the 9,563 that screen-cf keeps.
    len() counts the findings.
    """

    def __init__(self, p_minus, p_plus, q_minus, q_plus, cfb_star, deviation):
        self.p_minus = np.asarray(p_minus, dtype=np.int64)
        self.p_plus = np.asarray(p_plus, dtype=np.int64)
        self.q_minus = np.asarray(q_minus, dtype=np.int64)
        self.q_plus = np.asarray(q_plus, dtype=np.int64)
        self.cfb_star = np.asarray(cfb_star, dtype=np.float64)
        self.deviation = np.asarray(deviation, dtype=np.float64)

    def __len__(self):
        return len(self.cfb_star)

    def take(self, idx) -> "ImproperSet":
        """The findings at the integer positions idx, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        return ImproperSet(*(col[idx] for col in (self.p_minus, self.p_plus, self.q_minus,
                                                  self.q_plus, self.cfb_star, self.deviation)))


@dataclass(frozen=True)
class SearchSummary:
    count: int
    cfb_min: float
    cfb_max: float
    cfb_median: float
    argmin: int | None  # the minimum's row in the survivors, None when there are none


@dataclass(frozen=True)
class GridSearchResult:
    survivors: ImproperSet
    summary: SearchSummary
    step: float
    c: float


def mean_benefit_increasing(triple_low: ProbTriple, triple_high: ProbTriple) -> bool:
    """True when the high-h level has strictly larger mean benefit.

    Plain double comparison; the operands are already doubles and no
    arithmetic beyond two subtractions is involved.
    """
    return (triple_high.p_plus - triple_high.p_minus) > (
        triple_low.p_plus - triple_low.p_minus
    )


def cross_pair_reversal(triple_low: ProbTriple, triple_high: ProbTriple) -> bool:
    """True when cross pairs rank the levels opposite to their means.

    Exact rational evaluation of

        qp - qm + qm*pp < pp - pm + qp*pm

    which is equivalent to Pr(B_high > B_low) < Pr(B_high < B_low) for
    independent draws from the two triples.
    """
    pm = Fraction(triple_low.p_minus)
    pp = Fraction(triple_low.p_plus)
    qm = Fraction(triple_high.p_minus)
    qp = Fraction(triple_high.p_plus)
    return qp - qm + qm * pp < pp - pm + qp * pm


def _enumerate_hundredths(hund: int):
    """All integer triples (minus, zero, plus) with the given granularity.

    minus ascending, then plus ascending: this is the canonical record
    order for the search output.
    """
    out = []
    for m in range(0, 101, hund):
        for p in range(0, 101 - m, hund):
            out.append((m, 100 - m - p, p))
    return out


def _candidates(pm, pp, hund):
    """(low row, high index) of the candidates of the low triples with hundredths pm, pp:
    for each high minus level qm, in canonical order, the qp on the step grid from
    max(d, 0) to min(100 - qm, floor((100 d - qm pp) / (100 - pm))), every qp if pm = 100."""
    qm = np.arange(0, 101, hund)
    sizes = (100 - qm) // hund + 1  # high triples per minus level
    level_start = np.cumsum(sizes) - sizes
    d = qm - (pm - pp)[:, None]  # on the step grid
    den = 100 - pm[:, None]
    top = np.where(den > 0, (100 * d - qm * pp[:, None]) // np.maximum(den, 1), 100)
    lo = np.maximum(d, 0) // hund
    hi = np.minimum(100 - qm, top) // hund
    count = np.maximum(hi - lo + 1, 0).ravel()
    first = (level_start + lo).ravel()
    rows = np.repeat(np.arange(len(pm)), count.reshape(len(pm), -1).sum(axis=1))
    high = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(count.sum())
    return rows, high


def grid_search(step: float = 0.01, c: float = 0.5) -> GridSearchResult:
    """Scan of ordered triple pairs on the grid, by candidate intervals.

    Parameters
    ----------
    step : float
        Grid resolution; must be a multiple of 0.01 that divides 1
        (the representation is integer hundredths).
    c : float in (0, 1)
        Mass of the high-h covariate level.

    Returns every surviving (low, high) pair with its statistic, in
    canonical order (low triple outer, high triple inner, each ordered
    by (minus, plus) ascending), plus summary statistics.

    The frozen float filter runs on candidate cells only: for each low
    triple and high minus level, the closed qp interval of the module
    docstring, whose ends are the exact-zero cells.  Every other cell
    fails the filter by a margin no rounding can close, so the survivors
    are those of a scan of every ordered pair, bit for bit.  The low
    triples go _ROWS at a time, which keeps the temporaries small.
    """
    if not math.isfinite(step):
        raise ValueError(f"step must be finite, got {step!r}")
    hund = round(step * 100) if abs(step) <= 1.0 else 0  # step * 100 may overflow to inf
    if abs(step * 100 - hund) > 1e-9 or hund < 1 or 100 % hund != 0:
        raise ValueError("step must be a multiple of 0.01 that divides 1")
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie strictly inside (0, 1), got {c!r}")

    ints = _enumerate_hundredths(hund)
    m_arr = np.array([t[0] for t in ints], dtype=np.int64)
    p_arr = np.array([t[2] for t in ints], dtype=np.int64)
    vm = m_arr * 0.01
    vp = p_arr * 0.01
    v0 = (1.0 - vm) - vp

    parts = []
    for i0 in range(0, len(ints), _ROWS):
        rows, qi = _candidates(m_arr[i0:i0 + _ROWS], p_arr[i0:i0 + _ROWS], hund)
        pi = rows + i0
        pm, pp, qm, qp = vm[pi], vp[pi], vm[qi], vp[qi]
        chain = qp - qm + pm - pp + qm * pp - qp * pm
        keep = ((qp - qm) > (pp - pm)) & (chain < 0)
        pi, qi = pi[keep], qi[keep]
        # only the denominator comes from the shared two-group kernel: the deviation
        # keeps chain, which equals cross_conc - cross_disc exactly but not in rounding
        _, _, a = _two_group_masses(c, vm[pi], v0[pi], vp[pi], vm[qi], v0[qi], vp[qi])
        parts.append((pi, qi, c * (1.0 - c) * chain[keep] / (2.0 * a)))

    low_idx, high_idx, dev = map(np.concatenate, zip(*parts))
    cfb = 0.5 + dev
    survivors = ImproperSet(m_arr[low_idx], p_arr[low_idx], m_arr[high_idx], p_arr[high_idx],
                            cfb, dev)

    if len(survivors):
        k = int(np.argmin(dev))
        summary = SearchSummary(count=len(survivors), cfb_min=float(cfb[k]), cfb_max=float(cfb.max()),
                                cfb_median=float(np.median(cfb)), argmin=k)
    else:
        nan = float("nan")
        summary = SearchSummary(0, nan, nan, nan, None)
    return GridSearchResult(survivors, summary, step, c)
