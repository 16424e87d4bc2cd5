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
both triples, the statistic and its deviation from 0.5.  The per-pair
ImproperRecord objects are a view of those columns, built on first
access to .records, so writing the census never creates them.

A note on arithmetic.  The survivor set is defined by double precision
evaluation of the filter expressions exactly as written in _scan_block
(term order and all); boundary cells where the exact value of an
expression is zero can land on either side depending on rounding, so
reordering terms would change the census.  The public predicates
mean_benefit_increasing and cross_pair_reversal are the exact-rational
versions for use on individual pairs; grid_search keeps its own frozen
floating-point filter so results stay reproducible cell for cell.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cfb_engine import _two_group_masses, _worker_count, cfb_monte_carlo
from .population_model import BetaXPopulation, ProbTriple

__all__ = [
    "GridTriple",
    "ImproperRecord",
    "ImproperSet",
    "SearchSummary",
    "GridSearchResult",
    "mean_benefit_increasing",
    "cross_pair_reversal",
    "grid_search",
    "continuous_improper_eval",
    "HIST_RANGE",
    "HIST_BINS",
]

# Histogram convention for the statistic over survivors.  The grid
# minimum is comfortably above the left edge, so nothing is clipped.
HIST_RANGE = (0.41, 0.50)
HIST_BINS = 50

# low-level rows per scan block: at step 0.01 each whole-block temporary
# is 32 x 5151 doubles = 1.3 MB (10.5 MB at 256 rows), within a 2 MB L2
# cache; 32 scanned fastest of 16, 32, 64 and 256 rows
_BLOCK = 32


@dataclass(frozen=True)
class GridTriple:
    """Benefit triple on the hundredths grid, stored as integer counts.

    minus + zero + plus == 100.  values() applies the fixed mapping to
    doubles that the whole search is defined against.
    """

    minus: int
    zero: int
    plus: int

    def __post_init__(self):
        for name in ("minus", "zero", "plus"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise TypeError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.minus + self.zero + self.plus != 100:
            raise ValueError("hundredths must sum to 100")

    def values(self) -> tuple:
        """(p_minus, p_zero, p_plus) as the doubles the search uses."""
        vm = self.minus * 0.01
        vp = self.plus * 0.01
        return (vm, (1.0 - vm) - vp, vp)

    def as_prob_triple(self) -> ProbTriple:
        return ProbTriple(*self.values())

    def decimals(self) -> tuple:
        """Exact decimal forms for reporting (minus/100 etc.)."""
        return (self.minus / 100.0, self.zero / 100.0, self.plus / 100.0)


@dataclass(frozen=True)
class ImproperRecord:
    """One surviving configuration.

    cfb_star is the statistic under the oracle predictor, deviation the
    raw signed distance from 0.5 before the final addition.  deviation
    is strictly negative for every survivor, but 0.5 + deviation can
    round back to exactly 0.5 when the deviation is below resolution,
    so cfb_star < 0.5 is deliberately not enforced here.
    """

    triple_p: GridTriple
    triple_q: GridTriple
    cfb_star: float
    deviation: float


class ImproperSet:
    """Grid findings as columns, one entry per (low, high) triple pair.

    p_minus, p_plus and q_minus, q_plus are the integer hundredths of the
    low and the high triple (the zero share is 100 minus the other two),
    cfb_star and deviation are as in ImproperRecord.  len() counts the
    findings; records, and iteration, give them as ImproperRecord
    objects, built once on first use and shared between equal triples.
    """

    def __init__(self, p_minus, p_plus, q_minus, q_plus, cfb_star, deviation, records=None):
        self.p_minus = np.asarray(p_minus, dtype=np.int64)
        self.p_plus = np.asarray(p_plus, dtype=np.int64)
        self.q_minus = np.asarray(q_minus, dtype=np.int64)
        self.q_plus = np.asarray(q_plus, dtype=np.int64)
        self.cfb_star = np.asarray(cfb_star, dtype=np.float64)
        self.deviation = np.asarray(deviation, dtype=np.float64)
        self._records = records

    @classmethod
    def from_records(cls, records) -> "ImproperSet":
        """Columns of a sequence of ImproperRecord; records keeps the same objects."""
        records = tuple(records)
        if not all(isinstance(rec, ImproperRecord) for rec in records):
            raise TypeError("expected ImproperRecord entries")
        hund = np.array([(r.triple_p.minus, r.triple_p.plus, r.triple_q.minus, r.triple_q.plus)
                         for r in records], dtype=np.int64).reshape(-1, 4)
        return cls(*hund.T,
                   [r.cfb_star for r in records], [r.deviation for r in records], records)

    def __len__(self):
        return len(self.cfb_star)

    def __iter__(self):
        return iter(self.records)

    def _columns(self):
        return (self.p_minus, self.p_plus, self.q_minus, self.q_plus, self.cfb_star, self.deviation)

    @property
    def records(self) -> tuple:
        if self._records is None:
            triples = {}

            def triple(minus, plus):
                t = triples.get((minus, plus))
                if t is None:
                    t = triples[minus, plus] = GridTriple(minus, 100 - minus - plus, plus)
                return t

            self._records = tuple(
                ImproperRecord(triple(pm, pp), triple(qm, qp), v, d)
                for pm, pp, qm, qp, v, d in zip(*(col.tolist() for col in self._columns())))
        return self._records

    def record(self, k: int) -> ImproperRecord:
        """The k-th finding, without building the others."""
        pm, pp, qm, qp, v, d = (col[k].item() for col in self._columns())
        return ImproperRecord(GridTriple(pm, 100 - pm - pp, pp), GridTriple(qm, 100 - qm - qp, qp), v, d)

    def take(self, idx) -> "ImproperSet":
        """The findings at the integer positions idx, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        records = None if self._records is None else tuple(self._records[k] for k in idx.tolist())
        return ImproperSet(*(col[idx] for col in self._columns()), records)


@dataclass(frozen=True)
class SearchSummary:
    count: int
    cfb_min: float
    cfb_max: float
    cfb_median: float
    argmin: ImproperRecord | None
    hist_edges: tuple
    hist_counts: tuple


@dataclass(frozen=True)
class GridSearchResult:
    survivors: ImproperSet
    summary: SearchSummary
    step: float
    c: float

    @property
    def records(self) -> tuple:
        """The survivors as ImproperRecord objects, built on first access."""
        return self.survivors.records


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


def _scan_block(i0, i1, vm, v0, vp, c):
    """Filter one block of low-level triples against every high-level one.

    Returns (low_idx, high_idx, deviation) arrays for the survivors.
    The expressions here are the definition of the survivor set; see
    the module docstring before touching them.  Only the denominator A
    comes from the shared two-group kernel: the deviation keeps chain,
    which equals cross_conc - cross_disc exactly but not in rounding.
    """
    pm = vm[i0:i1, None]
    p0 = v0[i0:i1, None]
    pp = vp[i0:i1, None]
    qm = vm[None, :]
    q0 = v0[None, :]
    qp = vp[None, :]

    chain = qp - qm + pm - pp + qm * pp - qp * pm
    keep = ((qp - qm) > (pp - pm)) & (chain < 0)
    bi, qi = np.nonzero(keep)
    if bi.size == 0:
        return bi, qi, np.empty(0)
    pi = bi + i0

    _, _, a = _two_group_masses(c, vm[pi], v0[pi], vp[pi], vm[qi], v0[qi], vp[qi])
    dev = c * (1.0 - c) * chain[keep] / (2.0 * a)
    return pi, qi, dev


def grid_search(step: float = 0.01, c: float = 0.5) -> GridSearchResult:
    """Exhaustive scan of ordered triple pairs on the grid.

    Parameters
    ----------
    step : float
        Grid resolution; must be a multiple of 0.01 that divides 1
        (the representation is integer hundredths).
    c : float in (0, 1)
        Mass of the high-h covariate level.

    Returns every surviving (low, high) pair with its statistic, in
    canonical order (low triple outer, high triple inner, each ordered
    by (minus, plus) ascending), plus summary statistics and the fixed
    histogram used for reporting.

    The scan runs _BLOCK low triples at a time, on CFB_THREADS worker
    threads (cfb_engine._worker_count; 1 scans in this thread), and the
    blocks are joined in order, so the result does not depend on the
    thread count.
    """
    if not math.isfinite(step):
        raise ValueError(f"step must be finite, got {step!r}")
    hund = round(step * 100)
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

    n = len(ints)
    starts = range(0, n, _BLOCK)

    def scan(i0):
        # looked up at call time, so a rebound _scan_block sees every block
        return _scan_block(i0, min(i0 + _BLOCK, n), vm, v0, vp, c)

    workers = min(_worker_count(), len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(scan, starts))  # in block order
    else:
        parts = [scan(i0) for i0 in starts]

    low_idx, high_idx, dev = map(np.concatenate, zip(*parts))
    cfb = 0.5 + dev
    survivors = ImproperSet(m_arr[low_idx], p_arr[low_idx], m_arr[high_idx], p_arr[high_idx],
                            cfb, dev)

    counts, edges = np.histogram(cfb, bins=HIST_BINS, range=HIST_RANGE)
    if len(survivors):
        k = int(np.argmin(dev))
        summary = SearchSummary(
            count=len(survivors),
            cfb_min=float(cfb[k]),
            cfb_max=float(cfb.max()),
            cfb_median=float(np.median(cfb)),
            argmin=survivors.record(k),
            hist_edges=tuple(float(e) for e in edges),
            hist_counts=tuple(int(n) for n in counts),
        )
    else:
        nan = float("nan")
        summary = SearchSummary(0, nan, nan, nan, None,
                                tuple(float(e) for e in edges),
                                tuple(int(n) for n in counts))
    return GridSearchResult(survivors, summary, step, c)


def continuous_improper_eval(alpha, beta, triple_low, triple_high, n, seed):
    """Monte Carlo statistic for a Beta-mixed version of a grid finding.

    The covariate becomes X ~ Beta(alpha, beta) on [0, 1] with the
    benefit triple interpolating between triple_low (at 0) and
    triple_high (at 1), and the oracle predictor E[B | X] is scored on
    n sampled pairs.  The endpoint pair must itself satisfy both
    below-chance conditions; this guards against typos in hand-copied
    triples, since the interesting question is whether the continuous
    mixture keeps the discrete pathology.

    Returns (estimate, standard_error).
    """
    if not (mean_benefit_increasing(triple_low, triple_high)
            and cross_pair_reversal(triple_low, triple_high)):
        raise ValueError(
            "endpoint triples must satisfy both below-chance conditions "
            "(increasing mean benefit, cross-pair reversal)"
        )
    pop = BetaXPopulation(alpha, beta, triple_low, triple_high)
    return cfb_monte_carlo(pop, n, seed)
