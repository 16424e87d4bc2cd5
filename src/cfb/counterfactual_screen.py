"""Which benefit triples can come from independent potential responses?

A triple (pm, p0, pp) is realizable in this sense when there are
response probabilities y0, y1 in [0, 1] (control and treatment, drawn
independently) with

    pm = y0 (1 - y1),   p0 = y0 y1 + (1-y0)(1-y1),   pp = y1 (1 - y0).

Eliminating y0 leaves a quadratic in y1 whose discriminant decides
existence; solve_outcome_probs recovers the actual pairs.  Screening a
set of grid findings down to the realizable ones asks whether the
below-chance behavior needs exotic dependence between the two potential
responses or survives under the most ordinary counterfactual model.

For triples on the hundredths grid the discriminant is a rational with
denominator 10^4, so the screen itself runs in exact integer arithmetic
and has no boundary ambiguity.  It works on the columns of an
ImproperSet: the kept findings come back as columns too, and the roots
are solved once per distinct kept triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .population_model import ProbTriple
from .improper_search import ImproperSet

__all__ = [
    "ScreenSummary",
    "ScreenResult",
    "discriminant",
    "solve_outcome_probs",
    "screen_improper_set",
]

_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class ScreenSummary:
    count: int
    cfb_min: float
    cfb_max: float
    cfb_mean: float
    cfb_median: float


@dataclass(frozen=True)
class ScreenResult:
    """Kept findings as columns plus their realizability evidence.

    solutions maps the (minus, plus) hundredths of every kept triple to
    its (roots, discriminant); roots holds the recovered (y0, y1) pairs,
    ordered by y1 ascending.
    """

    kept: ImproperSet
    solutions: dict
    summary: ScreenSummary


def discriminant(triple: ProbTriple) -> float:
    """Discriminant of the y1 quadratic for one triple.

    Nonnegative (up to rounding) exactly when the triple is realizable
    from independent potential responses.
    """
    return (triple.p_minus - 1.0 - triple.p_plus) ** 2 - 4.0 * triple.p_plus


def solve_outcome_probs(triple: ProbTriple) -> tuple:
    """Recover the (y0, y1) pairs generating a triple, if any.

    Returns a tuple of (y0, y1) pairs ordered by y1 ascending; empty
    when the triple cannot come from independent responses.  Negative
    discriminants within 1e-12 of zero are treated as a double root.
    The y1 = 1 root only exists together with p_minus = 0, and there
    y0 is pinned by p_zero instead of the usual division.
    """
    d = discriminant(triple)
    if d < -_EDGE_TOL:
        return ()
    d = max(d, 0.0)
    root = math.sqrt(d)
    base = triple.p_plus + 1.0 - triple.p_minus
    candidates = [(base - root) / 2.0] if root == 0.0 else [
        (base - root) / 2.0,
        (base + root) / 2.0,
    ]

    pairs = []
    for y1 in candidates:
        if not -_EDGE_TOL <= y1 <= 1.0 + _EDGE_TOL:
            continue
        y1 = min(max(y1, 0.0), 1.0)
        if 1.0 - y1 > _EDGE_TOL:
            y0 = triple.p_minus / (1.0 - y1)
            if -_EDGE_TOL <= y0 <= 1.0 + _EDGE_TOL:
                pairs.append((min(max(y0, 0.0), 1.0), y1))
        elif triple.p_minus <= _EDGE_TOL:
            pairs.append((triple.p_zero, 1.0))
    # a barely positive discriminant can produce two copies of what is
    # really one double root; keep the smaller
    deduped = []
    for pair in pairs:
        if deduped and abs(pair[1] - deduped[-1][1]) < 1e-9:
            continue
        deduped.append(pair)
    return tuple(deduped)


def _realizable_hundredths(minus, plus):
    """Exact integer version of discriminant >= 0 for grid triples (arrays)."""
    return (minus - 100 - plus) ** 2 - 400 * plus >= 0


def screen_improper_set(found: ImproperSet) -> ScreenResult:
    """Keep the findings whose triples are both realizable.

    The screen is exact in integers on the hundredths columns of found.
    """
    keep = (_realizable_hundredths(found.p_minus, found.p_plus)
            & _realizable_hundredths(found.q_minus, found.q_plus))
    kept = found.take(np.flatnonzero(keep))

    solutions = {}
    for minus, plus in (set(zip(kept.p_minus.tolist(), kept.p_plus.tolist()))
                        | set(zip(kept.q_minus.tolist(), kept.q_plus.tolist()))):
        m, p = minus * 0.01, plus * 0.01
        triple = ProbTriple(m, (1.0 - m) - p, p)
        solutions[minus, plus] = (solve_outcome_probs(triple), discriminant(triple))

    if len(kept):
        cfb = kept.cfb_star
        summary = ScreenSummary(
            count=len(cfb),
            cfb_min=float(cfb.min()),
            cfb_max=float(cfb.max()),
            cfb_mean=math.fsum(cfb.tolist()) / len(cfb),
            cfb_median=float(np.median(cfb)),
        )
    else:
        nan = float("nan")
        summary = ScreenSummary(0, nan, nan, nan, nan)
    return ScreenResult(kept, solutions, summary)
