"""Realizability screening: which benefit triples admit independent
potential responses, and what survives of the grid census."""

import math

import numpy as np
import pytest

from cfb import (
    ImproperSet,
    ProbTriple,
    discriminant,
    screen_improper_set,
    solve_outcome_probs,
)
from oracles import benefit_triple_from_outcome_probs


def grid_triple(minus, plus):
    """The ProbTriple of integer hundredths as the screen solves it."""
    m, p = minus * 0.01, plus * 0.01
    return ProbTriple(m, (1.0 - m) - p, p)


def hundredths(found):
    """(p_minus, p_plus, q_minus, q_plus) of each finding; unique within the census."""
    return list(zip(found.p_minus.tolist(), found.p_plus.tolist(),
                    found.q_minus.tolist(), found.q_plus.tolist()))


# ---------------------------------------------------------------------------
# discriminant and root recovery
# ---------------------------------------------------------------------------


def test_discriminant_known_values():
    # (0.81, 0.18, 0.01) comes from (y0, y1) = (0.9, 0.1); exactly on the
    # boundary in decimal, a hair below it in doubles
    assert discriminant(ProbTriple(0.81, 0.18, 0.01)) == -2.0816681711721685e-17
    assert discriminant(ProbTriple(0.25, 0.5, 0.25)) == 0.0
    assert discriminant(ProbTriple(0.03, 0.0, 0.97)) == pytest.approx(
        -0.1164, abs=1e-15
    )


def test_discriminant_sign_matches_exact_decimal_rule():
    # hundredths triples, exact rule: (m - 100 - p)^2 - 400 p >= 0
    for m, p in ((81, 1), (25, 25), (3, 97), (0, 0), (100, 0), (0, 100), (40, 10)):
        exact = (m - 100 - p) ** 2 - 400 * p
        fp = discriminant(grid_triple(m, p))
        if exact > 0:
            assert fp > 0.0
        elif exact < 0:
            assert fp < 0.0
        # exact == 0 may land on either side in doubles; solve_outcome_probs
        # absorbs that with its boundary tolerance


def test_solve_boundary_triple_recovers_double_root():
    roots = solve_outcome_probs(ProbTriple(0.81, 0.18, 0.01))
    assert len(roots) == 1
    y0, y1 = roots[0]
    assert y0 == pytest.approx(0.9, abs=1e-12)
    assert y1 == pytest.approx(0.1, abs=1e-12)


def test_solve_symmetric_triple():
    assert solve_outcome_probs(ProbTriple(0.25, 0.5, 0.25)) == ((0.5, 0.5),)


def test_solve_degenerate_triple_has_two_roots():
    roots = solve_outcome_probs(ProbTriple(0.0, 1.0, 0.0))
    assert roots == ((0.0, 0.0), (1.0, 1.0))


def test_solve_certain_benefit():
    # B = +1 surely forces y0 = 0 and y1 = 1
    assert solve_outcome_probs(ProbTriple(0.0, 0.0, 1.0)) == ((0.0, 1.0),)


def test_solve_unrealizable_triple_is_empty():
    assert solve_outcome_probs(ProbTriple(0.03, 0.0, 0.97)) == ()
    # (0.1 - 1 - 0.9)^2 = 3.24 < 3.6 = 4 * 0.9
    assert solve_outcome_probs(ProbTriple(0.1, 0.0, 0.9)) == ()


def test_solve_round_trip_off_grid():
    for y0 in (0.0, 0.05, 0.3, 0.62, 0.97, 1.0):
        for y1 in (0.0, 0.11, 0.5, 0.88, 1.0):
            triple = benefit_triple_from_outcome_probs(y0, y1)
            roots = solve_outcome_probs(triple)
            assert roots, (y0, y1)
            best = min(abs(r0 - y0) + abs(r1 - y1) for r0, r1 in roots)
            assert best < 1e-9, (y0, y1, roots)


def test_solve_roots_are_ordered_by_y1():
    roots = solve_outcome_probs(benefit_triple_from_outcome_probs(0.2, 0.9))
    assert [r[1] for r in roots] == sorted(r[1] for r in roots)


# ---------------------------------------------------------------------------
# screening the census
# ---------------------------------------------------------------------------


def test_screen_summary_frozen_values(screen_result):
    s = screen_result.summary
    assert s.count == 9563
    assert s.cfb_min == 0.48364485981308414
    assert s.cfb_mean == pytest.approx(0.4964487589786999, abs=1e-15)
    assert s.cfb_median == 0.4972058676778765
    assert s.cfb_max == 0.5


def test_screen_drops_the_census_argmin(grid_result, screen_result):
    k = grid_result.summary.argmin
    found = grid_result.survivors
    assert hundredths(found.take([k]))[0] not in set(hundredths(screen_result.kept))
    d = discriminant(grid_triple(int(found.p_minus[k]), int(found.p_plus[k])))
    assert d == pytest.approx(-0.1164, abs=1e-6)


def test_screen_keeps_only_realizable_pairs(screen_result):
    kept, sol = screen_result.kept, screen_result.solutions
    assert len(kept) > 0
    for pm, pp, qm, qp in hundredths(kept):
        (roots_low, disc_low), (roots_high, disc_high) = sol[pm, pp], sol[qm, qp]
        assert roots_low and roots_high
        assert disc_low >= -1e-12 and disc_high >= -1e-12


def test_screen_evidence_round_trips(screen_result):
    """Recovered response probabilities must regenerate both triples."""
    kept, sol = screen_result.kept, screen_result.solutions
    step = max(1, len(kept) // 200)
    for pm, pp, qm, qp in hundredths(kept)[::step]:
        for minus, plus in ((pm, pp), (qm, qp)):
            y0, y1 = sol[minus, plus][0][0]
            back = benefit_triple_from_outcome_probs(y0, y1)
            want = grid_triple(minus, plus)
            for got_c, want_c in zip(back.as_tuple(), want.as_tuple()):
                assert got_c == pytest.approx(want_c, abs=1e-9)


def test_screen_agrees_with_exact_integer_rule(grid_result, screen_result):
    kept = set(hundredths(screen_result.kept))
    for pm, pp, qm, qp in hundredths(grid_result.survivors.take(np.arange(5000))):
        exact = ((pm - 100 - pp) ** 2 - 400 * pp >= 0
                 and (qm - 100 - qp) ** 2 - 400 * qp >= 0)
        assert ((pm, pp, qm, qp) in kept) == exact


def test_screen_of_nothing_is_empty():
    res = screen_improper_set(ImproperSet([], [], [], [], [], []))
    assert len(res.kept) == 0 and res.solutions == {}
    assert res.summary.count == 0
    assert math.isnan(res.summary.cfb_min)
