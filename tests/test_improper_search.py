"""The hundredths-grid census and its below-chance selection rules.

The frozen census numbers (survivor count, extremes, decomposition into
strict and boundary cells) come from tools/oracles/oracle_grid.py, a
flat reimplementation of the scan with no library imports.  The
selection arithmetic is a fixed floating-point convention: the module
docstring of cfb.improper_search explains why the tests pin bitwise
values rather than tolerances for it.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from cfb import improper_search
from cfb import (
    BetaXPopulation,
    GridTriple,
    ImproperRecord,
    ProbTriple,
    cfb_monte_carlo,
    cfb_two_group,
    continuous_improper_eval,
    cross_pair_reversal,
    grid_search,
    mean_benefit_increasing,
)

HEADLINE_P = ProbTriple(0.25, 0.01, 0.74)
HEADLINE_Q = ProbTriple(0.14, 0.18, 0.68)


def exact_d2(rec):
    """Mean-benefit gap in integer hundredths, exact."""
    p, q = rec.triple_p, rec.triple_q
    return (q.plus - q.minus) - (p.plus - p.minus)


def exact_chain(rec):
    """The second selection expression scaled by 10^4, exact integer."""
    p, q = rec.triple_p, rec.triple_q
    return 100 * (q.plus - q.minus + p.minus - p.plus) + (
        q.minus * p.plus - q.plus * p.minus
    )


# ---------------------------------------------------------------------------
# grid triples
# ---------------------------------------------------------------------------


def test_grid_triple_validation():
    t = GridTriple(3, 0, 97)
    assert t.values()[0] == pytest.approx(0.03, abs=1e-15)
    assert t.decimals() == (0.03, 0.0, 0.97)
    with pytest.raises(ValueError, match="sum"):
        GridTriple(50, 50, 50)
    with pytest.raises(ValueError):
        GridTriple(-1, 51, 50)
    with pytest.raises(TypeError):
        GridTriple(0.5, 0.5, 99)
    with pytest.raises(TypeError):
        # bools are ints in Python; reject them anyway
        GridTriple(True, 0, 99)


def test_grid_triple_accepts_numpy_integers():
    t = GridTriple(np.int64(25), np.int64(50), np.int64(25))
    assert t.minus == 25 and isinstance(t.minus, int)


def test_grid_triple_components_sum_to_one():
    for m, z, p in ((0, 0, 100), (33, 34, 33), (97, 3, 0)):
        vals = GridTriple(m, z, p).values()
        assert sum(vals) == pytest.approx(1.0, abs=1e-15)
        assert GridTriple(m, z, p).as_prob_triple().as_tuple() == vals


# ---------------------------------------------------------------------------
# selection predicates
# ---------------------------------------------------------------------------


def test_predicates_on_headline_pair():
    assert mean_benefit_increasing(HEADLINE_P, HEADLINE_Q)
    assert cross_pair_reversal(HEADLINE_P, HEADLINE_Q)


def test_predicates_fail_under_swap():
    # the selection is a strict ordering, so the swapped pair cannot pass
    assert not mean_benefit_increasing(HEADLINE_Q, HEADLINE_P)
    assert not cross_pair_reversal(HEADLINE_Q, HEADLINE_P)


def test_predicates_are_strict_at_equality():
    t = ProbTriple(0.2, 0.6, 0.2)
    assert not mean_benefit_increasing(t, t)
    assert not cross_pair_reversal(t, t)


def test_cross_pair_reversal_matches_benefit_comparison():
    """The rational inequality is Pr(B_high > B_low) < Pr(B_high < B_low)
    for independent draws; check against that form directly."""
    cases = [
        (HEADLINE_P, HEADLINE_Q),
        (ProbTriple(0.03, 0.0, 0.97), ProbTriple(0.0, 0.06, 0.94)),
        (ProbTriple(0.1, 0.8, 0.1), ProbTriple(0.0, 0.9, 0.1)),
        (ProbTriple(0.5, 0.0, 0.5), ProbTriple(0.4, 0.2, 0.4)),
    ]
    for low, high in cases:
        pm, pz, pp = (Fraction(v) for v in low.as_tuple())
        qm, qz, qp = (Fraction(v) for v in high.as_tuple())
        gt = qp * (pz + pm) + qz * pm
        lt = pp * (qz + qm) + pz * qm
        assert cross_pair_reversal(low, high) == (gt < lt)


# ---------------------------------------------------------------------------
# search mechanics
# ---------------------------------------------------------------------------


def test_grid_search_step_validation():
    with pytest.raises(ValueError):
        grid_search(step=0.03)
    with pytest.raises(ValueError):
        grid_search(step=0.007)
    with pytest.raises(ValueError):
        grid_search(step=0.0)
    with pytest.raises(ValueError):
        grid_search(step=0.5, c=1.0)


def test_grid_search_unit_step_has_no_survivors():
    res = grid_search(step=1.0)
    assert res.summary.count == 0
    assert res.records == ()
    assert res.summary.argmin is None
    assert np.isnan(res.summary.cfb_min)
    assert sum(res.summary.hist_counts) == 0


SURVIVOR_COLUMNS = ("p_minus", "p_plus", "q_minus", "q_plus", "cfb_star", "deviation")


@pytest.mark.parametrize("c", [0.5, 0.3])
def test_grid_search_is_the_same_on_one_and_two_threads(monkeypatch, c):
    monkeypatch.setenv("CFB_THREADS", "1")
    one = grid_search(0.01, c)
    monkeypatch.setenv("CFB_THREADS", "2")
    two = grid_search(0.01, c)
    assert len(one.survivors) > 0
    for name in SURVIVOR_COLUMNS:
        a, b = getattr(one.survivors, name), getattr(two.survivors, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert one.summary == two.summary


@pytest.mark.parametrize("threads", ["1", "2"])
def test_rebound_scan_block_sees_every_block(monkeypatch, threads):
    """grid_search calls _scan_block through the module global, once per block, so a
    wrapper bound there (the traced benchmark counts scanned pairs so) sees all of them."""
    monkeypatch.setenv("CFB_THREADS", threads)
    want = grid_search(0.05)
    seen = []
    original = improper_search._scan_block

    def recording(i0, i1, vm, v0, vp, c):
        seen.append((i0, i1, len(vm)))
        return original(i0, i1, vm, v0, vp, c)

    monkeypatch.setattr(improper_search, "_scan_block", recording)
    got = grid_search(0.05)
    n = seen[0][2]
    spans = sorted((i0, i1) for i0, i1, _ in seen)
    assert len(spans) > 2
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert sum((i1 - i0) * size for i0, i1, size in seen) == n * n
    for name in SURVIVOR_COLUMNS:
        assert getattr(got.survivors, name).tobytes() == getattr(want.survivors, name).tobytes()


def test_quarter_step_matches_rational_enumeration():
    """Full dual route at step 0.25.

    Every grid value is exactly representable there, so the library's
    floating-point filter and an all-Fraction reimplementation must
    select the same pairs and agree on the statistic to rounding.
    """
    res = grid_search(step=0.25, c=0.5)

    expected = {}
    ints = [(m, 100 - m - p, p) for m in range(0, 101, 25) for p in range(0, 101 - m, 25)]
    half = Fraction(1, 2)
    for pm_i, pz_i, pp_i in ints:
        for qm_i, qz_i, qp_i in ints:
            pm, pz, pp = Fraction(pm_i, 100), Fraction(pz_i, 100), Fraction(pp_i, 100)
            qm, qz, qp = Fraction(qm_i, 100), Fraction(qz_i, 100), Fraction(qp_i, 100)
            if not (qp - qm) > (pp - pm):
                continue
            chain = qp - qm + pm - pp + qm * pp - qp * pm
            if not chain < 0:
                continue
            # ordered-pair enumeration of the statistic
            atoms = [(b, 0, half * w) for b, w in zip((-1, 0, 1), (pm, pz, pp))]
            atoms += [(b, 1, half * w) for b, w in zip((-1, 0, 1), (qm, qz, qp))]
            num = Fraction(0)
            den = Fraction(0)
            for b1, h1, w1 in atoms:
                for b2, h2, w2 in atoms:
                    if b1 == b2:
                        continue
                    den += w1 * w2
                    if h1 == h2:
                        num += half * w1 * w2
                    elif (b1 > b2) == (h1 > h2):
                        num += w1 * w2
            expected[(pm_i, pp_i), (qm_i, qp_i)] = num / den

    got = {
        ((r.triple_p.minus, r.triple_p.plus), (r.triple_q.minus, r.triple_q.plus)): r.cfb_star
        for r in res.records
    }
    assert set(got) == set(expected)
    for key, want in expected.items():
        assert got[key] == pytest.approx(float(want), abs=1e-14)
        assert want < half


def test_records_are_in_canonical_order(grid_result):
    keys = [
        ((r.triple_p.minus, r.triple_p.plus), (r.triple_q.minus, r.triple_q.plus))
        for r in grid_result.records
    ]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# the default census
# ---------------------------------------------------------------------------


def test_census_count(grid_result):
    assert grid_result.summary.count == 283523
    assert len(grid_result.records) == 283523


def test_census_columns_match_records(grid_result):
    found = grid_result.survivors
    assert len(found) == len(grid_result.records)
    for k in (0, 1, 4567, len(found) - 1):
        r = grid_result.records[k]
        assert found.record(k) == r
        assert (found.p_minus[k], found.p_plus[k], found.q_minus[k], found.q_plus[k]) == (
            r.triple_p.minus, r.triple_p.plus, r.triple_q.minus, r.triple_q.plus)
        assert (found.cfb_star[k], found.deviation[k]) == (r.cfb_star, r.deviation)
    part = found.take([5, 2])
    assert part.records == (grid_result.records[5], grid_result.records[2])
    assert part.records[0] is grid_result.records[5]


def test_census_extremes(grid_result):
    s = grid_result.summary
    assert s.cfb_min == 0.41882556131260823
    assert s.cfb_max == 0.5
    assert s.cfb_median == 0.4917720995617299


def test_census_argmin(grid_result):
    am = grid_result.summary.argmin
    assert (am.triple_p.minus, am.triple_p.zero, am.triple_p.plus) == (3, 0, 97)
    assert (am.triple_q.minus, am.triple_q.zero, am.triple_q.plus) == (0, 6, 94)
    assert am.cfb_star == grid_result.summary.cfb_min
    # the same configuration evaluated in exact arithmetic is 485/1158;
    # the convention value may differ from it only by accumulated rounding
    assert abs(am.cfb_star - 485.0 / 1158.0) < 5e-16


def test_census_histogram(grid_result):
    s = grid_result.summary
    assert len(s.hist_edges) == 51
    assert s.hist_edges[0] == 0.41 and s.hist_edges[-1] == 0.50
    assert sum(s.hist_counts) == 283523
    assert s.hist_counts[0] == 0
    assert s.hist_counts[-1] == 39161


def test_every_record_sits_below_chance_in_convention_arithmetic(grid_result):
    recs = grid_result.records
    assert all(r.deviation < 0.0 for r in recs)
    assert all(r.cfb_star == 0.5 + r.deviation for r in recs)
    # deviations at the resolution limit round back onto 0.5 exactly
    assert sum(1 for r in recs if r.cfb_star == 0.5) == 569
    assert all(r.cfb_star <= 0.5 for r in recs)


def test_census_values_agree_with_the_public_closed_form(grid_result):
    """The scan's deviation keeps its frozen chain expression, so it may
    differ from cfb_two_group in the last bits, but no further."""
    prob = {}

    def closed(t):
        if t not in prob:
            prob[t] = t.as_prob_triple()
        return prob[t]

    recs = grid_result.records
    assert len(recs) == 283523
    gap = max(abs(r.cfb_star - cfb_two_group(0.5, closed(r.triple_p), closed(r.triple_q)).value)
              for r in recs)
    assert gap <= 1e-15


def test_census_decomposition_in_exact_arithmetic(grid_result):
    """Classify every survivor by the exact integer versions of the two
    selection expressions.  The filter runs in doubles, so cells where
    an exact expression sits exactly on its boundary can be admitted;
    what must never happen is admitting a cell that strictly violates
    either condition."""
    core = d2_boundary = chain_boundary = violations = 0
    for r in grid_result.records:
        d2 = exact_d2(r)
        ch = exact_chain(r)
        if d2 > 0 and ch < 0:
            core += 1
        elif d2 == 0 and ch < 0:
            d2_boundary += 1
        elif d2 > 0 and ch == 0:
            chain_boundary += 1
        else:
            violations += 1
    assert core == 262492
    assert d2_boundary == 20360
    assert chain_boundary == 671
    assert violations == 0


def test_exact_predicates_hold_on_strict_cells(grid_result):
    """On cells that are strict in exact arithmetic the public predicate
    pair must agree with the filter; sampled, the Fraction path is slow."""
    sampled = 0
    for r in itertools.islice(grid_result.records, 0, None, 979):
        if exact_d2(r) > 0 and exact_chain(r) < 0:
            p = r.triple_p.as_prob_triple()
            q = r.triple_q.as_prob_triple()
            assert mean_benefit_increasing(p, q)
            assert cross_pair_reversal(p, q)
            sampled += 1
    assert sampled > 200


def test_first_condition_holds_on_every_record(grid_result):
    # it is the identical double comparison the filter made
    for r in itertools.islice(grid_result.records, 0, None, 17):
        assert mean_benefit_increasing(r.triple_p.as_prob_triple(),
                                       r.triple_q.as_prob_triple())


# ---------------------------------------------------------------------------
# binary benefit has no survivors
# ---------------------------------------------------------------------------


def test_no_survivor_has_binary_benefit_support(grid_result):
    for r in grid_result.records:
        p, q = r.triple_p, r.triple_q
        assert not (p.plus == 0 and q.plus == 0)      # both on {-1, 0}
        assert not (p.zero == 0 and q.zero == 0)      # both on {-1, +1}
        assert not (p.minus == 0 and q.minus == 0)    # both on {0, +1}


def test_binary_pairs_fail_in_exact_arithmetic():
    """Independent scan: enumerate all hundredths pairs sharing a
    two-point benefit support and check, in integers, that the two
    selection conditions are never simultaneously strict."""

    def survives(pm, pp, qm, qp):
        d2 = (qp - qm) - (pp - pm)
        ch = 100 * (qp - qm + pm - pp) + (qm * pp - qp * pm)
        return d2 > 0 and ch < 0

    for support in ("no_plus", "no_zero", "no_minus"):
        for i in range(101):
            for j in range(101):
                if support == "no_plus":
                    args = (i, 0, j, 0)
                elif support == "no_zero":
                    args = (i, 100 - i, j, 100 - j)
                else:
                    args = (0, i, 0, j)
                assert not survives(*args), (support, i, j)


# ---------------------------------------------------------------------------
# continuous relaxation
# ---------------------------------------------------------------------------


def test_continuous_improper_eval_delegates_to_sampler():
    p = ProbTriple(0.08, 0.0, 0.92)
    q = ProbTriple(0.0, 0.15, 0.85)
    got = continuous_improper_eval(0.5, 0.5, p, q, 50_000, 31)
    want = cfb_monte_carlo(BetaXPopulation(0.5, 0.5, p, q), 50_000, 31)
    assert got == want


def test_continuous_improper_eval_rejects_non_qualifying_endpoints():
    t = ProbTriple(0.2, 0.6, 0.2)
    with pytest.raises(ValueError, match="below-chance"):
        continuous_improper_eval(0.5, 0.5, t, t, 1_000, 1)
