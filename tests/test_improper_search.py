"""The hundredths-grid census and its below-chance selection rules.

The frozen census numbers (survivor count, extremes, decomposition into
strict and boundary cells) come from tools/oracles/oracle_grid.py, a
flat reimplementation of the scan with no library imports.  The
selection arithmetic is a fixed floating-point convention: the module
docstring of cfb.improper_search explains why the tests pin bitwise
values rather than tolerances for it.
"""

from fractions import Fraction

import numpy as np
import pytest

from oracles import full_grid_survivors

from cfb import (
    ProbTriple,
    cfb_two_group,
    cross_pair_reversal,
    grid_search,
    mean_benefit_increasing,
    run,
)

HEADLINE_P = ProbTriple(0.25, 0.01, 0.74)
HEADLINE_Q = ProbTriple(0.14, 0.18, 0.68)


def exact_d2(found):
    """Mean-benefit gap in integer hundredths, exact, per finding."""
    return (found.q_plus - found.q_minus) - (found.p_plus - found.p_minus)


def exact_chain(found):
    """The second selection expression scaled by 10^4, exact integer, per finding."""
    return 100 * (found.q_plus - found.q_minus + found.p_minus - found.p_plus) + (
        found.q_minus * found.p_plus - found.q_plus * found.p_minus
    )


def grid_triple(minus, plus):
    """The ProbTriple of integer hundredths as the search evaluates it."""
    m, p = minus * 0.01, plus * 0.01
    return ProbTriple(m, (1.0 - m) - p, p)


def hundredths(found):
    """(p_minus, p_plus, q_minus, q_plus) of each finding, as Python ints."""
    return list(zip(found.p_minus.tolist(), found.p_plus.tolist(),
                    found.q_minus.tolist(), found.q_plus.tolist()))


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
    assert len(res.survivors) == 0
    assert res.summary.argmin is None
    assert np.isnan(res.summary.cfb_min)
    assert sum(res.summary.hist_counts) == 0


SURVIVOR_COLUMNS = ("p_minus", "p_plus", "q_minus", "q_plus", "cfb_star", "deviation")


@pytest.mark.parametrize("c", [0.5, 0.3])
def test_grid_search_ignores_an_invalid_thread_count(monkeypatch, capsys, c):
    """CFB_THREADS sets the Monte Carlo route's threads only: a value that makes
    beta-mc exit 2 leaves the census running, with the full scan's columns."""
    monkeypatch.setenv("CFB_THREADS", "not-a-number")
    assert run(["beta-mc", "--alpha", "0.5", "--beta", "0.5",
                "--p", "0.08,0,0.92", "--q", "0,0.15,0.85", "--n", "1000"]) == 2
    assert "CFB_THREADS" in capsys.readouterr().err
    got = grid_search(0.01, c).survivors
    assert len(got) > 0
    for name, ref in zip(SURVIVOR_COLUMNS, full_grid_survivors(1, c)):
        col = getattr(got, name)
        assert col.dtype == ref.dtype and col.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("c", [0.5, 0.3])
@pytest.mark.parametrize("step", [0.01, 0.02, 0.04, 0.05, 0.1, 0.2, 0.25, 0.5, 1.0])
def test_candidate_scan_is_the_full_scan(step, c):
    """grid_search runs the frozen filter on candidate intervals only; its survivors
    are those of the filter on every ordered pair, byte for byte and in order."""
    want = full_grid_survivors(round(step * 100), c)
    got = grid_search(step, c).survivors
    for name, ref in zip(SURVIVOR_COLUMNS, want):
        col = getattr(got, name)
        assert col.dtype == ref.dtype and col.tobytes() == ref.tobytes(), name


def test_exact_census_is_the_open_intervals(grid_result):
    """In integers, the survivors of a low triple (pm, pp) and high minus level qm
    are the qp with qp > qm + pp - pm and qp (100 - pm) < 100 (qm + pp - pm) - qm pp.
    Those open intervals hold 262,492 cells, all float survivors; the other 21,031
    float survivors sit on an exact zero: 20,360 of equal mean benefit, 671 of
    zero chain."""
    pm, pp = (np.array(v)[:, None] for v in zip(*((m, p) for m in range(101)
                                                 for p in range(101 - m))))
    qm = np.arange(101)
    d = qm + pp - pm
    lo = np.maximum(d + 1, 0)
    top = np.where(pm < 100, (100 * d - qm * pp - 1) // np.maximum(100 - pm, 1), -1)
    hi = np.minimum(100 - qm, top)
    count = np.maximum(hi - lo + 1, 0)
    assert count.sum() == 262492

    def key(pm, pp, qm, qp):
        return ((pm * 101 + pp) * 101 + qm) * 101 + qp

    cells = [key(a, b, q, np.arange(l, h + 1))
             for a, b, row_lo, row_hi in zip(pm[:, 0], pp[:, 0], lo, hi)
             for q, l, h in zip(qm, row_lo, row_hi) if l <= h]
    exact = np.concatenate(cells)
    found = grid_result.survivors
    survivors = key(found.p_minus, found.p_plus, found.q_minus, found.q_plus)
    assert np.isin(exact, survivors).all()

    only = ~np.isin(survivors, exact)
    assert only.sum() == 21031
    f_pm, f_pp, f_qm, f_qp = (col[only] for col in
                              (found.p_minus, found.p_plus, found.q_minus, found.q_plus))
    equal_mean = (f_qp - f_qm) == (f_pp - f_pm)
    zero_chain = 100 * (f_qp - f_qm + f_pm - f_pp) + f_qm * f_pp - f_qp * f_pm == 0
    assert equal_mean.sum() == 20360 and zero_chain.sum() == 671
    assert (equal_mean != zero_chain).all()


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
        ((pm, pp), (qm, qp)): v
        for (pm, pp, qm, qp), v in zip(hundredths(res.survivors), res.survivors.cfb_star.tolist())
    }
    assert set(got) == set(expected)
    for key, want in expected.items():
        assert got[key] == pytest.approx(float(want), abs=1e-14)
        assert want < half


def test_records_are_in_canonical_order(grid_result):
    keys = [((pm, pp), (qm, qp)) for pm, pp, qm, qp in hundredths(grid_result.survivors)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# the default census
# ---------------------------------------------------------------------------


def test_census_count(grid_result):
    assert grid_result.summary.count == 283523
    assert len(grid_result.survivors) == 283523


def test_census_columns_match_records(grid_result):
    """Every column holds one entry per finding, and take picks whole findings
    (one entry of each column) in the order asked."""
    found = grid_result.survivors
    columns = (found.p_minus, found.p_plus, found.q_minus, found.q_plus,
               found.cfb_star, found.deviation)
    assert all(len(col) == len(found) == grid_result.summary.count for col in columns)
    assert all(col.dtype == np.int64 for col in columns[:4])
    assert all(col.dtype == np.float64 for col in columns[4:])
    part = found.take([5, 2])
    assert len(part) == 2
    for got, col in zip((part.p_minus, part.p_plus, part.q_minus, part.q_plus,
                         part.cfb_star, part.deviation), columns):
        assert got.tolist() == [col[5], col[2]]


def test_census_extremes(grid_result):
    s = grid_result.summary
    assert s.cfb_min == 0.41882556131260823
    assert s.cfb_max == 0.5
    assert s.cfb_median == 0.4917720995617299


def test_census_argmin(grid_result):
    k = grid_result.summary.argmin
    found = grid_result.survivors
    [(pm, pp, qm, qp)] = hundredths(found.take([k]))
    assert (pm, 100 - pm - pp, pp) == (3, 0, 97)
    assert (qm, 100 - qm - qp, qp) == (0, 6, 94)
    assert found.cfb_star[k] == grid_result.summary.cfb_min
    # the same configuration evaluated in exact arithmetic is 485/1158;
    # the convention value may differ from it only by accumulated rounding
    assert abs(found.cfb_star[k] - 485.0 / 1158.0) < 5e-16


def test_census_histogram(grid_result):
    s = grid_result.summary
    assert len(s.hist_edges) == 51
    assert s.hist_edges[0] == 0.41 and s.hist_edges[-1] == 0.50
    assert sum(s.hist_counts) == 283523
    assert s.hist_counts[0] == 0
    assert s.hist_counts[-1] == 39161


def test_every_record_sits_below_chance_in_convention_arithmetic(grid_result):
    found = grid_result.survivors
    assert (found.deviation < 0.0).all()
    assert (found.cfb_star == 0.5 + found.deviation).all()
    # deviations at the resolution limit round back onto 0.5 exactly
    assert (found.cfb_star == 0.5).sum() == 569
    assert (found.cfb_star <= 0.5).all()


def test_census_values_agree_with_the_public_closed_form(grid_result):
    """The scan's deviation keeps its frozen chain expression, so it may
    differ from cfb_two_group in the last bits, but no further."""
    prob = {}

    def closed(minus, plus):
        if (minus, plus) not in prob:
            prob[minus, plus] = grid_triple(minus, plus)
        return prob[minus, plus]

    found = grid_result.survivors
    assert len(found) == 283523
    gap = max(abs(v - cfb_two_group(0.5, closed(pm, pp), closed(qm, qp)).value)
              for (pm, pp, qm, qp), v in zip(hundredths(found), found.cfb_star.tolist()))
    assert gap <= 1e-15


def test_census_decomposition_in_exact_arithmetic(grid_result):
    """Classify every survivor by the exact integer versions of the two
    selection expressions.  The filter runs in doubles, so cells where
    an exact expression sits exactly on its boundary can be admitted;
    what must never happen is admitting a cell that strictly violates
    either condition."""
    d2 = exact_d2(grid_result.survivors)
    ch = exact_chain(grid_result.survivors)
    core = ((d2 > 0) & (ch < 0)).sum()
    d2_boundary = ((d2 == 0) & (ch < 0)).sum()
    chain_boundary = ((d2 > 0) & (ch == 0)).sum()
    violations = len(d2) - core - d2_boundary - chain_boundary
    assert core == 262492
    assert d2_boundary == 20360
    assert chain_boundary == 671
    assert violations == 0


def test_exact_predicates_hold_on_strict_cells(grid_result):
    """On cells that are strict in exact arithmetic the public predicate
    pair must agree with the filter; sampled, the Fraction path is slow."""
    found = grid_result.survivors.take(np.arange(0, len(grid_result.survivors), 979))
    strict = (exact_d2(found) > 0) & (exact_chain(found) < 0)
    sampled = 0
    for pm, pp, qm, qp in hundredths(found.take(np.flatnonzero(strict))):
        p = grid_triple(pm, pp)
        q = grid_triple(qm, qp)
        assert mean_benefit_increasing(p, q)
        assert cross_pair_reversal(p, q)
        sampled += 1
    assert sampled > 200


def test_first_condition_holds_on_every_record(grid_result):
    # it is the identical double comparison the filter made
    found = grid_result.survivors.take(np.arange(0, len(grid_result.survivors), 17))
    for pm, pp, qm, qp in hundredths(found):
        assert mean_benefit_increasing(grid_triple(pm, pp), grid_triple(qm, qp))


# ---------------------------------------------------------------------------
# binary benefit has no survivors
# ---------------------------------------------------------------------------


def test_no_survivor_has_binary_benefit_support(grid_result):
    found = grid_result.survivors
    p_zero = 100 - found.p_minus - found.p_plus
    q_zero = 100 - found.q_minus - found.q_plus
    assert not ((found.p_plus == 0) & (found.q_plus == 0)).any()    # both on {-1, 0}
    assert not ((p_zero == 0) & (q_zero == 0)).any()                # both on {-1, +1}
    assert not ((found.p_minus == 0) & (found.q_minus == 0)).any()  # both on {0, +1}


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
