"""Exact concordance routes, the quadrature cdf of oracles.py, and the sampler.

The load-bearing numbers here were frozen from tools/oracles, which
recompute them by plain enumeration with Fraction arithmetic and share
no code with the library.
"""

import ast
import itertools
import math
import os
import random
import signal
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfb import (
    BetaXPopulation,
    CfbError,
    CfbResult,
    DegenerateCfb,
    LinearGaussianPopulation,
    MatchedBenefitDistribution,
    PairTable,
    ProbTriple,
    UndefinedCfb,
    cfb_from_pair_table,
    cfb_linear_gaussian,
    cfb_monte_carlo,
    cfb_two_group,
    gini_mean_difference,
    pair_table,
)
from cfb import _fork, cfb_engine
from cfb.cfb_engine import (
    _BLOCK,
    _beta_draws,
    _Scratch,
    _pair_counts,
    _sample_b_from_triples,
    _score_chunk,
    _score_shares,
    _units,
)
from cfb._fork import worker_count
from cfb.matched_pairs import _two_group_cfb_arrays
from oracles import (
    beta_mixture_cfb,
    bivariate_normal_cdf,
    empirical_cfb_oracle,
    sampled_linear_gaussian_cfb,
    whole_column_score_chunk,
    whole_columns,
)

# the two-level configuration behind most frozen numbers below
HEADLINE_P = ProbTriple(0.25, 0.01, 0.74)
HEADLINE_Q = ProbTriple(0.14, 0.18, 0.68)

# exact value of the headline statistic as a reduced fraction, from the
# Fraction enumeration oracle: 8813/17954
HEADLINE_CFB = 0.49086554528238835

# joint (H-relation, B-relation) masses for the headline configuration
HEADLINE_CELLS = {
    (">", ">"): 0.05545,
    (">", "<"): 0.05955,
    (">", "="): 0.135,
    ("=", ">"): 0.109425,
    ("=", "<"): 0.109425,
    ("=", "="): 0.28115,
    ("<", ">"): 0.05955,
    ("<", "<"): 0.05545,
    ("<", "="): 0.135,
}


def two_group_dist(c, low, high):
    return MatchedBenefitDistribution(((0.0, 1.0 - c, low), (1.0, c, high)))


def two_group_atoms(c, low, high):
    """Atom list (b, h, w) for the ordered-pair oracle."""
    out = [(b, 0.0, (1.0 - c) * w) for b, w in zip((-1, 0, 1), low.as_tuple())]
    out += [(b, 1.0, c * w) for b, w in zip((-1, 0, 1), high.as_tuple())]
    return out


def rand_triple(rng):
    cuts = sorted((rng.random(), rng.random()))
    return ProbTriple(cuts[0], cuts[1] - cuts[0], 1.0 - cuts[1])


# ---------------------------------------------------------------------------
# result and table containers
# ---------------------------------------------------------------------------


def test_cfb_result_requires_positive_denominator():
    with pytest.raises(ValueError):
        CfbResult(0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        CfbResult(0.5, 0.1, -0.2)


def test_pair_table_validation():
    ok = pair_table(two_group_dist(0.5, HEADLINE_P, HEADLINE_Q))
    assert isinstance(ok, PairTable)
    with pytest.raises(ValueError, match="3x3"):
        PairTable(((1.0,),))
    bad_sum = (((0.2, 0.0, 0.0), (0.0, 0.2, 0.0), (0.0, 0.0, 0.2)))
    with pytest.raises(ValueError, match="sums to"):
        PairTable(bad_sum)
    asym = ((0.2, 0.1, 0.0), (0.1, 0.2, 0.1), (0.1, 0.1, 0.1))
    with pytest.raises(ValueError, match="mirror"):
        PairTable(asym)
    with pytest.raises(ValueError, match="nonnegative"):
        PairTable(((0.5, -0.1, 0.1), (0.2, 0.2, 0.2), (0.1, -0.1, 0.5)))


def test_pair_table_mirror_symmetry_is_bitwise():
    rng = random.Random(4)
    for _ in range(25):
        rows = []
        h = 0.0
        for k in range(3):
            h += rng.random() + 1e-3
            rows.append((h, 1.0 / 3.0, rand_triple(rng)))
        table = pair_table(MatchedBenefitDistribution(tuple(rows)))
        for a in "<=>":
            for b in "<=>":
                flip = {"<": ">", "=": "=", ">": "<"}
                assert table.entry(a, b) == table.entry(flip[a], flip[b])


def test_matched_benefit_distribution_validation():
    t = ProbTriple(0.2, 0.3, 0.5)
    with pytest.raises(ValueError, match="increasing"):
        MatchedBenefitDistribution(((1.0, 0.5, t), (1.0, 0.5, t)))
    with pytest.raises(ValueError, match="sum"):
        MatchedBenefitDistribution(((0.0, 0.5, t), (1.0, 0.6, t)))
    with pytest.raises(ValueError):
        MatchedBenefitDistribution(((0.0, -0.1, t), (1.0, 1.1, t)))
    with pytest.raises(TypeError):
        MatchedBenefitDistribution(((0.0, 0.5, (0.2, 0.3, 0.5)), (1.0, 0.5, t)))
    d = MatchedBenefitDistribution(((0.0, 0.25, t), (1.0, 0.75, t)))
    assert len(d) == 2
    assert d.h_values() == (0.0, 1.0)
    assert d.weights() == (0.25, 0.75)


# ---------------------------------------------------------------------------
# the headline configuration, three routes
# ---------------------------------------------------------------------------


def test_headline_pair_table_cells():
    table = pair_table(two_group_dist(0.5, HEADLINE_P, HEADLINE_Q))
    for (hr, br), want in HEADLINE_CELLS.items():
        assert table.entry(hr, br) == pytest.approx(want, abs=1e-15)


def test_headline_value_all_routes_agree():
    closed = cfb_two_group(0.5, HEADLINE_P, HEADLINE_Q)
    tabled = cfb_from_pair_table(pair_table(two_group_dist(0.5, HEADLINE_P, HEADLINE_Q)))
    oracle = empirical_cfb_oracle(two_group_atoms(0.5, HEADLINE_P, HEADLINE_Q))
    for res in (closed, tabled, oracle):
        assert res.value == pytest.approx(HEADLINE_CFB, abs=1e-15)
    # denominator is Pr(B1 != B2) over ordered pairs
    assert closed.denominator == pytest.approx(0.44885, abs=1e-15)
    assert closed.numerator / closed.denominator == pytest.approx(closed.value, abs=1e-15)


def test_headline_value_below_half():
    res = cfb_two_group(0.5, HEADLINE_P, HEADLINE_Q)
    assert res.value < 0.5


def test_second_worked_pair():
    # (0, 0.8, 0.2) against (0, 0.3, 0.7) at c = 0.5; exact value 149/198
    p = ProbTriple(0.0, 0.8, 0.2)
    q = ProbTriple(0.0, 0.3, 0.7)
    table = pair_table(two_group_dist(0.5, p, q))
    assert table.entry(">", ">") == pytest.approx(0.14, abs=1e-15)
    assert table.entry(">", "<") == pytest.approx(0.015, abs=1e-15)
    res = cfb_from_pair_table(table)
    assert res.value == pytest.approx(149.0 / 198.0, abs=1e-15)


def test_identical_triples_give_exactly_half():
    t = ProbTriple(0.2, 0.6, 0.2)
    assert cfb_two_group(0.5, t, t).value == 0.5
    assert cfb_two_group(0.123, t, t).value == 0.5
    assert cfb_from_pair_table(pair_table(two_group_dist(0.37, t, t))).value == 0.5


def test_independent_h_and_b_give_exactly_half():
    """Same benefit triple on every predictor level decouples H from B;
    the balanced summation in the table route must return 0.5 exactly,
    not merely to rounding."""
    t = ProbTriple(0.31, 0.22, 0.47)
    d = MatchedBenefitDistribution(((-1.0, 0.2, t), (0.5, 0.3, t), (2.0, 0.5, t)))
    assert cfb_from_pair_table(pair_table(d)).value == 0.5


def test_all_b_ties_raise_undefined():
    t = ProbTriple(0.0, 1.0, 0.0)
    with pytest.raises(UndefinedCfb):
        cfb_two_group(0.5, t, t)
    with pytest.raises(UndefinedCfb):
        empirical_cfb_oracle([(0, 0.0, 0.5), (0, 1.0, 0.5)])


_TRIPLES = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
        lambda uv: (min(uv), max(uv) - min(uv), 1.0 - max(uv))),
)


@settings(max_examples=300, deadline=None)
@given(c=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), low=_TRIPLES, high=_TRIPLES)
@example(c=0.5, low=(0.0, 1.0, 0.0), high=(0.0, 1.0, 0.0))
def test_two_group_closed_form_is_one_kernel_on_scalars_and_arrays(c, low, high):
    """cfb_two_group and the matching sweep's array route give the same bits."""
    value, undefined = _two_group_cfb_arrays(np.array([c]), *(np.array([v]) for v in low + high))
    try:
        closed = cfb_two_group(c, ProbTriple(*low), ProbTriple(*high))
    except UndefinedCfb:
        assert undefined[0] and math.isnan(value[0])
    else:
        assert not undefined[0] and value[0] == closed.value


def test_label_swap_mirrors_the_statistic():
    # relabeling the predictor levels in reverse order sends cfb to 1 - cfb
    c = 0.5
    straight = cfb_two_group(c, HEADLINE_P, HEADLINE_Q)
    swapped = cfb_two_group(1.0 - c, HEADLINE_Q, HEADLINE_P)
    assert straight.value + swapped.value == pytest.approx(1.0, abs=1e-12)
    assert straight.denominator == pytest.approx(swapped.denominator, abs=1e-15)


def test_random_populations_all_routes_agree():
    rng = random.Random(20230516)
    checked = 0
    for _ in range(300):
        c = 0.05 + 0.9 * rng.random()
        p = rand_triple(rng)
        q = rand_triple(rng)
        atoms = two_group_atoms(c, p, q)
        try:
            oracle = empirical_cfb_oracle(atoms)
        except UndefinedCfb:
            continue
        closed = cfb_two_group(c, p, q)
        tabled = cfb_from_pair_table(pair_table(two_group_dist(c, p, q)))
        assert closed.value == pytest.approx(oracle.value, abs=1e-12)
        assert tabled.value == pytest.approx(oracle.value, abs=1e-12)
        assert closed.denominator == pytest.approx(oracle.denominator, abs=1e-12)
        # mirrored relabeling
        swapped = cfb_two_group(1.0 - c, q, p)
        assert swapped.value == pytest.approx(1.0 - closed.value, abs=1e-12)
        checked += 1
    assert checked > 250


def test_pair_table_matches_fraction_enumeration():
    """Table cells against an exact rational enumeration over atoms."""
    rows = (
        (-1.0, 0.25, ProbTriple(0.1, 0.3, 0.6)),
        (0.5, 0.25, ProbTriple(0.4, 0.4, 0.2)),
        (3.0, 0.5, ProbTriple(0.25, 0.5, 0.25)),
    )
    table = pair_table(MatchedBenefitDistribution(rows))

    atoms = []
    for h, w, t in rows:
        for b, m in zip((-1, 0, 1), t.as_tuple()):
            atoms.append((b, h, Fraction(w) * Fraction(m)))
    cells = {}
    for b1, h1, w1 in atoms:
        for b2, h2, w2 in atoms:
            hr = "=" if h1 == h2 else (">" if h1 > h2 else "<")
            br = "=" if b1 == b2 else (">" if b1 > b2 else "<")
            cells[hr, br] = cells.get((hr, br), Fraction(0)) + w1 * w2
    for (hr, br), want in cells.items():
        assert table.entry(hr, br) == pytest.approx(float(want), abs=1e-15)


# ---------------------------------------------------------------------------
# dispersion of the predictor
# ---------------------------------------------------------------------------


def test_gini_mean_difference_hand_case():
    t = ProbTriple(0.2, 0.3, 0.5)
    d = MatchedBenefitDistribution(((-1.0, 0.25, t), (0.0, 0.5, t), (1.0, 0.25, t)))
    # 2 * (0.25*0.5*1 + 0.25*0.25*2 + 0.5*0.25*1) = 0.75
    assert gini_mean_difference(d) == pytest.approx(0.75, abs=1e-15)


def test_gini_mean_difference_constant_is_zero():
    d = MatchedBenefitDistribution(((2.0, 1.0, ProbTriple(0.2, 0.3, 0.5)),))
    assert gini_mean_difference(d) == 0.0


def test_gini_mean_difference_matches_double_loop():
    rng = random.Random(11)
    for _ in range(20):
        k = rng.randint(2, 6)
        raw = [rng.random() + 0.05 for _ in range(k)]
        tot = sum(raw)
        h = sorted(rng.uniform(-3, 3) for _ in range(k))
        for i in range(1, k):
            if h[i] <= h[i - 1]:
                h[i] = h[i - 1] + 0.01
        t = ProbTriple(0.2, 0.3, 0.5)
        d = MatchedBenefitDistribution(tuple((h[i], raw[i] / tot, t) for i in range(k)))
        direct = sum(
            (raw[i] / tot) * (raw[j] / tot) * abs(h[i] - h[j])
            for i in range(k) for j in range(k)
        )
        assert gini_mean_difference(d) == pytest.approx(direct, abs=1e-13)


# ---------------------------------------------------------------------------
# bivariate normal cdf
# ---------------------------------------------------------------------------

def _Phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def test_bvn_quadrant_values():
    # closed form for the origin: 1/4 + arcsin(r)/(2 pi)
    for r, want in (
        (-0.9, 0.07178314656435314),
        (-0.5, 0.16666666666666666),
        (0.5, 0.33333333333333337),
        (0.9, 0.42821685343564686),
    ):
        got = bivariate_normal_cdf(0.0, 0.0, r)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(0.25 + math.asin(r) / (2.0 * math.pi), abs=1e-9)


def test_bvn_off_origin_reference_values():
    # frozen from scipy.stats.multivariate_normal, which the library
    # deliberately does not import
    for h, k, r, want in (
        (0.5, -0.3, 0.4, 0.3171269282861651),
        (1.2, 0.7, -0.6, 0.6452358404500927),
        (-2.0, 1.5, 0.8, 0.022750131264672513),
    ):
        assert bivariate_normal_cdf(h, k, r) == pytest.approx(want, abs=1e-9)


def test_bvn_zero_correlation_is_exact_product():
    for h, k in ((0.3, -1.2), (0.0, 0.0), (2.0, 1.0)):
        assert bivariate_normal_cdf(h, k, 0.0) == _Phi(h) * _Phi(k)


def test_bvn_symmetry_in_arguments():
    for h, k, r in ((0.5, -0.3, 0.4), (1.2, 0.7, -0.6), (0.1, 0.2, 0.95)):
        assert bivariate_normal_cdf(h, k, r) == pytest.approx(
            bivariate_normal_cdf(k, h, r), abs=1e-12
        )


def test_bvn_degenerate_correlations():
    assert bivariate_normal_cdf(0.7, 1.5, 1.0) == _Phi(0.7)
    assert bivariate_normal_cdf(1.5, 0.7, 1.0) == _Phi(0.7)
    # r = -1: Z2 = -Z1, so the event is -k <= Z1 <= h
    assert bivariate_normal_cdf(1.0, 0.5, -1.0) == pytest.approx(
        _Phi(1.0) - _Phi(-0.5), abs=1e-15
    )
    assert bivariate_normal_cdf(-1.0, 0.5, -1.0) == 0.0


def test_bvn_monotone_in_correlation():
    vals = [bivariate_normal_cdf(0.3, -0.2, r) for r in (-0.9, -0.5, 0.0, 0.5, 0.9)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_bvn_infinite_arguments():
    assert bivariate_normal_cdf(math.inf, 0.3, 0.5) == pytest.approx(_Phi(0.3), abs=1e-12)
    assert bivariate_normal_cdf(0.3, math.inf, 0.5) == pytest.approx(_Phi(0.3), abs=1e-12)
    assert bivariate_normal_cdf(-math.inf, 0.3, 0.5) == 0.0


def test_bvn_rejects_bad_correlation():
    with pytest.raises(ValueError):
        bivariate_normal_cdf(0.0, 0.0, 1.5)
    with pytest.raises(ValueError):
        bivariate_normal_cdf(float("nan"), 0.0, 0.5)


# ---------------------------------------------------------------------------
# linear-Gaussian closed form
# ---------------------------------------------------------------------------


def lg(betaxt, sigma, rho):
    return LinearGaussianPopulation(0.0, 0.0, 0.0, betaxt, sigma, rho)


def test_linear_gaussian_known_point():
    res = cfb_linear_gaussian(lg(1.0, 1.0, 0.0))
    # pair correlation 1/sqrt(3); arcsine identity as the second route
    ident = 0.5 + math.asin(1.0 / math.sqrt(3.0)) / math.pi
    assert res.value == pytest.approx(0.6959132760153038, abs=1e-12)
    assert res.value == pytest.approx(ident, abs=1e-9)
    assert res.denominator == 1.0 and res.numerator == res.value


def test_linear_gaussian_perfect_correlation_is_exactly_one():
    assert cfb_linear_gaussian(lg(2.0, 3.0, 1.0)).value == 1.0
    assert cfb_linear_gaussian(lg(-0.5, 0.1, 1.0)).value == 1.0


def test_linear_gaussian_constant_predictor_raises():
    with pytest.raises(DegenerateCfb):
        cfb_linear_gaussian(lg(0.0, 1.0, 0.5))


def test_linear_gaussian_sign_of_interaction_is_irrelevant():
    for sigma, rho in ((1.0, 0.0), (0.5, -0.8), (2.0, 0.9)):
        plus = cfb_linear_gaussian(lg(1.3, sigma, rho)).value
        minus = cfb_linear_gaussian(lg(-1.3, sigma, rho)).value
        assert plus == minus


def test_linear_gaussian_increasing_in_rho():
    vals = [cfb_linear_gaussian(lg(1.0, 1.0, r)).value
            for r in (-1.0, -0.5, 0.0, 0.5, 0.9, 1.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 1.0


def test_linear_gaussian_matches_arcsine_identity_on_small_grid():
    for betaxt in (0.25, 1.0, 4.0):
        for sigma in (0.5, 1.0, 2.0):
            for rho in (-1.0, 0.0, 0.75):
                got = cfb_linear_gaussian(lg(betaxt, sigma, rho)).value
                r = abs(betaxt) / math.sqrt(betaxt * betaxt + 2.0 * sigma * sigma * (1.0 - rho))
                assert got == pytest.approx(0.5 + math.asin(r) / math.pi, abs=1e-9)


def test_linear_gaussian_depends_on_the_ratio_at_any_magnitude():
    """betaxt and sigma scaled together keep the value, also where their squares
    would overflow or underflow a float."""
    for betaxt, sigma, rho in ((1.0, 1.0, 0.0), (0.25, 2.0, 0.3), (-3.0, 0.5, -0.9)):
        want = cfb_linear_gaussian(lg(betaxt, sigma, rho)).value
        for k in (-1000, -600, 600, 1000):
            assert cfb_linear_gaussian(lg(betaxt * 2.0 ** k, sigma * 2.0 ** k, rho)).value == want
        assert cfb_linear_gaussian(lg(betaxt * 1e-320, sigma * 1e-320, rho)).value == pytest.approx(want)
    assert cfb_linear_gaussian(lg(1e308, 1.0, 0.0)).value == 1.0
    assert cfb_linear_gaussian(lg(1.0, 1e308, 0.0)).value == 0.5


def test_linear_gaussian_closed_form_matches_the_quadrature():
    """Sheppard's arcsine against 2 * bivariate_normal_cdf(0, 0, r): same `%.10g` text
    on 3,618 (betaxt, sigma, rho) cases, so rho-sweep's output does not move."""
    worst = 0.0
    for betaxt in (1.0, 0.5, 2.0, -1.0, 0.1, 3.0):
        for sigma in (1.0, 0.5, 2.0):
            for rho in np.linspace(-1.0, 1.0, 201):
                pop = lg(betaxt, sigma, float(rho))
                got = cfb_linear_gaussian(pop).value
                r = 1.0 if pop.rho == 1.0 else min(
                    1.0, abs(betaxt) / math.sqrt(betaxt * betaxt + 2.0 * sigma * sigma * (1.0 - pop.rho)))
                quad = 2.0 * bivariate_normal_cdf(0.0, 0.0, r)
                assert "%.10g" % got == "%.10g" % quad, (betaxt, sigma, rho)
                worst = max(worst, abs(got - quad))
    assert worst <= 1e-14


# ---------------------------------------------------------------------------
# Monte Carlo sampler
# ---------------------------------------------------------------------------

# the README's Beta example
BETA_T0 = ProbTriple(0.08, 0.0, 0.92)
BETA_T1 = ProbTriple(0.0, 0.15, 0.85)
BETA_POP = BetaXPopulation(0.5, 0.5, BETA_T0, BETA_T1)
# both end triples have mean benefit exactly 0 but differ in benefit
# spread; the interpolated p_plus and p_minus are then the same
# expression, so the oracle predictor is exactly 0 for every unit
FLAT_T0 = ProbTriple(0.25, 0.5, 0.25)
FLAT_T1 = ProbTriple(0.5, 0.0, 0.5)
FLAT_POP = BetaXPopulation(0.5, 0.5, FLAT_T0, FLAT_T1)


@pytest.mark.parametrize("affinity, cpus, expected", [
    ({0}, 8, 1),  # pinned to one CPU of eight
    ({0, 1}, 8, 2),
    (set(range(6)), 8, 4),
    (None, 3, 3),  # no sched_getaffinity: os.cpu_count()
    (None, 16, 4),
    (None, None, 1),
])
def test_default_worker_count_is_the_usable_cpus_up_to_4(monkeypatch, affinity, cpus, expected):
    monkeypatch.delenv("CFB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
    assert worker_count() == expected
    monkeypatch.setenv("CFB_THREADS", "0")
    assert worker_count() == expected


@pytest.mark.parametrize("value", ["64", "65", "128", "10000"])
def test_worker_count_is_capped_at_64(monkeypatch, value):
    """More than 64 counts as 64, so a run with CFB_THREADS set to a large
    machine's CPU count still runs, on at most 64 workers."""
    monkeypatch.setenv("CFB_THREADS", value)
    assert worker_count() == 64


def test_a_many_cpu_thread_count_deals_the_chunks_to_64_workers(monkeypatch):
    """CFB_THREADS set to the CPU count of a 128-CPU machine, as a benchmark
    harness sets it, over more chunks than that: 64 contiguous shares, share
    k from chunk k * 130 // 64, and the counts of one worker.  With os.fork removed the calling
    process scores every share itself, so the test starts no process."""
    monkeypatch.setattr(cfb_engine, "_CHUNK_PAIRS", 500)
    monkeypatch.setenv("CFB_THREADS", "1")
    want = cfb_monte_carlo(BETA_POP, 65_000, 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(128)))
    monkeypatch.setenv("CFB_THREADS", str(len(os.sched_getaffinity(0))))
    monkeypatch.delattr(os, "fork")
    shares = []
    score_share = cfb_engine._score_share

    def recorded(pop, share):
        shares.append([child.spawn_key[-1] for child, _ in share])
        return score_share(pop, share)
    monkeypatch.setattr(cfb_engine, "_score_share", recorded)
    assert cfb_monte_carlo(BETA_POP, 65_000, 3) == want
    assert shares == [list(range(k * 130 // 64, (k + 1) * 130 // 64)) for k in range(64)]


# repr(cfb_monte_carlo(BetaXPopulation(a, b, BETA_T0, BETA_T1), 2_500_000, seed)),
# recorded while Beta covariates were still drawn with Generator.beta
BETA_MC_PINS = {
    ((0.5, 0.5), 20230516): "(0.4434352847714495, 0.0006865200636442703)",
    ((0.5, 0.5), 7): "(0.4439251889866873, 0.0006869005491352497)",
    ((0.5, 0.5), 11): "(0.4447089184582289, 0.0006865588976947703)",
    ((0.3, 0.9), 20230516): "(0.45014667962595584, 0.000741113319600518)",
    ((0.3, 0.9), 7): "(0.45117201378526256, 0.0007415165829014962)",
    ((0.3, 0.9), 11): "(0.45070500475905884, 0.0007402702858851016)",
}


@pytest.mark.parametrize("shape, seed", list(BETA_MC_PINS), ids=str)
def test_beta_monte_carlo_estimates_are_pinned(shape, seed):
    pop = BetaXPopulation(*shape, BETA_T0, BETA_T1)
    assert repr(cfb_monte_carlo(pop, 2_500_000, seed)) == BETA_MC_PINS[shape, seed]


def test_beta_monte_carlo_thread_count_does_not_change_the_answer(monkeypatch):
    # 2.5M pairs spans three chunks, so scheduling could matter if the
    # merge were order sensitive
    monkeypatch.setenv("CFB_THREADS", "1")
    serial = cfb_monte_carlo(BETA_POP, 2_500_000, 7)
    monkeypatch.setenv("CFB_THREADS", "2")
    threaded = cfb_monte_carlo(BETA_POP, 2_500_000, 7)
    assert serial == threaded
    assert repr(serial) == BETA_MC_PINS[(0.5, 0.5), 7]


def _direct_beta_mixture_cfb(pop):
    """The statistic from its definition, with no shrink identity.

    H is monotone in X and X is continuous, so the statistic is
    2 Pr(H1 > H2, B1 > B2) / Pr(B1 != B2).  Given X1, X2 both pair
    probabilities are bilinear in (X1, X2), since the triples are linear in
    x; their averages need E[X] and E[max(X1, X2)] = int_0^1 1 - F(x)^2 dx,
    here a SciPy quadrature of the Beta cdf.
    """
    from scipy.integrate import quad
    from scipy.special import betainc

    a, b = pop.alpha, pop.beta
    mu = a / (a + b)
    e_max = quad(lambda x: 1.0 - betainc(a, b, x) ** 2, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)[0]
    e_min = 2.0 * mu - e_max
    t = (pop.triple0, pop.triple1)

    def gt(ta, tb):
        return ta.p_plus * (tb.p_zero + tb.p_minus) + ta.p_zero * tb.p_minus

    def eq(ta, tb):
        return ta.p_minus * tb.p_minus + ta.p_zero * tb.p_zero + ta.p_plus * tb.p_plus

    # E[X1^i (1 - X1)^(1 - i) X2^j (1 - X2)^(1 - j) ; X1 > X2]
    above = {(1, 1): mu * mu / 2, (1, 0): (e_max - mu * mu) / 2, (0, 1): (e_min - mu * mu) / 2}
    above[0, 0] = 0.5 - above[1, 0] - above[0, 1] - above[1, 1]
    rising = pop.triple1.mean_benefit > pop.triple0.mean_benefit
    # H1 > H2 is X1 > X2 when H rises with x, else X1 < X2 (swap the units)
    num = sum(w * (gt(t[i], t[j]) if rising else gt(t[j], t[i])) for (i, j), w in above.items())
    mass = (1.0 - mu, mu)
    ties = sum(mass[i] * mass[j] * eq(t[i], t[j]) for i in (0, 1) for j in (0, 1))
    return 2.0 * num / (1.0 - ties)


@pytest.mark.parametrize("pop", [
    BetaXPopulation(0.5, 0.5, BETA_T0, BETA_T1),
    BetaXPopulation(2.0, 3.0, HEADLINE_P, HEADLINE_Q),
    BetaXPopulation(0.3, 0.9, HEADLINE_Q, HEADLINE_P),  # H falls with x
    BetaXPopulation(1.7, 0.4, ProbTriple(0.2, 0.3, 0.5), ProbTriple(0.6, 0.1, 0.3)),
    BetaXPopulation(0.05, 20.0, ProbTriple(0.1, 0.8, 0.1), ProbTriple(0.0, 0.5, 0.5)),
], ids=lambda pop: f"beta({pop.alpha}, {pop.beta})")
def test_beta_mixture_identity_matches_the_quadrature(pop):
    assert beta_mixture_cfb(pop) == pytest.approx(_direct_beta_mixture_cfb(pop), abs=1e-10)


def test_beta_mixture_of_the_readme_example():
    # binary limit 0.4308041040 shrunk by 8/pi^2, the arcsine law's factor
    assert cfb_two_group(0.5, BETA_T0, BETA_T1).value == pytest.approx(0.4308041040, abs=1e-10)
    assert beta_mixture_cfb(BETA_POP) == pytest.approx(0.5 - (0.5 - 0.4308041040) * 8 / math.pi**2, abs=1e-10)
    assert beta_mixture_cfb(BETA_POP) == pytest.approx(0.4439119193, abs=1e-10)
    # uniform covariate: E|X1 - X2| = 1/3
    uniform = BetaXPopulation(1.0, 1.0, BETA_T0, BETA_T1)
    assert beta_mixture_cfb(uniform) == pytest.approx(0.5 - (0.5 - 0.4308041040) * 2 / 3, abs=1e-10)
    with pytest.raises(DegenerateCfb):
        beta_mixture_cfb(FLAT_POP)


_SHAPES = st.floats(0.05, 20.0)


@settings(max_examples=300, deadline=None)
@given(alpha=_SHAPES, beta=_SHAPES, t0=_TRIPLES, t1=_TRIPLES)
def test_beta_mixture_lies_between_half_and_the_two_group_value(alpha, beta, t0, t1):
    """The shrink factor E|X1 - X2| / (2 mu (1 - mu)) lies in (0, 1]: a
    continuous covariate only dilutes the two-group value at c = mu."""
    t0, t1 = ProbTriple(*t0), ProbTriple(*t1)
    assume(t0.mean_benefit != t1.mean_benefit)
    mu = alpha / (alpha + beta)
    if t1.mean_benefit > t0.mean_benefit:
        binary = cfb_two_group(mu, t0, t1).value
    else:
        binary = cfb_two_group(1.0 - mu, t1, t0).value
    value = beta_mixture_cfb(BetaXPopulation(alpha, beta, t0, t1))
    assert min(0.5, binary) - 1e-12 <= value <= max(0.5, binary) + 1e-12


@pytest.mark.parametrize("shape, seed", list(BETA_MC_PINS), ids=str)
def test_beta_monte_carlo_pins_lie_within_4_se_of_the_exact_value(shape, seed):
    est, se = ast.literal_eval(BETA_MC_PINS[shape, seed])
    assert abs(est - beta_mixture_cfb(BetaXPopulation(*shape, BETA_T0, BETA_T1))) < 4.0 * se


# Generator.beta draws the covariate above shape 1 and below 0.01; the
# pins above are inside Johnk's range, so together they cover every
# branch of _beta_draws
@pytest.mark.parametrize("shape", [(2.0, 3.0), (0.005, 0.5)], ids=str)
def test_beta_monte_carlo_lies_within_4_se_of_the_exact_value(shape):
    pop = BetaXPopulation(*shape, BETA_T0, BETA_T1)
    est, se = cfb_monte_carlo(pop, 2_500_000, 20230516)
    assert abs(est - beta_mixture_cfb(pop)) < 4.0 * se


# Beta shapes inside Johnk's range [0.01, 1] and outside it (Generator.beta)
CHUNK_CASES = {f"beta{shape}": BetaXPopulation(*shape, BETA_T0, BETA_T1)
               for shape in [(0.5, 0.5), (0.3, 0.9), (2.0, 3.0), (0.005, 0.5)]}


CHUNK_PAIRS = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1, 1_000_000]


@pytest.mark.parametrize("m", CHUNK_PAIRS)
@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_streamed_chunk_counts_equal_whole_columns(case, m):
    pop = CHUNK_CASES[case]
    child = np.random.SeedSequence(20230516).spawn(2)[1]
    assert _score_chunk(pop, child, m) == whole_column_score_chunk(pop, child, m)


# the test above is the one-worker case
@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("m", CHUNK_PAIRS)
@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_shared_chunk_counts_equal_whole_columns(case, m, workers):
    """Every worker scores the same chunk, the calling process and each
    forked one: the counts that come back in the workers' files are the
    whole-column oracle's, once per worker."""
    pop = CHUNK_CASES[case]
    child = np.random.SeedSequence(20230516).spawn(2)[1]
    want = whole_column_score_chunk(pop, child, m)
    got = _score_shares(pop, [[(child, m)]] * workers)
    assert got == tuple(workers * count for count in want)


@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_monte_carlo_counts_do_not_depend_on_the_worker_count(case, monkeypatch):
    """Five chunks, the last one short, cut into contiguous runs for 1-4
    workers, so that the shares are uneven (chunk 0, chunks 1 and 2, and
    chunks 3 and 4 on three workers):
    the caller forks one process per other worker at every shape, and the
    estimate is the one the whole-column oracle's counts give."""
    pop = CHUNK_CASES[case]
    monkeypatch.setattr(cfb_engine, "_CHUNK_PAIRS", 4000)
    sizes = [4000] * 4 + [1500]
    children = np.random.SeedSequence(20230516).spawn(5)
    conc, tied, valid = map(sum, zip(*(whole_column_score_chunk(pop, c, m) for c, m in zip(children, sizes))))
    est = (conc + 0.5 * tied) / valid
    want = est, math.sqrt(est * (1.0 - est) / valid)
    forked = []
    fork_worker = _fork.fork_worker

    def recorded(work, share, out):
        forked.append([child.spawn_key[-1] for child, _ in share])
        return fork_worker(work, share, out)
    monkeypatch.setattr(_fork, "fork_worker", recorded)
    for workers in (1, 2, 3, 4):
        monkeypatch.setenv("CFB_THREADS", str(workers))
        forked.clear()
        assert cfb_monte_carlo(pop, sum(sizes), 20230516) == want, workers
        assert forked == [list(range(k * 5 // workers, (k + 1) * 5 // workers)) for k in range(1, workers)]


def test_each_worker_scores_whole_chunks_in_a_process_of_its_own(tmp_path, monkeypatch):
    """Five chunks at CFB_THREADS=2: the calling process scores chunks 0 and
    1 and one forked process chunks 2, 3 and 4, each chunk whole."""
    monkeypatch.setattr(cfb_engine, "_CHUNK_PAIRS", 2000)
    monkeypatch.setenv("CFB_THREADS", "2")
    log = tmp_path / "chunks"
    score_chunk = cfb_engine._score_chunk

    def logged(pop, child, m):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {child.spawn_key[-1]} {m}\n")
        return score_chunk(pop, child, m)
    monkeypatch.setattr(cfb_engine, "_score_chunk", logged)
    cfb_monte_carlo(BETA_POP, 9000, 7)
    scored = {}
    for line in log.read_text().splitlines():
        pid, chunk, m = map(int, line.split())
        scored.setdefault(pid, []).append((chunk, m))
    assert scored.pop(os.getpid()) == [(0, 2000), (1, 2000)]
    assert list(scored.values()) == [[(2, 2000), (3, 2000), (4, 1000)]]


def _failing_in_worker(monkeypatch, chunk, fail):
    """Patch _score_chunk to call fail() in the forked process that scores `chunk`."""
    caller = os.getpid()
    score_chunk = cfb_engine._score_chunk

    def failing(pop, child, m):
        if child.spawn_key[-1] == chunk:
            assert os.getpid() != caller, "the chunk is the calling process's"
            fail()
        return score_chunk(pop, child, m)
    monkeypatch.setattr(cfb_engine, "_score_chunk", failing)


def _refuse():
    raise ValueError("chunk refused")


@pytest.mark.parametrize("fail, report", [
    (_refuse, "ValueError: chunk refused"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
], ids=["raises", "killed"])
def test_a_failed_worker_raises_a_named_error_and_leaves_no_child(monkeypatch, fail, report):
    """Three chunks at CFB_THREADS=2: worker 1 scores chunk 1 alone."""
    monkeypatch.setattr(cfb_engine, "_CHUNK_PAIRS", 1000)
    monkeypatch.setenv("CFB_THREADS", "2")
    _failing_in_worker(monkeypatch, 1, fail)
    with pytest.raises(CfbError) as raised:
        cfb_monte_carlo(BETA_POP, 3000, 7)
    assert str(raised.value) == f"Monte Carlo worker 1 failed: {report}"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_caller_kills_and_reaps_its_workers(monkeypatch):
    """The calling process's own chunk raises while its worker would run for
    a minute: the worker is killed and reaped, and the caller's error is
    the one raised."""
    monkeypatch.setattr(cfb_engine, "_CHUNK_PAIRS", 1000)
    monkeypatch.setenv("CFB_THREADS", "2")
    caller = os.getpid()

    def chunk(pop, child, m):
        if os.getpid() == caller:
            raise ValueError("caller refused")
        time.sleep(60)
    monkeypatch.setattr(cfb_engine, "_score_chunk", chunk)
    start = time.monotonic()
    with pytest.raises(ValueError, match="^caller refused$"):
        cfb_monte_carlo(BETA_POP, 2000, 7)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_all_pairs_streamed_columns_equal_whole_columns(case):
    pop = CHUNK_CASES[case]
    rng = np.random.default_rng(np.random.SeedSequence(11))
    conc, tied, valid = _pair_counts(*_units(pop, whole_columns(pop, rng, 1500), _Scratch(1500)))
    est = (conc + 0.5 * tied) / valid
    want = est, math.sqrt(est * (1.0 - est) / valid)
    assert cfb_monte_carlo(pop, 1500, 11, all_pairs=True) == want


# block sizes that divide m = 200,000 into whole blocks, into blocks with
# a short last one, and into one block of 1000 pairs at a time
BLOCK_SIZES = [1000, 2**15, 2**16, 3 * 2**15 + 7]


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_chunk_counts_do_not_depend_on_the_block_size(block, monkeypatch):
    child = np.random.SeedSequence(20230516).spawn(2)[1]
    want = {case: whole_column_score_chunk(pop, child, 200_000) for case, pop in CHUNK_CASES.items()}
    monkeypatch.setattr(cfb_engine, "_BLOCK", block)
    assert {case: _score_chunk(pop, child, 200_000) for case, pop in CHUNK_CASES.items()} == want


# numpy reports its buffers to tracemalloc.  With every column drawn whole
# one chunk peaked at 33.8 MiB.  A chunk holds its covariate column,
# 2 * 10**6 * 8 B = 15.26 MiB, and one scratch set of 2**15 pairs,
# 2**15 * (5 * 8 + 2 + 2) B = 1.38 MiB, into which each block's benefit
# uniforms are drawn; while the column is drawn, one Johnk block's
# uniforms, 2 * 2**15 * 8 B = 0.5 MiB, and np.compress's index and output
# buffers, at most 0.5 MiB more: 17.6 MiB, below 18.
@pytest.mark.parametrize("pop, limit_mib", [(BETA_POP, 18)], ids=["beta"])
def test_chunk_peak_memory(pop, limit_mib):
    child = np.random.SeedSequence(20230516).spawn(1)[0]
    tracemalloc.start()
    try:
        _score_chunk(pop, child, 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


# The calling process scores its own share one chunk at a time and forks
# its workers before it draws any column, so its peak is the one-chunk
# peak above at any CFB_THREADS.  At 4 workers and five chunks it scores
# chunks 0 and 4; tracemalloc counts this process's allocations only.
def test_calling_process_peak_memory_at_four_workers(monkeypatch):
    monkeypatch.setenv("CFB_THREADS", "4")
    tracemalloc.start()
    try:
        cfb_monte_carlo(BETA_POP, 5_000_000, 20230516)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18 * 2**20


def test_independent_pairs_standard_error_covers_the_exact_value():
    """95% intervals est +- 1.96 se of the README example, at 200 derived
    seeds of 20,000 pairs each, cover the exact value at a rate within
    about 3 sd (0.015 at 200 seeds) of 0.95."""
    exact = beta_mixture_cfb(BETA_POP)
    seeds = np.random.SeedSequence(20230516).generate_state(200).tolist()
    covered = 0
    for seed in seeds:
        est, se = cfb_monte_carlo(BETA_POP, 20_000, seed)
        covered += abs(est - exact) <= 1.96 * se
    assert 0.90 <= covered / len(seeds) <= 0.99


def test_monte_carlo_linear_gaussian_agrees_with_quadrature():
    """Pairs drawn from the model's potential outcomes agree with the closed form,
    also where beta0, betax and betat, which it does not depend on, are not 0."""
    for pop in (lg(1.0, 1.0, 0.0), LinearGaussianPopulation(0.7, -1.3, 0.4, 2.0, 0.5, 0.5)):
        est, se = sampled_linear_gaussian_cfb(pop, 400_000, 20230516)
        assert abs(est - cfb_linear_gaussian(pop).value) < 4.0 * se


def test_monte_carlo_constant_predictor_is_exactly_half():
    est, se = cfb_monte_carlo(FLAT_POP, 10_000, 5)
    assert est == 0.5
    assert se > 0.0


def test_monte_carlo_all_b_ties_is_undefined():
    t = ProbTriple(0.0, 1.0, 0.0)
    with pytest.raises(UndefinedCfb):
        cfb_monte_carlo(BetaXPopulation(0.5, 0.5, t, t), 1_000, 3)


def test_monte_carlo_all_pairs_mode():
    est, se = cfb_monte_carlo(BETA_POP, 400, 17, all_pairs=True)
    assert 0.0 < est < 1.0 and se > 0.0


def _brute_pair_counts(b, h):
    conc = tied = valid = 0
    for i in range(len(b)):
        for j in range(i + 1, len(b)):
            if b[i] == b[j]:
                continue
            valid += 1
            if h[i] == h[j]:
                tied += 1
            elif (b[i] > b[j]) == (h[i] > h[j]):
                conc += 1
    return conc, tied, valid


# few distinct values, so h ties heavily; -0.0 and 0.0 tie too
_H_VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0])


def _ternary_units(data):
    """(b, h) of 2 to 200 units, b int8 in {-1, 0, 1} as _units draws it."""
    n = data.draw(st.integers(2, 200), label="n")
    b = np.array(data.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)), dtype=np.int8)
    h = np.array(data.draw(st.lists(_H_VALUES, min_size=n, max_size=n)))
    return b, h


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pair_counts_match_double_loop(data):
    b, h = _ternary_units(data)
    assert _pair_counts(b, h) == _brute_pair_counts(b.tolist(), h.tolist())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pair_counts_keep_under_negation_and_permutation(data):
    b, h = _ternary_units(data)
    counts = _pair_counts(b, h)
    # negating both reverses every pair's benefit order and predictor order alike
    assert _pair_counts(-b, -h) == counts
    order = np.array(data.draw(st.permutations(range(len(b))), label="order"))
    assert _pair_counts(b[order], h[order]) == counts


def test_pair_counts_of_two_units():
    levels = (-1.5, -0.0, 0.0, 2.0)
    for b1, b2, h1, h2 in itertools.product((-1, 0, 1), (-1, 0, 1), levels, levels):
        b = np.array([b1, b2], dtype=np.int8)
        assert _pair_counts(b, np.array([h1, h2])) == _brute_pair_counts([b1, b2], [h1, h2])


def test_all_pairs_all_b_ties_is_undefined():
    t = ProbTriple(0.0, 1.0, 0.0)
    with pytest.raises(UndefinedCfb):
        cfb_monte_carlo(BetaXPopulation(0.5, 0.5, t, t), 300, 3, all_pairs=True)
    assert _pair_counts(np.zeros(50, dtype=np.int8), np.arange(50.0))[2] == 0


def test_all_pairs_constant_continuous_predictor_is_exactly_half():
    est, _ = cfb_monte_carlo(FLAT_POP, 1000, 11, all_pairs=True)
    assert est == 0.5


# BETA_POP, the all-pairs population of the benchmark (README Beta example 1),
# at the first three seeds derived from 20230516.
# Recorded from the pair-by-pair loop that sorting replaced; the counts are
# exact, so the floats must not move in the last bit.
ALL_PAIRS_BETA_PINS = (
    "(0.4259909311334547, 0.0007912464614731958)",
    "(0.40087301822972204, 0.0008052013617083336)",
    "(0.4213655393154574, 0.0007591849863856432)",
)


def test_all_pairs_estimates_are_pinned():
    rng = random.Random(20230516)
    for pin in ALL_PAIRS_BETA_PINS:
        seed = rng.randrange(2**32)
        assert repr(cfb_monte_carlo(BETA_POP, 2000, seed, all_pairs=True)) == pin


def test_benefit_draw_matches_nested_where():
    rng = np.random.default_rng(4)
    tm = rng.random(3000) * 0.5
    tz = rng.random(3000) * 0.5
    tz[::3] = 0.0
    u = rng.random(3000)
    u[1::4] = tm[1::4]
    u[2::4] = (tm + tz)[2::4]
    old = np.where(u < tm, -1, np.where(u < tm + tz, 0, 1)).astype(np.int8)
    new = _sample_b_from_triples(u, tm, tz, np.empty(3000, np.int8), np.empty(3000, bool))
    assert new.dtype == np.int8
    assert np.array_equal(new, old)
    assert set(np.unique(new)) == {-1, 0, 1}


def test_monte_carlo_all_pairs_unit_cap():
    with pytest.raises(ValueError, match="capped"):
        cfb_monte_carlo(BETA_POP, 10_001, 1, all_pairs=True)
    with pytest.raises(ValueError):
        cfb_monte_carlo(BETA_POP, 1, 1, all_pairs=True)


def test_monte_carlo_input_validation():
    with pytest.raises(ValueError):
        cfb_monte_carlo(BETA_POP, 0, 1)
    # the linear-Gaussian family has its closed form, and no sampler
    for pop in (object(), lg(1.0, 1.0, 0.0)):
        with pytest.raises(TypeError, match="no Monte Carlo sampler"):
            cfb_monte_carlo(pop, 100, 1)
        with pytest.raises(TypeError, match="no Monte Carlo sampler"):
            cfb_monte_carlo(pop, 100, 1, all_pairs=True)


# ---------------------------------------------------------------------------
# Beta sampler: numpy's Johnk loop, vectorized on the same stream
# ---------------------------------------------------------------------------

_TINY = np.finfo(float).tiny


def _assert_matches_generator_beta(a, b, count, seed=5):
    """_beta_draws agrees with Generator.beta: same stream position after
    the draw, values within 4 ULP wherever both are normal numbers."""
    ours_rng = np.random.default_rng(seed)
    numpy_rng = np.random.default_rng(seed)
    got = _beta_draws(ours_rng, a, b, count)
    want = numpy_rng.beta(a, b, count)
    assert got.shape == want.shape == (count,)
    assert ours_rng.random() == numpy_rng.random(), (a, b, count)
    normal = (np.abs(got) >= _TINY) & (np.abs(want) >= _TINY)
    ulps = np.abs(got[normal].view(np.int64) - want[normal].view(np.int64))
    assert ulps.max(initial=0) <= 4, (a, b, count)
    return got, want


@pytest.mark.parametrize("a, b", [
    (0.5, 0.5), (0.3, 0.9), (0.7, 0.2), (1.0, 1.0), (1.0, 0.5), (0.01, 0.02), (1e-300, 0.5),
    (0.01, 0.01), (0.001, 0.001), (1e-200, 3e-200),
])
def test_beta_draws_follow_generator_beta(a, b):
    got, want = _assert_matches_generator_beta(a, b, 50_000)
    # values below the normal range come from pairs whose X is below it
    # too; those are redone in libm arithmetic, so they match bit for bit
    tiny_rows = want < _TINY
    assert got[tiny_rows].tobytes() == want[tiny_rows].tobytes()
    assert np.array_equal(got == 1.0, want == 1.0)


@pytest.mark.parametrize("count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1, 2_000_000])
def test_beta_draws_end_where_generator_beta_ends(count):
    _assert_matches_generator_beta(0.5, 0.5, count)


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.3, 0.9)])
def test_beta_draws_do_not_depend_on_the_block_size(a, b, block, monkeypatch):
    """Every pair a block accepts is used, so blocks of any size give the
    same values and leave the stream at the same place."""
    counts = [1, block - 1, block, block + 1, 2 * block + 1]
    want = {}
    for count in counts:
        rng = np.random.default_rng(5)
        want[count] = _beta_draws(rng, a, b, count).tobytes(), rng.random()
    monkeypatch.setattr(cfb_engine, "_BLOCK", block)
    for count in counts:
        rng = np.random.default_rng(5)
        assert (_beta_draws(rng, a, b, count).tobytes(), rng.random()) == want[count], count
    # a scratch set smaller than the block, as a chunk of few pairs makes
    rng = np.random.default_rng(5)
    got = _beta_draws(rng, a, b, 2 * block + 1, _Scratch(7))
    assert (got.tobytes(), rng.random()) == want[2 * block + 1]


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.0, 1.0, exclude_min=True), b=st.floats(0.0, 1.0, exclude_min=True),
       count=st.integers(0, 3 * _BLOCK), seed=st.integers(0, 2**32 - 1))
def test_beta_draws_follow_generator_beta_on_any_shape(a, b, count, seed):
    _assert_matches_generator_beta(a, b, count, seed)


def test_beta_draws_call_generator_beta_outside_the_johnk_range():
    # shapes above 1, and shapes below 0.01 where X or Y underflows often
    for a, b in ((2.0, 3.0), (1.5, 0.5), (0.5, 1.0000001), (0.009, 0.5), (0.5, 1e-300)):
        rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        got = _beta_draws(rng1, a, b, 10_000)
        assert got.tobytes() == rng2.beta(a, b, 10_000).tobytes()
        assert rng1.random() == rng2.random()


class _Uniforms:
    """Stands in for a Generator whose random() hands out the given values in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        out, self.values = self.values[:n], self.values[n:]
        assert len(out) == n, "sampler drew more uniforms than supplied"
        return np.array(out)


# Pairs with U**2 + V**2 next to 1 on which u*u and libm's pow(u, 2), the
# call numpy's loop makes, round to opposite sides of 1 (found by search).
LIBM_ACCEPTS = (float.fromhex("0x1.6572331d2cef8p-3"), float.fromhex("0x1.f82430a522e17p-1"))
LIBM_REJECTS = (float.fromhex("0x1.60772e2a94c93p-1"), float.fromhex("0x1.735d772def768p-1"))


def test_pinned_pairs_straddle_one():
    for (u, v), libm_accepts in ((LIBM_ACCEPTS, True), (LIBM_REJECTS, False)):
        assert (math.pow(u, 2.0) + math.pow(v, 2.0) <= 1.0) is libm_accepts
        assert (u * u + v * v <= 1.0) is not libm_accepts


def test_beta_draws_recheck_accept_decisions_next_to_one():
    u, v = LIBM_ACCEPTS
    stream = _Uniforms([u, v, 0.25, 0.5])
    got = _beta_draws(stream, 0.5, 0.5, 1)
    x, y = math.pow(u, 2.0), math.pow(v, 2.0)
    assert got.tolist() == [x / (x + y)]
    assert stream.values == [0.25, 0.5]

    stream = _Uniforms([*LIBM_REJECTS, 0.25, 0.5])
    got = _beta_draws(stream, 0.5, 0.5, 1)
    assert got.tolist() == [0.0625 / (0.0625 + 0.25)]
    assert stream.values == []
