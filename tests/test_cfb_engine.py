"""Exact concordance routes, the quadrature cdf, and the sampler.

The load-bearing numbers here were frozen from tools/oracles, which
recompute them by plain enumeration with Fraction arithmetic and share
no code with the library.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfb import (
    BenefitPredictor,
    BetaXPopulation,
    BinaryXPopulation,
    CfbResult,
    DegenerateCfb,
    LinearGaussianPopulation,
    MatchedBenefitDistribution,
    PairTable,
    ProbTriple,
    UndefinedCfb,
    bivariate_normal_cdf,
    cfb_from_pair_table,
    cfb_linear_gaussian,
    cfb_monte_carlo,
    cfb_two_group,
    empirical_cfb_oracle,
    gini_mean_difference,
    pair_table,
)
from cfb.cfb_engine import _BLOCK, _beta_draws, _pair_counts, _sample_b_from_triples
from cfb.matched_pairs import _two_group_cfb_arrays

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

BINARY_POP = BinaryXPopulation(0.5, HEADLINE_P, HEADLINE_Q)


def test_monte_carlo_is_reproducible():
    a = cfb_monte_carlo(BINARY_POP, 50_000, 99)
    b = cfb_monte_carlo(BINARY_POP, 50_000, 99)
    assert a == b
    c = cfb_monte_carlo(BINARY_POP, 50_000, 100)
    assert c != a


def test_monte_carlo_thread_count_does_not_change_the_answer(monkeypatch):
    # 2.5M pairs spans three chunks, so scheduling could matter if the
    # merge were order sensitive
    monkeypatch.setenv("CFB_THREADS", "1")
    serial = cfb_monte_carlo(BINARY_POP, 2_500_000, 7)
    monkeypatch.setenv("CFB_THREADS", "4")
    threaded = cfb_monte_carlo(BINARY_POP, 2_500_000, 7)
    assert serial == threaded


BETA_T0 = ProbTriple(0.08, 0.0, 0.92)
BETA_T1 = ProbTriple(0.0, 0.15, 0.85)

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
    pop = BetaXPopulation(0.5, 0.5, BETA_T0, BETA_T1)
    monkeypatch.setenv("CFB_THREADS", "1")
    serial = cfb_monte_carlo(pop, 2_500_000, 7)
    monkeypatch.setenv("CFB_THREADS", "2")
    threaded = cfb_monte_carlo(pop, 2_500_000, 7)
    assert serial == threaded
    assert repr(serial) == BETA_MC_PINS[(0.5, 0.5), 7]


def test_monte_carlo_agrees_with_closed_form():
    est, se = cfb_monte_carlo(BINARY_POP, 400_000, 20230516)
    want = cfb_two_group(0.5, HEADLINE_P, HEADLINE_Q).value
    assert abs(est - want) < 4.0 * se
    assert 0.0 < se < 0.01


def test_monte_carlo_linear_gaussian_agrees_with_quadrature():
    pop = lg(1.0, 1.0, 0.0)
    est, se = cfb_monte_carlo(pop, 400_000, 20230516)
    assert abs(est - cfb_linear_gaussian(pop).value) < 4.0 * se


def test_monte_carlo_constant_predictor_is_exactly_half():
    flat = BenefitPredictor({0: 1.0, 1: 1.0})
    est, se = cfb_monte_carlo(BINARY_POP, 10_000, 5, predictor=flat)
    assert est == 0.5
    assert se > 0.0


def test_monte_carlo_all_b_ties_is_undefined():
    t = ProbTriple(0.0, 1.0, 0.0)
    pop = BinaryXPopulation(0.5, t, t)
    with pytest.raises(UndefinedCfb):
        cfb_monte_carlo(pop, 1_000, 3)


def test_monte_carlo_all_pairs_mode():
    est, se = cfb_monte_carlo(BINARY_POP, 400, 17, all_pairs=True)
    assert 0.0 < est < 1.0 and se > 0.0
    flat = BenefitPredictor({0: 1.0, 1: 1.0})
    est, _ = cfb_monte_carlo(BINARY_POP, 400, 17, predictor=flat, all_pairs=True)
    assert est == 0.5


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


# few distinct values, so both coordinates tie heavily; -0.0 and 0.0 tie too
_H_VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0])
_B_FLOATS = st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pair_counts_match_double_loop(data):
    n = data.draw(st.integers(2, 40), label="n")
    if data.draw(st.booleans(), label="ternary"):
        b = np.array(data.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)), dtype=np.int8)
    else:
        b = np.array(data.draw(st.lists(_B_FLOATS, min_size=n, max_size=n)))
    h = np.array(data.draw(st.lists(_H_VALUES, min_size=n, max_size=n)))
    assert _pair_counts(b, h) == _brute_pair_counts(b.tolist(), h.tolist())


def test_pair_counts_of_two_units():
    levels = (-1.5, -0.0, 0.0, 2.0)
    for b1, b2, h1, h2 in itertools.product((-1, 0, 1), (-1, 0, 1), levels, levels):
        b = np.array([b1, b2], dtype=np.int8)
        assert _pair_counts(b, np.array([h1, h2])) == _brute_pair_counts([b1, b2], [h1, h2])


def test_all_pairs_all_b_ties_is_undefined():
    t = ProbTriple(0.0, 1.0, 0.0)
    with pytest.raises(UndefinedCfb):
        cfb_monte_carlo(BinaryXPopulation(0.5, t, t), 300, 3, all_pairs=True)
    assert _pair_counts(np.zeros(50, dtype=np.int8), np.arange(50.0))[2] == 0


def test_all_pairs_constant_continuous_predictor_is_exactly_half():
    # betaxt = 0: continuous benefit, one predictor value for every unit
    est, _ = cfb_monte_carlo(lg(0.0, 1.0, 0.0), 1000, 11, all_pairs=True)
    assert est == 0.5


# The all-pairs population of the benchmark (README Beta example 1) at the
# first three seeds derived from 20230516, and one linear-Gaussian run.
# Recorded from the pair-by-pair loop that sorting replaced; the counts are
# exact, so the floats must not move in the last bit.
ALL_PAIRS_BETA_POP = BetaXPopulation(0.5, 0.5, ProbTriple(0.08, 0.0, 0.92), ProbTriple(0.0, 0.15, 0.85))
ALL_PAIRS_BETA_PINS = (
    "(0.4259909311334547, 0.0007912464614731958)",
    "(0.40087301822972204, 0.0008052013617083336)",
    "(0.4213655393154574, 0.0007591849863856432)",
)


def test_all_pairs_estimates_are_pinned():
    rng = random.Random(20230516)
    for pin in ALL_PAIRS_BETA_PINS:
        seed = rng.randrange(2**32)
        assert repr(cfb_monte_carlo(ALL_PAIRS_BETA_POP, 2000, seed, all_pairs=True)) == pin
    got = cfb_monte_carlo(lg(1.0, 1.0, 0.0), 2000, 7, all_pairs=True)
    assert repr(got) == "(0.6990565282641321, 0.0003244084920475598)"


def test_benefit_draw_matches_nested_where():
    rng = np.random.default_rng(4)
    tm = rng.random(3000) * 0.5
    tz = rng.random(3000) * 0.5
    tz[::3] = 0.0
    u = rng.random(3000)
    u[1::4] = tm[1::4]
    u[2::4] = (tm + tz)[2::4]
    old = np.where(u < tm, -1, np.where(u < tm + tz, 0, 1)).astype(np.int8)
    new = _sample_b_from_triples(u, tm, tz)
    assert new.dtype == np.int8
    assert np.array_equal(new, old)
    assert set(np.unique(new)) == {-1, 0, 1}


def test_monte_carlo_all_pairs_unit_cap():
    with pytest.raises(ValueError, match="capped"):
        cfb_monte_carlo(BINARY_POP, 10_001, 1, all_pairs=True)
    with pytest.raises(ValueError):
        cfb_monte_carlo(BINARY_POP, 1, 1, all_pairs=True)


def test_monte_carlo_input_validation():
    with pytest.raises(ValueError):
        cfb_monte_carlo(BINARY_POP, 0, 1)
    with pytest.raises(TypeError):
        cfb_monte_carlo(object(), 100, 1)
    with pytest.raises(TypeError):
        cfb_monte_carlo(BINARY_POP, 100, 1, predictor=lambda x: x)
    beta_pop = BetaXPopulation(0.5, 0.5, HEADLINE_P, HEADLINE_Q)
    with pytest.raises(ValueError, match="discrete"):
        cfb_monte_carlo(beta_pop, 100, 1, predictor=BenefitPredictor({0: 1.0}))


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


@pytest.mark.parametrize("count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2_000_000])
def test_beta_draws_end_where_generator_beta_ends(count):
    _assert_matches_generator_beta(0.5, 0.5, count)


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
