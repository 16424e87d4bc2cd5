"""End-to-end acceptance checks.

One test per required behavior, each printing a short summary line so a
verbose run reads as a checklist.  Tolerances and runtime budgets are
asserted exactly as stated; the module tests carry the tighter frozen
values.
"""

import math
import random
import time

import numpy as np
import pytest

from cfb import (
    BetaXPopulation,
    LinearGaussianPopulation,
    MatchedBenefitDistribution,
    ProbTriple,
    UndefinedCfb,
    cfb_from_pair_table,
    cfb_linear_gaussian,
    cfb_monte_carlo,
    cfb_two_group,
    discriminant,
    matching_experiment,
    pair_table,
    solve_outcome_probs,
)
from oracles import (
    benefit_triple_from_outcome_probs,
    bivariate_normal_cdf,
    empirical_cfb_oracle,
    sampled_linear_gaussian_cfb,
)

SEED = 20230516

HEADLINE_P = ProbTriple(0.25, 0.01, 0.74)
HEADLINE_Q = ProbTriple(0.14, 0.18, 0.68)

HEADLINE_CELLS = {
    (">", ">"): 0.05545, (">", "="): 0.135, (">", "<"): 0.05955,
    ("=", ">"): 0.109425, ("=", "="): 0.28115, ("=", "<"): 0.109425,
    ("<", ">"): 0.05955, ("<", "="): 0.135, ("<", "<"): 0.05545,
}


def two_group_dist(c, low, high):
    return MatchedBenefitDistribution(((0.0, 1.0 - c, low), (1.0, c, high)))


def test_criterion_01_headline_configuration():
    """Nine pair-table cells to 1e-9, statistic to 1e-7, under 1 ms."""
    table = pair_table(two_group_dist(0.5, HEADLINE_P, HEADLINE_Q))
    for (hr, br), want in HEADLINE_CELLS.items():
        assert table.entry(hr, br) == pytest.approx(want, abs=1e-9)
    res = cfb_two_group(0.5, HEADLINE_P, HEADLINE_Q)
    assert res.value == pytest.approx(0.4908655, abs=1e-7)

    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        cfb_from_pair_table(pair_table(two_group_dist(0.5, HEADLINE_P, HEADLINE_Q)))
        cfb_two_group(0.5, HEADLINE_P, HEADLINE_Q)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"evaluation took {best * 1e3:.3f} ms"
    print(f"criterion 1: cfb*={res.value:.7f}, eval {best * 1e6:.0f} us")


def test_criterion_02_grid_census(grid_run):
    """283,523 survivors, the stated extremes, under two minutes."""
    result, elapsed = grid_run
    s = result.summary
    assert s.count == 283523
    assert s.cfb_min == pytest.approx(0.4188, abs=5e-5)
    found = result.survivors
    pm, pp, qm, qp = (int(col[s.argmin]) for col in
                      (found.p_minus, found.p_plus, found.q_minus, found.q_plus))
    assert (pm, 100 - pm - pp, pp) == (3, 0, 97)
    assert (qm, 100 - qm - qp, qp) == (0, 6, 94)
    assert s.cfb_median == pytest.approx(0.4916, abs=5e-4)
    # every survivor sits below chance; deviations at the resolution
    # limit of doubles can round the reported value onto 0.5 itself
    assert (found.deviation < 0.0).all()
    assert (found.cfb_star <= 0.5).all()
    assert elapsed < 120.0, f"search took {elapsed:.1f} s"
    print(f"criterion 2: count={s.count}, min={s.cfb_min:.6f}, "
          f"median={s.cfb_median:.6f}, {elapsed:.2f} s")


def test_criterion_03_binary_benefit_has_no_survivors(grid_result):
    """No surviving pair restricts the benefit to two values, and a
    direct exact-arithmetic scan of all binary pairs agrees."""
    found = grid_result.survivors
    p_zero = 100 - found.p_minus - found.p_plus
    q_zero = 100 - found.q_minus - found.q_plus
    assert not ((found.p_plus == 0) & (found.q_plus == 0)).any()
    assert not ((p_zero == 0) & (q_zero == 0)).any()
    assert not ((found.p_minus == 0) & (found.q_minus == 0)).any()

    checked = 0
    for supports in ("mz", "mp", "zp"):
        for i in range(0, 101, 1):
            for j in range(0, 101, 1):
                if supports == "mz":
                    pm, pp, qm, qp = i, 0, j, 0
                elif supports == "mp":
                    pm, pp, qm, qp = i, 100 - i, j, 100 - j
                else:
                    pm, pp, qm, qp = 0, i, 0, j
                d2 = (qp - qm) - (pp - pm)
                ch = 100 * (qp - qm + pm - pp) + (qm * pp - qp * pm)
                assert not (d2 > 0 and ch < 0)
                checked += 1
    print(f"criterion 3: zero binary-benefit survivors ({checked} pairs scanned)")


def test_criterion_04_beta_monte_carlo():
    """Continuous-covariate estimates within 3 SE of their targets."""
    cases = (
        ("example 1", ProbTriple(0.08, 0.0, 0.92), ProbTriple(0.0, 0.15, 0.85), 0.4442),
        ("example 2", ProbTriple(0.54, 0.37, 0.09), ProbTriple(0.68, 0.01, 0.31), 0.4906),
    )
    details = []
    for name, p, q, target in cases:
        pop = BetaXPopulation(0.5, 0.5, p, q)
        t0 = time.perf_counter()
        est, se = cfb_monte_carlo(pop, 1_000_000, SEED)
        dt = time.perf_counter() - t0
        assert abs(est - target) < 3.0 * se, (name, est, se)
        assert dt < 10.0, f"{name} took {dt:.1f} s"
        details.append(f"{name} est={est:.4f} se={se:.4f} ({dt:.1f} s)")
    print("criterion 4: " + "; ".join(details))


def test_criterion_05_realizability_screen(grid_result, screen_result):
    """Screened-subset statistics and the excluded census argmin."""
    s = screen_result.summary
    assert s.cfb_min == pytest.approx(0.4830, abs=1e-3)
    assert s.cfb_mean == pytest.approx(0.4961, abs=1e-3)
    assert s.cfb_median == pytest.approx(0.4969, abs=1e-3)

    k = grid_result.summary.argmin
    found, kept = grid_result.survivors, screen_result.kept
    pm, pp, qm, qp = (col[k] for col in (found.p_minus, found.p_plus, found.q_minus, found.q_plus))
    assert not ((kept.p_minus == pm) & (kept.p_plus == pp)
                & (kept.q_minus == qm) & (kept.q_plus == qp)).any()
    low = ProbTriple(pm * 0.01, (1.0 - pm * 0.01) - pp * 0.01, pp * 0.01)
    assert discriminant(low) == pytest.approx(-0.1164, abs=1e-6)
    print(f"criterion 5: kept={s.count}, min={s.cfb_min:.4f}, "
          f"mean={s.cfb_mean:.4f}, median={s.cfb_median:.4f}")


def test_criterion_06_linear_gaussian_closed_form():
    """The closed form equals the quadrature route 2 * Pr(Z1 <= 0, Z2 <= 0)
    on a 125-point grid, is exact at perfect correlation, strictly
    increasing in rho, and the sampled counterfactual route agrees."""
    betaxts = (0.25, 0.5, 1.0, 2.0, 4.0)
    sigmas = (0.25, 0.5, 1.0, 2.0, 4.0)
    rhos = (-1.0, -0.5, 0.0, 0.5, 0.9)
    worst = 0.0
    for bxt in betaxts:
        for sg in sigmas:
            for rho in rhos:
                pop = LinearGaussianPopulation(0.0, 0.0, 0.0, bxt, sg, rho)
                got = cfb_linear_gaussian(pop).value
                r = abs(bxt) / math.sqrt(bxt * bxt + 2.0 * sg * sg * (1.0 - rho))
                quad = 2.0 * bivariate_normal_cdf(0.0, 0.0, r)
                worst = max(worst, abs(got - quad))
    assert worst <= 1e-7, f"max deviation {worst:.2e}"

    for bxt, sg in ((0.25, 4.0), (1.0, 1.0), (4.0, 0.25)):
        pop = LinearGaussianPopulation(0.0, 0.0, 0.0, bxt, sg, 1.0)
        assert cfb_linear_gaussian(pop).value == 1.0
        vals = [
            cfb_linear_gaussian(
                LinearGaussianPopulation(0.0, 0.0, 0.0, bxt, sg, rho)).value
            for rho in np.linspace(-1.0, 1.0, 21)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    pop = LinearGaussianPopulation(0.0, 0.0, 0.0, 1.0, 1.0, 0.0)
    closed = cfb_linear_gaussian(pop).value
    est, se = sampled_linear_gaussian_cfb(pop, 1_000_000, SEED)
    assert abs(est - closed) < 3.0 * se
    assert closed == pytest.approx(0.69591, abs=1e-5)
    print(f"criterion 6: max |closed form - quad| = {worst:.2e}, "
          f"mc est={est:.5f} (closed {closed:.5f})")


def test_criterion_07_matching_experiment():
    """Full mass grid in under a minute, with the distribution shape
    holding at more than one seed."""
    t0 = time.perf_counter()
    res = matching_experiment(grid_step=0.001, seed=SEED)
    elapsed = time.perf_counter() - t0
    assert len(res) == 498501
    assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"

    shares = []
    for sweep in (res, matching_experiment(grid_step=0.001, seed=7)):
        defined = ~sweep.undefined
        n_def = int(defined.sum())
        assert n_def > 0
        diffs = sweep.abs_diff[defined]
        share = float((diffs < 0.05).sum()) / n_def
        assert share >= 0.80, f"share below 0.05 is {share:.3f}"
        assert float(diffs.max()) > 0.1
        shares.append(share)
    print(f"criterion 7: cells={len(res)}, shares={shares[0]:.3f}/{shares[1]:.3f}, "
          f"{elapsed:.1f} s")


def test_criterion_08_route_equivalence_on_random_populations():
    """Closed form, pair table and the brute-force oracle agree to
    1e-12 across 10,000 random populations, with the mirror and
    independence properties alongside."""
    rng = random.Random(SEED)

    def rand_triple():
        u, v = sorted((rng.random(), rng.random()))
        return ProbTriple(u, v - u, 1.0 - v)

    agreements = 0
    for k in range(10_000):
        c = 0.02 + 0.96 * rng.random()
        p = rand_triple()
        q = rand_triple()
        atoms = [(b, 0.0, (1.0 - c) * w) for b, w in zip((-1, 0, 1), p.as_tuple())]
        atoms += [(b, 1.0, c * w) for b, w in zip((-1, 0, 1), q.as_tuple())]
        try:
            oracle = empirical_cfb_oracle(atoms)
        except UndefinedCfb:
            continue
        closed = cfb_two_group(c, p, q)
        tabled = cfb_from_pair_table(pair_table(two_group_dist(c, p, q)))
        assert abs(closed.value - oracle.value) <= 1e-12
        assert abs(tabled.value - oracle.value) <= 1e-12
        swapped = cfb_two_group(1.0 - c, q, p)
        assert abs(swapped.value - (1.0 - closed.value)) <= 1e-12
        if k % 10 == 0:
            # decoupled configuration: same benefit triple on both levels
            assert cfb_two_group(c, p, p).value == 0.5
        agreements += 1
    assert agreements > 9_900
    print(f"criterion 8: {agreements} populations, three routes within 1e-12")


def test_criterion_09_round_trips():
    """Benefit triple to response probabilities and back on a 101x101
    grid."""
    ys = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for y0 in ys:
        for y1 in ys:
            triple = benefit_triple_from_outcome_probs(float(y0), float(y1))
            roots = solve_outcome_probs(triple)
            assert roots, (y0, y1)
            # a kept root must push forward onto the same triple; root
            # coordinates themselves are ill-conditioned where the two
            # solutions coincide, the triple residual is not
            best = min(
                max(abs(a - b) for a, b in zip(
                    benefit_triple_from_outcome_probs(r0, r1).as_tuple(),
                    triple.as_tuple()))
                for r0, r1 in roots
            )
            worst = max(worst, best)
    assert worst <= 1e-10, f"worst grid round trip {worst:.2e}"
    print(f"criterion 9: grid {worst:.2e}")
