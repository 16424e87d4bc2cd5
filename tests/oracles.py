"""Reference implementations the tests check the library against.

Neither is part of the package: each recomputes a value the library
gets another way, by a route that shares no algebra with it.

- bivariate_normal_cdf integrates the bivariate normal by SciPy's
  quadrature; 2 * bivariate_normal_cdf(0, 0, r) is the check on the
  arcsine in cfb_linear_gaussian (Sheppard's orthant formula).
- empirical_cfb_oracle scores every ordered pair of weighted atoms one
  comparison at a time, the check on the closed forms.
- full_grid_survivors runs the census's frozen float filter on every
  ordered pair of grid triples, the check on grid_search's candidate
  intervals.

The module name has no test_ prefix, so pytest does not collect it;
the test modules import it as `oracles`, from the tests directory that
pytest puts on sys.path.
"""

import math

import numpy as np
from scipy.integrate import quad

from cfb import CfbResult, UndefinedCfb
from cfb.cfb_engine import _two_group_masses

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) * _INV_SQRT_2PI


def _Phi(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def bivariate_normal_cdf(h: float, k: float, r: float) -> float:
    """Pr(Z1 <= h, Z2 <= k) for standard normals with correlation r.

    Computed by one-dimensional quadrature of

        phi(z) * Phi((k - r z) / sqrt(1 - r^2))   over z in (-inf, h),

    split where the inner argument changes sign so the integrand stays
    smooth on each piece.  |r| within 1e-13 of 1 falls back to the exact
    degenerate limits (Z2 = Z1 resp. Z2 = -Z1).  Infinite h or k are
    allowed and reduce to univariate values.
    """
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {r!r}")
    if math.isnan(h) or math.isnan(k):
        raise ValueError("h and k must not be NaN")

    if r >= 1.0 - 1e-13:
        return _Phi(min(h, k))
    if r <= -1.0 + 1e-13:
        return max(0.0, _Phi(h) - _Phi(-k))
    if h == -math.inf or k == -math.inf:
        return 0.0
    if k == math.inf:
        return _Phi(h)
    if h == math.inf:
        return _Phi(k)
    if r == 0.0:
        return _Phi(h) * _Phi(k)

    s = math.sqrt((1.0 - r) * (1.0 + r))

    def integrand(z):
        return _phi(z) * _Phi((k - r * z) / s)

    z_flip = k / r
    if -math.inf < z_flip < h:
        left, _ = quad(integrand, -math.inf, z_flip, epsabs=1e-11, epsrel=1e-11, limit=200)
        right, _ = quad(integrand, z_flip, h, epsabs=1e-11, epsrel=1e-11, limit=200)
        total = left + right
    else:
        total, _ = quad(integrand, -math.inf, h, epsabs=1e-11, epsrel=1e-11, limit=200)
    return min(1.0, max(0.0, total))


def empirical_cfb_oracle(atoms) -> CfbResult:
    """Score every ordered pair of atoms directly.

    atoms is an iterable of (b, h, weight) with nonnegative weights; the
    weights need not be normalized because scale cancels in the ratio.
    Written as the definition, one comparison at a time, precisely so it
    shares no algebra with the closed-form routes it is used to check.
    """
    items = [(float(b), float(h), float(w)) for b, h, w in atoms]
    if any(w < 0.0 for _, _, w in items):
        raise ValueError("atom weights must be nonnegative")
    conc = disc = tied = 0.0
    for bi, hi, wi in items:
        for bj, hj, wj in items:
            if bi > bj:
                w = wi * wj
                if hi > hj:
                    conc += w
                elif hi < hj:
                    disc += w
                else:
                    tied += w
            elif bi < bj:
                w = wi * wj
                if hi < hj:
                    conc += w
                elif hi > hj:
                    disc += w
                else:
                    tied += w
    den = (conc + disc) + tied
    if den == 0.0:
        raise UndefinedCfb("no pair of atoms disagrees in realized benefit")
    num = conc + 0.5 * tied
    return CfbResult(num / den, num, den)


def _scan_block(i0, i1, vm, v0, vp, c):
    """Filter one block of low-level triples against every high-level one.

    Returns (low_idx, high_idx, deviation) arrays for the survivors,
    with the frozen expressions of the census filter.
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


def full_grid_survivors(hund, c):
    """The census of every ordered pair of triples with granularity hund
    (in hundredths), 32 low triples at a time, as the six survivor columns
    (p_minus, p_plus, q_minus, q_plus, cfb_star, deviation)."""
    ints = [(m, p) for m in range(0, 101, hund) for p in range(0, 101 - m, hund)]
    m_arr = np.array([t[0] for t in ints], dtype=np.int64)
    p_arr = np.array([t[1] for t in ints], dtype=np.int64)
    vm = m_arr * 0.01
    vp = p_arr * 0.01
    v0 = (1.0 - vm) - vp
    n = len(ints)
    parts = [_scan_block(i0, min(i0 + 32, n), vm, v0, vp, c) for i0 in range(0, n, 32)]
    low_idx, high_idx, dev = map(np.concatenate, zip(*parts))
    return (m_arr[low_idx], p_arr[low_idx], m_arr[high_idx], p_arr[high_idx], 0.5 + dev, dev)
