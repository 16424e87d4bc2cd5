"""Flat single-file reference for the hundredths-grid search and screening.

Enumerates every ordered pair of hundredths triples, applies the two strict
selection inequalities in the frozen floating-point form, attaches the
two-group statistic through the deviation identity, and reports the summary
numbers the test suite pins, with the exact census (the open integer
intervals of the two inequalities) and the split of the float survivors
that lie outside it. Then filters the survivors by the exact integer
discriminant condition and reports the screened-subset statistics, plus the
zero-survivor scan over binary-benefit triples.

Deliberately free of any library imports.
"""

import numpy as np


def triples():
    out = []
    for m in range(101):
        for p in range(101 - m):
            out.append((m, 100 - m - p, p))
    return np.array(out, dtype=np.int64)


def main():
    t = triples()
    n = len(t)
    IM, IP = t[:, 0], t[:, 2]
    vm = IM * 0.01
    vp = IP * 0.01
    v0 = (1.0 - vm) - vp

    dev_list = []
    keyP_list = []
    keyQ_list = []

    block = 256
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        pm = vm[lo:hi, None]
        p0 = v0[lo:hi, None]
        pp = vp[lo:hi, None]
        qm = vm[None, :]
        q0 = v0[None, :]
        qp = vp[None, :]

        chain = qp - qm + pm - pp + qm * pp - qp * pm
        keep = ((qp - qm) > (pp - pm)) & (chain < 0)

        S1 = qp * p0 + qp * pm + q0 * pm
        S2 = qp * q0 + qp * qm + q0 * qm
        S3 = pp * p0 + pp * pm + p0 * pm
        CL = pp * q0 + pp * qm + p0 * qm
        A = 0.25 * (S1 + CL) + (0.25 * S2 + 0.25 * S3)
        with np.errstate(invalid="ignore"):  # 0/0 where both triples sit on one benefit value; never kept
            dev = 0.25 * chain / (2.0 * A)

        pi, qi = np.nonzero(keep)
        dev_list.append(dev[pi, qi])
        keyP_list.append(pi + lo)
        keyQ_list.append(qi)

    dev = np.concatenate(dev_list)
    kP = np.concatenate(keyP_list)
    kQ = np.concatenate(keyQ_list)
    cfb = 0.5 + dev

    print("count = %d" % len(dev))
    i = int(np.argmin(dev))
    print("min cfb = %.17g at P=%s Q=%s" % (cfb[i], tuple(t[kP[i]]), tuple(t[kQ[i]])))
    print("median cfb = %.17g" % np.median(cfb))
    print("max stored cfb = %.17g, count at 0.5 = %d"
          % (cfb.max(), int(np.count_nonzero(cfb == 0.5))))
    print("all deviations negative: %s" % bool(np.all(dev < 0)))
    hist, _ = np.histogram(cfb, bins=50, range=(0.41, 0.50))
    print("hist sum = %d, first/last bins = %d %d" % (hist.sum(), hist[0], hist[-1]))

    # exact census: for a low triple and a high minus level, the qp of the open
    # interval d < qp, qp (100 - pm) < 100 d - qm pp, with d = qm + pp - pm
    pm, pp = IM[:, None], IP[:, None]
    qm = np.arange(101)
    d = qm + pp - pm
    top = np.where(pm < 100, (100 * d - qm * pp - 1) // np.maximum(100 - pm, 1), -1)
    exact = np.maximum(np.minimum(100 - qm, top) - np.maximum(d + 1, 0) + 1, 0).sum()
    # the same two expressions, in integers, on each float survivor
    d2 = (IP[kQ] - IM[kQ]) - (IP[kP] - IM[kP])
    ch = 100 * d2 + IM[kQ] * IP[kP] - IP[kQ] * IM[kP]
    strict = (d2 > 0) & (ch < 0)
    print("exact census = %d, float survivors among them = %d" % (exact, int(strict.sum())))
    print("float-only survivors = %d: equal mean benefit %d, zero chain %d"
          % (int((~strict).sum()), int(np.count_nonzero(d2 == 0)), int(np.count_nonzero(ch == 0))))

    # exact integer discriminant (units of 1e-4): (m - 100 - p)^2 - 400 p
    dm, dp = t[:, 0], t[:, 2]
    disc = (dm - 100 - dp) ** 2 - 400 * dp
    ok = disc >= 0
    kept = ok[kP] & ok[kQ]
    sub = cfb[kept]
    print("screened count = %d" % len(sub))
    print("screened min  = %.17g" % sub.min())
    print("screened mean = %.17g" % sub.mean())
    print("screened median = %.17g" % np.median(sub))
    print("screened max = %.17g" % sub.max())

    # binary benefit: no middle mass on either side
    zz = (t[:, 1] == 0)
    bpairs = zz[kP] & zz[kQ]
    print("binary-benefit survivors = %d" % int(np.count_nonzero(bpairs)))


if __name__ == "__main__":
    main()
