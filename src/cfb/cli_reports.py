"""Command line surface: one subcommand per reproducible artifact.

Every run prints or writes CSV with a `#` comment header carrying the
library version and the fully resolved configuration, and no
timestamps, so identical flags give byte-identical output.  Numeric
fields are printed with 10 significant digits.  Result rows are written
from numpy columns through one writer (_emit), files atomically, and
read back by one reader (_read_csv) in blocks of lines.

Exit codes: 0 success, 2 validation or input problems, 3 when the
statistic is undefined for the requested configuration.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .cfb_engine import (
    MatchedBenefitDistribution,
    cfb_linear_gaussian,
    cfb_two_group,
    pair_table,
)
from .counterfactual_screen import screen_improper_set
from .errors import CfbError, UndefinedCfb
from .improper_search import (
    HIST_BINS,
    HIST_RANGE,
    ImproperSet,
    continuous_improper_eval,
    grid_search,
)
from .matched_pairs import matching_experiment
from .population_model import LinearGaussianPopulation, ProbTriple

__all__ = ["RunConfig", "run", "main",
           "IMPROPER_COLUMNS", "REALIZABLE_COLUMNS", "MATCH_COLUMNS"]

IMPROPER_COLUMNS = ("p_minus", "p_zero", "p_plus",
                    "q_minus", "q_zero", "q_plus", "cfb_star")
REALIZABLE_COLUMNS = IMPROPER_COLUMNS + ("y0_x0", "y1_x0", "y0_x1", "y1_x1")
MATCH_COLUMNS = ("a", "b", "beta0", "betax", "betat", "betaxt",
                 "cfb_x", "cfb_h", "abs_diff", "undefined_flag")

_DEFAULT_SEED = 20230516

# the "%.10g" spelling of k/100, as the census files give triple entries
_HUNDREDTH_TEXT = tuple("%.10g" % (k / 100.0) for k in range(101))
_HUNDREDTH_OF = {text: k for k, text in enumerate(_HUNDREDTH_TEXT)}

_ROWS_PER_WRITE = 1 << 14
_CHARS_PER_READ = 1 << 18


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one CLI run, as it appears in headers."""

    subcommand: str
    options: tuple  # ((name, value-string), ...) in declaration order

    def header_lines(self) -> list:
        from . import __version__
        opts = " ".join(f"{k}={v}" for k, v in self.options)
        line = f"# {self.subcommand} {opts}" if opts else f"# {self.subcommand}"
        return [f"# cfb {__version__}", line]


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return "%.10g" % float(x)


def _emit(path, config, lines, fmt=None, columns=()):
    """Write the header, lines, then `fmt % row` for each row of columns.

    fmt ends with a newline; columns are equal-length arrays.  Rows are
    formatted a block at a time, so the whole text is never held at
    once.  path None means stdout.
    """
    def blocks():
        yield "\n".join(config.header_lines() + lines) + "\n"
        for i in range(0, len(columns[0]) if columns else 0, _ROWS_PER_WRITE):
            rows = zip(*(col[i:i + _ROWS_PER_WRITE].tolist() for col in columns))
            yield "".join([fmt % row for row in rows])

    if path is None:
        sys.stdout.writelines(blocks())
    else:
        _write_atomic(path, blocks())


def _write_atomic(path, blocks):
    """Write text blocks to a temporary file beside path, then rename it over path.

    An interrupted write leaves the previous file, or none, and removes
    the temporary one; a reader never sees a short file.  A path that
    exists but is no regular file (a device or pipe) is written in place.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w", newline="") as f:
            f.writelines(blocks)
        return
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as f:
            f.writelines(blocks)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _triple_table():
    """101 x 101 table: [minus, plus] hundredths -> "minus,zero,plus" decimals."""
    h = _HUNDREDTH_TEXT
    return np.array([[f"{h[m]},{h[100 - m - p]},{h[p]}" if m + p <= 100 else ""
                      for p in range(101)] for m in range(101)], dtype=object)


def _csv_blocks(path):
    """Data lines of a CSV, a block at a time; `#` lines and empty lines are dropped."""
    with open(path) as f:
        tail = ""
        while block := f.read(_CHARS_PER_READ):
            lines = (tail + block).split("\n")
            tail = lines.pop()
            yield [line for line in lines if line and line[0] != "#"]
        if tail and tail[0] != "#":
            yield [tail]


def _read_csv(path):
    """(column names, blocks of data lines) of a CSV this module wrote."""
    blocks = _csv_blocks(path)
    for lines in blocks:
        if lines:
            return lines[0].split(","), itertools.chain([lines[1:]], blocks)
    raise ValueError(f"{path}: empty input")


def _hundredths(path, texts):
    """Integer hundredths 0..100 of field texts; a value must lie within 1e-6 of one."""
    try:
        return list(map(_HUNDREDTH_OF.__getitem__, texts))
    except KeyError:
        pass
    out = []
    for text in texts:
        v = float(text)
        if not 0.0 <= v <= 1.0 or abs(v * 100 - round(v * 100)) > 1e-6:
            raise ValueError(f"{path}: {v!r} is not a hundredth between 0 and 1")
        out.append(round(v * 100))
    return out


class _TripleArg:
    """Parsed --p/--q value that remembers its raw spelling for headers."""

    def __init__(self, text: str):
        self.raw = text
        parts = text.split(",")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"expected three comma-separated decimals, got {text!r}")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected three comma-separated decimals, got {text!r}") from None
        total = vals[0] + vals[1] + vals[2]
        if abs(total - 1.0) > 1e-9:
            raise argparse.ArgumentTypeError(
                f"triple {text!r} sums to {total!r}, not 1")
        if total != 1.0:
            vals = [v / total for v in vals]
        try:
            self.triple = ProbTriple(*vals)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None


class _RhoRangeArg:
    """Parsed --rho start:stop:step value."""

    def __init__(self, text: str):
        self.raw = text
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"expected start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected start:stop:step, got {text!r}") from None
        if step <= 0.0 or stop < start:
            raise argparse.ArgumentTypeError("need stop >= start and step > 0")
        count = round((stop - start) / step) + 1
        if abs(start + (count - 1) * step - stop) > 1e-9:
            raise argparse.ArgumentTypeError(
                f"step {step} does not evenly divide [{start}, {stop}]")
        self.start = start
        self.stop = stop
        self.count = count

    def values(self):
        return np.linspace(self.start, self.stop, self.count)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_eval_discrete(args) -> int:
    cfg = RunConfig("eval-discrete", (
        ("c", _fmt(args.c)),
        ("p", args.p.raw),
        ("q", args.q.raw),
    ))
    dist = MatchedBenefitDistribution((
        (0.0, 1.0 - args.c, args.p.triple),
        (1.0, args.c, args.q.triple),
    ))
    table = pair_table(dist)
    res = cfb_two_group(args.c, args.p.triple, args.q.triple)
    lines = ["h_rel,b_lt,b_eq,b_gt"]
    for rel in ("<", "=", ">"):
        cells = [table.entry(rel, b) for b in ("<", "=", ">")]
        lines.append(",".join([rel] + [_fmt(v) for v in cells]))
    lines.append(f"cfb_star,{_fmt(res.value)}")
    lines.append(f"numerator,{_fmt(res.numerator)}")
    lines.append(f"denominator,{_fmt(res.denominator)}")
    _emit(None, cfg, lines)
    return 0


def _cmd_search(args) -> int:
    cfg = RunConfig("search", (
        ("step", _fmt(args.step)),
        ("c", _fmt(args.c)),
        ("out", args.out),
        ("hist-out", args.hist_out),
    ))
    result = grid_search(args.step, args.c)

    found = result.survivors
    triples = _triple_table()
    _emit(args.out, cfg, [",".join(IMPROPER_COLUMNS)], "%s,%s,%.10g\n",
          (triples[found.p_minus, found.p_plus], triples[found.q_minus, found.q_plus],
           found.cfb_star))

    s = result.summary
    hist_lines = ["bin_left,bin_right,count"]
    for k in range(len(s.hist_counts)):
        hist_lines.append(
            f"{_fmt(s.hist_edges[k])},{_fmt(s.hist_edges[k + 1])},{s.hist_counts[k]}")
    _emit(args.hist_out, cfg, hist_lines)

    lines = [f"count,{s.count}",
             f"cfb_min,{_fmt(s.cfb_min)}",
             f"cfb_median,{_fmt(s.cfb_median)}",
             f"cfb_max,{_fmt(s.cfb_max)}"]
    if s.argmin is not None:
        pd = s.argmin.triple_p.decimals()
        qd = s.argmin.triple_q.decimals()
        lines.append("argmin_p," + ",".join(_fmt(v) for v in pd))
        lines.append("argmin_q," + ",".join(_fmt(v) for v in qd))
    _emit(None, cfg, lines)
    return 0


def _read_improper_csv(path) -> ImproperSet:
    """The findings of a `search` CSV, checked row by row."""
    header, blocks = _read_csv(path)
    if tuple(header) != IMPROPER_COLUMNS:
        raise ValueError(f"{path}: unexpected columns {header!r}")
    width = len(IMPROPER_COLUMNS)
    hund = [[] for _ in range(6)]
    cfb = []
    for lines in blocks:
        if not lines:
            continue
        if set(map(str.count, lines, itertools.repeat(","))) != {width - 1}:
            bad = next(line for line in lines if line.count(",") != width - 1)
            raise ValueError(f"{path}: malformed row {bad.split(',')!r}")
        fields = ",".join(lines).split(",")
        for k, col in enumerate(hund):
            col += _hundredths(path, fields[k::width])
        cfb += map(float, fields[6::width])
    h = np.array(hund, dtype=np.int64).reshape(6, -1)
    bad = (h[:3].sum(axis=0) != 100) | (h[3:].sum(axis=0) != 100)
    if bad.any():
        raise ValueError(f"{path}: data row {int(np.argmax(bad)) + 1} does not hold two "
                         "triples summing to 1")
    cfb = np.array(cfb, dtype=np.float64)
    return ImproperSet(h[0], h[2], h[3], h[5], cfb, cfb - 0.5)


def _cmd_screen_cf(args) -> int:
    cfg = RunConfig("screen-cf", (
        ("in", args.inp),
        ("out", args.out),
        ("hist-out", args.hist_out),
    ))
    found = _read_improper_csv(args.inp)
    res = screen_improper_set(found)

    kept = res.kept
    triples = _triple_table()
    # (y0, y1) of the first root of the low, then the high triple
    roots = np.array([ev.roots_low[0] + ev.roots_high[0] for ev in res.realizability],
                     dtype=np.float64).reshape(-1, 4)
    _emit(args.out, cfg, [",".join(REALIZABLE_COLUMNS)], "%s,%s" + ",%.10g" * 5 + "\n",
          (triples[kept.p_minus, kept.p_plus], triples[kept.q_minus, kept.q_plus],
           kept.cfb_star, *roots.T))

    c_all, edges = np.histogram(found.cfb_star, bins=HIST_BINS, range=HIST_RANGE)
    c_kept, _ = np.histogram(kept.cfb_star, bins=HIST_BINS, range=HIST_RANGE)
    hist_lines = ["bin,count_all,count_realizable"]
    for k in range(HIST_BINS):
        hist_lines.append(f"{_fmt(edges[k])},{int(c_all[k])},{int(c_kept[k])}")
    _emit(args.hist_out, cfg, hist_lines)

    s = res.summary
    _emit(None, cfg, [
        f"count,{s.count}",
        f"cfb_min,{_fmt(s.cfb_min)}",
        f"cfb_mean,{_fmt(s.cfb_mean)}",
        f"cfb_median,{_fmt(s.cfb_median)}",
        f"cfb_max,{_fmt(s.cfb_max)}",
    ])
    return 0


def _cmd_beta_mc(args) -> int:
    cfg = RunConfig("beta-mc", (
        ("alpha", _fmt(args.alpha)),
        ("beta", _fmt(args.beta)),
        ("p", args.p.raw),
        ("q", args.q.raw),
        ("n", str(args.n)),
        ("seed", str(args.seed)),
    ))
    est, se = continuous_improper_eval(
        args.alpha, args.beta, args.p.triple, args.q.triple, args.n, args.seed)
    _emit(None, cfg, [
        f"estimate,{_fmt(est)}",
        f"std_error,{_fmt(se)}",
        f"pairs,{args.n}",
    ])
    return 0


def _cmd_rho_sweep(args) -> int:
    cfg = RunConfig("rho-sweep", (
        ("beta-xt", _fmt(args.beta_xt)),
        ("sigma", _fmt(args.sigma)),
        ("rho", args.rho.raw),
        ("out", args.out if args.out else "-"),
    ))
    lines = ["rho,cfb_star"]
    for rho in args.rho.values():
        pop = LinearGaussianPopulation(0.0, 0.0, 0.0, args.beta_xt, args.sigma, float(rho))
        res = cfb_linear_gaussian(pop)
        lines.append(f"{_fmt(rho)},{_fmt(res.value)}")
    _emit(args.out, cfg, lines)
    return 0


def _cmd_match_compare(args) -> int:
    cfg = RunConfig("match-compare", (
        ("step", _fmt(args.step)),
        ("coeff-min", _fmt(args.coeff_min)),
        ("coeff-max", _fmt(args.coeff_max)),
        ("seed", str(args.seed)),
        ("out", args.out),
        ("hist-out", args.hist_out),
    ))
    result = matching_experiment(args.step, (args.coeff_min, args.coeff_max), args.seed)

    r = result
    _emit(args.out, cfg, [",".join(MATCH_COLUMNS)], "%.10g," * 9 + "%d\n",
          (r.a, r.b, r.beta0, r.betax, r.betat, r.betaxt,
           r.cfb_covariate, r.cfb_prediction, r.abs_diff, r.undefined))

    hist_lines = ["bin_left,bin_right,count"]
    for k in range(len(result.hist_counts)):
        hist_lines.append(
            f"{_fmt(result.hist_edges[k])},{_fmt(result.hist_edges[k + 1])},{result.hist_counts[k]}")
    _emit(args.hist_out, cfg, hist_lines)

    defined = ~result.undefined
    n_def = int(defined.sum())
    if n_def:
        diffs = result.abs_diff[defined]
        share = float((diffs < 0.05).sum()) / n_def
        dmax = float(diffs.max())
    else:
        share = dmax = float("nan")
    _emit(None, cfg, [
        f"cells,{len(result)}",
        f"defined,{n_def}",
        f"share_below_0.05,{_fmt(share)}",
        f"max_abs_diff,{_fmt(dmax)}",
    ])
    return 0


def _cmd_hist(args) -> int:
    cfg = RunConfig("hist", (
        ("in", args.inp),
        ("col", args.col),
        ("bins", str(args.bins)),
        ("lo", _fmt(args.lo) if args.lo is not None else "auto"),
        ("hi", _fmt(args.hi) if args.hi is not None else "auto"),
        ("out", args.out if args.out else "-"),
    ))
    header, blocks = _read_csv(args.inp)
    if args.col not in header:
        raise ValueError(f"{args.inp}: no column named {args.col!r}")
    idx = header.index(args.col)
    vals = []
    for lines in blocks:
        try:
            vals += map(float, [line.split(",")[idx] for line in lines])
        except IndexError:
            raise ValueError(f"{args.inp}: a row has no {args.col!r} field") from None
    vals = np.array(vals, dtype=np.float64)
    vals = vals[~np.isnan(vals)]
    if not vals.size:
        raise ValueError(f"{args.inp}: column {args.col!r} has no usable values")
    lo = args.lo if args.lo is not None else min(vals.tolist())
    hi = args.hi if args.hi is not None else max(vals.tolist())
    if not lo < hi:
        raise ValueError("need lo < hi for the histogram range")
    counts, edges = np.histogram(vals, bins=args.bins, range=(lo, hi))
    lines = ["bin_left,bin_right,count"]
    for k in range(args.bins):
        lines.append(f"{_fmt(edges[k])},{_fmt(edges[k + 1])},{int(counts[k])}")
    _emit(args.out, cfg, lines)
    return 0


# ---------------------------------------------------------------------------
# parser assembly and entry points
# ---------------------------------------------------------------------------


def _add_triple_args(sp):
    sp.add_argument("--p", dest="p", type=_TripleArg, required=True,
                    help="low-level benefit triple: minus,zero,plus")
    sp.add_argument("--q", dest="q", type=_TripleArg, required=True,
                    help="high-level benefit triple: minus,zero,plus")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfb",
        description="concordance-for-benefit computations and reports",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("eval-discrete",
                        help="pair table and statistic for two covariate levels")
    sp.add_argument("--c", type=float, default=0.5,
                    help="mass of the high-h level (default 0.5)")
    _add_triple_args(sp)
    sp.set_defaults(func=_cmd_eval_discrete)

    sp = sub.add_parser("search", help="exhaustive below-chance grid search")
    sp.add_argument("--step", type=float, default=0.01)
    sp.add_argument("--c", type=float, default=0.5)
    sp.add_argument("--out", default="improper.csv")
    sp.add_argument("--hist-out", dest="hist_out", default="fig1_hist.csv")
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("screen-cf",
                        help="keep findings realizable from independent responses")
    sp.add_argument("--in", dest="inp", default="improper.csv")
    sp.add_argument("--out", default="realizable.csv")
    sp.add_argument("--hist-out", dest="hist_out", default="fig6_hist.csv")
    sp.set_defaults(func=_cmd_screen_cf)

    sp = sub.add_parser("beta-mc",
                        help="Monte Carlo statistic for a Beta-mixed pair")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    _add_triple_args(sp)
    sp.add_argument("--n", type=int, default=1_000_000, help="sampled pairs")
    sp.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    sp.set_defaults(func=_cmd_beta_mc)

    sp = sub.add_parser("rho-sweep",
                        help="closed-form statistic over a response-correlation range")
    sp.add_argument("--beta-xt", dest="beta_xt", type=float, required=True)
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--rho", type=_RhoRangeArg, default=_RhoRangeArg("-1:1:0.1"),
                    help="start:stop:step (default -1:1:0.1)")
    sp.add_argument("--out", default=None, help="CSV path (default stdout)")
    # lets --rho -1:1:0.1 parse; tokens starting -<digit> are values here
    sp._negative_number_matcher = re.compile(r"^-\d")
    sp.set_defaults(func=_cmd_rho_sweep)

    sp = sub.add_parser("match-compare",
                        help="matching-factor comparison over the mass grid")
    sp.add_argument("--step", type=float, default=0.001)
    sp.add_argument("--coeff-min", dest="coeff_min", type=float, default=-5.0)
    sp.add_argument("--coeff-max", dest="coeff_max", type=float, default=5.0)
    sp.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    sp.add_argument("--out", default="match_diffs.csv")
    sp.add_argument("--hist-out", dest="hist_out", default="fig2_hist.csv")
    sp.set_defaults(func=_cmd_match_compare)

    sp = sub.add_parser("hist", help="histogram a column of an emitted CSV")
    sp.add_argument("--in", dest="inp", required=True)
    sp.add_argument("--col", required=True)
    sp.add_argument("--bins", type=int, default=50)
    sp.add_argument("--lo", type=float, default=None)
    sp.add_argument("--hi", type=float, default=None)
    sp.add_argument("--out", default=None, help="CSV path (default stdout)")
    sp.set_defaults(func=_cmd_hist)

    return parser


def run(argv) -> int:
    """Parse argv (no program name) and execute; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return args.func(args)
    except UndefinedCfb as e:
        print(f"cfb: undefined statistic: {e}", file=sys.stderr)
        return 3
    except CfbError as e:
        print(f"cfb: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"cfb: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
