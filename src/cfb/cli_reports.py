"""Command line surface: one subcommand per reproducible artifact.

Every run prints or writes CSV with a `#` comment header carrying the
library version and the fully resolved configuration, and no
timestamps, so identical flags give byte-identical output.  Numeric
fields are printed with 10 significant digits.  Everything is written
through one writer (_emit), files atomically.  The array commands'
rows come to it as byte blocks, formatted by cfb._csv, which also
reads the CSV that `hist` and `screen-cf` take and bins every
histogram file.

Each subcommand's flags are declared once, in _COMMANDS: name, parser,
default and the header text of an unset value.  The argument parser,
the value checks and the `#` header all come from that table.

Each handler imports the modules it runs when it is called:
`import cfb.cli_reports` loads no kernel and no numpy, and
`eval-discrete` and `rho-sweep`, whose results are scalar arithmetic,
run without numpy.  The four commands that read or write CSV rows
import cfb._csv before their kernel module, so that it is compiled
before numpy is loaded: the other order raised `search`'s peak memory
(ru_maxrss) by 0.8 MB.
The five array commands first ask glibc's malloc to keep the memory they
free (_keep_freed_memory), so each block's buffers reuse the pages of
the block before instead of being faulted in again.  The process entry
(main) loads OpenBLAS single-threaded, since no command calls BLAS, and
freezes the garbage collector once the command is done, so shutdown does
not walk every object the imports made.

Exit codes: 0 success, 2 validation or input problems, 3 when the
statistic is undefined for the requested configuration.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CfbError, UndefinedCfb

__all__ = ["RunConfig", "run", "main",
           "IMPROPER_COLUMNS", "REALIZABLE_COLUMNS", "MATCH_COLUMNS"]

IMPROPER_COLUMNS = ("p_minus", "p_zero", "p_plus",
                    "q_minus", "q_zero", "q_plus", "cfb_star")
REALIZABLE_COLUMNS = IMPROPER_COLUMNS + ("y0_x0", "y1_x0", "y0_x1", "y1_x1")
MATCH_COLUMNS = ("a", "b", "beta0", "betax", "betat", "betaxt",
                 "cfb_x", "cfb_h", "abs_diff", "undefined_flag")

# the most values a flag may ask for, checked before anything is allocated
_MAX_RHO_POINTS = 1_000_000  # rho-sweep --rho
_MAX_HIST_BINS = 1_000_000  # hist --bins: one output row per bin, as --rho has per point
_MAX_MC_PAIRS = 10_000_000_000  # beta-mc --n: 10,000 chunks, far below 2**53 pairs

# glibc's mallopt parameters (malloc.h) and the values _keep_freed_memory sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20  # glibc's largest: requests below it come from the heap
_TRIM_THRESHOLD = 1 << 30  # free heap the process keeps before returning any to the kernel


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


def _keep_freed_memory():
    """Have glibc's malloc keep freed memory in the process for the rest of the command.

    The array commands allocate and free buffers of 1-16 MB per block of
    rows or Monte Carlo chunk.  glibc's default serves those with mmap
    and trims the heap, returning the pages to the kernel on free, so
    every block faults them in again.  Serving them from the heap and
    never trimming it lets the next block reuse the same pages.  Does
    nothing where there is no mallopt (a C library other than glibc).
    """
    try:
        import ctypes  # numpy has imported it already

        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _fmt(x) -> str:
    np = sys.modules.get("numpy")  # a numpy integer exists only once numpy is imported
    integer = isinstance(x, int) or np is not None and isinstance(x, np.integer)
    if integer and not isinstance(x, bool):
        return str(int(x))
    return "%.10g" % float(x)


def _emit(path, config, lines, blocks=()):
    """Write the header, lines, then blocks: byte blocks of rows, each ending
    in a newline (such as cfb._csv.row_blocks), written as they come, so the
    whole text is never held at once.  path None means stdout.
    """
    head = "\n".join(config.header_lines() + lines) + "\n"
    if path is None:
        sys.stdout.write(head)
        sys.stdout.writelines(block.decode("ascii") for block in blocks)
    else:
        _write_atomic(path, head, blocks)


def _write_atomic(path, head, blocks):
    """Write the text head and then byte blocks to a temporary file beside path,
    then rename it over path.

    An interrupted write leaves the previous file, or none, and removes
    the temporary one; a reader never sees a short file, and an OSError
    names path.  A path that exists but is no regular file (a device or
    pipe) is written in place.
    """
    def write(name):
        with open(name, "w", newline="") as f:
            f.write(head)
            f.flush()
            f.buffer.writelines(blocks)

    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        write(path)
        return
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, target)
    except BaseException as e:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError):  # name the file the caller asked for, not the temporary one
            raise OSError(e.errno, e.strerror, path) from e
        raise


class _TripleArg:
    """Parsed --p/--q value that remembers its raw spelling for headers."""

    def __init__(self, text: str):
        self.raw = text
        try:
            minus, zero, plus = map(float, text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected three comma-separated decimals, got {text!r}") from None
        total = minus + zero + plus
        if abs(total - 1.0) > 1e-9:
            raise argparse.ArgumentTypeError(
                f"triple {text!r} sums to {total!r}, not 1")
        from .population_model import ProbTriple

        try:
            self.triple = ProbTriple(minus / total, zero / total, plus / total)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None


class _RhoRangeArg:
    """Parsed --rho start:stop:step value of at most _MAX_RHO_POINTS points."""

    def __init__(self, text: str):
        self.raw = text
        try:
            start, stop, step = map(float, text.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected start:stop:step, got {text!r}") from None
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise argparse.ArgumentTypeError(
                f"start, stop and step must be finite, got {text!r}")
        if step <= 0.0 or stop < start:
            raise argparse.ArgumentTypeError("need stop >= start and step > 0")
        steps = (stop - start) / step
        if not math.isfinite(steps):
            raise argparse.ArgumentTypeError(f"(stop - start) / step overflows in {text!r}")
        count = round(steps) + 1
        if count > _MAX_RHO_POINTS:  # checked before any value is built
            raise argparse.ArgumentTypeError(
                f"{text!r} makes {steps + 1:.10g} points, more than {_MAX_RHO_POINTS:,}")
        if abs(start + (count - 1) * step - stop) > 1e-9:
            raise argparse.ArgumentTypeError(
                f"step {step} does not evenly divide [{start}, {stop}]")
        self.start = start
        self.stop = stop
        self.count = count

    def values(self):
        """The count points from start to stop as floats, bit for bit as np.linspace gives them:
        i * step + start with step = (stop - start) / (count - 1), and stop last."""
        n = self.count - 1
        step = (self.stop - self.start) / n if n else 0.0
        values = [float(i) * step + self.start for i in range(self.count)]
        if n:
            values[-1] = self.stop
        return values


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_eval_discrete(args, cfg) -> int:
    from .cfb_engine import MatchedBenefitDistribution, cfb_two_group, pair_table

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


def _cmd_search(args, cfg) -> int:
    from ._csv import HIST_BINS, HIST_RANGE, _hist_lines, _triple_table, row_blocks
    from .improper_search import grid_search

    _keep_freed_memory()
    result = grid_search(args.step, args.c)

    found = result.survivors
    triples = _triple_table()
    _emit(args.out, cfg, [",".join(IMPROPER_COLUMNS)], row_blocks(
        (triples[found.p_minus, found.p_plus], triples[found.q_minus, found.q_plus], found.cfb_star)))

    _emit(args.hist_out, cfg, _hist_lines(found.cfb_star, HIST_BINS, *HIST_RANGE))

    s = result.summary
    lines = [f"count,{s.count}",
             f"cfb_min,{_fmt(s.cfb_min)}",
             f"cfb_median,{_fmt(s.cfb_median)}",
             f"cfb_max,{_fmt(s.cfb_max)}"]
    if s.argmin is not None:
        k = s.argmin
        lines.append("argmin_p," + triples[found.p_minus[k], found.p_plus[k]].decode())
        lines.append("argmin_q," + triples[found.q_minus[k], found.q_plus[k]].decode())
    _emit(None, cfg, lines)
    return 0


def _cmd_screen_cf(args, cfg) -> int:
    from ._csv import (HIST_BINS, HIST_RANGE, _binned, _read_improper_csv,  # before numpy: see the module docstring
                       _triple_table, row_blocks)
    import numpy as np

    from .counterfactual_screen import screen_improper_set

    _keep_freed_memory()
    found = _read_improper_csv(args.inp)
    res = screen_improper_set(found)

    kept = res.kept
    triples = _triple_table()
    # (y0, y1) of each kept triple's first root, by its (minus, plus) hundredths
    first_root = np.zeros((101, 101, 2))
    for (minus, plus), (roots, _) in res.solutions.items():
        first_root[minus, plus] = roots[0]
    _emit(args.out, cfg, [",".join(REALIZABLE_COLUMNS)], row_blocks(
        (triples[kept.p_minus, kept.p_plus], triples[kept.q_minus, kept.q_plus],
         kept.cfb_star, *first_root[kept.p_minus, kept.p_plus].T,
         *first_root[kept.q_minus, kept.q_plus].T)))

    # one note, of all rows: the realizable rows are some of them
    edges, c_all, notes = _binned(found.cfb_star, HIST_BINS, *HIST_RANGE)
    _, c_kept, _ = _binned(kept.cfb_star, HIST_BINS, *HIST_RANGE)
    _emit(args.hist_out, cfg, notes + ["bin,count_all,count_realizable"] + [
        f"{_fmt(edge)},{n_all},{n_kept}" for edge, n_all, n_kept in zip(edges, c_all, c_kept)])

    s = res.summary
    _emit(None, cfg, [
        f"count,{s.count}",
        f"cfb_min,{_fmt(s.cfb_min)}",
        f"cfb_mean,{_fmt(s.cfb_mean)}",
        f"cfb_median,{_fmt(s.cfb_median)}",
        f"cfb_max,{_fmt(s.cfb_max)}",
    ])
    return 0


def _cmd_beta_mc(args, cfg) -> int:
    from .cfb_engine import cfb_monte_carlo
    from .improper_search import cross_pair_reversal, mean_benefit_increasing
    from .population_model import BetaXPopulation

    _keep_freed_memory()
    p, q = args.p.triple, args.q.triple
    # the endpoints must be a below-chance pair themselves, which catches typos in
    # hand-copied triples: the question is whether the Beta mixture keeps the pathology
    if not (mean_benefit_increasing(p, q) and cross_pair_reversal(p, q)):
        raise ValueError("endpoint triples must satisfy both below-chance conditions "
                         "(increasing mean benefit, cross-pair reversal)")
    est, se = cfb_monte_carlo(BetaXPopulation(args.alpha, args.beta, p, q), args.n, args.seed)
    _emit(None, cfg, [
        f"estimate,{_fmt(est)}",
        f"std_error,{_fmt(se)}",
        f"pairs,{args.n}",
    ])
    return 0


def _cmd_rho_sweep(args, cfg) -> int:
    from .cfb_engine import cfb_linear_gaussian
    from .population_model import LinearGaussianPopulation

    lines = ["rho,cfb_star"]
    for rho in args.rho.values():
        pop = LinearGaussianPopulation(0.0, 0.0, 0.0, args.beta_xt, args.sigma, rho)
        res = cfb_linear_gaussian(pop)
        lines.append(f"{_fmt(rho)},{_fmt(res.value)}")
    _emit(args.out, cfg, lines)
    return 0


def _cmd_match_compare(args, cfg) -> int:
    """The sweep's rows, written by min(CFB_THREADS, sweep blocks) processes.

    The grid's sweep blocks go to _fork.in_order, which cuts them into
    runs; each run's blocks come back in order as (text, abs_diff,
    undefined), swept and formatted by this process for the first run
    and by a worker for each other.  This process writes the texts into
    the output's temporary file and copies the columns into whole
    abs_diff and undefined columns, from which the histogram and the
    summary come.  a and b are multiples of the grid step, formatted by
    lookup in a table of i * step for every i.
    """
    from ._csv import (DIFF_HIST_BINS, DIFF_HIST_RANGE, _hist_lines,  # before numpy: see the module docstring
                       _RowText)
    import numpy as np

    from ._fork import in_order
    from .matched_pairs import _grid, _sweep

    _keep_freed_memory()
    grid = _grid(args.step, (args.coeff_min, args.coeff_max), args.seed)
    n = grid.cells
    steps = np.array(["%.10g" % v for v in (np.arange(grid.inv + 1) * grid.step).tolist()], "S")
    abs_diff, undefined = np.empty(n), np.empty(n, bool)

    def produce(starts):
        text = _RowText()
        for _, i, j, columns in _sweep(grid, starts):
            yield text.rows([steps[i], steps[j], *columns[2:]]), *columns[-2:]

    def rows(items):
        done = 0
        for text, diff, flag in items:
            cells = slice(done, done + len(diff))
            abs_diff[cells], undefined[cells] = diff, flag
            done = cells.stop
            del diff, flag
            yield text
            del text  # no block is held while the next one is made
            yield b"\n"

    _emit(args.out, cfg, [",".join(MATCH_COLUMNS)], rows(in_order("match-compare", produce, grid.blocks)))

    diffs = abs_diff[~undefined]
    _emit(args.hist_out, cfg, _hist_lines(diffs, DIFF_HIST_BINS, *DIFF_HIST_RANGE))

    if diffs.size:
        share = float((diffs < 0.05).sum()) / diffs.size
        dmax = float(diffs.max())
    else:
        share = dmax = float("nan")
    _emit(None, cfg, [
        f"cells,{n}",
        f"defined,{diffs.size}",
        f"share_below_0.05,{_fmt(share)}",
        f"max_abs_diff,{_fmt(dmax)}",
    ])
    return 0


def _cmd_hist(args, cfg) -> int:
    from ._csv import _hist_lines, _read_column  # before numpy: see the module docstring
    import numpy as np

    _keep_freed_memory()
    vals = _read_column(args.inp, args.col)
    nan = vals.size
    vals = vals[~np.isnan(vals)]
    nan -= vals.size
    if not vals.size:
        raise ValueError(f"{args.inp}: column {args.col!r} has no usable values")
    # the first extreme, as min() and max() take it, so a 0.0 or -0.0 edge keeps its sign
    lo = args.lo if args.lo is not None else float(vals[vals.argmin()])
    hi = args.hi if args.hi is not None else float(vals[vals.argmax()])
    if not lo < hi:
        raise ValueError("need lo < hi for the histogram range")
    if not math.isfinite(hi - lo):  # numpy would warn, then name a symptom
        raise ValueError(f"histogram range [{_fmt(lo)}, {_fmt(hi)}] is too wide: hi - lo is not finite")
    edges = np.linspace(lo, hi, args.bins + 1)  # the edges np.histogram makes
    if not (edges[:-1] < edges[1:]).all():
        raise ValueError(f"histogram range [{_fmt(lo)}, {_fmt(hi)}] is too narrow for {args.bins} bins: "
                         f"hi - lo = {_fmt(hi - lo)} gives no {args.bins + 1} distinct edges; "
                         f"widen --lo and --hi or lower --bins")
    _emit(args.out, cfg, _hist_lines(vals, args.bins, lo, hi, nan))
    return 0


# ---------------------------------------------------------------------------
# the subcommand table, parser assembly and entry points
# ---------------------------------------------------------------------------


def _number(convert, need, ok=lambda v: True):
    """Parser of a flag's text: convert(text), rejected as not `need` if that fails or is not ok."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {value!r}")
        return value
    return parse


_REAL = _number(float, "a number")  # the kernels check the values they take
_COUNT = _number(int, "a positive integer", lambda n: n > 0)
# both seeds are non-negative, checked here so the message names --seed
_SEED = _number(int, "a non-negative integer", lambda n: n >= 0)


def _count_up_to(cap):
    """Parser of a _COUNT flag that asks for at most cap values."""
    def parse(text):
        n = _COUNT(text)
        if n > cap:
            raise argparse.ArgumentTypeError(f"must be at most {cap:,}, got {n}")
        return n
    return parse


def _match_seed(text):
    """match-compare's --seed: in matching_experiment's seed range, below 2**64."""
    from .matched_pairs import _seed_in_range

    seed = _SEED(text)
    if not _seed_in_range(seed):
        raise argparse.ArgumentTypeError(f"must be below 2**64, got {seed}")
    return seed


def _grid_step(text):
    """match-compare's --step: one whose grid has at most matching_experiment's cell cap;
    a step with no grid at all is left to its own checks, which name the problem."""
    from .matched_pairs import _MAX_CELLS, _grid_cells

    return _number(float, f"a step giving at most {_MAX_CELLS:,} grid cells",
                   lambda step: _grid_cells(step) <= _MAX_CELLS)(text)


def _coeff_bound(text):
    """match-compare's --coeff-min and --coeff-max: a bound whose linear predictor stays
    finite; infinite bounds are left to the kernel."""
    from .matched_pairs import _predictor_finite

    return _number(float, "a number whose linear predictor |beta0| + 2|betax| + |betat| + 2|betaxt| "
                   "is finite", lambda v: _predictor_finite(v) or not math.isfinite(v))(text)


class _Flag(NamedTuple):
    """One option of a subcommand: its name, parser, default and header text.

    parse turns the typed text into the handler's value and raises
    argparse.ArgumentTypeError naming the problem.  default is the text
    an omitted flag takes; a flag with neither default nor absent must
    be given, and one with absent may stay unset: its value is None and
    the header shows absent.  Typing absent as the value leaves it unset.
    """

    name: str
    parse: object = str
    default: str | None = None
    absent: str | None = None
    help: str | None = None

    @property
    def dest(self):  # "in" is a keyword, so the handlers read args.inp
        return "inp" if self.name == "in" else self.name.replace("-", "_")


class _Command(NamedTuple):
    help: str
    handler: object  # handler(args, cfg) -> exit code
    flags: tuple  # _Flag, in header order


_TRIPLE_FLAGS = (_Flag("p", _TripleArg, help="low-level benefit triple: minus,zero,plus"),
                 _Flag("q", _TripleArg, help="high-level benefit triple: minus,zero,plus"))
_RANGE_END = _number(float, "a finite number (need lo < hi for the histogram range)", math.isfinite)

_COMMANDS = {
    "eval-discrete": _Command("pair table and statistic for two covariate levels", _cmd_eval_discrete, (
        # checked here: the pair table's own checks would name a symptom, not --c
        _Flag("c", _number(float, "a finite value strictly inside (0, 1)", lambda c: 0.0 < c < 1.0),
              "0.5", help="mass of the high-h level"),
        *_TRIPLE_FLAGS)),
    "search": _Command("exhaustive below-chance grid search", _cmd_search, (
        _Flag("step", _REAL, "0.01"),
        _Flag("c", _REAL, "0.5"),
        _Flag("out", default="improper.csv"),
        _Flag("hist-out", default="fig1_hist.csv"))),
    "screen-cf": _Command("keep findings realizable from independent responses", _cmd_screen_cf, (
        _Flag("in", default="improper.csv"),
        _Flag("out", default="realizable.csv"),
        _Flag("hist-out", default="fig6_hist.csv"))),
    "beta-mc": _Command("Monte Carlo statistic for a Beta-mixed pair", _cmd_beta_mc, (
        _Flag("alpha", _REAL),
        _Flag("beta", _REAL),
        *_TRIPLE_FLAGS,
        _Flag("n", _count_up_to(_MAX_MC_PAIRS), "1000000", help="sampled pairs"),
        _Flag("seed", _SEED, "20230516"))),
    "rho-sweep": _Command("closed-form statistic over a response-correlation range", _cmd_rho_sweep, (
        _Flag("beta-xt", _REAL),
        _Flag("sigma", _REAL, "1"),
        _Flag("rho", _RhoRangeArg, "-1:1:0.1", help="start:stop:step"),
        _Flag("out", absent="-", help="CSV path (default stdout)"))),
    "match-compare": _Command("matching-factor comparison over the mass grid", _cmd_match_compare, (
        _Flag("step", _grid_step, "0.001"),
        _Flag("coeff-min", _coeff_bound, "-5"),
        _Flag("coeff-max", _coeff_bound, "5"),
        _Flag("seed", _match_seed, "20230516"),
        _Flag("out", default="match_diffs.csv"),
        _Flag("hist-out", default="fig2_hist.csv"))),
    "hist": _Command("histogram a column of an emitted CSV", _cmd_hist, (
        _Flag("in"),
        _Flag("col"),
        _Flag("bins", _count_up_to(_MAX_HIST_BINS), "50"),
        _Flag("lo", _RANGE_END, absent="auto", help="range start (default the column's minimum)"),
        _Flag("hi", _RANGE_END, absent="auto", help="range end (default the column's maximum)"),
        _Flag("out", absent="-", help="CSV path (default stdout)"))),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of _COMMANDS; it leaves each flag's value as the text given."""
    parser = argparse.ArgumentParser(
        prog="cfb",
        description="concordance-for-benefit computations and reports",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # no option name starts with "-" and a digit, ".", "inf" or "nan", so such a
    # token is a value: --coeff-min -1e1, --rho -inf:0:1 and --p -0.1,... reach
    # their flag's own check instead of argparse's "expected one argument"
    negative_number = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp._negative_number_matcher = negative_number
        for flag in command.flags:
            required = flag.default is None and flag.absent is None
            note = "(required)" if required else flag.default and f"(default {flag.default})"
            sp.add_argument("--" + flag.name, dest=flag.dest, default=flag.default, required=required,
                            help=" ".join(filter(None, (flag.help, note))))
    return parser


def _header_text(value) -> str:
    """A parsed flag value as the `#` header spells it."""
    if isinstance(value, (int, float)):
        return _fmt(value)
    return getattr(value, "raw", value)


def run(argv) -> int:
    """Parse argv (no program name) and execute; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    command = _COMMANDS[args.subcommand]
    options = []
    for flag in command.flags:
        text = getattr(args, flag.dest)
        try:
            # the header's spelling of an unset flag means unset when typed too
            value = None if text in (None, flag.absent) else flag.parse(text)
        except argparse.ArgumentTypeError as e:
            print(f"cfb: --{flag.name} {e}", file=sys.stderr)
            return 2
        setattr(args, flag.dest, value)
        options.append((flag.name, flag.absent if value is None else _header_text(value)))
    try:
        return command.handler(args, RunConfig(args.subcommand, tuple(options)))
    except UndefinedCfb as e:
        print(f"cfb: undefined statistic: {e}", file=sys.stderr)
        return 3
    except (CfbError, ValueError, OSError) as e:
        print(f"cfb: {e}", file=sys.stderr)
        return 2


def main() -> None:
    """Process entry of the `cfb` console script and `python -m cfb`: run sys.argv, exit with its code.

    Unlike run(), this owns its process, so it sets OPENBLAS_NUM_THREADS=1
    for it and freezes the garbage collector before exiting; run() and the
    library leave the environment and the collector alone.
    """
    # No command calls BLAS, so OpenBLAS's worker threads would only start
    # and spin idle.  OpenBLAS reads the variable once, when numpy first
    # loads, and every handler imports numpy after this point.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    code = run(sys.argv[1:])
    # The process ends here: frozen objects are skipped by the collections
    # of interpreter shutdown, which would otherwise walk every object that
    # numpy and cfb imported.
    gc.freeze()
    sys.exit(code)
