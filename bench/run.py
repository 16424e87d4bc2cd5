"""Benchmark of the cfb command-line pipeline, end to end and by layer.

    python3 bench/run.py --workload census --seed 20230516 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Each workload runs the cfb commands a user runs, one process after
another, with `src` on PYTHONPATH and CFB_THREADS set to the number of
usable CPUs.  `--trace 0` repeats the workload for `--seconds` seconds
and reports the end-to-end metrics; `--trace 1` alternates untraced runs
with runs replayed in process under `traced.py` and reports the
per-layer metrics.  Every command's output goes through a correctness
gate.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it
records the facts of the run.  `--smoke` runs every workload at tiny
sizes and checks the harness itself.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 20230516
LAUNCH = "from cfb.cli_reports import main; main()"
SETUP_REPS = 3
PROCESS_TIMEOUT_S = 120  # a process still running then is killed and counts as failed

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.cfb_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "improper_search.grid_search_s": "s",
    "improper_search.pairs_scanned": "count",
    "improper_search.survivors": "count",
    "counterfactual_screen.screen_s": "s",
    "counterfactual_screen.kept": "count",
    "counterfactual_screen.kept_ratio": "ratio",
    "matched_pairs.matching_experiment_s": "s",
    "matched_pairs.cells": "count",
    "matched_pairs.undefined_cells": "count",
    "cfb_engine.cfb_monte_carlo_s": "s",
    "cfb_engine.cfb_monte_carlo_1thread_s": "s",
    "cfb_engine.mc_pairs": "count",
    "cfb_engine.mc_chunks": "count",
    "cfb_engine.mc_workers": "count",
    "cfb_engine.all_pairs_s": "s",
    "cfb_engine.all_pairs_scored": "count",
    "cfb_engine.cfb_linear_gaussian_s": "s",
    "cfb_engine.quadratures": "count",
    "cli_reports.search.write_s": "s",
    "cli_reports.search.rows_written": "count",
    "cli_reports.search.bytes_written": "bytes",
    "cli_reports.screen_cf.read_s": "s",
    "cli_reports.screen_cf.rows_read": "count",
    "cli_reports.screen_cf.write_s": "s",
    "cli_reports.match_compare.write_s": "s",
    "cli_reports.match_compare.rows_written": "count",
    "cli_reports.match_compare.bytes_written": "bytes",
    "cli_reports.hist.read_s": "s",
    "cli_reports.hist.rows_read": "count",
    "tracing_overhead_s": "s",
    "interpreter_start_s": "s",
    "interpreter_exit_s": "s",
    "tracing_unaccounted_s": "s",
}
# span name -> per-layer metric holding the sum of its durations
SPAN_METRICS = {
    "improper_search.grid_search": "improper_search.grid_search_s",
    "counterfactual_screen.screen_improper_set": "counterfactual_screen.screen_s",
    "matched_pairs.matching_experiment": "matched_pairs.matching_experiment_s",
    "cfb_engine.cfb_monte_carlo": "cfb_engine.cfb_monte_carlo_s",
    "cfb_engine.all_pairs": "cfb_engine.all_pairs_s",
    "cfb_engine.cfb_linear_gaussian": "cfb_engine.cfb_linear_gaussian_s",
}

IMPROPER_COLUMNS = ("p_minus", "p_zero", "p_plus", "q_minus", "q_zero", "q_plus", "cfb_star")
REALIZABLE_COLUMNS = IMPROPER_COLUMNS + ("y0_x0", "y1_x0", "y0_x1", "y1_x1")
MATCH_COLUMNS = ("a", "b", "beta0", "betax", "betat", "betaxt",
                 "cfb_x", "cfb_h", "abs_diff", "undefined_flag")

# sha256 of outputs at full size, measured twice on the commit that
# introduced this benchmark.  The CSVs of `census` and the stdout of
# eval-discrete and rho-sweep do not depend on the seed; the others are
# checked at DEFAULT_SEED only.
GOLDEN = {
    "improper.csv": "5f95531cf6101d5824d52aaa1275bae36615995454f88a4d8310aba3ad7937d7",
    "fig1_hist.csv": "e612ab22237d1cb35f2dc6d8d611c38d537afe092bc4c5d4884de04b997ad243",
    "realizable.csv": "4638eaa8011ec4888314513227d19f7e239ee92bf952b8aaa8b0f3b4041e37c3",
    "fig6_hist.csv": "9cfefcc6560f824c0959612548c8e25e4f575afd95d164aceed2059389a9651c",
    "match_diffs.csv": "b85563bcadf5fd83aafd34acef312b73f7fadcaec224da1c55186cff0d3776bb",
    "fig2_hist.csv": "2c47d89e656aaefe9c04fc7b1610947e36954ea7dd3cfb140535d1a7ada7813c",
    "eval-discrete.out": "94648ebc8b2f95fc5633d57b9d320aa011dc2a18ec20bee42b9bac18dfd2ec7a",
    "rho-sweep.out": "50f0ebb17b7e22555c47532ffc6bbbddaaf6ed1f7e3ee4047d7e2d8ffe938e95",
    "beta-mc.out": "f7a845f0e0f482ec8eed9eca1b09dd462d7b5cb7ec4b93fa151086bf794056ec",
    "allpairs.out": "27bfc9300352019febfccf227a7bc03805887a65add994eff3da185405987055",
}
# the README Beta example (alpha = beta = 0.5): mean of 16e6-pair estimates at four seeds
BETA_EXAMPLE_CFB = 0.4437


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------------


@dataclass
class Text:
    """A CSV output or report: `#` header lines, a column line, rows."""

    size: int
    sha256: str
    complete: bool  # ends with a newline
    comments: list
    columns: tuple
    rows: list

    @classmethod
    def parse(cls, data: bytes) -> "Text":
        complete = data.endswith(b"\n")
        lines = data.decode().split("\n")
        if complete:
            lines.pop()
        n_comments = 0
        while n_comments < len(lines) and lines[n_comments].startswith("#"):
            n_comments += 1
        body = lines[n_comments:]
        columns = tuple(body[0].split(",")) if body else ()
        return cls(len(data), hashlib.sha256(data).hexdigest(), complete,
                   lines[:n_comments], columns, body[1:])

    def report(self) -> dict:
        """`key,value...` lines of a stdout report, the first line included."""
        lines = [",".join(self.columns)] + self.rows
        return {k: v for k, _, v in (line.partition(",") for line in lines)}

    def column(self, k: int) -> list:
        return [row.split(",")[k] for row in self.rows]


class Gate:
    """Problems found in one command's outputs."""

    def __init__(self):
        self.problems = []

    def need(self, ok, message):
        if not ok:
            self.problems.append(message)


@dataclass
class Outputs:
    """What one run of a workload left in its directory, read lazily."""

    dir: Path
    _cache: dict = field(default_factory=dict)

    def file(self, name) -> Text:
        if name not in self._cache:
            self._cache[name] = Text.parse((self.dir / name).read_bytes())
        return self._cache[name]

    def stdout(self, label) -> Text:
        return self.file(f"{label}.out")

    def golden(self, gate, *names):
        for name in names:
            gate.need(self.file(name).sha256 == GOLDEN[name], f"{name} sha256 differs from the golden value")


def check_csv(gate, f: Text, name, columns, rows):
    gate.need(len(f.comments) == 2 and f.comments[0].startswith("# cfb "), f"{name} lacks the `#` header")
    gate.need(f.columns == columns, f"{name} has columns {f.columns}")
    gate.need(f.complete, f"{name} does not end with a newline")
    gate.need(len(f.rows) == rows, f"{name} has {len(f.rows)} rows, expected {rows}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One process of a workload: a cfb subcommand or the all-pairs study."""

    label: str
    kind: str  # "cli" or "allpairs"
    args: list
    check: Callable  # (Outputs, Gate) -> None
    reads: str | None = None  # the CSV it parses
    writes: str | None = None  # the CSV it writes the result rows to

    def argv(self, python, spans=None):
        if spans is not None:
            return [python, "-X", "importtime", str(BENCH / "traced.py"), str(spans), self.kind, *self.args]
        if self.kind == "cli":
            return [python, "-c", LAUNCH, *self.args]
        return [python, str(BENCH / "allpairs.py"), *self.args]


@dataclass
class Workload:
    ops: list
    single_thread: str | None = None  # op re-timed with CFB_THREADS=1 when traced


def census(seed, full):
    step = "0.01" if full else "0.05"

    def search(out: Outputs, gate: Gate):
        rep = out.stdout("search").report()
        count = int(rep["count"])
        check_csv(gate, out.file("improper.csv"), "improper.csv", IMPROPER_COLUMNS, count)
        hist = out.file("fig1_hist.csv")
        gate.need(sum(map(int, hist.column(2))) == count, "fig1_hist.csv does not count every survivor")
        if full:
            gate.need(count == 283523, f"census count {count}, expected 283523")
            gate.need(abs(float(rep["cfb_min"]) - 0.4188) <= 5e-5, f"cfb_min {rep['cfb_min']}, expected 0.4188")
            out.golden(gate, "improper.csv", "fig1_hist.csv")

    def screen(out: Outputs, gate: Gate):
        rep = out.stdout("screen-cf").report()
        count = int(rep["count"])
        check_csv(gate, out.file("realizable.csv"), "realizable.csv", REALIZABLE_COLUMNS, count)
        hist = out.file("fig6_hist.csv")
        gate.need(sum(map(int, hist.column(1))) == len(out.file("improper.csv").rows),
                  "fig6_hist.csv count_all does not count every input row")
        gate.need(sum(map(int, hist.column(2))) == count, "fig6_hist.csv count_realizable is not the count")
        if full:
            gate.need(count == 9563, f"screened count {count}, expected 9563")
            gate.need(abs(float(rep["cfb_mean"]) - 0.4961) <= 1e-3, f"cfb_mean {rep['cfb_mean']}, expected 0.4961")
            out.golden(gate, "realizable.csv", "fig6_hist.csv")

    def hist(out: Outputs, gate: Gate):
        counts = out.stdout("hist").column(2)
        gate.need(counts == out.file("fig6_hist.csv").column(2),
                  "hist of realizable.csv differs from fig6_hist.csv count_realizable")

    return Workload([
        Op("search", "cli", ["search", "--step", step], search, writes="improper.csv"),
        Op("screen-cf", "cli", ["screen-cf", "--in", "improper.csv"], screen,
           reads="improper.csv", writes="realizable.csv"),
        Op("hist", "cli", ["hist", "--in", "realizable.csv", "--col", "cfb_star",
                           "--bins", "50", "--lo", "0.41", "--hi", "0.5"], hist, reads="realizable.csv"),
    ])


def matching(seed, full):
    step = "0.001" if full else "0.01"
    inv = round(1 / float(step))
    cells = (inv - 1) * (inv - 2) // 2

    def compare(out: Outputs, gate: Gate):
        rep = out.stdout("match-compare").report()
        gate.need(int(rep["cells"]) == cells, f"match-compare reports {rep['cells']} cells, expected {cells}")
        check_csv(gate, out.file("match_diffs.csv"), "match_diffs.csv", MATCH_COLUMNS, cells)
        hist = out.file("fig2_hist.csv")
        # values above the histogram's 0.25 edge are not counted
        gate.need(0.8 * int(rep["defined"]) <= sum(map(int, hist.column(2))) <= int(rep["defined"]),
                  "fig2_hist.csv does not count the defined cells")
        gate.need(float(rep["share_below_0.05"]) >= 0.80, f"share_below_0.05 is {rep['share_below_0.05']}")
        if full and seed == DEFAULT_SEED:
            out.golden(gate, "match_diffs.csv", "fig2_hist.csv")

    def hist(out: Outputs, gate: Gate):
        mine = list(map(int, out.stdout("hist").column(2)))
        ref = list(map(int, out.file("fig2_hist.csv").column(2)))
        # the CSV rounds abs_diff to 10 digits, which may move a value lying on a bin edge
        gate.need(len(mine) == len(ref) == 50 and sum(mine) == sum(ref)
                  and sum(abs(a - b) for a, b in zip(mine, ref)) <= 2,
                  "hist of match_diffs.csv differs from fig2_hist.csv")

    return Workload([
        Op("match-compare", "cli", ["match-compare", "--step", step, "--seed", str(seed)], compare,
           writes="match_diffs.csv"),
        Op("hist", "cli", ["hist", "--in", "match_diffs.csv", "--col", "abs_diff",
                           "--bins", "50", "--lo", "0", "--hi", "0.25"], hist, reads="match_diffs.csv"),
    ])


def sampling(seed, full):
    pairs = 16_000_000 if full else 2_000_000
    rho = "-1:1:0.01" if full else "-1:1:0.25"
    allpairs = [] if full else ["--seeds", "3", "--units", "200"]

    def evaluate(out: Outputs, gate: Gate):
        rep = out.stdout("eval-discrete").report()
        gate.need(rep.get("cfb_star") == "0.4908655453", f"eval-discrete cfb_star {rep.get('cfb_star')}")
        if full:
            out.golden(gate, "eval-discrete.out")

    def beta_mc(out: Outputs, gate: Gate):
        rep = out.stdout("beta-mc").report()
        gate.need(int(rep["pairs"]) == pairs, f"beta-mc scored {rep['pairs']} pairs")
        gate.need(abs(float(rep["estimate"]) - BETA_EXAMPLE_CFB) <= 0.005, f"beta-mc estimate {rep['estimate']}")
        gate.need(float(rep["std_error"]) > 0, f"beta-mc std_error {rep['std_error']}")
        if full and seed == DEFAULT_SEED:
            out.golden(gate, "beta-mc.out")

    def rho_sweep(out: Outputs, gate: Gate):
        f = out.stdout("rho-sweep")
        start, stop, step = map(float, rho.split(":"))
        gate.need(len(f.rows) == round((stop - start) / step) + 1, f"rho-sweep printed {len(f.rows)} rows")
        for row in f.rows:
            r_text, value = row.split(",")
            r = float(r_text)
            # closed form with beta_xt = sigma = 1: 0.5 + asin(1 / sqrt(1 + 2 (1 - rho))) / pi
            exact = 0.5 + math.asin(1.0 / math.sqrt(1.0 + 2.0 * (1.0 - r))) / math.pi
            gate.need(abs(float(value) - exact) <= 1e-8, f"rho-sweep at rho={r_text}: {value}, exact {exact!r}")
        if full:
            out.golden(gate, "rho-sweep.out")

    def all_pairs(out: Outputs, gate: Gate):
        f = out.stdout("allpairs")
        ests = [float(v) for v in f.column(1)]
        gate.need(len(ests) == (40 if full else 3), f"allpairs printed {len(ests)} estimates")
        gate.need(all(0.0 < e < 1.0 for e in ests) and all(float(v) > 0 for v in f.column(2)),
                  "allpairs estimate outside (0, 1) or std_error not positive")
        # one estimate's sd is about 0.023 at 2000 units, so the mean of 40 has about 0.004
        mc = float(out.stdout("beta-mc").report()["estimate"])
        gate.need(abs(statistics.fmean(ests) - mc) <= (0.02 if full else 0.2),
                  f"allpairs mean {statistics.fmean(ests)} is far from beta-mc {mc}")
        if full and seed == DEFAULT_SEED:
            out.golden(gate, "allpairs.out")

    triples = ["--p", "0.08,0,0.92", "--q", "0,0.15,0.85"]
    return Workload([
        Op("eval-discrete", "cli", ["eval-discrete", "--c", "0.5", "--p", "0.25,0.01,0.74",
                                    "--q", "0.14,0.18,0.68"], evaluate),
        Op("beta-mc", "cli", ["beta-mc", "--alpha", "0.5", "--beta", "0.5", *triples,
                              "--n", str(pairs), "--seed", str(seed)], beta_mc),
        Op("rho-sweep", "cli", ["rho-sweep", "--beta-xt", "1.0", "--sigma", "1.0", "--rho", rho], rho_sweep),
        Op("allpairs", "allpairs", ["--seed", str(seed), *allpairs], all_pairs),
    ], single_thread="beta-mc")


WORKLOADS = {"census": census, "matching": matching, "sampling": sampling}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


@dataclass
class Proc:
    op: Op
    code: int
    start: float
    end: float
    cpu: float
    rss_mb: float
    problems: list = field(default_factory=list)
    trace: dict | None = None  # traced.py's spans file
    importtime: list = field(default_factory=list)


@dataclass
class Pass:
    """One run of a workload's processes, one after another."""

    procs: list
    wall: float
    cpu: float
    rss_mb: float
    layers: dict | None = None

    @property
    def failed(self):
        return sum(1 for p in self.procs if p.problems)


def importtime_entries(text):
    """(module, depth, cumulative seconds) from `-X importtime` output,
    up to the end of the top-level `import cfb`."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].lstrip()
        depth = (len(parts[2]) - len(name) - 1) // 2
        entries.append((name, depth, int(parts[1]) / 1e6))
        if name == "cfb" and depth == 0:
            break
    return entries


def import_seconds(entries, package):
    """Cumulative import time of `package`, counting nested imports once."""
    def inside(name):
        return name == package or name.startswith(package + ".")

    total = 0.0
    ancestors = []
    # the output lists children before their parent; reversed, parents come first
    for name, depth, seconds in reversed(entries):
        while ancestors and ancestors[-1][1] >= depth:
            ancestors.pop()
        if inside(name) and not any(inside(a) for a, _ in ancestors):
            total += seconds
        ancestors.append((name, depth))
    return total


def self_time_split(spans):
    """CLI self time of `cli_reports.run` before and after its first child span."""
    _, run_start, run_end, _ = next(s for s in spans if s[0] == "cli_reports.run")
    children = sorted((s for s in spans if s[3] == 1), key=lambda s: s[1])
    if not children:
        return run_end - run_start, 0.0
    _, k_start, k_end, _ = children[0]
    later = sum(end - start for _, start, end, _ in children[1:])
    return k_start - run_start, (run_end - k_end) - later


class Bench:
    """Runs a workload's processes in a work directory of the checkout."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.python = sys.executable
        self.threads = len(os.sched_getaffinity(0))
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, CFB_THREADS=str(self.threads),
                        PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))

    def spawn(self, argv, label, env=None):
        """Run one process to its end; returns (exit code, start, end, rusage)."""
        with open(self.dir / f"{label}.out", "wb") as out, open(self.dir / f"{label}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.dir, env=env or self.env, stdout=out, stderr=err)
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, start, end, usage

    def fresh_import(self):
        """Seconds from launch to exit of an interpreter that imports the CLI."""
        code = "import cfb.cli_reports"
        start = time.perf_counter()
        done = subprocess.run([self.python, "-c", code], cwd=self.dir, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        seconds = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"`{code}` failed:\n{done.stderr.decode(errors='replace')}")
        return seconds

    def setup(self, processes, reps):
        """Median over reps of the summed import time of `processes` fresh interpreters."""
        return statistics.median(
            sum(self.fresh_import() for _ in range(processes)) for _ in range(reps))

    def run(self, workload: Workload, traced: bool, hooks=None) -> Pass:
        for path in self.dir.iterdir():
            path.unlink()
        procs = []
        for op in workload.ops:
            procs.append(self._launch(op, traced))
            if hooks and op.label in hooks:
                hooks[op.label](self.dir)
        wall = procs[-1].end - procs[0].start
        extra = []
        if traced and workload.single_thread:
            base = next(op for op in workload.ops if op.label == workload.single_thread)

            def same_stdout(out, gate):
                gate.need(out.stdout(single.label).sha256 == out.stdout(base.label).sha256,
                          f"{base.label} with CFB_THREADS=1 printed another result")

            single = Op(f"{base.label}-1thread", base.kind, base.args, same_stdout)
            extra.append(self._launch(single, traced, dict(self.env, CFB_THREADS="1")))
        out = Outputs(self.dir)
        for proc in procs + extra:
            if proc.code != 0:
                proc.problems.append(f"exit code {proc.code}")
                continue
            gate = Gate()
            try:
                proc.op.check(out, gate)
            except (OSError, ValueError, KeyError, IndexError, StopIteration) as e:
                gate.need(False, f"{type(e).__name__}: {e}")
            proc.problems += gate.problems
        result = Pass(procs + extra, wall, sum(p.cpu for p in procs), max(p.rss_mb for p in procs))
        if traced:
            for proc in procs + extra:
                self.read_trace(proc)
            result.layers = self.layers(procs, extra, wall, out)
        return result

    def _launch(self, op, traced, env=None) -> Proc:
        spans = self.spans(op) if traced else None
        code, start, end, usage = self.spawn(op.argv(self.python, spans), op.label, env)
        return Proc(op, code, start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def spans(self, op):
        return self.dir / f"{op.label}.spans.json"

    def read_trace(self, proc):
        """Load what traced.py recorded, after the pass so the reading is not timed."""
        if proc.code == 0:
            proc.trace = json.loads(self.spans(proc.op).read_text())
            proc.importtime = importtime_entries((self.dir / f"{proc.op.label}.err").read_text(errors="replace"))

    @staticmethod
    def layers(procs, extra, wall, out: Outputs) -> dict:
        m = dict.fromkeys(PER_LAYER, 0)
        counters = {}
        imports = {"cfb": [], "scipy": [], "numpy": []}
        accounted = 0.0
        for proc in procs:
            if proc.trace is None:
                continue
            spans = proc.trace["spans"]
            for package, values in imports.items():
                values.append(import_seconds(proc.importtime, package))
            started = proc.trace["started"] - proc.start
            exiting = proc.end - proc.trace["finished"]
            m["interpreter_start_s"] += started
            m["interpreter_exit_s"] += exiting
            accounted += started + proc.trace["import_s"] + exiting
            for name, start, end, depth in spans:
                if depth == 0:
                    accounted += end - start
                if name in SPAN_METRICS:
                    m[SPAN_METRICS[name]] += end - start
            for name, value in proc.trace["counters"].items():
                counters[name] = counters.get(name, 0) + value
            if proc.op.kind != "cli":
                continue
            sub = "cli_reports." + proc.op.args[0].replace("-", "_")
            read_s, write_s = self_time_split(spans)
            found = {"read_s": read_s, "write_s": write_s}
            if proc.op.reads:
                found["rows_read"] = len(out.file(proc.op.reads).rows)
            if proc.op.writes:
                f = out.file(proc.op.writes)
                found.update(rows_written=len(f.rows), bytes_written=f.size)
            for key, value in found.items():
                if f"{sub}.{key}" in m:
                    m[f"{sub}.{key}"] += value
        for package, values in imports.items():
            m[f"import.{package}_s"] = statistics.median(values) if values else 0.0
        for name in m:
            if name in counters:
                m[name] = counters[name]
        chunks = counters.get("cfb_engine.mc_chunks", 0)
        m["cfb_engine.mc_workers"] = max(counters.get("cfb_engine.mc_pool_workers", 0), 1 if chunks else 0)
        screened = counters.get("counterfactual_screen.screened", 0)
        m["counterfactual_screen.kept_ratio"] = m["counterfactual_screen.kept"] / screened if screened else 0.0
        m["tracing_unaccounted_s"] = wall - accounted
        for proc in extra:
            if proc.trace is not None:
                m["cfb_engine.cfb_monte_carlo_1thread_s"] = sum(
                    end - start for name, start, end, _ in proc.trace["spans"]
                    if name == "cfb_engine.cfb_monte_carlo")
        return m


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "cfb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(name, seed, seconds, trace, full=True, setup_reps=SETUP_REPS, hooks=None):
    """Run one workload; returns (result, facts)."""
    load_start = os.getloadavg()
    workload = WORKLOADS[name](seed, full)
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(workdir)
    passes = []
    try:
        bench.fresh_import()  # compiles the package's bytecode, which users pay once
        if trace:
            untraced = []
        else:
            setup = bench.setup(len(workload.ops), setup_reps)
        start = time.perf_counter()
        elapsed = last = 0.0
        # start another pass only if one as long as the last still ends in time
        while not passes or elapsed + last <= seconds:
            if trace:
                untraced.append(bench.run(workload, False, hooks))
                log_pass(name, untraced[-1])
            passes.append(bench.run(workload, bool(trace), hooks))
            log_pass(name, passes[-1])
            last = time.perf_counter() - start - elapsed
            elapsed += last
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values = {k: statistics.median(p.layers[k] for p in passes) for k in PER_LAYER}
        values["tracing_overhead_s"] = (statistics.median(p.wall for p in passes)
                                        - statistics.median(p.wall for p in untraced))
        units = PER_LAYER
        passes += untraced
    else:
        values = {
            "wall_s": statistics.median(p.wall for p in passes),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "setup_s": setup,
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        }
        units = END_TO_END
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": sum(len(p.procs) for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    facts = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "passes": len(passes),
        "commit": git_commit(), "src_sha256": source_digest(),
        "nproc": bench.threads, "cfb_threads": bench.threads,
        "mc_workers": values.get("cfb_engine.mc_workers"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
    }
    return result, facts


def log_pass(name, p: Pass):
    kind = "traced" if p.layers is not None else "untraced"
    print(f"{name} {kind}: wall {p.wall:.3f} s, cpu {p.cpu:.3f} s, rss {p.rss_mb:.1f} MB, "
          f"{p.failed} of {len(p.procs)} failed", file=sys.stderr)
    for proc in p.procs:
        for problem in proc.problems:
            print(f"  {proc.op.label}: {problem}", file=sys.stderr)


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def truncate(name):
    def hook(directory):
        path = directory / name
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
    return hook


def smoke():
    """Every workload at tiny sizes: metric names and units match BENCHMARK.json,
    nothing fails, and a truncated improper.csv is caught."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            result, _ = measure(name, DEFAULT_SEED, 0, trace, full=False, setup_reps=1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} --trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units differ from BENCHMARK.json")
            if result["failed"]:
                problems.append(f"{name} --trace {trace}: {result['failed']} operations failed")
    result, _ = measure("census", DEFAULT_SEED, 0, 0, full=False, setup_reps=1,
                        hooks={"search": truncate("improper.csv")})
    if not result["failed"]:
        problems.append("a truncated improper.csv did not count as a failed operation")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="check the harness at tiny sizes")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    try:
        if not (SRC / "cfb" / "__init__.py").is_file():
            raise BenchError(f"no cfb package under {SRC}")
        if args.smoke:
            return smoke()
        result, facts = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
