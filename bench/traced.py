"""Replay one benchmark command in process, with spans around cfb's layers.

    python3 -X importtime bench/traced.py SPANS_JSON cli ARG...
    python3 -X importtime bench/traced.py SPANS_JSON allpairs ARG...

`cli` runs `cfb.cli_reports.run(ARG...)` and `allpairs` runs
`allpairs.main(ARG...)`, each inside a top-level span.  Before that, the
public kernel functions of each cfb module are replaced, in every cfb
module that bound them, by wrappers that record a span per call and
count the work done.  The program's source is not changed.  On exit the
import time, the spans and the counters are written to SPANS_JSON, and
the process exits with the command's exit code.

Spans are `[name, start, end, depth]`, with times from `perf_counter` and
depth 0 for the top-level span; `started` is the time of the script's
first statement and `finished` the time the command returned.  Needs the repository's `src` directory
on PYTHONPATH.
"""

import sys
import time

# perf_counter is CLOCK_MONOTONIC, shared with the parent that timed the launch
STARTED = time.perf_counter()
import cfb.cli_reports  # noqa: E402  (timed: this is the import layer)

IMPORT_S = time.perf_counter() - STARTED

import json  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402

import numpy  # noqa: E402

from cfb import cfb_engine, counterfactual_screen, improper_search, matched_pairs  # noqa: E402


class Trace:
    """Spans and counters of one process, kept in memory until exit."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._depth = 0
        self._lock = threading.Lock()  # chunk counters are updated from pool threads

    def span(self, name, fn, on_result=None):
        """Wrap fn so each call records a span and optionally counts its result."""

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            start = time.perf_counter()
            self._depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth -= 1
                self.spans.append((span_name, start, time.perf_counter(), self._depth))
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def count(self, fn, on_call):
        """Wrap fn so each call adds to the counters, without a span."""

        def wrapper(*args, **kwargs):
            with self._lock:
                on_call(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper


def _rebind(module, name, wrap):
    """Replace module.name, and every cfb module's binding of the same object.

    A name the module no longer has is skipped, so its metrics read 0.
    """
    original = getattr(module, name, None)
    if original is None:
        return
    wrapped = wrap(original)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "cfb" or mod_name.startswith("cfb.")) and getattr(mod, name, None) is original:
            setattr(mod, name, wrapped)


def install(trace):
    c = trace.counters

    def on_grid(res, args, kwargs):
        c["improper_search.survivors"] += res.summary.count

    def on_scan(args, kwargs):
        i0, i1, vm = args[0], args[1], args[2]
        c["improper_search.pairs_scanned"] += (i1 - i0) * len(vm)

    def on_screen(res, args, kwargs):
        c["counterfactual_screen.kept"] += res.summary.count
        c["counterfactual_screen.screened"] += len(args[0])

    def on_matching(res, args, kwargs):
        c["matched_pairs.cells"] += len(res)
        c["matched_pairs.undefined_cells"] += int(res.undefined.sum())

    def mc_name(args, kwargs):
        return "cfb_engine.all_pairs" if kwargs.get("all_pairs") else "cfb_engine.cfb_monte_carlo"

    def on_mc(res, args, kwargs):
        if kwargs.get("all_pairs"):
            n = args[1]
            c["cfb_engine.all_pairs_scored"] += n * (n - 1) // 2

    def on_chunk(args, kwargs):
        c["cfb_engine.mc_chunks"] += 1
        c["cfb_engine.mc_pairs"] += args[2]

    def on_quad(args, kwargs):
        c["cfb_engine.quadratures"] += 1

    class RecordingPool(cfb_engine.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            c["cfb_engine.mc_pool_workers"] = max(c["cfb_engine.mc_pool_workers"], max_workers or 0)
            super().__init__(max_workers, *args, **kwargs)

    _rebind(improper_search, "grid_search",
            lambda f: trace.span("improper_search.grid_search", f, on_grid))
    _rebind(improper_search, "_scan_block", lambda f: trace.count(f, on_scan))
    _rebind(counterfactual_screen, "screen_improper_set",
            lambda f: trace.span("counterfactual_screen.screen_improper_set", f, on_screen))
    _rebind(matched_pairs, "matching_experiment",
            lambda f: trace.span("matched_pairs.matching_experiment", f, on_matching))
    _rebind(cfb_engine, "cfb_monte_carlo", lambda f: trace.span(mc_name, f, on_mc))
    _rebind(cfb_engine, "_score_chunk", lambda f: trace.count(f, on_chunk))
    _rebind(cfb_engine, "cfb_linear_gaussian",
            lambda f: trace.span("cfb_engine.cfb_linear_gaussian", f))
    _rebind(cfb_engine, "quad", lambda f: trace.count(f, on_quad))
    cfb_engine.ThreadPoolExecutor = RecordingPool
    # the histogram is the only work `hist` does between reading and writing
    numpy.histogram = trace.span("numpy.histogram", numpy.histogram)


def main():
    spans_path, kind, *args = sys.argv[1:]
    trace = Trace()
    install(trace)
    if kind == "cli":
        run = trace.span("cli_reports.run", cfb.cli_reports.run)
    elif kind == "allpairs":
        import allpairs

        run = trace.span("allpairs.main", allpairs.main)
    else:
        raise SystemExit(f"unknown kind {kind!r}")
    code = run(args)
    finished = time.perf_counter()
    with open(spans_path, "w") as f:
        json.dump({"started": STARTED, "import_s": IMPORT_S, "finished": finished,
                   "spans": trace.spans, "counters": trace.counters}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
