"""Child rusage of each README command and the all-pairs study, run from two source trees.

    python3 tools/rusage.py --parent OLD_TREE --change NEW_TREE [--passes 9] [--commands beta-mc,...]

Each tree is a checkout with the package under src/.  Every pass runs the
README pipeline at the benchmark's sizes once per tree, each command as a
fresh `python -c "from cfb.cli_reports import main; main()"` process with
that tree's src on PYTHONPATH, and the trees take turns going first.  The
label allpairs runs this repository's bench/allpairs.py, the one process
that scores all pairs through cfb_monte_carlo, the same way.  Each
tree writes into its own work directory, so a command that reads a CSV
reads the one its own tree wrote.  CFB_THREADS is the number of usable
CPUs, as in bench/run.py.  OPENBLAS_NUM_THREADS is 1, which the CLI sets
for itself, so that bench/allpairs.py, which imports cfb directly, starts
no idle BLAS threads either.

Prints one JSON object: for each command, the medians over passes of wall
time, user + system CPU, ru_maxrss (MB), ru_minflt and ru_nivcsw from
os.wait4 for each tree, the inclusive quartiles [q1, q3] of wall time,
CPU and ru_maxrss for each tree, and the passes in which the change used
less CPU and less memory.  A ru_maxrss move smaller than the spread of
either side's quartiles is not a move the tool can tell from noise.
The runner imports only the standard library and never reads what the
commands write, so a child's ru_maxrss, which counts the memory it was
forked from, is the command's own and not the runner's.  Each command
runs in a session of its own; SIGTERM or Ctrl-C kills it and its worker
processes and removes the work directories.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CLI = ["-c", "from cfb.cli_reports import main; main()"]
ALLPAIRS = str(Path(__file__).resolve().parents[1] / "bench" / "allpairs.py")
# label: (interpreter arguments, label of the command whose output it reads)
COMMANDS = {
    "eval-discrete": ([*CLI, "eval-discrete", "--c", "0.5", "--p", "0.25,0.01,0.74",
                       "--q", "0.14,0.18,0.68"], None),
    "search": ([*CLI, "search", "--step", "0.01", "--out", "improper.csv",
                "--hist-out", "fig1_hist.csv"], None),
    "screen-cf": ([*CLI, "screen-cf", "--in", "improper.csv", "--out", "realizable.csv",
                   "--hist-out", "fig6_hist.csv"], "search"),
    "hist(realizable)": ([*CLI, "hist", "--in", "realizable.csv", "--col", "cfb_star", "--bins", "50",
                          "--lo", "0.41", "--hi", "0.5"], "screen-cf"),
    "beta-mc": ([*CLI, "beta-mc", "--alpha", "0.5", "--beta", "0.5", "--p", "0.08,0,0.92",
                 "--q", "0,0.15,0.85", "--n", "16000000", "--seed", "20230516"], None),
    "allpairs": ([ALLPAIRS, "--seed", "20230516"], None),
    "rho-sweep": ([*CLI, "rho-sweep", "--beta-xt", "1.0", "--sigma", "1.0", "--rho", "-1:1:0.01"], None),
    "match-compare": ([*CLI, "match-compare", "--step", "0.001", "--out", "match_diffs.csv",
                       "--hist-out", "fig2_hist.csv"], None),
    "hist(match)": ([*CLI, "hist", "--in", "match_diffs.csv", "--col", "abs_diff", "--bins", "50",
                     "--lo", "0", "--hi", "0.25"], "match-compare"),
    # the range the column gives: the path that finds the column's extremes
    "hist(auto)": ([*CLI, "hist", "--in", "match_diffs.csv", "--col", "abs_diff", "--bins", "50"],
                   "match-compare"),
}
SIDES = ("parent", "change")
# the measures whose spread is reported next to their medians
SPREAD = ("wall_s", "cpu_s", "maxrss_mb")


def selected(names):
    """The named commands and the commands whose outputs they read, in pipeline order."""
    keep = set()
    for name in names:
        if name not in COMMANDS:
            raise SystemExit(f"unknown command {name!r}; choose from {', '.join(COMMANDS)}")
        while name is not None and name not in keep:
            keep.add(name)
            name = COMMANDS[name][1]
    return [name for name in COMMANDS if name in keep]


def exit_on_sigterm():
    """Have SIGTERM raise SystemExit, so that the temporary directories are removed."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def wait_or_kill(proc, wait):
    """wait(), for proc started in a session of its own; if that raises (SystemExit
    from SIGTERM, KeyboardInterrupt), kill every process of the session first."""
    try:
        return wait()
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the session has ended already
            pass
        proc.wait()
        raise


def run_one(label, argv, workdir, env):
    """Run one command to its end; returns its measures, or exits if it failed."""
    with open(workdir / f"{label}.out", "wb") as out, open(workdir / f"{label}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=workdir, env=env,
                                stdout=out, stderr=err, start_new_session=True)
        _, status, usage = wait_or_kill(proc, lambda: os.wait4(proc.pid, 0))
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{label} exited {proc.returncode} in {workdir}")
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024,
        "minflt": usage.ru_minflt,
        "nivcsw": usage.ru_nivcsw,
    }


def measure(trees, labels, passes):
    """{label: {side: [measures of each pass]}}, the sides taking turns going first."""
    threads = str(len(os.sched_getaffinity(0)))
    envs = {side: dict(os.environ, CFB_THREADS=threads, OPENBLAS_NUM_THREADS="1",
                       PYTHONPATH=str(Path(tree, "src")))
            for side, tree in trees.items()}
    runs = {label: {side: [] for side in SIDES} for label in labels}
    with tempfile.TemporaryDirectory() as scratch:
        workdirs = {side: Path(scratch, side) for side in SIDES}
        for path in workdirs.values():
            path.mkdir()
        for i in range(passes):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                for label in labels:
                    runs[label][side].append(
                        run_one(label, COMMANDS[label][0], workdirs[side], envs[side]))
    return runs


def quartiles(values):
    """[q1, q3], inclusive (statistics.quantiles' method), of one or more values."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summary(runs, passes):
    table = {}
    for label, sides in runs.items():
        row = {"argv": COMMANDS[label][0]}
        for side in SIDES:
            row[side] = {key: statistics.median(m[key] for m in sides[side]) for key in sides[side][0]}
        row["quartiles"] = {side: {key: quartiles([m[key] for m in sides[side]]) for key in SPREAD}
                            for side in SIDES}
        pairs = list(zip(sides["parent"], sides["change"]))
        row["change_cpu_wins"] = sum(c["cpu_s"] < p["cpu_s"] for p, c in pairs)
        row["change_rss_wins"] = sum(c["maxrss_mb"] < p["maxrss_mb"] for p, c in pairs)
        row["passes"] = passes
        table[label] = row
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="tree whose src/ is the baseline")
    parser.add_argument("--change", required=True, help="tree whose src/ is the change")
    parser.add_argument("--passes", type=int, default=9)
    parser.add_argument("--commands", default=",".join(COMMANDS),
                        help="comma-separated labels; the commands they read from run too")
    args = parser.parse_args(argv)
    exit_on_sigterm()
    if args.passes < 1:
        parser.error("--passes must be positive")
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for side, tree in trees.items():
        if not (tree / "src" / "cfb").is_dir():
            parser.error(f"--{side} {tree} has no src/cfb")
    labels = selected(args.commands.split(","))
    result = {
        "trees": {side: str(tree) for side, tree in trees.items()},
        "cfb_threads": len(os.sched_getaffinity(0)),
        "commands": summary(measure(trees, labels, args.passes), args.passes),
    }
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
