"""Paired benchmark runs of two git revisions, judged by BENCHMARK.json's bounds.

    python3 tools/compare.py --parent REV --change REV --pairs 10 --seeds 20230516,7 \\
        [--workloads census@20230516,matching@20230516,sampling] [--claim METRIC@WORKLOAD] \\
        [--rusage beta-mc,allpairs] --out BENCH_N.json

Both revisions are built the same way, `git archive REV` unpacked into a
temporary directory, so neither side runs from a working tree.  REV is
anything `git archive` takes: a commit, a branch, or the tree id that
`git write-tree` prints for the staged files.

A cell is a workload at a seed: a workload named alone runs at each of
--seeds, one named as NAME@SEED at that seed only.  Every cell runs
--pairs pairs of each tree's own `bench/run.py --workload W --trace 0
--seed S --seconds T`, T the run_seconds of the parent's BENCHMARK.json.
Pair i runs the parent first when i is even and the change first when
it is odd, and pair i of every cell runs before pair i + 1 of any, so
drift over the session falls on every cell alike.  A run that exits
non-zero or does not read `correct: true` is kept as a failed run: it
gives no metric, and a pair holding one is no win for the change.  The
output file is rewritten after every round of pairs.

For each cell and end-to-end metric the output holds each side's median
and inclusive quartiles, the pairs the change won (ties count for
neither side), and one verdict from the bounds of the parent's
BENCHMARK.json:

- regressed: the change's median is worse than the parent's by more
  than the bound;
- unresolved: otherwise, when the parent's quartile distance exceeds
  the bound, unless every change run is better than every parent run;
- within: otherwise.

A claim METRIC@WORKLOAD is met in a cell when the change won at least
nine tenths of the pairs, its median is better than the parent's by
more than the parent's quartile distance, and its runs failed no more
operations; it is met when it is met in every cell of that workload.

--rusage LABEL,... then runs tools/rusage.py's passes on the same two
trees, as many passes as --pairs, for the named commands and the ones
whose outputs they read, and writes its per-command table of child
rusage from os.wait4 under child_rusage_per_command.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import rusage  # this script's directory is on sys.path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def build(rev, dest):
    """Unpack `git archive rev` of this repository into dest; returns rev's full id."""
    ident = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev],
                           capture_output=True, text=True)
    if ident.returncode != 0:
        raise SystemExit(f"not a git revision: {rev!r}")
    ident = ident.stdout.strip()
    dest.mkdir()
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", ident], stdout=subprocess.PIPE) as git:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout, check=True)
    if git.returncode != 0:
        raise SystemExit(f"git archive {ident} exited {git.returncode}")
    return ident


def side_order(pair):
    """The sides in the order pair `pair` runs them."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def parse_run(exit_code, stdout):
    """One run's record from bench/run.py's exit status and stdout: its
    facts line, then its result line."""
    lines = stdout.splitlines()
    try:
        facts, result = json.loads(lines[-2])["facts"], json.loads(lines[-1])
    except (IndexError, KeyError, TypeError, json.JSONDecodeError):
        facts, result = {}, {}
    ok = exit_code == 0 and result.get("correct") is True
    record = {"ok": ok, "exit": exit_code, "correct": result.get("correct"),
              "attempted": result.get("attempted"), "failed": result.get("failed"),
              "src_sha256": facts.get("src_sha256")}
    if ok:
        record["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return record, facts


def run_one(tree, workload, seed, seconds):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--trace", "0",
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    record, facts = parse_run(proc.returncode, proc.stdout)
    if not record["ok"]:
        record["stderr_tail"] = proc.stderr[-2000:]
    return record, facts


def cells_of(workloads, seeds, known):
    """[(workload, seed)] for the --workloads and --seeds arguments."""
    cells = []
    for item in workloads:
        name, _, seed = item.partition("@")
        if name not in known:
            raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(known)}")
        cells += [(name, int(seed))] if seed else [(name, s) for s in seeds]
    return cells


def side_summary(values):
    if not values:
        return None
    q1, q3 = rusage.quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def judge(metric, runs):
    """Summary, wins and verdict of one end-to-end metric (a BENCHMARK.json
    entry) over one cell's runs, {side: [record of each pair]}."""
    name, bound = metric["name"], metric["bound"]
    worse = 1.0 if metric["better"] == "lower" else -1.0  # sign of a worse change - parent
    values = {side: [r["metrics"][name] for r in runs[side] if r["ok"]] for side in SIDES}
    pairs = list(zip(runs["parent"], runs["change"]))
    wins = sum(p["ok"] and c["ok"] and worse * (c["metrics"][name] - p["metrics"][name]) < 0
               for p, c in pairs)
    row = {side: side_summary(values[side]) for side in SIDES}
    row.update(change_wins=wins, pairs=len(pairs), bound=bound)
    if row["parent"] is None or row["change"] is None:
        row.update(verdict="unresolved", note="a side has no run that passed")
        return row
    delta = row["change"]["median"] - row["parent"]["median"]
    spread = row["parent"]["q3"] - row["parent"]["q1"]
    separated = max(worse * v for v in values["change"]) < min(worse * v for v in values["parent"])
    if worse * delta > bound:
        verdict = "regressed"
    elif spread > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "within"
    row.update(median_change_minus_parent=delta, parent_quartile_distance=spread, verdict=verdict)
    return row


def failed_operations(records):
    return sum(r["failed"] or 0 for r in records)


def claim_met(row, metric, runs):
    """Whether a judged row meets a claim of a gain on its metric."""
    if row["parent"] is None or row["change"] is None:
        return False
    gain = row["median_change_minus_parent"] * (-1.0 if metric["better"] == "lower" else 1.0)
    return (10 * row["change_wins"] >= 9 * row["pairs"]
            and gain > row["parent_quartile_distance"]
            and failed_operations(runs["change"]) <= failed_operations(runs["parent"]))


def report(spec, runs, claim=None):
    """The comparison of every cell's runs, {cell: {side: [records]}}: its
    results, verdicts and, given a (metric, workload) claim, the claim's result."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    results, verdicts = {}, {}
    claim_cells = {}
    for cell, sides in runs.items():
        rows = {name: judge(metric, sides) for name, metric in metrics.items()}
        results[cell] = {
            "summary": {name: {side: row[side] for side in SIDES} for name, row in rows.items()},
            "change_wins": {name: {"change_wins": row["change_wins"], "pairs": row["pairs"]}
                            for name, row in rows.items()},
            "runs": sorted((dict(r, side=side) for side in SIDES for r in sides[side]),
                           key=lambda r: (r["pair"], side_order(r["pair"]).index(r["side"]))),
        }
        verdicts[cell] = {name: {k: row[k] for k in row if k not in SIDES} for name, row in rows.items()}
        verdicts[cell]["failed_runs"] = {side: sum(not r["ok"] for r in sides[side]) for side in SIDES}
        verdicts[cell]["failed_operations"] = {side: failed_operations(sides[side]) for side in SIDES}
        verdicts[cell]["all_correct_none_failed"] = all(r["ok"] and not r["failed"]
                                                        for side in SIDES for r in sides[side])
        if claim and cell.partition("@")[0] == claim[1]:
            claim_cells[cell] = claim_met(rows[claim[0]], metrics[claim[0]], sides)
    out = {"no_regression": verdicts, "results": results, "claim": None, "claim_result": None}
    if claim:
        out["claim"] = f"{claim[0]}@{claim[1]}"
        out["claim_result"] = {"cells": claim_cells, "met": bool(claim_cells) and all(claim_cells.values())}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    parser.add_argument("--workloads", help="comma-separated NAME or NAME@SEED; default every workload")
    parser.add_argument("--claim", help="METRIC@WORKLOAD, a gain to judge")
    parser.add_argument("--rusage", help="comma-separated tools/rusage.py labels to measure on both trees")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    seeds = [int(s) for s in args.seeds.split(",")]
    labels = rusage.selected(args.rusage.split(",")) if args.rusage else []

    with tempfile.TemporaryDirectory(prefix="compare-") as scratch:
        trees = {side: Path(scratch, side) for side in SIDES}
        ids = {side: build(getattr(args, side), trees[side]) for side in SIDES}
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        known = [w["name"] for w in spec["workloads"]]
        cells = cells_of(args.workloads.split(",") if args.workloads else known, seeds, known)
        claim = None
        if args.claim:
            claim = tuple(args.claim.partition("@")[::2])
            if claim[0] not in {m["name"] for m in spec["end_to_end"]} or claim[1] not in known:
                parser.error(f"--claim {args.claim!r} names no end-to-end metric and workload")
        keys = [f"{name}@{seed}" for name, seed in cells]
        runs = {key: {side: [] for side in SIDES} for key in keys}
        head = {
            side: {"rev": getattr(args, side), "id": ids[side], "src_sha256": None} for side in SIDES}
        head["method"] = (
            f"python3 tools/compare.py {' '.join(sys.argv[1:] if argv is None else argv)}: "
            "both trees from git archive; each cell runs bench/run.py --workload W --trace 0 "
            f"--seed S --seconds {spec['run_seconds']} in each tree, pairs alternating which "
            "side runs first (even pair: parent first); medians and inclusive quartiles over "
            "the runs that passed; change_wins counts pairs where the change reads better, "
            "ties for neither side; verdicts from the parent's BENCHMARK.json bounds")
        if labels:
            head["method"] += ("; child_rusage_per_command from tools/rusage.py on the same two "
                               "trees, one pass per pair")

        def write():
            args.out.write_text(json.dumps(dict(head, **report(spec, runs, claim)), indent=1) + "\n")

        for pair in range(args.pairs):
            for (name, seed), key in zip(cells, keys):
                for side in side_order(pair):
                    record, facts = run_one(trees[side], name, seed, spec["run_seconds"])
                    runs[key][side].append(dict(record, pair=pair))
                    head[side]["src_sha256"] = head[side]["src_sha256"] or record["src_sha256"]
                    if facts and "machine" not in head:
                        head["machine"] = {k: facts.get(k) for k in (
                            "nproc", "cfb_threads", "python", "numpy", "scipy")}
                    print(f"pair {pair} {key} {side}: " + (
                        " ".join(f"{k} {v:.3f}" for k, v in record["metrics"].items())
                        if record["ok"] else f"FAILED (exit {record['exit']})"), file=sys.stderr)
            write()
        if labels:
            head["child_rusage_per_command"] = rusage.summary(rusage.measure(trees, labels, args.pairs),
                                                              args.pairs)
            write()


if __name__ == "__main__":
    main()
