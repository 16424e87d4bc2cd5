"""tools/compare.py, the paired-comparison runner, on synthetic run records.

No test here starts a process: the verdicts, quartiles, wins and side
order are checked on records made up to sit on either side of a bound.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
try:
    import compare
finally:
    sys.path.remove(str(ROOT / "tools"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LOWER = {"name": "wall_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "better": "higher", "bound": 0.25}


def record(pair, value, name="wall_s", ok=True):
    r = {"ok": ok, "exit": 0 if ok else 1, "correct": ok, "attempted": 10, "failed": 0, "pair": pair}
    if ok:
        r["metrics"] = {name: value}
    return r


def cell(parent, change, name="wall_s"):
    """{side: [records]} from each side's values in pair order; None is a failed run."""
    return {side: [record(i, v, name, ok=v is not None) for i, v in enumerate(values)]
            for side, values in (("parent", parent), ("change", change))}


def test_sides_alternate_which_runs_first():
    assert [compare.side_order(i) for i in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]


def test_quartiles_are_inclusive_and_wins_leave_ties_to_neither_side():
    row = compare.judge(LOWER, cell([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 3.5, 3.0, 5.0]))
    # inclusive quartiles of 1..5 are 2 and 4
    assert row["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    # pair 0 and pair 3 go to the change; pairs 1 and 4 are ties
    assert (row["change_wins"], row["pairs"]) == (2, 5)
    assert compare.judge(HIGHER, cell([1.0, 2.0, 3.0], [0.5, 2.0, 3.5], "rate"))["change_wins"] == 1


@pytest.mark.parametrize("metric, parent, change, verdict", [
    # a narrow parent spread: the median move decides
    (LOWER, [1.0, 1.01, 1.02, 1.03], [1.2, 1.21, 1.22, 1.23], "within"),
    (LOWER, [1.0, 1.01, 1.02, 1.03], [1.3, 1.31, 1.32, 1.33], "regressed"),
    (HIGHER, [1.3, 1.31, 1.32, 1.33], [1.0, 1.01, 1.02, 1.03], "regressed"),
    (HIGHER, [1.0, 1.01, 1.02, 1.03], [1.3, 1.31, 1.32, 1.33], "within"),
    # a parent spread wider than the bound cannot resolve it ...
    (LOWER, [1.0, 1.2, 1.4, 1.6], [1.1, 1.3, 1.5, 1.7], "unresolved"),
    (LOWER, [1.0, 1.2, 1.4, 1.6], [0.5, 0.9, 1.2, 1.3], "unresolved"),
    # ... unless every change run beats every parent run
    (LOWER, [1.0, 1.2, 1.4, 1.6], [0.5, 0.6, 0.7, 0.9], "within"),
    (HIGHER, [1.0, 1.2, 1.4, 1.6], [1.7, 1.8, 1.9, 2.0], "within"),
    # a regression past the bound stays one however wide the spread
    (LOWER, [1.0, 1.2, 1.4, 1.6], [1.5, 1.7, 1.9, 2.1], "regressed"),
], ids=str)
def test_verdicts_follow_the_bound(metric, parent, change, verdict):
    row = compare.judge(metric, cell(parent, change, metric["name"]))
    assert row["verdict"] == verdict
    assert row["median_change_minus_parent"] == pytest.approx(
        compare.statistics.median(change) - compare.statistics.median(parent))


def test_failed_runs_are_kept_and_give_no_metric_or_win():
    stdout = json.dumps({"facts": {"src_sha256": "ab"}}) + "\n" + json.dumps(
        {"correct": False, "attempted": 9, "failed": 1,
         "metrics": {"wall_s": {"value": 0.1, "unit": "s"}}}) + "\n"
    failed, facts = compare.parse_run(1, stdout)
    assert failed == {"ok": False, "exit": 1, "correct": False, "attempted": 9, "failed": 1,
                      "src_sha256": "ab"}
    assert facts == {"src_sha256": "ab"}
    crashed, facts = compare.parse_run(2, "")
    assert not crashed["ok"] and crashed["correct"] is None and facts == {}
    passed, _ = compare.parse_run(0, stdout.replace("false", "true"))
    assert passed["ok"] and passed["metrics"] == {"wall_s": 0.1}
    # a correct result from a process that exited non-zero still failed
    assert not compare.parse_run(1, stdout.replace("false", "true"))[0]["ok"]

    row = compare.judge(LOWER, cell([1.0, 1.0, 1.0], [None, 0.9, 0.9]))
    assert row["change"]["n"] == 2 and (row["change_wins"], row["pairs"]) == (2, 3)
    assert compare.judge(LOWER, cell([1.0], [None]))["verdict"] == "unresolved"


GAIN_PARENT = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]


@pytest.mark.parametrize("change, failed, met", [
    ([v - 0.2 for v in GAIN_PARENT], 0, True),
    # nine of ten wins is enough, eight is not
    ([v - 0.2 for v in GAIN_PARENT[:9]] + [1.5], 0, True),
    ([v - 0.2 for v in GAIN_PARENT[:8]] + [1.5, 1.5], 0, False),
    # every pair won, but by less than the parent's quartile distance (0.09)
    ([v - 0.05 for v in GAIN_PARENT], 0, False),
    # a gain with more failed operations does not count
    ([v - 0.2 for v in GAIN_PARENT], 1, False),
], ids=str)
def test_a_claim_needs_nine_tenths_of_wins_and_a_gap_past_the_parent_spread(change, failed, met):
    runs = {"sampling@7": cell(GAIN_PARENT, change)}
    runs["sampling@7"]["change"][0]["failed"] = failed
    out = compare.report(dict(SPEC, end_to_end=[LOWER]), runs, ("wall_s", "sampling"))
    assert out["claim"] == "wall_s@sampling"
    assert out["claim_result"] == {"cells": {"sampling@7": met}, "met": met}


def test_report_keeps_every_run_in_running_order():
    spec = dict(SPEC, end_to_end=[LOWER])
    runs = {"census@1": cell([1.0, 1.1, None], [1.0, 1.0, 1.05])}
    out = compare.report(spec, runs)
    assert out["claim"] is None and out["claim_result"] is None
    order = [(r["pair"], r["side"]) for r in out["results"]["census@1"]["runs"]]
    assert order == [(0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
                     (2, "parent"), (2, "change")]
    verdicts = out["no_regression"]["census@1"]
    assert verdicts["failed_runs"] == {"parent": 1, "change": 0}
    assert verdicts["all_correct_none_failed"] is False
    assert verdicts["wall_s"]["verdict"] == "within"
    assert out["results"]["census@1"]["change_wins"] == {"wall_s": {"change_wins": 1, "pairs": 3}}


def test_cells_are_workloads_at_each_seed_or_at_their_own():
    known = [w["name"] for w in SPEC["workloads"]]
    assert compare.cells_of(["census@20230516", "sampling"], [20230516, 7], known) == [
        ("census", 20230516), ("sampling", 20230516), ("sampling", 7)]
    with pytest.raises(SystemExit):
        compare.cells_of(["nosuch"], [1], known)
