"""tools/rusage.py, the per-command child rusage table, on its cheapest command,
and how it and tools/compare.py end on SIGTERM."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_rusage_tool_measures_eval_discrete_from_two_trees():
    argv = [sys.executable, str(ROOT / "tools" / "rusage.py"), "--parent", str(ROOT),
            "--change", str(ROOT), "--passes", "2", "--commands", "eval-discrete"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    table = json.loads(proc.stdout)["commands"]
    assert list(table) == ["eval-discrete"]
    row = table["eval-discrete"]
    assert row["passes"] == 2 and 0 <= row["change_cpu_wins"] <= 2
    assert 0 <= row["change_rss_wins"] <= 2
    for side in ("parent", "change"):
        measures = row[side]
        assert sorted(measures) == ["cpu_s", "maxrss_mb", "minflt", "nivcsw", "wall_s"]
        assert measures["wall_s"] > 0 and measures["cpu_s"] > 0
        # a fresh interpreter with cfb's CLI loaded, without numpy
        assert 5 < measures["maxrss_mb"] < 60 and measures["minflt"] > 0
        # with two passes the inclusive quartiles lie on either side of the median
        spread = row["quartiles"][side]
        assert sorted(spread) == ["cpu_s", "maxrss_mb", "wall_s"]
        for key, (q1, q3) in spread.items():
            assert 0 < q1 <= measures[key] <= q3, key


def test_rusage_quartiles_are_inclusive():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import rusage
    finally:
        sys.path.remove(str(ROOT / "tools"))
    assert rusage.quartiles([3.0]) == [3.0, 3.0]
    assert rusage.quartiles([1.0, 2.0]) == [1.25, 1.75]
    assert rusage.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == [2.0, 4.0]


def test_rusage_hist_labels_run_after_the_command_they_read():
    """hist(auto) is hist of match-compare's output without --lo and --hi, so the
    column's own extremes set its range."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import rusage
    finally:
        sys.path.remove(str(ROOT / "tools"))
    assert rusage.selected(["hist(auto)"]) == ["match-compare", "hist(auto)"]
    assert rusage.selected(["hist(auto)", "hist(match)"]) == ["match-compare", "hist(match)", "hist(auto)"]
    argv = rusage.COMMANDS["hist(auto)"][0]
    assert argv[argv.index("--in") + 1] == "match_diffs.csv" and "--lo" not in argv and "--hi" not in argv


def test_rusage_tool_measures_the_all_pairs_study_on_each_tree(tmp_path):
    """allpairs runs bench/allpairs.py with the tree's src first on PYTHONPATH: a tree whose
    cfb fails to import makes the tool exit naming that tree's work directory."""
    argv = [sys.executable, str(ROOT / "tools" / "rusage.py"), "--parent", str(ROOT),
            "--change", str(ROOT), "--passes", "1", "--commands", "allpairs"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout)["commands"]["allpairs"]
    assert row["argv"] == [str(ROOT / "bench" / "allpairs.py"), "--seed", "20230516"]
    for side in ("parent", "change"):
        # numpy is loaded, so more than the CLI's bare interpreter
        assert row[side]["cpu_s"] > 0 and row[side]["maxrss_mb"] > 20

    broken = tmp_path / "broken"
    (broken / "src" / "cfb").mkdir(parents=True)
    (broken / "src" / "cfb" / "__init__.py").write_text("raise ImportError('not this tree')\n")
    argv[argv.index("--change") + 1] = str(broken)
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert "allpairs exited 1 in " in proc.stderr and proc.stderr.rstrip().endswith("change")


def test_rusage_tool_runs_its_children_with_one_blas_thread(tmp_path):
    """The all-pairs study imports cfb without the CLI's main, so the tool itself
    gives every child OPENBLAS_NUM_THREADS=1, whatever its own environment says."""
    tree = tmp_path / "tree"
    (tree / "src" / "cfb").mkdir(parents=True)
    (tree / "src" / "cfb" / "__init__.py").write_text(
        "import os, sys\nsys.exit(0 if os.environ.get('OPENBLAS_NUM_THREADS') == '1' else 1)\n")
    argv = [sys.executable, str(ROOT / "tools" / "rusage.py"), "--parent", str(tree),
            "--change", str(tree), "--passes", "1", "--commands", "allpairs"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="4")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert list(json.loads(proc.stdout)["commands"]) == ["allpairs"]


@pytest.mark.parametrize("tool, started", [
    (["rusage.py", "--parent", str(ROOT), "--change", str(ROOT), "--passes", "50", "--commands", "search"],
     "*/*/search.out"),
    (["compare.py", "--parent", "HEAD", "--change", "HEAD", "--pairs", "1", "--seeds", "1",
      "--workloads", "census", "--out", "bench.json"], "compare-*/change/bench"),
])
def test_sigterm_removes_the_temporary_directory(tmp_path, tool, started):
    """A run terminated once its first command is under way exits 143, having
    killed that command and removed its temporary directory."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    proc = subprocess.Popen([sys.executable, str(ROOT / "tools" / tool[0]), *tool[1:]], cwd=tmp_path,
                            env=dict(os.environ, TMPDIR=str(scratch)),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(scratch.glob(started)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert list(scratch.glob(started)), "the run did not start"
        time.sleep(0.5)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert list(scratch.iterdir()) == []
