"""tools/rusage.py, the per-command child rusage table, on its cheapest command."""

import json
import subprocess
import sys
from pathlib import Path

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
    for side in ("parent", "change"):
        measures = row[side]
        assert sorted(measures) == ["cpu_s", "maxrss_mb", "minflt", "nivcsw", "wall_s"]
        assert measures["wall_s"] > 0 and measures["cpu_s"] > 0
        # a fresh interpreter with cfb's CLI loaded, without numpy
        assert 5 < measures["maxrss_mb"] < 60 and measures["minflt"] > 0
