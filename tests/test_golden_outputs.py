"""Byte-level golden outputs of the CLI and the import footprint of the package.

The sha256 values pin every output byte at the default output names,
which appear in the `#` header, so each run happens in its own empty
directory.  Refactors of the writers, readers or result types must keep
them.
"""

import ast
import hashlib
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import cfb
from cfb import cfb_engine, run

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cfb"

CENSUS_GOLDEN = {
    "improper.csv": "5f95531cf6101d5824d52aaa1275bae36615995454f88a4d8310aba3ad7937d7",
    "fig1_hist.csv": "e612ab22237d1cb35f2dc6d8d611c38d537afe092bc4c5d4884de04b997ad243",
    "realizable.csv": "4638eaa8011ec4888314513227d19f7e239ee92bf952b8aaa8b0f3b4041e37c3",
    "fig6_hist.csv": "9cfefcc6560f824c0959612548c8e25e4f575afd95d164aceed2059389a9651c",
}
CENSUS_STDOUT_GOLDEN = {
    "search": "773693de6fa8beab1b5f2b26bea25638650a5984580c7cf6d784dba956d82e27",
    "screen-cf": "747ac3146b7f443ea75174dc777608369b9750104da00d2a55f7544ee750f9bd",
}
# match-compare --step 0.01 at the default seed
MATCH_GOLDEN = {
    "match_diffs.csv": "ce11fd240648b7d15eca631cc549fd71412f525073f7df1df0c0354ed5c427ea",
    "fig2_hist.csv": "3819dda14303277d4acbf5214316548f3c92874c7288f77f00ecc33519a2453e",
}
MATCH_STDOUT_GOLDEN = "34521e7ce6068ad262b7fd359fe8c751897cc6609a6d51f96f1d1df21b433b2e"
# match-compare at its default --step 0.001 (bench/run.py GOLDEN): 139,872 exponent-form values,
# 139,830 of them abs_diff, against 1,339 at --step 0.01
MATCH_FULL_GOLDEN = {
    "match_diffs.csv": "b85563bcadf5fd83aafd34acef312b73f7fadcaec224da1c55186cff0d3776bb",
    "fig2_hist.csv": "2c47d89e656aaefe9c04fc7b1610947e36954ea7dd3cfb140535d1a7ada7813c",
}

# match-compare --step 0.01 --coeff-min=-400 --coeff-max=400: five z values of this
# sweep fall in (-709.79, -709), where the sweep's logistic leaves glibc's cexp
WIDE_GOLDEN = {
    "match_diffs.csv": "68bddcefac37aab68e0d404e3c0841c14a4a5d97a8db888a9dd858dc693e6f7e",
    # with its `# unbinned: 0 below 0, 99 above 0.25, 0 nan` line
    "fig2_hist.csv": "b8607c6bacb3c4b35e1055d21bd56a210d190ceee1befad259e9820a3ec39511",
}
WIDE_STDOUT_GOLDEN = "65260ec390f825910fcc3191dfa3deeedd7baae23a112ad3125c8c5b7fd85c59"

# beta-mc at the benchmark's size (bench/run.py GOLDEN "beta-mc.out"): 16 chunks of 10**6 pairs
BETA_MC_FULL_ARGV = ["beta-mc", "--alpha", "0.5", "--beta", "0.5", "--p", "0.08,0,0.92",
                     "--q", "0,0.15,0.85", "--n", "16000000", "--seed", "20230516"]
BETA_MC_FULL_GOLDEN = "f7a845f0e0f482ec8eed9eca1b09dd462d7b5cb7ec4b93fa151086bf794056ec"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_stdout(argv, capsys):
    assert run(argv) == 0
    return capsys.readouterr().out.encode()


def test_census_outputs_are_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert sha256(run_stdout(["search", "--step", "0.01"], capsys)) == CENSUS_STDOUT_GOLDEN["search"]
    assert sha256(run_stdout(["screen-cf"], capsys)) == CENSUS_STDOUT_GOLDEN["screen-cf"]
    for name, digest in CENSUS_GOLDEN.items():
        assert sha256((tmp_path / name).read_bytes()) == digest, name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(CENSUS_GOLDEN)


def test_match_compare_outputs_are_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert sha256(run_stdout(["match-compare", "--step", "0.01"], capsys)) == MATCH_STDOUT_GOLDEN
    for name, digest in MATCH_GOLDEN.items():
        assert sha256((tmp_path / name).read_bytes()) == digest, name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(MATCH_GOLDEN)


def test_python_m_cfb_match_compare_outputs_are_golden(tmp_path):
    """The same bytes through the process entry, main(), that users and the benchmark run."""
    proc = subprocess.run([sys.executable, "-m", "cfb", "match-compare", "--step", "0.01"],
                          capture_output=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sha256(proc.stdout) == MATCH_STDOUT_GOLDEN
    for name, digest in MATCH_GOLDEN.items():
        assert sha256((tmp_path / name).read_bytes()) == digest, name


def test_full_size_match_compare_outputs_are_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["match-compare", "--step", "0.001"]) == 0
    capsys.readouterr()
    for name, digest in MATCH_FULL_GOLDEN.items():
        assert sha256((tmp_path / name).read_bytes()) == digest, name


def test_wide_range_match_compare_outputs_are_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["match-compare", "--step", "0.01", "--coeff-min=-400", "--coeff-max=400"]
    assert sha256(run_stdout(argv, capsys)) == WIDE_STDOUT_GOLDEN
    for name, digest in WIDE_GOLDEN.items():
        assert sha256((tmp_path / name).read_bytes()) == digest, name


@pytest.mark.parametrize("threads", ["1", "2"])
def test_full_size_beta_mc_stdout_is_golden(threads, monkeypatch, capsys):
    monkeypatch.setenv("CFB_THREADS", threads)
    assert sha256(run_stdout(BETA_MC_FULL_ARGV, capsys)) == BETA_MC_FULL_GOLDEN


def test_import_leaves_scipy_out():
    code = "import sys, cfb; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_rho_sweep_leaves_scipy_out():
    code = ("import sys; from cfb import run; "
            "code = run(['rho-sweep', '--beta-xt', '1.0', '--rho', '-1:1:0.5']); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_match_compare_leaves_scipy_out(tmp_path):
    code = ("import sys; from cfb import run; "
            "code = run(['match-compare', '--step', '0.05']); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_no_source_file_imports_scipy():
    """Every import statement of the package, function bodies included: the
    subprocess tests above see only the imports that a run reaches."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "cfb_engine.py" in sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_every_module_all_names_what_it_defines():
    """A name left in a module's __all__ after its definition moved out would
    break `from cfb.<module> import *`; the package's table must name only
    what each module exports."""
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        mod = importlib.import_module("cfb" if path.stem == "__init__" else f"cfb.{path.stem}")
        stale += [f"{path.name} {name}" for name in getattr(mod, "__all__", ())
                  if not hasattr(mod, name)]
    assert stale == []
    for module, names in cfb._EXPORTS.items():
        assert set(names) <= set(importlib.import_module(f"cfb.{module}").__all__), module


def test_engine_hooks_stay_module_level():
    """ThreadPoolExecutor stays a module name, resolved on first use: the
    traced benchmark subclasses it when it installs its counters, though no
    Monte Carlo code uses it any more."""
    assert isinstance(cfb_engine.ThreadPoolExecutor, type)
