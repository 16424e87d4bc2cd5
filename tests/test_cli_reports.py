"""Command-line surface: argument handling, report files, exit codes.

Everything runs in process through cfb.run except the subprocess checks
of the entry points: the installed console script and `python -m cfb`.
"""

import argparse
import builtins
import csv
import math
import os
import shutil
import stat
import subprocess
import sys
import threading
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import numpy as np

from oracles import benefit_triple_from_outcome_probs
from cfb import BetaXPopulation, RunConfig, _csv, cfb_monte_carlo, cli_reports, run, screen_improper_set
from cfb._csv import _read_improper_csv, row_blocks
from cfb.cli_reports import (
    IMPROPER_COLUMNS,
    MATCH_COLUMNS,
    REALIZABLE_COLUMNS,
    _emit,
    _fmt,
    _RhoRangeArg,
    _TripleArg,
)

EVAL_ARGS = ["eval-discrete", "--c", "0.5",
             "--p", "0.25,0.01,0.74", "--q", "0.14,0.18,0.68"]

GOLDEN_EVAL = """\
# cfb 0.1.0
# eval-discrete c=0.5 p=0.25,0.01,0.74 q=0.14,0.18,0.68
h_rel,b_lt,b_eq,b_gt
<,0.05545,0.135,0.05955
=,0.109425,0.28115,0.109425
>,0.05955,0.135,0.05545
cfb_star,0.4908655453
numerator,0.220325
denominator,0.44885
"""


def read_rows(path):
    """(header_comment_lines, column_row, data_rows) of an emitted CSV."""
    comments, rows = [], []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif line:
                rows.append(line)
    return comments, rows[0], rows[1:]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def test_triple_arg_parses_and_normalizes():
    t = _TripleArg("0.25,0.01,0.74")
    assert t.raw == "0.25,0.01,0.74"
    assert t.triple.as_tuple() == (0.25, 0.01, 0.74)
    # a sum inside the tolerance is rescaled to exactly 1
    off = _TripleArg("0.2500000001,0.01,0.74")
    assert sum(off.triple.as_tuple()) == pytest.approx(1.0, abs=1e-15)


def test_triple_arg_rejects_malformed_input():
    import argparse
    for bad in ("0.5,0.5", "a,b,c", "0.5,0.6,0.2", "0.2;0.3;0.5"):
        with pytest.raises(argparse.ArgumentTypeError):
            _TripleArg(bad)


def test_rho_range_arg():
    import argparse
    r = _RhoRangeArg("-1:1:0.1")
    assert r.count == 21
    vals = r.values()
    assert vals[0] == -1.0 and vals[-1] == 1.0
    with pytest.raises(argparse.ArgumentTypeError):
        _RhoRangeArg("1:0:0.1")
    with pytest.raises(argparse.ArgumentTypeError):
        _RhoRangeArg("0:1:0")
    with pytest.raises(argparse.ArgumentTypeError):
        _RhoRangeArg("0:1:0.3")
    with pytest.raises(argparse.ArgumentTypeError):
        _RhoRangeArg("0:1")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_zero_on_success(capsys):
    assert run(EVAL_ARGS) == 0
    capsys.readouterr()


def test_exit_three_when_statistic_is_undefined(capsys):
    code = run(["eval-discrete", "--p", "0,1,0", "--q", "0,1,0"])
    assert code == 3
    assert "undefined" in capsys.readouterr().err


def test_exit_two_on_bad_triple(capsys):
    code = run(["eval-discrete", "--p", "0.5,0.6,0.2", "--q", "0,1,0"])
    assert code == 2
    capsys.readouterr()


def test_exit_two_on_missing_input_file(tmp_path, capsys):
    code = run(["screen-cf", "--in", str(tmp_path / "nope.csv"),
                "--out", str(tmp_path / "o.csv"),
                "--hist-out", str(tmp_path / "h.csv")])
    assert code == 2
    capsys.readouterr()


def test_exit_two_on_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_exit_two_on_degenerate_parameters(capsys):
    code = run(["rho-sweep", "--beta-xt", "0", "--rho", "0:1:0.5"])
    assert code == 2
    assert "constant" in capsys.readouterr().err


@pytest.mark.parametrize("rho", ["0:1:inf", "nan:1:0.5", "0:inf:0.5", "0:nan:0.5", "-inf:1:0.5", "0:1:nan"])
def test_rho_sweep_rejects_non_finite_range(capsys, rho):
    for argv in (["--rho", rho], [f"--rho={rho}"]):
        assert run(["rho-sweep", "--beta-xt", "1", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "start, stop and step must be finite" in captured.err


def test_rho_sweep_takes_a_range_starting_at_a_bare_fraction(capsys):
    assert run(["rho-sweep", "--beta-xt", "1", "--rho", "-.5:.5:.5"]) == 0
    assert [l.split(",")[0] for l in capsys.readouterr().out.splitlines()[3:]] == ["-0.5", "0", "0.5"]


@pytest.mark.parametrize("c", ["nan", "inf", "0", "1", "1.5"])
def test_eval_discrete_rejects_c_outside_the_open_unit_interval(capsys, c):
    argv = list(EVAL_ARGS)
    argv[argv.index("--c") + 1] = c
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--c must be a finite value strictly inside (0, 1)" in captured.err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


# the `#` header of every subcommand at its default flags and at non-canonical
# spellings: floats as "%.10g", triples and rho ranges as typed, unset flags as
# "auto" or "-"; every file a run writes carries the same two lines
@pytest.mark.parametrize("argv, header", [
    (EVAL_ARGS[:1] + EVAL_ARGS[3:], "eval-discrete c=0.5 p=0.25,0.01,0.74 q=0.14,0.18,0.68"),
    (["eval-discrete", "--c", "5e-1", "--p", ".25,.01,.74", "--q", "0.14,0.18,0.68"],
     "eval-discrete c=0.5 p=.25,.01,.74 q=0.14,0.18,0.68"),
    (["search"], "search step=0.01 c=0.5 out=improper.csv hist-out=fig1_hist.csv"),
    (["search", "--step", "0.25"], "search step=0.25 c=0.5 out=improper.csv hist-out=fig1_hist.csv"),
    (["screen-cf"], "screen-cf in=improper.csv out=realizable.csv hist-out=fig6_hist.csv"),
    (["beta-mc", "--alpha", "0.5", "--beta", "0.5", "--p", "0.08,0,0.92", "--q", "0,0.15,0.85"],
     "beta-mc alpha=0.5 beta=0.5 p=0.08,0,0.92 q=0,0.15,0.85 n=1000000 seed=20230516"),
    (["rho-sweep", "--beta-xt", "1"], "rho-sweep beta-xt=1 sigma=1 rho=-1:1:0.1 out=-"),
    (["rho-sweep", "--beta-xt", "1", "--rho=-.5:.5:.25", "--sigma", "2e0"],
     "rho-sweep beta-xt=1 sigma=2 rho=-.5:.5:.25 out=-"),
    (["match-compare"], "match-compare step=0.001 coeff-min=-5 coeff-max=5 seed=20230516 "
                        "out=match_diffs.csv hist-out=fig2_hist.csv"),
    (["hist", "--in", "col.csv", "--col", "x"], "hist in=col.csv col=x bins=50 lo=auto hi=auto out=-"),
    (["hist", "--in", "col.csv", "--col", "x", "--lo", "0", "--bins", "7", "--out", "h7.csv"],
     "hist in=col.csv col=x bins=7 lo=0 hi=auto out=h7.csv"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_header_lines_are_pinned(tmp_path, monkeypatch, capsys, argv, header):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "col.csv").write_text("x\n0.25\n0.5\n")
    (tmp_path / "improper.csv").write_text(",".join(IMPROPER_COLUMNS) + "\n")
    # size and mtime only: a command that reads an input may move its access time
    def written_state(path):
        st = path.stat()
        return st.st_size, st.st_mtime_ns

    inputs = {name: written_state(tmp_path / name) for name in ("col.csv", "improper.csv")}
    assert run(argv) == 0
    want = ["# cfb 0.1.0", "# " + header]
    out = capsys.readouterr().out
    if out:
        assert out.splitlines()[:2] == want
    written = [p for p in tmp_path.iterdir() if p.name not in inputs or written_state(p) != inputs[p.name]]
    assert out or written
    for path in written:
        with open(path) as f:
            assert [f.readline().rstrip("\n") for _ in want] == want, path.name


@pytest.mark.parametrize("argv, unset", [
    (["rho-sweep", "--beta-xt", "1"], ["--out", "-"]),
    (["hist", "--in", "col.csv", "--col", "x"], ["--lo", "auto", "--hi", "auto"]),
], ids=["rho-sweep-out", "hist-lo-hi"])
def test_a_flag_given_its_unset_header_spelling_stays_unset(tmp_path, monkeypatch, capsys, argv, unset):
    """Typing the value the header shows for an unset flag runs as if the flag were left out."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "col.csv").write_text("x\n0.25\n0.5\n")
    assert run(argv) == 0
    want = capsys.readouterr().out
    assert run(argv + unset) == 0
    assert capsys.readouterr().out == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["col.csv"]


# ---------------------------------------------------------------------------
# eval-discrete
# ---------------------------------------------------------------------------


def test_eval_discrete_golden_output(capsys):
    assert run(EVAL_ARGS) == 0
    assert capsys.readouterr().out == GOLDEN_EVAL


def test_eval_discrete_identical_groups(capsys):
    assert run(["eval-discrete", "--p", "0.2,0.6,0.2", "--q", "0.2,0.6,0.2"]) == 0
    out = capsys.readouterr().out
    assert "cfb_star,0.5\n" in out


# ---------------------------------------------------------------------------
# search and screen-cf files
# ---------------------------------------------------------------------------


@pytest.fixture()
def small_search(tmp_path, capsys):
    out = tmp_path / "improper.csv"
    hist = tmp_path / "fig1_hist.csv"
    argv = ["search", "--step", "0.05",
            "--out", str(out), "--hist-out", str(hist)]
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    return argv, out, hist, stdout


def test_search_files_are_consistent(small_search):
    argv, out, hist, stdout = small_search
    comments, cols, rows = read_rows(out)
    assert comments[0] == "# cfb 0.1.0"
    assert comments[1].startswith("# search step=0.05 c=0.5 out=")
    assert cols == ",".join(IMPROPER_COLUMNS)

    count = int(next(l for l in stdout.splitlines() if l.startswith("count,")).split(",")[1])
    assert count == len(rows)

    _, hcols, hrows = read_rows(hist)
    assert hcols == "bin_left,bin_right,count"
    assert len(hrows) == 50
    assert sum(int(r.split(",")[2]) for r in hrows) == count

    # triples reported in exact decimals, statistic below chance
    for r in rows:
        vals = [float(v) for v in r.split(",")]
        assert sum(vals[0:3]) == pytest.approx(1.0, abs=1e-9)
        assert sum(vals[3:6]) == pytest.approx(1.0, abs=1e-9)
        assert vals[6] <= 0.5



@pytest.mark.parametrize("c", ["0.05", "0.3", "0.4142", "0.7", "0.95"])
def test_search_histogram_bins_every_survivor(tmp_path, capsys, c):
    """At the README's step 0.01 and high-level masses from near 0 to near 1, every
    survivor's statistic lies in fig1_hist.csv's range [0.41, 0.5]: the counts sum
    to `count`, and there is no `#` line past the two header lines."""
    hist = tmp_path / "fig1_hist.csv"
    assert run(["search", "--c", c, "--out", os.devnull, "--hist-out", str(hist)]) == 0
    stdout = capsys.readouterr().out
    count = int(next(l for l in stdout.splitlines() if l.startswith("count,")).split(",")[1])
    comments, _, rows = read_rows(hist)
    assert count > 0 and sum(int(r.split(",")[2]) for r in rows) == count
    assert len(comments) == 2


def test_search_rerun_is_byte_identical(small_search):
    argv, out, hist, _ = small_search
    first = out.read_bytes()
    first_hist = hist.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first
    assert hist.read_bytes() == first_hist


def test_read_improper_csv_round_trip(small_search):
    argv, out, _, stdout = small_search
    found = _read_improper_csv(str(out))
    count = int(next(l for l in stdout.splitlines() if l.startswith("count,")).split(",")[1])
    assert len(found) == count
    assert (found.deviation == found.cfb_star - 0.5).all()


def test_read_improper_csv_rejects_wrong_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="unexpected columns"):
        _read_improper_csv(str(bad))


def test_read_improper_csv_rejects_off_grid_values(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(IMPROPER_COLUMNS) + "\n"
                   "0.015,0.985,0,0,0.5,0.5,0.49\n")
    with pytest.raises(ValueError, match="hundredth"):
        _read_improper_csv(str(bad))


def test_read_improper_csv_accepts_other_spellings(tmp_path):
    """Values off the canonical %.10g spelling go through the float check."""
    canonical = tmp_path / "a.csv"
    canonical.write_text(",".join(IMPROPER_COLUMNS) + "\n"
                         "0.03,0,0.97,0,0.06,0.94,0.4188255613\n")
    other = tmp_path / "b.csv"
    other.write_text("# comment\n" + ",".join(IMPROPER_COLUMNS) + "\n\n"
                     "3e-2,0.0,0.970,0,0.0600000001,.94,0.4188255613\n")
    want = _read_improper_csv(str(canonical))
    got = _read_improper_csv(str(other))
    for name in ("p_minus", "p_plus", "q_minus", "q_plus", "cfb_star", "deviation"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
    assert (want.p_minus[0], 100 - want.q_minus[0] - want.q_plus[0]) == (3, 6)


def test_read_improper_csv_rejects_malformed_rows(tmp_path):
    bad = tmp_path / "bad.csv"
    head = ",".join(IMPROPER_COLUMNS) + "\n0.03,0,0.97,0,0.06,0.94,0.41\n"
    for row, message in (("0.03,0,0.97,0,0.06,0.41", "malformed row"),
                         ("0.03,0,0.97,0,0.06,0.94,0.41,1", "malformed row"),
                         ("0.5,0.5,0.5,0,0.06,0.94,0.41", "summing to 1"),
                         ("-0.01,0.04,0.97,0,0.06,0.94,0.41", "hundredth"),
                         ("1e300,0,0.97,0,0.06,0.94,0.41", "hundredth"),
                         ("inf,0,0.97,0,0.06,0.94,0.41", "hundredth"),
                         ("0.03,nan,0.97,0,0.06,0.94,0.41", "hundredth")):
        bad.write_text(head + row + "\n")
        with pytest.raises(ValueError, match=message):
            _read_improper_csv(str(bad))


def assert_same_findings(got, want):
    for name in ("p_minus", "p_plus", "q_minus", "q_plus", "cfb_star", "deviation"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_read_improper_csv_across_block_edges(small_search, tmp_path, monkeypatch):
    """Comment and empty lines at block edges, blocks of comments only, a comment
    after a row and a last row without newline read as the plain file does."""
    _, out, _, _ = small_search
    want = _read_improper_csv(str(out))
    _, columns, rows = read_rows(out)
    noisy = ["# cfb 0.1.0\n", "\n", columns + "\n"]
    for k, row in enumerate(rows[:-1]):
        noisy.append(row + (" # note\n" if k == 3 else "\n"))
        if k % 9 == 0:
            noisy += ["# comment line\n"] * 30  # longer than a block
        if k % 4 == 0:
            noisy += ["\n", "#\n"]
    noisy.append(rows[-1])
    noisy_path = tmp_path / "noisy.csv"
    noisy_path.write_text("".join(noisy))
    monkeypatch.setattr(_csv, "_CHARS_PER_READ", 100)
    assert_same_findings(_read_improper_csv(str(noisy_path)), want)
    assert_same_findings(_read_improper_csv(str(out)), want)


def test_read_improper_csv_hands_numpy_one_block_at_a_time(small_search, tmp_path, monkeypatch):
    """An input of several default-size blocks is parsed block by block, never whole.
    At CFB_THREADS=1 this process parses every block, so the recorder sees them all."""
    monkeypatch.setenv("CFB_THREADS", "1")
    _, out, _, _ = small_search
    _, columns, rows = read_rows(out)
    big = tmp_path / "big.csv"
    big.write_text(columns + "\n" + "".join(row + "\n" for row in rows) * 50)
    size = big.stat().st_size
    assert size > 3 * _csv._CHARS_PER_READ
    calls = []
    loadtxt = np.loadtxt

    def recording(lines, *args, **kwargs):
        calls.append(sum(map(len, lines)))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    found = _read_improper_csv(str(big))
    assert len(found) == 50 * len(rows)
    assert len(calls) >= 3
    assert max(calls) < _csv._CHARS_PER_READ + 100


@pytest.mark.parametrize("bad, message", [
    ("0.015,0.985,0,0,0.5,0.5,0.49", "0.015 is not a hundredth"),
    ("0.03,0,0.97,0,0.06,0.94", "malformed row"),
    ("0.03,0,0.97,0,0.06,0.94,0.41,0.41", "malformed row"),
    ("0.03,0,abc,0,0.06,0.94,0.41", "malformed row"),
    ("0.03,0,0.97,0,0.06,0.94,", "malformed row"),
    ("0.03,0,0.97,0,0.06,0_0.94,0.41", "malformed row"),
    ("0.03,0,0.96,0,0.06,0.94,0.41", "summing to 1"),
], ids=["off-grid", "short", "long", "non-numeric", "empty-field", "underscore", "bad-sum"])
def test_screen_cf_rejects_a_bad_row_in_a_later_block(small_search, tmp_path, capsys, bad, message):
    _, out, _, _ = small_search
    _, columns, rows = read_rows(out)
    rows = rows * 50
    k = len(rows) - 17  # well past the first block
    rows[k] = bad
    src = tmp_path / "in.csv"
    src.write_text("# cfb 0.1.0\n" + columns + "\n# note\n\n" + "".join(row + "\n" for row in rows))
    assert src.stat().st_size > 3 * _csv._CHARS_PER_READ
    real, fig6 = tmp_path / "real.csv", tmp_path / "fig6.csv"
    assert run(["screen-cf", "--in", str(src), "--out", str(real), "--hist-out", str(fig6)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{src}: " in captured.err and message in captured.err
    assert f"data row {k + 1}" in captured.err
    assert not real.exists() and not fig6.exists()


def test_screen_cf_roots_are_the_first_realizability_roots(small_search, tmp_path, capsys):
    """The y columns of realizable.csv are the first roots of each kept finding's low
    and high triple."""
    _, out, _, _ = small_search
    real = tmp_path / "realizable.csv"
    assert run(["screen-cf", "--in", str(out), "--out", str(real),
                "--hist-out", str(tmp_path / "fig6.csv")]) == 0
    capsys.readouterr()
    res = screen_improper_set(_read_improper_csv(str(out)))
    _, _, rows = read_rows(real)
    kept = res.kept
    assert len(rows) == len(kept) > 0
    for row, pm, pp, qm, qp in zip(rows, kept.p_minus.tolist(), kept.p_plus.tolist(),
                                   kept.q_minus.tolist(), kept.q_plus.tolist()):
        roots_low, roots_high = res.solutions[pm, pp][0], res.solutions[qm, qp][0]
        assert row.split(",")[7:] == ["%.10g" % v for v in roots_low[0] + roots_high[0]]


def test_screen_cf_roots_are_the_smaller_roots(small_search, tmp_path, capsys):
    """Each y1 column of realizable.csv holds the smaller root (pp + 1 - pm - sqrt(d)) / 2,
    with d from the row's own hundredths, and each (y0, y1) maps forward to the row's
    triple; computed from the CSV alone, not from the screen's solutions."""
    _, out, _, _ = small_search
    real = tmp_path / "realizable.csv"
    assert run(["screen-cf", "--in", str(out), "--out", str(real),
                "--hist-out", str(tmp_path / "fig6.csv")]) == 0
    capsys.readouterr()
    _, columns, rows = read_rows(real)
    assert tuple(columns.split(",")) == REALIZABLE_COLUMNS
    assert rows
    distinct = 0
    for row in rows:
        v = [float(x) for x in row.split(",")]
        for triple, (y0, y1) in ((v[0:3], v[7:9]), (v[3:6], v[9:11])):
            minus, plus = round(triple[0] * 100), round(triple[2] * 100)
            d = ((minus - 100 - plus) ** 2 - 400 * plus) / 10 ** 4
            assert d >= 0, row
            assert y1 == pytest.approx((plus * 0.01 + 1 - minus * 0.01 - math.sqrt(d)) / 2,
                                       abs=1e-9), row
            forward = benefit_triple_from_outcome_probs(y0, y1).as_tuple()
            assert forward == pytest.approx(tuple(triple), abs=1e-9), row
            distinct += d > 0
    assert distinct > 0  # rows where the larger root differs, so the order shows


@pytest.mark.parametrize("value", ["two", "-1"])
def test_beta_mc_rejects_an_invalid_thread_count(tmp_path, monkeypatch, capsys, value):
    """CFB_THREADS sets the Monte Carlo route's workers, so beta-mc checks it."""
    monkeypatch.setenv("CFB_THREADS", value)
    monkeypatch.chdir(tmp_path)
    assert run(["beta-mc", "--alpha", "0.5", "--beta", "0.5",
                "--p", "0.08,0,0.92", "--q", "0,0.15,0.85", "--n", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "CFB_THREADS" in captured.err
    assert not list(tmp_path.iterdir())


def test_beta_mc_runs_with_a_thread_count_above_64(tmp_path, monkeypatch, capsys):
    """CFB_THREADS above 64 counts as 64: beta-mc prints what it prints at 1."""
    argv = ["beta-mc", "--alpha", "0.5", "--beta", "0.5",
            "--p", "0.08,0,0.92", "--q", "0,0.15,0.85", "--n", "1000"]
    monkeypatch.chdir(tmp_path)
    outputs = []
    for value in ("1", "65", "10000"):
        monkeypatch.setenv("CFB_THREADS", value)
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs[1] == outputs[0] and outputs[2] == outputs[0]


# A library caller whose stdout is a pipe, so block buffered, with text
# unflushed when the Monte Carlo workers fork; a worker of the second run
# raises.  Three chunks at CFB_THREADS=3: worker 2 scores chunk 2.
_FAILING_WORKER_RUN = """
import os
from cfb import cfb_engine, run
cfb_engine._CHUNK_PAIRS = 1000
os.environ["CFB_THREADS"] = "3"
argv = ["beta-mc", "--alpha", "0.5", "--beta", "0.5", "--p", "0.08,0,0.92",
        "--q", "0,0.15,0.85", "--n", "3000"]
print("buffered")
first = run(argv)
score_chunk = cfb_engine._score_chunk

def refusing(pop, child, m):
    if child.spawn_key[-1] == 2:
        raise ValueError("chunk refused")
    return score_chunk(pop, child, m)

cfb_engine._score_chunk = refusing
print("exit codes", first, run(argv))
"""


def test_beta_mc_reports_a_failed_worker_in_one_line():
    """Exit 2 and one `cfb:` line naming the worker and its exception, and
    the workers write nothing that the caller had buffered."""
    proc = subprocess.run([sys.executable, "-c", _FAILING_WORKER_RUN],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "cfb: Monte Carlo worker 2 failed: ValueError: chunk refused\n"
    lines = proc.stdout.splitlines()
    assert lines[0] == "buffered" and lines[-1] == "exit codes 0 2"
    assert proc.stdout.count("buffered") == 1 and proc.stdout.count("estimate,") == 1


def test_search_does_not_read_the_thread_count(tmp_path, monkeypatch, capsys):
    """The census scan runs in the calling thread: CFB_THREADS unset, 1 or 2 gives the same bytes."""
    outputs = []
    for value in (None, "1", "2"):
        if value is None:
            monkeypatch.delenv("CFB_THREADS", raising=False)
        else:
            monkeypatch.setenv("CFB_THREADS", value)
        run_dir = tmp_path / str(value)
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert run(["search", "--step", "0.02"]) == 0
        outputs.append((capsys.readouterr().out, (run_dir / "improper.csv").read_bytes(),
                        (run_dir / "fig1_hist.csv").read_bytes()))
    assert outputs[0][0].startswith("# cfb") and len(outputs[0][1]) > 10_000
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_emit_replaces_the_file_atomically(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("previous\n")
    cfg = RunConfig("test", ())
    # the writer rejects the object column after the header is written
    rows = (np.arange(3.0), np.array(["x", "y", "z"], dtype=object))
    with pytest.raises(TypeError):
        _emit(str(out), cfg, ["a,b"], row_blocks(rows))
    assert out.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    _emit(str(out), cfg, ["a,b"], row_blocks((rows[0], np.array([b"x", b"y", b"z"]))))
    assert out.read_text() == "# cfb 0.1.0\n# test\na,b\n0,x\n1,y\n2,z\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_emit_writes_a_pipe_in_place(tmp_path):
    """A path that is no regular file, such as a pipe, is not replaced."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    _emit(str(fifo), RunConfig("test", ()), ["a"], row_blocks((np.arange(2),)))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == ["# cfb 0.1.0\n# test\na\n0\n1\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def run_on_a_pipe(tmp_path, data, argv_of):
    """Exit code of run(argv_of(pipe)) while another thread writes data into the pipe.

    Both run in threads joined with a timeout, so a reader that opens the
    pipe a second time, and waits for a writer that never comes, fails the
    test instead of hanging it.
    """
    fifo = tmp_path / "in.pipe"
    os.mkfifo(fifo)
    codes = []
    threads = [threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True),
               threading.Thread(target=lambda: codes.append(run(argv_of(str(fifo)))), daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    return codes[0]


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def test_hist_reads_a_pipe(tmp_path, capsys):
    """Rows streamed through a pipe, several pipe buffers of them, give the file's histogram."""
    text = "# comment\nname,score\n" + "".join(f"r{i},{i % 10}\n" for i in range(50_000))
    src = tmp_path / "vals.csv"
    src.write_text(text)

    def argv(path):
        return ["hist", "--in", path, "--col", "score", "--bins", "5", "--lo", "0", "--hi", "10"]

    assert run(argv(str(src))) == 0
    from_file = data_lines(capsys.readouterr().out)
    assert [int(line.split(",")[2]) for line in from_file[1:]] == [10_000] * 5
    assert run_on_a_pipe(tmp_path, text.encode(), argv) == 0
    assert data_lines(capsys.readouterr().out) == from_file


def test_screen_cf_reads_a_pipe(small_search, tmp_path, monkeypatch, capsys):
    """improper.csv streamed through a pipe, in many small read blocks, screens as the file does."""
    _, improper, _, _ = small_search
    monkeypatch.setattr(_csv, "_CHARS_PER_READ", 1000)

    def argv(path, tag):
        return ["screen-cf", "--in", path, "--out", str(tmp_path / f"{tag}.csv"),
                "--hist-out", str(tmp_path / f"{tag}_hist.csv")]

    assert run(argv(str(improper), "file")) == 0
    stdout = data_lines(capsys.readouterr().out)
    assert run_on_a_pipe(tmp_path, improper.read_bytes(), lambda path: argv(path, "pipe")) == 0
    assert data_lines(capsys.readouterr().out) == stdout
    for name in ("{}.csv", "{}_hist.csv"):
        pipe, file = (data_lines((tmp_path / name.format(tag)).read_text()) for tag in ("pipe", "file"))
        assert pipe == file and len(file) > 1


def test_array_commands_keep_freed_memory(tmp_path, monkeypatch, capsys):
    """The five array commands set glibc's mmap and trim thresholds; the scalar two leave
    the allocator alone."""
    import ctypes
    import types

    calls = []

    def mallopt(param, value):  # a function takes argtypes and restype as a ctypes one does
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    monkeypatch.chdir(tmp_path)
    for argv, keeps in [
        (EVAL_ARGS, False),
        (["search", "--step", "0.05"], True),
        (["screen-cf"], True),
        (["beta-mc", "--alpha", "0.5", "--beta", "0.5",
          "--p", "0.08,0,0.92", "--q", "0,0.15,0.85", "--n", "1000"], True),
        (["rho-sweep", "--beta-xt", "1"], False),
        (["match-compare", "--step", "0.05"], True),
        (["hist", "--in", "match_diffs.csv", "--col", "abs_diff"], True),
    ]:
        calls.clear()
        assert run(argv) == 0, argv
        assert calls == ([(-3, 32 << 20), (-1, 1 << 30)] if keeps else []), argv
    capsys.readouterr()


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()], ids=["no-library", "no-mallopt"])
def test_keep_freed_memory_is_a_noop_without_mallopt(tmp_path, monkeypatch, capsys, cdll):
    """Where mallopt cannot be found the helper does nothing, and match-compare writes
    the same bytes as where it can."""
    import ctypes

    argv = ["match-compare", "--step", "0.05"]
    outputs = []
    for patched in (False, True):
        run_dir = tmp_path / str(patched)
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        if patched:
            monkeypatch.setattr(ctypes, "CDLL", cdll)
            assert cli_reports._keep_freed_memory() is None
        assert run(argv) == 0
        outputs.append((capsys.readouterr().out, (run_dir / "match_diffs.csv").read_bytes(),
                        (run_dir / "fig2_hist.csv").read_bytes()))
    assert outputs[0][0].startswith("# cfb") and len(outputs[0][1]) > 10_000
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("argv", [
    ["search", "--step", "0.25"],
    ["rho-sweep", "--beta-xt", "1"],
    ["match-compare", "--step", "0.25"],
])
def test_write_errors_name_the_out_path(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--out", "nodir/a.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file or directory: 'nodir/a.csv'" in captured.err
    assert not list(tmp_path.iterdir())


def test_screen_cf_pipeline(small_search, tmp_path, capsys):
    argv, out, _, _ = small_search
    real = tmp_path / "realizable.csv"
    fig6 = tmp_path / "fig6_hist.csv"
    assert run(["screen-cf", "--in", str(out),
                "--out", str(real), "--hist-out", str(fig6)]) == 0
    stdout = capsys.readouterr().out

    comments, cols, rows = read_rows(real)
    assert cols == ",".join(REALIZABLE_COLUMNS)
    count = int(next(l for l in stdout.splitlines() if l.startswith("count,")).split(",")[1])
    assert count == len(rows)

    _, hcols, hrows = read_rows(fig6)
    assert hcols == "bin,count_all,count_realizable"
    kept = sum(int(r.split(",")[2]) for r in hrows)
    assert kept == count
    # the screen can only remove findings
    total = sum(int(r.split(",")[1]) for r in hrows)
    assert total >= kept


# ---------------------------------------------------------------------------
# beta-mc and rho-sweep
# ---------------------------------------------------------------------------


def test_beta_mc_reports_and_repeats(capsys):
    argv = ["beta-mc", "--alpha", "0.5", "--beta", "0.5",
            "--p", "0.08,0,0.92", "--q", "0,0.15,0.85",
            "--n", "50000", "--seed", "123"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    est = float(next(l for l in first.splitlines() if l.startswith("estimate,")).split(",")[1])
    se = float(next(l for l in first.splitlines() if l.startswith("std_error,")).split(",")[1])
    assert 0.0 < est < 1.0 and 0.0 < se < 0.05
    assert "pairs,50000" in first
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_beta_mc_reports_the_sampler_on_the_beta_mixture(capsys):
    """estimate and std_error are cfb_monte_carlo's on BetaXPopulation of the flags."""
    argv = ["beta-mc", "--alpha", "0.5", "--beta", "0.5",
            "--p", "0.08,0,0.92", "--q", "0,0.15,0.85", "--n", "50000", "--seed", "31"]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    pop = BetaXPopulation(0.5, 0.5, _TripleArg("0.08,0,0.92").triple, _TripleArg("0,0.15,0.85").triple)
    est, se = cfb_monte_carlo(pop, 50_000, 31)
    assert lines[2:] == [f"estimate,{_fmt(est)}", f"std_error,{_fmt(se)}", "pairs,50000"]


def test_beta_mc_rejects_non_qualifying_pair(capsys):
    code = run(["beta-mc", "--alpha", "0.5", "--beta", "0.5",
                "--p", "0.2,0.6,0.2", "--q", "0.2,0.6,0.2", "--n", "1000"])
    assert code == 2
    assert "below-chance" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["rho-sweep", "--beta-xt", "nan"], "betaxt"),
    (["rho-sweep", "--beta-xt", "inf"], "betaxt"),
    (["rho-sweep", "--beta-xt", "1", "--sigma", "inf"], "sigma"),
    (["beta-mc", "--alpha", "inf", "--beta", "0.5",
      "--p", "0.08,0,0.92", "--q", "0,0.15,0.85", "--n", "1000"], "alpha"),
], ids=["rho-sweep-beta-xt-nan", "rho-sweep-beta-xt-inf", "rho-sweep-sigma-inf", "beta-mc-alpha-inf"])
def test_non_finite_population_parameters_exit_two(capsys, argv, name):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} must be finite" in captured.err


def test_rho_sweep_stdout(capsys):
    assert run(["rho-sweep", "--beta-xt", "1", "--sigma", "1",
                "--rho", "-1:1:0.1"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "rho,cfb_star"
    body = [l.split(",") for l in lines[1:]]
    assert len(body) == 21
    vals = [float(v) for _, v in body]
    assert vals == sorted(vals)
    assert body[-1] == ["1", "1"]
    assert float(body[0][0]) == -1.0


def test_rho_sweep_writes_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["rho-sweep", "--beta-xt", "2", "--sigma", "0.5",
                "--rho", "0:1:0.25", "--out", str(out)]) == 0
    capsys.readouterr()
    _, cols, rows = read_rows(out)
    assert cols == "rho,cfb_star"
    assert len(rows) == 5


# ---------------------------------------------------------------------------
# match-compare and hist
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag, message", [
    ("search", "--step", "step must be finite"),
    ("match-compare", "--step", "grid_step must be finite"),
    ("match-compare", "--coeff-min", "coeff_range must be finite"),
    ("match-compare", "--coeff-max", "coeff_range must be finite"),
])
def test_grid_flags_reject_non_finite_values(tmp_path, monkeypatch, capsys, command, flag, message, value):
    monkeypatch.chdir(tmp_path)
    assert run([command, f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not list(tmp_path.iterdir())


# negative values in exponent, inf and nan spelling given as a separate argument:
# each reaches its flag's own check (exit 2 naming it) or is accepted (exit 0 and
# echoed in the `#` header)
@pytest.mark.parametrize("argv, code, text", [
    (["eval-discrete", "--c", "-1e-1", "--p", "0.25,0.01,0.74", "--q", "0.14,0.18,0.68"],
     2, "--c must be a finite value strictly inside (0, 1), got -0.1"),
    (["eval-discrete", "--p", "-1e-1,0.5,0.6", "--q", "0.14,0.18,0.68"], 2, "p_minus=-0.1 outside [0, 1]"),
    (["search", "--step", "-1e-2"], 2, "step must be"),
    (["search", "--c", "-inf"], 2, "c must lie strictly inside (0, 1), got -inf"),
    (["screen-cf", "--in", "-1.csv"], 2, "No such file or directory: '-1.csv'"),
    (["beta-mc", "--alpha", "-5e-1", "--beta", "0.5", "--p", "0.08,0,0.92", "--q", "0,0.15,0.85",
      "--n", "100"], 2, "Beta shape parameters must be positive"),
    (["rho-sweep", "--beta-xt", "1", "--sigma", "-1e0"], 2, "sigma must be positive"),
    (["rho-sweep", "--beta-xt", "1", "--rho", "-inf:0:1"], 2, "start, stop and step must be finite"),
    (["rho-sweep", "--beta-xt", "-1e0", "--rho", "-1:1:0.5"], 0, "# rho-sweep beta-xt=-1 "),
    (["match-compare", "--step", "0.1", "--coeff-min", "-1e1"], 0, " coeff-min=-10 coeff-max=5 "),
    (["match-compare", "--step", "0.1", "--coeff-max", "-INF"], 2, "coeff_range must be finite"),
    (["match-compare", "--step", "-1e-1"], 2, "grid_step must be finite and positive, got -0.1"),
    (["hist", "--in", "col.csv", "--col", "x", "--lo", "-1e-3", "--hi", "1"], 0, " lo=-0.001 hi=1 "),
    (["hist", "--in", "col.csv", "--col", "x", "--lo", "-nan"], 2, "need lo < hi"),
])
def test_negative_flag_values_are_values(tmp_path, monkeypatch, capsys, argv, code, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "col.csv").write_text("x\n0.25\n0.5\n")
    assert run(argv) == code
    captured = capsys.readouterr()
    assert "expected one argument" not in captured.err
    assert text in (captured.out if code == 0 else captured.err)


BETA_ARGS = ["beta-mc", "--alpha", "0.5", "--beta", "0.5", "--p", "0.08,0,0.92", "--q", "0,0.15,0.85"]


@pytest.mark.parametrize("argv, message", [
    (["hist", "--in", "col.csv", "--col", "x", "--lo", "nan"], "--lo must be a finite number (need lo < hi"),
    (["hist", "--in", "col.csv", "--col", "x", "--lo", "-inf", "--hi", "1"], "--lo must be a finite number"),
    (["hist", "--in", "col.csv", "--col", "x", "--hi", "inf"], "--hi must be a finite number"),
    (["hist", "--in", "col.csv", "--col", "x", "--bins", "0"], "--bins must be a positive integer, got 0"),
    (BETA_ARGS + ["--n", "0"], "--n must be a positive integer, got 0"),
    (BETA_ARGS + ["--n", "100", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    # the matching kernel would take -1 mod 2**64, the seed 18446744073709551615
    (["match-compare", "--step", "0.25", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
])
def test_flag_checks_name_their_flag(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "col.csv").write_text("x\n0.25\n0.5\n")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["col.csv"]


# steps whose scaled count overflows a float reach a check, not a traceback
@pytest.mark.parametrize("argv, message", [
    (["rho-sweep", "--beta-xt", "1", "--rho", "0:1:1e-320"], "--rho (stop - start) / step overflows"),
    (["rho-sweep", "--beta-xt", "1", "--rho=-1e308:1e308:1e308"], "--rho (stop - start) / step overflows"),
    (["search", "--step", "1e308"], "step must be a multiple of 0.01 that divides 1"),
    (["match-compare", "--step", "1e-320"], "grid_step is too small"),
])
def test_extreme_steps_exit_two(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not list(tmp_path.iterdir())


def test_match_compare_files(tmp_path, capsys):
    out = tmp_path / "match_diffs.csv"
    hist = tmp_path / "fig2_hist.csv"
    argv = ["match-compare", "--step", "0.05", "--seed", "20230516",
            "--out", str(out), "--hist-out", str(hist)]
    assert run(argv) == 0
    stdout = capsys.readouterr().out

    comments, cols, rows = read_rows(out)
    assert cols == ",".join(MATCH_COLUMNS)
    # 18*19/2 cells at step 0.05
    assert len(rows) == 171
    assert "cells,171" in stdout
    flags = {r.split(",")[-1] for r in rows}
    assert flags <= {"0", "1"}

    defined = int(next(l for l in stdout.splitlines() if l.startswith("defined,")).split(",")[1])
    _, hcols, hrows = read_rows(hist)
    assert hcols == "bin_left,bin_right,count"
    assert sum(int(r.split(",")[2]) for r in hrows) == defined

    first = out.read_bytes()
    assert run(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


def test_hist_subcommand(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    src.write_text("# comment\nname,score\na,1\nb,2\nc,2.5\nd,9\n")
    assert run(["hist", "--in", str(src), "--col", "score",
                "--bins", "2", "--lo", "0", "--hi", "10"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "bin_left,bin_right,count"
    assert lines[1].endswith(",3") and lines[2].endswith(",1")


@pytest.mark.parametrize("values, note", [
    ("0.1 nan 0.3 2", "# unbinned: 0 below 0, 1 above 1, 1 nan"),
    ("-0.5 0.1 0.3 nan nan", "# unbinned: 1 below 0, 0 above 1, 2 nan"),
])
def test_hist_counts_the_values_it_leaves_out(tmp_path, capsys, values, note):
    """Values outside --lo and --hi and NaN fall in no bin: one `#` line after the
    header lines and before the column line says how many."""
    src = tmp_path / "vals.csv"
    src.write_text("v\n" + "".join(f"{v}\n" for v in values.split()))
    assert run(["hist", "--in", str(src), "--col", "v", "--bins", "2", "--lo", "0", "--hi", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [note, "bin_left,bin_right,count", "0,0.5,2", "0.5,1,0"]
    assert lines[0].startswith("# cfb ") and lines[1].startswith("# hist ")


def test_hist_writes_no_note_when_it_bins_every_value(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    src.write_text("v\n0\n0.5\n1\n")
    assert run(["hist", "--in", str(src), "--col", "v", "--bins", "2", "--lo", "0", "--hi", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["bin_left,bin_right,count", "0,0.5,1", "0.5,1,2"]



@pytest.mark.parametrize("values, note", [
    ("0.0 -0.0 1 nan", "0 below 0, 0 above 1"),
    ("-0.0 0.0 1 nan", "0 below -0, 0 above 1"),
    ("-1 0.0 -0.0 nan", "0 below -1, 0 above 0"),
    ("-1 -0.0 0.0 nan", "0 below -1, 0 above -0"),
])
def test_hist_range_takes_the_first_of_two_signed_zeros(tmp_path, capsys, values, note):
    """A column whose minimum or maximum is held by both 0.0 and -0.0 takes the
    sign of the first, as Python's min() and max() do; the NaN makes the
    `# unbinned` line print the range."""
    src = tmp_path / "vals.csv"
    src.write_text("v\n" + "".join(f"{v}\n" for v in values.split()))
    assert run(["hist", "--in", str(src), "--col", "v", "--bins", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == f"# unbinned: {note}, 1 nan"


def test_hist_automatic_range_is_the_columns_minimum_and_maximum(tmp_path, capsys):
    """Without --lo and --hi, hist of match_diffs.csv's abs_diff writes what it writes
    with them set to the column's minimum and maximum, read here by the csv module."""
    diffs = tmp_path / "match_diffs.csv"
    assert run(["match-compare", "--step", "0.02", "--out", str(diffs),
                "--hist-out", str(tmp_path / "fig2_hist.csv")]) == 0
    with open(diffs) as f:
        rows = csv.DictReader(line for line in f if not line.startswith("#"))
        values = [v for v in (float(row["abs_diff"]) for row in rows) if not math.isnan(v)]
    argv = ["hist", "--in", str(diffs), "--col", "abs_diff", "--bins", "50"]
    capsys.readouterr()
    assert run(argv) == 0
    auto = capsys.readouterr().out.splitlines()
    assert run(argv + ["--lo", repr(min(values)), "--hi", repr(max(values))]) == 0
    explicit = capsys.readouterr().out.splitlines()
    assert auto[1].endswith(" lo=auto hi=auto out=-") and auto[2:] == explicit[2:]
    bins = [line for line in auto if not line.startswith("#")][1:]
    assert sum(int(line.rsplit(",", 1)[1]) for line in bins) == len(values)


def test_match_compare_histogram_counts_a_difference_above_its_range(tmp_path, capsys):
    """36 cells with coefficients in [-20, 20] at seed 0: one defined cell's
    abs_diff (0.2787) lies above DIFF_HIST_RANGE's 0.25, so fig2_hist.csv bins
    35 and says so."""
    out, hist = tmp_path / "diffs.csv", tmp_path / "hist.csv"
    assert run(["match-compare", "--step", "0.1", "--coeff-min", "-20", "--coeff-max", "20",
                "--seed", "0", "--out", str(out), "--hist-out", str(hist)]) == 0
    stdout = capsys.readouterr().out
    assert "cells,36\ndefined,36\n" in stdout and "max_abs_diff,0.2786715784" in stdout
    lines = hist.read_text().splitlines()
    assert lines[2:4] == ["# unbinned: 0 below 0, 1 above 0.25, 0 nan", "bin_left,bin_right,count"]
    assert sum(int(line.rsplit(",", 1)[1]) for line in lines[4:]) == 35


def test_hist_missing_column(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    src.write_text("name,score\na,1\n")
    assert run(["hist", "--in", str(src), "--col", "other"]) == 2
    assert "no column" in capsys.readouterr().err


def test_hist_rejects_short_row(tmp_path, capsys):
    """The message names the data row, counted from 1 past comments, as for a non-numeric field."""
    src = tmp_path / "vals.csv"
    for text, row in (("name,score\nb\n", 1),
                      ("name,score\na,1\nb\n", 2),
                      ("# c\nname,score\na,1\n# x\n\nb\n", 2),
                      ("name,score\n" + "a,1\n" * 4999 + "b\n", 5000),
                      ("name,score\n" + "a,1\n" * 70_000 + "# x\nb\n", 70_001)):
        src.write_text(text)
        assert run(["hist", "--in", str(src), "--col", "score"]) == 2
        assert f"{src}: data row {row} has no 'score' field" in capsys.readouterr().err


def test_hist_rejects_empty_range(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    src.write_text("score\n2\n2\n")
    assert run(["hist", "--in", str(src), "--col", "score"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("lo, hi, bins, shown", [
    ("0", "5e-324", "2", "[0, 4.940656458e-324] is too narrow for 2 bins: hi - lo = 4.940656458e-324 gives no 3"),
    # one ULP wide: printed to 10 digits, both ends read 1, so the message gives the width
    ("1", "1.0000000000000002", "3", "[1, 1] is too narrow for 3 bins: hi - lo = 2.220446049e-16 gives no 4"),
])
def test_hist_rejects_a_range_too_narrow_for_its_bins(tmp_path, capsys, lo, hi, bins, shown):
    src = tmp_path / "vals.csv"
    src.write_text("score\n0\n1\n")
    assert run(["hist", "--in", str(src), "--col", "score", "--lo", lo, "--hi", hi, "--bins", bins]) == 2
    err = capsys.readouterr().err
    assert f"histogram range {shown} distinct edges" in err
    assert all(flag in err for flag in ("--lo", "--hi", "--bins"))
    # two bins fit in two ULPs
    assert run(["hist", "--in", str(src), "--col", "score", "--lo", "1", "--hi", "1.0000000000000004",
                "--bins", "2"]) == 0


@pytest.mark.parametrize("text, flags", [
    ("score\n0.45\n0.47\n", ["--lo=-1.7e308", "--hi", "1.7e308"]),
    ("score\n-1.7e308\n1.7e308\n", []),  # the range the data gives
], ids=["flags", "data"])
def test_hist_rejects_a_range_whose_width_overflows(tmp_path, capsys, text, flags):
    src = tmp_path / "vals.csv"
    src.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["hist", "--in", str(src), "--col", "score", *flags]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert "histogram range [-1.7e+308, 1.7e+308] is too wide" in err
    assert "Warning" not in err


def hist_counts(src, capsys, *extra):
    assert run(["hist", "--in", str(src), "--col", "score", "--bins", "2",
                "--lo", "0", "--hi", "10", *extra]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    return [int(l.split(",")[2]) for l in lines[1:]]


def test_hist_rejects_a_non_numeric_field(tmp_path, capsys):
    """The message names the file and the data row, counted from 1 past comments."""
    src = tmp_path / "vals.csv"
    for text, row in (("name,score\nb,one\n", 1),
                      ("name,score\na,1\nb,one\n", 2),
                      ("# cfb 0.1.0\nname,score\na,1\n# note\n\nb,one\n", 2),
                      ("name,score\na,1\nb,one at row 7\n", 2)):
        src.write_text(text)
        assert run(["hist", "--in", str(src), "--col", "score"]) == 2
        err = capsys.readouterr().err
        assert str(src) in err and "one" in err
        assert f"{src}: data row {row}: could not convert string 'one" in err
        assert ", column" not in err


def test_hist_blames_the_row_when_its_column_is_a_number(tmp_path, capsys):
    """numpy refuses a carriage return inside a line, here outside the column read:
    the column's field alone is a number, so the row is named malformed."""
    src = tmp_path / "vals.csv"
    src.write_bytes(b"name,score\nb,2\na\rx,1\n")
    assert run(["hist", "--in", str(src), "--col", "score"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cfb: {src}: data row 2: malformed row ['a\\rx', '1']\n"


def test_screen_cf_names_the_file_of_a_header_that_is_no_utf8(tmp_path, capsys):
    src = tmp_path / "improper.csv"
    src.write_bytes(b"# cfb 0.1.0\n" + ",".join(IMPROPER_COLUMNS).encode() + b"\xff\n"
                    b"0.03,0,0.97,0,0.06,0.94,0.41\n")
    real, fig6 = tmp_path / "real.csv", tmp_path / "fig6.csv"
    assert run(["screen-cf", "--in", str(src), "--out", str(real), "--hist-out", str(fig6)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cfb: {src}: line 2: 'utf-8' codec can't decode byte 0xff")
    assert not real.exists() and not fig6.exists()


@pytest.mark.parametrize("rows_before, where", [
    (0, "line 1"),  # the header
    (1, "data row 1"),
    (5000, "data row 5000"),  # past the text reader's first chunk
    (-3, "line 6"),  # a comment after the header and three data rows
])
def test_hist_names_the_row_of_a_byte_that_is_no_utf8(tmp_path, capsys, rows_before, where):
    lines = [b"# cfb 0.1.0", b"name,score"] + [b"a,%d" % k for k in range(abs(rows_before) + 2)]
    if rows_before > 0:
        lines[1 + rows_before] = b"a,\xff1"
    elif rows_before < 0:
        lines.insert(2 - rows_before, b"# \xff")
    else:
        lines[0] = b"name,score\xff"
        del lines[1]
    src = tmp_path / "vals.csv"
    src.write_bytes(b"\n".join(lines) + b"\n")
    assert run(["hist", "--in", str(src), "--col", "score"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cfb: {src}: {where}: 'utf-8' codec can't decode byte 0xff")


IMPROPER_HEADER = ",".join(IMPROPER_COLUMNS).encode()
IMPROPER_ROW = b"0.03,0,0.97,0,0.06,0.94,0.41"


def reader_argv(command, path, out_dir):
    """argv of hist or screen-cf reading an improper.csv at path and writing into out_dir."""
    if command == "hist":
        return ["hist", "--in", path, "--col", "cfb_star", "--out", str(out_dir / "hist.csv")]
    return ["screen-cf", "--in", path, "--out", str(out_dir / "real.csv"),
            "--hist-out", str(out_dir / "fig6.csv")]


@pytest.mark.parametrize("command", ["hist", "screen-cf"])
@pytest.mark.parametrize("bad, where", [
    (b"# \xff note", "line 39"),  # a comment line after 30 data rows and 6 other lines
    (b"0.03,0,0.97,0,0.06,0.94,0.4\xff1", "data row 31"),
])
def test_both_readers_name_a_byte_that_is_no_utf8_blocks_in(tmp_path, monkeypatch, capsys, command,
                                                           bad, where):
    """One rule for both commands: a byte that is no UTF-8 anywhere, in a comment too,
    exits 2 naming its line or data row, however many read blocks come before it."""
    monkeypatch.setattr(_csv, "_CHARS_PER_READ", 100)
    lines = [b"# cfb 0.1.0", IMPROPER_HEADER] + ([IMPROPER_ROW] * 10 + [b"# note", b""]) * 3
    lines += [bad] + [IMPROPER_ROW] * 5
    src = tmp_path / "in.csv"
    src.write_bytes(b"\n".join(lines) + b"\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run(reader_argv(command, str(src), out_dir)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cfb: {src}: {where}: 'utf-8' codec can't decode byte 0xff")
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["hist", "screen-cf"])
def test_a_bad_byte_in_a_pipe_names_its_data_row(tmp_path, capsys, command):
    """The writer has finished before the bad byte is read, so a reader that opened the
    pipe a second time to find the row would wait for a writer forever."""
    data = b"\n".join([IMPROPER_HEADER, IMPROPER_ROW, b"0.03,0,0.97,0,0.06,0.94,0.4\xff1", IMPROPER_ROW])
    assert run_on_a_pipe(tmp_path, data + b"\n", lambda path: reader_argv(command, path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cfb: {tmp_path / 'in.pipe'}: data row 2: 'utf-8' codec can't decode byte 0xff")


def test_hist_opens_its_input_once(tmp_path, monkeypatch, capsys):
    """Naming the row of a bad byte takes no second open of --in."""
    src = tmp_path / "vals.csv"
    src.write_bytes(b"name,score\n" + b"a,1\n" * 4999 + b"b,\xff2\n")
    opens = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if file == str(src):
            opens.append(args)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert run(["hist", "--in", str(src), "--col", "score"]) == 2
    assert f"{src}: data row 5000: 'utf-8' codec" in capsys.readouterr().err
    assert len(opens) == 1


def test_hist_skips_comment_lines_between_rows(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    src.write_text("# cfb 0.1.0\nname,score\na,1\n# note\nb,2\n\nc,7\n")
    assert hist_counts(src, capsys) == [2, 1]


def test_hist_reads_a_last_row_without_newline(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    src.write_text("name,score\na,1\nb,7")
    assert hist_counts(src, capsys) == [1, 1]


def test_hist_accepts_rows_with_more_fields_than_the_header(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    src.write_text("name,score\na,1,extra\nb,7,x,y\n")
    assert hist_counts(src, capsys) == [1, 1]


def test_hist_drops_nan_values(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    src.write_text("name,score\na,nan\nb,1\nc,NaN\nd,7\n")
    assert hist_counts(src, capsys) == [1, 1]
    src.write_text("name,score\na,nan\n")
    assert run(["hist", "--in", str(src), "--col", "score"]) == 2
    assert "no usable values" in capsys.readouterr().err


def test_hist_of_a_header_without_rows_exits_2_quietly(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    src.write_text("# cfb 0.1.0\nname,score\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["hist", "--in", str(src), "--col", "score"]) == 2
    assert "no usable values" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# argv fuzzer
# ---------------------------------------------------------------------------

# every flag of every subcommand in the table, valued from a few valid spellings
# and the edge cases shared by all kinds; valid steps are >= 0.05, --n <= 1e4,
# --bins <= 1000 and rho ranges <= 801 points, so that no draw allocates much
FUZZ_VALID = {
    "c": ["0.5", "0.3"],
    "p": ["0.25,0.01,0.74", "0.08,0,0.92", "0,1,0"],
    "q": ["0.14,0.18,0.68", "0,0.15,0.85", "0,1,0"],
    "step": ["0.05", "0.1", "0.25", "0.5"],
    "out": ["out.csv", "nodir/out.csv"],
    "hist-out": ["hist.csv", "nodir/hist.csv"],
    "in": ["in.csv", "missing.csv"],
    "alpha": ["0.5", "2"],
    "beta": ["0.5", "2"],
    "n": ["1", "2", "100", "10000"],
    "seed": ["0", "7", str(2 ** 64)],
    "beta-xt": ["1", "-2"],
    "sigma": ["1", "0.5"],
    "rho": ["-1:1:0.1", "0:1:0.25", "-.5:.5:.5", "-1:1:0.0025"],
    "coeff-min": ["-5", "-400"],
    "coeff-max": ["5", "1"],
    "col": ["cfb_star", "p_minus", "nope"],
    "bins": ["1", "50", "1000"],
    "lo": ["0", "0.45"],
    "hi": ["1", "0.45"],
}
FUZZ_EDGES = ["nan", "inf", "-inf", "0", "-1", "-0.5", "1e308", "1e-320", "x", "0,1", "0:1", ""]
FUZZ_INPUT = ",".join(IMPROPER_COLUMNS) + "\n0.03,0,0.97,0,0.06,0.94,0.4188255613\n" \
    "0.25,0.01,0.74,0.14,0.18,0.68,0.4908655453\n"


@st.composite
def cli_argv(draw):
    name = draw(st.sampled_from(sorted(cli_reports._COMMANDS)))
    argv = [name]
    for flag in cli_reports._COMMANDS[name].flags:
        values = st.sampled_from(FUZZ_VALID[flag.name] + FUZZ_EDGES)
        # an omitted --step or --n runs at full size
        if flag.name not in ("step", "n") and (flag.default or flag.absent):
            values = st.none() | values
        value = draw(values)
        if value is not None:
            argv.append(f"--{flag.name}={value}")
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
@example(argv=["rho-sweep", "--beta-xt=1e-320", "--sigma=1e-320"])  # squares that underflow to 0
@example(argv=["search", "--step=1e308"])
def test_argv_fuzz_exits_cleanly(tmp_path, monkeypatch, capsys, argv):
    work = tmp_path / str(len(list(tmp_path.iterdir())))
    work.mkdir()
    (work / "in.csv").write_text(FUZZ_INPUT)
    monkeypatch.chdir(work)
    code = run(argv)
    captured = capsys.readouterr()
    assert code in (0, 2, 3), captured.err
    if code:
        assert captured.out == ""
    assert ".tmp" not in captured.err
    assert not list(work.rglob("*.tmp"))


# ---------------------------------------------------------------------------
# size caps and value limits checked before any work
# ---------------------------------------------------------------------------

# the largest bound whose linear predictor 6 * |bound| is finite
COEFF_EDGE = 2.996155224770526e+307


@pytest.mark.parametrize("argv, message", [
    (["rho-sweep", "--beta-xt", "1", "--rho", "0:1:1e-300"], "--rho '0:1:1e-300' makes 1e+300 points"),
    (["rho-sweep", "--beta-xt", "1", "--rho", "0:1:1e-9"], "more than 1,000,000"),
    (["rho-sweep", "--beta-xt", "1", "--rho", "0:1:1e-6"], "--rho '0:1:1e-6' makes 1000001 points"),
    (["match-compare", "--step", "1e-300"], "--step must be a step giving at most 10,000,000 grid cells"),
    (["match-compare", "--step", "1e-9"], "--step must be a step giving at most 10,000,000 grid cells"),
    (["match-compare", "--step", "0.0002"], "--step must be a step giving at most 10,000,000 grid cells"),
    (["match-compare", "--step", "0.25", "--coeff-max", "1e308"], "--coeff-max must be a number whose linear"),
    (["match-compare", "--step", "0.25", "--coeff-min", "-1e308"], "--coeff-min must be a number whose linear"),
    (["match-compare", "--step", "0.25", f"--coeff-max={-COEFF_EDGE * (1 + 2 ** -52)!r}"], "--coeff-max"),
    (["match-compare", "--step", "0.25", "--seed", str(2 ** 64)], f"--seed must be below 2**64, got {2 ** 64}"),
    (["match-compare", "--step", "0.25", "--seed", str(10 ** 30)], "--seed must be below 2**64"),
    (["hist", "--in", "col.csv", "--col", "x", "--bins", str(10 ** 12)],
     "--bins must be at most 1,000,000, got 1000000000000"),
    (BETA_ARGS + ["--n", str(10 ** 20)], f"--n must be at most 10,000,000,000, got {10 ** 20}"),
])
def test_flag_limits_exit_two_before_any_work(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Warning" not in captured.err
    assert not list(tmp_path.iterdir())


def test_count_caps_are_inclusive_and_keep_the_sampler_small():
    """--n stays where cfb_monte_carlo's pair counts are exact in a float and its chunk list is short."""
    from cfb.cfb_engine import _CHUNK_PAIRS

    assert cli_reports._MAX_MC_PAIRS <= 2 ** 53
    assert cli_reports._MAX_MC_PAIRS // _CHUNK_PAIRS <= 10_000
    flags = {f.name: f.parse for name in ("beta-mc", "hist") for f in cli_reports._COMMANDS[name].flags}
    for flag, cap in (("n", cli_reports._MAX_MC_PAIRS), ("bins", cli_reports._MAX_HIST_BINS)):
        assert flags[flag](str(cap)) == cap
        with pytest.raises(argparse.ArgumentTypeError, match=f"must be at most {cap:,}, got {cap + 1}"):
            flags[flag](str(cap + 1))


def test_rho_cap_is_checked_before_points_are_built(monkeypatch):
    def no_values(self):
        raise AssertionError("values built")

    monkeypatch.setattr(_RhoRangeArg, "values", no_values)
    assert _RhoRangeArg("0:999999:1").count == 1_000_000
    with pytest.raises(argparse.ArgumentTypeError, match="makes 1000001 points"):
        _RhoRangeArg("0:1000000:1")


def test_grid_cells_are_the_kernels():
    from cfb import matching_experiment
    from cfb.matched_pairs import _grid_cells

    assert _grid_cells(0.001) == 498_501
    for step in (1 / 3, 0.25, 0.1, 0.05, 0.02):
        assert _grid_cells(step) == len(matching_experiment(step))
    # the finest step that divides 1 within the cap, and the first beyond it,
    # which the flag and the kernel both reject
    assert _grid_cells(1 / 4473) == 9_997_156
    assert _grid_cells(1 / 4474) == 10_001_628
    assert cli_reports._grid_step(repr(1 / 4473)) == 1 / 4473
    with pytest.raises(argparse.ArgumentTypeError):
        cli_reports._grid_step(repr(1 / 4474))
    with pytest.raises(ValueError, match="at most 10,000,000 grid cells"):
        matching_experiment(1 / 4474)


def test_match_compare_step_cap_leaves_numpy_out(tmp_path):
    code = ("import sys; from cfb import run; "
            "code = run(['match-compare', '--step', '1e-300']); "
            "print(code, 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, cwd=tmp_path)
    assert proc.stdout.splitlines()[-1] == "2 False"
    assert "--step" in proc.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("bounds", [
    (-COEFF_EDGE, COEFF_EDGE),
    (COEFF_EDGE / 2, COEFF_EDGE),
    (-COEFF_EDGE, -COEFF_EDGE / 3),
])
def test_largest_coefficient_bounds_run_without_warnings(tmp_path, monkeypatch, capsys, bounds):
    monkeypatch.chdir(tmp_path)
    lo, hi = bounds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["match-compare", "--step", "0.05", f"--coeff-min={lo!r}", f"--coeff-max={hi!r}"]) == 0
    captured = capsys.readouterr()
    assert "Warning" not in captured.err
    assert f"cells,{18 * 19 // 2}" in captured.out


def test_seed_limits(tmp_path, monkeypatch, capsys):
    """match-compare takes seeds below 2**64; beta-mc gives larger seeds streams of their own."""
    monkeypatch.chdir(tmp_path)
    assert run(["match-compare", "--step", "0.25", "--seed", str(2 ** 64 - 1)]) == 0
    assert f"seed={2 ** 64 - 1} " in capsys.readouterr().out
    estimates = []
    for seed in (0, 2 ** 64):
        assert run(BETA_ARGS + ["--n", "1000", "--seed", str(seed)]) == 0
        estimates.append(capsys.readouterr().out.splitlines()[2])
    assert estimates[0] != estimates[1]


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_console_script_is_installed():
    exe = shutil.which("cfb")
    assert exe, "console script 'cfb' not on PATH"
    proc = subprocess.run(
        [exe, *EVAL_ARGS], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_EVAL


def test_python_m_cfb_runs_the_cli(capsys):
    """Same bytes as run(), and numpy is never imported (-X importtime lists every import)."""
    argv = ["eval-discrete", "--p", "0.25,0.01,0.74", "--q", "0.14,0.18,0.68"]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "cfb", *argv],
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert run(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()
                if line.startswith("import time:")]
    assert "cfb.cli_reports" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


HIST_CSV = "name,score\na,1\nb,2\nc,2.5\nd,9\n"
HIST_ARGV = ["hist", "--in", "vals.csv", "--col", "score", "--bins", "2", "--lo", "0", "--hi", "10"]

# runs cli_reports.main() for hist, then prints its exit code, whether numpy
# loaded, the BLAS setting and the process's OS threads (or "-" without /proc)
MAIN_THREADS = f"""\
import os, sys
from cfb.cli_reports import main
sys.argv = ["cfb", *{HIST_ARGV!r}]
try:
    main()
except SystemExit as e:
    code = e.code
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else "-"
print(code, "numpy" in sys.modules, os.environ["OPENBLAS_NUM_THREADS"], tasks)
"""


@pytest.mark.parametrize("preset", [None, "3"])
def test_main_runs_an_array_command_in_one_thread(tmp_path, preset):
    """main() loads OpenBLAS single-threaded, whatever the caller's environment asked for."""
    (tmp_path / "vals.csv").write_text(HIST_CSV)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", MAIN_THREADS], capture_output=True, text=True,
                          timeout=60, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    code, numpy_loaded, setting, tasks = proc.stdout.splitlines()[-1].split()
    assert (code, numpy_loaded, setting) == ("0", "True", "1")
    if tasks != "-":
        assert tasks == "1"


def test_main_freezes_the_collector_once_the_command_is_done(tmp_path, monkeypatch, capsys):
    (tmp_path / "vals.csv").write_text(HIST_CSV)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # main sets it; monkeypatch restores it
    monkeypatch.setattr(sys, "argv", ["cfb", *HIST_ARGV])
    frozen = []
    monkeypatch.setattr(cli_reports.gc, "freeze", lambda: frozen.append(capsys.readouterr().out))
    with pytest.raises(SystemExit) as exit_:
        cli_reports.main()
    assert exit_.value.code == 0
    # once, after the histogram was written
    assert len(frozen) == 1 and "bin_left,bin_right,count" in frozen[0]


def test_run_leaves_the_environment_alone(tmp_path, monkeypatch, capsys):
    (tmp_path / "vals.csv").write_text(HIST_CSV)
    monkeypatch.chdir(tmp_path)
    before = dict(os.environ)
    assert run(HIST_ARGV) == 0
    capsys.readouterr()
    assert dict(os.environ) == before


def test_python_m_cfb_without_arguments_exits_2():
    proc = subprocess.run([sys.executable, "-m", "cfb"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "required" in proc.stderr
