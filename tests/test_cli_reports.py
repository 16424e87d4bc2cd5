"""Command-line surface: argument handling, report files, exit codes.

Everything runs in process through cfb.run except one subprocess check
that the console script is actually installed.
"""

import os
import shutil
import stat
import subprocess
import threading
import warnings

import pytest

import numpy as np

from cfb import RunConfig, cli_reports, run, screen_improper_set
from cfb.cli_reports import (
    IMPROPER_COLUMNS,
    MATCH_COLUMNS,
    REALIZABLE_COLUMNS,
    _emit,
    _RhoRangeArg,
    _TripleArg,
    _read_improper_csv,
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


def test_search_rerun_is_byte_identical(small_search):
    argv, out, hist, _ = small_search
    first = out.read_bytes()
    first_hist = hist.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first
    assert hist.read_bytes() == first_hist


def test_read_improper_csv_round_trip(small_search):
    argv, out, _, stdout = small_search
    records = _read_improper_csv(str(out))
    count = int(next(l for l in stdout.splitlines() if l.startswith("count,")).split(",")[1])
    assert len(records) == count
    assert all(r.deviation == r.cfb_star - 0.5 for r in records)


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
    want = _read_improper_csv(str(canonical)).records
    assert _read_improper_csv(str(other)).records == want
    assert (want[0].triple_p.minus, want[0].triple_q.zero) == (3, 6)


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
    monkeypatch.setattr(cli_reports, "_CHARS_PER_READ", 100)
    assert_same_findings(_read_improper_csv(str(noisy_path)), want)
    assert_same_findings(_read_improper_csv(str(out)), want)


def test_read_improper_csv_hands_numpy_one_block_at_a_time(small_search, tmp_path, monkeypatch):
    """An input of several default-size blocks is parsed block by block, never whole."""
    _, out, _, _ = small_search
    _, columns, rows = read_rows(out)
    big = tmp_path / "big.csv"
    big.write_text(columns + "\n" + "".join(row + "\n" for row in rows) * 50)
    size = big.stat().st_size
    assert size > 3 * cli_reports._CHARS_PER_READ
    calls = []
    loadtxt = np.loadtxt

    def recording(lines, *args, **kwargs):
        calls.append(sum(map(len, lines)))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    found = _read_improper_csv(str(big))
    assert len(found) == 50 * len(rows)
    assert len(calls) >= 3
    assert max(calls) < cli_reports._CHARS_PER_READ + 100


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
    assert src.stat().st_size > 3 * cli_reports._CHARS_PER_READ
    real, fig6 = tmp_path / "real.csv", tmp_path / "fig6.csv"
    assert run(["screen-cf", "--in", str(src), "--out", str(real), "--hist-out", str(fig6)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{src}: " in captured.err and message in captured.err
    assert f"data row {k + 1}" in captured.err
    assert not real.exists() and not fig6.exists()


def test_screen_cf_roots_are_the_first_realizability_roots(small_search, tmp_path, capsys):
    """The y columns of realizable.csv are roots_low[0] and roots_high[0] of each kept finding."""
    _, out, _, _ = small_search
    real = tmp_path / "realizable.csv"
    assert run(["screen-cf", "--in", str(out), "--out", str(real),
                "--hist-out", str(tmp_path / "fig6.csv")]) == 0
    capsys.readouterr()
    res = screen_improper_set(_read_improper_csv(str(out)))
    _, _, rows = read_rows(real)
    assert len(rows) == len(res.realizability) > 0
    for row, ev in zip(rows, res.realizability):
        assert row.split(",")[7:] == ["%.10g" % v for v in ev.roots_low[0] + ev.roots_high[0]]


@pytest.mark.parametrize("value", ["two", "-1"])
def test_search_rejects_an_invalid_thread_count(tmp_path, monkeypatch, capsys, value):
    """CFB_THREADS sets the census scan's workers, so search checks it too."""
    monkeypatch.setenv("CFB_THREADS", value)
    monkeypatch.chdir(tmp_path)
    assert run(["search", "--step", "0.05"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "CFB_THREADS" in captured.err
    assert not list(tmp_path.iterdir())


def test_emit_replaces_the_file_atomically(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("previous\n")
    cfg = RunConfig("test", ())
    # the writer rejects the object column after the header is written
    rows = (np.arange(3.0), np.array(["x", "y", "z"], dtype=object))
    with pytest.raises(TypeError):
        _emit(str(out), cfg, ["a,b"], rows)
    assert out.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    _emit(str(out), cfg, ["a,b"], (rows[0], np.array([b"x", b"y", b"z"])))
    assert out.read_text() == "# cfb 0.1.0\n# test\na,b\n0,x\n1,y\n2,z\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_emit_writes_a_pipe_in_place(tmp_path):
    """A path that is no regular file, such as a pipe, is not replaced."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    _emit(str(fifo), RunConfig("test", ()), ["a"], (np.arange(2),))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == ["# cfb 0.1.0\n# test\na\n0\n1\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


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


def test_hist_missing_column(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    src.write_text("name,score\na,1\n")
    assert run(["hist", "--in", str(src), "--col", "other"]) == 2
    assert "no column" in capsys.readouterr().err


def test_hist_rejects_short_row(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    src.write_text("name,score\na,1\nb\n")
    assert run(["hist", "--in", str(src), "--col", "score"]) == 2
    assert "no 'score' field" in capsys.readouterr().err


def test_hist_rejects_empty_range(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    src.write_text("score\n2\n2\n")
    assert run(["hist", "--in", str(src), "--col", "score"]) == 2
    capsys.readouterr()


def hist_counts(src, capsys, *extra):
    assert run(["hist", "--in", str(src), "--col", "score", "--bins", "2",
                "--lo", "0", "--hi", "10", *extra]) == 0
    out = capsys.readouterr().out
    return [int(l.split(",")[2]) for l in out.splitlines()[3:]]


def test_hist_rejects_a_non_numeric_field(tmp_path, capsys):
    src = tmp_path / "vals.csv"
    src.write_text("name,score\na,1\nb,one\n")
    assert run(["hist", "--in", str(src), "--col", "score"]) == 2
    err = capsys.readouterr().err
    assert str(src) in err and "one" in err


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
