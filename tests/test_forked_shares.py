"""Work that the command line splits over forked worker processes.

cfb._fork.in_order cuts each caller's work units into contiguous runs:
match-compare sweeps and formats runs of sweep blocks, and `hist` and
`screen-cf` parse runs of a regular file's read blocks.  Every split
must give the bytes and the messages that one process gives, and no
worker process or temporary file may outlive a command, whether it
succeeds or fails.
"""

import os
import signal
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfb import RunConfig, _csv, matched_pairs, run
from cfb._csv import _read_column, row_blocks
from cfb._fork import in_order
from cfb.cli_reports import _emit


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# the cut
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("threads, workers", [("1", 1), ("2", 2), ("3", 3), ("4", 4), ("128", 64)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 130])
@pytest.mark.parametrize("units_of", [lambda n: list(range(n)), range], ids=["list", "range"])
def test_in_order_cuts_the_units_into_contiguous_runs(monkeypatch, threads, workers, n, units_of):
    """n units at CFB_THREADS=threads, above 64 counting as 64, as a harness sets
    it to a 128-CPU machine's count: produce sees min(workers, n) runs, run k
    being units[k * n // runs:(k + 1) * n // runs], and the items come back in
    order.  With os.fork removed the calling process makes every run's items,
    so the test starts no process."""
    monkeypatch.setenv("CFB_THREADS", threads)
    monkeypatch.delattr(os, "fork")
    units = units_of(n)
    runs = []

    def produce(run):
        runs.append(list(run))
        yield from run

    assert list(in_order("test", produce, units)) == list(units)
    w = min(workers, n)
    assert runs == [list(range(k * n // w, (k + 1) * n // w)) for k in range(w)]


# ---------------------------------------------------------------------------
# a failed worker
# ---------------------------------------------------------------------------


def _refuse():
    raise RuntimeError("share refused")


FAILURES = [
    pytest.param(_refuse, "RuntimeError: share refused", id="raises"),
    pytest.param(lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}",
                 id="killed"),
]


def failing_in_worker(fn, fail):
    """fn, but calling fail() first in any process other than this one."""
    caller = os.getpid()

    def failing(*args, **kwargs):
        if os.getpid() != caller:
            fail()
        return fn(*args, **kwargs)
    return failing


@pytest.mark.parametrize("fail, report", FAILURES)
def test_a_failed_match_compare_worker_leaves_the_output_and_no_child(tmp_path, monkeypatch, capsys,
                                                                      fail, report):
    """--step 0.005 has 19,701 cells, two sweep blocks: at CFB_THREADS=2 worker 1
    sweeps the second.  Exit 2 with one `cfb:` line; the files it would have
    replaced keep their bytes and no temporary file is left."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CFB_THREADS", "2")
    (tmp_path / "match_diffs.csv").write_text("previous\n")
    monkeypatch.setattr(matched_pairs, "_sweep_block", failing_in_worker(matched_pairs._sweep_block, fail))
    assert run(["match-compare", "--step", "0.005"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cfb: match-compare worker 1 failed: {report}\n"
    assert_no_child()
    assert (tmp_path / "match_diffs.csv").read_text() == "previous\n"
    assert sorted(os.listdir(tmp_path)) == ["match_diffs.csv"]


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """Real outputs, cut to a few dozen kilobytes: improper.csv of `search --step 0.05`
    (526 rows) and the first 250 rows of match_diffs.csv of `match-compare --step 0.02`."""
    work = tmp_path_factory.mktemp("samples")
    assert run(["search", "--step", "0.05", "--out", str(work / "improper.csv"),
                "--hist-out", str(work / "fig1_hist.csv")]) == 0
    assert run(["match-compare", "--step", "0.02", "--out", str(work / "match_diffs.csv"),
                "--hist-out", str(work / "fig2_hist.csv")]) == 0
    match = (work / "match_diffs.csv").read_bytes().split(b"\n")
    return {"improper": (work / "improper.csv").read_bytes(),
            "match": b"\n".join(match[:253]) + b"\n"}


# the read block size the split-reader tests use, so that the samples span many blocks
SMALL_BLOCK = 2048
COLUMN = {"improper": "cfb_star", "match": "abs_diff"}


def command_argv(command, sample):
    if command == "hist":
        return ["hist", "--in", "in.csv", "--col", COLUMN[sample], "--bins", "10", "--out", "out.csv"]
    return ["screen-cf", "--in", "in.csv", "--out", "out.csv", "--hist-out", "hist.csv"]


@pytest.mark.parametrize("command, sample", [("hist", "match"), ("screen-cf", "improper")])
@pytest.mark.parametrize("fail, report", FAILURES)
def test_a_failed_reader_worker_leaves_the_output_and_no_child(samples, tmp_path, monkeypatch, capsys,
                                                               command, sample, fail, report):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CFB_THREADS", "2")
    monkeypatch.setattr(_csv, "_CHARS_PER_READ", SMALL_BLOCK)
    (tmp_path / "in.csv").write_bytes(samples[sample])
    (tmp_path / "out.csv").write_text("previous\n")
    monkeypatch.setattr(np, "loadtxt", failing_in_worker(np.loadtxt, fail))
    assert run(command_argv(command, sample)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cfb: CSV reader worker 1 failed: {report}\n"
    assert_no_child()
    assert (tmp_path / "out.csv").read_text() == "previous\n"
    assert sorted(os.listdir(tmp_path)) == ["in.csv", "out.csv"]


# ---------------------------------------------------------------------------
# the split reader against the one-process reader
# ---------------------------------------------------------------------------


def mutate(data, kind, where, byte):
    """data with one kind of damage at relative position where (0 to 1)."""
    if not data:
        return data
    pos = min(int(where * len(data)), len(data) - 1)
    line_end = data.find(b"\n", pos)
    line_end = len(data) if line_end < 0 else line_end
    if kind == "truncate":
        return data[:pos]
    if kind == "flip":
        return data[:pos] + bytes([data[pos] ^ (1 << byte % 8)]) + data[pos + 1:]
    if kind == "delete":
        return data[:pos] + data[pos + 1 + byte % 64:]
    if kind == "crlf":
        return data[:pos] + data[pos:].replace(b"\n", b"\r\n")
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "nul":
        return data[:pos] + b"\0" + data[pos:]
    if kind == "extra-column":
        return data[:line_end] + b",1" + data[line_end:]
    # missing column: the last field of the line holding pos goes
    cut = data.rfind(b",", 0, line_end)
    return data if cut < 0 else data[:cut] + data[line_end:]


MUTATION = st.tuples(
    st.sampled_from(["truncate", "flip", "delete", "crlf", "bom", "nul", "extra-column", "missing-column"]),
    st.floats(0.0, 1.0),
    st.integers(0, 255),
)


def run_in(work, argv, data, mode, monkeypatch, capsys, pipe_threads="2"):
    """(exit code, stdout, stderr, files left and their bytes) of argv in directory work,
    reading data from in.csv: a file at CFB_THREADS=mode, or a pipe at
    CFB_THREADS=pipe_threads when mode is "pipe"."""
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("CFB_THREADS", pipe_threads if mode == "pipe" else mode)
    if mode != "pipe":
        (work / "in.csv").write_bytes(data)
        code = run(argv)
    else:
        os.mkfifo(work / "in.csv")

        def feed():
            try:
                with open(work / "in.csv", "wb") as f:
                    f.write(data)
            except BrokenPipeError:  # the reader stopped at a fault
                pass
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        code = run(argv)
        writer.join(timeout=60)
        assert not writer.is_alive()
    out, err = capsys.readouterr()
    files = {name: (work / name).read_bytes() for name in sorted(os.listdir(work)) if name != "in.csv"}
    return code, out, err, files


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sample=st.sampled_from(["improper", "match"]), mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_split_reader_fuzz_equals_one_process(samples, tmp_path, monkeypatch, capsys, sample, mutations):
    """Damaged real samples through hist and screen-cf at CFB_THREADS 1 and 2 and
    through a pipe: the same exit code, output and message in every mode, one
    `cfb:` line naming the file for a bad data row, no output file after a
    failure, no temporary file and no child process after any run."""
    monkeypatch.setattr(_csv, "_CHARS_PER_READ", SMALL_BLOCK)
    data = samples[sample]
    for mutation in mutations:
        data = mutate(data, *mutation)
    example = tmp_path / str(len(list(tmp_path.iterdir())))
    example.mkdir()
    for command in ("hist", "screen-cf"):
        argv = command_argv(command, sample)
        results = [run_in(example / f"{command}-{mode}", argv, data, mode, monkeypatch, capsys)
                   for mode in ("1", "2", "pipe")]
        assert_no_child()
        code, out, err, files = results[0]
        assert results[1] == results[0] and results[2] == results[0], command
        assert code in (0, 2), err
        if code == 2:
            assert out == "" and files == {}
            assert err.startswith("cfb: ") and err.count("\n") == 1
            assert "data row" not in err or err.startswith("cfb: in.csv: ")
        else:
            assert set(files) == ({"out.csv"} if command == "hist" else {"out.csv", "hist.csv"})


@pytest.mark.parametrize("damage, where", [
    (b"0.1,zz", "data row 222 has no 'abs_diff' field"),
    (b"\xff", "data row 222: 'utf-8' codec can't decode byte 0xff"),
    (b"\r\r", "data row 222 has no 'abs_diff' field"),
    (b"# \xff", "line 225: 'utf-8' codec can't decode byte 0xff"),
])
def test_split_reader_names_a_late_fault_as_one_process_does(samples, tmp_path, monkeypatch, capsys,
                                                             damage, where):
    """A bad line in the last share, after 3 header lines and 221 data rows: a
    worker numbers it from its share's start, and the caller adds the lines
    and data rows of the shares before it."""
    monkeypatch.setattr(_csv, "_CHARS_PER_READ", SMALL_BLOCK)
    lines = samples["match"].split(b"\n")
    bad = b"\n".join(lines[:-30] + [damage] + lines[-30:])
    results = [run_in(tmp_path / mode, command_argv("hist", "match"), bad, mode, monkeypatch, capsys)
               for mode in ("1", "2", "4", "pipe")]
    assert all(result == results[0] for result in results)
    assert results[0][0] == 2 and results[0][2].startswith(f"cfb: in.csv: {where}")


def test_a_pipe_has_its_thread_count_checked(samples, tmp_path, monkeypatch, capsys):
    """hist of a pipe at CFB_THREADS=abc exits 2 with one `cfb:` line, as of a file."""
    got = [run_in(tmp_path / mode, command_argv("hist", "match"), samples["match"], mode, monkeypatch, capsys,
                  pipe_threads="abc") for mode in ("abc", "pipe")]
    assert got[0] == got[1] == (2, "", "cfb: CFB_THREADS must be an integer, got 'abc'\n", {})
    assert_no_child()


OVERLONG = 420_000  # characters of the overlong line, above one read block (_CHARS_PER_READ)


@pytest.mark.parametrize("line", [
    pytest.param(b"0.5," + b"x" * OVERLONG, id="non-numeric"),
    pytest.param(b"0.5,0.1 #" + b"c" * OVERLONG, id="comment"),
    pytest.param(b"0.5," + b"1" * 400_001, id="400001-digits"),
])
def test_an_overlong_line_across_a_read_block_edge_reads_as_one_process_reads_it(tmp_path, monkeypatch,
                                                                                  capsys, line):
    """A line longer than a read block, starting 200 kB into the first block, with
    enough rows after it for three read blocks: the same exit code, output and
    message at CFB_THREADS 1, 2 and 3 and through a pipe."""
    rows = [b"%.3f,%.4f" % (k / 1000, k / 40_000) for k in range(40_000)]
    head, tail = rows[:15_000], rows[15_000:]
    start = sum(map(len, head)) + len(head) + len(b"a,abs_diff\n")  # the overlong line's first byte
    assert start < _csv._CHARS_PER_READ < start + len(line)
    data = b"\n".join([b"a,abs_diff", *head, line, *tail]) + b"\n"
    assert len(data) > 3 * _csv._CHARS_PER_READ
    results = [run_in(tmp_path / mode, command_argv("hist", "match"), data, mode, monkeypatch, capsys)
               for mode in ("1", "2", "3", "pipe")]
    assert_no_child()
    assert all(result == results[0] for result in results)
    code, _, err, _ = results[0]
    assert code in (0, 2) and err.count("\n") == code // 2
    # a bad field is echoed cut short, and the message still names its data row
    assert len(err) < 400
    if b"x" in line:
        assert err.startswith("cfb: in.csv: data row 15001: could not convert string 'xxx")


# ---------------------------------------------------------------------------
# exact round trips through the writer and the split reader
# ---------------------------------------------------------------------------


def special_floats(n, rng):
    """Cells the writer formats with Python's `%`: 10th digits on one half, subnormals,
    three-digit exponents, nan, infinities and signed zeros, among random bit patterns."""
    bits = rng.integers(0, 2 ** 63, size=n, dtype=np.int64).astype(np.uint64)
    bits |= rng.integers(0, 2, size=n).astype(np.uint64) << np.uint64(63)
    values = bits.view(np.float64).copy()
    k = n // 8
    values[:k] = (rng.integers(10 ** 9, 10 ** 10, size=k) + 0.5) * 10.0 ** rng.integers(-30, 30, size=k)
    values[k:2 * k] = rng.random(k) * 2.0 ** -1022  # subnormal
    values[2 * k:3 * k] = rng.random(k) * 10.0 ** rng.integers(100, 308, size=k) * rng.choice([-1, 1], k)
    values[3 * k:3 * k + 6] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324]
    return rng.permutation(values)


@pytest.mark.parametrize("seed", [0, 1])
def test_written_columns_read_back_bit_for_bit(tmp_path, monkeypatch, seed):
    """Float, int and bool columns written by _emit and read back by _read_column at
    CFB_THREADS 1-4 give the float64 of each cell's text, bit for bit.  The
    file holds five 256 KiB read blocks, so four workers split it four ways."""
    rng = np.random.default_rng(seed)
    n = 40_000
    columns = {"x": special_floats(n, rng), "n": rng.integers(-10 ** 12, 10 ** 12, size=n),
               "flag": rng.random(n) < 0.5}
    path = tmp_path / "rows.csv"
    _emit(str(path), RunConfig("test", ()), [",".join(columns)], row_blocks(tuple(columns.values())))
    assert path.stat().st_size > 4 * _csv._CHARS_PER_READ
    want = {"x": [float("%.10g" % v) for v in columns["x"].tolist()],
            "n": [float(v) for v in columns["n"].tolist()],
            "flag": [float(v) for v in columns["flag"].tolist()]}
    for threads in ("1", "2", "3", "4"):
        monkeypatch.setenv("CFB_THREADS", threads)
        for name, values in want.items():
            got = _read_column(str(path), name)
            assert got.tobytes() == np.array(values).tobytes(), (threads, name)
    assert_no_child()
