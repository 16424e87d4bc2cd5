"""Command line surface: one subcommand per reproducible artifact.

Every run prints or writes CSV with a `#` comment header carrying the
library version and the fully resolved configuration, and no
timestamps, so identical flags give byte-identical output.  Numeric
fields are printed with 10 significant digits.  Result rows are written
from numpy columns through one writer (_emit), files atomically.  Its
one formatter (_RowText) turns a block of rows into text with numpy,
byte for byte as Python's `"%.10g" % x` and `"%d" % n` would; a float
whose 10th digit it cannot round exactly (scaled fraction within 1e-5
of one half), a non-finite value, a zero and a three-digit exponent are
formatted by Python's `%` instead.  `hist` and `screen-cf` read CSV
through one reader (_csv_blocks).  It opens `--in` once, in binary, so a
pipe reads as a file does, and hands numpy's text reader a block of
whole lines at a time (_CHARS_PER_READ): `hist` joins its column's
blocks, and `screen-cf` checks each block's hundredths and triple sums
on arrays, so its memory stays flat.  Every line must be UTF-8, a
comment too, and `#` starts a comment anywhere in a line.  A bad byte or
row is named by its line or data row from the counts the reader keeps.

`match-compare`, and the reader on a regular file, split their work
into CFB_THREADS contiguous shares (_fork.contiguous), whose items come
back in order through one routine, _fork.in_order: this process makes
the first share's and a process forked for the call each other's.
match-compare's items are formatted sweep blocks with their abs_diff
and undefined columns, the reader's are parsed blocks and each share's
line counts, so every output byte and every message is the one-process
one.

Each subcommand's flags are declared once, in _COMMANDS: name, parser,
default and the header text of an unset value.  The argument parser,
the value checks and the `#` header all come from that table.

Each handler imports the kernel module it runs, and numpy, when it is
called: `import cfb.cli_reports` loads neither, and `eval-discrete` and
`rho-sweep`, whose results are scalar arithmetic, run without numpy.
The five array commands first ask glibc's malloc to keep the memory they
free (_keep_freed_memory), so each block's buffers reuse the pages of
the block before instead of being faulted in again.  The process entry
(main) loads OpenBLAS single-threaded, since no command calls BLAS, and
freezes the garbage collector once the command is done, so shutdown does
not walk every object the imports made.

Exit codes: 0 success, 2 validation or input problems, 3 when the
statistic is undefined for the requested configuration.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys
import warnings
from contextlib import closing, nullcontext
from dataclasses import dataclass
from stat import S_ISREG
from typing import NamedTuple

from .errors import CfbError, UndefinedCfb

__all__ = ["RunConfig", "run", "main",
           "IMPROPER_COLUMNS", "REALIZABLE_COLUMNS", "MATCH_COLUMNS"]

IMPROPER_COLUMNS = ("p_minus", "p_zero", "p_plus",
                    "q_minus", "q_zero", "q_plus", "cfb_star")
REALIZABLE_COLUMNS = IMPROPER_COLUMNS + ("y0_x0", "y1_x0", "y0_x1", "y1_x1")
MATCH_COLUMNS = ("a", "b", "beta0", "betax", "betat", "betaxt",
                 "cfb_x", "cfb_h", "abs_diff", "undefined_flag")

# the "%.10g" spelling of k/100, as the census files give triple entries
_HUNDREDTH_TEXT = tuple("%.10g" % (k / 100.0) for k in range(101))

_ROWS_PER_WRITE = 1 << 14
_CHARS_PER_READ = 1 << 18

# the most values a flag may ask for, checked before anything is allocated
_MAX_RHO_POINTS = 1_000_000  # rho-sweep --rho
_MAX_HIST_BINS = 1_000_000  # hist --bins: one output row per bin, as --rho has per point
_MAX_MC_PAIRS = 10_000_000_000  # beta-mc --n: 10,000 chunks, far below 2**53 pairs

# glibc's mallopt parameters (malloc.h) and the values _keep_freed_memory sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20  # glibc's largest: requests below it come from the heap
_TRIM_THRESHOLD = 1 << 30  # free heap the process keeps before returning any to the kernel


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one CLI run, as it appears in headers."""

    subcommand: str
    options: tuple  # ((name, value-string), ...) in declaration order

    def header_lines(self) -> list:
        from . import __version__
        opts = " ".join(f"{k}={v}" for k, v in self.options)
        line = f"# {self.subcommand} {opts}" if opts else f"# {self.subcommand}"
        return [f"# cfb {__version__}", line]


def _keep_freed_memory():
    """Have glibc's malloc keep freed memory in the process for the rest of the command.

    The array commands allocate and free buffers of 1-16 MB per block of
    rows or Monte Carlo chunk.  glibc's default serves those with mmap
    and trims the heap, returning the pages to the kernel on free, so
    every block faults them in again.  Serving them from the heap and
    never trimming it lets the next block reuse the same pages.  Does
    nothing where there is no mallopt (a C library other than glibc).
    """
    try:
        import ctypes  # numpy has imported it already

        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _fmt(x) -> str:
    np = sys.modules.get("numpy")  # a numpy integer exists only once numpy is imported
    integer = isinstance(x, int) or np is not None and isinstance(x, np.integer)
    if integer and not isinstance(x, bool):
        return str(int(x))
    return "%.10g" % float(x)


def _bin_lines(edges, counts):
    """A histogram as `bin_left,bin_right,count` lines, header first."""
    return ["bin_left,bin_right,count"] + [
        f"{_fmt(edges[k])},{_fmt(edges[k + 1])},{int(n)}" for k, n in enumerate(counts)]


def _hist_lines(values, bins, lo, hi, nan=0):
    """_bin_lines of values' histogram on [lo, hi], after a `#` line counting the values
    it leaves out, below lo, above hi and NaN (nan of them taken out of values before),
    when it leaves out any."""
    import numpy as np

    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    lines = _bin_lines(edges, counts)
    if nan or sum(counts.tolist()) < values.size:  # so no mask as large as values unless one is out
        below, above, nan = (values < lo).sum(), (values > hi).sum(), nan + (values != values).sum()
        lines.insert(0, f"# unbinned: {below} below {_fmt(lo)}, {above} above {_fmt(hi)}, {nan} nan")
    return lines


def _emit(path, config, lines, columns=(), blocks=()):
    """Write the header, lines, one line per row of columns, then blocks.

    columns are equal-length arrays; their dtypes set the text (see
    _RowText).  Rows are formatted and written a block at a time, as
    bytes, so the whole text is never held at once.  blocks are byte
    blocks of rows formatted elsewhere, each ending in a newline.  path
    None means stdout.
    """
    head = "\n".join(config.header_lines() + lines) + "\n"

    def rows():
        if columns:
            text = _RowText()
            for i in range(0, len(columns[0]), _ROWS_PER_WRITE):
                yield text.rows([col[i:i + _ROWS_PER_WRITE] for col in columns])
                yield b"\n"
        yield from blocks

    if path is None:
        sys.stdout.write(head)
        sys.stdout.writelines(block.decode("ascii") for block in rows())
    else:
        _write_atomic(path, head, rows())


class _RowText:
    """CSV lines of numpy columns, byte for byte as Python's `%` writes them.

    float columns print as "%.10g", integer and bool columns as "%d", and
    bytes columns as they are.  A block of rows becomes a (words, rows)
    matrix of little-endian uint32 words, in which each cell is a run of
    words

        [sep, sign, int digits] [".", 3 digits] [4 digits]... ["e-05"]

    with NUL in every byte its text leaves unused; the matrix written row
    after row, less its NUL bytes, is the text.  Digit words come from
    tables of 4-digit groups, with NUL in place of the integer part's
    leading zeros and the fraction's trailing zeros.

    A float's 10 significant digits are m = rint(|x| * 10**k), with k
    such that 1e9 <= m < 1e10.  The scaled value carries one rounding
    error, or two where 10**k is not exact (|k| > 22), together below
    2.3e-6 at 1e10, so rint gives the correctly rounded digits unless
    the scaled value's fraction lies within 1e-5 of one half.  Those
    cells, non-finite values, zeros and exponents of three digits are
    formatted by Python's `%` instead (75 of the 4,486,509 floats
    `match-compare` writes at default flags), as are integers of 10
    digits or more.
    """

    _POINT = ord(".")
    _MAX_K = 110  # 10**k is tabled for |k| <= _MAX_K; 9 - k is the decimal exponent

    def __init__(self):
        import numpy as np

        self._MINUS = np.uint32(ord("-") << 8)
        g = np.arange(10000)
        digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
        chars = (digits + ord("0")).astype(np.uint8)
        nonzero = digits != 0
        lead = np.where(np.cumsum(nonzero, axis=1) == 0, 0, chars).astype(np.uint8)
        trail = np.where(np.cumsum(nonzero[:, ::-1], axis=1)[:, ::-1] == 0, 0, chars).astype(np.uint8)
        full, lead, trail = (c.view("<u4")[:, 0] for c in (chars, lead, trail))
        lead_last = lead.copy()
        lead_last[0] = ord("0") << 24
        # a table pair is indexed by group + size * flag: the flag selects the NUL-padded half
        self._int_mid = np.concatenate([full, lead])  # flag: no higher digit
        self._int_last = np.concatenate([full, lead_last])
        self._frac = np.concatenate([full, trail])  # flag: no lower digit
        self._first = np.concatenate([full[:1000] & 0xFFFFFF00 | self._POINT,
                                      np.where(g[:1000] > 0, trail[:1000] & 0xFFFFFF00 | self._POINT, 0)])
        self._exp = np.frombuffer(b"\0" * 4 + "".join("e%+03d" % e for e in range(-99, 100)).encode(), "<u4")
        self._pow10 = np.array([float(10 ** k) for k in range(self._MAX_K + 2)])

    def rows(self, columns):
        """ASCII bytes of the rows of equal-length columns, a newline between rows
        and none after the last."""
        import numpy as np

        n = len(columns[0])
        if not n:
            return b""
        cells = []
        for c, col in enumerate(columns):
            # each field starts with its separator; the first field's "\n" ends the previous row
            sep = "\n" if c == 0 else ","
            words, fast, spec = self._cell_words(col)
            words[0] = words[0] | ord(sep)
            slow = () if fast is None else np.flatnonzero(~fast)
            texts = [(sep + spec % x).encode() for x in col[slow].tolist()] if len(slow) else []
            width = max([len(words)] + [-(-len(t) // 4) for t in texts])
            cells.append((words, slow, texts, width))
        matrix = np.empty((sum(cell[3] for cell in cells), n), "<u4")
        row = 0
        for words, slow, texts, width in cells:
            for j, word in enumerate(words):
                matrix[row + j] = word
            matrix[row + len(words):row + width] = 0
            if texts:
                padded = b"".join(t.ljust(4 * width, b"\0") for t in texts)
                matrix[row:row + width, slow] = np.frombuffer(padded, "<u4").reshape(-1, width).T
            row += width
        matrix[0, 0] &= 0xFFFFFF00  # the first row's separator: no newline before it
        return matrix.T.tobytes().translate(None, b"\0")

    def _cell_words(self, col):
        """(word arrays of the cells, mask of the cells they format or None for all,
        `%` spec of the others)."""
        import numpy as np

        kind = col.dtype.kind
        if kind == "f":
            return (*self._float_words(col.astype(np.float64, copy=False)), "%.10g")
        if kind in "biu":
            fast = (col > -10 ** 10) & (col < 10 ** 10)
            v = np.where(fast, col, 0).astype(np.int64)
            words = self._int_words(np.abs(v))
            words[0] = words[0] | self._MINUS * (v < 0)
            return words, fast, "%d"
        if kind == "S":
            width = col.dtype.itemsize
            text = np.zeros((len(col), 4 * ((width + 4) // 4)), np.uint8)
            text[:, 1:width + 1] = col.view(np.uint8).reshape(len(col), width)
            return list(text.view("<u4").T), None, None
        raise TypeError(f"cannot write a column of dtype {col.dtype}")

    def _int_words(self, n):
        """Words of non-negative int64 values below 1e10: leading zeros NUL, 0 as "0".

        The first word's bytes 0 and 1 stay NUL, for the separator and the sign.
        """
        count = 1
        while n.max() >= 10 ** (4 * count - 2):
            count += 1
        words, top = [], True  # top: no higher digit
        for j in reversed(range(count)):
            group = n // 10 ** (4 * j) if j else n
            table = self._int_last if j == 0 else self._int_mid
            words.append(table[group + 10000 * top])
            if j:
                n = n - group * 10 ** (4 * j)
                top = top & (group == 0)
        return words

    def _frac_words(self, frac, count):
        """Words of the first 4 * count - 1 digits after the point, given as one int64:
        ".ddd" "dddd"..., trailing zeros NUL and no point when the fraction is 0.

        Trailing words that are NUL in every cell are left out.
        """
        words = []
        for j in reversed(range(count)):
            if j:
                group = frac // 10 ** (4 * j)
                frac = frac - group * 10 ** (4 * j)
                last = frac == 0  # no lower digit
            else:
                group, last = frac, True
            table, size = (self._frac, 10000) if words else (self._first, 1000)
            words.append(table[group + size * last])
        while words and not words[-1].any():
            words.pop()
        return words

    def _scaled(self, a, k):
        """a * 10**k, with one rounding where 10**k is exact."""
        import numpy as np

        if k.min() >= 0:
            return a * self._pow10[k]
        return np.where(k >= 0, a * self._pow10[np.maximum(k, 0)], a / self._pow10[np.maximum(-k, 0)])

    def _float_words(self, v):
        """(word arrays, mask of the cells they format, or None for all) of a float64 array."""
        import numpy as np

        a = np.abs(v)
        fast = None
        if not (a.min() > 0 and a.max() < np.inf):
            fast = (a > 0) & (a < np.inf)
            a[~fast] = 1.0
        k = (9.0 - np.floor(np.log10(a))).astype(np.intp)
        if k.min() < -self._MAX_K or k.max() > self._MAX_K:
            np.clip(k, -self._MAX_K, self._MAX_K, out=k)
        scaled = self._scaled(a, k)
        if scaled.min() < 1e9 or scaled.max() >= 1e10:  # log10 was one off
            k += scaled < 1e9
            k -= scaled >= 1e10
            scaled = self._scaled(a, k)
        m = np.rint(scaled)
        near_half = np.abs(scaled - m) >= 0.5 - 1e-5
        if near_half.any():
            fast = ~near_half if fast is None else fast & ~near_half
        if m.max() >= 1e10:
            carry = m >= 1e10
            m[carry] = 1e9
            k -= carry
        if k.min() < 9 - 99 or k.max() > 9 + 99:
            fast = (k >= 9 - 99) & (k <= 9 + 99) if fast is None else fast & (k >= 9 - 99) & (k <= 9 + 99)
        if fast is not None:
            m[~fast], k[~fast] = 1e9, 9
        # fixed notation for exponents -4..9; otherwise one integer digit and "e+XX"
        fixed = None if k.min() >= 0 and k.max() <= 13 else (k >= 0) & (k <= 13)
        digits_after = k if fixed is None else np.where(fixed, k, 9)
        scale = self._pow10[digits_after]
        whole = np.floor(m / scale)
        words = self._int_words(whole.astype(np.int64))
        words[0] = words[0] | self._MINUS * (v < 0)
        count = (int(digits_after.max()) + 4) // 4
        frac = ((m - whole * scale) * self._pow10[4 * count - 1 - digits_after]).astype(np.int64)
        frac_words = self._frac_words(frac, count)
        if fixed is not None:
            exp = self._exp[np.where(fixed, 0, 109 - k)]
            # below 1e-4 or from 1e10 the fraction has 9 digits, so a fourth word is NUL
            if len(frac_words) >= 4:
                frac_words[3] = frac_words[3] | exp
            else:
                frac_words.append(exp)
        return words + frac_words, fast


def _write_atomic(path, head, blocks):
    """Write the text head and then byte blocks to a temporary file beside path,
    then rename it over path.

    An interrupted write leaves the previous file, or none, and removes
    the temporary one; a reader never sees a short file, and an OSError
    names path.  A path that exists but is no regular file (a device or
    pipe) is written in place.
    """
    def write(name):
        with open(name, "w", newline="") as f:
            f.write(head)
            f.flush()
            f.buffer.writelines(blocks)

    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        write(path)
        return
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, target)
    except BaseException as e:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError):  # name the file the caller asked for, not the temporary one
            raise OSError(e.errno, e.strerror, path) from e
        raise


def _triple_table():
    """101 x 101 bytes table: [minus, plus] hundredths -> b"minus,zero,plus" decimals."""
    import numpy as np

    h = _HUNDREDTH_TEXT
    return np.array([[f"{h[m]},{h[100 - m - p]},{h[p]}".encode() if m + p <= 100 else b""
                      for p in range(101)] for m in range(101)])


class _Fault(Exception):
    """_Fault(prefix, number, suffix, row): a line at fault in a CSV, the
    message after the path being prefix + number + suffix, number a data
    row if row is true, else a line, counted from 1."""


def _csv_blocks(path, pick):
    """The data rows of the CSV at path, parsed by numpy's text reader a block of lines at a time.

    The header is the first line that is neither empty nor a `#` comment;
    each later line that holds anything before its first `#` is a data
    row.  pick(names) gets the header's column names and returns the
    indices of the columns to read, or None for all of them, or raises
    ValueError.  Yields, for each block of whole lines (_CHARS_PER_READ
    bytes, or the rest of the file) that holds a data row, a 2-d float
    array with a row per data row and a column per column read.  A
    consumer that stops early closes the generator, which reaps its
    workers.

    path is opened once, in binary, so a pipe reads as a file does.  The
    rest of the file is cut into shares (_read_shares): one for a pipe,
    and for a regular file min(CFB_THREADS, blocks) contiguous runs of
    blocks.  Each share's blocks, then its line and data row counts and
    the fault it stopped at, come back in order through _fork.in_order:
    this process parses the first share and a worker each other, which
    opens path again and checks that it is the same file.  So the blocks
    are yielded in file order, each as the one-process reader makes it.
    Every line must be UTF-8, a comment too, and a data row must hold a
    number in each column read: with all columns read, one number per
    column of the header.  Otherwise ValueError names path and the first
    line at fault, a data row by its data row number and any other line
    by its line number, each counted from 1; every share counts from its
    own start and this process adds the lines and data rows before it,
    so the message is the one-process reader's.
    """
    import numpy as np

    from ._fork import in_order

    def parse(lines, columns):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns when the lines hold no row
            return np.loadtxt(lines, delimiter=",", comments="#", usecols=columns, ndmin=2)

    def undecodable(line, text):
        try:
            line.decode()
        except UnicodeDecodeError as e:
            return f": {e}"

    def malformed(line, text):
        try:
            if not text or parse([line], usecols).shape[1] == width:
                return None
        except ValueError:
            pass
        fields = text.decode().split(",")
        if usecols is not None and len(fields) <= usecols[0]:
            return f" has no {header[usecols[0]]!r} field"
        if usecols is not None and not number(fields[usecols[0]]):
            return f": could not convert string {fields[usecols[0]]!r} to float64"
        return f": malformed row {fields!r}"  # the row is at fault, not (only) the column read

    def number(field):
        """Whether numpy's reader takes field alone as one number."""
        try:
            return parse([field], None).size == 1
        except ValueError:
            return False

    def check(lines, fault, seen, rows):
        """Raise _Fault naming the first of lines, which follow `seen` lines and `rows`
        data rows (None before the header), that fault(line, text) returns a message for;
        text is what a data row holds before its comment and line end, and b"" for any
        other line."""
        line_no, row = seen, rows
        for line in lines:
            line_no += 1
            text = b""
            if row is not None:  # one line end, as numpy's reader ends a line
                text = line.partition(b"#")[0].removesuffix(b"\n").removesuffix(b"\r")
                row += bool(text)
            message = fault(line, text)
            if message is not None:
                raise _Fault("data row " if text else "line ", row if text else line_no, message, bool(text))

    def blocks(f, counts, stop):
        """The blocks of f's lines up to byte stop (a block start) or the end, which
        follow counts = [lines, data rows], kept up to date."""
        while (stop is None or f.tell() < stop) and (lines := f.readlines(_CHARS_PER_READ)):
            if not b"".join(lines).isascii():
                check(lines, undecodable, *counts)
            try:
                block = parse(lines, usecols)
            except ValueError:
                block = None
            if block is None or len(block) and block.shape[1] != width:
                check(lines, malformed, *counts)
                # every line parses alone
                raise _Fault("malformed rows after data row ", counts[1], "", True)
            counts[0] += len(lines)
            counts[1] += len(block)
            if len(block):
                yield block

    def produce(k):
        """The blocks of share k, then ([lines, data rows] from its start, the _Fault it
        stopped at or None); share 0 read from f, any other from a description of its own."""
        counts, fault = [0, 0], None
        with open(path, "rb") if k else nullcontext(f) as share:
            if k:
                if not os.path.samestat(os.fstat(share.fileno()), os.fstat(f.fileno())):
                    raise ValueError(f"{path}: replaced while it was read")
                share.seek(shares[k][0])
            try:
                yield from blocks(share, counts, shares[k][1])
            except _Fault as e:
                fault = e
        yield counts, fault

    seen = 0
    with open(path, "rb") as f:
        try:
            while line := f.readline():
                check([line], undecodable, seen, None)
                seen += 1
                names = line.decode().rstrip("\r\n")
                if names and names[0] != "#":
                    break
            else:
                raise ValueError(f"{path}: empty input")
            header = names.split(",")
            usecols = pick(header)
            width = len(header) if usecols is None else len(usecols)
            shares = _read_shares(f)
            counts = [seen, 0]
            for item in in_order("CSV reader", produce, range(len(shares))):
                if isinstance(item, np.ndarray):
                    yield item
                    continue
                (lines, rows), fault = item
                if fault is not None:
                    prefix, number, suffix, row = fault.args
                    raise _Fault(prefix, number + counts[1 if row else 0], suffix, row)
                counts[0] += lines
                counts[1] += rows
        except _Fault as e:
            prefix, number, suffix, _ = e.args
            raise ValueError(f"{path}: {prefix}{number}{suffix}") from None


def _read_shares(f):
    """[(start, stop)] byte ranges of the shares of the rest of f, stop None
    for the last: min(CFB_THREADS, read blocks) runs of whole read blocks
    (_fork.contiguous), at the block starts where the one-process
    reader's f.readlines(_CHARS_PER_READ) starts one.  One share, the
    rest of f, for no regular file."""
    from ._fork import contiguous, worker_count

    size = os.fstat(f.fileno())
    if not S_ISREG(size.st_mode):
        return [(None, None)]
    size, workers = size.st_size, worker_count()
    starts = [f.tell()]
    # readlines(hint) stops after the line that holds the block's byte hint
    while workers > 1 and starts[-1] + _CHARS_PER_READ < size:
        f.seek(starts[-1] + _CHARS_PER_READ)
        f.readline()
        starts.append(f.tell())
    if starts[-1] >= size and len(starts) > 1:
        starts.pop()
    f.seek(starts[0])
    bounds = starts + [None]
    return [(bounds[r.start], bounds[r.stop]) for r in contiguous(len(starts), workers)]


def _read_column(path, name):
    """The values of column name of the CSV at path (_csv_blocks)."""
    import numpy as np

    def pick(header):
        if name not in header:
            raise ValueError(f"{path}: no column named {name!r}")
        return (header.index(name),)

    with closing(_csv_blocks(path, pick)) as blocks:
        return np.concatenate([np.empty(0)] + [block[:, 0] for block in blocks])


class _TripleArg:
    """Parsed --p/--q value that remembers its raw spelling for headers."""

    def __init__(self, text: str):
        self.raw = text
        try:
            minus, zero, plus = map(float, text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected three comma-separated decimals, got {text!r}") from None
        total = minus + zero + plus
        if abs(total - 1.0) > 1e-9:
            raise argparse.ArgumentTypeError(
                f"triple {text!r} sums to {total!r}, not 1")
        from .population_model import ProbTriple

        try:
            self.triple = ProbTriple(minus / total, zero / total, plus / total)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None


class _RhoRangeArg:
    """Parsed --rho start:stop:step value of at most _MAX_RHO_POINTS points."""

    def __init__(self, text: str):
        self.raw = text
        try:
            start, stop, step = map(float, text.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected start:stop:step, got {text!r}") from None
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise argparse.ArgumentTypeError(
                f"start, stop and step must be finite, got {text!r}")
        if step <= 0.0 or stop < start:
            raise argparse.ArgumentTypeError("need stop >= start and step > 0")
        steps = (stop - start) / step
        if not math.isfinite(steps):
            raise argparse.ArgumentTypeError(f"(stop - start) / step overflows in {text!r}")
        count = round(steps) + 1
        if count > _MAX_RHO_POINTS:  # checked before any value is built
            raise argparse.ArgumentTypeError(
                f"{text!r} makes {steps + 1:.10g} points, more than {_MAX_RHO_POINTS:,}")
        if abs(start + (count - 1) * step - stop) > 1e-9:
            raise argparse.ArgumentTypeError(
                f"step {step} does not evenly divide [{start}, {stop}]")
        self.start = start
        self.stop = stop
        self.count = count

    def values(self):
        """The count points from start to stop as floats, bit for bit as np.linspace gives them:
        i * step + start with step = (stop - start) / (count - 1), and stop last."""
        n = self.count - 1
        step = (self.stop - self.start) / n if n else 0.0
        values = [float(i) * step + self.start for i in range(self.count)]
        if n:
            values[-1] = self.stop
        return values


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_eval_discrete(args, cfg) -> int:
    from .cfb_engine import MatchedBenefitDistribution, cfb_two_group, pair_table

    dist = MatchedBenefitDistribution((
        (0.0, 1.0 - args.c, args.p.triple),
        (1.0, args.c, args.q.triple),
    ))
    table = pair_table(dist)
    res = cfb_two_group(args.c, args.p.triple, args.q.triple)
    lines = ["h_rel,b_lt,b_eq,b_gt"]
    for rel in ("<", "=", ">"):
        cells = [table.entry(rel, b) for b in ("<", "=", ">")]
        lines.append(",".join([rel] + [_fmt(v) for v in cells]))
    lines.append(f"cfb_star,{_fmt(res.value)}")
    lines.append(f"numerator,{_fmt(res.numerator)}")
    lines.append(f"denominator,{_fmt(res.denominator)}")
    _emit(None, cfg, lines)
    return 0


def _cmd_search(args, cfg) -> int:
    from .improper_search import grid_search

    _keep_freed_memory()
    result = grid_search(args.step, args.c)

    found = result.survivors
    triples = _triple_table()
    _emit(args.out, cfg, [",".join(IMPROPER_COLUMNS)],
          (triples[found.p_minus, found.p_plus], triples[found.q_minus, found.q_plus],
           found.cfb_star))

    s = result.summary
    _emit(args.hist_out, cfg, _bin_lines(s.hist_edges, s.hist_counts))

    lines = [f"count,{s.count}",
             f"cfb_min,{_fmt(s.cfb_min)}",
             f"cfb_median,{_fmt(s.cfb_median)}",
             f"cfb_max,{_fmt(s.cfb_max)}"]
    if s.argmin is not None:
        k = s.argmin
        lines.append("argmin_p," + triples[found.p_minus[k], found.p_plus[k]].decode())
        lines.append("argmin_q," + triples[found.q_minus[k], found.q_plus[k]].decode())
    _emit(None, cfg, lines)
    return 0


def _read_improper_csv(path):
    """The findings of a `search` CSV, read by _csv_blocks and checked a block at a time.

    A row must hold seven numbers, the first six hundredths between 0 and
    1 (within 1e-6) making two triples that each sum to 1; any other row
    raises ValueError naming the file and the data row.  Returns an
    improper_search.ImproperSet.
    """
    import numpy as np

    from .improper_search import ImproperSet

    def pick(header):
        if tuple(header) != IMPROPER_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {header!r}")
        return None

    hund, cfb = [np.empty((4, 0), np.int64)], [np.empty(0)]
    rows = 0  # data rows before the block
    with closing(_csv_blocks(path, pick)) as blocks:
        for block in blocks:
            triples = block[:, :6]
            scaled = triples * 100
            k = np.rint(scaled)
            with np.errstate(invalid="ignore"):  # inf - inf; the range test rejects inf and nan
                off = ~((triples >= 0) & (triples <= 1)) | (np.abs(scaled - k) > 1e-6)
            if off.any():
                r, j = np.argwhere(off)[0].tolist()
                raise ValueError(f"{path}: data row {rows + r + 1}: {triples[r, j].item()!r} "
                                 "is not a hundredth between 0 and 1")
            k = k.astype(np.int64)
            bad = (k[:, :3].sum(axis=1) != 100) | (k[:, 3:].sum(axis=1) != 100)
            if bad.any():
                raise ValueError(f"{path}: data row {rows + int(np.argmax(bad)) + 1} does not hold two "
                                 "triples summing to 1")
            hund.append(k[:, [0, 2, 3, 5]].T)
            cfb.append(block[:, 6].copy())  # a view would keep the whole block alive
            rows += len(block)
    cfb = np.concatenate(cfb)
    return ImproperSet(*np.concatenate(hund, axis=1), cfb, cfb - 0.5)


def _cmd_screen_cf(args, cfg) -> int:
    import numpy as np

    from .counterfactual_screen import screen_improper_set
    from .improper_search import HIST_BINS, HIST_RANGE

    _keep_freed_memory()
    found = _read_improper_csv(args.inp)
    res = screen_improper_set(found)

    kept = res.kept
    triples = _triple_table()
    # (y0, y1) of each kept triple's first root, by its (minus, plus) hundredths
    first_root = np.zeros((101, 101, 2))
    for (minus, plus), (roots, _) in res.solutions.items():
        first_root[minus, plus] = roots[0]
    _emit(args.out, cfg, [",".join(REALIZABLE_COLUMNS)],
          (triples[kept.p_minus, kept.p_plus], triples[kept.q_minus, kept.q_plus],
           kept.cfb_star, *first_root[kept.p_minus, kept.p_plus].T,
           *first_root[kept.q_minus, kept.q_plus].T))

    c_all, edges = np.histogram(found.cfb_star, bins=HIST_BINS, range=HIST_RANGE)
    c_kept, _ = np.histogram(kept.cfb_star, bins=HIST_BINS, range=HIST_RANGE)
    hist_lines = ["bin,count_all,count_realizable"]
    for k in range(HIST_BINS):
        hist_lines.append(f"{_fmt(edges[k])},{int(c_all[k])},{int(c_kept[k])}")
    _emit(args.hist_out, cfg, hist_lines)

    s = res.summary
    _emit(None, cfg, [
        f"count,{s.count}",
        f"cfb_min,{_fmt(s.cfb_min)}",
        f"cfb_mean,{_fmt(s.cfb_mean)}",
        f"cfb_median,{_fmt(s.cfb_median)}",
        f"cfb_max,{_fmt(s.cfb_max)}",
    ])
    return 0


def _cmd_beta_mc(args, cfg) -> int:
    from .cfb_engine import cfb_monte_carlo
    from .improper_search import cross_pair_reversal, mean_benefit_increasing
    from .population_model import BetaXPopulation

    _keep_freed_memory()
    p, q = args.p.triple, args.q.triple
    # the endpoints must be a below-chance pair themselves, which catches typos in
    # hand-copied triples: the question is whether the Beta mixture keeps the pathology
    if not (mean_benefit_increasing(p, q) and cross_pair_reversal(p, q)):
        raise ValueError("endpoint triples must satisfy both below-chance conditions "
                         "(increasing mean benefit, cross-pair reversal)")
    est, se = cfb_monte_carlo(BetaXPopulation(args.alpha, args.beta, p, q), args.n, args.seed)
    _emit(None, cfg, [
        f"estimate,{_fmt(est)}",
        f"std_error,{_fmt(se)}",
        f"pairs,{args.n}",
    ])
    return 0


def _cmd_rho_sweep(args, cfg) -> int:
    from .cfb_engine import cfb_linear_gaussian
    from .population_model import LinearGaussianPopulation

    lines = ["rho,cfb_star"]
    for rho in args.rho.values():
        pop = LinearGaussianPopulation(0.0, 0.0, 0.0, args.beta_xt, args.sigma, rho)
        res = cfb_linear_gaussian(pop)
        lines.append(f"{_fmt(rho)},{_fmt(res.value)}")
    _emit(args.out, cfg, lines)
    return 0


def _cmd_match_compare(args, cfg) -> int:
    """The sweep's rows, written by min(CFB_THREADS, sweep blocks) processes.

    The grid's blocks are cut into contiguous shares (_fork.contiguous).
    Each share's sweep blocks come back in order through _fork.in_order
    as (text, abs_diff, undefined), swept and formatted by this process
    for the first share and by a worker for each other.  This process
    writes the texts into the output's temporary file and copies the
    columns into whole abs_diff and undefined columns, from which the
    histogram and the summary come.  a and b are multiples of the grid
    step, formatted by lookup in a table of i * step for every i.
    """
    import numpy as np

    from ._fork import contiguous, in_order, worker_count
    from .matched_pairs import _CELLS_PER_BLOCK, DIFF_HIST_BINS, DIFF_HIST_RANGE, _grid, _sweep

    _keep_freed_memory()
    grid = _grid(args.step, (args.coeff_min, args.coeff_max), args.seed)
    n = grid.cells
    shares = [range(min(r.start * _CELLS_PER_BLOCK, n), min(r.stop * _CELLS_PER_BLOCK, n))
              for r in contiguous(-(-n // _CELLS_PER_BLOCK), worker_count())]
    steps = np.array(["%.10g" % v for v in (np.arange(grid.inv + 1) * grid.step).tolist()], "S")
    abs_diff, undefined = np.empty(n), np.empty(n, bool)

    def produce(cells):
        text = _RowText()
        for _, i, j, columns in _sweep(grid, cells):
            yield text.rows([steps[i], steps[j], *columns[2:]]), *columns[-2:]

    def rows():
        done = 0
        for text, diff, flag in in_order("match-compare", produce, shares):
            cells = slice(done, done + len(diff))
            abs_diff[cells], undefined[cells] = diff, flag
            done = cells.stop
            del diff, flag
            yield text
            del text  # no block is held while the next one is made
            yield b"\n"

    _emit(args.out, cfg, [",".join(MATCH_COLUMNS)], blocks=rows())

    diffs = abs_diff[~undefined]
    _emit(args.hist_out, cfg, _hist_lines(diffs, DIFF_HIST_BINS, *DIFF_HIST_RANGE))

    if diffs.size:
        share = float((diffs < 0.05).sum()) / diffs.size
        dmax = float(diffs.max())
    else:
        share = dmax = float("nan")
    _emit(None, cfg, [
        f"cells,{n}",
        f"defined,{diffs.size}",
        f"share_below_0.05,{_fmt(share)}",
        f"max_abs_diff,{_fmt(dmax)}",
    ])
    return 0


def _cmd_hist(args, cfg) -> int:
    import numpy as np

    _keep_freed_memory()
    vals = _read_column(args.inp, args.col)
    nan = vals.size
    vals = vals[~np.isnan(vals)]
    nan -= vals.size
    if not vals.size:
        raise ValueError(f"{args.inp}: column {args.col!r} has no usable values")
    lo = args.lo if args.lo is not None else min(vals.tolist())
    hi = args.hi if args.hi is not None else max(vals.tolist())
    if not lo < hi:
        raise ValueError("need lo < hi for the histogram range")
    if not math.isfinite(hi - lo):  # numpy would warn, then name a symptom
        raise ValueError(f"histogram range [{_fmt(lo)}, {_fmt(hi)}] is too wide: hi - lo is not finite")
    edges = np.linspace(lo, hi, args.bins + 1)  # the edges np.histogram makes
    if not (edges[:-1] < edges[1:]).all():
        raise ValueError(f"histogram range [{_fmt(lo)}, {_fmt(hi)}] is too narrow for {args.bins} bins: "
                         f"hi - lo = {_fmt(hi - lo)} gives no {args.bins + 1} distinct edges; "
                         f"widen --lo and --hi or lower --bins")
    _emit(args.out, cfg, _hist_lines(vals, args.bins, lo, hi, nan))
    return 0


# ---------------------------------------------------------------------------
# the subcommand table, parser assembly and entry points
# ---------------------------------------------------------------------------


def _number(convert, need, ok=lambda v: True):
    """Parser of a flag's text: convert(text), rejected as not `need` if that fails or is not ok."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {value!r}")
        return value
    return parse


_REAL = _number(float, "a number")  # the kernels check the values they take
_COUNT = _number(int, "a positive integer", lambda n: n > 0)
# both seeds are non-negative, checked here so the message names --seed
_SEED = _number(int, "a non-negative integer", lambda n: n >= 0)


def _count_up_to(cap):
    """Parser of a _COUNT flag that asks for at most cap values."""
    def parse(text):
        n = _COUNT(text)
        if n > cap:
            raise argparse.ArgumentTypeError(f"must be at most {cap:,}, got {n}")
        return n
    return parse


def _match_seed(text):
    """match-compare's --seed: in matching_experiment's seed range, below 2**64."""
    from .matched_pairs import _seed_in_range

    seed = _SEED(text)
    if not _seed_in_range(seed):
        raise argparse.ArgumentTypeError(f"must be below 2**64, got {seed}")
    return seed


def _grid_step(text):
    """match-compare's --step: one whose grid has at most matching_experiment's cell cap;
    a step with no grid at all is left to its own checks, which name the problem."""
    from .matched_pairs import _MAX_CELLS, _grid_cells

    return _number(float, f"a step giving at most {_MAX_CELLS:,} grid cells",
                   lambda step: _grid_cells(step) <= _MAX_CELLS)(text)


def _coeff_bound(text):
    """match-compare's --coeff-min and --coeff-max: a bound whose linear predictor stays
    finite; infinite bounds are left to the kernel."""
    from .matched_pairs import _predictor_finite

    return _number(float, "a number whose linear predictor |beta0| + 2|betax| + |betat| + 2|betaxt| "
                   "is finite", lambda v: _predictor_finite(v) or not math.isfinite(v))(text)


class _Flag(NamedTuple):
    """One option of a subcommand: its name, parser, default and header text.

    parse turns the typed text into the handler's value and raises
    argparse.ArgumentTypeError naming the problem.  default is the text
    an omitted flag takes; a flag with neither default nor absent must
    be given, and one with absent may stay unset: its value is None and
    the header shows absent.  Typing absent as the value leaves it unset.
    """

    name: str
    parse: object = str
    default: str | None = None
    absent: str | None = None
    help: str | None = None

    @property
    def dest(self):  # "in" is a keyword, so the handlers read args.inp
        return "inp" if self.name == "in" else self.name.replace("-", "_")


class _Command(NamedTuple):
    help: str
    handler: object  # handler(args, cfg) -> exit code
    flags: tuple  # _Flag, in header order


_TRIPLE_FLAGS = (_Flag("p", _TripleArg, help="low-level benefit triple: minus,zero,plus"),
                 _Flag("q", _TripleArg, help="high-level benefit triple: minus,zero,plus"))
_RANGE_END = _number(float, "a finite number (need lo < hi for the histogram range)", math.isfinite)

_COMMANDS = {
    "eval-discrete": _Command("pair table and statistic for two covariate levels", _cmd_eval_discrete, (
        # checked here: the pair table's own checks would name a symptom, not --c
        _Flag("c", _number(float, "a finite value strictly inside (0, 1)", lambda c: 0.0 < c < 1.0),
              "0.5", help="mass of the high-h level"),
        *_TRIPLE_FLAGS)),
    "search": _Command("exhaustive below-chance grid search", _cmd_search, (
        _Flag("step", _REAL, "0.01"),
        _Flag("c", _REAL, "0.5"),
        _Flag("out", default="improper.csv"),
        _Flag("hist-out", default="fig1_hist.csv"))),
    "screen-cf": _Command("keep findings realizable from independent responses", _cmd_screen_cf, (
        _Flag("in", default="improper.csv"),
        _Flag("out", default="realizable.csv"),
        _Flag("hist-out", default="fig6_hist.csv"))),
    "beta-mc": _Command("Monte Carlo statistic for a Beta-mixed pair", _cmd_beta_mc, (
        _Flag("alpha", _REAL),
        _Flag("beta", _REAL),
        *_TRIPLE_FLAGS,
        _Flag("n", _count_up_to(_MAX_MC_PAIRS), "1000000", help="sampled pairs"),
        _Flag("seed", _SEED, "20230516"))),
    "rho-sweep": _Command("closed-form statistic over a response-correlation range", _cmd_rho_sweep, (
        _Flag("beta-xt", _REAL),
        _Flag("sigma", _REAL, "1"),
        _Flag("rho", _RhoRangeArg, "-1:1:0.1", help="start:stop:step"),
        _Flag("out", absent="-", help="CSV path (default stdout)"))),
    "match-compare": _Command("matching-factor comparison over the mass grid", _cmd_match_compare, (
        _Flag("step", _grid_step, "0.001"),
        _Flag("coeff-min", _coeff_bound, "-5"),
        _Flag("coeff-max", _coeff_bound, "5"),
        _Flag("seed", _match_seed, "20230516"),
        _Flag("out", default="match_diffs.csv"),
        _Flag("hist-out", default="fig2_hist.csv"))),
    "hist": _Command("histogram a column of an emitted CSV", _cmd_hist, (
        _Flag("in"),
        _Flag("col"),
        _Flag("bins", _count_up_to(_MAX_HIST_BINS), "50"),
        _Flag("lo", _RANGE_END, absent="auto", help="range start (default the column's minimum)"),
        _Flag("hi", _RANGE_END, absent="auto", help="range end (default the column's maximum)"),
        _Flag("out", absent="-", help="CSV path (default stdout)"))),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of _COMMANDS; it leaves each flag's value as the text given."""
    parser = argparse.ArgumentParser(
        prog="cfb",
        description="concordance-for-benefit computations and reports",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # no option name starts with "-" and a digit, ".", "inf" or "nan", so such a
    # token is a value: --coeff-min -1e1, --rho -inf:0:1 and --p -0.1,... reach
    # their flag's own check instead of argparse's "expected one argument"
    negative_number = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp._negative_number_matcher = negative_number
        for flag in command.flags:
            required = flag.default is None and flag.absent is None
            note = "(required)" if required else flag.default and f"(default {flag.default})"
            sp.add_argument("--" + flag.name, dest=flag.dest, default=flag.default, required=required,
                            help=" ".join(filter(None, (flag.help, note))))
    return parser


def _header_text(value) -> str:
    """A parsed flag value as the `#` header spells it."""
    if isinstance(value, (int, float)):
        return _fmt(value)
    return getattr(value, "raw", value)


def run(argv) -> int:
    """Parse argv (no program name) and execute; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    command = _COMMANDS[args.subcommand]
    options = []
    for flag in command.flags:
        text = getattr(args, flag.dest)
        try:
            # the header's spelling of an unset flag means unset when typed too
            value = None if text in (None, flag.absent) else flag.parse(text)
        except argparse.ArgumentTypeError as e:
            print(f"cfb: --{flag.name} {e}", file=sys.stderr)
            return 2
        setattr(args, flag.dest, value)
        options.append((flag.name, flag.absent if value is None else _header_text(value)))
    try:
        return command.handler(args, RunConfig(args.subcommand, tuple(options)))
    except UndefinedCfb as e:
        print(f"cfb: undefined statistic: {e}", file=sys.stderr)
        return 3
    except (CfbError, ValueError, OSError) as e:
        print(f"cfb: {e}", file=sys.stderr)
        return 2


def main() -> None:
    """Process entry of the `cfb` console script and `python -m cfb`: run sys.argv, exit with its code.

    Unlike run(), this owns its process, so it sets OPENBLAS_NUM_THREADS=1
    for it and freezes the garbage collector before exiting; run() and the
    library leave the environment and the collector alone.
    """
    # No command calls BLAS, so OpenBLAS's worker threads would only start
    # and spin idle.  OpenBLAS reads the variable once, when numpy first
    # loads, and every handler imports numpy after this point.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    code = run(sys.argv[1:])
    # The process ends here: frozen objects are skipped by the collections
    # of interpreter shutdown, which would otherwise walk every object that
    # numpy and cfb imported.
    gc.freeze()
    sys.exit(code)
