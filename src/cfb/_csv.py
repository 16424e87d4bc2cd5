"""CSV rows of the array commands: one row formatter, one reader and one histogram binner.

Result rows are written from numpy columns a block at a time
(row_blocks) by one formatter (_RowText).  It turns a block of rows into
text with numpy, byte for byte as Python's `"%.10g" % x` and `"%d" % n`
would; a float whose 10th digit it cannot round exactly (scaled
fraction within 1e-5 of one half), a non-finite value, a zero and a
three-digit exponent are formatted by Python's `%` instead.  `hist` and
`screen-cf` read CSV through one reader (_csv_blocks).  It opens `--in`
once, in binary, so a pipe reads as a file does, and hands numpy's text
reader a block of whole lines at a time (_CHARS_PER_READ): `hist` joins
its column's blocks, and `screen-cf` checks each block's hundredths and
triple sums on arrays, so its memory stays flat.  Every line must be
UTF-8, a comment too, and `#` starts a comment anywhere in a line.  A
bad byte or row is named by its line or data row from the counts the
reader keeps, and a bad field is echoed up to _MAX_SHOWN characters.

The reader hands a regular file's read blocks to _fork.in_order, which
cuts them into runs; each run's parsed blocks and line counts come back
in order, this process reading the first run and a process forked for
the call each other.  So every block and every message is the
one-process one.

Every histogram file is binned here (_binned): fig1_hist.csv and
fig6_hist.csv on HIST_RANGE, fig2_hist.csv on DIFF_HIST_RANGE and
`hist` on its flags' range.  A value below or above the range, or NaN,
falls in no bin, and whenever one does a `# unbinned` line after the
header lines counts them.  _hist_lines formats the three files of one
count column; `screen-cf` formats fig6's two count columns itself.

Only the handlers that read or write CSV rows (`search`, `screen-cf`,
`match-compare` and `hist`) import this module, so the scalar commands
and `beta-mc` never compile it.
"""

from __future__ import annotations

import os
import warnings
from contextlib import closing, nullcontext
from stat import S_ISREG

import numpy as np

from ._fork import in_order
from .cli_reports import IMPROPER_COLUMNS, _fmt

# the "%.10g" spelling of k/100, as the census files give triple entries
_HUNDREDTH_TEXT = tuple("%.10g" % (k / 100.0) for k in range(101))

_ROWS_PER_WRITE = 1 << 14
_CHARS_PER_READ = 1 << 18
_MAX_SHOWN = 200  # characters of a bad field or row that an error message echoes

# the figures' histograms: fig1_hist.csv and fig6_hist.csv bin the census statistic,
# whose grid minimum (0.4188) is comfortably above the left edge, and fig2_hist.csv
# the matching differences, of which a few seeds put one above 0.25 (the `#` note)
HIST_RANGE = (0.41, 0.50)
HIST_BINS = 50
DIFF_HIST_RANGE = (0.0, 0.25)
DIFF_HIST_BINS = 50


def row_blocks(columns):
    """The rows of equal-length columns as byte blocks of _ROWS_PER_WRITE rows,
    each ending in a newline; the columns' dtypes set the text (_RowText)."""
    text = _RowText()
    for i in range(0, len(columns[0]), _ROWS_PER_WRITE):
        yield text.rows([col[i:i + _ROWS_PER_WRITE] for col in columns])
        yield b"\n"


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
        if k.min() >= 0:
            return a * self._pow10[k]
        return np.where(k >= 0, a * self._pow10[np.maximum(k, 0)], a / self._pow10[np.maximum(-k, 0)])

    def _float_words(self, v):
        """(word arrays, mask of the cells they format, or None for all) of a float64 array."""
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


def _triple_table():
    """101 x 101 bytes table: [minus, plus] hundredths -> b"minus,zero,plus" decimals."""
    h = _HUNDREDTH_TEXT
    return np.array([[f"{h[m]},{h[100 - m - p]},{h[p]}".encode() if m + p <= 100 else b""
                      for p in range(101)] for m in range(101)])


def _binned(values, bins, lo, hi, nan=0):
    """(edges, counts, notes) of values' histogram on [lo, hi]: notes is a `#` line
    counting the values it leaves out, below lo, above hi and NaN (nan of them taken
    out of values before), when it leaves out any, and otherwise empty."""
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    counts, notes = counts.tolist(), []
    if nan or sum(counts) < values.size:  # so no mask as large as values unless one is out
        below, above, nan = (values < lo).sum(), (values > hi).sum(), nan + (values != values).sum()
        notes.append(f"# unbinned: {below} below {_fmt(lo)}, {above} above {_fmt(hi)}, {nan} nan")
    return edges.tolist(), counts, notes


def _hist_lines(values, bins, lo, hi, nan=0):
    """values' histogram on [lo, hi] (_binned) as `bin_left,bin_right,count` lines,
    header first, after its `#` note if any."""
    edges, counts, notes = _binned(values, bins, lo, hi, nan)
    return notes + ["bin_left,bin_right,count"] + [
        f"{_fmt(edges[k])},{_fmt(edges[k + 1])},{n}" for k, n in enumerate(counts)]


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
    rest of the file's read blocks (_read_blocks: one for a pipe) go to
    _fork.in_order, which cuts them into min(CFB_THREADS, blocks)
    contiguous runs.  Each run's blocks, then its line and data row
    counts and the fault it stopped at, come back in order: this process
    parses the first run from the open file and a worker each other,
    which opens path again and checks that it is the same file.  So the
    blocks are yielded in file order, each as the one-process reader
    makes it.
    Every line must be UTF-8, a comment too, and a data row must hold a
    number in each column read: with all columns read, one number per
    column of the header.  Otherwise ValueError names path and the first
    line at fault, a data row by its data row number and any other line
    by its line number, each counted from 1; every run counts from its
    own start and this process adds the lines and data rows before it,
    so the message is the one-process reader's.
    """
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
            return f": could not convert string {shown(fields[usecols[0]])} to float64"
        return f": malformed row {shown(fields)}"  # the row is at fault, not (only) the column read

    def shown(value):
        """repr(value), cut after _MAX_SHOWN characters and its length given, so that an
        overlong field makes a short message."""
        text = repr(value)
        return text if len(text) <= _MAX_SHOWN else f"{text[:_MAX_SHOWN]}... ({len(text):,} characters)"

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

    def produce(run):
        """The blocks of the read blocks in run, then ([lines, data rows] from its start,
        the _Fault it stopped at or None); the first run read from f, any other from a
        description of its own."""
        counts, fault = [0, 0], None
        first = run[0] == ranges[0]
        with nullcontext(f) if first else open(path, "rb") as part:
            if not first:
                if not os.path.samestat(os.fstat(part.fileno()), os.fstat(f.fileno())):
                    raise ValueError(f"{path}: replaced while it was read")
                part.seek(run[0][0])
            try:
                yield from blocks(part, counts, run[-1][1])
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
            ranges = _read_blocks(f)
            counts = [seen, 0]
            for item in in_order("CSV reader", produce, ranges):
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


def _read_blocks(f):
    """[(start, stop)] byte ranges of the read blocks of the rest of f, stop
    None for the last, where the one-process reader's
    f.readlines(_CHARS_PER_READ) starts one; [(None, None)], the rest of
    f, for no regular file."""
    size = os.fstat(f.fileno())
    if not S_ISREG(size.st_mode):
        return [(None, None)]
    size, starts = size.st_size, [f.tell()]
    # readlines(hint) stops after the line that holds the block's byte hint
    while starts[-1] + _CHARS_PER_READ < size:
        f.seek(starts[-1] + _CHARS_PER_READ)
        f.readline()
        starts.append(f.tell())
    if starts[-1] >= size and len(starts) > 1:
        starts.pop()
    f.seek(starts[0])
    return list(zip(starts, starts[1:] + [None]))


def _read_column(path, name):
    """The values of column name of the CSV at path (_csv_blocks)."""
    def pick(header):
        if name not in header:
            raise ValueError(f"{path}: no column named {name!r}")
        return (header.index(name),)

    with closing(_csv_blocks(path, pick)) as blocks:
        return np.concatenate([np.empty(0)] + [block[:, 0] for block in blocks])


def _read_improper_csv(path):
    """The findings of a `search` CSV, read by _csv_blocks and checked a block at a time.

    A row must hold seven numbers, the first six hundredths between 0 and
    1 (within 1e-6) making two triples that each sum to 1; any other row
    raises ValueError naming the file and the data row.  Returns an
    improper_search.ImproperSet whose deviation is cfb_star - 0.5 of the
    10-digit text: 0.0, not negative, where it reads 0.5 (671 rows of the
    default census).
    """
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
