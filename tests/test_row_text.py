"""The numpy row formatter against Python's `%`, byte for byte.

`old_rows` is the writer the formatter replaced: one `fmt % row` per row
of the columns' Python values.  It stays here as the reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfb import RunConfig
from cfb._csv import _ROWS_PER_WRITE, _RowText, row_blocks
from cfb.cli_reports import _emit


def old_rows(fmt, columns):
    return "".join([fmt % row for row in zip(*(col.tolist() for col in columns))])


def new_rows(columns):
    """The formatter's bytes of one block as the writer writes them: a newline follows."""
    return _RowText().rows(columns) + b"\n"


def g10(values):
    """(formatter bytes, Python bytes) of one float64 column."""
    col = np.array(values, dtype=np.float64)
    return new_rows([col]), old_rows("%.10g\n", [col]).encode()


EDGE_FLOATS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    9.9999999995e-05, 9.99999999949999e-05, 1e-4, 1.00000000005e-4, 0.0001, 0.00012345678905,
    9999999999.5, 9999999999.4, 9999999999.0, 1e10, 10000000001.0, 1234567890.0, 12345678905.0,
    999999999.95, 0.99999999995, 1.0000000005, 2.5, 0.5, 1.5, 123.456, -4.999998750071469,
    1e-99, 9.9999999995e-100, 1e99, 9.9999999995e99, 1e100, 1e-100, 1e-5, 1e9, 1e-13, 1.5e-12,
]


@pytest.mark.parametrize("x", EDGE_FLOATS)
def test_edge_values_print_as_percent_g(x):
    got, want = g10([x])
    assert got == want, (x, got, want)


def test_powers_of_ten_and_their_neighbours():
    values = [10.0 ** k for k in range(-323, 309)]
    values += [math.nextafter(v, 0.0) for v in values] + [math.nextafter(v, math.inf) for v in values]
    values += [-v for v in values]
    got, want = g10(values)
    assert got == want


def test_round_half_cases_of_the_tenth_digit():
    """Eleven-digit decimals ending in 5: the float lies just above or below the tie,
    or on it when it is an integer, so each rounds the way its binary value says.
    Beyond 1e22 the power of ten that scales them is itself rounded."""
    rng = np.random.default_rng(20230516)
    mantissas = rng.integers(10 ** 9, 10 ** 10, size=20000) * 10 + 5
    exponents = rng.integers(-110, 90, size=20000)
    values = [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    values += [float(m) for m in mantissas[:200].tolist()]  # exact ties, which round to even
    got, want = g10(values)
    assert got == want


@settings(max_examples=500, deadline=None)
@given(st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_any_float_prints_as_percent_g(x):
    got, want = g10([x])
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=60))
def test_any_float_column_prints_as_percent_g(values):
    got, want = g10(values)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=40), st.data())
def test_int_and_bool_columns_print_as_percent_d(values, data):
    ints = np.array(values, dtype=np.int64)
    flags = np.array(data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values))))
    floats = np.array(data.draw(st.lists(st.floats(width=64), min_size=len(values), max_size=len(values))))
    columns = (flags, ints, floats, ints)
    assert new_rows(columns) == old_rows("%d,%d,%.10g,%d\n", columns).encode()


def test_int_boundaries_print_as_percent_d():
    values = [0, 1, -1, 9, 10, 99, 100, 9999, 10 ** 4, 99999, 10 ** 6 - 1, 10 ** 6,
              10 ** 10 - 1, 10 ** 10, -(10 ** 10) + 1, -(10 ** 10), 2 ** 63 - 1, -(2 ** 63)]
    col = np.array(values, dtype=np.int64)
    assert new_rows([col]) == old_rows("%d\n", [col]).encode()
    unsigned = np.array([0, 7, 2 ** 64 - 1, 10 ** 10], dtype=np.uint64)
    assert new_rows([unsigned]) == old_rows("%d\n", [unsigned]).encode()


def test_bytes_column_is_written_as_is():
    triples = np.array([b"0.33,0.34,0.33", b"0,1,0", b"1,0,0"])
    cfb = np.array([0.41, 0.5, 1e-7])
    assert new_rows([triples, triples, cfb]) == (
        b"0.33,0.34,0.33,0.33,0.34,0.33,0.41\n0,1,0,0,1,0,0.5\n1,0,0,1,0,0,1e-07\n")


def test_unsupported_dtype_raises_type_error():
    with pytest.raises(TypeError):
        _RowText().rows([np.array(["x"], dtype=object)])


def random_floats(n, rng):
    """float64 bit patterns of every kind: normal, subnormal, zero, inf and nan."""
    bits = rng.integers(0, 2 ** 63, size=n, dtype=np.int64).astype(np.uint64)
    bits |= rng.integers(0, 2, size=n).astype(np.uint64) << np.uint64(63)
    return bits.view(np.float64)


@pytest.mark.parametrize("n", [0, 1, _ROWS_PER_WRITE - 1, _ROWS_PER_WRITE, _ROWS_PER_WRITE + 1])
def test_emit_equals_the_old_writer(tmp_path, n):
    """Whole files across block boundaries, with slow-path cells in the last block."""
    rng = np.random.default_rng(n)
    wide = random_floats(n, rng)
    narrow = rng.random(n) * rng.choice([1e-6, 1e-3, 1.0, 10.0], size=n)
    if n:
        wide[-1], narrow[-1] = math.nan, 1.0000000005
    columns = (narrow, -narrow, wide, rng.integers(-10 ** 12, 10 ** 12, size=n),
               rng.random(n) < 0.5, np.array([b"0.1,0.2,0.7"] * n))
    path = tmp_path / "rows.csv"
    _emit(str(path), RunConfig("test", ()), ["a,b,c,d,e,f"], row_blocks(columns))
    want = "# cfb 0.1.0\n# test\na,b,c,d,e,f\n" + old_rows("%.10g,%.10g,%.10g,%d,%d,%s\n", columns[:5] + (
        np.array(["0.1,0.2,0.7"] * n, dtype=object),))
    assert path.read_text() == want


def test_float32_column_prints_its_float64_value():
    col = np.array([0.1, 1 / 3, 3e38, 1e-45], dtype=np.float32)
    assert new_rows([col]) == old_rows("%.10g\n", [col]).encode()
