"""The vectorised row formatter against a per-value ``%.15g`` / ``%d`` join."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modlab.textfmt import Canvas, format_rows

SEPARATORS = [",", " "]

F64 = np.finfo(np.float64)
I64 = np.iinfo(np.int64)
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  float(F64.smallest_normal), float(np.nextafter(F64.smallest_normal, 0)),
                  float(F64.max), -float(F64.max), 1e-280, 1e280,
                  float(np.nextafter(1e-280, 0)), float(np.nextafter(1e280, math.inf))]


def _reference(columns, sep):
    floats = [np.asarray(c, dtype=np.float64).tolist() for c in columns[:4]]
    ints = np.asarray(columns[4], dtype=np.int64).tolist()
    return "".join(
        sep.join(["%.15g" % v for v in row[:4]] + ["%d" % row[4]]) + "\n"
        for row in zip(*floats, ints)).encode("ascii")


def _chunk(floats, ints=None):
    """The five trace columns of a chunk: ``floats`` in every float column
    (negated and reversed in two of them), ``ints`` as n_index."""
    x = np.asarray(floats, dtype=np.float64)
    if ints is None:
        ints = np.arange(len(x)) - len(x) // 2
    return [x, -x, x[::-1].copy(), -x[::-1], np.asarray(ints, dtype=np.int64)]


def _assert_matches(columns):
    for sep in SEPARATORS:
        got = format_rows(sep, columns, Canvas(len(columns[0]), len(columns)))
        want = _reference(columns, sep)
        if got != want:
            bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
            pytest.fail(f"sep={sep!r}: {len(bad)} rows differ, first {bad[:3]}")


def _raw(dtype, n):
    """Arrays of ``n`` raw 64-bit patterns: every sign, exponent and payload."""
    return st.binary(min_size=8 * n, max_size=8 * n).map(
        lambda data: np.frombuffer(data, dtype=dtype).copy())


def _listed(elements, dtype, n):
    return st.lists(elements, min_size=n, max_size=n).map(
        lambda values: np.array(values, dtype=dtype))


@st.composite
def chunks(draw):
    """Five columns of one chunk: raw bit patterns in two float columns,
    hypothesis floats (with zeros, subnormals, inf and nan) and the special
    values in the other two, raw or extreme int64 values in the last."""
    n = draw(st.integers(1, 24))
    floats = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL_FLOATS))
    ints = st.one_of(st.integers(int(I64.min), int(I64.max)),
                     st.sampled_from([int(I64.min), int(I64.max), 0, -1, 1, 9, -10]))
    listed = draw(_listed(floats, np.float64, n))
    return [draw(_raw(np.float64, n)), listed, draw(_raw(np.float64, n)), -listed[::-1],
            draw(st.one_of(_raw(np.int64, n), _listed(ints, np.int64, n)))]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(chunks())
def test_random_columns_match_reference(columns):
    _assert_matches(columns)


def test_powers_of_ten_and_neighbours_match_reference():
    # 10**k, and the largest 15- and 16-digit values below it, where
    # log10 can overestimate the decimal exponent
    values = np.array([float(f"{mantissa}e{k}") for k in range(-300, 300)
                       for mantissa in ("1", "0.999999999999995", "0.9999999999999995")])
    values = np.concatenate((values, np.nextafter(values, 0.0),
                             np.nextafter(values, math.inf)))
    _assert_matches(_chunk(values))


def test_rounding_ties_match_reference():
    rng = random.Random(6)
    values, n_exact = [], 0
    for _ in range(600):
        digits = rng.randrange(10 ** 14, 10 ** 15)
        # (N + 0.5) * 10**k: exact in binary for most N at k <= 2, a near
        # tie at other k; each with its nextafter neighbours
        for k in (0, 1, 2, rng.randrange(-300, 280)):
            value = float(f"{digits}5e{k - 1}")
            n_exact += k <= 2 and value * 2 == (2 * digits + 1) * 10 ** k
            values.append(value)
            values.extend(np.nextafter(value, [0.0, math.inf]).tolist())
    assert n_exact > 1000
    _assert_matches(_chunk(values))


def test_rounding_carries_match_reference():
    values = [999999999999999.4, 999999999999999.5, 99999999999999.95,
              9.999999999999995e-5, 9.999999999999995e14,
              9.9999999999999995e14, 0.99999999999999995, 99999.99999999999]
    values += [v * 10.0 ** k for v in values[:2] for k in range(-20, 20)]
    values += np.nextafter(values, 0.0).tolist() + np.nextafter(values, math.inf).tolist()
    _assert_matches(_chunk(values))


def test_int64_extremes_match_reference():
    ints = [int(I64.min), int(I64.min) + 1, -10 ** 18, -1, 0, 1, 9, 10, 99, 100,
            10 ** 18, int(I64.max) - 1, int(I64.max)]
    _assert_matches(_chunk(np.linspace(-1.0, 1.0, len(ints)), ints))
