"""The vectorised row formatter against a per-value ``%.15g`` / ``%d`` join."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modlab import textfmt
from modlab.textfmt import Canvas, format_rows

SEPARATORS = [",", " "]

F64 = np.finfo(np.float64)
I64 = np.iinfo(np.int64)
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  float(F64.smallest_normal), float(np.nextafter(F64.smallest_normal, 0)),
                  float(F64.max), -float(F64.max), 1e-280, 1e280,
                  float(np.nextafter(1e-280, 0)), float(np.nextafter(1e280, math.inf))]


def _reference(columns, sep):
    texts = [["%.15g" % v for v in np.asarray(c, dtype=np.float64).tolist()]
             for c in columns[:4]]
    texts.append(["%d" % v for v in np.asarray(columns[4], dtype=np.int64).tolist()])
    return "".join(sep.join(row) + "\n" for row in zip(*texts)).encode("ascii")


def _chunk(floats, ints=None):
    """The five trace columns of a chunk: ``floats`` in every float column
    (negated and reversed in two of them), ``ints`` as n_index."""
    x = np.asarray(floats, dtype=np.float64)
    if ints is None:
        ints = np.arange(len(x)) - len(x) // 2
    return [x, -x, x[::-1].copy(), -x[::-1], np.asarray(ints, dtype=np.int64)]


def _assert_matches(columns):
    for sep in SEPARATORS:
        got = b"".join(format_rows(sep, columns, Canvas(len(columns[0]), len(columns))))
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


# Doubles v whose scaled y = v * 10**(14 - e), e the decimal exponent of v,
# lies within 1e-16 of a rounding tie N + 1/2 without being one. The
# fraction of y that format_g15 computes is good to about 1e-16, so without
# its tie margin about half of them round the wrong way. They were found by
# solving m * 2**k * 10**(14 - e) = N + 1/2 + d (mod 1) for a 53-bit m with
# a Euclid-like descent; the test checks their distance exactly. Such
# doubles exist only in scientific notation: for -4 <= e <= 14 y is a
# multiple of 2**-48 or coarser, so a non-tie lies at least that far off.
NEAR_TIES = [float.fromhex(h) for h in (
    "0x1.e0c4490a5bf7ep-800", "0x1.cb6ca7a8b6c56p-797", "0x1.6d6ece8fbcd2dp-494",
    "0x1.429d71a263148p-481", "0x1.9ddc49f9d82a1p-328", "0x1.15e20edf8f553p-332",
    "0x1.5fed4774c2589p-179", "0x1.d667710bc170ep-179", "0x1.7c5231e47e589p-89",
    "0x1.266e3a2c64691p-93", "0x1.37d88ba4b43e4p+137", "0x1.eebabe0957af3p+167",
    "0x1.535f3110e5d3dp+290", "0x1.19dc138f8a8f5p+432", "0x1.33bb38ea396dep+406",
    "0x1.a2b58d37a787bp+552", "0x1.fe5126ccc93dfp+665", "0x1.8244e2a2ee0ffp+685",
    "0x1.8d326e728c023p+841")]


def _tie_offset(v):
    """``y - (floor(y) + 1/2)`` for ``y = v * 10**(14 - e)``, exactly."""
    e = math.floor(math.log10(v))
    e += (Fraction(v) >= Fraction(10) ** (e + 1)) - (Fraction(v) < Fraction(10) ** e)
    y = Fraction(v) * Fraction(10) ** (14 - e)
    return y - math.floor(y) - Fraction(1, 2)


def test_values_next_to_rounding_ties_match_reference():
    assert all(0 < abs(_tie_offset(v)) < Fraction(1, 10 ** 16) for v in NEAR_TIES)
    assert {_tie_offset(v) > 0 for v in NEAR_TIES} == {True, False}
    # the double nearest (N + 1/2) * 10**(e - 14) at fixed-notation and
    # scientific exponents e
    rng = random.Random(23)
    nearest = [float((rng.randrange(10 ** 14, 10 ** 15) + Fraction(1, 2))
                     * Fraction(10) ** (e - 14))
               for e in (-4, -2, 0, 3, 8, 13, 14, -30, 120) for _ in range(20)]
    # each with the doubles up to three ulps either side, exact ties left out
    bits = np.array(NEAR_TIES + nearest).view(np.int64)
    values = [v for v in np.add.outer(bits, np.arange(-3, 4)).ravel().view(np.float64).tolist()
              if _tie_offset(v) != 0]
    texts = ["%.15g" % v for v in values]
    assert any("e" in t for t in texts) and any("e" not in t for t in texts)
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


def _slow_kinds(rng, exponents):
    """The values the fast path hands to ``'%.15g' % v``: zeros,
    subnormals, infinities, NaN and magnitudes beyond 1e+-281, which it
    computes as 1.0; and, at the decimal ``exponents``, rounding carries
    to the next power of ten and values next to a rounding tie (exact ties
    at exponent 14, where ``d.5`` is a float)."""
    ties = [float(f"{d}5e{k - 15}")
            for d, k in zip(rng.integers(10 ** 14, 10 ** 15, size=12).tolist(), exponents * 3)]
    carries = [999999999999999.5 * 10.0 ** (k - 14) for k in exponents]
    carries += np.nextafter(carries, math.inf).tolist() + [
        float(np.nextafter(10.0 ** (k + 1), 0.0)) for k in exponents]
    return ([0.0, -0.0, 5e-324, -2.5e-310, float(np.nextafter(F64.smallest_normal, 0)),
             math.inf, -math.inf, math.nan, -math.nan, 1e-300, -3e-290, 2e290, -1e300,
             float(F64.max)] + ties + np.nextafter(ties, math.inf).tolist() + carries)


@pytest.mark.parametrize("spread", ["all exponents", "one exponent"])
def test_chunk_sized_column_with_every_slow_kind_matches_reference(spread):
    # a full 2**14-row chunk, as emit_trace formats; with "one exponent"
    # every value, fast or computed as 1.0, has decimal exponent 0, so the
    # exponent tables are read as scalars
    rng = np.random.default_rng(21)
    n = 1 << 14
    if spread == "all exponents":
        values = 10.0 ** rng.uniform(-281.0, 281.0, n) * rng.choice([-1.0, 1.0], n)
        kinds = _slow_kinds(rng, [-280, -5, 0, 14, 200])
    else:
        values = rng.uniform(1.0, 10.0, n)
        kinds = _slow_kinds(rng, [0])
    # every kind at four scattered rows
    rows = rng.choice(n, size=4 * len(kinds), replace=False)
    values[rows] = np.repeat(kinds, 4)
    if spread == "one exponent":
        finite = values[np.isfinite(values) & (values != 0.0)]
        assert (np.floor(np.log10(np.abs(finite))) == 0.0).sum() >= n - 14 * 4
    _assert_matches(_chunk(values))


def _fill_six_words(canvas):
    canvas.start(2)
    for _ in range(6):
        canvas.word(0)


# a chunk longer than the canvas, and a line of one field needing a sixth word
@pytest.mark.parametrize("fill, message", [
    (lambda canvas: canvas.start(3), "3 rows do not fit a canvas of 2"),
    (_fill_six_words, "a line needs more than 5 words"),
], ids=["rows", "words"])
def test_canvas_overflow_raises(fill, message):
    with pytest.raises(ValueError, match=message):
        fill(Canvas(2, 1))


def _fig4a_chunk(n_rows):
    """The first ``n_rows`` rows of the 10^6-row fig4a scan over -150..150
    GHz at 0.0003 GHz, as the five columns ``format_rows`` takes."""
    from modlab.correlator import LazyTrace, UniformAxis
    from modlab.scenario import figure_preset

    part = LazyTrace(figure_preset("fig4a").model,
                     UniformAxis(-150.0, 0.0003, 1_000_001)).chunk(0, n_rows)
    return (part.delta_axis, part.paired, part.accidental, part.total, part.n_index)


def test_format_rows_splits_a_chunk_at_block_boundaries():
    # chunks of one line, one block and a line either side, and a whole
    # 2**14-line emit chunk, formatted one after another on one canvas
    block = textfmt._BLOCK_LINES
    assert block == 4096
    canvas = Canvas(1 << 14, 5)
    chunk = _fig4a_chunk(1 << 14)
    lines = _reference(chunk, ",").splitlines(keepends=True)
    for n in (1, block - 1, block, block + 1, 1 << 14):
        # no text holds a separator, so one reference serves both
        want = b"".join(lines[:n])
        for sep in SEPARATORS:
            blocks = list(format_rows(sep, [c[:n] for c in chunk], canvas))
            assert [b.count(b"\n") for b in blocks] == [
                min(block, n - lo) for lo in range(0, n, block)], n
            assert b"".join(blocks) == want.replace(b",", sep.encode("ascii")), (n, sep)


def test_format_rows_memory_on_a_trace_chunk():
    # one 2**14-row chunk of the fig4a scan, its blocks consumed one at a time
    columns = _fig4a_chunk(1 << 14)
    canvas = Canvas(1 << 14, 5)
    want = b"".join(format_rows(",", columns, canvas))   # fills the exponent tables
    view = memoryview(want)
    tracemalloc.start()
    try:
        at = 0
        for block in format_rows(",", columns, canvas):
            assert view[at:at + len(block)] == block
            at += len(block)
            del block
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert at == len(want)
    # 1,182,132 bytes here (numpy 2.4): the formatter's arrays, and one
    # 4,096-line block as word bytes and as text. Laid out as one block of
    # the whole chunk, as before, the rows peaked at 3,146,984 bytes; the
    # formatter with a temporary per numpy expression at 3,723,945. The
    # bound allows 5% above the blocks.
    assert peak <= 1.05 * 1_182_132
