"""Trace rows as CSV bytes: vectorised ``%.15g`` and per-value ``%d``.

``format_rows`` turns one chunk of trace columns into rows of text. It
writes into a ``Canvas``: a word-major array of 8-byte words, one canvas
row per word slot and one column per output line. Line ``i``, read word
after word, holds the ASCII bytes of ``'%.15g' % x[i]`` (or ``'%d' %
x[i]`` for the int64 sideband index) in fixed slots, with NUL bytes in the
slots the value does not use; text shared by every line (separators,
constant columns) takes whole words of its own. ``Canvas.blocks`` lays
the words of a line side by side and deletes every NUL with
``bytes.translate``, which leaves exactly the bytes of the per-value ``%``,
``_BLOCK_LINES`` (4,096) lines at a time.

A canvas is sized for a number of lines and reused: ``Canvas.start``
begins the next chunk; it is the one buffer kept across calls.
``format_g15`` computes in place (``out=`` and augmented assignment) and
deletes each temporary once it is dead, so a handful of arrays of one
column of one chunk are alive at a time. On a 10^6-row ``scan`` of the
fig4a preset (2-vCPU x86-64 host, Python 3.11, numpy 2.4, 12 alternating
subprocess pairs, ``os.wait4``) this took the wall time from 1.13 to
0.93 s and the minor faults from 24.8k to 16.4k (a 601-row ``scan`` takes
4.8k), against a formatter that gave every numpy expression a fresh
temporary and so made glibc trim the heap top after each column and fault
it back in; at 10^7 rows the faults fell from 193.6k to 28.0k. glibc now
keeps that freed heap instead: the peak RSS, reached while the rows are
formatted, reads 37.1, 37.8 and 37.9 MB at 10^5, 10^6 and 10^7 rows
against 36.7, 37.4 and 37.4 MB.

A fig4a line takes 12 words, so a 16,384-line chunk is 1.57 MB of words
and 1.17 MB of text. Laid out with one ``tobytes`` and one ``translate``,
the chunk held both at once; a 4,096-line block holds 0.39 and 0.29 MB,
and ``format_rows`` hands out each block only when its caller reaches it.
On the 10^6-row ``scan`` (2-vCPU x86-64 host, Python 3.11, numpy 2.4, 24
alternating subprocess pairs, ``os.wait4``) this took the peak RSS from
37.47 to 35.27 MB, lower in every pair, at the same wall time; formatting
a chunk in process took 7.3 ms where it took 8.0. In 12 rounds, blocks of
1,024 and 2,048 lines read 35.27 and 35.23 MB against 35.28 for 4,096,
and 8,192 lines 36.10 MB: at 4,096 lines and below the text no longer
sets the peak. The ``.meta`` step's ``hashlib`` import (OpenSSL, about
3.6 MB) after the last chunk sets it now, with the formatting close
behind: a copy without that import peaked 0.39 and 0.54 MB lower, in 16
of 16 pairs in each of two source directories.

``%.15g`` rounds |x| to 15 significant digits. For |x| whose decimal
exponent ``e = floor(log10|x|)`` lies in -281..280 the rounding is done in
double-double arithmetic: with ``(hi, lo)`` the double-double value of
``10**(14 - e)``, the scaled ``y = |x| * 10**(14 - e)`` is Dekker's exact
product ``p + err`` of ``|x|`` and ``hi`` plus ``|x| * lo``, so
``r = (p - rint(p)) + err + |x| * lo`` is the fraction of ``y`` to well
below 1e-12. A value is accepted only when ``y`` is not within 1e-7 of a
rounding tie, its rounding ``N`` is a 15-digit integer and ``y >= 10**14``
(``log10`` can overestimate ``e`` by one next to a power of ten). Every
other value, including zeros, subnormals, infinities, NaN and the rounding
carries to the next power of ten, is formatted by ``'%.15g' % v`` itself,
once per distinct value in the column. The per-exponent constants (``hi``
split into its Veltkamp halves, ``lo``, and the words below) sit in tables
filled for the exponents a column reaches, once per process; a column
whose values share one exponent reads them as scalars. The sideband index
has no digit arithmetic of its own: it takes one value per window of the
modulation frequency, so a chunk holds few distinct values, and each goes
through ``'%d' % v`` once.

An accepted value takes up to four words: a lead word (sign and the
``0.000`` prefix of fixed notation for ``-4 <= e < 0``); two words built
from the 16-byte string ``str(10 * N)``, whose integer-part digits stay in
place while its fraction digits, trailing zeros masked out, move up one
byte to make room for the decimal point; and an exponent word (``e+XX``).
A word that is the same on every line of the chunk becomes shared text
instead, and nothing when it is all NUL, unless some line goes through
``%`` itself. Over the 62 chunks of the 10^6-row scan this drops most
lead words and the second digit word of ``delta_ghz``, and the canvas
holds 1.40 times the bytes of the output, where it held 1.54 times.
"""

import numpy as np

_TIE_MARGIN = 1e-7
_SPLIT = 134217729.0          # 2**27 + 1, Veltkamp's splitting constant
_DIGITS = 15
# the lines Canvas.blocks lays out and translates at a time
_BLOCK_LINES = 4096


# little-endian words: byte p of a word is bits 8p..8p+7 on every host
_WORD = np.dtype("<u8")


def _words(data):
    """Bytes as words in memory order, NUL-padded to a whole word."""
    return np.frombuffer(data.ljust(-(-len(data) // 8) * 8, b"\0"), dtype=_WORD)


def _quad_tables():
    """``"0000".."9999"`` in the low four bytes of a word, in memory order
    whatever the byte order, for ``np.take`` to write four ASCII digits per
    element; and per group ``g`` of four digits a ``uint8`` table of the
    position, among the 16 digits, of the last nonzero digit of 1..9999
    (0 for 0000), so that the largest over the four groups is the last
    nonzero digit of all 16."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"),
                          dtype=np.uint16)
    quads = np.empty((100, 100, 2), dtype=np.uint16)
    quads[:, :, 0] = pairs[:, None]
    quads[:, :, 1] = pairs
    last = np.full(10_000, 3, dtype=np.uint8)
    last[::10], last[::100], last[::1000] = 2, 1, 0
    positions = last + np.arange(0, 16, 4, dtype=np.uint8)[:, None]
    positions[:, 0] = 0
    words = np.zeros((10_000, 2), dtype=np.uint32)
    words[:, 0] = quads.view(np.uint32).ravel()
    return words.view(_WORD).ravel(), positions


def _digit_masks():
    """Masks on the 16-byte string ``str(10 * N)``, whose byte ``p`` holds
    digit ``p``, indexed by ``i * 15 + last``: ``i`` is the number of
    integer-part digits and ``last`` the index of the last nonzero digit.
    Columns: two words of the integer part, two of the fraction (shifted up
    one byte afterwards) and two of the decimal point."""
    pos = np.arange(16)
    i, last = np.divmod(np.arange(16 * _DIGITS), _DIGITS)
    i, last = i[:, None], last[:, None]
    integer = pos < i
    fraction = (pos >= i) & (pos <= last)
    masks = np.where(np.concatenate((integer, fraction), axis=1), 0xFF, 0)
    point = np.where((pos == i) & (i >= 1) & (last >= i), ord("."), 0)
    table = np.concatenate((masks, point), axis=1).astype(np.uint8)
    return np.ascontiguousarray(table.view(_WORD))


_QUAD_WORDS, _QUAD_LAST = _quad_tables()
# the same digits in the high four bytes, for the second group of a word
_QUAD_HIGH = _QUAD_WORDS << 32
# one contiguous table per mask column, so that np.take reads one dense row
_MASKS = np.ascontiguousarray(_digit_masks().T)
_MINUS = _words(b"-")[0]


# The exponent tables: row ``e - _E_FIRST`` for each decimal exponent ``e``
# in -281..280, the exponents the double-double rounding takes. Rows are
# filled the first time a column's exponent range reaches them and then kept
# for the process; they hold constants, so which rows are filled never
# changes an output. All 562 rows take about 4 ms; a figure fills 10 to 60.
_E_FIRST = -281
_E_COUNT = 562
_HI_HIGH = np.zeros(_E_COUNT)       # Veltkamp halves of hi = 10**(14 - e) rounded
_HI_LOW = np.zeros(_E_COUNT)
_LO = np.zeros(_E_COUNT)            # 10**(14 - e) - hi
_ROW_BASE = np.zeros(_E_COUNT, dtype=np.intp)   # _DIGITS * integer-part digits
_LEAD = np.zeros(_E_COUNT, dtype=_WORD)
_EXPONENT = np.zeros(_E_COUNT, dtype=_WORD)
_FILLED = np.zeros(_E_COUNT, dtype=bool)


def _fill_exponents(first, last):
    """Fill the table rows ``first..last`` not filled yet: ``10**(14 - e)``
    as a double-double ``(hi, lo)`` from exact int arithmetic, with ``hi``
    split, the mask-row base of the integer-part digits, and the lead and
    exponent words."""
    for i in np.flatnonzero(~_FILLED[first:last + 1]) + first:
        e = int(i) + _E_FIRST
        k = _DIGITS - 1 - e
        if k >= 0:
            exact = 10 ** k
            hi = float(exact)
            lo = float(exact - int(hi))
        else:
            scale = 10 ** -k
            hi = 1 / scale                   # int true division rounds correctly
            num, den = hi.as_integer_ratio()
            lo = (den - num * scale) / (den * scale)
        if -4 <= e < 0:
            n_int, lead, exponent = 0, b"\0" + b"0." + b"0" * (-1 - e), b""
        elif 0 <= e < _DIGITS:
            n_int, lead, exponent = e + 1, b"", b""
        else:
            n_int, lead, exponent = 1, b"", f"e{e:+03d}".encode("ascii")
        _HI_HIGH[i], _HI_LOW[i] = _split(hi)
        _LO[i] = lo
        _ROW_BASE[i] = _DIGITS * n_int
        _LEAD[i] = int.from_bytes(lead, "little")
        _EXPONENT[i] = int.from_bytes(exponent, "little")
        _FILLED[i] = True


class Canvas:
    """Up to ``capacity`` lines of ``fields`` fields each, reused chunk after
    chunk.

    ``start(n)`` begins a chunk of ``n`` lines. ``text`` appends bytes
    shared by every line; ``word(value)`` hands out the next canvas row
    filled with ``value`` (one word for every line, or one per line), which
    the caller may keep writing until ``blocks`` hands out the finished
    lines, ``_BLOCK_LINES`` at a time, so that the text of a whole chunk
    never exists at once. Adjacent shared texts merge before they are cut
    into words.

    A ``%.15g`` field takes at most four words (lead, two digit words and
    exponent), each a canvas row or, folded into shared text, at most eight
    bytes of it; a ``%`` text is at most 22 bytes, three words. A ``%d``
    text of an int64 is at most 20 bytes, three words, and a constant field
    with its separator at most 23. With a separator or line end after each
    field, five words per field therefore always suffice.

    The canvas is the one buffer kept across chunks. Allocated per chunk
    instead, it left the wall time of a 10^6-row ``scan`` as it was but
    raised its peak RSS from 38.2 to 39.3 MB (16 alternating runs).
    """

    def __init__(self, capacity, fields):
        self.capacity = capacity
        self._n = 0
        self._canvas = np.empty((5 * fields, capacity), dtype=_WORD)
        self._used = 0
        self._text = b""

    def start(self, n_rows):
        if n_rows > self.capacity:
            raise ValueError(f"{n_rows} rows do not fit a canvas of {self.capacity}")
        self._n, self._used, self._text = n_rows, 0, b""

    def text(self, data):
        self._text += data

    def word(self, value):
        self._flush()
        return self._next(value)

    def _flush(self):
        for value in _words(self._text):
            self._next(value)
        self._text = b""

    def _next(self, value):
        if self._used == len(self._canvas):
            raise ValueError(f"a line needs more than {self._used} words")
        self._used += 1
        word = self._canvas[self._used - 1, :self._n]
        word[...] = value
        return word

    def blocks(self):
        """The lines, ``_BLOCK_LINES`` at a time, as bytes with NULs deleted.

        Each block is laid out only when the iterator reaches it, from the
        canvas as it is then, so the blocks must be consumed before the next
        ``start``."""
        self._flush()
        # word-major, so that each word is one contiguous write; tobytes of
        # the transpose of a column slice lays that block's lines out
        words = self._canvas[:self._used, :self._n]
        return (words[:, lo:lo + _BLOCK_LINES].T.tobytes().translate(None, b"\0")
                for lo in range(0, self._n, _BLOCK_LINES))


def _split(a):
    """Veltkamp's split of ``a`` into ``high + low``."""
    t = a * _SPLIT
    high = t - (t - a)
    return high, a - high


def _take(table, index):
    # indices are in range, so clip never moves one; faster than table[index]
    return np.take(table, index, mode="clip")


def _spec(x):
    """The ``%`` spec of a column: ``'%d'`` for int64, ``'%.15g'`` for float64."""
    return "%d" if x.dtype == np.int64 else "%.15g"


def _per_value(x, rows, words, canvas):
    """Write ``_spec(x) % v`` for ``x[rows]`` over ``words``, once per
    distinct value, adding NUL words at the end when a text needs them."""
    spec = _spec(x)
    bits, inverse = np.unique(x[rows].view(np.uint64), return_inverse=True)
    texts = [(spec % v).encode("ascii") for v in bits.view(x.dtype).tolist()]
    while 8 * len(words) < max(map(len, texts)):
        words.append(canvas.word(0))
    width = 8 * len(words)
    table = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), dtype=_WORD)
    for word, column in zip(words, table.reshape(len(texts), -1)[inverse.ravel()].T):
        word[rows] = column


def _add_word(canvas, words, word, any_slow):
    """Append ``word`` (one value per line, or one scalar for all) to
    ``words`` as the next word of ``canvas``; or, when every line holds the
    same word, add its bytes as shared text instead: nothing for a NUL word,
    and only while no line is left for ``_per_value``, which writes its
    texts over ``words``."""
    scalar = np.ndim(word) == 0
    value = word if scalar else word[0]
    if ((scalar or word[-1] == value and (word == value).all())
            and (value == 0 or not any_slow)):
        canvas.text(int(value).to_bytes(8, "little").replace(b"\0", b""))
    else:
        words.append(canvas.word(word))


def format_g15(x, canvas):
    """Write ``'%.15g' % v`` for every ``v`` in a float64 array as the next
    words of ``canvas``, whose current chunk has ``len(x)`` lines."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    with np.errstate(divide="ignore"):      # log10(0) is -inf
        t = np.log10(a)
    np.floor(t, out=t)
    t -= _E_FIRST
    # NaN in t makes the range test fail
    e_lo, e_hi = t.min(), t.max()
    fast = None
    if not (0 <= e_lo and e_hi < _E_COUNT):
        # zeros, subnormals, infinities, NaN and |x| beyond the tables
        # compute as 1.0 and are left to _per_value
        fast = (t >= 0) & (t < _E_COUNT)
        a[~fast] = 1.0
        t[~fast] = -_E_FIRST
        e_lo, e_hi = t.min(), t.max()
    index = t.astype(np.intp)
    del t
    e_lo, e_hi = int(e_lo), int(e_hi)
    if not _FILLED[e_lo:e_hi + 1].all():
        _fill_exponents(e_lo, e_hi)

    def lookup(table):
        # the rows of index; one scalar when every value shares its exponent
        return table[e_lo] if e_lo == e_hi else _take(table, index)

    # y = a * 10**(14 - e) = n0 + r, with n0 = rint(p) and p + err = a * hi
    # exactly (Dekker's product of a and hi = bh + bl)
    bh, bl = lookup(_HI_HIGH), lookup(_HI_LOW)
    p = a * (bh + bl)
    ah = a * _SPLIT
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    err = ah * bh
    err -= p
    ah *= bl
    err += ah
    np.multiply(al, bh, out=ah)
    err += ah
    al *= bl
    err += al
    del ah, al, bh, bl
    n = np.rint(p)
    p -= n
    p += err
    del err
    a *= lookup(_LO)
    p += a
    r = p
    del a, p
    # fits 15 digits and y >= 10**14, where log10 can overestimate e by one;
    # (n0 - 1e14) + r >= 0 implies rint(y) >= 10**14
    t = n - 1e14
    t += r
    ok = t >= 0
    # |r| < 1.5 on every row that passes, so rint(r) is r's rounding carry
    np.rint(r, out=t)
    n += t
    ok &= n < 1e15
    if fast is not None:
        ok &= fast
    # not within _TIE_MARGIN of a rounding tie: |r - rint(r)| is the
    # distance of y from its rounding, at most 0.5. r is good to about 1e-16,
    # and in scientific notation some doubles lie closer than that to a tie
    # (tests/test_textfmt.py pins 19); without the margin about half of them
    # would round the wrong way
    r -= t
    np.abs(r, out=r)
    ok &= r < 0.5 - _TIE_MARGIN
    del r, t, fast
    slow = np.flatnonzero(~ok)
    del ok

    # Rows that fail ok are written over by _per_value below, so what the
    # digit arithmetic leaves in them does not matter; their n is finite
    # (a row outside the tables computes with a = 1.0), and mode="clip"
    # keeps every index the arithmetic gives them inside its table.
    words = []
    negative = x < 0
    if negative.any():
        sign = _MINUS if negative.all() else negative * _MINUS
        lead = lookup(_LEAD) | sign
        _add_word(canvas, words, lead, len(slow))
        del lead
    elif _LEAD[e_lo:e_hi + 1].any():
        _add_word(canvas, words, lookup(_LEAD), len(slow))
    del negative
    # str(10 * N): 15 digits and a pad byte that the fraction can move into,
    # in four groups of four digits, most significant first
    m = n.astype(np.int64)
    del n
    m *= 10
    high8 = m // 100_000_000
    m -= high8 * 100_000_000
    quad0 = high8 // 10_000
    high8 -= quad0 * 10_000
    quad2 = m // 10_000
    m -= quad2 * 10_000
    quads = (quad0, high8, quad2, m)
    del quad0, high8, quad2, m
    # the index of the last nonzero digit: the largest position that a
    # nonzero group gives
    last = _take(_QUAD_LAST[0], quads[0])
    for table, quad in zip(_QUAD_LAST[1:], quads[1:]):
        np.maximum(last, _take(table, quad), out=last)
    row = lookup(_ROW_BASE) + last
    del last
    first = _take(_QUAD_WORDS, quads[0])
    t = _take(_QUAD_HIGH, quads[1])
    first |= t
    second = _take(_QUAD_WORDS, quads[2])
    np.take(_QUAD_HIGH, quads[3], mode="clip", out=t)
    second |= t
    del quads
    # integer-part digits in place, fraction digits up one byte, the point
    low = _take(_MASKS[2], row)
    low &= first
    first &= _take(_MASKS[0], row)
    np.left_shift(low, 8, out=t)
    first |= t
    first |= _take(_MASKS[4], row)
    _add_word(canvas, words, first, len(slow))
    del first
    high = _take(_MASKS[3], row)
    high &= second
    second &= _take(_MASKS[1], row)
    high <<= 8
    second |= high
    low >>= 56
    second |= low
    second |= _take(_MASKS[5], row)
    del row, high, low, t
    _add_word(canvas, words, second, len(slow))
    del second
    if _EXPONENT[e_lo:e_hi + 1].any():
        _add_word(canvas, words, lookup(_EXPONENT), len(slow))
    if len(slow):
        _per_value(x, slow, words, canvas)


def format_rows(sep, columns, canvas):
    """One chunk of trace columns (delta, paired, accidental, total as
    float64, the sideband index as int64) as ASCII rows joined by ``sep``,
    each ending in LF, into ``canvas``, which has room for the chunk. The
    rows come back as ``Canvas.blocks``: an iterator of bytes, one per
    ``_BLOCK_LINES`` lines, to be consumed before ``canvas`` is used again.

    A column whose values in the chunk are bitwise identical is formatted
    once and shared by every row; the comparison is on the bits, so ``0.0``
    and ``-0.0`` never fold together.
    """
    *floats, index = columns
    columns = [np.asarray(c, dtype=np.float64) for c in floats]
    columns.append(np.asarray(index, dtype=np.int64))
    canvas.start(len(columns[0]))
    for i, col in enumerate(columns):
        bits = col.view(np.uint64)
        if (bits == bits[0]).all():
            canvas.text((_spec(col) % col[0].item()).encode("ascii"))
        elif col.dtype == np.int64:
            _per_value(col, slice(None), [], canvas)
        else:
            format_g15(col, canvas)
        canvas.text(b"\n" if i == len(columns) - 1 else sep.encode("ascii"))
    return canvas.blocks()
