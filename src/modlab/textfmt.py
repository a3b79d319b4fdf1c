"""Trace rows as CSV bytes: vectorised ``%.15g`` and per-value ``%d``.

``format_rows`` turns one chunk of trace columns into rows of text. It
writes into a ``Canvas``: a word-major array of 8-byte words, one canvas
row per word slot and one column per output line. Line ``i``, read word
after word, holds the ASCII bytes of ``'%.15g' % x[i]`` (or ``'%d' %
x[i]`` for the int64 sideband index) in fixed slots, with NUL bytes in the
slots the value does not use; text shared by every line (separators,
constant columns) takes whole words of its own. ``Canvas.rows`` lays the
words of a line side by side and deletes every NUL with one
``bytes.translate``, which leaves exactly the bytes of the per-value ``%``.

A canvas is sized for a number of lines and reused: ``Canvas.start``
begins the next chunk. The formatters compute with plain numpy expressions,
whose temporaries live while one column of one chunk is formatted. On a
10^6-row ``scan`` of the fig4a preset (2-vCPU x86-64 host, Python 3.11,
numpy 2.4) that peaks at 37.4-38.2 MB of RSS, where a pool of about 31
work arrays kept for the whole call peaked at 39.9-41.0 MB. In exchange
glibc trims the heap top after each column and faults it back in: minor
faults rise from 17k to 24.5k and wall time by about 5% (38k to 188k and
about 7% at 10^7 rows).

``%.15g`` rounds |x| to 15 significant digits. For |x| in
``[1e-280, 1e280]`` the rounding is done in double-double arithmetic:
with ``e`` an estimate of ``floor(log10|x|)`` and ``(hi, lo)`` the
double-double value of ``10**(14 - e)``, the scaled ``y = |x| * 10**(14 - e)``
is Dekker's exact product ``p + err`` of ``|x|`` and ``hi`` plus ``|x| * lo``,
so ``r = (p - rint(p)) + err + |x| * lo`` is the fraction of ``y`` to well
below 1e-12. A value is accepted only when ``y`` is not within 1e-7 of a
rounding tie, its rounding ``N`` is a 15-digit integer and ``y >= 10**14``
(``log10`` can overestimate ``e`` by one next to a power of ten). Every
other value, including zeros, subnormals, infinities, NaN and the rounding
carries to the next power of ten, is formatted by ``'%.15g' % v`` itself,
once per distinct value in the column. The sideband index has no digit
arithmetic of its own: it takes one value per window of the modulation
frequency, so a chunk holds few distinct values, and each goes through
``'%d' % v`` once.

An accepted value takes up to four words: a lead word (sign and the
``0.000`` prefix of fixed notation for ``-4 <= e < 0``); two words built
from the 16-byte string ``str(10 * N)``, whose integer-part digits stay in
place while its fraction digits, trailing zeros masked out, move up one
byte to make room for the decimal point; and an exponent word (``e+XX``).
A column none of whose values needs the lead or the exponent word goes
without it.
"""

import functools

import numpy as np

_SAFE_MIN, _SAFE_MAX = 1e-280, 1e280
_TIE_MARGIN = 1e-7
_SPLIT = 134217729.0          # 2**27 + 1, Veltkamp's splitting constant
_DIGITS = 15


# little-endian words: byte p of a word is bits 8p..8p+7 on every host
_WORD = np.dtype("<u8")


def _words(data):
    """Bytes as words in memory order, NUL-padded to a whole word."""
    return np.frombuffer(data.ljust(-(-len(data) // 8) * 8, b"\0"), dtype=_WORD)


def _quad_tables():
    """``"0000".."9999"`` in the low four bytes of a word, in memory order
    whatever the byte order, for ``np.take`` to write four ASCII digits per
    element; and the index, within its four digits, of the last nonzero
    digit of 1..9999."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"),
                          dtype=np.uint16)
    quads = np.empty((100, 100, 2), dtype=np.uint16)
    quads[:, :, 0] = pairs[:, None]
    quads[:, :, 1] = pairs
    last = np.full(10_000, 3)
    last[::10], last[::100], last[::1000] = 2, 1, 0
    words = np.zeros((10_000, 2), dtype=np.uint32)
    words[:, 0] = quads.view(np.uint32).ravel()
    return words.view(_WORD).ravel(), last


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
# one contiguous table per mask column, so that np.take reads one dense row
_MASKS = np.ascontiguousarray(_digit_masks().T)
_MINUS = _words(b"-")[0]


@functools.cache
def _exponent_entry(e):
    """Per decimal exponent ``e``: ``10**(14 - e)`` as a double-double
    ``(hi, lo)`` from exact int arithmetic, the number of integer-part
    digits, and the lead and exponent words as ints."""
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
    return hi, lo, n_int, int.from_bytes(lead, "little"), int.from_bytes(exponent, "little")


class Canvas:
    """Up to ``capacity`` lines of ``fields`` fields each, reused chunk after
    chunk.

    ``start(n)`` begins a chunk of ``n`` lines. ``text`` appends bytes
    shared by every line; ``word(value)`` hands out the next canvas row
    filled with ``value`` (one word for every line, or one per line), which
    the caller may keep writing until ``rows`` returns the finished lines.
    Adjacent shared texts merge before they are cut into words.

    A ``%.15g`` field takes at most four words (lead, two digit words and
    exponent; a ``%`` text is at most 22 bytes, three words) and a ``%d``
    text of an int64 at most 20 bytes, three words; shared text of ``k``
    fields and their separators at most ``3 * k + 1``. Five words per field
    therefore always suffice.

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

    def rows(self):
        """The lines as bytes, NULs deleted."""
        self._flush()
        # word-major, so that each word is one contiguous write; tobytes of
        # the transpose lays the lines out
        return self._canvas[:self._used, :self._n].T.tobytes().translate(None, b"\0")


def _exponent_tables(e):
    """Each value's row ``e - e.min()`` in tables of the ``_exponent_entry``
    fields over ``e.min()..e.max()``: ``hi`` and ``lo`` as float64, the
    number of integer-part digits as int64, the lead and exponent words;
    zero rows for exponents not in ``e``."""
    e_min = int(e.min())
    index = e - e_min
    present = np.zeros(int(e.max()) - e_min + 1, dtype=bool)
    present[index] = True
    entries = [_exponent_entry(i + e_min) if seen else (0.0, 0.0, 0, 0, 0)
               for i, seen in enumerate(present.tolist())]
    hi, lo, n_int, lead, exponent = zip(*entries)
    return (index, np.array(hi), np.array(lo), np.array(n_int, dtype=np.int64),
            np.array(lead, dtype=_WORD), np.array(exponent, dtype=_WORD))


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


def format_g15(x, canvas):
    """Write ``'%.15g' % v`` for every ``v`` in a float64 array as the next
    words of ``canvas``, whose current chunk has ``len(x)`` lines."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= _SAFE_MIN) & (a <= _SAFE_MAX)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    index, hi_t, lo_t, n_int_t, lead_t, exponent_t = _exponent_tables(e)
    hi = _take(hi_t, index)
    # y = a * 10**(14 - e) = n0 + r, with n0 = rint(p) and p + err = a * hi exactly
    p = a * hi
    ah, al = _split(a)
    bh, bl = _split(hi)
    err = ah * bh - p + ah * bl + al * bh + al * bl
    n0 = np.rint(p)
    r = p - n0 + err + a * _take(lo_t, index)
    n = n0 + (r > 0.5) - (r < -0.5)
    ok = ((np.abs(np.abs(r) - 0.5) > _TIE_MARGIN) & fast & (n >= 1e14) & (n < 1e15)
          & (n0 - 1e14 + r >= 0))

    words = []
    sign = np.signbit(x) & ok
    if sign.any() or lead_t.any():
        lead = _take(lead_t, index)
        words.append(canvas.word(np.where(sign, lead | _MINUS, lead)))
    # str(10 * N): 15 digits and a pad byte that the fraction can move into,
    # in four groups of four digits, most significant first
    rest, quad3 = np.divmod(np.where(ok, n, 1e14).astype(np.int64) * 10, 10_000)
    rest, quad2 = np.divmod(rest, 10_000)
    quads = (*np.divmod(rest, 10_000), quad2, quad3)
    first = _take(_QUAD_WORDS, quads[0]) | _take(_QUAD_WORDS, quads[1]) << 32
    second = _take(_QUAD_WORDS, quads[2]) | _take(_QUAD_WORDS, quads[3]) << 32
    last = _take(_QUAD_LAST, quads[0])
    for offset, quad in zip((4, 8, 12), quads[1:]):
        last = np.where(quad != 0, _take(_QUAD_LAST, quad) + offset, last)
    row = _take(n_int_t, index) * _DIGITS + last
    low = first & _take(_MASKS[2], row)
    high = second & _take(_MASKS[3], row)
    words.append(canvas.word(first & _take(_MASKS[0], row) | low << 8
                             | _take(_MASKS[4], row)))
    words.append(canvas.word(second & _take(_MASKS[1], row) | high << 8 | low >> 56
                             | _take(_MASKS[5], row)))
    if exponent_t.any():
        words.append(canvas.word(_take(exponent_t, index)))
    slow = np.flatnonzero(~ok)
    if len(slow):
        _per_value(x, slow, words, canvas)


def format_rows(sep, columns, canvas):
    """One chunk of trace columns (delta, paired, accidental, total as
    float64, the sideband index as int64) as ASCII rows joined by ``sep``,
    each ending in LF, into ``canvas``, which has room for the chunk.

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
    return canvas.rows()
