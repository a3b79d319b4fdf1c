"""Vectorised ``%.15g`` and ``%d`` formatting of numpy columns.

The formatters write into a ``Canvas``: a word-major array of 8-byte
words, one canvas row per word slot and one column per output line. Line
``i``, read word after word, holds the ASCII bytes of ``'%.15g' % x[i]``
(or ``'%d' % x[i]``) in fixed slots, with NUL bytes in the slots the value
does not use; text shared by every line (separators, constant columns)
takes whole words of its own. ``Canvas.rows`` lays the words of a line
side by side and deletes every NUL with one ``bytes.translate``, which
leaves exactly the bytes of the per-value ``%``.

A canvas is sized for a number of lines and reused: ``Canvas.start``
begins the next chunk, and every work array the formatters need comes from
``Canvas.work``, allocated once per name. Formatting a chunk therefore
allocates little beyond the bytes it returns, so a long run of chunks
neither grows the heap nor maps fresh pages for each one.

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
once per distinct value in the column.

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
    """``"0000".."9999"`` as uint32, for ``np.take`` to write four ASCII
    digits per element in memory order whatever the byte order; the same
    digits in the low four bytes of a word; and the index, within its four
    digits, of the last nonzero digit of 1..9999."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"),
                          dtype=np.uint16)
    quads = np.empty((100, 100, 2), dtype=np.uint16)
    quads[:, :, 0] = pairs[:, None]
    quads[:, :, 1] = pairs
    last = np.full(10_000, 3)
    last[::10], last[::100], last[::1000] = 2, 1, 0
    quads = quads.view(np.uint32).ravel()
    words = np.zeros((10_000, 2), dtype=np.uint32)
    words[:, 0] = quads
    return quads, words.view(_WORD).ravel(), last


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


_QUADS, _QUAD_WORDS, _QUAD_LAST = _quad_tables()
# one contiguous table per mask column, for np.take into 1-D work arrays
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
    shared by every line; ``word`` hands out the next canvas row, which the
    caller fills with one word per line and may keep writing until
    ``rows`` returns the finished lines. Adjacent shared texts merge before
    they are cut into words. ``work(name, dtype)`` is a work array of ``n``
    entries, the same memory for the same name in every chunk.

    A ``%.15g`` field takes at most four words (lead, two digit words and
    exponent; a ``%`` text is at most 22 bytes, three words) and a ``%d``
    field at most three; shared text of ``k`` fields and their separators
    at most ``3 * k + 1``. Five words per field therefore always suffice.
    """

    def __init__(self, capacity, fields):
        self.capacity = capacity
        self._n = 0
        self._canvas = np.empty((5 * fields, capacity), dtype=_WORD)
        self._used = 0
        self._text = b""
        self._work = {}

    def start(self, n_rows):
        if n_rows > self.capacity:
            raise ValueError(f"{n_rows} rows do not fit a canvas of {self.capacity}")
        self._n, self._used, self._text = n_rows, 0, b""

    def work(self, name, dtype=np.float64):
        if name not in self._work:
            self._work[name] = np.empty(self.capacity, dtype=dtype)
        return self._work[name][:self._n]

    def text(self, data):
        self._text += data

    def word(self):
        self._flush()
        return self._next()

    def _flush(self):
        for value in _words(self._text):
            self._next()[...] = value
        self._text = b""

    def _next(self):
        if self._used == len(self._canvas):
            raise ValueError(f"a line needs more than {self._used} words")
        self._used += 1
        return self._canvas[self._used - 1, :self._n]

    def rows(self):
        """The lines as bytes, NULs deleted."""
        self._flush()
        # word-major, so that each word is one contiguous write; tobytes of
        # the transpose lays the lines out
        return self._canvas[:self._used, :self._n].T.tobytes().translate(None, b"\0")


def _exponent_tables(e, index):
    """Tables of the ``_exponent_entry`` fields over ``e.min()..e.max()``:
    ``hi`` and ``lo`` as float64, the number of integer-part digits as
    int64, the lead and exponent words; zero rows for exponents not in
    ``e``. Writes each value's row, ``e - e.min()``, into ``index``."""
    e_min = int(e.min())
    np.subtract(e, e_min, out=index)
    present = np.zeros(int(e.max()) - e_min + 1, dtype=bool)
    present[index] = True
    entries = [_exponent_entry(i + e_min) if seen else (0.0, 0.0, 0, 0, 0)
               for i, seen in enumerate(present.tolist())]
    hi, lo, n_int, lead, exponent = zip(*entries)
    return (np.array(hi), np.array(lo), np.array(n_int, dtype=np.int64),
            np.array(lead, dtype=_WORD), np.array(exponent, dtype=_WORD))


def _split(a, high, low):
    """Veltkamp's split of ``a`` into ``high + low``, written into both."""
    np.multiply(a, _SPLIT, out=high)
    np.subtract(high, a, out=low)
    high -= low
    np.subtract(a, high, out=low)
    return high, low


def _quads(quads):
    """Split the non-negative ints in ``quads[0]`` into ``len(quads)``
    groups of four decimal digits, most significant first, in place."""
    for quad in quads[:0:-1]:
        np.divmod(quads[0], 10_000, out=(quads[0], quad))
    return quads


def _take(table, index, out):
    # mode="clip" (every index is in range), so np.take writes into out
    # directly instead of through a temporary
    return np.take(table, index, out=out, mode="clip")


def _fallback(x, rows, words, canvas):
    """Write ``'%.15g' % v`` for ``x[rows]`` over ``words``, once per
    distinct value, adding NUL words at the end when a text needs them."""
    bits, inverse = np.unique(x[rows].view(np.uint64), return_inverse=True)
    texts = [("%.15g" % v).encode("ascii") for v in bits.view(np.float64).tolist()]
    while 8 * len(words) < max(map(len, texts)):
        words.append(canvas.word())
        words[-1][...] = 0
    width = 8 * len(words)
    table = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), dtype=_WORD)
    for word, column in zip(words, table.reshape(len(texts), -1)[inverse.ravel()].T):
        word[rows] = column


def format_g15(x, canvas):
    """Write ``'%.15g' % v`` for every ``v`` in a float64 array as the next
    words of ``canvas``, whose current chunk has ``len(x)`` lines."""
    x = np.asarray(x, dtype=np.float64)
    work = canvas.work
    flag = work("flag", bool)
    a = np.abs(x, out=work("a"))
    fast = np.greater_equal(a, _SAFE_MIN, out=work("fast", bool))
    fast &= np.less_equal(a, _SAFE_MAX, out=flag)
    np.copyto(a, 1.0, where=np.logical_not(fast, out=flag))
    tmp = work("tmp")
    e = work("e", np.int64)
    np.copyto(e, np.floor(np.log10(a, out=tmp), out=tmp), casting="unsafe")
    index = work("index", np.int64)
    hi_t, lo_t, n_int_t, lead_t, exponent_t = _exponent_tables(e, index)
    hi = _take(hi_t, index, work("hi"))
    # y = a * 10**(14 - e) = n0 + r, with n0 = rint(p) and p + err = a * hi exactly
    p = np.multiply(a, hi, out=work("p"))
    ah, al = _split(a, work("ah"), work("al"))
    bh, bl = _split(hi, work("bh"), work("bl"))
    err = np.multiply(ah, bh, out=work("err"))
    err -= p
    err += np.multiply(ah, bl, out=tmp)
    err += np.multiply(al, bh, out=tmp)
    err += np.multiply(al, bl, out=tmp)
    n0 = np.rint(p, out=work("n0"))
    r = np.subtract(p, n0, out=work("r"))
    r += err
    r += np.multiply(a, _take(lo_t, index, work("lo")), out=tmp)
    n = np.add(n0, np.greater(r, 0.5, out=flag), out=work("n"))
    n -= np.less(r, -0.5, out=flag)
    np.abs(r, out=tmp)
    tmp -= 0.5
    ok = np.greater(np.abs(tmp, out=tmp), _TIE_MARGIN, out=work("ok", bool))
    ok &= fast
    ok &= np.greater_equal(n, 1e14, out=flag)
    ok &= np.less(n, 1e15, out=flag)
    np.subtract(n0, 1e14, out=tmp)
    tmp += r
    ok &= np.greater_equal(tmp, 0, out=flag)

    words = []
    sign = np.signbit(x, out=work("sign", bool))
    sign &= ok
    if sign.any() or lead_t.any():
        words.append(_take(lead_t, index, canvas.word()))
        np.bitwise_or(words[0], _MINUS, out=words[0], where=sign)
    # str(10 * N): 15 digits and a pad byte that the fraction can move into
    np.copyto(n, 1e14, where=np.logical_not(ok, out=flag))
    quads = [work(f"quad{i}", np.int64) for i in range(4)]
    np.copyto(quads[0], n, casting="unsafe")
    quads[0] *= 10
    _quads(quads)
    first, second, shifted = work("first", _WORD), work("second", _WORD), work("shifted", _WORD)
    for word, (left, right) in ((first, quads[:2]), (second, quads[2:])):
        _take(_QUAD_WORDS, left, word)
        word |= np.left_shift(_take(_QUAD_WORDS, right, shifted), 32, out=shifted)
    last = _take(_QUAD_LAST, quads[0], work("last", np.int64))
    other = work("other", np.int64)
    for offset, quad in zip((4, 8, 12), quads[1:]):
        _take(_QUAD_LAST, quad, other)
        other += offset
        np.copyto(last, other, where=np.not_equal(quad, 0, out=flag))
    row = np.multiply(_take(n_int_t, index, other), _DIGITS, out=other)
    row += last
    mask = work("mask", _WORD)
    low = np.bitwise_and(first, _take(_MASKS[2], row, mask), out=work("low", _WORD))
    high = np.bitwise_and(second, _take(_MASKS[3], row, mask), out=work("high", _WORD))
    word = canvas.word()
    np.bitwise_and(first, _take(_MASKS[0], row, mask), out=word)
    word |= np.left_shift(low, 8, out=shifted)
    word |= _take(_MASKS[4], row, mask)
    words.append(word)
    word = canvas.word()
    np.bitwise_and(second, _take(_MASKS[1], row, mask), out=word)
    word |= np.left_shift(high, 8, out=shifted)
    word |= np.right_shift(low, 56, out=shifted)
    word |= _take(_MASKS[5], row, mask)
    words.append(word)
    if exponent_t.any():
        words.append(_take(exponent_t, index, canvas.word()))
    slow = np.flatnonzero(np.logical_not(ok, out=flag))
    if len(slow):
        _fallback(x, slow, words, canvas)


def format_d(x, canvas):
    """Write ``'%d' % v`` for every ``v`` in an int64 array as the next
    words of ``canvas``: a sign slot, then the digits."""
    x = np.asarray(x, dtype=np.int64)
    neg = x < 0
    mag = x.view(np.uint64).copy()
    np.negative(mag, out=mag, where=neg)      # wraps, so iinfo.min is exact
    width = len(str(int(mag.max())))
    n_quads = (width + 3) // 4
    # leading zeros, never the units digit, become NUL
    n_digits = np.ones(len(x), dtype=np.int64)
    for k in range(1, width):
        n_digits += mag >= 10 ** k
    quads = _quads([mag] + [np.empty_like(mag) for _ in range(n_quads - 1)])
    digits = np.stack([np.take(_QUADS, q.view(np.int64)) for q in quads], axis=1)
    digits = digits.view(np.uint8)[:, 4 * n_quads - width:]
    slots = np.zeros((len(x), 8 * (width // 8 + 1)), dtype=np.uint8)
    slots[:, 0] = np.where(neg, ord("-"), 0)
    slots[:, 1:width + 1] = np.where(np.arange(width) >= width - n_digits[:, None], digits, 0)
    for column in slots.view(_WORD).T:
        canvas.word()[...] = column
