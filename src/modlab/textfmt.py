"""Vectorised ``%.15g`` and ``%d`` formatting of numpy columns.

Each formatter returns a list of 8-byte word arrays. Row ``i`` of the
words, read word after word, holds the ASCII bytes of ``'%.15g' % x[i]``
(or ``'%d' % x[i]``) in fixed slots, with NUL bytes in the slots the value
does not use. ``join_rows`` lays the fields of a row side by side and
deletes every NUL with one ``bytes.translate``, which leaves exactly the
bytes of the per-value ``%``.

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
    digits per element in memory order whatever the byte order; and the
    index, within its four digits, of the last nonzero digit of 1..9999."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"),
                          dtype=np.uint16)
    quads = np.empty((100, 100, 2), dtype=np.uint16)
    quads[:, :, 0] = pairs[:, None]
    quads[:, :, 1] = pairs
    last = np.full(10_000, 3)
    last[::10], last[::100], last[::1000] = 2, 1, 0
    return quads.view(np.uint32).ravel(), last


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


_QUADS, _QUAD_LAST = _quad_tables()
_MASKS = _digit_masks()
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


def _exponent_tables(e):
    """The ``_exponent_entry`` fields for an int array ``e``: ``hi`` and
    ``lo`` as float64, the number of integer-part digits as int64, the
    words as uint64."""
    e_min = int(e.min())
    present = np.zeros(int(e.max()) - e_min + 1, dtype=bool)
    present[e - e_min] = True
    floats = np.zeros((len(present), 2))
    ints = np.zeros((len(present), 3), dtype=np.uint64)
    for i in np.flatnonzero(present).tolist():
        hi, lo, *words = _exponent_entry(i + e_min)
        floats[i] = hi, lo
        ints[i] = words
    index = e - e_min
    hi, lo = np.take(floats, index, axis=0).T
    n_int, lead, exponent = np.take(ints, index, axis=0).T
    return hi, lo, n_int.view(np.int64), lead, exponent


def _split(a):
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _quads(values, n_quads):
    """Non-negative ints split into ``n_quads`` groups of four decimal
    digits, most significant first."""
    quads = []
    for _ in range(n_quads - 1):
        high = values // 10_000
        quads.append(values - high * 10_000)
        values = high
    quads.append(values)
    return quads[::-1]


def _fallback(x, rows, words):
    """Write ``'%.15g' % v`` for ``x[rows]`` over ``words``, once per
    distinct value, adding NUL words at the end when a text needs them."""
    bits, inverse = np.unique(x[rows].view(np.uint64), return_inverse=True)
    texts = [("%.15g" % v).encode("ascii") for v in bits.view(np.float64).tolist()]
    while 8 * len(words) < max(map(len, texts)):
        words.append(np.zeros(len(x), dtype=_WORD))
    width = 8 * len(words)
    table = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), dtype=_WORD)
    for word, column in zip(words, table.reshape(len(texts), -1)[inverse.ravel()].T):
        word[rows] = column


def format_g15(x):
    """``'%.15g' % v`` for every ``v`` in a float64 array, as a list of word
    arrays whose NUL-padded bytes, word after word, spell it."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= _SAFE_MIN) & (a <= _SAFE_MAX)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo, n_int, lead, exponent = _exponent_tables(e)
    # y = a * 10**(14 - e) = n0 + r, with n0 = rint(p) and p + err = a * hi exactly
    p = a * hi
    ah, al = _split(a)
    bh, bl = _split(hi)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    n0 = np.rint(p)
    r = (p - n0) + err + a * lo
    n = n0 + (r > 0.5) - (r < -0.5)
    ok = (fast & (np.abs(np.abs(r) - 0.5) > _TIE_MARGIN)
          & (n >= 1e14) & (n < 1e15) & ((n0 - 1e14) + r >= 0))

    # str(10 * N): 15 digits and a pad byte that the fraction can move into
    quads = _quads(np.where(ok, n, 1e14).astype(np.int64) * 10, 4)
    chars = np.empty((2, len(x), 2), dtype=np.uint32)
    for i, quad in enumerate(quads):
        chars[i // 2, :, i % 2] = np.take(_QUADS, quad)
    first, second = chars.view(_WORD)[..., 0]
    last = _QUAD_LAST[quads[0]]
    for offset, quad in zip((4, 8, 12), quads[1:]):
        last = np.where(quad != 0, _QUAD_LAST[quad] + offset, last)
    masks = np.take(_MASKS, n_int * _DIGITS + last, axis=0)
    low, high = first & masks[:, 2], second & masks[:, 3]
    words = [(first & masks[:, 0]) | (low << 8) | masks[:, 4],
             (second & masks[:, 1]) | (high << 8) | (low >> 56) | masks[:, 5]]
    sign = np.signbit(x) & ok
    if sign.any() or lead.any():
        words.insert(0, np.where(sign, _MINUS, 0) | lead)
    if exponent.any():
        words.append(exponent)
    slow = np.flatnonzero(~ok)
    if len(slow):
        _fallback(x, slow, words)
    return words


def format_d(x):
    """``'%d' % v`` for every ``v`` in an int64 array, as a list of word
    arrays whose NUL-padded bytes, word after word, spell it: a sign slot,
    then the digits."""
    x = np.asarray(x, dtype=np.int64)
    neg = x < 0
    mag = x.view(np.uint64).copy()
    np.negative(mag, out=mag, where=neg)      # wraps, so iinfo.min is exact
    width = len(str(int(mag.max())))
    n_quads = (width + 3) // 4
    digits = np.stack([np.take(_QUADS, q) for q in _quads(mag, n_quads)], axis=1)
    digits = digits.view(np.uint8)[:, 4 * n_quads - width:]
    # leading zeros, never the units digit, become NUL
    n_digits = np.ones(len(x), dtype=np.int64)
    for k in range(1, width):
        n_digits += mag >= 10 ** k
    slots = np.zeros((len(x), 8 * (width // 8 + 1)), dtype=np.uint8)
    slots[:, 0] = np.where(neg, ord("-"), 0)
    slots[:, 1:width + 1] = np.where(np.arange(width) >= width - n_digits[:, None], digits, 0)
    return list(slots.view(_WORD).T)


def join_rows(fields, sep, n_rows):
    """Rows of ``n_rows`` lines, each the fields joined by ``sep`` and ended by LF.

    A field is a word list from ``format_g15``/``format_d`` or ``bytes``
    shared by every row. Returns the rows as bytes.
    """
    words, shared = [], b""
    for i, field in enumerate(fields):
        if isinstance(field, bytes):
            shared += field
        else:
            if shared:
                words.extend(_words(shared))
            words.extend(field)
            shared = b""
        shared += sep.encode("ascii") if i < len(fields) - 1 else b"\n"
    words.extend(_words(shared))
    # word-major, so that each word is one contiguous write; tobytes of the
    # transpose lays the rows out
    canvas = np.empty((len(words), n_rows), dtype=_WORD)
    for j, word in enumerate(words):
        canvas[j] = word
    return canvas.T.tobytes().translate(None, b"\0")
