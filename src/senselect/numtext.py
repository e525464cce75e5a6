"""Float blocks as text: the bytes of one '%.17g' per value, from numpy.

rows(A) gives the text of a 2-D float array, one matrix row per line with
values separated by one space, each value x exactly as '%.17g' % x writes
it.  It works on a fixed number of values at a time, so its memory stays
bounded whatever the block's size.

A value whose '%.17g' is fixed notation, decimal exponent X in [-4, 16], is
written from its 17 significant digits D, the integer nearest to
P = |x| 10^(16 - X).  The power is an exact double there (5^20 < 2^53), and
Dekker's exact product of two doubles gives P = hi + lo with no rounding,
hi an integer wherever P >= 2^53, so D, and whether P lies exactly halfway
between two integers, are known exactly.  Such a tie, which '%.17g' breaks
to even, and every value written in exponent form go through one '%'
operation per chunk; a zero is written from its cell.  Only double
arithmetic is used, so the bytes are the same on every platform.

fileio imports this module on its first problem write, so a command that
writes no problem file builds none of the tables below.
"""

import numpy as np

_CHUNK = 1 << 12  # values per encoded chunk; bounds the encoder's memory
_POW10 = 10.0 ** np.arange(21)  # 10^0 to 10^20, each exact
_SPLIT = 2.0**27 + 1  # Veltkamp's constant: splits a double into two 26-bit halves


def _halves(a: np.ndarray) -> tuple:
    """a = high + low exactly, each with at most 26 significant bits."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


_POW10_HI, _POW10_LO = _halves(_POW10)
_QUADS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # the digits of 0000 to 9999
# the place (0-3) of the last nonzero digit of a four-digit group, -99 for 0000
_LAST = np.where(_QUADS != 0, np.arange(4, dtype=np.int8), np.int8(-99)).max(axis=1)

# A cell holds one value and its separator in five 8-byte words: the sign,
# the "0.000" of a value below 1, digit 0 and a candidate '.' in the first
# word, from _LEAD; then digits 1-16, each with a candidate '.' after it,
# four to a word, from _PAIRS, with the separator in place of the last '.'.
# The bytes a value keeps depend only on its sign, X and the place of its
# last nonzero digit, so its mask is one row of a table.  A zero keeps the
# cell's "-0" or its "0"; a fallback string of length L, written from the
# cell's start, keeps L bytes.
_LEAD = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64)
_PAIRS = np.full((10**4, 8), ord("."), np.uint8)
_PAIRS[:, ::2] = _QUADS + ord("0")
_PAIRS = _PAIRS.view(np.uint64).ravel()  # "d.d.d.d." of 0000 to 9999
del _QUADS
_WIDTH = 40
_ZERO = 2 * 21 * 17  # the table rows of 0 and -0, then of the fallback strings
_FALLBACK = _ZERO + 2


def _masks() -> np.ndarray:
    """The bytes each kind of cell keeps: by sign, X and the place of the
    last nonzero digit, then for 0 and -0, then for fallback lengths 0-24."""
    neg = np.arange(2)[:, None, None, None]
    X = np.arange(-4, 17)[:, None, None]
    last = np.arange(17)[:, None]
    c = np.arange(_WIDTH)
    j = (c - 6) // 2  # the digit at, or before, column c >= 6
    keep = ((c == 0) & (neg == 1)) | ((c < 3) & (c > 0) & (X < 0))
    keep = keep | ((c >= 3) & (c < 6) & (c - 3 >= X + 4))
    keep = keep | ((c >= 6) & (c % 2 == 0) & (j <= np.maximum(X, last)))
    keep = keep | ((c >= 6) & (c % 2 == 1) & (j == X) & (last > X)) | (c == _WIDTH - 1)
    zero = (c == 1) | (c == _WIDTH - 1) | ((c == 0) & (np.arange(2)[:, None] == 1))
    fallback = (c < np.arange(25)[:, None]) | (c == _WIDTH - 1)
    return np.concatenate([keep.reshape(-1, _WIDTH), zero, fallback])


_MASKS = _masks()


def _significand(v: np.ndarray) -> tuple:
    """The decimal exponent X and 17 significant digits D of each value of
    v, and where they are what '%.17g' writes in fixed notation."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)  # %g's fixed notation, up to rounding at the ends
    a[~fast] = 1.0  # keeps the other values from warning
    X = np.floor(np.log10(a)).astype(np.intp)
    np.clip(X, -4, 16, out=X)
    m = 16 - X
    hi = a * _POW10[m]
    a_hi, a_lo = _halves(a)
    p_hi, p_lo = _POW10_HI[m], _POW10_LO[m]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo  # a 10^m - hi, exactly
    floor = np.floor(lo)
    frac = lo - floor
    whole = hi.astype(np.int64) + floor.astype(np.int64)  # the integer part of P where P >= 2^53
    D = whole + (frac > 0.5)
    # a wrong X from log10 or a D rounding up to 10^17 leaves [10^16, 10^17)
    fast &= (frac != 0.5) & (whole >= 10**16) & (D < 10**17)
    D[~fast] = 10**16
    return X, D, fast


def _encode(v: np.ndarray, first: int, cols: int) -> bytes:
    """The bytes of '%.17g' % x for each x in v, each followed by its
    separator: a newline after v[first], v[first + cols], ..., else a space."""
    k = v.size
    X, D, fast = _significand(v)
    hi = D // 10**8
    lo = (D - hi * 10**8).astype(np.uint32)  # 32-bit division is the fast one
    hi = hi.astype(np.uint32)
    top = hi // 10**4
    groups = np.empty((5, k), np.intp)
    groups[0] = top // 10**4
    groups[1] = top - groups[0] * 10**4
    groups[2] = hi - top * 10**4
    groups[3] = lo // 10**4
    groups[4] = lo - groups[3] * 10**4
    places = _LAST[groups[1:]] + np.arange(1, 17, 4, dtype=np.int8)[:, None]
    code = (np.signbit(v) * 21 + X + 4) * 17 + np.maximum(places.max(axis=0), 0)
    words = np.empty((k, 5), np.uint64)
    words[:, 0] = _LEAD[groups[0]]
    words[:, 1:] = _PAIRS[groups[1:]].T
    cells = words.view(np.uint8)
    cells[:, -1] = ord(" ")
    cells[first::cols, -1] = ord("\n")
    zero = v == 0
    code[zero] = _ZERO + np.signbit(v[zero])
    slow = np.flatnonzero(~fast & ~zero)
    if slow.size:
        text = ("%-24.17g " * slow.size) % tuple(v[slow].tolist())
        strings = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 25)
        cells[slow, :24] = strings[:, :24]
        code[slow] = _FALLBACK + np.argmax(strings == ord(" "), axis=1)
    cells *= _MASKS[code]  # a dropped byte becomes NUL, which no kept byte is
    return cells.tobytes().translate(None, b"\0")


def rows(A: np.ndarray):
    """The text of a 2-D block of doubles as ASCII bytes, in chunks of at
    most _CHUNK values: whole rows, or pieces of a row longer than that."""
    cols = A.shape[1]
    step = max(1, _CHUNK // cols)
    for r in range(0, A.shape[0], step):
        flat = A[r:r + step].ravel()
        for at in range(0, flat.size, _CHUNK):
            yield _encode(flat[at:at + _CHUNK], (cols - 1 - at) % cols, cols)
