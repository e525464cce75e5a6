"""Float blocks as text: the bytes of one '%.17g' per value, from numpy.

rows(A) gives the text of a 2-D float array, one matrix row per line with
values separated by one space, each value x exactly as '%.17g' % x writes
it.  It works on a fixed number of values at a time, so its memory stays
bounded whatever the block's size.

A value whose '%.17g' is fixed notation, decimal exponent X in [-4, 16], is
written from its 17 significant digits D = round(|x| 10^(16 - X)), taken
from one long double product.  The power is exact there (5^20 < 2^64), so
the product is within 10^17 eps / 2 of the exact one, and D is kept only
where the fraction lies farther than that from 1/2.  Every other value goes
through one '%' operation per chunk.  Where long double is no wider than a
double, the band exceeds 1/2, so every value takes that path, and the bytes
are the same on every platform.

fileio imports this module on its first problem write, so a command that
writes no problem file builds none of the tables below.
"""

import numpy as np

_CHUNK = 1 << 12  # values per encoded chunk; bounds the encoder's memory
_BAND = 1e17 * float(np.finfo(np.longdouble).eps) / 2
_POW10 = np.cumprod(np.full(21, 10, np.longdouble)) / 10  # 10^0 to 10^20, exact
_QUADS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # the digits of 0000 to 9999
_DIGITS = np.ascontiguousarray(_QUADS + ord("0")).view(np.uint32).ravel()  # as 4 ASCII bytes
# the place (0-3) of the last nonzero digit of a four-digit group, -99 for 0000
_LAST = np.where(_QUADS != 0, np.arange(4, dtype=np.int8), np.int8(-99)).max(axis=1)

# A cell holds one value and its separator: the sign, the "0.000" of a
# value below 1, digit j at column 6 + 2j with a candidate '.' after it, and
# the separator last.  The bytes a value keeps depend only on its sign, X and
# the place of its last nonzero digit, so its mask is one row of a table.
# A zero keeps the cell's "-0" or its "0"; a fallback string of length L,
# written from the cell's start, keeps L bytes.
_CELL = np.frombuffer(b"-0.000" + b"d." * 16 + b"d ", np.uint8)
_WIDTH = _CELL.size
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
    y = a.astype(np.longdouble) * _POW10[16 - X]
    whole = y.astype(np.int64)
    frac = (y - whole).astype(float)
    D = whole + (frac > 0.5)  # ties lie in the band
    # a wrong X from log10 or a D rounding up to 10^17 leaves [10^16, 10^17)
    fast &= (np.abs(frac - 0.5) > _BAND) & (whole >= 10**16) & (D < 10**17)
    D[~fast] = 10**16
    return X, D, fast


def _encode(v: np.ndarray, seps: np.ndarray) -> bytes:
    """The bytes of '%.17g' % x for each x in v, each followed by its separator."""
    k = v.size
    X, D, fast = _significand(v)
    hi = D // 10**8
    lo = (D - hi * 10**8).astype(np.uint32)  # 32-bit division is the fast one
    hi = hi.astype(np.uint32)
    top = hi // 10**4
    groups = np.empty((5, k), np.uint32)
    groups[0] = top // 10**4
    groups[1] = top - groups[0] * 10**4
    groups[2] = hi - top * 10**4
    groups[3] = lo // 10**4
    groups[4] = lo - groups[3] * 10**4
    places = _LAST[groups[1:]] + np.arange(1, 17, 4, dtype=np.int8)[:, None]
    last = np.maximum(np.maximum(places[0], places[1]), np.maximum(places[2], places[3]))
    code = (np.signbit(v) * 21 + X + 4) * 17 + np.maximum(last, 0)
    cells = np.tile(_CELL, (k, 1))
    cells[:, 6:39:2] = _DIGITS[np.ascontiguousarray(groups.T, np.intp)].view(np.uint8)[:, 3:]
    cells[:, -1] = seps
    zero = v == 0
    code[zero] = _ZERO + np.signbit(v[zero])
    slow = np.flatnonzero(~fast & ~zero)
    if slow.size:
        text = ("%-24.17g " * slow.size) % tuple(v[slow].tolist())
        strings = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 25)
        cells[slow, :24] = strings[:, :24]
        code[slow] = _FALLBACK + np.argmax(strings == ord(" "), axis=1)
    return np.compress(np.take(_MASKS, code, axis=0).ravel(), cells).tobytes()


def rows(A: np.ndarray):
    """The text of a 2-D block as ASCII bytes, in chunks of at most _CHUNK
    values: whole rows, or pieces of a row longer than that."""
    cols = A.shape[1]
    step = max(1, _CHUNK // cols)
    for r in range(0, A.shape[0], step):
        flat = A[r:r + step].ravel()
        for at in range(0, flat.size, _CHUNK):
            v = flat[at:at + _CHUNK]
            ends = np.arange(at + 1, at + v.size + 1) % cols == 0
            yield _encode(v, np.where(ends, ord("\n"), ord(" ")))
