"""CSV text of a table, formatted a whole column at a time in numpy.

A cell reads as Python's ``"%.17g" % v`` for a float (C's ``%.17g``), in full for an int and as given, in UTF-8,
for a string.  ``%.17g`` rounds to 17 significant digits, drops trailing zeros and a point with no digit after
it, and writes ``d.ddde±XX`` (at least two exponent digits) where the decimal exponent e lies outside
[-4, 17).

Floats take Adams's route ("Ryu revisited: printf floating point conversion", OOPSLA 2019): for finite x != 0,
e = floor(log10 |x|) and y = |x| 10^(16 - e) in long double, from a table of powers of ten parsed from strings;
D, y rounded to an integer, holds the 17 digits, read out in 4-digit groups through a table of ASCII words.  y
carries two roundings, of the power and of the product, each within eps/2 of y, so where y lies farther than
eps y from a half integer, D is the correctly rounded digit string.  Only a cell nearer a tie, outside
10^16 < y and D < 10^17 (e off by one, or rounding up to the next decade) or not finite goes through
``"%.17g" % v`` itself; on a platform whose long double is a double, every cell does.

Each cell fills a slot of whole words, its separator in its first byte and 0xFF, a byte UTF-8 text never holds,
as padding; the padding is deleted from each chunk of rows at once.
"""

from __future__ import annotations

from itertools import groupby
from pathlib import Path

import numpy as np

_ROWS = 1024  # rows formatted at a time: about 0.1 KiB of temporaries a float cell
_PAD = b"\xff"
_LD = np.longdouble
_BAND = float(np.finfo(_LD).eps) * (1 + 2**-10)  # the tie band over y: two roundings of eps/2, and float64 slack

_E = np.arange(308, -325, -1)  # row i of the float tables is decimal exponent e = 308 - i
_POW10 = np.fromstring("1e" + " 1e".join(map(str, (16 - _E).tolist())), _LD, sep=" ")  # 10^(16 - e), by strtold
_QUAD = np.empty((10, 10, 10, 10, 4), np.uint8)  # "0000".."9999" as little-endian uint32 words
for _place in range(4):
    _QUAD[..., _place] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - _place))
_QUAD = _QUAD.view(np.uint32).ravel()


def _word(text: bytes) -> int:
    """The int64 whose little-endian bytes are text, padded to 8."""
    return int.from_bytes(text.ljust(8, _PAD), "little", signed=True)


def _below(k):
    """Masks of the bytes below k of a 3-word little-endian string, shape (3, len(k))."""
    k = np.minimum(np.maximum(k - np.array([[0], [8], [16]]), 0), 8)
    return np.where(k == 8, -1, (1 << 8 * k) - 1)


def _layout():
    """Masks of the mantissa's 3 words by q * 18 + n, for q digits before the point and n significant digits: rows
    0-2 keep the digits before the point, 3-5 those after it, shifted a byte, and 6-8 write the point and pad the
    bytes past the last digit kept."""
    q = np.arange(18 * 18) // 18
    n = np.arange(18 * 18) - 18 * q
    below = _below(np.arange(19))
    above = -1 - below  # ~below, through loops the formatting pages in anyway
    point = above[:, q] & below[:, q + 1] & 0x2E2E2E2E2E2E2E2E
    point[0, q == 0] = 0xFF  # below 1 the prefix holds "0."
    return np.concatenate([below[:, q], above[:, q + 1], point | above[:, np.where(n > q, n + 1, q)]])


_LAYOUT = _layout()
_FIXED = (_E >= -4) & (_E < 17)
_BEFORE_POINT = np.where(_FIXED, np.maximum(_E + 1, 0), 1) * 18
_PREFIX = np.full(len(_E), _word(b""))  # separator and sign bytes, then "0.000" below 1
_PREFIX[308 + np.arange(1, 5)] = [_word(_PAD * 2 + b"0." + b"0" * zeros) for zeros in range(4)]


def _suffix():
    """The mantissa's third word by row: bytes 2-6 hold "e-XXX", "e+XX", or padding in fixed notation."""
    mag = np.maximum(_E, -_E)
    wide = mag >= 100
    digits = [np.where(wide, mag // 100, mag // 10 % 10), np.where(wide, mag // 10 % 10, mag % 10), mag % 10]
    text = _word(_PAD * 2 + b"e") & ~(0xFFFFFFFF << 24) | np.where(_E < 0, ord("-"), ord("+")) << 24
    text |= (48 + digits[0]) << 32 | (48 + digits[1]) << 40 | np.where(wide, 48 + digits[2], 0xFF) << 48
    return np.where(_FIXED, _word(b""), text)


_SUFFIX = _suffix()
_MINUS = (0xFF ^ ord("-")) << 8  # turns the prefix's sign byte into '-'
_ZEROS = 0x3030303030303030  # "0" in each digit byte
_BYTE = 0xFF << np.arange(0, 64, 8)  # each byte of a word


def _floats(v) -> np.ndarray:
    """The words of the float64 cells v (columns, rows), shape (4, columns, rows): per cell a prefix word
    (separator, sign, "0.000"), then the digits and point in two words and a third that ends in the exponent."""
    a = np.abs(v)
    finite = np.isfinite(a)
    if not finite.all():
        a[~finite] = 0.0
    zero = a == 0
    i = np.log10(a + zero)
    i = np.subtract(308, np.floor(i, out=i), out=i).astype(np.intp)
    y = a.astype(_LD)
    del a
    y *= _POW10.take(i)
    D = y.astype(np.int64)  # y >= 0, so y - D, exact, lies in [0, 1)
    frac = (y - D).astype(np.float64)
    y = y.astype(np.float64)
    ok = y > 1e16
    D += frac >= 0.5
    frac -= 0.5
    ok &= np.abs(frac, out=frac) > np.multiply(y, _BAND, out=y)
    del y, frac
    ok &= D < 10**17
    ok |= zero
    ok &= finite
    np.minimum(D, 10**17 - 1, out=D)
    # digits: D // 10 in two words of eight (4-digit groups through _QUAD), then D's last digit in a third
    W = np.empty((4,) + v.shape, np.int64)
    X = W[1:]
    t = np.floor_divide(D, 10, out=X[0])
    np.subtract(D, t * 10, out=X[2])
    X[2] += 48
    del D
    G = np.empty((4,) + v.shape, np.int64)  # groups: digits 0-3, 8-11, 4-7, 12-15
    np.floor_divide(t, 10**8, out=G[2])
    np.subtract(t, G[2] * 10**8, out=G[3])
    np.floor_divide(G[2:], 10**4, out=G[:2])
    G[2:] -= G[:2] * 10**4
    quads = X[:2].view(np.uint32).reshape(G[:2].shape + (2,))
    np.take(_QUAD, G[:2], out=quads[..., 0], mode="clip")
    np.take(_QUAD, G[2:], out=quads[..., 1], mode="clip")
    del G
    # significant digits, up to the last non-zero one: of X less '0', the bytes up to the top non-zero one. A
    # word of bit length L converts to a float64 with exponent field 1022 + L (a top byte of at most 9 cannot round
    # up into the next byte), so (field + 1) >> 3 is 127 + ceil(L / 8); a zero word reads 0
    width = (X[:2] ^ _ZEROS).astype(np.float64).view(np.int64)
    width += 1 << 52
    width >>= 55
    n = np.maximum(width[0], width[1] + 8)
    del width
    n[X[2] != 48] = 127 + 17
    n -= 127
    np.maximum(n, 0, out=n)
    # the mantissa, a word at a time from the last: digits before the point from X, the point, the digits after it
    # from X shifted a byte
    layout = _BEFORE_POINT.take(i) + n
    for j in (2, 1, 0):
        after = X[j] << 8
        if j:
            after |= X[j - 1] >> 56
        after &= _LAYOUT[3 + j].take(layout)
        X[j] &= _LAYOUT[j].take(layout)
        X[j] |= after
        X[j] |= _LAYOUT[6 + j].take(layout)
    del after, layout, n
    X[2] &= _SUFFIX.take(i)
    np.bitwise_xor(_PREFIX.take(i), np.signbit(v) * _MINUS, out=W[0])
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = (_PAD + b"%-31.17g") * bad.size % tuple(v.ravel()[bad].tolist())
        W.reshape(4, -1)[:, bad] = np.frombuffer(text.replace(b" ", _PAD), np.int64).reshape(-1, 4).T
    return W


def _ints(v) -> np.ndarray:
    """The words of the int64 cells v, shape (words, len(v)): per cell a half word of separator and sign, then the
    digits in groups of four, each in a half word, their leading zeros padded."""
    mag = np.maximum(v, -v)
    bad = np.flatnonzero(mag < 0)  # -2^63, which has no positive int64
    mag[bad] = 0
    groups = 5 if bad.size else (len(str(mag.max())) + 3) // 4 | 1  # odd: with the sign, whole words
    out = np.where(v < 0, _word(_PAD * 3 + b"-"), _word(b""))[None].repeat((groups + 1) // 2, axis=0)
    halves = out.view(np.uint32)
    rest = mag
    for h in range(groups, 0, -1):
        top = rest // 10**4
        np.take(_QUAD, rest - top * 10**4, out=halves[h // 2, h % 2::2], mode="clip")
        rest = top
    for p in range(4 * groups - 1):  # the field's digit p, in byte 4 + p, is padding while mag < 10^(4 groups - 1 - p)
        out[(4 + p) // 8] |= (mag < 10 ** (4 * groups - 1 - p)) * _BYTE[(4 + p) % 8]
    if bad.size:
        text = (_PAD + b"%-23d") * bad.size % tuple(v[bad].tolist())
        out[:, bad] = np.frombuffer(text.replace(b" ", _PAD), np.int64).reshape(bad.size, -1)[:, :len(out)].T
    return out


def _text(column) -> np.ndarray:
    """The words of a string column, shape (words, len(column)): each after its separator byte, in UTF-8, padded.

    Each distinct string is encoded once, and its words are gathered for every cell that holds it."""
    distinct, which = np.unique(column, return_inverse=True)
    encoded = [s.encode() for s in distinct.tolist()]
    words = (max(map(len, encoded)) + 8) // 8
    text = b"".join((_PAD + s).ljust(8 * words, _PAD) for s in encoded)
    return np.frombuffer(text, np.int64).reshape(len(encoded), words)[which].T


def _chunk(columns) -> bytes:
    """The padded text of the rows of equal-length columns, each row after a newline."""
    parts, widths = [], []  # each part's words a cell, transposed; each column's slot, in words
    for kind, run in groupby(columns, key=lambda column: column.dtype.kind):
        run = list(run)
        if kind == "f":
            parts.append(_floats(np.array(run, np.float64)))
            widths += [4] * len(run)
            continue
        for column in run:
            parts.append(_ints(column.astype(np.int64)) if kind == "i" else _text(column))
            widths.append(parts[-1].nbytes // 8 // len(column))
    rows = len(columns[0])
    block = np.empty((rows, sum(widths)), np.int64)  # made last, when the formatting's temporaries are gone
    start = 0
    for part in parts:
        words = part.nbytes // 8 // rows
        block[:, start:start + words].reshape(part.T.shape)[...] = part.T
        start += words
    text = block.view(np.uint8)
    cells = 8 * np.cumsum([0] + widths[:-1])
    text[:, cells[0]] = ord("\n")
    text[:, cells[1:]] = ord(",")
    return block.tobytes()


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write columns (arrays or sequences of floats, ints or strings) under header, a row a line; the table has
    as many rows as its shortest column."""
    columns = [np.asarray(column) for column in columns]
    for column in columns:
        if column.dtype.kind not in "fiU":
            raise KeyError(column.dtype.kind)
    rows = min(map(len, columns), default=0)
    with path.open("wb") as f:
        f.write(",".join(header).encode())
        for first in range(0, rows, _ROWS):
            last = min(first + _ROWS, rows)
            f.write(_chunk([column[first:last] for column in columns]).translate(None, _PAD))
        f.write(b"\n")
