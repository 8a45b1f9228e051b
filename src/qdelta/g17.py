"""The exact text of '%.17g' % x for every cell of a float64 array, in numpy.

Formatter(rows, cols).text(cells) returns the same characters as joining
'%.17g' % x over a (rows, cols) block, cells separated by "," and rows ended
by "\\n", and allocates one workspace per formatter, reused for every block.
Both CSV writers use it: cli.rows_to_csv (sweep) and cli.scan_to_csv (scan).

Digits come from integer arithmetic (Loitsch, PLDI 2010; Adams, OOPSLA 2019).
A normal x is f 2^e with f a 64-bit integer whose top bit is set. With X the
decimal exponent, from floor(log10|x|), the scaled value V = |x| 10^(16-X)
rounds to the 17 digits, an integer in [10^16, 10^17). 10^p is kept as a
64-bit significand c_p rounded to nearest and a binary exponent, so f c_p is
an exact 128-bit product, formed from 32-bit halves in uint64, and V's integer
part and 64 bits of its fraction are two shifts of it.

Where 5^p < 2^64, for p from 0 to 27 (X from -11 to 16, nearly every sweep
cell and scan energy), 10^p = 5^p 2^p fits c_p without rounding, so f c_p
holds V exactly: V is x's 53-bit significand times 5^p, fewer than 2^117
units of its last bit, and as V >= 10^16 > 2^53 that unit is 2^-63 or more,
so V's fraction is within the 64 bits kept. There V is rounded exactly,
and only an exact tie goes to CPython's '%.17g', which rounds it half to
even. For the other p, c_p's relative error of at most 2^-64 moves V by at most
10^17 2^-64 < 0.0055 of a unit of the 17th digit, so V rounds exactly as
|x| 10^(16-X) does unless its fraction lies within 2^-7 of 1/2: those cells,
about 1.6 % of them, ties among them, go to CPython. So do the cells whose
V's integer part lies outside [10^16, 10^17 - 1), where X was one off or the
17 digits could round up to 10^17, and the zeros, subnormals, infinities
and nans.

Each cell's text goes into one 32-byte record that has a place for every
character C's %g can print, and a mask zeroes the bytes the cell does not use:

    byte   0      "-"
    bytes  1- 5   "0.000", the prefix of fixed notation with X < 0
    byte   7      the first digit
    bytes  8-24   the other 16 digits, with "." inserted after the integer
                  digits (fixed notation, X >= 0) or the first digit
                  (exponent notation), so 17 slots
    bytes 25-29   "e", the exponent's sign and its 2 or 3 digits
    byte  31      the separator

Fixed notation serves -4 <= X < 17 and exponent notation the rest, trailing
zeros of the 17 digits are dropped, and the point with them when no fraction
digit is left. The digits are made eight at a time by multiply-shift steps on
uint64 words, and the text is the records less their zero bytes.
"""

from __future__ import annotations

import functools

from ._lazy import np

# 10^p is tabled for p in [_P_MIN, _P_MAX], and the layout for X in
# [-_X_SPAN, _X_SPAN]: a normal float has X in [-308, 308], and p = 16 - X.
_P_MIN, _P_MAX = -300, 345
_X_SPAN = 330

_M32 = np.uint64(0xFFFF_FFFF)
_HALF = 1 << 63
_NEAR = 1 << 57          # the window of fractions 2^-7 from 1/2 where 10^p is inexact
_ZEROS = 0x3030_3030_3030_3030
# Record word 0: "-", "0.000", an unused byte and, in byte 7, the first digit.
_WORD0 = int.from_bytes(b"-0.000\0\0", "little")

# Columns of the per-X layout table.
_NLOW1, _NLOW2, _DOT1, _DOT2, _WORD3, _KEY = range(6)


def _significand(p: int) -> tuple[int, int]:
    """(c, k) with c in [2^63, 2^64) the nearest integer to 10^p 2^-k."""
    if p >= 0:
        n = 10 ** p
        k = n.bit_length() - 64
        c = n << -k if k <= 0 else (n + (1 << (k - 1))) >> k
    else:
        d = 10 ** -p
        k = -(63 + d.bit_length())
        c = ((1 << -k) + d // 2) // d
    if c == 1 << 64:
        c, k = c >> 1, k + 1
    return c, k


def _category(x: int) -> int:
    """The layout of decimal exponent x: x + 4 for fixed notation, 21 and 22
    for exponent notation with 2 and 3 exponent digits."""
    return x + 4 if -4 <= x < 17 else 21 + (abs(x) >= 100)


def _x_row(x: int) -> list[int]:
    """For decimal exponent x: the masks and dots that insert the point into
    the words of digits 1..16, record word 3 (the exponent, and the point when
    it falls on byte 24), and its mask table row less one."""
    category = _category(x)
    # b: the point's byte in digits 1..16 and byte 24, after the integer digits
    # or the first digit; 17, none, for fixed notation with x < 0.
    b = 17 if category < 4 else x if category < 21 else 0
    low1 = (1 << 8 * min(b, 8)) - 1
    low2 = (1 << 8 * min(max(b - 8, 0), 8)) - 1
    dot1 = ord(".") << 8 * b if b < 8 else 0
    dot2 = ord(".") << 8 * (b - 8) if 8 <= b < 16 else 0
    word3 = ord(".") if b == 16 else 0      # byte 24, the spill byte
    if category >= 21:
        exp = b"e" + (b"-" if x < 0 else b"+") + b"%02d" % abs(x)
        word3 |= int.from_bytes(exp, "little") << 8
    mask64 = (1 << 64) - 1
    return [~low1 & mask64, ~low2 & mask64, dot1, dot2, word3, (17 * category - 1) & mask64]


def _mask_row(category: int, k: int) -> np.ndarray:
    """The kept bytes of a record of that layout category whose digits end
    at digit k, the last nonzero one; byte 0, the sign, is set per cell."""
    row = np.zeros(32, dtype=np.uint8)
    if category < 4:                        # fixed notation, X < 0: "0." and -X-1 zeros
        row[1:3 + 3 - category] = 0xFF
        length = k
    else:                                   # the integer digits, and the point if a digit follows
        whole = category - 3 if category < 21 else 1
        length = k + 1 if k > whole else whole
    row[7:7 + length] = 0xFF
    if category >= 21:
        row[25:25 + 2 + category - 19] = 0xFF
    row[31] = 0xFF
    return row


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The significands c_p, shift bases 1022 - k_p (mod 2^64) and near-1/2
    windows of 10^p, the digit values of each 4-digit group (the most
    significant in the lowest byte), the per-X layout rows and the mask rows,
    built once, on first use. The window is 0 where 5^p < 2^64: there c_p 2^k_p
    is 10^p."""
    powers = [_significand(p) for p in range(_P_MIN, _P_MAX + 1)]
    sig = np.array([c for c, _ in powers], dtype=np.uint64)
    shift = np.array([(1022 - k) % (1 << 64) for _, k in powers], dtype=np.uint64)
    window = np.array([0 if 0 <= p and 5 ** p < 1 << 64 else _NEAR
                       for p in range(_P_MIN, _P_MAX + 1)], dtype=np.uint64)
    group = np.arange(10_000, dtype=np.uint64)
    quads = sum(group // 10 ** (3 - i) % 10 << 8 * i for i in range(4))
    layout = np.array([_x_row(x) for x in range(-_X_SPAN, _X_SPAN + 1)], dtype=np.uint64).T.copy()
    masks = np.array([_mask_row(cat, k) for cat in range(23)
                      for k in range(1, 18)]).view(np.uint64)
    for table in (sig, shift, window, quads, layout, masks):
        table.flags.writeable = False
    return sig, shift, window, quads, layout, masks


def _digits8(n: np.ndarray, t: np.ndarray, r: np.ndarray) -> None:
    """Replace each n < 10^8 by its 8 decimal digit values, one per byte, the
    most significant in the lowest byte: the high and low 4 digits, split by a
    multiply and shift that is exact below 10^8, each looked up in the table
    of 4-digit groups; t and r are scratch of n's shape."""
    quads = _tables()[3]
    np.multiply(n, 109951163, out=t)
    t >>= 40                                     # n // 10^4
    np.multiply(t, 10_000, out=r)
    np.subtract(n, r, out=r)                     # n % 10^4
    quads.take(t.view(np.intp), out=n, mode="clip")   # intp indices: take copies no others
    quads.take(r.view(np.intp), out=t, mode="clip")
    t <<= 32
    n |= t


def _scaled(bits: np.ndarray, pidx: np.ndarray, u: np.ndarray, near: np.ndarray,
            off: np.ndarray) -> np.ndarray:
    """V = |x| 10^p rounded to an integer, for the normal floats x whose bits
    are given and p at index pidx of the power table. near is set where V's
    fraction lies within p's window of 1/2: 2^-7, or only at 1/2 itself where
    0 <= p <= 27, since there f c_p and its fraction are exact. off is set
    where V's integer part lies outside [10^16, 10^17 - 1); u is scratch of 9
    rows."""
    sig, shift, window = _tables()[:3]
    f, c, a, b, ll, hi, lo, t, d = u
    np.left_shift(bits, 11, out=f)
    f |= np.uint64(_HALF)                        # the implicit bit, now bit 63
    sig.take(pidx, out=c, mode="clip")
    # The 128-bit product hi:lo = f c, from 32-bit halves.
    np.bitwise_and(f, _M32, out=a)
    np.bitwise_and(c, _M32, out=b)
    np.multiply(a, b, out=ll)                    # f_lo c_lo
    c >>= 32
    np.multiply(a, c, out=lo)                    # f_lo c_hi
    f >>= 32
    np.multiply(f, c, out=hi)                    # f_hi c_hi
    np.multiply(f, b, out=a)                     # f_hi c_lo
    np.right_shift(ll, 32, out=t)
    np.bitwise_and(lo, _M32, out=b)
    t += b
    np.bitwise_and(a, _M32, out=b)
    t += b                                       # the middle column, below 3 2^32
    lo >>= 32
    hi += lo
    a >>= 32
    hi += a
    np.right_shift(t, 32, out=a)
    hi += a
    np.left_shift(t, 32, out=lo)
    ll &= _M32
    lo |= ll
    # V = hi:lo / 2^(64 + s), s = 1022 - k_p - the biased binary exponent, in [2, 15].
    shift.take(pidx, out=t, mode="clip")
    np.right_shift(bits, 52, out=a)
    a &= 0x7FF
    t -= a
    np.right_shift(hi, t, out=d)                 # V's integer part
    np.subtract(d, np.uint64(10 ** 16), out=a)
    np.greater_equal(a, np.uint64(9 * 10 ** 16 - 1), out=off)
    np.subtract(64, t, out=a)
    hi <<= a
    lo >>= t
    hi |= lo                                     # V's fraction, times 2^64
    # |fraction - 1/2| <= w, as fraction - 1/2 + w <= 2 w modulo 2^64.
    window.take(pidx, out=t, mode="clip")
    np.add(hi, t, out=a)
    a -= np.uint64(_HALF)
    t += t
    np.less_equal(a, t, out=near)
    hi >>= 63
    d += hi                                      # rounded to nearest
    return d


class Formatter:
    """Formats blocks of up to rows x cols float64 cells as '%.17g' text;
    fallbacks counts the cells of the last call formatted by CPython."""

    def __init__(self, rows: int, cols: int) -> None:
        n = rows * cols
        self.fallbacks = 0
        self._u = np.empty(9 * n, dtype=np.uint64)
        self._pairs = np.empty((3, 2 * n), dtype=np.uint64)
        self._float = np.empty((2, n))
        self._exp = np.empty((3, n), dtype=np.int32)
        self._index = np.empty((2, n), dtype=np.intp)
        self._flags = np.empty((3, n), dtype=bool)
        self._record = np.empty((n, 4), dtype=np.uint64)
        self._mask = np.empty((n, 4), dtype=np.uint64)
        # Record byte 31, the separator: "," after each cell, "\n" after a row's last.
        sep = np.full((rows, cols), ord(",") << 56, dtype=np.uint64)
        sep[:, -1] = ord("\n") << 56
        self._sep = sep.reshape(-1)

    def text(self, cells: np.ndarray) -> str:
        """The '%.17g' text of each cell of the float64 array cells, of shape
        (m, cols) with m at most rows, each followed by its separator."""
        x = np.ascontiguousarray(cells, dtype=np.float64).reshape(-1)
        n = x.size
        bits = x.view(np.uint64)
        u = self._u[:9 * n].reshape(9, n)       # contiguous rows, as take's out needs
        fallback, near, off = self._flags[:, :n]
        xi, pidx = self._index[:, :n]
        lg = self._float[0, :n]
        # Zeros, subnormals, infinities and nans are left to CPython: |x|'s
        # bits less those of 2^-1022 lie outside [0, those of inf less them).
        np.abs(x, out=lg)
        np.subtract(lg.view(np.uint64), np.uint64(1 << 52), out=u[0])
        np.greater_equal(u[0], np.uint64(0x7FE << 52), out=fallback)
        # X = floor(log10|x|), 0 for the cells left to CPython.
        np.copyto(lg, 1.0, where=fallback)
        np.log10(lg, out=lg)
        np.floor(lg, out=lg)
        np.copyto(xi, lg, casting="unsafe")
        np.subtract(16 - _P_MIN, xi, out=pidx)
        digits = _scaled(bits, pidx, u, near, off)
        fallback |= near
        fallback |= off
        return self._render(x, digits, xi, pidx, fallback, u)

    def _render(self, x, digits, xi, key, fallback, u) -> str:
        """Lay out, mask, compact and decode the records of the digits; key and
        the 9 rows of u are scratch."""
        n = x.size
        rec, mask = self._record[:n], self._mask[:n]
        w, t, r = (row[:2 * n] for row in self._pairs)
        # The first digit, in record byte 7, and the words of the other 16.
        np.floor_divide(digits, np.uint64(10 ** 16), out=u[0])
        np.multiply(u[0], np.uint64(10 ** 16), out=u[1])
        np.subtract(digits, u[1], out=u[1])
        w1, w2 = w.reshape(2, n)
        np.floor_divide(u[1], np.uint64(10 ** 8), out=w1)
        np.multiply(w1, np.uint64(10 ** 8), out=w2)
        np.subtract(u[1], w2, out=w2)
        u[0] += np.uint64(0x30)
        u[0] <<= 56
        np.bitwise_or(u[0], np.uint64(_WORD0), out=rec[:, 0])
        _digits8(w, t, r)
        # k, the digits up to the last nonzero one: each word holds
        # (frexp exponent + 7) // 8 of them.
        e = self._exp[:, :n]
        np.frexp(w.reshape(2, n), out=(self._float[:, :n], e[:2]))
        e[:2] += 7
        e[:2] >>= 3
        np.minimum(e[1], 1, out=e[2])
        e[1] += 9
        e[1] *= e[2]
        e[0] += 1
        np.maximum(e[0], e[1], out=key)
        w |= np.uint64(_ZEROS)
        # The layout of each cell's X.
        layout, masks = _tables()[4:]
        xi += _X_SPAN
        lay = u[:len(layout)]
        layout.take(xi, axis=1, out=lay, mode="clip")
        # Insert the point: the bytes from it on move up one, the last into byte 24.
        high, carry = t[:n], t[n:]
        np.bitwise_and(w1, lay[_NLOW1], out=high)
        w1 ^= high
        w1 |= lay[_DOT1]
        np.right_shift(high, 56, out=carry)
        high <<= 8
        np.bitwise_or(w1, high, out=rec[:, 1])
        np.bitwise_and(w2, lay[_NLOW2], out=high)
        w2 ^= high
        w2 |= lay[_DOT2]
        w2 |= carry
        np.right_shift(high, 56, out=rec[:, 3])
        high <<= 8
        np.bitwise_or(w2, high, out=rec[:, 2])
        rec[:, 3] |= lay[_WORD3]
        rec[:, 3] |= self._sep[:n]
        key += lay[_KEY].view(np.int64)
        masks.take(key, axis=0, out=mask, mode="clip")
        np.right_shift(x.view(np.uint64), 63, out=u[0])
        u[0] *= np.uint64(0xFF)
        mask[:, 0] |= u[0]                       # the sign
        rec &= mask
        # CPython's text for the fallback cells, written through a memoryview.
        flags = fallback.tobytes()
        self.fallbacks = flags.count(1)
        cell = flags.find(1)
        if cell >= 0:
            values, rec8 = memoryview(x), memoryview(rec).cast("B")
            while cell >= 0:
                rec8[32 * cell:32 * cell + 31] = (b"%.17g" % values[cell]).ljust(31, b"\0")
                cell = flags.find(1, cell + 1)
        # The records less their zero bytes. No step makes a numpy array per
        # block: numpy keeps freed ones below 1 KiB for reuse, and those, left
        # where freed blocks of stdout's growing buffer were, split that memory
        # for the next command's.
        return rec.tobytes().translate(None, b"\0").decode("ascii")
