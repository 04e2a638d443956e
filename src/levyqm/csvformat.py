"""CSV text of float64 blocks: the bytes of ``"%.17g" % v``, in numpy.

``format_rows`` scales each |v| by a power of ten held as a double-double,
takes Dekker's exact product (Dekker 1971) to get the 17-digit integer,
and lays the digits out by C's %g rules in fixed-width byte records that
are compacted once.  The few values it cannot certify (nan, inf, digits
within 1e-9 of a tie, a decimal exponent log10 misjudged) are formatted
one by one with ``%``.  The tables are built on first use, not at import.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

# A finite nonzero |v| has decimal exponent E = floor(log10|v|) in
# [-324, 308], which log10 may misjudge by one near a power of ten, and
# 10^k, k = 16 - E, scales it to its 17-digit integer.  Where 10^k or |v|
# would leave the range in which Dekker's product is exact, the table holds
# 10^k 2^-600 (k > 297) or 10^k 2^600 (k < -274) and |v| is first scaled,
# exactly, by the inverse power of two.
_K_MIN, _K_MAX = -293, 341
_UNSCALED = range(-274, 298)
_TWO_600 = 2 ** 600
_SPLIT = 134217729.0    # 2^27 + 1, Veltkamp's splitter for Dekker's product
# one value's text record, in bytes: 1 the sign; 2-6 the "0." and zeros of
# -4 <= E < 0, ending at 6; the digits d_0..d_s before the point at 6..6+s;
# the point at 7+s; the digits d_i after it at 7+i; 24-28 the exponent; 29
# the separator.  Unused bytes are 0 and are dropped when the records join.
_RECORD = 32
# divisors cutting the 17-digit integer into groups of 1, 4, 4, 4, 4 digits
_GROUPS = 10 ** np.arange(16, -1, -4, dtype=np.int64)[:, None]


@functools.cache
def _tables():
    """The kernel's tables, built on first use from exact integers.

    By the index k - _K_MIN: ``scale``, the rows hi, lo (hi + lo is the
    table's 10^k to about 2^-106), Veltkamp's halves of hi and the power
    of two that scales |v|; ``shift``, s + 1, where s is the index of the
    last digit before the point (E in fixed notation, 0 in e-notation, -1
    for -4 <= E < 0); ``fixed``, the record's leading "0." and zeros or
    its exponent.  By a 4-digit group: ``text``, its ASCII digits, and
    ``zeros``, its trailing zeros.  By s + 1: ``point``, the record's
    point, and ``head``, the mask of the digits before it; by (s + 1,
    significant digits), ``tail``, the mask of the digits after it.
    """
    up, down, power = [], [], 1
    for k in range(_K_MAX + 1):
        # power = 10^k.  Up: hi is power (over 2^600 outside _UNSCALED)
        # rounded, lo the rounded rest.  Down: q = floor(num 2^b / power)
        # has 110 bits or more; its rounded head and rest, times 2^-b, are
        # hi and lo
        if k in _UNSCALED:
            hi = float(power)
            up += hi, float(power - int(hi)), 1.0
        else:
            hi = power / _TWO_600
            up += (hi, (power - int(hi) * _TWO_600) / _TWO_600,
                   float(_TWO_600))
        if 0 < k <= -_K_MIN:
            num = 1 if -k in _UNSCALED else _TWO_600
            b = power.bit_length() + 110
            q = (num << b) // power
            head = float(q)
            down += (math.ldexp(head, -b),
                     math.ldexp(float(q - int(head)), -b), 1 / num)
        power *= 10
    scale = np.empty((5, _K_MAX - _K_MIN + 1))
    scale[[0, 1, 4]] = np.concatenate([np.reshape(down, (-1, 3))[::-1],
                                       np.reshape(up, (-1, 3))]).T
    veltkamp = _SPLIT * scale[0]
    scale[2] = veltkamp - (veltkamp - scale[0])
    scale[3] = scale[0] - scale[2]

    exponent = 16 - np.arange(_K_MIN, _K_MAX + 1)
    e_notation = (exponent < -4) | (exponent > 16)
    shift = np.where(e_notation, 0, np.maximum(exponent, -1)) + 1
    fixed = np.zeros((exponent.size, _RECORD), np.uint8)
    for x in range(-4, 0):
        fixed[16 - x - _K_MIN, 6 + x:7] = np.frombuffer(b"0.000"[:1 - x],
                                                        np.uint8)
    powers = np.array([b"e%+03d" % x for x in exponent[e_notation].tolist()],
                      "S5")
    fixed[e_notation, 24:29] = powers.view(np.uint8).reshape(-1, 5)

    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy()
    text = (ord("0") + digits).view(np.uint32).ravel()
    zeros = np.zeros(10 ** 4, np.uint8)
    all_zero = np.ones(10 ** 4, bool)
    for column in digits.T[::-1]:
        all_zero &= column == 0
        zeros += all_zero

    at = np.arange(_RECORD)
    s = np.arange(-1, 17)[:, None]
    point = np.where((at == 7 + s) & (s >= 0), ord("."), 0).astype(np.uint8)
    head = np.where((at >= 6) & (at <= 6 + s), 255, 0).astype(np.uint8)
    significant = np.arange(18)[:, None]
    tail = np.where((at >= 8 + s[:, None]) & (at <= 6 + significant), 255, 0)
    tables = (scale, shift, fixed, text, zeros, point, head,
              tail.astype(np.uint8).reshape(-1, _RECORD))
    for table in tables:
        table.flags.writeable = False     # every call shares them
    return tables


def format_rows(block: np.ndarray) -> bytes:
    """CSV rows of ``block`` (rows x columns, float64): the bytes of
    ``"%.17g" % v`` for each value, commas between them and a newline
    after each row.

    With 10^(16-E) = hi + lo from the table, Dekker's product gives
    p + err = |v| hi exactly, so p + (err + |v| lo) is |v| 10^(16-E) to
    well below 1e-13 and rounds to the 17 digits.  They are laid out by
    C's %g rules in one record per value, and the records are joined
    without their unused bytes.  A value is left to ``%`` when the kernel
    cannot certify its digits: it is nan or infinite, its scaled value is
    within 1e-9 of a tie, or that lies outside [1e16, 1e17 - 0.5) because
    log10 misjudged E.
    """
    scale, shift, fixed, text, zeros, point, head, tail = _tables()
    v = block.ravel()
    n = v.size
    a = np.abs(v)
    special = ~((a > 0.0) & (a <= sys.float_info.max))    # 0, inf, nan
    a[special] = 1.0
    k = (16 - _K_MIN) - np.floor(np.log10(a)).astype(np.intp)
    hi, lo, hi_head, hi_tail, prescale = scale.take(k, axis=1)
    a *= prescale
    p = a * hi
    veltkamp = _SPLIT * a
    a_head = veltkamp - (veltkamp - a)
    a_tail = a - a_head
    # |v| 10^(16-E) - p: Dekker's exact error of p, plus |v| lo
    rest = ((((a_head * hi_head - p) + a_head * hi_tail) + a_tail * hi_head)
            + a_tail * hi_tail + a * lo)
    rounded = np.rint(rest)
    # the integer, then its quotients by 10^4, 10^8, 10^12 and 10^16
    quotients = np.empty((5, n), np.int64)
    integer = quotients[4]
    np.add(p.astype(np.int64), rounded.astype(np.int64), out=integer)
    uncertified = ((np.abs(rest - rounded) > 0.5 - 1e-9)
                   | ((p - 1e16) + rest < 0) | (integer >= 10 ** 17)
                   | special & (v != 0))
    integer[special] = 0    # zeros print "0"; the other specials go to %
    for j in range(3, -1, -1):
        np.floor_divide(quotients[j + 1], 10 ** 4, out=quotients[j])
    only_zeros_after = quotients * _GROUPS == integer
    quotients[1:] -= quotients[:-1] * 10 ** 4      # now the 4-digit groups
    significant = 17 - (zeros.take(quotients) * only_zeros_after).sum(
        axis=0, dtype=np.intp)
    np.maximum(significant, 1, out=significant)

    # the digits d_i at byte 7 + i of records from byte 32 of ``flat``,
    # so that the records from byte 33 hold them at 6 + i
    flat = np.zeros((n + 2) * _RECORD, np.uint8)
    flat[_RECORD:-_RECORD].view(np.uint32).reshape(n, -1)[:, 1:6] = \
        text.take(quotients).T
    digits_at = lambda start: flat[start:start + n * _RECORD].reshape(n, -1)
    s = shift.take(k)
    record = fixed.take(k, axis=0)
    record[:, 1] = np.signbit(v) * np.uint8(ord("-"))
    record |= point.take(s * (significant > s), axis=0)
    record |= digits_at(_RECORD + 1) & head.take(s, axis=0)
    record |= digits_at(_RECORD) & tail.take(18 * s + significant, axis=0)
    ncols = block.shape[1]
    record.reshape(-1, ncols, _RECORD)[:, :, 29] = np.frombuffer(
        b"," * (ncols - 1) + b"\n", np.uint8)
    alone = np.flatnonzero(uncertified)
    if alone.size:
        texts = np.array([b"%.17g" % x for x in v[alone].tolist()], "S29")
        record[alone, :29] = texts.view(np.uint8).reshape(-1, 29)
    return record.tobytes().translate(None, b"\0")
