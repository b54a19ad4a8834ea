"""Python's float repr for a whole float64 array at once.

repr prints the shortest decimal that reads back to the same float, and of
those the closest. ``shortest_digits`` finds it as Ryū does (U. Adams, "Ryū:
fast float-to-string conversion", PLDI 2018), for every element in one pass
of numpy integer arithmetic, on Ryū's common path: normal values below 2^54
with q >= 2 whose scaled value carries no trailing decimal zeros, which leaves
out every value from 2^49 up. ``repr_slots`` lays the digits out as repr does
and hands every other element to repr itself: zeros, subnormals, nan,
infinities, the values above and Ryū's trailing-zero cases.
"""

from __future__ import annotations

import functools

import numpy as np

SLOTS = 29  # bytes per element of repr_slots; the longest repr of a float64 has 24

_POW5_BITS = 125  # Ryū's DOUBLE_POW5_BITCOUNT
_M32 = np.uint64(0xFFFFFFFF)
_POW10 = 10 ** np.arange(18, dtype=np.uint64)  # 10^0 .. 10^17
_PLACES = np.arange(18, dtype=np.uint8)
_EXPONENTS = 400  # beyond the decimal exponents of float64


@functools.cache
def _pow5_limbs() -> np.ndarray:
    """5^i for i = 0..325, each scaled by a power of two to 125 bits (Ryū's
    DOUBLE_POW5_SPLIT), as four 32-bit limbs, least significant first: shape (4, 326)."""
    rows = []
    for i in range(326):
        p = 5**i
        shift = p.bit_length() - _POW5_BITS
        scaled = p >> shift if shift >= 0 else p << -shift
        rows.append([(scaled >> s) & 0xFFFFFFFF for s in (0, 32, 64, 96)])
    table = np.array(rows, dtype=np.uint64).T.copy()  # limb-major: a gather of each limb is contiguous
    table.flags.writeable = False  # shared by every call
    return table


def _mul_shift(a: np.ndarray, limbs: np.ndarray, j: np.ndarray) -> np.ndarray:
    """floor(a * L / 2^j) for a < 2^55, L of 125 bits as four 32-bit limbs
    and j in [118, 121].

    Schoolbook multiplication in 32-bit columns: each 64-bit product of a half
    of a and a limb adds its low and high words to two columns, and each
    column then carries its excess into the next. The result is read from
    columns 3-5 (bits 96-191) of the 180-bit product."""
    cols = [np.zeros_like(a) for _ in range(6)]
    for h, half in enumerate((a & _M32, a >> np.uint64(32))):
        for k in range(4):
            p = half * limbs[k]  # below 2^64
            cols[h + k] += p & _M32
            cols[h + k + 1] += p >> np.uint64(32)
    for c in range(1, 6):
        cols[c] += cols[c - 1] >> np.uint64(32)
        cols[c - 1] &= _M32
    s = (j - 96).astype(np.uint64)
    return (cols[5] << (64 - s)) | (cols[4] << (32 - s)) | (cols[3] >> s)


def shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, exponent, ok) for a 1-d float64 array: where ok, |x| reads as
    digits * 10**exponent, the shortest such decimal that rounds back to x,
    and the closest to x of those; digits has no trailing zero. Where not ok,
    x is off Ryū's common path and the digits and exponent mean nothing."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    e = ((bits >> 52) & 0x7FF).astype(np.int64)
    m = bits & np.uint64((1 << 52) - 1)
    ok = (e > 0) & (e < 1077)  # normal, below 2^54: Ryū's e2 = e - 1077 < 0
    minus_e2 = np.where(ok, 1077 - e, 64)  # a safe stand-in where not ok
    q = ((minus_e2 * 732923) >> 20) - (minus_e2 > 1)  # floor(-e2 log10(5)), less one below e2 = -1
    i = minus_e2 - q
    j = q - (((i * 1217359) >> 19) + 1 - _POW5_BITS)  # 118..121
    mv = (m | np.uint64(1 << 52)) << np.uint64(2)
    # off the common path: mv a multiple of 2^q, where vr may end in zeros; that
    # takes every q <= 2 (Ryū's q < 2 branch among them), as mv = 4 m2
    ok &= (mv & ((np.uint64(1) << np.minimum(q, 63).astype(np.uint64)) - np.uint64(1))) != 0
    mm_shift = ((m != 0) | (e <= 1)).astype(np.uint64)

    # the scaled value and its halfway bounds: floor(4 m2 * 5^i / 2^j), and the
    # same for 4 m2 + 2 and 4 m2 - 1 - mm_shift, as one (3, n) product
    a = np.stack((mv, mv + np.uint64(2), mv - np.uint64(1) - mm_shift))
    vr, vp, vm = _mul_shift(a, _pow5_limbs()[:, i], j)

    # drop digits while the bounds stay apart: two at once, then one at a time;
    # each element stops at the first step whose bounds meet, and so stays stopped
    exp10 = q - minus_e2
    go = vp // 100 > vm // 100
    vr100 = vr // 100
    round_up = go & (vr - vr100 * np.uint64(100) >= 50)
    vr, vp, vm = np.where(go, vr100, vr), np.where(go, vp // 100, vp), np.where(go, vm // 100, vm)
    exp10 += 2 * go
    while True:
        vp10, vm10 = vp // 10, vm // 10
        go = ok & (vp10 > vm10)
        if not go.any():
            break
        vr10 = vr // 10
        round_up = np.where(go, vr - vr10 * np.uint64(10) >= 5, round_up)
        vr, vp, vm = np.where(go, vr10, vr), np.where(go, vp10, vp), np.where(go, vm10, vm)
        exp10 += go
    # no trailing zero: a result in (vm, vp] ending in 0 would have let one more digit go
    return vr + ((vr == vm) | round_up), exp10, ok


@functools.cache
def _exponents() -> np.ndarray:
    """Column point + _EXPONENTS: the last five slots of repr_slots for a value
    in exponent notation whose decimal point follows digit `point`, "e", the
    sign of the exponent point - 1 and its two or three digits, NUL-padded."""
    texts = []
    for sci in range(-_EXPONENTS - 1, _EXPONENTS):
        texts.append("e" + ("-" if sci < 0 else "+") + f"{abs(sci):02d}".rjust(3, "\0"))
    table = np.frombuffer("".join(texts).encode(), dtype=np.uint8).reshape(-1, 5).T.copy()
    table.flags.writeable = False
    return table


def repr_slots(x: np.ndarray) -> np.ndarray:
    """repr of each element of a 1-d float64 array as a column of SLOTS bytes
    with NULs among them: shape (SLOTS, x.size), uint8, so that every step
    runs along the elements. Dropping the NULs of a column leaves repr of its
    element. The digits of shortest_digits are laid out by _layout, and repr
    itself fills the columns off Ryū's common path."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    digits, exp10, ok = shortest_digits(x)
    cols = _layout(digits, exp10, np.signbit(x))
    if not ok.all():
        rest = np.flatnonzero(~ok)
        texts = np.array([repr(v) for v in x[rest].tolist()], dtype=f"S{SLOTS}")
        cols[:, rest] = texts.view(np.uint8).reshape(-1, SLOTS).T
    return cols


def _layout(digits: np.ndarray, exp10: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The columns of repr_slots for the values -1**negative * digits * 10**exp10,
    digits of 1 to 17 without a trailing zero.

    The slots are the sign, "0." and up to three zeros, 17 digits with one
    point inserted among them, then "e", the exponent's sign and three
    exponent digits; repr's layout (fixed notation for decimal exponents
    -4..15, exponent notation otherwise, ".0" after a whole number) fills some
    of them and leaves the rest NUL. Small counts are uint8, and each choice
    between bytes is arithmetic with a 0/1 mask, which numpy runs far faster
    on bytes than np.where."""
    n = np.searchsorted(_POW10, digits, side="right")  # the number of digits
    point = n + exp10  # the decimal point follows this many digits (none: 0, or fewer)
    fixed = (point > -4) & (point <= 16)
    cols = np.empty((SLOTS, digits.size), dtype=np.uint8)
    cols[0] = negative * ord("-")
    lead = np.where(fixed & (point <= 0), 2 - point, 0).astype(np.uint8)  # "0.", then a zero per place below 0
    cols[1:6] = (_PLACES[:5, None] < lead) * np.frombuffer(b"0.000", dtype=np.uint8)[:, None]

    # the digits left-aligned in 17 places: those of the value, then the zeros of
    # a whole number up to its point and the "0" after it; NUL past them
    chars = np.empty((17, digits.size), dtype=np.uint8)
    left = digits * _POW10[np.minimum(17 - n, 17)]
    high = left // np.uint64(10**9)  # places 0-7; places 8-16 below, both run faster in 32 bits
    halves = (((left - high * np.uint64(10**9)).astype(np.uint32), range(16, 7, -1)),
              (high.astype(np.uint32), range(7, -1, -1)))
    for value, places in halves:
        for k in places:
            tens = value // 10
            chars[k] = value - tens * np.uint32(10)
            value = tens
    last = np.where(fixed & (point >= n), point + 1, n).astype(np.uint8)
    chars += ord("0")
    chars *= _PLACES[:17, None] < last
    # the point follows digit `dot`: 99 where it is in the lead, or a one-digit exponent form has none
    dot = np.where(fixed, np.where(point > 0, point, 99), np.where(n > 1, 1, 99)).astype(np.uint8)
    body = cols[6:24]
    body[0] = chars[0]
    body[1:17] = chars[1:] + (_PLACES[1:17, None] > dot) * (chars[:16] - chars[1:])
    body[17] = chars[16] * (dot < 17)
    body[1:] += (_PLACES[1:18, None] == dot) * (ord(".") - body[1:])
    cols[24:] = _exponents()[:, np.clip(point, -_EXPONENTS, _EXPONENTS) + _EXPONENTS] * ~fixed
    return cols
