"""Bit-exact FP32 arithmetic shared by the ISS and the Sapper FPU.

This is the *architectural definition* of the processor's floating
point: round-toward-zero (truncation), flush-to-zero for subnormals,
infinities saturate, NaNs are treated as infinity.  The Sapper processor
implements exactly these algorithms in hardware and the ISS executes
them here, so the two agree bit-for-bit; results differ from IEEE-754
round-to-nearest only in the last bits, which the FFT validation
(section 4.3) checks against NumPy within tolerance.

All values are 32-bit unsigned integers holding the bit pattern.
"""

from __future__ import annotations

INF_EXP = 255
MANT_BITS = 23
IMPLICIT = 1 << MANT_BITS


def unpack(x: int) -> tuple[int, int, int]:
    """Return ``(sign, exponent, mantissa-with-implicit-bit)``.

    Subnormals flush to zero (mantissa 0); exponent 255 means infinity
    (mantissa ignored).
    """
    s = x >> 31 & 1
    e = x >> 23 & 0xFF
    m = x & 0x7FFFFF
    if e == 0:
        return s, 0, 0
    if e == INF_EXP:
        return s, INF_EXP, 0
    return s, e, m | IMPLICIT


def pack(s: int, e: int, m23: int) -> int:
    return (s << 31) | (e << 23) | (m23 & 0x7FFFFF)


def zero(s: int = 0) -> int:
    return s << 31


def inf(s: int) -> int:
    return pack(s, INF_EXP, 0)


def fadd(a: int, b: int) -> int:
    sa, ea, ma = unpack(a)
    sb, eb, mb = unpack(b)
    if ea == INF_EXP:
        return inf(sa)
    if eb == INF_EXP:
        return inf(sb)
    if ma == 0:
        return b if mb else zero(sa & sb)
    if mb == 0:
        return a
    # order so that |a| >= |b|
    if ea < eb or (ea == eb and ma < mb):
        sa, ea, ma, sb, eb, mb = sb, eb, mb, sa, ea, ma
    d = ea - eb
    big = ma << 2                      # two guard bits
    small = (mb << 2) >> d if d < 27 else 0
    if sa == sb:
        total = big + small
    else:
        total = big - small
    if total == 0:
        return zero(0)
    e = ea
    if total >= 1 << 26:               # carry out (add case): at most one step
        total >>= 1
        e += 1
    else:
        while total < 1 << 25:         # cancellation (sub case)
            total <<= 1
            e -= 1
    if e >= INF_EXP:
        return inf(sa)
    if e <= 0:
        return zero(sa)
    return pack(sa, e, total >> 2)


def fsub(a: int, b: int) -> int:
    return fadd(a, b ^ 0x80000000)


def fmul(a: int, b: int) -> int:
    sa, ea, ma = unpack(a)
    sb, eb, mb = unpack(b)
    s = sa ^ sb
    if ea == INF_EXP or eb == INF_EXP:
        return inf(s)
    if ma == 0 or mb == 0:
        return zero(s)
    product = ma * mb                  # 48 bits, in [2^46, 2^48)
    e = ea + eb - 127
    if product >= 1 << 47:
        m = product >> 24
        e += 1
    else:
        m = product >> 23
    if e >= INF_EXP:
        return inf(s)
    if e <= 0:
        return zero(s)
    return pack(s, e, m)


def fdiv(a: int, b: int) -> int:
    sa, ea, ma = unpack(a)
    sb, eb, mb = unpack(b)
    s = sa ^ sb
    if ea == INF_EXP:
        return inf(s)                  # inf / y -> inf (also inf/inf)
    if eb == INF_EXP:
        return zero(s)                 # x / inf -> 0
    if mb == 0:
        return inf(s)                  # x / 0 -> signed infinity (also 0/0)
    if ma == 0:
        return zero(s)
    q = (ma << 24) // mb               # in (2^23, 2^25)
    if q >= 1 << 24:
        e = ea - eb + 127
        m = q >> 1
    else:
        e = ea - eb + 126
        m = q
    if e >= INF_EXP:
        return inf(s)
    if e <= 0:
        return zero(s)
    return pack(s, e, m)


def fneg(a: int) -> int:
    return a ^ 0x80000000


def fabs_(a: int) -> int:
    return a & 0x7FFFFFFF


def cvt_s_w(x: int) -> int:
    """Signed 32-bit integer -> float (truncating)."""
    if x == 0:
        return 0
    s = x >> 31 & 1
    mag = ((~x + 1) if s else x) & 0xFFFFFFFF
    p = mag.bit_length() - 1           # position of the leading one
    e = 127 + p
    if p >= MANT_BITS:
        m = mag >> (p - MANT_BITS)
    else:
        m = mag << (MANT_BITS - p)
    return pack(s, e, m)


def cvt_w_s(x: int) -> int:
    """Float -> signed 32-bit integer, truncating; saturates on overflow."""
    s, e, m = unpack(x)
    if e == INF_EXP:
        return 0x7FFFFFFF if s == 0 else 0x80000000
    if m == 0:
        return 0
    shift = e - 127 - MANT_BITS
    if shift >= 8:                     # |value| >= 2^31
        return 0x7FFFFFFF if s == 0 else 0x80000000
    mag = m << shift if shift >= 0 else (m >> -shift if -shift < 48 else 0)
    if mag > 0x7FFFFFFF:
        return 0x7FFFFFFF if s == 0 else 0x80000000
    return (-mag) & 0xFFFFFFFF if s else mag


def _order_key(x: int) -> int:
    """Monotone unsigned key for comparisons (note: -0 sorts below +0)."""
    s, e, m = unpack(x)
    if e != INF_EXP and m == 0:
        x = s << 31                    # canonicalize flushed subnormals
    mag = x & 0x7FFFFFFF
    return 0x80000000 - mag if x >> 31 else 0x80000000 + mag


def flt(a: int, b: int) -> int:
    return int(_order_key(a) < _order_key(b))


def fle(a: int, b: int) -> int:
    return int(_order_key(a) <= _order_key(b))


def fgt(a: int, b: int) -> int:
    return int(_order_key(a) > _order_key(b))


def fge(a: int, b: int) -> int:
    return int(_order_key(a) >= _order_key(b))


def from_python(value: float) -> int:
    """Python float -> nearest FP32 bit pattern (for building test data)."""
    import struct

    return struct.unpack("<I", struct.pack("<f", value))[0]


def to_python(bits: int) -> float:
    import struct

    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0]
