"""Scalar formats used on the wire and in the accumulator.

Three 8-bit codecs (symmetric INT8, FP8 E4M3, FP8 E5M2) plus software
BF16 rounding, to float32 values (`round_to_bf16`) or to BF16 bit
patterns (`bf16_bits`, the ingest of a BF16 tensor). E4M3 follows the
common convention with no infinities, a single NaN mantissa pattern and
max finite 448; E5M2 is IEEE-like
(inf at exponent-all-ones/mantissa-zero, max finite 57344). Encoding
is round-to-nearest-even; magnitudes past the format max saturate to
the max finite value. NaN always survives encoding: FP8 NaN patterns
propagate, and INT8 maps NaN onto the otherwise unused code -128 so
corruption stays loud after decode instead of turning into a zero.

The kernels round in integer arithmetic on the input's own bits, as in
Kalamkar et al. (2019) for BF16 and Micikevicius et al. (2022) for FP8:
add half an output ulp minus one plus the lowest kept bit, then drop the
low bits. BF16 rounding works on float32 (other inputs are cast to float32
first). `encode` keeps float32 input in float32 (uint32 bits) and converts
anything else to float64 (uint64 bits); INT8 is `rint` and a clamp in that
dtype, and FP8-subnormal lanes are `rint` of the magnitude times a power
of two, both exact. Either dtype gives exact round-to-nearest-even of the
input value, so a value representable in float32 gets the same code both
ways. No input, signaling NaNs included, makes a kernel raise a
floating-point warning.

The kernels keep full-array passes few. Each works in place on buffers
it allocated itself (or, for `bf16_bits`, that its caller passed) and
never writes to its input. Special values are
found by a whole-array test first and fixed only when present: both BF16
roundings compare a max and a min reduction with the smallest magnitude
that rounds to inf (NaN carries through both); INT8 looks for NaN lanes
only when its max is NaN; FP8 rounds its subnormal lanes only at the
indices where they occur, and looks for inf and NaN lanes only when the
largest magnitude is one.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

# Largest finite BF16 value, bit pattern 0x7F7F (exp 0xFE, mantissa 0x7F).
BF16_MAX = 3.3895313892515355e38
# Smallest float32 magnitude that rounds to inf in BF16, bit pattern 0x7F7F8000.
_BF16_INF_FROM = np.uint32(0x7F7F8000).view(np.float32)


class Codec(enum.Enum):
    INT8 = "int8"
    F8E4M3 = "f8e4m3"
    F8E5M2 = "f8e5m2"

    @property
    def max_magnitude(self) -> float:
        return _MAX_MAG[self]


_MAX_MAG = {Codec.INT8: 127.0, Codec.F8E4M3: 448.0, Codec.F8E5M2: 57344.0}

# (exponent bits, mantissa bits, bias) per FP8 flavor.
_FP8_FIELDS = {Codec.F8E4M3: (4, 3, 7), Codec.F8E5M2: (5, 2, 15)}

# Canonical quiet-NaN code emitted for NaN inputs (decode accepts every
# NaN pattern; encode produces just this one).
_NAN_CODE = {Codec.F8E4M3: 0x7F, Codec.F8E5M2: 0x7E}
_INF_CODE = {Codec.F8E5M2: 0x7C}


def _fp8_decode_table(codec: Codec) -> np.ndarray:
    """256-entry float32 lookup table, one value per code."""
    exp_bits, man_bits, bias = _FP8_FIELDS[codec]
    exp_mask = (1 << exp_bits) - 1
    man_mask = (1 << man_bits) - 1
    out = np.empty(256, dtype=np.float64)
    for code in range(256):
        exp = (code >> man_bits) & exp_mask
        man = code & man_mask
        if exp == 0:
            # Subnormal: no implicit leading bit.
            val = man * 2.0 ** (1 - bias - man_bits)
        else:
            val = (1.0 + man * 2.0**-man_bits) * 2.0 ** (exp - bias)
        if codec is Codec.F8E4M3:
            if exp == exp_mask and man == man_mask:
                val = np.nan
        elif exp == exp_mask:
            val = np.inf if man == 0 else np.nan
        out[code] = -val if code & 0x80 else val
    return out.astype(np.float32)


_DECODE = {k: _fp8_decode_table(k) for k in _FP8_FIELDS}


@functools.cache
def _fp8_pair_table(codec: Codec) -> np.ndarray:
    """65,536-entry table of float32 pairs, read as uint64: entry v holds the
    values of the two codes whose bytes, in memory order, make uint16 v.
    Built on a codec's first decode (512 KiB), so a process that never
    decodes it holds none."""
    pairs = np.arange(1 << 16, dtype=np.uint16).view(np.uint8).reshape(-1, 2)
    return _DECODE[codec][pairs].view(np.uint64).reshape(-1)


# Unsigned integer type of the same width, for each float dtype a kernel runs in.
_UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def _as_float(values, dtype) -> np.ndarray:
    """`values` as an array of `dtype`, narrowing silently.

    A cast to a narrower float maps a signaling NaN to NaN and a value past
    the format's range to inf. Both are valid kernel inputs, so the cast
    raises no warning for them.
    """
    if type(values) is np.ndarray and values.dtype == dtype:
        return values
    with np.errstate(invalid="ignore", over="ignore"):
        return np.asarray(values, dtype=dtype)


def _bits(value: float, dtype) -> int:
    """Bit pattern of `value` in float `dtype`."""
    return int(np.asarray(value, dtype=dtype).view(_UINT[np.dtype(dtype)]))


def _int8_encode(x: np.ndarray) -> np.ndarray:
    # Clamping first equals clamping after rint (the bounds are integers);
    # NaN lanes are set to -128 before rint so that no NaN reaches it.
    # minimum and maximum carry NaN through, as clip does.
    q = np.minimum(x, 127)
    np.maximum(q, -127, out=q)
    if np.isnan(q.max(initial=0)):
        np.copyto(q, -128, where=np.isnan(q))
    np.rint(q, out=q)
    return q.astype(np.int8).view(np.uint8)


def _fp8_encode(x: np.ndarray, codec: Codec) -> np.ndarray:
    _, man_bits, bias = _FP8_FIELDS[codec]
    fi = np.finfo(x.dtype)
    shift = fi.nmant - man_bits
    width = 8 * x.dtype.itemsize
    bits = x.view(_UINT[x.dtype])
    mag = bits & ((1 << (width - 1)) - 1)
    special = mag.max(initial=0) >= _bits(np.inf, x.dtype)
    # Saturate at the max. Non-negative floats order like their bits; NaN
    # lanes stay NaN here and get their code below.
    fmag = mag.view(x.dtype)
    np.minimum(fmag, codec.max_magnitude, out=fmag)
    # FP8-normal lanes: round to nearest even on the dropped bits and rebias
    # the exponent in one constant. Rebiasing subtracts a multiple of
    # 1 << shift, so it commutes with the shift, and modulo 2**width it keeps
    # the low 8 bits. Subnormal lanes wrap here and are replaced below.
    rebias = (fi.maxexp - 1 - bias) << fi.nmant
    code = mag >> shift
    code &= 1
    code += mag
    code += ((1 << (shift - 1)) - 1 - rebias) % (1 << width)
    code >>= shift
    out = code.astype(np.uint8)
    # FP8-subnormal lanes: the code counts subnormal steps, and scaling by a
    # power of two is exact.
    sub = np.flatnonzero(mag < _bits(2.0 ** (1 - bias), x.dtype))
    out[sub] = np.rint(mag[sub].view(x.dtype) * 2.0 ** (bias - 1 + man_bits)).astype(np.uint8)
    sign = np.signbit(x).view(np.uint8)
    sign *= 0x80
    out |= sign
    if special:
        if codec in _INF_CODE:
            out = np.where(np.isinf(x), (out & 0x80) | _INF_CODE[codec], out)
        out[np.isnan(x)] = _NAN_CODE[codec]
    return out


def encode(values, codec: Codec) -> np.ndarray:
    """Quantize float values to uint8 codes of the given codec (RNE, saturating).

    float32 input is encoded in float32; any other input is converted to
    float64 first. Returns an array of the input's shape.
    """
    x = np.asarray(values)
    x = _as_float(x, np.float32 if x.dtype == np.float32 else np.float64)
    flat = x.reshape(-1)  # 0-d too: integer wrap-around stays a silent array op
    out = _int8_encode(flat) if codec is Codec.INT8 else _fp8_encode(flat, codec)
    return out.reshape(x.shape)


def decode(codes, codec: Codec) -> np.ndarray:
    """Map uint8 codes back to float32 values.

    FP8 codes are looked up two at a time, as uint16, in a table of float32
    pairs, and an odd last code in the 256-entry table.
    """
    c = np.asarray(codes, dtype=np.uint8)
    if codec is Codec.INT8:
        return c.view(np.int8).astype(np.float32)
    flat = np.ascontiguousarray(c).reshape(-1)
    out = np.empty(flat.size, np.float32)
    even = flat.size & ~1
    np.take(_fp8_pair_table(codec), flat[:even].view(np.uint16), out=out[:even].view(np.uint64),
            mode="wrap")  # every uint16 is in range
    if even < flat.size:
        out[-1] = _DECODE[codec][flat[-1]]
    return out.reshape(c.shape) if c.ndim else out[0]


def _rne_carry(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`bits` plus the round-to-nearest-even carry into bit 16, into uint32 `out`:
    0x7FFF plus the lowest kept bit. Its high 16 bits are the rounded BF16."""
    np.right_shift(bits, 16, out=out)
    out &= 1
    out += bits
    out += 0x7FFF
    return out


def _rounds_finite(flat: np.ndarray) -> bool:
    """Whether every float32 value of `flat` is finite and rounds to a finite BF16.

    Only a magnitude of at least _BF16_INF_FROM, or a NaN, can give a
    non-finite input or output; NaN carries through both reductions. The
    input's finiteness counts too: NaN patterns from 0xFFFF8000 up wrap to
    finite.
    """
    return bool(flat.max(initial=0) < _BF16_INF_FROM and flat.min(initial=0) > -_BF16_INF_FROM)


def round_to_bf16(x):
    """Round float32 values to the nearest BF16-representable value (ties to even).

    Result stays float32. Finite overflow saturates to +/-BF16_MAX; NaN and
    inf pass through unchanged.
    """
    arr = _as_float(x, np.float32)
    flat = arr.reshape(-1)
    out = _rne_carry(flat.view(np.uint32), np.empty(flat.size, np.uint32))
    out &= 0xFFFF0000
    res = out.view(np.float32)
    if not _rounds_finite(flat):
        ok = np.isfinite(flat)
        ok &= np.isfinite(res)
        bad = np.flatnonzero(~ok)
        a = flat[bad]
        res[bad] = np.where(np.isfinite(a), np.copysign(np.float32(BF16_MAX), a), a)
    if arr.ndim == 0:
        return res[0]
    return res.reshape(arr.shape)


def bf16_bits(x, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """BF16 bit patterns (uint16) of float32 values: the one ingest of a BF16 tensor.

    Finite values and infinities round as `round_to_bf16` rounds them, so
    the widened result (`bits << 16`) is `round_to_bf16`'s bit for bit. A
    NaN keeps its sign and its high 16 bits; if those would read as +-inf
    (its payload sat only in the low 16 bits, which BF16 cannot hold), the
    quiet bit 0x0040 is set so that it stays NaN. `out` (uint16) and
    `scratch` (uint32), each contiguous and of x's size, are written in
    place when given, so a caller that ingests tile by tile allocates
    nothing per tile. Returns `out`, or a new uint16 array of x's shape.
    """
    arr = _as_float(x, np.float32)
    flat = arr.reshape(-1)
    if out is None:
        out = np.empty(arr.shape, np.uint16)
    if scratch is None:
        scratch = np.empty(flat.size, np.uint32)
    bits = flat.view(np.uint32)
    res = out.reshape(-1)
    np.right_shift(_rne_carry(bits, scratch), 16, out=res)
    if not _rounds_finite(flat):
        ok = np.isfinite(flat)
        ok &= (res & 0x7F80) != 0x7F80
        bad = np.flatnonzero(~ok)
        a = flat[bad]
        high = (bits[bad] >> 16).astype(np.uint16)
        nan = high | np.where((high & 0x7FFF) == 0x7F80, np.uint16(0x0040), np.uint16(0))
        big = (high & 0x8000) | np.uint16(0x7F7F)  # +-BF16_MAX
        res[bad] = np.where(np.isnan(a), nan, np.where(np.isinf(a), high, big))
    return out
