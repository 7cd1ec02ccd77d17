"""Codec and rounding tests against independently constructed oracles."""

import functools
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarsim import numerics
from qarsim.layout import CHUNK_ELEMS
from qarsim.numerics import BF16_MAX, Codec, bf16_bits, decode, encode, round_to_bf16
from qarsim.quant import dequantize_shard, quantize_shard


def f32(value) -> np.ndarray:
    """`value` as a 0-d float32 array, the kernels' form of one value."""
    return np.asarray(value, np.float32)


def u8(code) -> np.ndarray:
    """`code` as a 0-d uint8 array."""
    return np.asarray(code, np.uint8)


def fp8_oracle_value(code: int, codec: Codec):
    """Decode one FP8 byte from first principles with exact rationals.

    Returns a Fraction for finite values, or the strings 'nan' / '+inf' /
    '-inf' for specials.
    """
    if codec is Codec.F8E4M3:
        ebits, mbits, bias = 4, 3, 7
        if code & 0x7F == 0x7F:
            return "nan"
    else:
        ebits, mbits, bias = 5, 2, 15
        exp_field = (code >> mbits) & ((1 << ebits) - 1)
        if exp_field == (1 << ebits) - 1:
            if code & ((1 << mbits) - 1):
                return "nan"
            return "-inf" if code & 0x80 else "+inf"
    sign = -1 if code & 0x80 else 1
    exp_field = (code >> mbits) & ((1 << ebits) - 1)
    man = code & ((1 << mbits) - 1)
    if exp_field == 0:
        val = Fraction(man, 1 << mbits) * Fraction(2) ** (1 - bias)
    else:
        val = (1 + Fraction(man, 1 << mbits)) * Fraction(2) ** (exp_field - bias)
    return sign * val


@pytest.mark.parametrize("codec", [Codec.F8E4M3, Codec.F8E5M2])
def test_fp8_decode_matches_rational_oracle(codec):
    codes = np.arange(256, dtype=np.uint8)
    got = decode(codes, codec)
    assert got.dtype == np.float32
    for c in range(256):
        want = fp8_oracle_value(c, codec)
        if want == "nan":
            assert np.isnan(got[c]), c
        elif want == "+inf":
            assert got[c] == np.inf, c
        elif want == "-inf":
            assert got[c] == -np.inf, c
        else:
            assert Fraction(float(got[c])) == want, c


@pytest.mark.parametrize("codec", [Codec.F8E4M3, Codec.F8E5M2])
def test_fp8_round_trip_all_codes(codec):
    # every non-NaN code must survive decode -> encode exactly
    codes = np.arange(256, dtype=np.uint8)
    vals = decode(codes, codec)
    finite_or_inf = ~np.isnan(vals)
    back = encode(vals[finite_or_inf], codec)
    # bit-for-bit, including the sign of -0.0
    assert np.array_equal(back, codes[finite_or_inf])


@pytest.mark.parametrize("codec", [Codec.F8E4M3, Codec.F8E5M2])
def test_fp8_decode_of_every_code_pair_is_each_codes_value(codec):
    # decode looks codes up two at a time; every pair, NaN payloads
    # included, must give the 256-entry table's bits for each code, and so
    # must odd lengths, a misaligned start, 0-d and non-contiguous codes.
    table = numerics._DECODE[codec]
    codes = np.arange(1 << 16, dtype=np.uint16).view(np.uint8)
    cases = [codes, codes[1:], codes[:1], codes[:3], codes[1:258],
             codes[:3 * 257].reshape(3, 257), codes[:3 * 257].reshape(3, 257)[:, 5],
             codes[::3], codes[:0]]
    for c in cases:
        got = decode(c, codec)
        assert (got.dtype, got.shape) == (np.dtype(np.float32), c.shape)
        assert got.tobytes() == table[c].tobytes()
    for code in (0x00, 0x01, 0x7F, 0xFF):
        got = decode(u8(code), codec)
        assert type(got) is np.ndarray and got.shape == ()
        assert got.tobytes() == table[code].tobytes()


@pytest.mark.parametrize("codec", list(Codec))
def test_cast_add_table_is_the_decoded_sum_of_every_code_pair(codec):
    # The four-pass hop on every (wire, local) code pair, NaN codes included:
    # decode both, add, encode. The add runs in float64, exact for two
    # decoded 8-bit values, and rounds once to float32, which is what a
    # correctly rounded float32 add gives.
    codes = np.arange(256, dtype=np.uint8)
    w, loc = np.repeat(codes, 256), np.tile(codes, 256)
    with np.errstate(invalid="ignore"):  # inf + -inf
        exact = decode(w, codec).astype(np.float64) + decode(loc, codec)
    want = encode(exact.astype(np.float32), codec)
    table = numerics.cast_add_table(codec)
    assert (table.dtype, table.shape) == (np.dtype(np.uint8), (1 << 16,))
    assert table.tobytes() == want.tobytes()
    assert numerics.cast_add_table(codec) is table  # built once per codec


@pytest.mark.parametrize("codec", [Codec.F8E4M3, Codec.F8E5M2])
def test_fp8_encode_ties_to_even_at_exact_midpoints(codec):
    codes = np.arange(256, dtype=np.uint8)
    vals = decode(codes, codec)
    finite = np.isfinite(vals) & (vals >= 0)
    grid = np.unique(vals[finite].astype(np.float64))
    lo, hi = grid[:-1], grid[1:]
    mid = ((lo + hi) / 2).astype(np.float32)
    # exact in float32: same exponent window or power of two, a few significant bits
    assert np.array_equal(mid, (lo + hi) / 2)
    lo_code = encode(lo.astype(np.float32), codec)
    hi_code = encode(hi.astype(np.float32), codec)
    want = np.where(lo_code % 2 == 0, lo_code, hi_code)
    assert np.array_equal(encode(mid, codec), want)
    # strictly nearer values pick their neighbor
    assert np.array_equal(encode(np.nextafter(mid, np.float32(0)), codec), lo_code)
    assert np.array_equal(encode(np.nextafter(mid, np.float32(np.inf)), codec), hi_code)


def test_fp8_saturation_and_specials():
    # magnitudes beyond the top code saturate instead of becoming inf
    assert decode(encode(f32(1e6), Codec.F8E5M2), Codec.F8E5M2) == 57344.0
    assert int(encode(f32(1e6), Codec.F8E5M2)) == 0x7B
    assert decode(encode(f32(1e6), Codec.F8E4M3), Codec.F8E4M3) == 448.0
    assert decode(encode(f32(-1e6), Codec.F8E4M3), Codec.F8E4M3) == -448.0
    # E5M2 keeps real infinities on the wire
    assert int(encode(f32(np.inf), Codec.F8E5M2)) == 0x7C
    assert int(encode(f32(-np.inf), Codec.F8E5M2)) == 0xFC
    # E4M3 has no inf code: infinite input saturates like any huge magnitude
    assert decode(encode(f32(np.inf), Codec.F8E4M3), Codec.F8E4M3) == 448.0
    # NaN encodes to the canonical NaN code and decodes back to NaN
    for codec in (Codec.F8E4M3, Codec.F8E5M2):
        nan_code = encode(f32(np.nan), codec)
        assert np.isnan(decode(nan_code, codec))


def test_fp8_subnormals_decode_exactly():
    # smallest positive subnormal: man=1, exp field 0
    tiny_e4m3 = decode(u8(1), Codec.F8E4M3)
    assert Fraction(float(tiny_e4m3)) == Fraction(1, 8) * Fraction(2) ** -6
    tiny_e5m2 = decode(u8(1), Codec.F8E5M2)
    assert Fraction(float(tiny_e5m2)) == Fraction(1, 4) * Fraction(2) ** -14


def test_int8_encode_basics():
    xs = np.array([0.0, 1.5, -1.5, 0.5, 2.5, 126.6, 200.0, -200.0], dtype=np.float32)
    got = decode(encode(xs, Codec.INT8), Codec.INT8)
    # np.rint ties to even: 1.5 -> 2, 0.5 -> 0, 2.5 -> 2
    want = np.array([0.0, 2.0, -2.0, 0.0, 2.0, 127.0, 127.0, -127.0], dtype=np.float32)
    assert np.array_equal(got, want)


def test_int8_nan_is_loud_not_zero():
    code = encode(f32(np.nan), Codec.INT8)
    assert int(code) == 0x80  # the one bit pattern plain encoding never emits
    assert decode(code, Codec.INT8) == -128.0


def test_int8_round_trip_all_plain_codes():
    vals = np.arange(-127, 128, dtype=np.float32)
    assert np.array_equal(decode(encode(vals, Codec.INT8), Codec.INT8), vals)


def test_codec_max_magnitude():
    assert Codec.INT8.max_magnitude == 127.0
    assert Codec.F8E4M3.max_magnitude == 448.0
    assert Codec.F8E5M2.max_magnitude == 57344.0


@given(st.floats(allow_nan=False, allow_infinity=False, width=32), st.floats(allow_nan=False, allow_infinity=False, width=32))
@settings(max_examples=300)
def test_fp8_encode_monotone(x, y):
    lo, hi = sorted((x, y))
    for codec in (Codec.F8E4M3, Codec.F8E5M2):
        dl = decode(encode(f32(lo), codec), codec)
        dh = decode(encode(f32(hi), codec), codec)
        assert dl <= dh


@given(st.floats(min_value=-448.0, max_value=448.0))
@settings(max_examples=300)
def test_fp8_nearest_within_half_gap(x):
    # representable magnitudes only: error can never exceed half the local gap
    codec = Codec.F8E4M3
    grid = np.unique(decode(np.arange(256, dtype=np.uint8), codec))
    grid = grid[np.isfinite(grid)].astype(np.float64)
    got = float(decode(encode(f32(x), codec), codec))
    xe = float(np.float32(x))
    best = np.min(np.abs(grid - xe))
    assert abs(got - xe) <= best * (1 + 1e-12) + 1e-300


def bf16_oracle(x: float) -> float:
    """Round one finite f32 to bf16 via integer bit twiddling on the wire format."""
    bits = struct.unpack("<I", struct.pack("<f", x))[0]
    lower = bits & 0xFFFF
    upper = bits >> 16
    if lower > 0x8000 or (lower == 0x8000 and upper & 1):
        upper += 1
    if upper & 0x7FFF >= 0x7F80:  # rounded into the exponent ceiling
        return float("inf") if upper >> 15 == 0 else float("-inf")
    return struct.unpack("<f", struct.pack("<I", upper << 16))[0]


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
@settings(max_examples=500)
def test_round_to_bf16_matches_bit_oracle(x):
    got = float(round_to_bf16(f32(x)))
    want = bf16_oracle(x)
    if np.isinf(want):
        # overflow saturates to the largest finite bf16 rather than inf
        assert got == np.copysign(BF16_MAX, want)
    else:
        assert got == want


def test_round_to_bf16_specials():
    assert float(round_to_bf16(f32(1.00390625))) == 1.0  # halfway, ties to even
    assert float(round_to_bf16(f32(1.01171875))) == 1.015625  # halfway, odd target bumps
    assert np.isnan(round_to_bf16(f32(np.nan)))
    assert round_to_bf16(f32(np.inf)) == np.inf
    assert round_to_bf16(f32(-np.inf)) == -np.inf
    assert float(round_to_bf16(f32(3.4e38))) == BF16_MAX
    out = round_to_bf16(f32(1.5))
    assert type(out) is np.ndarray and (out.dtype, out.shape) == (np.dtype(np.float32), ())


@given(st.lists(st.floats(allow_nan=False, width=32), min_size=1, max_size=64))
@settings(max_examples=200)
def test_round_to_bf16_idempotent(xs):
    arr = np.array(xs, dtype=np.float32)
    once = round_to_bf16(arr)
    twice = round_to_bf16(once)
    assert np.array_equal(once, twice, equal_nan=True)


@given(st.integers(min_value=0, max_value=2**16 - 1))
@settings(max_examples=200)
def test_round_to_bf16_preserves_exact_bf16(upper):
    x = np.asarray(upper << 16, np.uint32).view(np.float32)
    if np.isfinite(x):
        assert float(round_to_bf16(x)) == float(x)


# The one BF16 rounding rule. round_to_bf16 is bf16_bits widened, and a NaN
# keeps its sign and high 16 bits (quieted if they read as inf). Patterns are
# drawn from the whole uint32 range and from the ranges that matter: NaN
# payloads (high bits, low bits or both), infinities, the BF16 overflow
# threshold, subnormals.
_SPECIAL_PATTERNS = st.one_of(
    st.integers(0x7F800001, 0x7FFFFFFF),  # NaN
    st.integers(0x7F800001, 0x7F80FFFF),  # NaN with its payload in the low 16 bits only
    st.integers(0, 0x1FF).map(lambda k: 0x7F800000 | k << 16),  # NaN or inf, low 16 bits zero
    st.integers(0x7F7F0000, 0x7F7FFFFF),  # around BF16_MAX and its rounding threshold
    st.integers(0, 0x007FFFFF),  # zero and subnormals
)
_PATTERNS = st.one_of(st.integers(0, 2**32 - 1),
                      st.tuples(_SPECIAL_PATTERNS, st.booleans()).map(
                          lambda p: p[0] | (0x80000000 if p[1] else 0)))


@given(st.lists(_PATTERNS, min_size=1, max_size=64))
@settings(max_examples=500)
def test_bf16_bits_widen_to_round_to_bf16(patterns):
    x = np.array(patterns, np.uint32).view(np.float32)
    wide = bf16_bits(x).astype(np.uint32) << 16
    assert np.array_equal(wide, round_to_bf16(x).view(np.uint32))
    # A NaN keeps its sign and high 16 bits, and the quiet bit if they read as inf.
    nan = np.isnan(x)
    high = x.view(np.uint32)[nan] & 0xFFFF0000
    quieted = np.where(high & 0x7FFF0000 == 0x7F800000, high | 0x00400000, high)
    assert np.array_equal(wide[nan], quieted)
    assert np.isnan(wide.view(np.float32)[nan]).all()


def test_round_to_bf16_is_bf16_bits_widened_for_every_high_half():
    high = np.arange(1 << 16, dtype=np.uint32) << 16
    low = np.array([0x0000, 0x0001, 0x7FFF, 0x8000, 0x8001, 0xFFFF], np.uint32)
    x = (high[:, None] | low).view(np.float32)
    assert np.array_equal(round_to_bf16(x).view(np.uint32), bf16_bits(x).astype(np.uint32) << 16)


@pytest.mark.parametrize("codec", list(Codec), ids=lambda c: c.value)
def test_every_decoded_code_is_a_bf16_value(codec):
    # So the naive ring's decoded reduce-scatter needs no BF16 rounding pass.
    values = decode(np.arange(256, dtype=np.uint8), codec)
    assert not (values.view(np.uint32) & 0xFFFF).any()
    assert round_to_bf16(values).tobytes() == values.tobytes()


def test_bf16_bits_writes_into_the_buffers_it_is_given():
    x = np.random.default_rng(1).standard_normal(3000, dtype=np.float32)
    out, scratch = np.empty(3000, np.uint16), np.empty(3000, np.uint32)
    assert bf16_bits(x, out, scratch) is out
    assert np.array_equal(out, bf16_bits(x))
    assert bf16_bits(x.reshape(30, 100)).shape == (30, 100)
    out, scratch = np.empty((30, 100), np.uint16), np.empty((30, 100), np.uint32)
    assert bf16_bits(x.reshape(30, 100), out, scratch) is out
    assert np.array_equal(out.reshape(-1), bf16_bits(x))


# bf16_bits writes `out` and `scratch` through flat views, so each must be a
# C-contiguous array of its dtype with x's size; anything else is a TypeError.
BAD_OUT = {"strided": np.zeros((4, 8), np.uint16)[:, :4], "f32": np.zeros((4, 4), np.float32),
           "u32": np.zeros((4, 4), np.uint32), "short": np.zeros(15, np.uint16),
           "list": [0] * 16}
BAD_SCRATCH = {"strided": np.zeros((4, 8), np.uint32)[:, :4], "u16": np.zeros(16, np.uint16),
               "f32": np.zeros(16, np.float32), "long": np.zeros(17, np.uint32)}


@pytest.mark.parametrize("out", BAD_OUT.values(), ids=list(BAD_OUT))
def test_bf16_bits_rejects_an_out_it_cannot_write_in_place(out):
    x = np.random.default_rng(2).standard_normal((4, 4), dtype=np.float32)
    kept = np.array(out, copy=True)
    with pytest.raises(TypeError):
        bf16_bits(x, out)
    assert np.array_equal(np.asarray(out), kept)


@pytest.mark.parametrize("scratch", BAD_SCRATCH.values(), ids=list(BAD_SCRATCH))
def test_bf16_bits_rejects_a_scratch_it_cannot_write_in_place(scratch):
    x = np.random.default_rng(2).standard_normal((4, 4), dtype=np.float32)
    with pytest.raises(TypeError):
        bf16_bits(x, np.empty(16, np.uint16), scratch)


# Differential oracle: the float64 kernels that the integer kernels replaced,
# kept as references, verbatim but for the NaN rule. Every live kernel must
# match them bit for bit.


def ref_round_to_bf16(x):
    """uint64 add-and-mask, then float-mask fix-ups for overflow and non-finite
    input; a NaN keeps its sign and high 16 bits, quieted if they read as inf."""
    arr = np.asarray(x, dtype=np.float32)
    bits = arr.view(np.uint32).astype(np.uint64)
    rounded = ((bits + 0x7FFF + ((bits >> 16) & 1)) & 0xFFFF0000).astype(np.uint32)
    out = rounded.view(np.float32)
    finite = np.isfinite(arr)
    out = np.where(finite & ~np.isfinite(out), np.copysign(np.float32(BF16_MAX), arr), out)
    high = arr.view(np.uint32) & np.uint32(0xFFFF0000)
    nan = np.where(high & 0x7FFF0000 == 0x7F800000, high | np.uint32(0x00400000), high)
    out = np.where(finite, out, np.where(np.isnan(arr), nan.view(np.float32), arr))
    if arr.ndim == 0:
        return np.float32(out[()])
    return out


@functools.cache
def _ref_fp8_midpoints(codec: Codec) -> np.ndarray:
    table = decode(np.arange(128, dtype=np.uint8), codec).astype(np.float64)
    vals = table[np.isfinite(table)]
    return (vals[:-1] + vals[1:]) / 2.0


def ref_encode(values, codec: Codec) -> np.ndarray:
    """float64 rint/clip for INT8; double searchsorted over the FP8 midpoints."""
    xf = np.asarray(values, dtype=np.float64)
    if codec is Codec.INT8:
        q = np.clip(np.rint(xf), -127.0, 127.0)
        q = np.where(np.isnan(xf), -128.0, q)
        return q.astype(np.int8).view(np.uint8)

    mids = _ref_fp8_midpoints(codec)
    mag = np.minimum(np.abs(xf), codec.max_magnitude)
    lo = np.searchsorted(mids, mag, side="left")
    hi = np.searchsorted(mids, mag, side="right")
    code = np.where(lo == hi, lo, lo + (lo & 1)).astype(np.uint8)
    code = code | np.where(np.signbit(xf), np.uint8(0x80), np.uint8(0))
    if codec is Codec.F8E5M2:
        code = np.where(np.isinf(xf), np.uint8(0x7C) | np.where(xf < 0, np.uint8(0x80), np.uint8(0)), code)
    nan_code = {Codec.F8E4M3: 0x7F, Codec.F8E5M2: 0x7E}[codec]
    return np.where(np.isnan(xf), np.uint8(nan_code), code)


SIGNALING_NANS = [0x7F800001, 0xFFBFFFFF]


def _from_bits(bits):
    return np.asarray(bits, dtype=np.uint32).view(np.float32)


def _around(values) -> np.ndarray:
    """Each value, both neighbours one ulp away, and the negatives of all three."""
    v = np.asarray(values, dtype=np.float32)
    v = np.concatenate([v, np.nextafter(v, np.float32(0)), np.nextafter(v, np.float32(np.inf))])
    return np.concatenate([v, -v])


@functools.cache
def edge_values() -> np.ndarray:
    """Deterministic float32 edge cases of every kernel.

    Every FP8 value and midpoint, the FP8 subnormal/normal boundary and each
    codec max (each +-1 ulp); INT8 half-integers; +-0, +-inf, NaNs; BF16_MAX
    and the patterns around its rounding threshold; float subnormals.
    """
    fi = np.finfo(np.float32)
    with np.errstate(over="ignore"):  # nextafter(max, inf)
        parts = [_around([0.0, np.inf, fi.max, fi.tiny, fi.smallest_subnormal])]
    parts += [_around(np.arange(-130, 131) + 0.5),
              _around(_from_bits([0x7F7F0000, 0x7F7F8000])),
              _from_bits(SIGNALING_NANS), np.array([np.nan, -np.nan], dtype=np.float32)]
    for codec in (Codec.F8E4M3, Codec.F8E5M2):
        grid = decode(np.arange(128, dtype=np.uint8), codec).astype(np.float64)
        grid = grid[np.isfinite(grid)]
        bias = 7 if codec is Codec.F8E4M3 else 15
        top = 2 * grid[-1] - grid[-2]  # the step past the max, and the midpoint to it
        parts += [_around(grid), _around(_ref_fp8_midpoints(codec)),
                  _around([2.0 ** (1 - bias), top, (grid[-1] + top) / 2])]
    return np.concatenate(parts)


@functools.cache
def oracle_inputs() -> np.ndarray:
    """2^22 random float32 bit patterns plus `edge_values`.

    They also cover every NaN pattern at or above 0xFFFF8000 and 0x7FFF8000:
    adding 0x8000 in uint32 carries them out of the exponent to finite patterns.
    """
    rng = np.random.default_rng(6)
    bits = [rng.integers(0, 2**32, 2**22, dtype=np.uint32),
            np.arange(0xFFFF8000, 2**32, dtype=np.uint32),
            np.arange(0x7FFF8000, 2**31, dtype=np.uint32)]
    return np.concatenate([_from_bits(np.concatenate(bits)), edge_values()])


def _assert_same_bits(got, want, inputs):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    if got.tobytes() != want.tobytes():
        row = lambda a: a.reshape(-1).view(np.uint8).reshape(a.size, -1)
        bad = np.flatnonzero((row(got) != row(want)).any(axis=1))
        i = bad[0]
        x = np.asarray(inputs).reshape(-1)[i]
        raise AssertionError(f"{bad.size} lanes differ; first input {x!r} "
                             f"(bytes {np.asarray(x).tobytes().hex()}): "
                             f"got {got.reshape(-1)[i]!r}, want {want.reshape(-1)[i]!r}")


def ref_bf16_bits(x):
    """ref_round_to_bf16's high half."""
    return (np.asarray(ref_round_to_bf16(x)).view(np.uint32) >> 16).astype(np.uint16)


def _reference(fn, *args):
    with np.errstate(all="ignore"):  # the references warn on signaling NaNs and overflow
        return fn(*args)


def test_round_to_bf16_matches_reference_bit_for_bit():
    x = oracle_inputs()
    _assert_same_bits(round_to_bf16(x), _reference(ref_round_to_bf16, x), x)


def test_bf16_bits_matches_reference_bit_for_bit():
    x = oracle_inputs()
    _assert_same_bits(bf16_bits(x), _reference(ref_bf16_bits, x), x)


@pytest.mark.parametrize("codec", list(Codec), ids=lambda c: c.value)
def test_encode_matches_reference_bit_for_bit(codec):
    x = oracle_inputs()
    _assert_same_bits(encode(x, codec), _reference(ref_encode, x, codec), x)


def test_kernels_raise_no_warning_on_any_input():
    # Signaling NaNs and 0-d integer wrap-around included; codes and values
    # for them are pinned by the tests above.
    inputs = [oracle_inputs(), *map(f32, edge_values()[::7])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in inputs:
            round_to_bf16(x)
            bf16_bits(x)
            for codec in Codec:
                encode(x, codec)


# The input contract: encode, round_to_bf16 and bf16_bits take float32 arrays
# and decode takes uint8 arrays, of any shape, 0-d included. Anything else is
# a TypeError, not a silent cast, and a 0-d array comes back as a 0-d array.

NOT_FLOAT32 = {"f64": np.zeros(3), "f16": np.zeros(3, np.float16), "i64": np.arange(3),
               "list": [0.5, -1.5], "float": 0.5, "np.float32": np.float32(0.5)}
NOT_UINT8 = {"i16": np.arange(3, dtype=np.int16), "f32": np.zeros(3, np.float32),
             "list": [1, 2], "int": 1}


@pytest.mark.parametrize("x", NOT_FLOAT32.values(), ids=list(NOT_FLOAT32))
@pytest.mark.parametrize("codec", list(Codec), ids=lambda c: c.value)
def test_float_kernels_reject_anything_but_a_float32_array(codec, x):
    for kernel in (functools.partial(encode, codec=codec), round_to_bf16, bf16_bits):
        with pytest.raises(TypeError):
            kernel(x)


@pytest.mark.parametrize("codes", NOT_UINT8.values(), ids=list(NOT_UINT8))
@pytest.mark.parametrize("codec", list(Codec), ids=lambda c: c.value)
def test_decode_rejects_anything_but_a_uint8_array(codec, codes):
    with pytest.raises(TypeError):
        decode(codes, codec)


@pytest.mark.parametrize("codec", list(Codec), ids=lambda c: c.value)
def test_kernels_map_a_0d_array_to_a_0d_array_with_the_1_element_bits(codec):
    def check(kernel, x0):
        got, want = kernel(x0), kernel(x0.reshape(1))
        assert type(got) is np.ndarray and got.shape == ()
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    for x in edge_values()[::7]:
        for kernel in (functools.partial(encode, codec=codec), round_to_bf16, bf16_bits):
            check(kernel, f32(x))
    for code in range(256):
        check(functools.partial(decode, codec=codec), u8(code))


# The kernels look for special lanes (non-finite, BF16 overflow, FP8
# subnormal, NaN) with a whole-array test first and fix only when it fires.
# One planted lane in a large array of ordinary values must still fire it.

GUARD_N = 1 << 16


def _plant(value, clear_below=0.0):
    """GUARD_N float32 N(0,1) values, magnitudes under `clear_below` moved
    above it, with `value` planted at lane GUARD_N // 3."""
    x = np.random.default_rng(11).standard_normal(GUARD_N)
    x[np.abs(x) < clear_below] += np.copysign(2 * clear_below, x[np.abs(x) < clear_below])
    x = x.astype(np.float32)
    x[GUARD_N // 3] = value
    return x


BF16_GUARD_LANES = [0x7F7F7FFF, 0x7F7F8000, 0xFF7F7FFF, 0xFF7F8000, 0x7F800000, 0xFF800000,
                    0x7FC00000, 0xFFFF8000, 0xFFFFFFFF]


@pytest.mark.parametrize("lane", BF16_GUARD_LANES, ids=hex)
def test_round_to_bf16_fixes_a_single_special_lane(lane):
    x = _plant(_from_bits(lane))
    _assert_same_bits(round_to_bf16(x), _reference(ref_round_to_bf16, x), x)


@pytest.mark.parametrize("lane", [*BF16_GUARD_LANES, 0x7F800001, 0xFF80FFFF], ids=hex)
def test_bf16_bits_fixes_a_single_special_lane(lane):
    x = _plant(_from_bits(lane))
    _assert_same_bits(bf16_bits(x), _reference(ref_bf16_bits, x), x)


_FP8_BIAS = {Codec.F8E4M3: 7, Codec.F8E5M2: 15}


def _fp8_guard_lanes(codec):
    top = np.float32(codec.max_magnitude)
    past = np.nextafter(top, np.float32(np.inf))  # one float32 ulp past the max
    return {"subnormal": 0.375 * 2.0 ** (1 - _FP8_BIAS[codec]), "max": top, "past_max": past,
            "-past_max": -past, "inf": np.inf, "-inf": -np.inf, "nan": np.nan}


@pytest.mark.parametrize("codec", [Codec.F8E4M3, Codec.F8E5M2], ids=lambda c: c.value)
@pytest.mark.parametrize("lane", ["subnormal", "max", "past_max", "-past_max", "inf", "-inf", "nan"])
def test_fp8_encode_fixes_a_single_special_lane(lane, codec):
    # Ordinary lanes stay above 1/16, so the planted lane is the only FP8-subnormal one.
    x = _plant(_fp8_guard_lanes(codec)[lane], clear_below=1 / 16)
    assert (np.abs(x) < 2.0 ** (1 - _FP8_BIAS[codec])).sum() == (lane == "subnormal")
    _assert_same_bits(encode(x, codec), _reference(ref_encode, x, codec), x)


def test_int8_encode_fixes_a_single_nan_lane():
    x = _plant(np.nan)
    got = encode(x, Codec.INT8)
    _assert_same_bits(got, _reference(ref_encode, x, Codec.INT8), x)
    assert np.flatnonzero(got == 0x80).tolist() == [GUARD_N // 3]


@pytest.mark.parametrize("shape", [(0,), (0, 8, 128)], ids=str)
def test_kernels_take_empty_inputs(shape):
    x = np.zeros(shape, dtype=np.float32)
    _assert_same_bits(round_to_bf16(x), _reference(ref_round_to_bf16, x), x)
    _assert_same_bits(bf16_bits(x), _reference(ref_bf16_bits, x), x)
    for codec in Codec:
        codes = encode(x, codec)
        _assert_same_bits(codes, _reference(ref_encode, x, codec), x)
        values = decode(codes, codec)
        assert (values.dtype, values.shape) == (np.dtype(np.float32), shape)


@pytest.mark.parametrize("codec", list(Codec), ids=lambda c: c.value)
def test_kernels_leave_their_inputs_unchanged(codec):
    # The kernels work in place on buffers of their own; a caller's array
    # must keep its bytes, special values and all.
    x = np.concatenate([_plant(0.5), edge_values()])
    x = np.resize(x, (len(x) // CHUNK_ELEMS * CHUNK_ELEMS)).reshape(-1, 8, 128)
    kept = x.copy()
    round_to_bf16(x)
    bf16_bits(x)
    codes = encode(x, codec)
    codes_kept = codes.copy()
    decode(codes, codec)
    with np.errstate(invalid="ignore", over="ignore"):  # as all_reduce runs them
        q = quantize_shard(x, codec)
        payload, grid = q.payload.copy(), q.grid.copy()
        dequantize_shard(q)
    assert x.tobytes() == kept.tobytes()
    assert codes.tobytes() == codes_kept.tobytes()
    assert (q.payload.tobytes(), q.grid.tobytes()) == (payload.tobytes(), grid.tobytes())
