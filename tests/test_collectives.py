"""Functional AllReduce variants: exactness, ordering, and error structure."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qarsim.collectives as collectives
from qarsim.analysis import device_inputs, mse
from qarsim.collectives import (
    STAGES,
    CollectiveConfig,
    SemiLoopOddNError,
    Variant,
    all_reduce,
    baseline_allreduce_bf16,
    gather_blocks,
    naive_lowp_allreduce,
    reduce_scatter,
)
from qarsim.layout import (
    CHUNK_ELEMS,
    Bf16Tensor,
    DivisibilityError,
    PartitionSpec,
    ShapeMismatchError,
    TensorBuf,
)
from qarsim.numerics import BF16_MAX, Codec, bf16_bits, decode, encode, round_to_bf16
from qarsim.quant import absmax_grid, scales_from_absmax


def int_inputs(n, elems, seed=0, lo=-16, hi=16):
    rng = np.random.default_rng(seed)
    return [
        Bf16Tensor(bf16_bits(rng.integers(lo, hi, elems).astype(np.float32)), 1, elems)
        for _ in range(n)
    ]


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("variant", [Variant.FULL_LOOP, Variant.SEMI_LOOP])
def test_unquantized_integer_inputs_bit_exact(n, variant):
    elems = n * 4 * CHUNK_ELEMS
    spec = PartitionSpec(n, 2, 2)
    inputs = int_inputs(n, elems, seed=n)
    exact = np.sum([t.values() for t in inputs], axis=0, dtype=np.float32)
    outs = all_reduce(inputs, CollectiveConfig(variant, spec))
    assert len(outs) == n
    for o in outs:
        assert np.array_equal(o.data, exact)


# Every collective of the module, called as run(inputs, spec).
COLLECTIVES = {
    **{
        f"{v.value}-rs={q_rs}-ag={q_ag}": (
            lambda inputs, spec, v=v, q_rs=q_rs, q_ag=q_ag: all_reduce(
                inputs, CollectiveConfig(v, spec, quantize_rs=q_rs, quantize_ag=q_ag)
            )
        )
        for v in Variant
        for q_rs in (False, True)
        for q_ag in (False, True)
    },
    "baseline": baseline_allreduce_bf16,
    "naive": lambda inputs, spec: naive_lowp_allreduce(inputs, Codec.F8E5M2, spec),
}


@pytest.mark.parametrize("name", list(COLLECTIVES))
def test_inputs_are_left_unchanged(name):
    # the ring widens BF16 inputs into fresh arrays where it reads them, so
    # it must never write them
    spec = PartitionSpec(4, 2, 1)
    inputs = device_inputs(64, 256, 4, seed=9)
    before = [t.bits.tobytes() for t in inputs]
    COLLECTIVES[name](inputs, spec)
    assert [t.bits.tobytes() for t in inputs] == before


@pytest.mark.parametrize("run", [
    lambda inputs, spec: reduce_scatter(inputs, CollectiveConfig(Variant.FULL_LOOP, spec)),
    lambda inputs, spec: all_reduce(inputs, CollectiveConfig(Variant.SEMI_LOOP, spec)),
    baseline_allreduce_bf16,
    lambda inputs, spec: naive_lowp_allreduce(inputs, Codec.F8E5M2, spec),
], ids=["reduce_scatter", "all_reduce", "baseline_allreduce_bf16", "naive_lowp_allreduce"])
def test_collectives_reject_bad_inputs(run):
    spec = PartitionSpec(4, 1, 1)
    inputs = device_inputs(8, 512, 4, seed=1)
    with pytest.raises(ValueError, match="expected 4 device inputs, got 3"):
        run(inputs[:3], spec)
    other = device_inputs(16, 256, 1, seed=1)[0]
    with pytest.raises(ShapeMismatchError, match=r"device 2 input shape \(16, 256\)"):
        run(inputs[:2] + [other] + inputs[3:], spec)
    f32 = TensorBuf(inputs[1].values(), 8, 512)
    with pytest.raises(TypeError, match="device 1 input is a TensorBuf, not a Bf16Tensor"):
        run(inputs[:1] + [f32] + inputs[2:], spec)


@pytest.mark.parametrize("name", list(COLLECTIVES))
def test_traced_peak_stays_below_half_the_input_bytes(name):
    # No staged copy of the inputs and no second output tensor: what one call
    # allocates is the reduce-scatter's buffer, one float32 tensor that the
    # all-gather is written over, plus one arc's tile and one block. The
    # warm-up call builds what is built once per process (the cast table).
    # 1.5 tensors is 3/16 of the N=8 inputs' float32 bytes; a gather into a
    # second buffer would need 2.
    spec = PartitionSpec(8, 2, 1)
    inputs = device_inputs(256, 1024, 8, seed=4)
    COLLECTIVES[name](inputs, spec)
    tracemalloc.start()
    try:
        COLLECTIVES[name](inputs, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 4 * inputs[0].bits.size


@pytest.mark.parametrize("name", list(COLLECTIVES))
def test_outputs_share_one_read_only_buffer(name):
    spec = PartitionSpec(4, 2, 1)
    out = COLLECTIVES[name](device_inputs(64, 256, 4, seed=6), spec)
    assert len(out) == spec.num_devices
    assert all(np.shares_memory(o.data, out[0].data) for o in out[1:])
    with pytest.raises(ValueError, match="read-only"):
        out[0].data[0] = 1.0


# Non-finite semantics (README "Non-finite values"). One element P of shard 0
# and its partner Q: same scale-grid position, same minishard, next chunk.
P, Q = 5, 5 + CHUNK_ELEMS
QUANTIZED = [name for name in COLLECTIVES if "=True" in name]
UNQUANTIZED = [name for name in COLLECTIVES if name not in QUANTIZED]


def _planted(values: dict[int, float]) -> dict[str, np.ndarray]:
    """Every collective's output with values[d] planted at P on device d (N=4, m=1)."""
    inputs = device_inputs(32, 256, 4, seed=0)
    for d, v in values.items():
        inputs[d].bits[P] = bf16_bits(np.asarray(v, np.float32))
    return {name: run(inputs, PartitionSpec(4, 1, 1))[0].data for name, run in COLLECTIVES.items()}


def test_nan_propagates_and_spreads_over_its_grid_position_when_quantized():
    for name, out in _planted({1: np.nan}).items():
        assert np.isnan(out[P]), name
        assert np.isnan(out[Q]) == (name in QUANTIZED), name
        assert np.isnan(out).sum() == 1 + (name in QUANTIZED), name


def test_inf_survives_unquantized_rings_but_not_a_quantized_stage():
    out = _planted({1: np.inf})
    for name in UNQUANTIZED:
        assert out[name][P] == np.inf, name
    for name in QUANTIZED:
        # inf/inf is NaN; INT8 decodes NaN's code -128 times an infinite scale to -inf
        assert np.isnan(out[name][P]) or out[name][P] == -np.inf, name
        assert np.isnan(out[name][Q]), name
        if name.endswith("rs=True-ag=True"):
            assert np.isnan(out[name][P]), name


def test_bf16_overflow_saturates_but_float32_overflow_is_inf():
    bf16_rings = [name for name in UNQUANTIZED if name != "naive"]
    # finite in float32 and past the BF16 rounding threshold: saturates
    out = _planted({0: BF16_MAX, 1: 1e36})
    assert all(out[name][P] == np.float32(BF16_MAX) for name in bf16_rings)
    # the float32 sum itself overflows: inf
    out = _planted({d: 0.75 * BF16_MAX for d in range(4)})
    assert all(out[name][P] == np.inf for name in bf16_rings)


def test_near_max_outlier_flushes_its_grid_position_to_zero():
    out = _planted({2: BF16_MAX})
    for name in QUANTIZED:
        assert out[name][P] == np.float32(BF16_MAX), name
        if name.endswith("ag=True"):
            assert out[name][Q] == 0.0, name


def test_baseline_is_the_shared_unquantized_path():
    spec = PartitionSpec(4, 2, 1)
    inputs = device_inputs(64, 128, 4, seed=2)
    via_flags = all_reduce(inputs, CollectiveConfig(Variant.FULL_LOOP, spec))
    base = baseline_allreduce_bf16(inputs, spec)
    for a, b in zip(via_flags, base):
        assert np.array_equal(a.data, b.data)


RING_CASES = [CollectiveConfig(v, PartitionSpec(4, 2, 1), quantize_rs=q_rs, quantize_ag=q_ag,
                               codec=codec)
              for v in Variant for q_rs in (False, True) for q_ag in (False, True)
              for codec in Codec]


def _sibling(cfg):
    """A config whose reduce-scatter cfg may share: the other quantize_ag, and,
    when the reduce-scatter is unquantized, the next codec too."""
    codecs = list(Codec)
    codec = cfg.codec if cfg.quantize_rs else codecs[(codecs.index(cfg.codec) + 1) % len(codecs)]
    return replace(cfg, quantize_ag=not cfg.quantize_ag, codec=codec)


@pytest.mark.parametrize("cfg", RING_CASES, ids=lambda c: f"{c.variant.value}-rs={c.quantize_rs}"
                         f"-ag={c.quantize_ag}-{c.codec.value}")
def test_all_reduce_of_a_given_reduce_scatter_is_all_reduce(cfg):
    # The reduce-scatter depends on the variant, quantize_rs and (if quantized)
    # the codec only, so one made for a sibling config, as the study shares it,
    # gathered with cfg's quantize_ag and codec is all_reduce's output bit for bit.
    inputs = device_inputs(64, 256, 4, seed=17)
    inputs[2].bits[[7, 4000]] = bf16_bits(np.array([np.nan, np.inf], np.float32))
    given = reduce_scatter(inputs, _sibling(cfg))
    assert given.tobytes() == reduce_scatter(inputs, cfg).tobytes()
    streamed = np.concatenate([b for _, b in gather_blocks(given, cfg)])
    assert streamed.tobytes() == all_reduce(inputs, cfg)[0].data.tobytes()


@pytest.mark.parametrize("cfg", RING_CASES, ids=lambda c: f"{c.variant.value}-rs={c.quantize_rs}"
                         f"-ag={c.quantize_ag}-{c.codec.value}")
def test_streamed_gather_blocks_are_the_all_reduce_output(cfg, monkeypatch):
    # gather_blocks' parts tile the output in order, and their values are
    # all_reduce's output bit for bit; a shared reduce-scatter is only read.
    # The baseline is the full-loop unquantized all_reduce, NaN and inf included.
    # Only a quantized stage leaves the BF16 grid, so only then is a block
    # rounded; else each block is a read-only view of the reduce-scatter.
    inputs = device_inputs(64, 256, 4, seed=17)
    inputs[2].bits[[7, 4000]] = bf16_bits(np.array([np.nan, np.inf], np.float32))
    reduced = reduce_scatter(inputs, cfg)
    before = reduced.tobytes()
    rounded = []
    monkeypatch.setattr(collectives, "round_to_bf16",
                        lambda x: rounded.append(x.size) or round_to_bf16(x))
    blocks = list(gather_blocks(reduced, cfg))
    monkeypatch.undo()
    quantized = cfg.quantize_rs or cfg.quantize_ag
    assert len(rounded) == (len(blocks) if quantized else 0)
    for _, block in blocks:
        assert np.shares_memory(block, reduced) != quantized
        assert block.flags.writeable == quantized
    ends = [0] + [part.stop for part, _ in blocks]
    assert [(part.start, part.stop) for part, _ in blocks] == list(zip(ends, ends[1:]))
    assert len(blocks) == cfg.spec.num_devices * cfg.spec.minishards_per_shard
    streamed = np.concatenate([block for _, block in blocks])
    assert streamed.tobytes() == all_reduce(inputs, cfg)[0].data.tobytes()
    assert reduced.tobytes() == before
    if not (cfg.quantize_rs or cfg.quantize_ag) and cfg.variant is Variant.FULL_LOOP:
        assert baseline_allreduce_bf16(inputs, cfg.spec)[0].data.tobytes() == streamed.tobytes()


@pytest.mark.parametrize("run", [
    lambda inputs, spec: all_reduce(inputs, CollectiveConfig(Variant.SEMI_LOOP, spec)),
    baseline_allreduce_bf16,
], ids=["all_reduce", "baseline_allreduce_bf16"])
def test_unquantized_all_reduce_returns_its_reduce_scatter_as_it_stands(run, monkeypatch):
    # The reduce-scatter's buffer is the output: no all-gather runs over it.
    made = {}

    def recorded(inputs, cfg):
        made["buffer"] = reduce_scatter(inputs, cfg)
        made["bytes"] = made["buffer"].tobytes()
        return made["buffer"]

    def not_called(*args):
        raise AssertionError("an unquantized all_reduce gathered its BF16 reduce-scatter")

    monkeypatch.setattr(collectives, "reduce_scatter", recorded)
    monkeypatch.setattr(collectives, "gather_blocks", not_called)
    out = run(device_inputs(64, 256, 4, seed=6), PartitionSpec(4, 2, 1))
    assert out[0].data is made["buffer"] and out[0].data.tobytes() == made["bytes"]


# BF16 bit patterns planted below: NaNs with payloads (quiet and signaling, both
# signs), +-inf and +-BF16_MAX.
_PLANTS = [0x7FC1, 0xFFE3, 0x7F81, 0xFFA5, 0x7F80, 0xFF80, 0x7F7F, 0xFF7F]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_unquantized_reduce_scatter_is_bf16_already(data):
    # gather_blocks passes an unquantized reduce-scatter on unrounded, which
    # holds only because every BF16 hop rounds its sum: the buffer is bitwise
    # its own BF16 rounding, near overflow and with non-finite inputs too.
    n = data.draw(st.integers(2, 8), label="N")
    variant = data.draw(st.sampled_from(list(Variant) if n % 2 == 0 else [Variant.FULL_LOOP]),
                        label="variant")
    m = data.draw(st.integers(1, 4), label="m")
    scale = data.draw(st.sampled_from([1.0, 2.0**-120, 2.0**100, BF16_MAX / 64, BF16_MAX / 4]),
                      label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    elems = n * m * CHUNK_ELEMS
    with np.errstate(over="ignore"):  # past float32's range is inf, a value the ring takes
        inputs = [Bf16Tensor(bf16_bits(rng.standard_normal(elems, np.float32) * np.float32(scale)),
                             1, elems) for _ in range(n)]
    plants = st.tuples(st.integers(0, n - 1), st.integers(0, elems - 1), st.sampled_from(_PLANTS))
    for d, i, bits in data.draw(st.lists(plants, max_size=16), label="plants"):
        inputs[d].bits[i] = bits
    reduced = reduce_scatter(inputs, CollectiveConfig(variant, PartitionSpec(n, m, 1)))
    assert round_to_bf16(reduced).tobytes() == reduced.tobytes()


@pytest.mark.parametrize("name", UNQUANTIZED)
def test_unquantized_rings_do_not_depend_on_the_minishard_tiles(name, monkeypatch):
    # 12 chunks per shard: every m in (1, 2, 3, 4, 6, 12) divides it, and an odd
    # m puts the full loop's CW/CCW element midpoint inside a tile. Fresh
    # buffers start as NaN, so an element no tile writes cannot pass for the
    # value a previous run left in reused memory.
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", poisoned)
    inputs = device_inputs(384, 128, 4, seed=23)
    for d, bits in enumerate((0x7FC10000, 0xFFC20000)):  # NaNs with distinct payloads
        inputs[d].bits[[d, 9000 + d]] = bf16_bits(np.array(bits, np.uint32).view(np.float32))
    inputs[3].bits[20000] = bf16_bits(np.asarray(np.inf, np.float32))
    run = COLLECTIVES[name]
    want = run(inputs, PartitionSpec(4, 1, 1))[0].data.tobytes()
    for m in (2, 3, 4, 6, 12):
        assert run(inputs, PartitionSpec(4, m, 1))[0].data.tobytes() == want, m


def test_bf16_rounds_after_every_addition():
    # 1.0 + 2^-9 is a bf16 halfway case: ties-to-even collapses it back to 1.0
    spec = PartitionSpec(2, 1, 1)
    x0 = np.full(2 * CHUNK_ELEMS, 1.0, dtype=np.float32)
    x1 = np.full(2 * CHUNK_ELEMS, 2.0**-9, dtype=np.float32)
    inputs = [Bf16Tensor(bf16_bits(x), 2, CHUNK_ELEMS) for x in (x0, x1)]
    out = baseline_allreduce_bf16(inputs, spec)[0]
    assert np.all(out.data == 1.0)
    fp32 = np.float32(1.0) + np.float32(2.0**-9)
    assert fp32 != 1.0  # the collective's rounding is the only thing collapsing it


def test_semi_loop_n2_equals_full_loop_n2():
    # At N=2 both variants add the same pairs, and both owner merges put the
    # arriving partial first, so even the surviving NaN payloads agree.
    spec = PartitionSpec(2, 2, 1)
    inputs = device_inputs(64, 64, 2, seed=5)
    nans = np.arange(3, inputs[0].bits.size, 97)
    for d, bits in enumerate((0x7FC10000, 0xFFC20000)):  # NaNs with distinct payloads
        inputs[d].bits[nans] = bf16_bits(np.array(bits, np.uint32).view(np.float32))
    for rs in (False, True):
        for ag in (False, True):
            full, semi = (all_reduce(inputs, CollectiveConfig(v, spec, quantize_rs=rs,
                                                              quantize_ag=ag))[0].data
                          for v in Variant)
            assert np.isnan(full[nans]).all()
            assert full.tobytes() == semi.tobytes()


def test_semi_loop_rejects_odd_ring():
    with pytest.raises(SemiLoopOddNError):
        CollectiveConfig(Variant.SEMI_LOOP, PartitionSpec(5, 1, 1))


@pytest.mark.parametrize("kw", [dict(variant=Variant.SEMI_LOOP), dict(quantize_rs=True),
                                dict(quantize_ag=True)], ids=["semi_loop", "rs", "ag"])
def test_cast_needs_the_full_loop_and_no_quantized_stage(kw):
    # No half implements a cast semi loop or a cast ring with a scaled stage.
    kw = {"variant": Variant.FULL_LOOP, **kw}
    with pytest.raises(ValueError, match="cast needs the full loop and no quantized stage"):
        CollectiveConfig(spec=PartitionSpec(4, 1, 1), codec=Codec.F8E5M2, cast=True, **kw)
    CollectiveConfig(spec=PartitionSpec(4, 1, 1), codec=Codec.F8E5M2, **kw)  # fine uncast


def test_stages_tag_names_what_the_stages_carry():
    # Each tag builds its config through STAGES, and the config reads it back.
    spec = PartitionSpec(4, 1, 1)
    carried = {"none": (False, False, False), "rs": (True, False, False),
               "ag": (False, True, False), "both": (True, True, False),
               "cast": (False, False, True)}
    assert list(STAGES) == list(carried)
    for tag, (rs, ag, cast) in carried.items():
        for variant in Variant if not cast else [Variant.FULL_LOOP]:
            cfg = CollectiveConfig(variant, spec, quantize_rs=rs, quantize_ag=ag, cast=cast)
            assert CollectiveConfig(variant, spec, **STAGES[tag]) == cfg
            assert cfg.stages == tag


# gather_blocks checks the buffer when called: no block is taken below.
@pytest.mark.parametrize("bad", [np.zeros((4, 1024), np.float32), np.zeros(4096, np.float64)],
                         ids=["2-D", "float64"])
def test_gather_blocks_rejects_a_buffer_that_is_not_a_reduce_scatter(bad):
    with pytest.raises(ShapeMismatchError, match="one flat float32 buffer"):
        gather_blocks(bad, CollectiveConfig(Variant.FULL_LOOP, PartitionSpec(4, 1, 1)))


def test_gather_blocks_rejects_a_size_the_minishards_do_not_divide():
    with pytest.raises(DivisibilityError, match="minishards_per_shard=2"):
        gather_blocks(np.zeros(4 * 3 * CHUNK_ELEMS, np.float32),
                      CollectiveConfig(Variant.FULL_LOOP, PartitionSpec(4, 2, 1)))


@pytest.mark.parametrize("variant", list(Variant))
def test_reduce_scatter_buffer_holds_shard_s_in_its_s_th_part(variant):
    # Small integers add exactly in BF16, so each part is the exact sum of its shard.
    n = 4
    inputs = int_inputs(n, n * 6 * CHUNK_ELEMS, seed=29)
    exact = np.sum([t.values() for t in inputs], axis=0, dtype=np.float32)
    reduced = reduce_scatter(inputs, CollectiveConfig(variant, PartitionSpec(n, 3, 1)))
    assert reduced.dtype == np.float32 and reduced.shape == exact.shape
    for s, (part, want) in enumerate(zip(np.split(reduced, n), np.split(exact, n))):
        assert np.array_equal(part, want), s


def test_outputs_identical_across_devices():
    spec = PartitionSpec(8, 2, 1)
    inputs = device_inputs(128, 256, 8, seed=3)
    for variant in (Variant.FULL_LOOP, Variant.SEMI_LOOP):
        outs = all_reduce(inputs, CollectiveConfig(variant, spec, quantize_rs=True, quantize_ag=True))
        for o in outs[1:]:
            assert np.array_equal(o.data, outs[0].data)


def test_power_of_two_scaling_homogeneity():
    # doubling every input doubles every absmax exactly, so codes repeat and
    # the quantized result scales by exactly 2
    spec = PartitionSpec(4, 2, 2)
    inputs = device_inputs(128, 128, 4, seed=7)
    doubled = [Bf16Tensor(bf16_bits(t.values() * np.float32(2.0)), t.rows, t.cols)
               for t in inputs]
    cfg = CollectiveConfig(Variant.FULL_LOOP, spec, quantize_rs=True, quantize_ag=True)
    out1 = all_reduce(inputs, cfg)[0]
    out2 = all_reduce(doubled, cfg)[0]
    assert np.array_equal(out2.data, out1.data * np.float32(2.0))


def _draw_ring(data):
    """A collective as run(list of each device's BF16 bits) -> output values,
    and its spec: N <= 8, m and u <= 4, any codec, and either a stage pair of
    a variant (the semi loop on even rings only) or the naive ring."""
    n = data.draw(st.integers(2, 8), label="N")
    spec = PartitionSpec(n, data.draw(st.integers(1, 4), label="m"),
                         data.draw(st.integers(1, 4), label="u"))
    codec = data.draw(st.sampled_from(list(Codec)), label="codec")
    variants = list(Variant) if n % 2 == 0 else [Variant.FULL_LOOP]
    flavor = data.draw(st.sampled_from(
        [(v, rs, ag) for v in variants for rs in (False, True) for ag in (False, True)]
        + ["naive"]), label="flavor")

    def run(bits):
        inputs = [Bf16Tensor(b, 1, b.size) for b in bits]
        if flavor == "naive":
            return naive_lowp_allreduce(inputs, codec, spec)[0].data
        variant, q_rs, q_ag = flavor
        cfg = CollectiveConfig(variant, spec, quantize_rs=q_rs, quantize_ag=q_ag, codec=codec)
        return all_reduce(inputs, cfg)[0].data

    return run, spec, codec, flavor


def _random_bits(data, spec, exponents, mantissa_bits=7):
    """Each device's BF16 bits: random signs, unbiased exponents drawn from
    the range `exponents`, and random values of the top `mantissa_bits` of
    the mantissa (the rest 0)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n, m, u = spec.num_devices, spec.minishards_per_shard, spec.microshards_per_minishard
    size = (n, n * m * u * CHUNK_ELEMS)
    bits = rng.integers(exponents.start + 127, exponents.stop + 127, size, dtype=np.uint16) << 7
    bits |= rng.integers(0, 1 << mantissa_bits, size, dtype=np.uint16) << 7 - mantissa_bits
    bits |= rng.integers(0, 2, size, dtype=np.uint16) << 15
    return list(bits)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_negating_every_input_negates_every_output(data):
    # Every codec, the scale division and each rounding are odd functions,
    # so flipping every input's sign bit negates every output as a value,
    # and so bit for bit wherever it is nonzero. A zero need not flip: a
    # sum that cancels is +0.0 for x and for -x. Inputs span 2**60, so
    # small elements quantize to zero next to large ones.
    run, spec, _, _ = _draw_ring(data)
    bits = _random_bits(data, spec, range(-30, 31))
    out = run(bits)
    assert np.array_equal(run([b ^ 0x8000 for b in bits]), -out)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scaling_every_input_by_4_scales_every_output_by_4(data):
    # Adding 2 to every input's exponent multiplies it by 4. A quantized
    # stage's scales then grow by 4 exactly and its codes repeat, and BF16
    # sums scale exactly, so every output is x4 bit for bit, while every
    # value stays well inside the normal range. The naive ring casts
    # without a scale: an FP8 cast scales exactly on magnitudes from 2**-4
    # to 2**3 (sums of 8 stay below 448 after x4), but an INT8 cast rounds
    # to integers, so it scales only small integers, here +-1 and +-2.
    run, spec, codec, flavor = _draw_ring(data)
    if flavor == "naive" and codec is Codec.INT8:
        bits = _random_bits(data, spec, range(0, 2), mantissa_bits=0)
    else:
        bits = _random_bits(data, spec, range(-4, 3))
    out = run(bits)
    assert run([b + (2 << 7) for b in bits]).tobytes() == (out * np.float32(4)).tobytes()


@pytest.mark.parametrize("codec", list(Codec))
def test_cast_hop_is_decode_add_encode(codec):
    # One table lookup per element gives the hop's four passes bit for bit:
    # decode the wire, encode and decode the local value, add, encode; the
    # owner merge decodes that. Every wire code meets finite, saturating,
    # tiny and non-finite local values.
    rng = np.random.default_rng(11)
    specials = np.array([0.0, -0.0, 1e-30, -3.0, 1e6, -1e6, BF16_MAX, np.inf, -np.inf, np.nan],
                        np.float32)
    local = np.concatenate([rng.standard_normal(4096).astype(np.float32) * 100, specials])
    wire = rng.integers(0, 256, local.size).astype(np.uint8)
    wire[:256] = np.arange(256)
    with np.errstate(invalid="ignore", over="ignore"):
        acc = decode(wire, codec)
        acc += decode(encode(local, codec), codec)
        hop = collectives._CastHop(codec)
        assert hop.hop(wire, local).tobytes() == encode(acc, codec).tobytes()
        assert hop.merge(local, wire).tobytes() == decode(encode(acc, codec), codec).tobytes()


def test_naive_int8_saturates_on_large_uniform_input():
    spec = PartitionSpec(4, 1, 1)
    elems = 4 * CHUNK_ELEMS
    inputs = [Bf16Tensor(bf16_bits(np.full(elems, 100.0, dtype=np.float32)), 1, elems)
              for _ in range(4)]
    outs = naive_lowp_allreduce(inputs, Codec.INT8, spec)
    # true sum is 400 but the cast-to-int8 ring can never exceed the top code
    for o in outs:
        assert np.all(o.data == 127.0)


def test_naive_exact_when_sums_stay_on_codec_grid():
    spec = PartitionSpec(4, 1, 1)
    elems = 4 * CHUNK_ELEMS
    inputs = [Bf16Tensor(bf16_bits(np.full(elems, 2.0, dtype=np.float32)), 1, elems)
              for _ in range(4)]
    outs = naive_lowp_allreduce(inputs, Codec.F8E5M2, spec)
    for o in outs:
        assert np.all(o.data == 8.0)
    zero_in = [Bf16Tensor(bf16_bits(np.zeros(elems, dtype=np.float32)), 1, elems)
               for _ in range(4)]
    outs = naive_lowp_allreduce(zero_in, Codec.INT8, spec)
    for o in outs:
        assert np.all(o.data == 0.0)


def _flavor_errors(inputs, spec, codec=Codec.INT8):
    base = baseline_allreduce_bf16(inputs, spec)[0]
    errs = {}
    for name, (variant, q_rs, q_ag) in {
        "full_rs": (Variant.FULL_LOOP, True, False),
        "full_ag": (Variant.FULL_LOOP, False, True),
        "full_both": (Variant.FULL_LOOP, True, True),
        "semi_rs": (Variant.SEMI_LOOP, True, False),
        "semi_ag": (Variant.SEMI_LOOP, False, True),
        "semi_both": (Variant.SEMI_LOOP, True, True),
    }.items():
        cfg = CollectiveConfig(variant, spec, quantize_rs=q_rs, quantize_ag=q_ag, codec=codec)
        errs[name] = mse(base, all_reduce(inputs, cfg)[0])
    errs["naive"] = mse(base, naive_lowp_allreduce(inputs, Codec.F8E5M2, spec)[0])
    return errs


def test_error_orderings_hold_on_normal_data():
    spec = PartitionSpec(8, 2, 2)
    inputs = device_inputs(512, 512, 8, seed=0)
    e = _flavor_errors(inputs, spec)
    # fewer quantize/dequantize pairs means less noise
    assert e["semi_rs"] <= e["full_rs"]
    assert e["semi_both"] <= e["full_both"]
    assert e["full_ag"] <= e["full_both"]
    assert e["semi_ag"] <= e["semi_both"]
    # one end-quantization beats requantizing every partial sum
    assert e["full_both"] < e["naive"] / 10
    assert e["semi_both"] < e["naive"] / 10
    for v in e.values():
        assert v > 0.0


def test_ag_only_error_is_bounded_by_final_quantization_step():
    # with RS unquantized, the only noise is one quantize/dequantize of the
    # reduced tensor plus its bf16 rounding
    spec = PartitionSpec(4, 2, 1)
    inputs = device_inputs(128, 256, 4, seed=13)
    base = baseline_allreduce_bf16(inputs, spec)[0]
    cfg = CollectiveConfig(Variant.FULL_LOOP, spec, quantize_rs=False, quantize_ag=True)
    out = all_reduce(inputs, cfg)[0]
    diff = np.abs(out.data - base.data)
    # shards and their minishards are contiguous runs of the flat tensor
    minis = base.data.reshape(spec.num_devices * spec.minishards_per_shard, -1, 8, 128)
    grids = scales_from_absmax(absmax_grid(minis), Codec.INT8)
    allowed = np.broadcast_to(grids[:, None], minis.shape).reshape(-1)
    budget = allowed * (0.5 + 1e-4) + np.abs(base.data) * 2.0**-8 + 1e-30
    assert np.all(diff <= budget)


def test_full_loop_error_grows_with_ring_size():
    # more hops, more quantize/dequantize pairs, more noise (statistical)
    errs = {}
    for n in (2, 4, 8):
        spec = PartitionSpec(n, 2, 1)
        inputs = device_inputs(128, 512, n, seed=21)
        errs[n] = _flavor_errors(inputs, spec)["full_rs"]
    assert errs[2] < errs[4] < errs[8]
