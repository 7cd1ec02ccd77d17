"""Study harness: flavor table, PRNG contract, sweep shape, rendering."""

import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qarsim.analysis
from qarsim.analysis import (
    CSV_COLUMNS,
    FLAVORS,
    SWEEP_COLUMNS,
    auto_minishards,
    device_inputs,
    mse,
    render_csv,
    render_json,
    size_sweep,
    tradeoff_study,
)
from qarsim.collectives import Variant
from qarsim.layout import Bf16Tensor, ShapeMismatchError, TensorBuf
from qarsim.numerics import Codec, bf16_bits, round_to_bf16

MIB = 1 << 20


def test_flavor_listing_is_fixed():
    assert FLAVORS == ("baseline", "naive", "full_rs", "full_ag", "full_both",
                       "semi_rs", "semi_ag", "semi_both")


def test_mse_basics():
    a = TensorBuf(np.zeros(1024, dtype=np.float32), 8, 128)
    b = TensorBuf(np.full(1024, 2.0, dtype=np.float32), 8, 128)
    assert mse(a, b) == 4.0
    assert mse(a, a) == 0.0
    with pytest.raises(ShapeMismatchError):
        mse(np.zeros(4), np.zeros(5))


_LANES = qarsim.analysis._MSE_LANES
# Elements one pass of mse's buffer takes: every row but the lane sums'.
_CHUNK = qarsim.analysis._MSE_BUF_ELEMS - _LANES


def _lane_order_mse(a, b) -> float:
    """mse's order spelled out: element k's float64 square goes to lane
    k % 1024, each lane adds in index order, and the lanes add exactly."""
    xs, ys = np.ravel(a).tolist(), np.ravel(b).tolist()
    lanes = [0.0] * _LANES
    for k, (x, y) in enumerate(zip(xs, ys)):
        d = x - y
        lanes[k % _LANES] += d * d
    return math.fsum(lanes) / len(xs)


@pytest.mark.parametrize("n", [1, 1023, 1025, _CHUNK + 1, 3 * _CHUNK + 5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mse_matches_the_lane_order_reference_bit_for_bit(n, dtype):
    rng = np.random.default_rng(n)
    a, b = (rng.standard_normal(n).astype(dtype) for _ in range(2))
    assert mse(a, b) == _lane_order_mse(a, b)


def test_mse_of_2d_tensor_bufs_matches_the_lane_order_reference():
    rng = np.random.default_rng(5)
    rows, cols = 24, 3 * _CHUNK // 24 + 8
    a, b = (TensorBuf(rng.standard_normal(rows * cols, dtype=np.float32), rows, cols)
            for _ in range(2))
    assert mse(a, b) == _lane_order_mse(a.data, b.data)
    assert mse(a, b) == mse(a.data.reshape(rows, cols), b.data.reshape(rows, cols))


def test_mse_non_finite_and_empty_semantics():
    # README "Non-finite values": no NumPy warning escapes (Tier-1 makes
    # RuntimeWarning an error).
    zeros = np.zeros(2048)
    nan = zeros.copy()
    nan[7] = np.nan
    assert math.isnan(mse(nan, zeros))
    both_inf = zeros.copy()
    both_inf[3] = np.inf
    assert math.isnan(mse(both_inf, both_inf))  # inf - inf is a NaN difference
    assert mse(both_inf, zeros) == math.inf
    assert mse(-both_inf.astype(np.float32), zeros.astype(np.float32)) == math.inf
    # Every lane is finite (one 1e308 square each); their sum is not, and a
    # NaN lane still makes the result NaN.
    big = np.full(_LANES, 1e154)
    assert mse(big, np.zeros(_LANES)) == math.inf
    big_nan = np.concatenate([big, big])
    big_nan[-1] = np.nan
    assert math.isnan(mse(big_nan, np.zeros(2 * _LANES)))
    # float64 squares and differences past the float64 range
    assert mse(np.array([1e200, 0.0]), np.zeros(2)) == math.inf
    assert mse(np.array([1.7e308]), np.array([-1.7e308])) == math.inf
    with pytest.raises(ValueError, match="empty"):
        mse(np.zeros(0, np.float32), np.zeros(0, np.float32))


def test_mse_memory_is_one_fixed_buffer():
    def peak(n):
        a = np.ones(n, np.float32)
        b = np.zeros(n, np.float32)
        tracemalloc.start()
        try:
            assert mse(a, b) == 1.0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The margin holds the ufuncs' own cast buffers (128 KiB for the
    # float32-to-float64 subtract) and the lane list.
    buf_bytes = qarsim.analysis._MSE_BUF_ELEMS * 8
    small, large = peak(1 << 20), peak(4 << 20)
    assert large < buf_bytes + 256 * 1024
    assert large - small < 4 * 1024  # not O(n)


def test_device_inputs_prng_contract():
    # Device d's bits are the BF16 rounding of PCG64(seed + d)'s float32 normals.
    inputs = device_inputs(8, 128, 3, seed=42)
    assert len(inputs) == 3
    for d, t in enumerate(inputs):
        want = np.random.default_rng(42 + d).standard_normal(8 * 128, dtype=np.float32)
        assert isinstance(t, Bf16Tensor) and (t.rows, t.cols) == (8, 128)
        assert np.array_equal(t.bits, bf16_bits(want))
        assert t.values().tobytes() == round_to_bf16(want).tobytes()
    assert device_inputs(8, 128, 0, seed=42) == []


def test_device_inputs_draw_in_tiles_the_stream_of_one_draw():
    # Two and a half tiles and a few elements: the last tile is partial.
    tile = qarsim.analysis._INGEST_TILE
    n = 2 * tile + tile // 2 + 3
    for d, t in enumerate(device_inputs(1, n, 2, seed=3)):
        want = np.random.default_rng(3 + d).standard_normal(n, dtype=np.float32)
        assert np.array_equal(t.bits, bf16_bits(want))


def _drawn_on(monkeypatch, k: int, fail_on=None) -> list[threading.Thread]:
    """Give device_inputs k usable CPUs, and round each tile through a
    bf16_bits that raises on the threads `fail_on` picks. Returns the list
    that collects each rounding thread (objects, since ids are reused)."""
    threads = []

    def recording_bf16_bits(*args):
        threads.append(threading.current_thread())
        if fail_on is not None and fail_on(threads[-1]):
            raise FloatingPointError("planted")
        return bf16_bits(*args)

    monkeypatch.setattr(qarsim.analysis, "_usable_cpus", lambda: k)
    monkeypatch.setattr(qarsim.analysis, "bf16_bits", recording_bf16_bits)
    return threads


@pytest.mark.parametrize("n_dev", [1, 2, 5, 8])
def test_device_inputs_bits_do_not_depend_on_the_thread_count(monkeypatch, n_dev):
    # A tile and a bit per device, so each ends on a partial tile; k from one
    # thread to one more than there are devices.
    n = qarsim.analysis._INGEST_TILE + 1003
    want = [bf16_bits(np.random.default_rng(5 + d).standard_normal(n, dtype=np.float32)).tobytes()
            for d in range(n_dev)]
    for k in sorted({1, 2, 3, n_dev, n_dev + 1}):
        threads = _drawn_on(monkeypatch, k)
        got = device_inputs(1, n, n_dev, seed=5)
        assert [t.bits.tobytes() for t in got] == want, k
        assert len(set(threads)) == min(k, n_dev)
        assert threading.current_thread() in threads


@pytest.mark.parametrize("on_caller", [True, False], ids=["caller", "worker"])
def test_device_inputs_raises_a_drawing_threads_error_and_joins_the_rest(monkeypatch, on_caller):
    # Three threads for five devices: the caller draws devices 0 and 3, and
    # the workers the rest. Every thread is joined before the error reaches
    # the caller.
    caller = threading.current_thread()
    _drawn_on(monkeypatch, 3, fail_on=lambda t: (t is caller) == on_caller)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="planted"):
        device_inputs(2, 1024, 5, seed=0)
    assert threading.active_count() == before


def test_importing_qarsim_starts_no_thread_and_no_executor():
    # Drawing threads start per call; an import-time pool, or the import of
    # concurrent.futures, would cost every workload's set-up.
    code = ("import sys, threading\n"
            "import qarsim\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "assert 'concurrent.futures' not in sys.modules\n")
    src = str(Path(qarsim.analysis.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("k", [1, 2, 4])
def test_device_inputs_traced_peak_is_its_result_plus_one_tile_per_thread(monkeypatch, k):
    # The uint16 results plus, per drawing thread, one tile of float32
    # normals, one of uint32 scratch and 64 KiB for its generator and the
    # 32 KiB cast buffer of bf16_bits' uint32-to-uint16 shift (the threads
    # can hold theirs at once): no float32 copy of an input. A warm-up call
    # first, so numpy.random's import is not traced.
    rows, cols, n = 256, 1024, 4
    monkeypatch.setattr(qarsim.analysis, "_usable_cpus", lambda: k)
    device_inputs(8, 128, 1, seed=0)
    tracemalloc.start()
    try:
        inputs = device_inputs(rows, cols, n, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result = sum(t.bits.nbytes for t in inputs)
    assert result == n * rows * cols * 2
    assert peak < result + k * (qarsim.analysis._INGEST_TILE * (4 + 4) + 64 * 1024)


def test_auto_minishards_targets_64_chunk_blocks():
    assert auto_minishards(4096 * 4096, 8) == 32
    assert auto_minishards(256 * MIB // 2, 8) == 256
    assert auto_minishards(MIB // 2, 8) == 1  # 64 chunks per shard: one block
    assert auto_minishards(2 * MIB // 2, 8) == 2
    # non power-of-two chunk counts still divide evenly
    assert (8 * 96 * 1024) // 1024 // 8 % auto_minishards(8 * 96 * 1024, 8) == 0
    # gcd(p, p // 64), not the largest divisor of p keeping 64 chunks: 200
    # chunks per shard get one grid although 2 divides 200, and 194 get one
    # rather than 2 grids of 97.
    assert auto_minishards(8 * 200 * 1024, 8) == 1
    assert auto_minishards(8 * 194 * 1024, 8) == 1


def test_tradeoff_study_table():
    results = tradeoff_study(512, 512, num_devices=4, seed=3)
    assert [r.flavor for r in results] == list(FLAVORS)
    base = results[0]
    assert base.mse == 0.0 and base.predicted_speedup == 1.0
    assert base.codec == "bf16" and base.stages == "none"
    naive = results[1]
    assert naive.codec == "f8e5m2" and naive.stages == "cast"
    assert naive.mse > 0.0
    by_name = {r.flavor: r for r in results}
    assert by_name["full_both"].variant == "full_loop"
    assert by_name["semi_both"].variant == "semi_loop"
    assert by_name["full_rs"].stages == "rs"
    assert by_name["full_ag"].stages == "ag"
    for r in results:
        assert (r.num_devices, r.rows, r.cols, r.seed) == (4, 512, 512, 3)
        assert r.minishards == 1 and r.microshards == 2
        assert r.predicted_speedup > 0.0
        row = r.to_row()
        assert tuple(row) == CSV_COLUMNS
        assert row["N"] == 4 and row["m"] == 1 and row["u"] == 2
    # quantizing both stages hurts accuracy at least as much as one stage
    assert by_name["full_both"].mse >= by_name["full_ag"].mse
    assert by_name["full_both"].mse < by_name["naive"].mse


# sha256 of the output bits each collective of tradeoff_study(512, 1024, 8)
# hands to mse, recorded before the study shared its reduce-scatters.
STUDY_DIGESTS = {
    "baseline": "bd5c7cc684c1138a998cf94f8cd5dcf352cfa99ab194e6f82d0d2dbb3dfbbdda",
    "naive": "664fcacab500ae93b7ba5f3b05eff217abb2b2d7b52026435d570ee4c86fa14a",
    "full_rs": "0413e221edddbfeb7ff4064b2ced34b1dc06bacfde3ae80cef20e3260cef2c3e",
    "full_ag": "a60da3f798f9727076747633f19af17412851e531a3664d0fd6d656e555d1ac4",
    "full_both": "60273814b32fcd07781a5604225b459c2ed99f7aa8011af7dff2ee7abe76760d",
    "semi_rs": "4bd38961264c18b21b7309d9ffb939959cd62bc896770950d54c142812cc5268",
    "semi_ag": "7b1f162dae9fb0319358495cb7916cb333cbe66cb03b338489731f64a58b512e",
    "semi_both": "d70f359d32e09edf1133f430205be07b72b51d23ba976fb8a9e22567f8616673",
}


def test_tradeoff_flavor_outputs_are_pinned(monkeypatch):
    # Observed at the three names the study calls, as the benchmark's checks are.
    flavor_of = {(v, q_rs, q_ag): f for f, (v, q_rs, q_ag) in qarsim.analysis._FLAVOR_DEFS.items()}
    digests = {}

    def observe(name, fn, flavor):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            digests[flavor(args)] = hashlib.sha256(out[0].data.tobytes()).hexdigest()
            return out
        monkeypatch.setattr(qarsim.analysis, name, wrapper)

    observe("baseline_allreduce_bf16", qarsim.analysis.baseline_allreduce_bf16,
            lambda a: "baseline")
    observe("naive_lowp_allreduce", qarsim.analysis.naive_lowp_allreduce, lambda a: "naive")
    observe("all_reduce", qarsim.analysis.all_reduce,
            lambda a: flavor_of[a[1].variant, a[1].quantize_rs, a[1].quantize_ag])
    tradeoff_study(512, 1024, 8)
    assert digests == STUDY_DIGESTS


def test_tradeoff_study_mses_are_the_exact_mean_to_an_ulp(monkeypatch):
    # Each MSE the study reports is math.fsum of the float64 squares over n,
    # or within one ulp of it.
    seen = []

    def checked_mse(a, b):
        err = mse(a, b)
        d = a.data.astype(np.float64) - b.data
        exact = math.fsum((d * d).tolist()) / d.size
        seen.append(err)
        assert abs(err - exact) <= math.ulp(exact)
        return err

    monkeypatch.setattr(qarsim.analysis, "mse", checked_mse)
    results = tradeoff_study(512, 1024, 8)
    assert sorted(seen) == sorted(r.mse for r in results[1:])  # every flavor but the baseline


def test_tradeoff_study_keeps_at_most_one_shared_reduce_scatter_alive():
    # The 8 BF16 inputs (half a float32 tensor each) plus three tensors (the
    # baseline output, one reduce-scatter result and one flavor output, which
    # is dropped after its MSE) plus the mse's 1 MiB buffer and a 1 MiB
    # margin.
    tensor_bytes = 512 * 1024 * 4
    mse_buffer = qarsim.analysis._MSE_BUF_ELEMS * 8
    tracemalloc.start()
    try:
        tradeoff_study(512, 1024, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (8 / 2 + 3) * tensor_bytes + mse_buffer + MIB


def test_tradeoff_study_deterministic():
    a = tradeoff_study(512, 512, num_devices=4, seed=9)
    b = tradeoff_study(512, 512, num_devices=4, seed=9)
    assert a == b
    c = tradeoff_study(512, 512, num_devices=4, seed=10)
    assert [r.mse for r in c] != [r.mse for r in a]


def test_tradeoff_study_codec_selection():
    results = tradeoff_study(512, 512, num_devices=4, seed=3, codec=Codec.F8E4M3)
    by_name = {r.flavor: r for r in results}
    assert by_name["full_both"].codec == "f8e4m3"
    assert by_name["naive"].codec == "f8e5m2"  # pinned regardless of study codec


def test_size_sweep_ratio_shape():
    sizes = [MIB, 4 * MIB, 16 * MIB, 64 * MIB]
    points = size_sweep(sizes, num_devices=8)
    assert [p.size_bytes for p in points] == sizes
    for p in points:
        assert p.ratio == pytest.approx(p.flavor_time_s / p.baseline_time_s, rel=1e-12)
        assert tuple(p.to_row()) == SWEEP_COLUMNS
    ratios = [p.ratio for p in points]
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))  # non-increasing
    assert ratios[0] > 0.9  # latency-bound small end sits near parity
    assert ratios[-1] < 0.65  # bandwidth-bound large end approaches the halved wire


def test_size_sweep_respects_variant():
    points = size_sweep([4 * MIB], variant=Variant.SEMI_LOOP, num_devices=8)
    full = size_sweep([4 * MIB], variant=Variant.FULL_LOOP, num_devices=8)
    assert points[0].baseline_time_s == full[0].baseline_time_s  # shared baseline
    assert points[0].flavor_time_s != full[0].flavor_time_s


def test_render_csv_and_json():
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": float(np.float32(1.1))}]
    text = render_csv(rows, ("a", "b"))
    assert text.split("\n")[0] == "a,b"
    assert text == render_csv(rows, ("a", "b"))  # byte-stable
    parsed = __import__("json").loads(render_json(rows))
    assert parsed == rows
