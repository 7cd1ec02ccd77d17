"""Golden digests that pin both halves of the ring schedule bit for bit.

Each case hashes a family of outputs into one sha256:

* simulator timelines (`Timeline.to_jsonl`, so event order, resources,
  times and labels all count) for every (variant, RS hop kind, AG hop kind)
  and for the naive and ideal 2:1 rings, over specs that cover N=2 (the
  semi-loop CW arc is empty), N=8, m=1 (the full-loop CCW ring carries
  nothing when quantized), m=3 (uneven minishard split), u in {1, 2}, with
  `fuse_recv_pass` off and on; a second family repeats every case at
  N=16 (m=1, and m=3 with u=2) and N=32 (m=1, u=1), where each simulated
  device's events are derived from device 0's; a third covers odd rings,
  N in {3, 5, 7}, for every full-loop case and the naive and ideal rings
  (the semi loop needs an even N);
* the output bits of `all_reduce` for every flavor and codec, of the BF16
  baseline and of the naive ring, at N in {2, 4, 8} and m in {1, 3};
* the same outputs for inputs with non-finite values and values near
  BF16_MAX planted in every shard (`nonfinite_inputs`). These pin which NaN
  payload survives an owner merge, the quantized flavors turning +-inf into
  NaN, and overflow of near-max sums. The collectives silence NumPy's
  invalid/overflow flags for these inputs; no warning may escape them.

A refactor of the schedule must leave every digest unchanged. To print the
current digests, each one that differs from the recorded digest marked
`# changed`:

    PYTHONPATH=src python -m tests.test_schedule_goldens
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qarsim
from qarsim.analysis import device_inputs
from qarsim.collectives import (
    CollectiveConfig,
    Variant,
    all_reduce,
    baseline_allreduce_bf16,
    naive_lowp_allreduce,
)
from qarsim.layout import CHUNK_ELEMS, Bf16Tensor, PartitionSpec
from qarsim.numerics import BF16_MAX, Codec, bf16_bits
from qarsim.simnet import (
    ComputeParams,
    LinkParams,
    simulate,
    simulate_ideal_2to1,
    simulate_naive,
)

LINK = LinkParams(bandwidth_bytes_per_s=4.5e10, hop_latency_s=1.5e-6)
COMPUTE = ComputeParams(dequant_rate=7e11, add_rate=1.3e12, scan_rate=1.1e12,
                        encode_rate=9e11, cast_rate=1.7e12)
# (num_devices, minishards_per_shard, microshards_per_minishard)
SIM_SPECS = ((2, 1, 1), (2, 3, 2), (4, 2, 2), (6, 3, 1), (8, 1, 2), (8, 3, 1), (8, 3, 2))
LARGE_SIM_SPECS = ((16, 1, 1), (16, 3, 2), (32, 1, 1))
ODD_SIM_SPECS = ((3, 1, 2), (3, 3, 1), (5, 2, 2), (7, 1, 1), (7, 3, 2))
VALUE_SPECS = tuple((n, m) for n in (2, 4, 8) for m in (1, 3))
STAGES = {"raw": False, "quant": True}


def _sim_runs(specs):
    """(spec, tensor_bytes, compute) for every simulator case."""
    for n, m, u in specs:
        spec = PartitionSpec(n, m, u)
        nbytes = 2 * CHUNK_ELEMS * n * m * u * 2
        for fuse in (False, True):
            yield spec, nbytes, replace(COMPUTE, fuse_recv_pass=fuse)


def sim_digest(case: str, specs=SIM_SPECS) -> str:
    h = hashlib.sha256()
    for spec, nbytes, compute in _sim_runs(specs):
        if case == "naive":
            tl = simulate_naive(spec, nbytes, LINK, compute)
        elif case == "ideal":
            tl = simulate_ideal_2to1(spec, nbytes, LINK, compute)
        else:
            variant, rs, ag = case.split("-")
            cfg = CollectiveConfig(Variant(variant), spec, quantize_rs=STAGES[rs],
                                   quantize_ag=STAGES[ag])
            tl = simulate(cfg, nbytes, LINK, compute)
        h.update(tl.to_jsonl().encode())
    return h.hexdigest()


def _nan(payload: int) -> np.float32:
    return np.array([payload], dtype=np.uint32).view(np.float32)[0]


def nonfinite_inputs(rows: int, cols: int, n: int, seed: int):
    """`device_inputs` with special values planted in every shard.

    Each plant sits once in the first and once in the last third of the
    shard (the CW and CCW parts of the full loop, raw or quantized at m=3),
    and every plant of a shard has its own scale-grid position:
    NaNs with distinct payloads on each pair of devices at one position;
    +inf and -inf at one position; a lone +inf and a lone -inf on the owner;
    0.75 * BF16_MAX on every device (the sum overflows); BF16_MAX on the
    owner alone (it flushes its grid position); and +-BF16_MAX alternating
    over the devices.
    """
    data = [t.values() for t in device_inputs(rows, cols, n, seed)]
    shard = data[0].size // n
    pairs = list(itertools.combinations(range(n), 2))
    step = CHUNK_ELEMS // (len(pairs) + 5)
    big = np.float32(BF16_MAX)
    for s, base in itertools.product(range(n), (0, 2 * shard // 3)):
        pos = iter(range(s * shard + base + 3, (s + 1) * shard, step))
        for a, b in pairs:
            p = next(pos)
            data[a][p] = _nan(0x7FC00000 | (a + 1) << 16)
            data[b][p] = _nan(0xFFC00000 | (b + 1) << 16)
        p = next(pos)
        data[0][p], data[-1][p] = np.inf, -np.inf
        data[s][next(pos)] = np.inf
        data[s][next(pos)] = -np.inf
        p = next(pos)
        for d in range(n):
            data[d][p] = big * np.float32(0.75)
        data[s][next(pos)] = big
        p = next(pos)
        for d in range(n):
            data[d][p] = big if d % 2 else -big
    return [Bf16Tensor(bf16_bits(x), rows, cols) for x in data]


def large_sim_digest(case: str) -> str:
    return sim_digest(case, LARGE_SIM_SPECS)


def odd_sim_digest(case: str) -> str:
    return sim_digest(case, ODD_SIM_SPECS)


def value_digest(case: str, make_inputs=device_inputs) -> str:
    h = hashlib.sha256()
    for n, m in VALUE_SPECS:
        spec = PartitionSpec(n, m, 1)
        inputs = make_inputs(48 * n, 128, n, seed=n + m)
        for codec in Codec:
            if case == "baseline":
                if codec is not Codec.INT8:
                    continue
                outs = baseline_allreduce_bf16(inputs, spec)
            elif case == "naive":
                outs = naive_lowp_allreduce(inputs, codec, spec)
            else:
                variant, rs, ag = case.split("-")
                cfg = CollectiveConfig(Variant(variant), spec, quantize_rs=STAGES[rs],
                                       quantize_ag=STAGES[ag], codec=codec)
                outs = all_reduce(inputs, cfg)
            assert all(o.data.tobytes() == outs[0].data.tobytes() for o in outs[1:])
            h.update(outs[0].data.tobytes())
    return h.hexdigest()


def nonfinite_digest(case: str) -> str:
    with np.errstate(invalid="ignore", over="ignore"):
        return value_digest(case, nonfinite_inputs)


_RING_CASES = [f"{v.value}-{rs}-{ag}" for v in Variant for rs in STAGES for ag in STAGES]
_FULL_LOOP_CASES = [c for c in _RING_CASES if c.startswith(Variant.FULL_LOOP.value)]

SIM_GOLDENS = {
    "full_loop-raw-raw": "ca63555bd7d65cf0530754175c81939446367d68221cbe3c607ccc4956cd7ad1",
    "full_loop-raw-quant": "2073ab7dc392ea1fbc7dd309dc1da107a9ac0790400ac06efacb07e31de8ba6e",
    "full_loop-quant-raw": "bfb4f21bd75ea1dbeb48b948dc00ecd48d48c26ae9862d39bd19bcf9eb2a3182",
    "full_loop-quant-quant": "626ce287e66d6fa28afc6430ddf3d1b2a99e0d092e406d7f34f8a106c77cf9ae",
    "semi_loop-raw-raw": "8d88b330bace97e0d98d9bd95d0ea9fbcefccefe6dcb56641da69c7d49a7612c",
    "semi_loop-raw-quant": "4731d97e31f31bf53f37eabcc4c560663d7be6fe70108e10741d32f7d9976e45",
    "semi_loop-quant-raw": "b2da268e15f86ae33ffe3f46b67cb10d507929a9c5c79cd5ac563775095f7fb5",
    "semi_loop-quant-quant": "6042edb12fdc736ec3710c30b9a729615e03635e09d8d718251873e0f1519ec3",
    "naive": "5b74d11706f3f8982bcc932e5995f0c59cf14558fec4cacd41e1c7e5ac158833",
    "ideal": "759afea6b45db7258289b769ee9d76aa509668380c7424e640723e2f22ab4745",
}

LARGE_SIM_GOLDENS = {
    "full_loop-raw-raw": "938d42b29f8c2319ab3d64d29d905d88f0483d638654e5ee108aa5507140172d",
    "full_loop-raw-quant": "f8764b53c034537d50a8de2177179934586713bc3af6599a34d6a632ecf76bb6",
    "full_loop-quant-raw": "7ec88434aaa73f7b41118e92e133897bc53d5d6a1147734cfc00afcbad79ebeb",
    "full_loop-quant-quant": "8b811f3c80325db3fa5d9f63493d49106c5c5b532de53d7e440eaa552b9ac336",
    "semi_loop-raw-raw": "73b89bed6dfd4219f51aedbd4c46ff11ae9afa40d0132e70ba642937dfcef5c7",
    "semi_loop-raw-quant": "d4e931b712af6e81631349a6d7e463c5b356426b700ccd99d7c322c21ff7eadc",
    "semi_loop-quant-raw": "22ce452f7319e3da00fb0819fcd344fa91f4f0eea6b28bba4f28a28d824727f8",
    "semi_loop-quant-quant": "724e077ca084c0fa40da49e55a4735d5587db095b1e03797fb7c9084b9da90c2",
    "naive": "b953262ffc3730ee1487e5a9d4ac936fc0da7bc40b6374a71620a663c33cb121",
    "ideal": "de91142e52b7b2b3e8300188f991f2dd247fd9c835d3329bccba219f512be3f1",
}

ODD_SIM_GOLDENS = {
    "full_loop-raw-raw": "1996e7e607ae76488e0ec1677c04b07150ef6e26a164a74df607503d1b5afcab",
    "full_loop-raw-quant": "540498b0459f76bdd4f9b1f55acb4c961f0544d2ad35ffb2ea7e721e6f5fdab1",
    "full_loop-quant-raw": "0bc03e6e6ab26ba2f435da4c2b09dc5fdf5ef66e23da3c2f0fdc303aebe5cca7",
    "full_loop-quant-quant": "16b3dd2ad19ff12a32f7aab1897b0acc5c131b2177b6a446084e93eceb81034e",
    "naive": "80fa5bb77556ac0e50179e9b9e9d2dc1ee07abd7d68fdceae2699ff4905abfc6",
    "ideal": "4809bff199309fe7f7705232210dda9338ffb77b1055af3a43a703d64d473b0b",
}

VALUE_GOLDENS = {
    "full_loop-raw-raw": "d713fb3771a911b83b653fb1dfe540ff2055919824d698dc8c4495b79e1309bf",
    "full_loop-raw-quant": "04eb9c1a0a2e6d22345e9039fa25a70abbd58b107db6fe0f19a00a77c0e2091d",
    "full_loop-quant-raw": "5f73512e079b12b25e2773c12fb4b3902eefc883ea4036db53d502c261a89be5",
    "full_loop-quant-quant": "092beb7e5a85d30ba5667386acb6c34a52efbf23d8c20a35d3fd47f4f9fdd790",
    "semi_loop-raw-raw": "6b4ed16f37722159e30d320b474f4f1e4a670d68974c6ab61808f97844f6d362",
    "semi_loop-raw-quant": "1e63b685e0a31e639439eaffe756ada4a7b76ff60bcae7d81ff69552d59606b1",
    "semi_loop-quant-raw": "5ad1675c6ea637b89a6d31bc42d720b198b1210fc02c1bc7212c1254440aaf4f",
    "semi_loop-quant-quant": "84f22828c4604a9722a5e2906861142eeec8a2ea63ae7cdd9a29d011ce3b7d57",
    "baseline": "919ba6943de41876bb10d68d1cc4df5b22a6b73d4999d830e57be84c696d048c",
    "naive": "4c6bcf7826048e8956e804e074036e984b7d88a8418f734571bcc8f440ab7ed8",
}


NONFINITE_GOLDENS = {
    "full_loop-raw-raw": "fef792e5428699e862c467d13d427ad2e3d593f583891d355870aac869f72fb5",
    "full_loop-raw-quant": "98e08d645704a1182c6e43c162026bc4ba12c8a74decee0fddbf16b625c5c7d3",
    "full_loop-quant-raw": "ac27e4e01eca925f0cd730b13fdd556a5faec5a3d4e52194ba4a745b6333d5ad",
    "full_loop-quant-quant": "90e0a84b5afb0e88388bf938cdcce9be6a7af5e9d32911901f8c853b57b5f33c",
    "semi_loop-raw-raw": "07831dc1ca2e090d28b20ee37e31fc57b417a02498663a3c01ae4382e1691e6b",
    "semi_loop-raw-quant": "9bb38dc74b6306e048e6aa20b85f243236134a80eeb8e57de078772fbb575126",
    "semi_loop-quant-raw": "d9c1cdf352ae30f34d44b862552040babfe56b00825781a1bde48184db700956",
    "semi_loop-quant-quant": "07e122d03842cd5ee4762323e72d05b60b2cd8e3687b835d3bb46bad14e20ad7",
    "baseline": "8ba122d69278c16ff5480e08f4d40ef477c331b53e5518100735ae150a47a7ba",
    "naive": "8878dcccbddd469aa079c43d9da75bc8e3cee51f26005031e51b298f7cb819cc",
}


@pytest.mark.parametrize("case", list(SIM_GOLDENS))
def test_simulator_timeline_digest(case):
    assert sim_digest(case) == SIM_GOLDENS[case]


@pytest.mark.parametrize("case", list(LARGE_SIM_GOLDENS))
def test_large_ring_timeline_digest(case):
    assert large_sim_digest(case) == LARGE_SIM_GOLDENS[case]


@pytest.mark.parametrize("case", list(ODD_SIM_GOLDENS))
def test_odd_ring_timeline_digest(case):
    assert odd_sim_digest(case) == ODD_SIM_GOLDENS[case]


@pytest.mark.parametrize("case", list(VALUE_GOLDENS))
def test_functional_output_digest(case):
    assert value_digest(case) == VALUE_GOLDENS[case]


def test_value_digests_hold_on_numpys_baseline_simd_path():
    # Every VALUE_GOLDENS digest and the tradeoff study's STUDY_MSES (its
    # streamed all-gathers and blockwise MSE), recomputed in a child
    # interpreter with all of NumPy's dispatched SIMD targets switched off,
    # as on a host without them.
    from numpy._core._multiarray_umath import __cpu_dispatch__
    from test_analysis import STUDY_MSES

    src = str(Path(qarsim.__file__).parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import json, test_schedule_goldens as g\n"
            "from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__\n"
            "from qarsim.analysis import tradeoff_study\n"
            "assert not any(__cpu_features__[t] for t in __cpu_dispatch__)\n"
            "print(json.dumps([{c: g.value_digest(c) for c in g.VALUE_GOLDENS},\n"
            "                  {r.flavor: repr(r.mse) for r in tradeoff_study(512, 1024, 8)}]))")
    child = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent, env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [VALUE_GOLDENS, STUDY_MSES]


@pytest.mark.parametrize("case", list(NONFINITE_GOLDENS))
def test_nonfinite_output_digest(case):
    assert nonfinite_digest(case) == NONFINITE_GOLDENS[case]


@pytest.mark.parametrize("case", list(NONFINITE_GOLDENS))
def test_nonfinite_inputs_raise_no_warning(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value_digest(case, nonfinite_inputs)


def test_goldens_cover_every_case():
    assert list(SIM_GOLDENS) == _RING_CASES + ["naive", "ideal"]
    assert list(LARGE_SIM_GOLDENS) == list(SIM_GOLDENS)
    assert list(ODD_SIM_GOLDENS) == _FULL_LOOP_CASES + ["naive", "ideal"]
    assert list(VALUE_GOLDENS) == _RING_CASES + ["baseline", "naive"]
    assert list(NONFINITE_GOLDENS) == list(VALUE_GOLDENS)


def _print_goldens(name: str, recorded: dict, digest, cases: list[str]) -> None:
    """Print one goldens dict, marking each digest that differs from the recorded one."""
    print(f"{name} = {{")
    for c in cases:
        d = digest(c)
        print(f'    "{c}": "{d}",' + ("" if recorded.get(c) == d else "  # changed"))
    print("}")


if __name__ == "__main__":
    _print_goldens("SIM_GOLDENS", SIM_GOLDENS, sim_digest, _RING_CASES + ["naive", "ideal"])
    print()
    _print_goldens("LARGE_SIM_GOLDENS", LARGE_SIM_GOLDENS, large_sim_digest,
                   _RING_CASES + ["naive", "ideal"])
    print()
    _print_goldens("ODD_SIM_GOLDENS", ODD_SIM_GOLDENS, odd_sim_digest,
                   _FULL_LOOP_CASES + ["naive", "ideal"])
    print()
    _print_goldens("VALUE_GOLDENS", VALUE_GOLDENS, value_digest, _RING_CASES + ["baseline", "naive"])
    print()
    _print_goldens("NONFINITE_GOLDENS", NONFINITE_GOLDENS, nonfinite_digest,
                   _RING_CASES + ["baseline", "naive"])
