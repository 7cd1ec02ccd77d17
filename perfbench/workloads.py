"""The benchmark's workloads: one caller, closed loop, one pass per call.

Each workload names the layers it exercises and the ones it bypasses, so
that a change to one layer shows on one workload and reads as no change on
another (see README.md for the layer -> metric map).

Sizes are fields so that the smoke test can run the same code on tiny inputs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from harness import Probes, all_reduce_key, collective_observations, text_digest

import qarsim.analysis
import qarsim.collectives
from qarsim.collectives import CollectiveConfig, Variant
from qarsim.layout import PartitionSpec
from qarsim.numerics import Codec

MIB = 1 << 20

# The six quantized flavors of the paper's table: (variant, quantize_rs, quantize_ag).
QUANT_FLAVORS = {
    "full_rs": (Variant.FULL_LOOP, True, False),
    "full_ag": (Variant.FULL_LOOP, False, True),
    "full_both": (Variant.FULL_LOOP, True, True),
    "semi_rs": (Variant.SEMI_LOOP, True, False),
    "semi_ag": (Variant.SEMI_LOOP, False, True),
    "semi_both": (Variant.SEMI_LOOP, True, True),
}

# Tradeoff CSV columns compared exactly; mse is compared within a band and
# seed must equal the run's seed.
_TABLE_COLUMNS = ("flavor", "variant", "stages", "codec", "N", "rows", "cols", "m", "u",
                  "predicted_speedup")


@dataclass(frozen=True)
class TradeoffInt8:
    """`qarsim tradeoff`: the paper's headline table, in-process through cli.main.

    At 2048x2048, N=8, INT8 the CLI picks m=8, u=2. Most of a pass is the
    naive f8e5m2 ring and the six INT8 all_reduce flavors; round_to_bf16,
    the FP8 cast ring, INT8 quantize_shard and the N x N ingest array show here.
    """

    rows: int = 2048
    cols: int = 2048
    num_devices: int = 8
    name = "tradeoff_int8"
    setup_inputs = None

    def setup(self, seed: int):
        return None

    def run_pass(self, probes: Probes, seed: int, state) -> None:
        rc, text = probes.cli(["tradeoff", "--rows", str(self.rows), "--cols", str(self.cols),
                               "--num-devices", str(self.num_devices), "--codec", "int8",
                               "--seed", str(seed)])
        probes.check("cli.tradeoff", lambda: tradeoff_observations(rc, text, seed))


def tradeoff_observations(rc: int, text: str, seed: int) -> list:
    rows = list(csv.DictReader(io.StringIO(text)))
    obs = [("ok", "tradeoff.exit_code", rc == 0),
           ("ok", "tradeoff.seed_column", bool(rows) and all(r["seed"] == str(seed) for r in rows)),
           ("static", "tradeoff.table", [[r[c] for c in _TABLE_COLUMNS] for r in rows])]
    obs += [("mse", f"tradeoff.mse.{r['flavor']}", float(r["mse"])) for r in rows]
    return obs


@dataclass(frozen=True)
class Fp8DeepRing:
    """BF16 baseline plus the six flavors with F8E4M3 through all_reduce, N=16.

    auto_minishards gives m=1 at 1024x1024, so the full loop puts every
    minishard on the clockwise ring; the ring is twice as deep as in
    tradeoff_int8 and every hop handles a small array. FP8-E4M3 encoding and
    per-hop Python overhead dominate.
    """

    rows: int = 1024
    cols: int = 1024
    num_devices: int = 16
    name = "fp8_deep_ring"

    @property
    def setup_inputs(self) -> tuple:
        return (self.rows, self.cols, self.num_devices)

    def setup(self, seed: int):
        inputs = qarsim.analysis.device_inputs(self.rows, self.cols, self.num_devices, seed)
        m = qarsim.analysis.auto_minishards(self.rows * self.cols, self.num_devices)
        return inputs, PartitionSpec(self.num_devices, m, 2)

    def run_pass(self, probes: Probes, seed: int, state) -> None:
        inputs, spec = state
        base = probes.collective(qarsim.collectives.baseline_allreduce_bf16, inputs, spec)
        probes.check("baseline_allreduce_bf16",
                     lambda: collective_observations("baseline_allreduce_bf16", base))
        for flavor, (variant, q_rs, q_ag) in QUANT_FLAVORS.items():
            cfg = CollectiveConfig(variant, spec, quantize_rs=q_rs, quantize_ag=q_ag,
                                   codec=Codec.F8E4M3)
            out = probes.collective(qarsim.collectives.all_reduce, inputs, cfg)
            err = qarsim.analysis.mse(base[0], out[0])
            key = all_reduce_key(cfg)
            probes.check(key, lambda: collective_observations(key, out)
                         + [("mse", f"fp8.mse.{flavor}", err)])


@dataclass(frozen=True)
class SimSweep:
    """`qarsim sweep` 1..256 MiB per ring variant at N=8 and N=16, plus one timeline.

    Simulator only: each size simulates the BF16 baseline and INT8 on both
    stages (m up to 256), and the timeline exports 256 MiB at N=8 as JSONL.
    The functional half does nothing here. Simulated times are deterministic
    outputs of the model and are checked, not measured.
    """

    sizes: tuple = tuple(MIB << i for i in range(9))
    device_counts: tuple = (8, 16)
    timeline_shape: tuple = (8192, 16384)  # 256 MiB of BF16
    name = "sim_sweep"
    setup_inputs = None

    def setup(self, seed: int):
        return None

    def run_pass(self, probes: Probes, seed: int, state) -> None:
        sizes = ",".join(str(s) for s in self.sizes)
        for n in self.device_counts:
            for variant in (v.value for v in Variant):
                key = f"sweep.{variant}.N{n}"
                rc, text = probes.cli(["sweep", "--sizes", sizes, "--num-devices", str(n),
                                       "--variant", variant, "--seed", str(seed)])
                probes.check(key, lambda: [("ok", f"{key}.exit_code", rc == 0),
                                           ("static", key, text_digest(text))])
        rows, cols = self.timeline_shape
        rc, text = probes.cli(["timeline", "--rows", str(rows), "--cols", str(cols),
                               "--num-devices", "8", "--seed", str(seed)])
        probes.check("timeline", lambda: [("ok", "timeline.exit_code", rc == 0),
                                          ("static", "timeline.jsonl", text_digest(text))])


WORKLOADS = {w.name: w for w in (TradeoffInt8(), Fp8DeepRing(), SimSweep())}
