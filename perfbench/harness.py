"""Measurement core of the qarsim benchmark: output checks, probes, spans.

The program under test is the `qarsim` package in the checkout's `src/`.
The benchmark never edits it. It observes it by rebinding public functions
in the namespaces of the qarsim modules that import them by name:

* check probes sit at the consumer boundary (`qarsim.analysis` and
  `qarsim.cli`), so each collective or simulator result a study uses is
  digested once and compared with `goldens.json`;
* span recorders (traced runs only) sit in every qarsim namespace that binds
  a traced function, so calls between modules are seen too.

Time spent digesting outputs is measured and taken out of every pass time
and, in traced runs, recorded as a `bench.check` span so that it never lands
in a qarsim layer's self time.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "qarsim" / "__init__.py").is_file():
    raise SystemExit(f"qarsim sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import qarsim.analysis  # noqa: E402
import qarsim.cli  # noqa: E402

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

# NumPy/BLAS thread pools, pinned by run.py before NumPy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# A study's MSE may differ from the recorded one by this share. MSE over
# millions of elements moves well under 1% between seeds; a numerics bug moves
# it by orders of magnitude. The CSV's MSE text is not compared: its last
# digits depend on the machine's summation order.
MSE_REL_TOL = 0.05


def load_goldens(path: Path = GOLDENS) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


# ---------------------------------------------------------------- checks


def output_digest(arr) -> str:
    """sha256 of an array's dtype, shape and bits."""
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.reshape(-1).view(np.uint8))
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Compares the outputs of each call with the recorded ones.

    An observation is (kind, key, value):
      static  exact match with the seed-independent record;
      seeded  exact match with the record for this seed, or, for a seed with
              no record, with the first value this run saw (determinism);
      mse     within MSE_REL_TOL of the recorded MSE;
      ok      value must be True.
    A call fails when any of its observations fails or when it raised. With
    `record` set, the first value of each key is stored and later ones must
    equal it.
    """

    def __init__(self, golden: dict | None, seed: int, record: bool = False):
        golden = golden or {}
        self.static = golden.get("static", {})
        self.seeded = golden.get("seeded", {}).get(str(seed))
        self.mse_ref = golden.get("mse", {})
        self.record = {"static": {}, "seeded": {}, "mse": {}} if record else None
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, name: str, observations) -> bool:
        self.attempted += 1
        bad = [key for kind, key, value in observations if not self._ok(kind, key, value)]
        if bad:
            self._fail(f"{name}: mismatch at {', '.join(bad)}")
        return not bad

    def raised(self, name: str, exc: BaseException) -> None:
        self.attempted += 1
        self._fail(f"{name}: raised {type(exc).__name__}: {exc}")

    def _fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(msg)

    def _ok(self, kind: str, key: str, value) -> bool:
        if kind == "ok":
            return value is True
        if self.record is not None:
            return self.record[kind].setdefault(key, value) == value
        if kind == "static":
            return self.static.get(key) == value
        if kind == "seeded":
            if self.seeded is not None:
                return self.seeded.get(key) == value
            return self.first.setdefault(key, value) == value
        if kind == "mse":
            ref = self.mse_ref.get(key)
            return ref is not None and abs(value - ref) <= MSE_REL_TOL * ref
        raise ValueError(f"unknown observation kind {kind!r}")


def collective_observations(key: str, outputs) -> list:
    """Digest of the output bits; every device must hold the same bits."""
    digests = {}
    for t in outputs:
        if id(t.data) not in digests:
            digests[id(t.data)] = output_digest(t.data)
    unique = set(digests.values())
    return [("ok", f"{key}.devices_agree", len(unique) == 1), ("seeded", key, unique.pop())]


def _stages(cfg) -> str:
    return {(False, False): "none", (True, False): "rs",
            (False, True): "ag", (True, True): "both"}[(cfg.quantize_rs, cfg.quantize_ag)]


def _spec_tag(spec) -> str:
    return f"N{spec.num_devices}.m{spec.minishards_per_shard}.u{spec.microshards_per_minishard}"


def all_reduce_key(cfg) -> str:
    return f"all_reduce.{cfg.variant.value}.{_stages(cfg)}.{cfg.codec.value}"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# ---------------------------------------------------------------- spans


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int
    pass_id: int
    counts: dict | None = None


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.pass_id = 0

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1,
                    self.pass_id)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self.stack.pop()

    def write_jsonl(self, path: Path) -> None:
        with path.open("w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start_ns,
                                    "end_ns": s.end_ns, "parent": s.parent,
                                    "pass": s.pass_id, "counts": s.counts}) + "\n")


def self_times(spans: list[Span]) -> tuple[list[int], int]:
    """Per-span self time in ns (duration minus the children's durations).

    Returns the self times and the number of invariant violations: a child
    outside its parent's interval, or a negative self time.
    """
    selfs = [s.end_ns - s.start_ns for s in spans]
    bad = 0
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start_ns < p.start_ns or s.end_ns > p.end_ns:
                bad += 1
            selfs[s.parent] -= s.end_ns - s.start_ns
    bad += sum(1 for v in selfs if v < 0)
    return selfs, bad


# Traced public functions: (defining module, attribute) ->
#   (span name, or a function of the call's arguments giving it;
#    count function of (args, kwargs, result) giving exact work counts).
def _codec_name(prefix):
    return lambda a, kw: f"{prefix}.{_arg(a, kw, 1, 'codec').value}"


def _elems(index, name):
    return lambda a, kw, r: {"elems": int(np.size(_arg(a, kw, index, name)))}


TRACED = {
    ("qarsim.numerics", "round_to_bf16"): ("numerics.round_to_bf16", _elems(0, "x")),
    ("qarsim.numerics", "encode"): (_codec_name("numerics.encode"), _elems(0, "values")),
    ("qarsim.numerics", "decode"): (_codec_name("numerics.decode"), _elems(0, "codes")),
    ("qarsim.quant", "quantize_shard"): (
        "quant.quantize_shard",
        lambda a, kw, r: {"elems": int(_arg(a, kw, 0, "blocks").size), "wire_bytes": r.wire_bytes},
    ),
    ("qarsim.quant", "dequantize_shard"): (
        "quant.dequantize_shard", lambda a, kw, r: {"elems": int(_arg(a, kw, 0, "q").payload.size)},
    ),
    ("qarsim.collectives", "all_reduce"): ("collectives.all_reduce", None),
    ("qarsim.collectives", "naive_lowp_allreduce"): ("collectives.naive_lowp_allreduce", None),
    ("qarsim.simnet", "simulate"): ("simnet.simulate", lambda a, kw, r: {"events": len(r.events)}),
    ("qarsim.simnet", "simulate_naive"): (
        "simnet.simulate_naive", lambda a, kw, r: {"events": len(r.events)},
    ),
    # json.dumps escapes non-ASCII, so the JSONL text's length is its byte count.
    ("qarsim.simnet", "Timeline.to_jsonl"): (
        "simnet.Timeline.to_jsonl", lambda a, kw, r: {"bytes": len(r)},
    ),
    ("qarsim.analysis", "device_inputs"): ("analysis.device_inputs", None),
    ("qarsim.analysis", "mse"): ("analysis.mse", None),
    ("qarsim.analysis", "tradeoff_study"): ("analysis.tradeoff_study", None),
    ("qarsim.analysis", "size_sweep"): ("analysis.size_sweep", None),
    ("qarsim.cli", "main"): ("cli.main", None),
}

# Per-layer metrics a traced run reports: span name -> stats. busy_s is the
# spans' total duration, self_s the duration minus traced children.
LAYER_STATS = {"numerics.round_to_bf16": ("calls", "elems", "busy_s")}
for _codec in ("int8", "f8e4m3", "f8e5m2"):
    for _op in ("encode", "decode"):
        LAYER_STATS[f"numerics.{_op}.{_codec}"] = ("calls", "elems", "busy_s")
LAYER_STATS.update({
    "quant.quantize_shard": ("calls", "elems", "self_s", "wire_bytes"),
    "quant.dequantize_shard": ("calls", "elems", "self_s"),
    "collectives.all_reduce": ("calls", "self_s"),
    "collectives.naive_lowp_allreduce": ("calls", "self_s"),
    "simnet.simulate": ("calls", "events", "busy_s"),
    "simnet.simulate_naive": ("calls", "events", "busy_s"),
    "simnet.Timeline.to_jsonl": ("calls", "bytes", "busy_s"),
    "analysis.device_inputs": ("busy_s",),
    "analysis.mse": ("busy_s",),
    "analysis.tradeoff_study": ("self_s",),
    "analysis.size_sweep": ("self_s",),
    "cli.main": ("self_s",),
})
STAT_UNITS = {"calls": "count", "elems": "count", "events": "count",
              "wire_bytes": "B", "bytes": "B", "busy_s": "s", "self_s": "s"}
COUNT_STATS = ("calls", "elems", "events", "wire_bytes", "bytes")
OVERHEAD_METRIC = "trace.overhead_frac"


def layer_metric_units() -> dict[str, str]:
    units = {f"{layer}.{stat}": STAT_UNITS[stat]
             for layer, stats in LAYER_STATS.items() for stat in stats}
    units[OVERHEAD_METRIC] = "ratio"
    return units


def layer_totals(spans: list[Span], selfs: list[int], pass_ids) -> dict[str, float]:
    """Sum each layer metric over the spans of the given passes."""
    out = {f"{layer}.{stat}": 0 if stat in COUNT_STATS else 0.0
           for layer, stats in LAYER_STATS.items() for stat in stats}
    for s, self_ns in zip(spans, selfs):
        stats = LAYER_STATS.get(s.name)
        if stats is None or s.pass_id not in pass_ids:
            continue
        values = dict(s.counts or {}, calls=1, busy_s=(s.end_ns - s.start_ns) * 1e-9,
                      self_s=self_ns * 1e-9)
        for stat in stats:
            out[f"{s.name}.{stat}"] += values[stat]
    return out


# ---------------------------------------------------------------- probes


@dataclass
class PassStats:
    """Host time and work of the calls the probes saw in one pass."""

    check_s: float = 0.0
    collective_s: float = 0.0
    reduced_elems: int = 0
    sim_s: float = 0.0
    sim_events: int = 0


@dataclass
class Probes:
    """Check probes, and span recorders when a tracer is given."""

    checker: Checker
    tracer: Tracer | None = None
    stats: PassStats = field(default_factory=PassStats)

    @contextlib.contextmanager
    def checking(self):
        """Time spent checking outputs: excluded from pass time and self times."""
        span = self.tracer.open("bench.check") if self.tracer else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stats.check_s += time.perf_counter() - t0
            if span:
                self.tracer.close(span)

    def check(self, name: str, observe) -> bool:
        with self.checking():
            return self.checker.call(name, observe())

    def collective(self, fn, *args, **kwargs):
        """Call a collective from the benchmark's own code, timing it."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.stats.collective_s += time.perf_counter() - t0
        self.stats.reduced_elems += len(out) * out[0].data.size
        return out

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Run `qarsim <argv>` in-process and return its exit code and stdout."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = qarsim.cli.main(argv)
        return rc, buf.getvalue()

    # -- wrappers

    def _traced(self, fn, name, count):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            span = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def _checked(self, fn, kind, key_of):
        def wrapper(*args, **kwargs):
            key = key_of(args, kwargs)
            if kind == "collective":
                result = self.collective(fn, *args, **kwargs)
                self.check(key, lambda: collective_observations(key, result))
                return result
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.stats.sim_s += time.perf_counter() - t0
            self.stats.sim_events += len(result.events)
            self.check(key, lambda: [("static", key, [result.total_time, len(result.events)])])
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Bind the probes into the qarsim namespaces; restore them on exit."""
        saved = []

        def rebind(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        originals = {}
        if self.tracer is not None:
            for (mod_name, attr), (name, count) in TRACED.items():
                owner = importlib.import_module(mod_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    fn = owner.__dict__[attr]
                    originals[fn] = self._traced(fn, name, count)
                    rebind(owner, attr, originals[fn])
                    continue
                fn = getattr(owner, attr)
                originals[fn] = self._traced(fn, name, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "qarsim" or mod_name.startswith("qarsim.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if callable(value) and value in originals:
                        rebind(mod, attr, originals[value])
        for mod, attr, kind, key_of in CHECKED:
            rebind(mod, attr, self._checked(getattr(mod, attr), kind, key_of))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)


def _simulate_key(a, kw):
    cfg = _arg(a, kw, 0, "cfg")
    return (f"simulate.{cfg.variant.value}.{_stages(cfg)}.{cfg.codec.value}."
            f"{_spec_tag(cfg.spec)}.{_arg(a, kw, 1, 'tensor_bytes')}B")


def _simulate_naive_key(a, kw):
    return f"simulate_naive.{_spec_tag(_arg(a, kw, 0, 'spec'))}.{_arg(a, kw, 1, 'tensor_bytes')}B"


# Check probes at the consumer boundary: (module, attribute, kind, call key).
CHECKED = (
    (qarsim.analysis, "baseline_allreduce_bf16", "collective",
     lambda a, kw: "baseline_allreduce_bf16"),
    (qarsim.analysis, "all_reduce", "collective",
     lambda a, kw: all_reduce_key(_arg(a, kw, 1, "cfg"))),
    (qarsim.analysis, "naive_lowp_allreduce", "collective",
     lambda a, kw: f"naive_lowp_allreduce.{_arg(a, kw, 1, 'codec').value}"),
    (qarsim.analysis, "simulate", "sim", _simulate_key),
    (qarsim.analysis, "simulate_naive", "sim", _simulate_naive_key),
    (qarsim.cli, "simulate", "sim", _simulate_key),
    (qarsim.cli, "simulate_naive", "sim", _simulate_naive_key),
)
