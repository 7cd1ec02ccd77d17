"""Command-line behavior: precedence, schemas, exit codes, determinism."""

import argparse
import csv
import hashlib
import json
import os
import runpy
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest
from test_simnet import finished_walks

import qarsim.analysis
import qarsim.cli as cli
from qarsim.analysis import auto_minishards
from qarsim.cli import RunConfig, _build_parser, build_config, main
from qarsim.collectives import CollectiveConfig, Variant
from qarsim.layout import PartitionSpec
from qarsim.presets import DEFAULT_PRESET, available_presets, load_preset
from qarsim.quant import GRID_BYTES
from qarsim.simnet import ComputeParams, LinkParams, simulate, simulate_naive

MIB = 1 << 20
SCRIPTS = Path(__file__).parents[1] / "scripts"
SMALL = {"rows": 256, "cols": 512, "num_devices": 4, "seed": 7}


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(argv):
    return main(argv)


def test_simulate_writes_result_file(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "res.json"
    assert run(["simulate", "--config", cfg, "--format", "json", "--output", str(out)]) == 0
    rec = json.loads(out.read_text())[0]
    assert rec["N"] == 4 and rec["rows"] == 256 and rec["cols"] == 512
    assert rec["seed"] == 7
    assert rec["mse"] > 0.0
    assert rec["total_time_s"] > 0.0
    assert rec["idle_time_s"] >= 0.0
    assert rec["stages"] == "both"


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"rows": 256, "bogus_key": 1})
    assert run(["simulate", "--config", cfg]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_unknown_nested_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(SMALL, link={"warp_factor": 9}))
    assert run(["simulate", "--config", cfg]) == 2
    assert "warp_factor" in capsys.readouterr().err


def test_bad_json_reports_line(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "rows": 256,\n  oops\n}')
    assert run(["simulate", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err


def test_config_directory_exits_2(tmp_path, capsys):
    assert run(["simulate", "--config", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(tmp_path) in err and "Traceback" not in err


def test_output_in_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert run(["simulate", "--config", write_cfg(tmp_path, SMALL), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("config error: ") and str(out) in captured.err


@pytest.mark.parametrize("output", ["missing/x.csv", "file/x.csv", "directory", "x" * 300],
                         ids=["missing", "file", "directory", "name-too-long"])
def test_unwritable_output_exits_2_before_the_command_runs(output, tmp_path, capsys, monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("the command ran although its output cannot be written")

    monkeypatch.setattr(cli, "tradeoff_study", not_called)
    (tmp_path / "file").write_text("")
    (tmp_path / "directory").mkdir()
    out = tmp_path / output
    assert run(["tradeoff", "--config", write_cfg(tmp_path, SMALL), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    # Nothing was written: a 300-character name cannot even be tested with is_file().
    assert captured.out == "" and sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "directory", "file"]
    assert not any((tmp_path / "directory").iterdir())
    assert captured.err.startswith(f"config error: cannot write output file {out}")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a /dev/full device")
def test_output_the_file_system_cannot_hold_exits_2(capsys):
    # The pre-check passes (/dev is a directory); the write itself fails.
    assert run(["bounds", "--output", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("config error: cannot write output file /dev/full")
    assert "No space left on device" in captured.err


@pytest.mark.parametrize("argv, code", [([], 0), (["--codec", "int4"], 2)], ids=["ok", "bad-codec"])
def test_module_entry_point_exits_with_mains_code(argv, code, capsys):
    # `python -m qarsim.cli` runs entrypoint, which exits with main's return code.
    argv = ["bounds", "--rows", "64", "--cols", "128", "--num-devices", "2", *argv]
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-m", "qarsim.cli", *argv],
                           env=env, capture_output=True, text=True)
    assert child.returncode == code, child.stderr
    assert run(argv) == code
    assert child.stdout == capsys.readouterr().out
    if code == 0:
        assert child.stdout.startswith("N,tensor_bytes,bandwidth_bytes_per_s,")
    else:
        assert child.stdout == "" and "field 'codec'" in child.stderr


def test_wrong_type_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(SMALL, rows="many"))
    assert run(["simulate", "--config", cfg]) == 2
    assert "rows" in capsys.readouterr().err


def test_bad_enum_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(SMALL, codec="int4"))
    assert run(["simulate", "--config", cfg]) == 2
    assert "codec" in capsys.readouterr().err


def test_divisibility_exits_3(capsys):
    assert run(["simulate", "--rows", "100", "--cols", "100"]) == 3
    assert "DivisibilityError" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--rows", "100", "--cols", "100"],
    ["--rows", "64", "--cols", "128", "--num-devices", "3", "--minishards", "5"],
    ["--rows", "1024", "--cols", "1024", "--minishards", "3"],
], ids=["chunks", "devices", "minishards"])
def test_bounds_rejects_a_shape_no_collective_can_partition(argv, capsys):
    assert run(["bounds", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("DivisibilityError: ")


def test_semi_loop_odd_ring_exits_3(capsys):
    assert run(["simulate", "--variant", "semi_loop", "--num-devices", "5",
                "--rows", "640", "--cols", "1024"]) == 3
    assert "SemiLoopOddNError" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bounds_leaves_the_semi_loop_cells_empty_on_an_odd_ring(fmt, capsys):
    # `simulate --variant semi_loop` exits 3 on this shape; its bounds are blank, not numbers.
    argv = ["--rows", "24", "--cols", "128", "--num-devices", "3", "--microshards", "1"]
    assert run(["simulate", "--variant", "semi_loop", *argv]) == 3
    capsys.readouterr()
    assert run(["bounds", *argv, "--bandwidth", "1e9", "--format", fmt]) == 0
    out = capsys.readouterr().out
    (rec,) = json.loads(out) if fmt == "json" else csv.DictReader(out.splitlines())
    empty = None if fmt == "json" else ""
    assert rec["semi_loop_bound_s"] == rec["semi_loop_quant_bound_s"] == empty
    assert float(rec["full_loop_bound_s"]) == pytest.approx(2 * 24 * 128 * 2 / 6e9)
    assert float(rec["full_loop_quant_bound_s"]) > 0


def test_flags_override_config_file(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "r.json"
    assert run(["simulate", "--config", cfg, "--rows", "512", "--seed", "11",
                "--format", "json", "--output", str(out)]) == 0
    rec = json.loads(out.read_text())[0]
    assert rec["rows"] == 512  # flag beats file
    assert rec["cols"] == 512  # file beats default
    assert rec["seed"] == 11


def test_link_override_reaches_bounds(tmp_path):
    out = tmp_path / "b.json"
    assert run(["bounds", "--num-devices", "4", "--rows", "2048", "--cols", "2048",
                "--bandwidth", "1e9", "--format", "json", "--output", str(out)]) == 0
    rec = json.loads(out.read_text())[0]
    assert rec["full_loop_bound_s"] == pytest.approx(0.003145728, rel=1e-12)
    assert rec["semi_loop_bound_s"] == pytest.approx(8 * 2**20 / 2e9, rel=1e-12)


def test_bounds_quantized_columns_bound_a_quantized_reduce_scatter(tmp_path, capsys):
    # Semi loop, N=8, m=4, u=4, 16 MiB, 45 GB/s, 15 us, free compute: the INT8
    # reduce-scatter ends at 154.7 us. The raw (BF16 bytes) bound, 186.4 us,
    # does not bound it; the bound on its wire bytes, 94.7 us, does.
    argv = ["--variant", "semi_loop", "--num-devices", "8", "--rows", "2048", "--cols", "4096",
            "--minishards", "4", "--microshards", "4", "--bandwidth", "45e9",
            "--hop-latency", "15e-6", *(x for flag, _ in PARAM_FLAGS[2:] for x in (flag, "1e18"))]
    out = tmp_path / "b.json"
    assert run(["bounds", *argv, "--format", "json", "--output", str(out)]) == 0
    rec = json.loads(out.read_text())[0]
    assert run(["timeline", *argv, "--stages", "both"]) == 0
    events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    rs_end = max(e["end_s"] for e in events if e["label"].startswith("rs"))
    assert rs_end == pytest.approx(154.7e-6, abs=0.05e-6)
    assert rec["semi_loop_quant_bound_s"] == pytest.approx((8 * MIB + 8 * 4 * GRID_BYTES) / 90e9)
    assert rec["semi_loop_quant_bound_s"] <= rs_end < rec["semi_loop_bound_s"]
    assert rec["full_loop_quant_bound_s"] == pytest.approx(
        7 * (8 * MIB + 8 * 4 * GRID_BYTES) / (16 * 45e9))


def test_tradeoff_reruns_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["tradeoff", "--config", cfg, "--output", str(a)]) == 0
    assert run(["tradeoff", "--config", cfg, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    assert lines[0] == "flavor,variant,stages,codec,N,rows,cols,m,u,seed,mse,predicted_speedup"
    assert len(lines) == 9  # header + 8 flavors
    assert lines[1].startswith("baseline,")


def test_tradeoff_json_equivalent(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out, csv_out = tmp_path / "t.json", tmp_path / "t.csv"
    assert run(["tradeoff", "--config", cfg, "--format", "json", "--output", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [r["flavor"] for r in rows] == ["baseline", "naive", "full_rs", "full_ag",
                                           "full_both", "semi_rs", "semi_ag", "semi_both"]
    # Every JSON value reads back as the CSV writes it: the same columns and floats.
    assert run(["tradeoff", "--config", cfg, "--output", str(csv_out)]) == 0
    with csv_out.open(newline="") as f:
        assert list(csv.DictReader(f)) == [{k: str(v) for k, v in r.items()} for r in rows]


def test_timeline_jsonl_schema(tmp_path):
    out = tmp_path / "tl.jsonl"
    assert run(["timeline", "--rows", "256", "--cols", "512", "--num-devices", "4",
                "--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) > 10
    for line in lines[:5]:
        rec = json.loads(line)
        assert set(rec) == {"device", "resource", "start_s", "end_s", "label"}


def test_timeline_csv_rows_match_jsonl_records(tmp_path):
    argv = ["timeline", "--rows", "256", "--cols", "512", "--num-devices", "4",
            "--variant", "semi_loop"]
    jsonl, csv_out = tmp_path / "tl.jsonl", tmp_path / "tl.csv"
    assert run(argv + ["--output", str(jsonl)]) == 0
    assert run(argv + ["--format", "csv", "--output", str(csv_out)]) == 0
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    with csv_out.open(newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(records) > 10
    for row, rec in zip(rows, records):
        assert list(row) == list(rec)
        assert row == {k: str(v) for k, v in rec.items()}


@pytest.mark.parametrize("flags", [[], ["--timestamp"]])
def test_timeline_csv_is_the_dict_writer_rendering(flags, monkeypatch, capsys):
    # The CSV rows come straight from the timeline's columns; one dict per
    # event through `_render`'s DictWriter must give the same bytes.
    monkeypatch.setattr(cli.time, "time", lambda: 1760000000.123456)
    argv = ["--rows", "256", "--cols", "512", "--num-devices", "4", "--variant", "semi_loop",
            "--format", "csv", *flags]
    assert run(["timeline", *argv]) == 0
    cfg = _parse(argv)
    tl = simulate(cli._collective_config(cfg), cfg.rows * cfg.cols * 2, *cli.resolve_params(cfg))
    rows = [dict(zip(cli.TIMELINE_COLUMNS, r)) for r in zip(*tl.columns)]
    expected = cli._render(rows, cli.TIMELINE_COLUMNS, cfg)
    assert ("timestamp" in expected.partition("\n")[0]) == bool(flags)
    assert capsys.readouterr().out == expected


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sweep", "--sizes", "1MiB,2MiB", "--num-devices", "8",
                "--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "size_bytes,flavor_time_s,baseline_time_s,ratio"
    assert len(lines) == 3
    assert lines[1].startswith("1048576,")
    assert lines[2].startswith("2097152,")


def test_shipped_size_sweep_regenerates_byte_for_byte(tmp_path):
    sizes = runpy.run_path(str(SCRIPTS / "run_size_sweep.py"))["SIZES"]
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--sizes", sizes, "--num-devices", "8", "--output", str(out)]) == 0
    assert out.read_bytes() == (SCRIPTS / "size_sweep_n8.csv").read_bytes()


@pytest.mark.parametrize("args, code, shown", [([], 0, "identical to"),
                                               (["--bandwidth", "1e10"], 1, "DIFFERS from")],
                         ids=["shipped", "changed"])
def test_size_sweep_check_passes_only_on_the_shipped_bytes(args, code, shown, capsys):
    check = runpy.run_path(str(SCRIPTS / "run_size_sweep.py"))["check"]
    assert check(args) == code
    assert capsys.readouterr().out.startswith(shown)


@pytest.mark.parametrize("flags, doc", [(["--sizes", ","], None), (["--sizes", ""], None),
                                        ([], {"sizes": []})], ids=["comma", "empty", "file"])
def test_a_sweep_with_no_sizes_exits_2(flags, doc, tmp_path, capsys):
    if doc is not None:
        flags = ["--config", write_cfg(tmp_path, doc)]
    assert run(["sweep", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "config error: field 'sizes' must hold at least one size\n"
    # Only the sweep reads sizes: every other command still runs.
    for command in sorted(set(cli.COMMANDS) - {"sweep"}):
        assert run([command, *flags, *_SMALL_ARGV]) == 0


# A small run of each table command, for the pinned output bytes below.
_SMALL_ARGV = ["--rows", "256", "--cols", "512", "--num-devices", "4", "--seed", "7"]
TABLE_ARGV = {
    "simulate": ["simulate", *_SMALL_ARGV],
    "simulate-naive": ["simulate", *_SMALL_ARGV, "--stages", "cast", "--codec", "f8e5m2"],
    "tradeoff": ["tradeoff", *_SMALL_ARGV],
    "sweep": ["sweep", "--sizes", "1MiB,4MiB,64MiB", "--num-devices", "8"],
    "bounds": ["bounds"],
    "timeline": ["timeline", *_SMALL_ARGV, "--variant", "semi_loop"],
}
# sha256 of the stdout of each TABLE_ARGV command by (command, format, --timestamp),
# with the clock fixed. Recorded before the result dataclasses became the CSV schemas.
OUTPUT_SHA256 = {
    ("simulate", "csv", False):
        "0f9df910a959ec381fabc6ff29975cbe9ff96cafe7821ebbbc4b7ddbf88916eb",
    ("simulate", "csv", True):
        "d32ba7f5c7ceec9fd90fd40bfbde0cef182bb394d3e50eb9a27e9696ab5f00da",
    ("simulate", "json", False):
        "07c9d613f833ef2888fa0d8dec1b7cb3eae5482ddc5f97f4e5a79a94181ce1b8",
    ("simulate", "json", True):
        "93dd893edc02df8aa0a1be34db38a6f89c43ae0cefd4436eead0e3ac2c33043e",
    ("simulate-naive", "csv", False):
        "ebb827fa8a39029e0e22097a6bd34479d19119d610293132165cb6abe1bcf387",
    ("simulate-naive", "csv", True):
        "b3305b7d3a91bf3f9b63a1438320d32272279e3933c666df35e233fd965cc5e8",
    ("simulate-naive", "json", False):
        "2718eccb27018ad929606547a0618e38562863adcb9277c1c31bc38c99a849cb",
    ("simulate-naive", "json", True):
        "b31beac22ee36cb5cc3ac65de18c6daed37ed16f8d2b6751cf66e7611c6ddb81",
    ("tradeoff", "csv", False):
        "9a1d227dd1770263a9b7b07344582c19044c4c58d70bd54b97dd77b1abd18bd4",
    ("tradeoff", "csv", True):
        "bf7e71fa2a591287607b1b901f102156de7260a65ae05f06ecce2dccd084bb84",
    ("tradeoff", "json", False):
        "a52c7778609391da01caad96531179c7a8aade2b2852593932f94baa02dac96d",
    ("tradeoff", "json", True):
        "c376a443f1b93cec763bd109c9899b8dc7a9c186ab752046147a7e6c62b523ad",
    ("sweep", "csv", False):
        "5ec1d8f56e7e7153e9bcae1e5dbd6be58ce2ae7b373e0889c8256c6b5287e558",
    ("sweep", "csv", True):
        "1654d730320c8be72ffe814657f2831114ea0f41c27cf59aa2e5d835baa9bd56",
    ("sweep", "json", False):
        "66b41b976b7e941c98f55d1eee6fd17d7bbfe28def233e2cf174078021974959",
    ("sweep", "json", True):
        "ceccae4f1c04cfff3e3791667912b309f5cee4de5a353b57593f1ebe19328503",
    ("bounds", "csv", False):
        "c1fdb63d335aa618fee1d7181918a327e79036e43a62ddb4652265fee71486a9",
    ("bounds", "csv", True):
        "74f0d3b6f7740424746ff7717e1770081e97cda8e57651b0926af0d6b95073d3",
    ("bounds", "json", False):
        "e9af58705f40bf36c72d16ccfdd20f0f4fb5fa25bc532f53aa9c2da820692dda",
    ("bounds", "json", True):
        "c9a757dcda39dd8830df96ec8f2083eb041279e7b3176a93fdd50cd3c2d246ed",
    ("timeline", "csv", False):
        "b19e0a5f149c804dadb0dbef3dc2fd63421c3c8815812ce88f5989f181bad9ea",
    ("timeline", "csv", True):
        "bf8e38550a07c34de6fb88fcba2e3a01cfd8b4a1e4102ceb87a1c0611bed0d93",
}


@pytest.mark.parametrize("name, fmt, timestamp", list(OUTPUT_SHA256))
def test_table_output_bytes_are_pinned(name, fmt, timestamp, monkeypatch, capsys):
    monkeypatch.setattr(cli.time, "time", lambda: 1760000000.123456)
    assert run([*TABLE_ARGV[name], "--format", fmt, *["--timestamp"] * timestamp]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == OUTPUT_SHA256[name, fmt, timestamp]


_NUMPY_OOM = "Unable to allocate 16.0 GiB for an array with shape (8, 1073741824) and data type uint16"


@pytest.mark.parametrize("message, shown", [(_NUMPY_OOM, _NUMPY_OOM), ("", "out of memory")],
                         ids=["numpy", "bare"])
@pytest.mark.parametrize("command", ["tradeoff", "simulate"])
def test_inputs_that_cannot_be_allocated_exit_2(command, message, shown, monkeypatch, capsys):
    # The allocation failure is simulated: a real one would take the host's memory.
    def no_memory(rows, cols, num_devices, seed):
        raise MemoryError(message)

    monkeypatch.setattr(qarsim.analysis, "device_inputs", no_memory)
    monkeypatch.setattr(cli, "device_inputs", no_memory)
    assert run([command, *_SMALL_ARGV]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: {shown}\n"


def _overflow(**link) -> str:
    params = load_preset(DEFAULT_PRESET)
    return f"simulated times overflow under {replace(params[0], **link)} and {params[1]}"


# Runs refused by a cheap check before any input is drawn: the cut, then the
# simulated times. Each used to draw every device's inputs first.
REFUSED_BEFORE_INPUTS = [
    (["simulate", "--rows", "2048", "--cols", "2048", "--num-devices", "96"], 3,
     "DivisibilityError: 4096 chunks do not split across num_devices=96"),
    (["tradeoff", "--rows", "4096", "--cols", "4096", "--microshards", "3"], 3,
     "DivisibilityError: 64 chunks per minishard do not split across "
     "microshards_per_minishard=3"),
    (["simulate", "--rows", "4096", "--cols", "4096", "--bandwidth", "1e-320"], 2,
     "config error: " + _overflow(bandwidth_bytes_per_s=1e-320)),
    (["tradeoff", "--rows", "2048", "--cols", "2048", "--hop-latency", "1e308"], 2,
     "config error: " + _overflow(hop_latency_s=1e308)),
]


@pytest.mark.parametrize("argv, code, shown", REFUSED_BEFORE_INPUTS,
                         ids=["simulate-cut", "tradeoff-cut", "simulate-times", "tradeoff-times"])
def test_a_refused_run_draws_no_input(argv, code, shown, monkeypatch, capsys):
    def no_inputs(*args):
        raise AssertionError("device_inputs was called")

    monkeypatch.setattr(qarsim.analysis, "device_inputs", no_inputs)
    monkeypatch.setattr(cli, "device_inputs", no_inputs)
    assert run(argv) == code
    assert capsys.readouterr() == ("", shown + "\n")


@pytest.mark.parametrize("command", ["simulate", "tradeoff"])
def test_inputs_past_the_input_budget_exit_2_before_allocating(command, monkeypatch, capsys):
    # 16 GiB of inputs at N=8; m = u = 1 keeps the walks that come first small.
    def no_allocation(*args, **kwargs):
        raise AssertionError("device_inputs allocated")

    monkeypatch.setattr(qarsim.analysis.np, "empty", no_allocation)
    assert run([command, "--rows", "32768", "--cols", "32768", "--minishards", "1",
                "--microshards", "1"]) == 2
    assert capsys.readouterr() == ("", "config error: inputs of N*rows*cols*2 = 17179869184 "
                                   "bytes (N=8, rows=32768, cols=32768) pass the input budget "
                                   "of 2147483648 bytes\n")


def test_a_bound_that_overflows_exits_2(capsys):
    assert run(["bounds", "--bandwidth", "1e-320"]) == 2
    link = replace(load_preset(DEFAULT_PRESET)[0], bandwidth_bytes_per_s=1e-320)
    assert capsys.readouterr() == ("", f"config error: bandwidth bound overflows under {link}\n")


@pytest.mark.parametrize("argv", [
    ["sweep", "--sizes", "99999999GiB"],
    ["timeline", "--rows", "65536", "--cols", "65536", "--num-devices", "8",
     "--minishards", "262144", "--microshards", "2"],
], ids=["sweep", "timeline"])
def test_a_simulation_past_the_walk_budget_exits_2(argv, capsys):
    # Refused before any walk: the sweep's would take about two months.
    with finished_walks() as walks:
        assert run(argv) == 2
    out, err = capsys.readouterr()
    assert walks == [] and out == ""
    assert err.startswith("config error: N*m*u = ") and err.endswith(
        " passes the simulator's walk budget of 2097152\n")
    assert err.count("\n") == 1


def test_bad_size_token_exits_2(capsys):
    assert run(["sweep", "--sizes", "1MiB,huge"]) == 2
    assert "size" in capsys.readouterr().err


@pytest.mark.parametrize("flags, doc, shown", [(["--sizes", "4XiB"], None, "'4XiB'"),
                                               ([], {"sizes": [True]}, "True")],
                         ids=["unknown-suffix", "bool-in-config"])
def test_bad_size_value_exits_2_naming_it(flags, doc, shown, tmp_path, capsys):
    if doc is not None:
        flags = ["--config", write_cfg(tmp_path, doc)]
    assert run(["sweep", *flags]) == 2
    assert capsys.readouterr().err == f"config error: bad size value {shown}\n"


def test_config_that_is_not_a_json_object_exits_2(tmp_path, capsys):
    assert run(["simulate", "--config", write_cfg(tmp_path, [SMALL])]) == 2
    assert capsys.readouterr().err == "config error: config document must be a JSON object\n"


def test_timestamp_off_by_default_on_when_asked(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "ts.json"
    assert run(["simulate", "--config", cfg, "--format", "json", "--output", str(out)]) == 0
    assert "timestamp" not in json.loads(out.read_text())[0]
    assert run(["simulate", "--config", cfg, "--format", "json", "--timestamp",
                "--output", str(out)]) == 0
    assert "timestamp" in json.loads(out.read_text())[0]


def test_unknown_preset_exits_2(capsys):
    assert run(["simulate", "--preset", "nonexistent"]) == 2
    assert "preset" in capsys.readouterr().err


def test_v5e_like_preset_matches_readme():
    assert available_presets() == [DEFAULT_PRESET] == ["v5e-like"]
    link, compute = load_preset("v5e-like")
    assert link == LinkParams(bandwidth_bytes_per_s=4.5e10, hop_latency_s=1.5e-5)
    assert compute == ComputeParams(dequant_rate=8e11, add_rate=1.6e12, scan_rate=1.6e12,
                                    encode_rate=8e11, cast_rate=1.6e12, fuse_recv_pass=False)
    with pytest.raises(KeyError, match="v5e-like"):
        load_preset("nonexistent")


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_exits_0(command, capsys):
    assert run([command, "-h"]) == 0
    assert "--fuse-recv-pass" in capsys.readouterr().out


def test_naive_flavor_via_cli(tmp_path):
    cfg = write_cfg(tmp_path, dict(SMALL, stages="cast", codec="f8e5m2"))
    out = tmp_path / "n.json"
    assert run(["simulate", "--config", cfg, "--format", "json", "--output", str(out)]) == 0
    rec = json.loads(out.read_text())[0]
    assert rec["stages"] == "cast"
    assert rec["mse"] > 0.01  # cast-style ring is far noisier than scaled codecs


@pytest.mark.parametrize("command", ["simulate", "timeline", "sweep"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_naive_semi_loop_exits_2_naming_variant(command, source, tmp_path, capsys):
    # The naive ring (cast stages) is a full loop; a semi-loop request must not
    # print full-loop results.
    argv = ["--stages", "cast", "--variant", "semi_loop", "--rows", "256", "--cols", "512"]
    if source == "file":
        argv = ["--config", write_cfg(tmp_path, dict(SMALL, stages="cast", variant="semi_loop"))]
    assert run([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: field 'variant' must be 'full_loop' with stages "
                            "'cast', got 'semi_loop'\n")


def test_naive_sweep_is_the_naive_rings_time_over_the_baselines(capsys):
    sizes = [MIB, 4 * MIB, 64 * MIB]
    assert run(["sweep", "--stages", "cast", "--sizes", ",".join(map(str, sizes))]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    link, compute = load_preset(DEFAULT_PRESET)
    assert [int(r["size_bytes"]) for r in rows] == sizes
    for size, row in zip(sizes, rows):
        spec = PartitionSpec(8, auto_minishards(size // 2, 8), 2)
        naive = simulate_naive(spec, size, link, compute).total_time
        base = simulate(CollectiveConfig(Variant.FULL_LOOP, spec), size, link, compute).total_time
        assert row["ratio"] == repr(naive / base)


@pytest.mark.parametrize("name", ["quantize_rs", "quantize_ag", "naive"])
def test_a_removed_stage_field_in_a_config_file_exits_2(name, tmp_path, capsys):
    # `stages` names what the stages carry; the fields it replaced have no alias.
    assert run(["simulate", "--config", write_cfg(tmp_path, dict(SMALL, **{name: True}))]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"config error: unknown config field '{name}'\n"


# --- every override flag and every config field lands on its RunConfig field ---

# (flag argv, expected RunConfig fields): each flag alone, all else at default.
FLAG_CASES = [
    (["--seed", "5"], {"seed": 5}),
    (["--preset", "other-preset"], {"preset": "other-preset"}),
    (["--output", "out.csv"], {"output": "out.csv"}),
    (["--format", "json"], {"format": "json"}),
    (["--timestamp"], {"timestamp": True}),
    (["--variant", "semi_loop"], {"variant": "semi_loop"}),
    (["--codec", "f8e4m3"], {"codec": "f8e4m3"}),
    (["--stages", "cast"], {"stages": "cast"}),
    (["--num-devices", "4"], {"num_devices": 4}),
    (["--rows", "256"], {"rows": 256}),
    (["--cols", "512"], {"cols": 512}),
    (["--minishards", "3"], {"minishards_per_shard": 3}),
    (["--microshards", "4"], {"microshards_per_minishard": 4}),
    (["--bandwidth", "1e9"], {"link": {"bandwidth_bytes_per_s": 1e9}}),
    (["--hop-latency", "2e-6"], {"link": {"hop_latency_s": 2e-6}}),
    (["--dequant-rate", "1.5e12"], {"compute": {"dequant_rate": 1.5e12}}),
    (["--add-rate", "2.5e12"], {"compute": {"add_rate": 2.5e12}}),
    (["--scan-rate", "3.5e12"], {"compute": {"scan_rate": 3.5e12}}),
    (["--encode-rate", "4.5e12"], {"compute": {"encode_rate": 4.5e12}}),
    (["--cast-rate", "5.5e12"], {"compute": {"cast_rate": 5.5e12}}),
    (["--fuse-recv-pass"], {"compute": {"fuse_recv_pass": True}}),
    (["--sizes", "1MiB, 4KiB,512"], {"sizes": [1 << 20, 4 << 10, 512]}),
]

# field -> (config-file value, flag argv, field value from the file alone,
#           field value with the flag given too)
FILE_CASES = {
    "variant": ("semi_loop", ["--variant", "full_loop"], "semi_loop", "full_loop"),
    "stages": ("rs", ["--stages", "ag"], "rs", "ag"),
    "codec": ("f8e5m2", ["--codec", "f8e4m3"], "f8e5m2", "f8e4m3"),
    "num_devices": (4, ["--num-devices", "6"], 4, 6),
    "rows": (256, ["--rows", "512"], 256, 512),
    "cols": (1024, ["--cols", "2048"], 1024, 2048),
    "minishards_per_shard": (2, ["--minishards", "8"], 2, 8),
    "microshards_per_minishard": (4, ["--microshards", "1"], 4, 1),
    "seed": (7, ["--seed", "11"], 7, 11),
    "preset": ("other-preset", ["--preset", "v5e-like"], "other-preset", "v5e-like"),
    "link": ({"bandwidth_bytes_per_s": 2e9, "hop_latency_s": 1e-6}, ["--bandwidth", "1e9"],
             {"bandwidth_bytes_per_s": 2e9, "hop_latency_s": 1e-6},
             {"bandwidth_bytes_per_s": 1e9, "hop_latency_s": 1e-6}),
    "compute": ({"add_rate": 1e12, "fuse_recv_pass": True}, ["--no-fuse-recv-pass"],
                {"add_rate": 1e12, "fuse_recv_pass": True},
                {"add_rate": 1e12, "fuse_recv_pass": False}),
    "sizes": (["2MiB", 1024], ["--sizes", "1MiB"], [2 << 20, 1024], [1 << 20]),
    "output": ("a.csv", ["--output", "b.csv"], "a.csv", "b.csv"),
    "format": ("json", ["--format", "csv"], "json", "csv"),
    "timestamp": (True, ["--no-timestamp"], True, False),
}


@pytest.fixture
def two_presets(monkeypatch):
    monkeypatch.setattr(cli, "available_presets", lambda: ["other-preset", "v5e-like"])


def _parse(argv):
    return build_config(_build_parser().parse_args(["simulate", *argv]))


@pytest.mark.parametrize("argv, expected", FLAG_CASES, ids=[c[0][0] for c in FLAG_CASES])
def test_each_flag_sets_its_field(argv, expected, two_presets):
    assert _parse(argv) == replace(RunConfig(), **expected)


def test_flag_cases_cover_every_override_flag():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in sub.choices["simulate"]._actions
               if a.option_strings and a.dest not in ("help", "config")]
    assert len(actions) == len(FLAG_CASES) == 22
    for action in actions:
        assert any(argv[0] in action.option_strings for argv, _ in FLAG_CASES), action.dest


def test_every_setting_field_has_exactly_one_flag():
    names = [f.name for f in fields(RunConfig) if f.name not in ("link", "compute")]
    names += [f.name for f in fields(LinkParams)] + [f.name for f in fields(ComputeParams)]
    assert len(set(names)) == len(names)  # a shared name would route a flag to one scope only
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        dests = [a.dest for a in parser._actions
                 if a.option_strings and a.dest not in ("help", "config")]
        assert sorted(dests) == sorted(names), command


@pytest.mark.parametrize("name, value", [("variant", "bogus"), ("codec", "int4"),
                                         ("format", "xml")])
def test_bad_enum_flag_reads_like_config_file_error(name, value, tmp_path, capsys):
    assert run(["simulate", f"--{name}", value]) == 2
    from_flag = capsys.readouterr().err
    assert run(["simulate", "--config", write_cfg(tmp_path, {name: value})]) == 2
    assert from_flag == capsys.readouterr().err
    assert from_flag.startswith(f"config error: field '{name}' must be one of")


@pytest.mark.parametrize("name", sorted(FILE_CASES))
def test_config_file_sets_field_and_flag_beats_file(name, tmp_path, two_presets):
    assert set(FILE_CASES) == {f.name for f in fields(RunConfig)}
    file_val, argv, from_file, from_flag = FILE_CASES[name]
    path = write_cfg(tmp_path, {name: file_val})
    assert getattr(_parse(["--config", path]), name) == from_file
    assert getattr(_parse(["--config", path, *argv]), name) == from_flag


@pytest.mark.parametrize("bad, flags, name", [
    ({"variant": ["semi_loop"]}, [], "variant"),
    ({"output": 5}, [], "output"),
    ({"format": {}}, [], "format"),
    ({"minishards_per_shard": True}, [], "minishards_per_shard"),
    ({"link": {"hop_latency_s": True}}, [], "hop_latency_s"),
    ({"link": 5}, ["--bandwidth", "1e9"], "link"),
])
def test_ill_typed_config_exits_2_naming_field(bad, flags, name, tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(SMALL, **bad))
    assert run(["simulate", "--config", cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


# (subcommand, flag argv, the same value as a config-file entry, field named on stderr)
OUT_OF_RANGE_CASES = [
    ("bounds", ["--num-devices", "1"], {"num_devices": 1}, "num_devices"),
    ("bounds", ["--bandwidth", "0"], {"link": {"bandwidth_bytes_per_s": 0}},
     "bandwidth_bytes_per_s"),
    ("bounds", ["--hop-latency=-1"], {"link": {"hop_latency_s": -1}}, "hop_latency_s"),
    ("bounds", ["--add-rate", "0"], {"compute": {"add_rate": 0}}, "add_rate"),
    ("simulate", ["--minishards", "0"], {"minishards_per_shard": 0}, "minishards_per_shard"),
    ("simulate", ["--seed=-1"], {"seed": -1}, "seed"),
    ("tradeoff", ["--seed=-3"], {"seed": -3}, "seed"),
    ("sweep", ["--seed=-1"], {"seed": -1}, "seed"),
    ("sweep", ["--sizes=-4MiB"], {"sizes": [-4 << 20]}, "sizes"),
    ("sweep", ["--sizes", "1MiB,0"], {"sizes": ["1MiB", 0]}, "sizes"),
]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command, argv, doc, name", OUT_OF_RANGE_CASES,
                         ids=[c[3] for c in OUT_OF_RANGE_CASES])
def test_out_of_range_value_exits_2_naming_field(command, argv, doc, name, source, tmp_path,
                                                  capsys):
    if source == "file":
        argv = ["--config", write_cfg(tmp_path, dict(SMALL, **doc))]
    assert run([command, *argv]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


# (flag, the link or compute field it sets)
PARAM_FLAGS = [("--bandwidth", "bandwidth_bytes_per_s"), ("--hop-latency", "hop_latency_s"),
               ("--dequant-rate", "dequant_rate"), ("--add-rate", "add_rate"),
               ("--scan-rate", "scan_rate"), ("--encode-rate", "encode_rate"),
               ("--cast-rate", "cast_rate")]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag, name", PARAM_FLAGS, ids=[c[1] for c in PARAM_FLAGS])
def test_non_finite_link_or_compute_value_exits_2_naming_field(flag, name, value, source,
                                                               tmp_path, capsys):
    argv = [flag, value]
    if source == "file":
        scope = "link" if flag in ("--bandwidth", "--hop-latency") else "compute"
        # json.dumps writes NaN and Infinity, which the config reader accepts
        argv = ["--config", write_cfg(tmp_path, dict(SMALL, **{scope: {name: float(value)}}))]
    assert run(["simulate", *argv]) == 2
    err = capsys.readouterr().err
    assert name in err and "finite" in err and "Traceback" not in err


# Finite, positive parameters under which some simulated time overflows:
# a subnormal bandwidth, or a hop latency summed over a deep ring.
OVERFLOW_CASES = [
    ["simulate", "--rows", "1024", "--cols", "1024", "--num-devices", "8",
     "--bandwidth", "1e-320"],
    ["sweep", "--sizes", "1MiB", "--num-devices", "8", "--bandwidth", "1e-310"],
    ["timeline", "--rows", "64", "--cols", "1024", "--num-devices", "16",
     "--hop-latency", "1e308"],
    ["tradeoff", "--rows", "64", "--cols", "1024", "--num-devices", "16",
     "--hop-latency", "1e308"],
]


@pytest.mark.parametrize("argv", OVERFLOW_CASES, ids=[c[0] for c in OVERFLOW_CASES])
def test_simulated_times_that_overflow_exit_2(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("config error: simulated times overflow")
    assert "LinkParams(" in err and "ComputeParams(" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, walks", [
    (["timeline"], [True]),
    (["timeline", "--format", "csv"], [True]),
    (["simulate"], [True]),
    (["simulate", "--stages", "cast"], [True]),
    (["sweep", "--sizes", "1MiB,2MiB"], [False] * 4),
    (["tradeoff"], [False] * 8),
], ids=["timeline", "timeline-csv", "simulate", "simulate-naive", "sweep", "tradeoff"])
def test_each_command_walks_each_schedule_once(argv, walks, capsys):
    # Each finished walk, by whether it recorded: a command that reads
    # columns records each schedule once and walks it no other way, and one
    # that reads only `total_time` records nothing.
    with finished_walks() as seen:
        assert run([*argv, *AGREE_ARGS]) == 0
    assert seen == walks


def test_int_config_value_accepted_for_float_field(tmp_path):
    cfg = write_cfg(tmp_path, {"num_devices": 4, "rows": 2048, "cols": 2048,
                               "link": {"bandwidth_bytes_per_s": 1000000000, "hop_latency_s": 0}})
    out = tmp_path / "b.json"
    assert run(["bounds", "--config", cfg, "--format", "json", "--output", str(out)]) == 0
    assert json.loads(out.read_text())[0]["bandwidth_bytes_per_s"] == 1e9


# N is even, so the semi loop runs.
AGREE_ARGS = ["--rows", "256", "--cols", "512", "--num-devices", "4", "--minishards", "2",
              "--seed", "5"]


@pytest.fixture(scope="module")
def tradeoff_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("tradeoff") / "t.csv"
    assert run(["tradeoff", *AGREE_ARGS, "--output", str(out)]) == 0
    return {row["flavor"]: row for row in csv.DictReader(out.open())}


def _row_flags(row):
    """A tradeoff row's own config: its variant, stages and codec (the
    baseline's `bf16` is no codec flag, and its stages read none)."""
    codec = [] if row["codec"] == "bf16" else ["--codec", row["codec"]]
    return ["--variant", row["variant"], "--stages", row["stages"], *codec]


@pytest.mark.parametrize("flavor", qarsim.analysis.FLAVORS)
def test_simulate_mse_is_the_tradeoff_rows(flavor, tradeoff_rows, tmp_path):
    trow = tradeoff_rows[flavor]
    out = tmp_path / "s.csv"
    assert run(["simulate", *AGREE_ARGS, *_row_flags(trow), "--output", str(out)]) == 0
    (row,) = csv.DictReader(out.open())
    assert (float(row["mse"]) > 0.0) == (flavor != "baseline")
    assert row["mse"] == trow["mse"]  # the same repr: the same bits


@pytest.mark.parametrize("flavor", qarsim.analysis.FLAVORS)
def test_sweep_ratio_is_the_tradeoff_rows_speedup(flavor, tradeoff_rows, tmp_path):
    trow = tradeoff_rows[flavor]
    out = tmp_path / "s.csv"
    size = int(trow["rows"]) * int(trow["cols"]) * 2
    assert run(["sweep", *AGREE_ARGS, *_row_flags(trow), "--sizes", str(size),
                "--output", str(out)]) == 0
    (row,) = csv.DictReader(out.open())
    assert repr(float(row["baseline_time_s"]) / float(row["flavor_time_s"])) == (
        trow["predicted_speedup"])


@pytest.mark.parametrize("flags", [[], ["--variant", "semi_loop"], ["--stages", "cast"],
                                   ["--stages", "none"]],
                         ids=["default", "semi_loop", "naive", "unquantized"])
def test_simulate_builds_no_output(flags, tmp_path):
    # Beyond the 8 BF16 inputs: one reduce-scatter (or the naive ring's
    # output, gathered over its own reduce-scatter), the baseline's BF16 bits
    # (half a float32 tensor), the MSE's 1 MiB buffer and a 2 MiB margin for
    # one minishard's transients. A second float32 tensor, such as a built
    # baseline or flavor output, does not fit. A warm-up call first, so the
    # tables each process builds once are not traced.
    rows, cols, n = 1024, 2048, 8
    argv = ["simulate", "--rows", str(rows), "--cols", str(cols), "--num-devices", str(n),
            *flags, "--output", str(tmp_path / "s.csv")]
    assert run(argv) == 0
    tracemalloc.start()
    try:
        assert run(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    input_bytes, tensor_bytes = n * rows * cols * 2, rows * cols * 4
    assert peak - input_bytes <= 1.5 * tensor_bytes + 3 * MIB
