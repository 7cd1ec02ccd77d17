"""Command-line behavior: precedence, schemas, exit codes, determinism."""

import argparse
import csv
import json
from dataclasses import fields, replace

import pytest

import qarsim.cli as cli
from qarsim.cli import RunConfig, _build_parser, build_config, main

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


def test_semi_loop_odd_ring_exits_3(capsys):
    assert run(["simulate", "--variant", "semi_loop", "--num-devices", "5",
                "--rows", "640", "--cols", "1024"]) == 3
    assert "SemiLoopOddNError" in capsys.readouterr().err


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
    out = tmp_path / "t.json"
    assert run(["tradeoff", "--config", cfg, "--format", "json", "--output", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [r["flavor"] for r in rows] == ["baseline", "naive", "full_rs", "full_ag",
                                           "full_both", "semi_rs", "semi_ag", "semi_both"]


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


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sweep", "--sizes", "1MiB,2MiB", "--num-devices", "8",
                "--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "size_bytes,flavor_time_s,baseline_time_s,ratio"
    assert len(lines) == 3
    assert lines[1].startswith("1048576,")
    assert lines[2].startswith("2097152,")


def test_bad_size_token_exits_2(capsys):
    assert run(["sweep", "--sizes", "1MiB,huge"]) == 2
    assert "size" in capsys.readouterr().err


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


def test_naive_flavor_via_cli(tmp_path):
    cfg = write_cfg(tmp_path, dict(SMALL, naive=True, codec="f8e5m2"))
    out = tmp_path / "n.json"
    assert run(["simulate", "--config", cfg, "--format", "json", "--output", str(out)]) == 0
    rec = json.loads(out.read_text())[0]
    assert rec["stages"] == "cast"
    assert rec["mse"] > 0.01  # cast-style ring is far noisier than scaled codecs


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
    (["--no-quantize-rs"], {"quantize_rs": False}),
    (["--no-quantize-ag"], {"quantize_ag": False}),
    (["--naive"], {"naive": True}),
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
    "quantize_rs": (False, ["--quantize-rs"], False, True),
    "quantize_ag": (False, ["--quantize-ag"], False, True),
    "codec": ("f8e5m2", ["--codec", "f8e4m3"], "f8e5m2", "f8e4m3"),
    "naive": (True, ["--no-naive"], True, False),
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
    assert len(actions) == len(FLAG_CASES) == 24
    for action in actions:
        assert any(argv[0] in action.option_strings for argv, _ in FLAG_CASES), action.dest


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


def test_int_config_value_accepted_for_float_field(tmp_path):
    cfg = write_cfg(tmp_path, {"num_devices": 4, "rows": 2048, "cols": 2048,
                               "link": {"bandwidth_bytes_per_s": 1000000000, "hop_latency_s": 0}})
    out = tmp_path / "b.json"
    assert run(["bounds", "--config", cfg, "--format", "json", "--output", str(out)]) == 0
    assert json.loads(out.read_text())[0]["bandwidth_bytes_per_s"] == 1e9
