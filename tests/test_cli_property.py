"""Property: whatever argv and config file it is given, the CLI exits 0, 2 or 3,
never with a traceback; on 0 it prints its format with no inf or NaN, and on 2
or 3 it prints nothing to stdout and one line to stderr.

Runs are built from the CLI's own tables of settings (`_CONFIG_TYPES`,
`_SCOPES`, `_ALLOWED`, `_MINIMUM`), so a new setting is drawn with no edit
here. Each setting is unset, a flag or a config-file field. Flags carry
tokens that argparse parses (an unparseable token is argparse's usage error,
not the CLI's), with NaN, ±inf, huge and out-of-range values among them;
config files also carry ill-typed values (bools for ints, strings, null),
malformed or empty size lists and unknown keys.

No example allocates more than a few MiB: valid rows and cols are at most
128 and every other valid int at most 8, so N·rows·cols ≤ 8·128² elements
(256 KiB of inputs), and every huge int puts
N·rows·cols·2 bytes past `analysis.INPUT_BUDGET`, which refuses them before
anything is allocated.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import typing
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import qarsim.cli as cli
from qarsim.analysis import INPUT_BUDGET
from qarsim.presets import available_presets

HUGE = [1 << 40, 1 << 63, 1 << 70, 10 ** 30]
assert 2 * min(HUGE) > INPUT_BUDGET
CAP = 128  # the largest valid rows or cols drawn; every other valid int is at most 8
TMP = "{tmp}"  # the example's temporary directory, filled in when it runs
ILL_TYPED = [True, "8", None, [], {}]
ALLOWED = {**cli._ALLOWED, "preset": set(available_presets())}
# Size tokens: valid, then faulty (tiny, odd, empty, malformed, past the walk budget).
SIZES = (["1MiB", "64KiB", "2MiB", "64MiB", "65536"],
         ["3", "0", "-4MiB", "4XiB", "", " ", "99999999GiB"])


def _kinds(hint) -> tuple:
    return typing.get_args(hint) or (hint,)


def _values(name: str, hint) -> tuple[list, list, list]:
    """(valid values, faulty values a flag can carry, faulty values only a
    config file can) of one setting."""
    kinds = _kinds(hint)
    if bool in kinds:
        return [True, False], [], [0, 1, "yes"]
    if int in kinds:
        low = cli._MINIMUM.get(name, 0)
        valid = sorted({low, 2, 4, 8} - set(range(low)))
        return valid, [low - 1, *HUGE], [*ILL_TYPED, 2.0]
    if float in kinds:
        return ([1e9, 4.5e10, 1e12, 2], [1e-320, 1e308, 0.0, -1.0, math.nan, math.inf,
                                         -math.inf], [*ILL_TYPED, "1e9"])
    if list in kinds:
        return [], [], [7, "1MiB", [1 << 20, 1 << 70, True, 1.5, -1, "2MiB"]]
    if name in ALLOWED:
        return [*sorted(ALLOWED[name])], ["bogus"], [3, None]
    # `output`, the one free-text setting: a path in the example's directory.
    return [f"{TMP}/out.txt", ""], [f"{TMP}/missing/out.txt", TMP], [3]


def _flag(name: str, hint, value) -> list[str]:
    flag = cli._SHORT_FLAGS.get(name, "--" + name.replace("_", "-"))
    if bool in _kinds(hint):
        return [flag if value else "--no-" + flag[2:]]
    return [f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}"]


@st.composite
def runs(draw):
    """(argv without --config, the config document or None, the expected format).

    Each setting is faulty about one time in 32, so most runs pass the checks."""
    def rare():
        return draw(st.integers(0, 31)) == 0

    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    argv, doc, fmt = [command], {}, {}
    settings = [(None, name, hint) for name, hint in cli._CONFIG_TYPES.items()
                if name not in cli._SCOPES]
    settings += [(scope, name, hint) for scope, types in cli._SCOPES.items()
                 for name, hint in types.items()]
    defaults = cli.RunConfig()
    for scope, name, hint in settings:
        # An int whose default is past CAP (rows, cols) is always set, near CAP.
        big = scope is None and int in _kinds(hint) and (getattr(defaults, name) or 0) > CAP
        where = draw(st.sampled_from(["flag", "file"] if big else ["unset", "flag", "file"]))
        valid, flag_faults, file_faults = _values(name, hint)
        valid = [CAP // 2, CAP] if big else valid
        if list in _kinds(hint):
            tokens = draw(st.lists(st.sampled_from(SIZES[0] + SIZES[1] if rare() else SIZES[0]),
                                   max_size=3))
            if where == "flag":
                argv.append("--sizes=" + ",".join(tokens))
            elif where == "file":
                doc[name] = draw(st.sampled_from(file_faults)) if rare() else tokens
            continue
        if where == "unset":
            continue
        faults = flag_faults + file_faults * (where == "file")
        value = draw(st.sampled_from(faults if faults and rare() else valid))
        if where == "flag":
            argv += _flag(name, hint, value)
        else:
            (doc.setdefault(scope, {}) if scope else doc)[name] = value
        if name == "format":
            fmt[where] = value
    if rare():  # an unknown key, at the top or in a scope
        (doc.setdefault(draw(st.sampled_from(sorted(cli._SCOPES))), {})
         if draw(st.booleans()) else doc)["bogus"] = 1
    if rare():  # a scope that is not an object
        doc[draw(st.sampled_from(sorted(cli._SCOPES)))] = draw(st.sampled_from([5, "x", []]))
    chosen = fmt.get("flag") or fmt.get("file")  # a flag beats the file
    default = "jsonl" if command == "timeline" else "csv"
    expected = {None: default, "json": "jsonl" if command == "timeline" else "json"}.get(
        chosen, chosen)
    return argv, (doc if doc or draw(st.booleans()) else None), expected


def _no_constant(name):
    raise AssertionError(f"output holds {name}")


def _check_output(text: str, fmt: str) -> None:
    """`text` parses as `fmt`, and every number in it is finite."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        assert rows and all(len(r) == len(rows[0]) for r in rows)
        for cell in (c for r in rows[1:] for c in r):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), cell
    elif fmt == "json":
        assert isinstance(json.loads(text, parse_constant=_no_constant), list)
    else:
        lines = text.splitlines()
        assert lines and all(json.loads(line, parse_constant=_no_constant) for line in lines)


@settings(max_examples=400, deadline=None)
@given(runs())
def test_every_run_exits_0_2_or_3_and_prints_finite_output_or_one_line(run):
    argv, doc, fmt = run
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace(TMP, tmp) for a in argv]
        if doc is not None:
            if isinstance(doc.get("output"), str):
                doc["output"] = doc["output"].replace(TMP, tmp)
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(doc))  # NaN and ±inf as the reader accepts them
            argv += ["--config", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        result = Path(tmp) / "out.txt"
        if code == 0:
            assert err == "" and (out == "" if result.exists() else out)
            _check_output(result.read_text() if result.exists() else out, fmt)
        else:
            assert code in (2, 3)
            assert out == "" and not result.exists()
            assert err.endswith("\n") and err.count("\n") == 1, err
