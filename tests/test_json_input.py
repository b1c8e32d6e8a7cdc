"""The JSON parser contract that the input files rest on.

`replay` reproduces `--dump-estimates` byte for byte only if every finite
double that json.dumps writes reads back bit for bit; the stdlib parser
serves as the reference.  Text that is not JSON under RFC 8259 (NaN,
Infinity, numbers beyond the double range, trailing data, a byte order
mark, a lone surrogate) exits 2, writes nothing and names the line or file.
JSON nested deeper than the interpreter's recursion limit reaches the record
checks and exits 2 too.
"""

import json
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wlstrack import io
from wlstrack.cli import main

MAX = 1.7976931348623157e308


def read_y(number_text):
    """y[0] of a batch line whose y is the JSON number `number_text`."""
    (batch,) = io.iter_batches_jsonl(['{"t": 1, "y": [%s], "A": [[1.0]]}' % number_text])
    return float(batch.y[0])


def bits(x):
    return struct.pack("<d", x)


@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072014e-308)
@example(MAX)
@example(-MAX)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_a_finite_double_reads_back_bit_for_bit(x):
    assert bits(read_y(json.dumps(x))) == bits(x)
    # .17g writes -0.0 as "-0", a JSON integer that both parsers read as 0,
    # so that rendering is held to equality with x and to the reference's bits.
    text = format(x, ".17g")
    assert read_y(text) == x
    assert bits(read_y(text)) == bits(float(json.loads(text)))


SCENARIO = (
    '{"n_states": 2, "n_meas": 1, "horizon": 5, "library_size": 3, "delta_x": 1.0, '
    '"noise": {"kind": "bounded", "delta_n": 1.0}, "gamma": 0.5, "n_runs": 2, "seed": 77, '
    '"x0": [@, 0.0]}'
)
# command: (input file, its text with a number slot @, the rest of argv)
COMMANDS = {
    "replay": ("meas.jsonl", '{"t": 1, "y": [1.0], "A": [[@]]}\n', ["--gamma", "1"]),
    "simulate": ("sc.json", SCENARIO, []),
    "bounds": ("ens.json", '{"n_states": 1, "members": [{"A": [[@]]}]}', ["--gamma", "1", "--tau", "1"]),
}
# case: the input text built from a command's template
CASES = {
    "NaN": lambda text: text.replace("@", "NaN"),
    "Infinity": lambda text: text.replace("@", "Infinity"),
    "-Infinity": lambda text: text.replace("@", "-Infinity"),
    "1e400": lambda text: text.replace("@", "1e400"),
    "400-digit integer": lambda text: text.replace("@", "1" + "0" * 399),
    "lone surrogate": lambda text: text.replace("@", '"\\ud800"'),
    "trailing data": lambda text: text.replace("@", "1.0").rstrip("\n") + " []\n",
    "byte order mark": lambda text: "\ufeff" + text.replace("@", "1.0"),
}


def run(tmp_path, monkeypatch, capsys, command, text):
    """Exit code, stderr and the files beside the input after one command."""
    name, _, options = COMMANDS[command]
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text, encoding="utf-8")
    code = main([command, name, "out.csv", *options])
    return code, capsys.readouterr().err, sorted(p.name for p in tmp_path.iterdir() if p.name != name)


@pytest.mark.parametrize("command", COMMANDS)
def test_template_with_a_number_in_the_slot_is_accepted(tmp_path, monkeypatch, capsys, command):
    code, err, left = run(tmp_path, monkeypatch, capsys, command, COMMANDS[command][1].replace("@", "1.0"))
    assert code == 0, err
    assert "out.csv" in left


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("command", COMMANDS)
def test_text_that_is_not_json_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, command, case):
    name, template, _ = COMMANDS[command]
    code, err, left = run(tmp_path, monkeypatch, capsys, command, CASES[case](template))
    assert code == 2
    where = "on line 1" if command == "replay" else f"in {name!r}"
    assert err.startswith(f"error: malformed JSON {where}: ")
    assert left == []


@pytest.mark.parametrize("command", COMMANDS)
def test_deeply_nested_json_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, command):
    # Nesting beyond the interpreter's recursion limit is still JSON; it must
    # reach the record checks rather than escape as a RecursionError.
    deep = "[" * 10_000 + "1.0" + "]" * 10_000
    code, err, left = run(tmp_path, monkeypatch, capsys, command, COMMANDS[command][1].replace("@", deep))
    assert code == 2
    assert err.startswith("error: ")
    assert left == []
