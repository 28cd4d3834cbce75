"""Command-line interface: golden outputs, exit codes, determinism."""

import contextlib
import io
import json
import subprocess
import sys

import pytest

import lineflags.moves
from lineflags import build_poset, element_to_obj, enumerate_orbits, from_permutation
from lineflags.cli import main

MIN2 = '{"b": [1, 1], "c": [1, 1], "m": [[1, 0], [0, 1]], "delta": [[1, 1]]}'
MAX2 = '{"b": [1, 1], "c": [1, 1], "m": [[0, 1], [1, 0]], "delta": [[1, 2], [2, 1]]}'
X3 = '{"b": [1, 1, 1], "c": [1, 1, 1], "m": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "delta": [[3, 3]]}'
Y3 = '{"b": [1, 1, 1], "c": [1, 1, 1], "m": [[0, 0, 1], [0, 1, 0], [1, 0, 0]], "delta": [[1, 3], [2, 2]]}'

ENUM2_TEXT = """\
. (1) / 1 .
. (1) / (1) .
. 1 / (1) .
(1) . / . 1
1 . / . (1)
"""

HASSE2_DOT = """\
digraph degeneration {
  rankdir=BT;
  n0 [label=". (1) / 1 ."];
  n1 [label=". (1) / (1) ."];
  n2 [label=". 1 / (1) ."];
  n3 [label="(1) . / . 1"];
  n4 [label="1 . / . (1)"];
  n0 -> n1 [label="I"];
  n2 -> n1 [label="I"];
  n3 -> n0 [label="IIIa"];
  n3 -> n2 [label="IIIb"];
  n3 -> n4 [label="I"];
  n4 -> n1 [label="V"];
}
"""

VERIFY2_TEXT = """\
elements: 5
covers: 6
move closure equals rank order: ok
moves are covers: ok
covers are moves: ok
greedy chains reach every target: ok
PASS
"""

# ``verify`` on (1,1) x (1,1) with the moves of ``. (1) / 1 .`` withheld.
VERIFY2_WITHHELD_TEXT = """\
elements: 5
covers: 6
move closure equals rank order: FAIL
moves are covers: ok
covers are moves: FAIL
greedy chains reach every target: FAIL
counterexample: element 0: move closure and rank order disagree
counterexample: cover 0->1 is not realized by a move
counterexample: no greedy chain from 0 to 1
FAIL
"""


VERIFY3_WITNESS_TEXT = """\
elements: 28
covers: 72
move closure equals rank order: ok
moves are covers: ok
covers are moves: ok
greedy chains reach every target: ok
orbit identification: 28/28 ok
degenerations: 72/72 edges ok
PASS
"""


VERIFY4_WITNESS_TEXT = """\
elements: 185
covers: 763
move closure equals rank order: ok
moves are covers: ok
covers are moves: ok
greedy chains reach every target: ok
orbit identification: 185/185 ok
degenerations: 763/763 edges ok
PASS
"""


def run_cli(args, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


class TestEnum:
    def test_text_golden(self):
        code, out, err = run_cli(["enum", "--b", "1,1", "--c", "1,1"])
        assert (code, err) == (0, "")
        assert out == ENUM2_TEXT

    def test_json_matches_library(self):
        code, out, _ = run_cli(["enum", "--b", "1,1", "--c", "1,1", "--format", "json"])
        assert code == 0
        assert json.loads(out) == [
            element_to_obj(el) for el in enumerate_orbits((1, 1), (1, 1))
        ]

    def test_deterministic(self):
        first = run_cli(["enum", "--b", "1,1,1", "--c", "1,1,1"])
        second = run_cli(["enum", "--b", "1,1,1", "--c", "1,1,1"])
        assert first == second


class TestHasse:
    def test_dot_golden(self):
        code, out, _ = run_cli(["hasse", "--b", "1,1", "--c", "1,1"])
        assert code == 0
        assert out == HASSE2_DOT

    def test_json_matches_poset(self):
        code, out, _ = run_cli(
            ["hasse", "--b", "1,1", "--c", "1,1", "--format", "json"]
        )
        assert code == 0
        poset = build_poset((1, 1), (1, 1))
        obj = json.loads(out)
        assert obj["elements"] == [element_to_obj(el) for el in poset.elements]
        assert [tuple(e) for e in obj["covers"]] == list(poset.covers)
        assert [tuple(k) for k in obj["cover_kinds"]] == list(poset.cover_kinds)

    def test_counts_agree_with_verify(self):
        _, dot, _ = run_cli(["hasse", "--b", "1,1,1", "--c", "1,1,1"])
        nodes = [line for line in dot.splitlines() if "[label=" in line and "->" not in line]
        edges = [line for line in dot.splitlines() if "->" in line]
        _, report, _ = run_cli(["verify", "--b", "1,1,1", "--c", "1,1,1"])
        stated = dict(
            line.split(": ") for line in report.splitlines() if ": " in line
        )
        assert len(nodes) == int(stated["elements"]) == 28
        assert len(edges) == int(stated["covers"]) == 72


class TestCompare:
    def test_less_greater_equal(self):
        code, out, _ = run_cli(["compare", MIN2, MAX2])
        assert code == 0
        assert out == "<\nstrict at rbar[0,1]: 1 vs 0\n"
        code, out, _ = run_cli(["compare", MAX2, MIN2])
        assert code == 0
        assert out == ">\nstrict at rbar[0,1]: 0 vs 1\n"
        code, out, _ = run_cli(["compare", MIN2, MIN2])
        assert (code, out) == (0, "=\n")

    def test_incomparable_pair_with_witnesses(self):
        code, out, _ = run_cli(["compare", X3, Y3])
        assert code == 0
        assert out == (
            "incomparable\n"
            "lhs<=rhs fails at rbar[2,0]: 0 vs 1\n"
            "rhs<=lhs fails at r[1,1]: 0 vs 1\n"
        )

    def test_reads_stdin(self):
        code, out, _ = run_cli(["compare", "-", MAX2], stdin_text=MIN2)
        assert code == 0
        assert out.startswith("<")

    def test_reads_files(self, tmp_path):
        path = tmp_path / "element.json"
        path.write_text(MIN2)
        code, out, _ = run_cli(["compare", str(path), MAX2])
        assert code == 0
        assert out.startswith("<")


class TestVerify:
    def test_text_golden(self):
        code, out, _ = run_cli(["verify", "--b", "1,1", "--c", "1,1"])
        assert code == 0
        assert out == VERIFY2_TEXT

    def test_witness_adds_geometric_checks(self):
        code, out, _ = run_cli(["verify", "--b", "1,1", "--c", "1,1", "--witness"])
        assert code == 0
        lines = out.splitlines()
        assert "orbit identification: 5/5 ok" in lines
        assert "degenerations: 6/6 edges ok" in lines
        assert lines[-1] == "PASS"

    def test_witness_golden_on_full_flags_three(self):
        code, out, err = run_cli(["verify", "--witness", "--b", "1,1,1", "--c", "1,1,1"])
        assert (code, err) == (0, "")
        assert out == VERIFY3_WITNESS_TEXT

    def test_witness_golden_on_full_flags_four(self):
        code, out, err = run_cli(["verify", "--witness", "--b", "1,1,1,1", "--c", "1,1,1,1"])
        assert (code, err) == (0, "")
        assert out == VERIFY4_WITNESS_TEXT

    def test_a_failed_check_prints_its_counterexamples_and_exits_1(self, monkeypatch):
        withheld = from_permutation((2, 1), (1,))
        real = lineflags.moves._checked_moves
        monkeypatch.setattr(
            lineflags.moves,
            "_checked_moves",
            lambda dm, *rest: iter(()) if dm == withheld else real(dm, *rest),
        )
        code, out, err = run_cli(["verify", "--b", "1,1", "--c", "1,1"])
        assert (code, err) == (1, "")
        assert out == VERIFY2_WITHHELD_TEXT

    def test_witness_generates_each_orbits_moves_once(self, monkeypatch):
        seen = []
        real = lineflags.moves._checked_moves
        monkeypatch.setattr(
            lineflags.moves,
            "_checked_moves",
            lambda dm, view=None: seen.append(dm) or real(dm, view),
        )
        code, out, _ = run_cli(["verify", "--b", "1,1,1", "--c", "1,1,1", "--witness"])
        assert code == 0 and out.endswith("PASS\n")
        assert len(seen) == len(set(seen)) == 28


class TestChain:
    def test_golden(self):
        code, out, _ = run_cli(["chain", MIN2, MAX2])
        assert code == 0
        assert out == "I (2,2)\nV (1,1) (2,2)\n"

    def test_not_comparable_exits_3(self):
        code, out, _ = run_cli(["chain", MAX2, MIN2])
        assert code == 3
        assert out == "not comparable\n"


class TestErrorHandling:
    def test_bad_margins_exit_2(self):
        code, _, err = run_cli(["enum", "--b", "1,x", "--c", "1,1"])
        assert code == 2
        assert "usage:" in err

    @pytest.mark.parametrize(
        "b, c",
        [("1_0", "10"), ("\u0662", "2"), (" 1", "1"), ("+1", "1"), ("1,,1", "1,1")],
        ids=["underscore", "arabic-indic-digit", "space", "plus", "empty-part"],
    )
    def test_margins_other_than_ascii_digits_exit_2(self, b, c):
        code, out, err = run_cli(["enum", "--b", b, "--c", c])
        assert (code, out) == (2, "")
        assert "usage:" in err and "not a comma-separated integer list" in err

    def test_zero_part_reaches_validation(self):
        code, out, err = run_cli(["enum", "--b", "0", "--c", "1"])
        assert (code, out) == (2, "")
        assert err == "error: BadPart(1)\n"

    def test_malformed_element_exit_2(self):
        code, _, err = run_cli(["compare", '{"m": "bogus"}', MAX2])
        assert code == 2
        assert "error:" in err

    def test_missing_file_exit_2(self):
        code, _, err = run_cli(["compare", "/no/such/file.json", MAX2])
        assert code == 2
        assert "error:" in err

    def test_float_entry_exit_2(self):
        lhs = '{"m": [[1.7, 0], [0, 1]], "delta": [[1, 1]]}'
        rhs = '{"m": [[0, 1], [1, 0]], "delta": [[1, 2]]}'
        code, out, err = run_cli(["compare", lhs, rhs])
        assert (code, out) == (2, "")
        assert "NotAnInteger(m)" in err

    def test_boolean_entry_exit_2(self):
        lhs = '{"m": [[true, 0], [0, 1]], "delta": [[1, 1]]}'
        code, out, err = run_cli(["compare", lhs, MAX2])
        assert (code, out) == (2, "")
        assert "NotAnInteger(m)" in err

    def test_element_file_that_is_not_utf8_exit_2(self, tmp_path):
        path = tmp_path / "element.json"
        path.write_bytes(b"\xff" + MAX2.encode())
        code, out, err = run_cli(["compare", str(path), MAX2])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "can't decode byte 0xff" in err
        assert err.count("\n") == 1

    def test_stdin_that_is_not_utf8_exit_2(self, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff" + MAX2.encode()), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_cli(["compare", "-", MAX2])
        assert (code, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "lhs, message",
        [
            ('{"m": [[' + "9" * 5000 + "]]}", "Exceeds the limit (4300 digits)"),
            ('{"m": ' + "[" * 100000 + "]" * 100000 + "}", "maximum recursion depth exceeded"),
        ],
        ids=["long-integer", "deep-nesting"],
    )
    def test_json_that_cannot_be_decoded_exit_2(self, lhs, message):
        code, out, err = run_cli(["compare", lhs, MAX2])
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message) and err.count("\n") == 1

    def test_undecorated_element_exit_2(self):
        code, _, err = run_cli(["compare", '{"m": [[1, 0], [0, 1]]}', MAX2])
        assert code == 2
        assert "EmptyDecoration" in err


def test_out_writes_the_same_bytes(tmp_path):
    path = tmp_path / "listing.txt"
    code, out, _ = run_cli(
        ["enum", "--b", "1,1", "--c", "1,1", "--out", str(path)]
    )
    assert (code, out) == (0, "")
    assert path.read_text() == ENUM2_TEXT


def test_module_entry_point_matches_in_process():
    proc = subprocess.run(
        [sys.executable, "-m", "lineflags", "enum", "--b", "1,1", "--c", "1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == ENUM2_TEXT
