"""Text round-trips and hand-frozen serializations for the game format."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chasebench as cb
from helpers import fuzz_int, fuzz_text, intersect_instance, set_table

GOLDEN = __import__("pathlib").Path(__file__).parent / "golden"


def test_serialize_lpce_exact_text():
    left = cb.PcInstance(2, 1, (cb.FunctionTable(2, np.array([1, 0])),))
    right = cb.PcInstance(2, 1, (cb.FunctionTable(2, np.array([0, 0])),))
    inst = cb.LpceInstance(left, right, 2)
    expected = (
        "scgame v1 kind=lpce n=2 p=1 r=2\n"
        "table 0\n"
        "0: 1\n"
        "1: 0\n"
        "table 1\n"
        "0: 0\n"
        "1: 0\n"
    )
    assert cb.serialize_game(inst) == expected
    assert cb.parse_game(expected) == inst


def test_serialize_intersectsc_exact_text():
    inst = intersect_instance(
        2,
        [set_table(2, [[0, 1], []])],
        [set_table(2, [[1], [0]])],
    )
    expected = (
        "scgame v1 kind=intersectsc n=2 p=1\n"
        "table 0\n"
        "0: 0 1\n"
        "1:\n"
        "table 1\n"
        "0: 1\n"
        "1: 0\n"
    )
    assert cb.serialize_game(inst) == expected
    assert cb.parse_game(expected) == inst


def test_orlpce_lists_item_tables_left_then_right():
    rng = cb.derive_rng(12)
    inst = cb.sample_uniform_or_lpce(3, 2, 2, 2, rng)
    text = cb.serialize_game(inst)
    # 2 items x 2 sides x p=2 tables, 3 rows + 1 header line each
    assert text.count("table ") == 8
    blocks = text.splitlines()
    assert blocks[1] == "table 0" and blocks[5] == "table 1"
    parsed = cb.parse_game(text)
    assert parsed == inst
    # first block is item 0's outer left table
    assert [int(x) for x in blocks[2].split(": ")[1].split()] == [
        int(inst.items[0].left.funcs[0].image[0])
    ]


ROUNDTRIP_KINDS = ["pc", "sc", "lpce", "orlpce", "intersectsc"]


@pytest.mark.parametrize("kind", ROUNDTRIP_KINDS)
def test_roundtrip_random_instances(kind):
    # a fixed seed per kind: str hashes are randomized per process
    rng = cb.derive_rng(64, ROUNDTRIP_KINDS.index(kind))
    for _ in range(20):
        n = int(rng.integers(1, 12))
        p = int(rng.integers(1, 4))
        if kind == "pc":
            inst = cb.sample_uniform_pc(n, p, rng)
        elif kind == "sc":
            inst = cb.sample_intersect_sc(n, p, rng).left
        elif kind == "lpce":
            inst = cb.sample_uniform_lpce(n, p, int(rng.integers(1, n + 2)), rng)
        elif kind == "orlpce":
            inst = cb.sample_uniform_or_lpce(
                n, p, int(rng.integers(1, n + 2)), int(rng.integers(1, 4)), rng
            )
        else:
            inst = cb.sample_intersect_sc(n, p, rng)
        text = cb.serialize_game(inst)
        again = cb.parse_game(text)
        assert again == inst
        assert cb.serialize_game(again) == text


def test_degenerate_single_element_instance():
    inst = intersect_instance(1, [set_table(1, [[0]])], [set_table(1, [[]])])
    text = cb.serialize_game(inst)
    parsed = cb.parse_game(text)
    assert parsed == inst
    assert cb.eval_intersect_sc(parsed) == 0


def test_golden_game_file_parses_and_reserializes():
    text = (GOLDEN / "intersectsc_n8_p2_seed20260825.game").read_text()
    inst = cb.parse_game(text)
    assert (inst.n, inst.p) == (8, 2)
    assert cb.serialize_game(inst) == text


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "line 1"),
        ("scgame v2 kind=pc n=2 p=1\n", "scgame v1"),
        ("scgame v1 n=2 p=1\n", "missing kind"),
        ("scgame v1 kind=pc p=1\n", "missing n"),
        ("scgame v1 kind=pc n=x p=1\n", "integer"),
        ("scgame v1 kind=pc n=0 p=1\n", "positive"),
        ("scgame v1 kind=pc n=2 p=1 junk\n", "malformed header token"),
        ("scgame v1 kind=mystery n=2 p=1\ntable 0\n0: 0\n1: 0\n", "unknown kind"),
        ("scgame v1 kind=lpce n=2 p=1\n", "requires r"),
        ("scgame v1 kind=orlpce n=2 p=1 r=2\n", "requires r and t"),
        ("scgame v1 kind=pc n=2 p=1\ntable 1\n0: 0\n1: 0\n", "expected 'table 0'"),
        ("scgame v1 kind=pc n=2 p=1\ntable 0\n1: 0\n0: 0\n", "ascending"),
        ("scgame v1 kind=pc n=2 p=1\ntable 0\n0: 2\n1: 0\n", "outside"),
        ("scgame v1 kind=pc n=2 p=1\ntable 0\n0: 0 1\n1: 0\n", "exactly one"),
        ("scgame v1 kind=pc n=2 p=1\ntable 0\n0: 0\n", "missing row"),
        ("scgame v1 kind=pc n=2 p=1\ntable 0\n0: 0\n1: 0\nextra\n", "trailing"),
        ("scgame v1 kind=sc n=2 p=1\ntable 0\n0: 1 0\n1:\n", "ascending"),
        ("scgame v1 kind=sc n=2 p=1\ntable 0\n0: 0 0\n1:\n", "ascending"),
        ("scgame v1 kind=pc n=2 p=1\ntable 0\n0 0\n1: 0\n", "expected 'x: targets'"),
        ("scgame v1 kind=pc n=2 p=1\ntable 0\n0: a\n1: 0\n", "integers"),
    ],
)
def test_parse_rejects_malformed_text(text, fragment):
    with pytest.raises(cb.GameFormatError) as err:
        cb.parse_game(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,message",
    [
        ("scgame v1 kind=pc n=2 p=1\ntable 0\n0: 0\n1: 9\n", "line 4: target 9 outside [0, 2)"),
        # a missing table or row is reported just past the last line
        ("scgame v1 kind=pc n=2 p=1\ntable 0\n0: 0\n", "line 4: table 0: missing row for element 1"),
        ("scgame v1 kind=lpce n=1 p=1 r=1\ntable 0\n0: 0\n\n", "line 5: expected 2 tables, found 1"),
        ("scgame v1 kind=sc n=1 p=1", "line 2: expected 1 tables, found 0"),
    ],
)
def test_parse_error_reports_line_numbers(text, message):
    with pytest.raises(cb.GameFormatError) as err:
        cb.parse_game(text)
    assert str(err.value) == message


# tables per chase layer; orlpce has t times as many
_TABLES_PER_LAYER = {"pc": 1, "sc": 1, "lpce": 2, "orlpce": 2, "intersectsc": 2}


@st.composite
def _game_texts(draw):
    """Mostly well-formed scgame text with numbers now and then out of
    range, a token or a line now and then replaced by any text, and now and
    then the tail cut off."""
    kind = draw(st.sampled_from(sorted(_TABLES_PER_LAYER)))
    n, p, t = fuzz_int(draw, 1, 3), fuzz_int(draw, 1, 2), fuzz_int(draw, 1, 2)
    header = {"kind": kind, "n": n, "p": p}
    if kind in ("lpce", "orlpce"):
        header["r"] = fuzz_int(draw, 1, 4)
    if kind == "orlpce":
        header["t"] = t
    tokens = ["scgame", "v1"] + [f"{key}={value}" for key, value in header.items()]
    lines = [" ".join(fuzz_text(draw, token) for token in tokens)]
    rows = min(max(n, 1), 3)
    tables = _TABLES_PER_LAYER[kind] * min(max(p, 1), 2) * (min(max(t, 1), 2) if kind == "orlpce" else 1)
    for idx in range(tables):
        lines.append(fuzz_text(draw, f"table {idx}"))
        for x in range(rows):
            if kind in ("sc", "intersectsc"):
                targets = sorted({fuzz_int(draw, 0, rows - 1) for _ in range(draw(st.integers(0, 3)))})
            else:
                targets = [fuzz_int(draw, 0, rows - 1)]
            lines.append(fuzz_text(draw, f"{x}:" + "".join(f" {y}" for y in targets)))
    if not draw(st.integers(0, 7)):
        lines = lines[: draw(st.integers(1, len(lines)))]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n", "\n\n"]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_game_texts(), st.text(max_size=40)))
def test_parse_game_fuzz_round_trips_or_reports_a_line(text):
    try:
        inst = cb.parse_game(text)
    except cb.GameFormatError as exc:
        assert re.match(r"line [1-9][0-9]*: ", str(exc)), str(exc)
    else:
        assert cb.parse_game(cb.serialize_game(inst)) == inst


def test_serialize_rejects_unknown_objects():
    with pytest.raises(TypeError):
        cb.serialize_game(object())


def test_parse_ignores_blank_lines():
    text = "scgame v1 kind=pc n=2 p=1\n\ntable 0\n\n0: 1\n1: 0\n\n"
    inst = cb.parse_game(text)
    assert cb.eval_pc(inst) == 1
