"""Text round-trips and hand-frozen serializations for the game format."""
import numpy as np
import pytest

import chasebench as cb
from helpers import intersect_instance, set_table

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


def test_parse_error_reports_line_numbers():
    text = "scgame v1 kind=pc n=2 p=1\ntable 0\n0: 0\n1: 9\n"
    with pytest.raises(cb.GameFormatError) as err:
        cb.parse_game(text)
    assert "line 4" in str(err.value)


def test_serialize_rejects_unknown_objects():
    with pytest.raises(TypeError):
        cb.serialize_game(object())


def test_parse_ignores_blank_lines():
    text = "scgame v1 kind=pc n=2 p=1\n\ntable 0\n\n0: 1\n1: 0\n\n"
    inst = cb.parse_game(text)
    assert cb.eval_pc(inst) == 1
