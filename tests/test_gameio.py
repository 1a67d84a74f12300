"""Text round-trips and hand-frozen serializations for the game format."""
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chasebench as cb
from chasebench import gameio
from helpers import (
    FUZZ_CHARS,
    fuzz_int,
    fuzz_text,
    intersect_instance,
    reference_serialize_game,
    set_table,
)

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
        # a header key the kind does not use is refused, not dropped
        ("scgame v1 kind=pc n=2 p=1 r=3\ntable 0\n0: 1\n1: 0\n", "takes no header key 'r'"),
        ("scgame v1 kind=pc n=2 p=1 t=9\ntable 0\n0: 1\n1: 0\n", "takes no header key 't'"),
        ("scgame v1 kind=intersectsc n=1 p=1 r=2\ntable 0\n0:\ntable 1\n0:\n", "takes no header key 'r'"),
        ("scgame v1 kind=pc n=2 p=1 foo=bar\ntable 0\n0: 1\n1: 0\n", "takes no header key 'foo'"),
        ("scgame v1 kind=pc n=2 p=1 r=3 t=9 foo=bar\ntable 0\n0: 1\n1: 0\n", "line 1: kind=pc takes no header key 'r'"),
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
    table_lines = []
    for idx in range(tables):
        table_lines.append(len(lines))
        lines.append(fuzz_text(draw, f"table {idx}"))
        for x in range(rows):
            if kind in ("sc", "intersectsc"):
                targets = sorted({fuzz_int(draw, 0, rows - 1) for _ in range(draw(st.integers(0, 3)))})
            else:
                targets = [fuzz_int(draw, 0, rows - 1)]
            lines.append(fuzz_text(draw, f"{x}:" + "".join(f" {y}" for y in targets)))
    if len(table_lines) > 1 and not draw(st.integers(0, 3)):
        # move a `table j` line up one place: a row of table j-1 joins table
        # j, while the row labels still read 0..n-1 over and over
        at = draw(st.sampled_from(table_lines[1:]))
        lines[at - 1], lines[at] = lines[at], lines[at - 1]
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
        assert cb.serialize_game(inst) == reference_serialize_game(inst)
        assert cb.parse_game(cb.serialize_game(inst)) == inst


def _outcome(parse, text):
    try:
        return parse(text)
    except cb.GameFormatError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_game_texts(), st.text(FUZZ_CHARS, max_size=40)))
def test_parse_game_fuzz_agrees_with_the_line_parser(text):
    # whatever the fast path accepts, the line parser accepts as the same
    # instance; whatever either refuses, both refuse with the same message
    assert _outcome(cb.parse_game, text) == _outcome(gameio._parse_game_lines, text)


def _sampled_games():
    """Instances of all five kinds in sampled small shapes, single-element
    ones, and k=400 set-chase and pointer-chase instances."""
    rng = cb.derive_rng(67)
    games = [
        intersect_instance(1, [set_table(1, [[]])], [set_table(1, [[0]])]),
        cb.sample_uniform_or_lpce(1, 1, 1, 1, rng),
    ]
    for _ in range(8):
        n, p, r = int(rng.integers(1, 9)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        games += [
            cb.sample_uniform_pc(n, p, rng),
            cb.sample_intersect_sc(n, p, rng).left,
            cb.sample_uniform_lpce(n, p, r, rng),
            cb.sample_uniform_or_lpce(n, p, r, int(rng.integers(1, 4)), rng),
            cb.sample_intersect_sc(n, p, rng),
        ]
    games += [cb.sample_intersect_sc(400, 3, rng, include_prob=0.01), cb.sample_uniform_lpce(400, 3, 4, rng)]
    return games


def _count_line_parses(monkeypatch):
    calls = []
    line_parser = gameio._parse_game_lines

    def counted(text):
        calls.append(text)
        return line_parser(text)

    monkeypatch.setattr(gameio, "_parse_game_lines", counted)
    return calls


def test_parse_game_fast_path_equals_the_line_parser(monkeypatch):
    games = _sampled_games()
    assert {type(inst) for inst in games} == {
        cb.PcInstance, cb.ScInstance, cb.LpceInstance, cb.OrLpceInstance, cb.IntersectScInstance
    }
    texts = [cb.serialize_game(inst) for inst in games]
    want = [gameio._parse_game_lines(text) for text in texts]
    calls = _count_line_parses(monkeypatch)
    for inst, text, expected in zip(games, texts, want):
        assert cb.parse_game(text) == expected == inst
    assert calls == []  # canonical text never reaches the line parser


def test_serialize_game_writes_what_the_per_line_format_wrote():
    games = _sampled_games() + _EDITED_GAMES
    assert {type(inst) for inst in games} == {
        cb.PcInstance, cb.ScInstance, cb.LpceInstance, cb.OrLpceInstance, cb.IntersectScInstance
    }
    for inst in games:
        assert cb.serialize_game(inst) == reference_serialize_game(inst)


# a table of each shape: set rows with zero, one and two targets, function rows
_EDITED_GAMES = [
    intersect_instance(3, [set_table(3, [[0, 1], [], [1]])], [set_table(3, [[2], [0, 2], []])]),
    cb.LpceInstance(
        cb.PcInstance(3, 1, (cb.FunctionTable(3, np.array([1, 0, 2])),)),
        cb.PcInstance(3, 1, (cb.FunctionTable(3, np.array([2, 1, 1])),)),
        2,
    ),
]


def _in_rows(edit):
    """Apply edit to the table rows only, leaving the header and the
    `table j` lines canonical."""
    return lambda t: re.sub(r"(?m)^\d+:.*$", lambda row: edit(row.group(0)), t)


_LAYOUT_EDITS = {
    "blank-lines": lambda t: t.replace("\ntable", "\n\ntable"),
    "double-spaces": _in_rows(lambda row: row.replace(" ", "  ")),
    "leading-zeros": _in_rows(lambda row: re.sub(r"(\d+)", r"0\1", row)),
    "plus-sign": _in_rows(lambda row: row.replace(" 1", " +1")),
    "tabs": _in_rows(lambda row: row.replace(" ", "\t")),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "no-final-newline": lambda t: t[:-1],
    "header-leading-zero": lambda t: t.replace("n=", "n=0", 1),
    "header-double-space": lambda t: t.replace(" ", "  ", 1),
    "header-crlf": lambda t: t.replace("\n", "\r\n", 1),
    "trailing-tab": lambda t: t[:-1] + "\t\n",
}


@pytest.mark.parametrize("inst", _EDITED_GAMES, ids=["set-rows", "function-rows"])
@pytest.mark.parametrize("edit", _LAYOUT_EDITS.values(), ids=_LAYOUT_EDITS.keys())
def test_non_canonical_text_parses_equal_through_the_line_parser(monkeypatch, edit, inst):
    canonical = cb.serialize_game(inst)
    text = edit(canonical)
    assert text != canonical

    def refused(*args, **kwargs):
        raise AssertionError("bulk tokenizer ran on non-canonical text")

    monkeypatch.setattr(np, "fromstring", refused)
    calls = _count_line_parses(monkeypatch)
    assert cb.parse_game(text) == inst
    assert calls == [text]


def test_table_zero_spelled_00_fails_alike_through_the_line_parser(monkeypatch):
    text = cb.serialize_game(_EDITED_GAMES[0]).replace("table 0\n", "table 00\n")
    want = _outcome(gameio._parse_game_lines, text)
    assert want == "line 2: expected 'table 0', got 'table 00'"
    calls = _count_line_parses(monkeypatch)
    assert _outcome(cb.parse_game, text) == want
    assert calls == [text]


@pytest.mark.parametrize(
    "text,message",
    [
        (
            "scgame v1 kind=pc n=2 p=2\ntable 0\n0: 1\n1: 0\n0: 1\ntable 1\n1: 0\n",
            "line 5: expected 'table 1', got '0: 1'",
        ),
        (
            "scgame v1 kind=sc n=2 p=2\ntable 0\n0: 1\n1: 0\n0:\ntable 1\n1: 0 1\n",
            "line 5: expected 'table 1', got '0:'",
        ),
    ],
    ids=["function-rows", "set-rows"],
)
def test_row_moved_between_tables_fails_alike_through_the_line_parser(monkeypatch, text, message):
    # the labels still read 0, 1, 0, 1 and the row total is n * tables,
    # but one table holds three rows and the other one
    assert _outcome(gameio._parse_game_lines, text) == message
    calls = _count_line_parses(monkeypatch)
    assert _outcome(cb.parse_game, text) == message
    assert calls == [text]


def test_form_feed_in_the_header_ends_the_header_line():
    # str.splitlines breaks the line at the form feed, so 'foo=1' is line 2;
    # a canonical check that splits on '\n' and on whitespace alone would
    # read one header with a stray token instead
    text = "scgame v1 kind=pc n=1 p=1\x0cfoo=1\ntable 0\n0: 0\n"
    with pytest.raises(cb.GameFormatError) as err:
        cb.parse_game(text)
    assert str(err.value) == "line 2: expected 'table 0', got 'foo=1'"


@pytest.mark.parametrize(
    "text,message",
    [
        (
            "scgame v1 kind=sc n=1000000000000 p=1\ntable 0\n0:\n",
            "line 4: table 0: missing row for element 1",
        ),
        (
            f"scgame v1 kind=sc n=1 p={10**12}\ntable 0\n0:\n",
            f"line 4: expected {10**12} tables, found 1",
        ),
    ],
    ids=["n", "p"],
)
def test_huge_header_counts_allocate_nothing_from_the_header(text, message):
    tracemalloc.start()
    try:
        with pytest.raises(cb.GameFormatError) as err:
            cb.parse_game(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    assert peak < 2**20


def test_serialize_rejects_unknown_objects():
    with pytest.raises(TypeError):
        cb.serialize_game(object())


def test_parse_ignores_blank_lines():
    text = "scgame v1 kind=pc n=2 p=1\n\ntable 0\n\n0: 1\n1: 0\n\n"
    inst = cb.parse_game(text)
    assert cb.eval_pc(inst) == 1
