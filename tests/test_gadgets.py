"""Gadget geometry frozen by hand plus stream format round-trips."""
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chasebench as cb
from chasebench import gadgets
from chasebench.errors import StreamFormatError
from chasebench.verify import identity_instance
from helpers import fuzz_int, fuzz_text, intersect_instance, reference_serialize_stream, set_table

# Tiny hand case, k=2 with one layer per side (q=1):
#   left  f: 0 -> {1},  1 -> {}
#   right g: 0 -> {0},  1 -> {0, 1}
# Columns 0|1|2 hold vertices (0,1) (2,3) (4,5); u=0, v=4.  Final sets are
# {1} and {0}, so the sides do not meet.
LEFT = [[1], []]
RIGHT = [[0], [0, 1]]


def _tiny():
    return intersect_instance(2, [set_table(2, LEFT)], [set_table(2, RIGHT)])


def test_distance_gadget_hand_edges():
    d = cb.build_distance_gadget(_tiny())
    assert (d.nv, d.src, d.dst, d.p, d.directed) == (6, 0, 4, 0, False)
    # left block connects col 0 to col 1 (domain first); right col 2 to col 1
    assert d.edges.tolist() == [[0, 3], [4, 2], [5, 2], [5, 3]]
    assert cb.oracle_distance(d) == 4  # goes around: 0-3-5-2-4


def test_reachability_gadget_hand_edges():
    g = cb.build_reachability_gadget(_tiny())
    assert (g.nv, g.src, g.dst, g.p, g.directed) == (6, 0, 4, 0, True)
    # right block is re-pointed toward the higher column and re-sorted
    assert g.edges.tolist() == [[0, 3], [2, 4], [2, 5], [3, 5]]
    assert cb.oracle_reachable(g) == 0


def test_matching_gadget_hand_edges():
    m = cb.build_matching_gadget(_tiny())
    # vertices: col0 (0,1), in1 (2,3), out1 (4,5), col2 (6,7), pendants (8,9)
    assert (m.nv, m.src, m.dst, m.directed) == (10, 0, 6, False)
    free = [[1, 8], [2, 4], [3, 5], [7, 9]]
    left_block = [[0, 3]]
    right_block = [[4, 6], [4, 7], [5, 7]]
    assert m.edges.tolist() == free + left_block + right_block
    assert cb.oracle_perfect_matching(m) == 0


def test_hand_case_with_intersection():
    inst = intersect_instance(2, [set_table(2, [[0], []])], [set_table(2, RIGHT)])
    d = cb.build_distance_gadget(inst)
    assert cb.oracle_distance(d) == 2  # 0-2-4 straight across
    g = cb.build_reachability_gadget(inst)
    assert cb.oracle_reachable(g) == 1
    m = cb.build_matching_gadget(inst)
    assert cb.oracle_perfect_matching(m) == 1


@pytest.mark.parametrize("passes", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 4, 8])
def test_vertex_count_formulas(passes, k):
    inst = cb.sample_intersect_sc(k, passes + 1, cb.derive_rng(passes * 100 + k))
    d = cb.build_distance_gadget(inst)
    g = cb.build_reachability_gadget(inst)
    m = cb.build_matching_gadget(inst)
    assert d.nv == g.nv == (2 * passes + 3) * k
    assert m.nv == k * (4 * passes + 6) - 2
    assert d.p == g.p == m.p == passes


def test_layout_coordinates():
    lay = cb.GadgetLayout(3, 2)
    assert (lay.ncols, lay.nv) == (5, 15)
    assert lay.u == 0 and lay.v == lay.vid(4, 0)
    for c in range(5):
        for s in range(3):
            v = lay.vid(c, s)
            assert (lay.col(v), lay.slot(v)) == (c, s)


def test_matching_layout_coordinates():
    lay = cb.MatchingLayout(2, 1)
    assert lay.nv == 10
    assert lay.u == 0 and lay.v == 6
    assert (lay.in_id(1, 0), lay.out_id(1, 1)) == (2, 5)
    assert lay.pendant_left(1) == 8 and lay.pendant_right(1) == 9


def test_stream_is_left_blocks_then_right_blocks():
    rng = cb.derive_rng(60)
    inst = cb.sample_intersect_sc(5, 3, rng)
    d = cb.build_distance_gadget(inst)
    q = inst.p
    pos = 0
    for side, chase in ((0, inst.left), (1, inst.right)):
        # outermost table first: its block hugs the middle column, so a
        # single forward scan cannot chase through it on the first pass
        for i in range(q):
            f = chase.funcs[i]
            block = d.edges[pos:pos + f.total_image_size()].tolist()
            pos += len(block)
            assert block == sorted(block)
            cols = {(d.p + 1 - 1 - i, d.p + 1 - i) if side == 0 else (d.p + 2 + i, d.p + 1 + i)}
            lay = cb.GadgetLayout(inst.n, q)
            for a, b in block:
                assert (lay.col(a), lay.col(b)) in cols
    assert pos == d.ne


def test_reverse_stream():
    g = cb.build_reachability_gadget(_tiny())
    rev = cb.reverse_stream(g)
    assert rev.edges.tolist() == g.edges.tolist()[::-1]
    assert (rev.nv, rev.src, rev.dst, rev.p, rev.directed) == (
        g.nv, g.src, g.dst, g.p, g.directed,
    )
    assert cb.reverse_stream(rev) == g


def test_graph_stream_validation():
    with pytest.raises(ValueError):
        cb.GraphStream(2, False, 0, 1, 0, ((0, 0),))  # self-loop
    with pytest.raises(ValueError):
        cb.GraphStream(2, False, 0, 1, 0, ((0, 2),))  # endpoint range
    with pytest.raises(ValueError):
        cb.GraphStream(0, False, 0, 0, 0, ())
    with pytest.raises(ValueError):
        cb.GraphStream(2, False, 0, 2, 0, ())  # dst out of range
    with pytest.raises(ValueError):
        cb.GraphStream(2, False, 0, 1, -1, ())
    with pytest.raises(ValueError, match="pass tag must fit int64"):
        cb.GraphStream(2, False, 0, 1, 2**63, ())
    with pytest.raises(ValueError, match="shape"):
        cb.GraphStream(3, False, 0, 1, 0, ((0, 1, 2),))  # not (ne, 2)
    with pytest.raises(ValueError, match="shape"):
        cb.GraphStream(3, False, 0, 1, 0, (0, 1))
    with pytest.raises(ValueError, match="outside"):
        cb.GraphStream(3, False, 0, 1, 0, [[0, 1], [5, 2**64]])  # beyond int64
    with pytest.raises(ValueError, match="outside"):
        cb.GraphStream(3, False, 0, 1, 0, [[-(2**63) - 1, 1]])


def test_graph_stream_copies_and_freezes_its_edges():
    given_edges = np.asfortranarray([[0, 1], [1, 2], [2, 0]])
    s = cb.GraphStream(3, True, 0, 2, 0, given_edges)
    given_edges[0, 0] = 2
    assert s.edges.tolist() == [[0, 1], [1, 2], [2, 0]]
    assert s.edges.dtype == np.int64 and s.edges.flags.c_contiguous
    assert not s.edges.flags.writeable
    with pytest.raises(ValueError):
        s.edges[0, 0] = 1
    assert cb.GraphStream(3, True, 0, 2, 0, ()).edges.shape == (0, 2)


def test_graph_stream_equality_covers_every_field():
    s = cb.GraphStream(4, False, 0, 3, 1, ((0, 1), (1, 3)))
    assert s == cb.GraphStream(4, False, 0, 3, 1, np.array([[0, 1], [1, 3]]))
    for change in (
        {"nv": 5},
        {"directed": True},
        {"src": 1},
        {"dst": 2},
        {"p": 0},
        {"edges": ((1, 3), (0, 1))},
        {"edges": ((0, 1),)},
    ):
        assert s != replace(s, **change), change
    assert (s == object()) is False


def test_serialize_stream_exact_text():
    g = cb.build_reachability_gadget(_tiny())
    expected = (
        "graphstream v1 directed nv=6 ne=4 src=0 dst=4 p=0\n"
        "0 3\n"
        "2 4\n"
        "2 5\n"
        "3 5\n"
    )
    assert cb.serialize_stream(g) == expected
    assert cb.parse_stream(expected) == g
    edgeless = cb.GraphStream(3, True, 0, 2, 1, np.zeros((0, 2), dtype=np.int64))
    expected = "graphstream v1 directed nv=3 ne=0 src=0 dst=2 p=1\n"
    assert cb.serialize_stream(edgeless) == expected
    assert cb.parse_stream(expected) == edgeless


def test_serialize_stream_writes_what_the_per_edge_format_wrote():
    streams = _sampled_streams()
    streams.append(cb.GraphStream(2**63 - 1, False, 2**63 - 2, 0, 2**63 - 1, [[2**63 - 2, 10**4]]))
    for s in streams:
        assert cb.serialize_stream(s) == reference_serialize_stream(s)


def test_serialize_stream_peak_memory_stays_within_ten_times_its_text():
    inst = cb.sample_intersect_sc(400, 3, cb.derive_rng(71), include_prob=0.045)
    s = cb.build_distance_gadget(inst)
    assert s.ne >= 40_000
    tracemalloc.start()
    try:
        text = cb.serialize_stream(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * len(text)


def test_stream_roundtrip_random():
    rng = cb.derive_rng(61)
    for _ in range(25):
        k = int(rng.integers(2, 9))
        depth = int(rng.integers(1, 4))
        inst = cb.sample_intersect_sc(k, depth, rng)
        for build in (
            cb.build_distance_gadget,
            cb.build_reachability_gadget,
            cb.build_matching_gadget,
        ):
            s = build(inst)
            assert cb.parse_stream(cb.serialize_stream(s)) == s


def test_distance_edge_count_matches_table_sizes():
    rng = cb.derive_rng(62)
    inst = cb.sample_intersect_sc(6, 2, rng)
    d = cb.build_distance_gadget(inst)
    want = sum(f.total_image_size() for f in inst.left.funcs + inst.right.funcs)
    assert d.ne == want == len(d.edges)


def test_matching_gadget_is_bipartite():
    rng = cb.derive_rng(63)
    for _ in range(10):
        inst = cb.sample_intersect_sc(int(rng.integers(2, 7)), int(rng.integers(1, 4)), rng)
        m = cb.build_matching_gadget(inst)
        colors = cb.two_color(m)
        for a, b in m.edges:
            assert colors[a] != colors[b]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "line 1"),
        ("graphstream v2 directed nv=2 ne=0 src=0 dst=1 p=0\n", "graphstream v1"),
        ("graphstream v1 sideways nv=2 ne=0 src=0 dst=1 p=0\n", "unknown kind"),
        ("graphstream v1 directed ne=0 src=0 dst=1 p=0\n", "nv"),
        ("graphstream v1 directed nv=2 ne=0 src=0 dst=1\n", "p"),
        ("graphstream v1 directed nv=x ne=0 src=0 dst=1 p=0\n", "integer"),
        ("graphstream v1 directed nv=2 ne=1 src=0 dst=1 p=0\n", "header says ne=1"),
        ("graphstream v1 directed nv=2 ne=0 src=0 dst=1 p=0\n0 1\n", "header says ne=0"),
        ("graphstream v1 directed nv=3 ne=2 src=0 dst=1 p=0\n0 1\n", "header says ne=2"),
        ("graphstream v1 directed nv=2 ne=1000000000000 src=0 dst=1 p=0\n0 1\n", "header says ne="),
        ("graphstream v1 directed nv=2 ne=-1 src=0 dst=1 p=0\n0 1\n", "header says ne=-1"),
        ("graphstream v1 directed nv=2 ne=1 src=0 dst=1 p=0\n0\n", "expected 'a b'"),
        ("graphstream v1 directed nv=2 ne=1 src=0 dst=1 p=0\n0 5\n", "outside"),
        ("graphstream v1 directed nv=2 ne=1 src=0 dst=1 p=0\n0 a\n", "integer"),
        ("graphstream v1 directed nv=2 ne=1 src=0 dst=1 p=0\n1 1\n", "self-loop"),
        ("graphstream v1 directed nv=100000000000000000000 ne=0 src=0 dst=1 p=0\n", "fit int64"),
        ("graphstream v1 directed nv=2 ne=0 src=0 dst=1 p=-9223372036854775809\n", "fit int64"),
        ("graphstream v1 directed nv=2 ne=0 src=0 dst=1 p=9223372036854775808\n", "fit int64"),
        ("graphstream v1 directed nv=2 ne=1 src=0 dst=1 p=9223372036854775808\n0 1\n", "fit int64"),
        ("graphstream v1 directed nv=2 ne=1 src=0 dst=1 p=0\n0 100000000000000000000\n", "outside"),
    ],
)
def test_parse_stream_rejects_malformed_text(text, fragment):
    with pytest.raises(StreamFormatError) as err:
        cb.parse_stream(text)
    assert fragment in str(err.value)


def test_parse_stream_reports_line_numbers():
    for text, message in (
        ("graphstream v1 directed nv=2 ne=2 src=0 dst=1 p=0\n0 1\n1 9\n", "line 3"),
        (
            "graphstream v1 directed nv=3 ne=3 src=0 dst=1 p=0\n0 1\n1 2\n2 2\n",
            "line 4: self-loop at vertex 2",
        ),
        (
            "graphstream v1 directed nv=3 ne=2 src=0 dst=1 p=0\n0 1\n-99999999999999999999 2\n",
            "line 3: endpoint outside [0, 3)",
        ),
    ):
        with pytest.raises(StreamFormatError) as err:
            cb.parse_stream(text)
        assert str(err.value).startswith(message)


def _sampled_streams():
    """Gadgets of all three kinds: an edgeless one, k=1, sampled small
    shapes and one k=400 depth-3 instance."""
    rng = cb.derive_rng(64)
    empty = intersect_instance(1, [set_table(1, [[]])], [set_table(1, [[]])])
    instances = [empty, cb.sample_intersect_sc(1, 2, rng)]
    instances += [
        cb.sample_intersect_sc(int(rng.integers(2, 9)), int(rng.integers(1, 4)), rng)
        for _ in range(20)
    ]
    instances.append(cb.sample_intersect_sc(400, 3, rng, include_prob=0.01))
    builds = (cb.build_distance_gadget, cb.build_reachability_gadget, cb.build_matching_gadget)
    return [build(inst) for inst in instances for build in builds]


def _count_line_parses(monkeypatch):
    calls = []
    line_parser = gadgets._parse_stream_lines

    def counted(text):
        calls.append(text)
        return line_parser(text)

    monkeypatch.setattr(gadgets, "_parse_stream_lines", counted)
    return calls


def test_parse_stream_fast_path_equals_the_line_parser(monkeypatch):
    streams = _sampled_streams()
    assert min(s.ne for s in streams) == 0 and max(s.ne for s in streams) > 5000
    texts = [cb.serialize_stream(s) for s in streams]
    want = [gadgets._parse_stream_lines(text) for text in texts]
    calls = _count_line_parses(monkeypatch)
    for stream, text, expected in zip(streams, texts, want):
        got = cb.parse_stream(text)
        assert got == expected == stream
        assert got.edges.flags.c_contiguous and not got.edges.flags.writeable
    assert calls == []  # canonical text never reaches the line parser


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: t.replace(" ", "  "),
        lambda t: re.sub(r"\n(\d+) (\d+)", r"\n00\1 0\2", t),
        lambda t: t.replace("\n1 ", "\n+1 "),
        lambda t: t.replace(" ", "\t"),
        lambda t: t[:-1],
        lambda t: t.replace("\n", "\r\n"),
    ],
    ids=["double-spaces", "leading-zeros", "plus-sign", "tabs", "no-final-newline", "crlf"],
)
def test_non_canonical_text_parses_equal_through_the_line_parser(monkeypatch, edit):
    stream = cb.build_matching_gadget(cb.sample_intersect_sc(3, 2, cb.derive_rng(65)))
    canonical = cb.serialize_stream(stream)
    text = edit(canonical)
    assert text != canonical
    calls = _count_line_parses(monkeypatch)
    assert cb.parse_stream(text) == stream
    assert calls == [text]


def _in_body(edit):
    """Apply edit to the edge lines only, leaving the header canonical."""
    return lambda t: t[: t.index("\n") + 1] + edit(t[t.index("\n") + 1:])


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: t.replace("nv=", "nv=0", 1),
        lambda t: t.replace(" ", "  ", 1),
        lambda t: t.replace(" ", "\t"),
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace("\n", "\r\n", 1),
        lambda t: t.replace("\n", "\r\n")[:-2],
        lambda t: t[:-1],
        lambda t: t[:-1] + "\t\n",
        _in_body(lambda b: b.replace(" ", "  ")),
        _in_body(lambda b: re.sub(r"(?m)^(\d+)", r"0\1", b)),
        _in_body(lambda b: re.sub(r"(?m)^(\d+)", r"+\1", b)),
    ],
    ids=[
        "header-leading-zero", "header-double-space", "tabs", "crlf", "header-crlf",
        "crlf-no-final-newline", "no-final-newline", "trailing-tab",
        "body-double-spaces", "body-leading-zeros", "body-plus-sign",
    ],
)
def test_non_canonical_layout_skips_the_bulk_tokenizer(monkeypatch, edit):
    stream = cb.build_distance_gadget(cb.sample_intersect_sc(3, 2, cb.derive_rng(66)))
    canonical = cb.serialize_stream(stream)
    text = edit(canonical)
    assert text != canonical

    def refused(*args, **kwargs):
        raise AssertionError("bulk tokenizer ran on non-canonical text")

    monkeypatch.setattr(np, "fromstring", refused)
    assert cb.parse_stream(text) == stream


def test_numpy_tokenizer_faults_end_in_the_line_parser_message():
    # pinned numpy faults the byte scan keeps away from np.fromstring: a bad
    # token raises, an out-of-int64 token saturates
    with pytest.raises(ValueError):
        np.fromstring("3 x", dtype=np.int64, sep=" ")
    saturated = np.fromstring("99999999999999999999", dtype=np.int64, sep=" ")
    assert saturated.tolist() == [2**63 - 1]
    header = "graphstream v1 undirected nv=4 ne=1 src=0 dst=3 p=0\n"
    for body, message in (
        ("3 x\n", "line 2: bad integer in '3 x'"),
        ("99999999999999999999 1\n", "line 2: endpoint outside [0, 4)"),
    ):
        with pytest.raises(StreamFormatError) as direct:
            gadgets._parse_stream_lines(header + body)
        with pytest.raises(StreamFormatError) as err:
            cb.parse_stream(header + body)
        assert str(err.value) == str(direct.value) == message


def test_huge_edge_count_allocates_nothing_from_the_header():
    text = f"graphstream v1 directed nv=2 ne={10**15} src=0 dst=1 p=0\n0 1\n"
    tracemalloc.start()
    try:
        with pytest.raises(StreamFormatError) as err:
            cb.parse_stream(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"line 1: header says ne={10**15} but found 1 edge lines"
    assert peak < 2**20


@st.composite
def _stream_texts(draw):
    """Mostly well-formed graphstream text with numbers now and then out of
    range and a token or a line now and then replaced by any text."""
    nv = fuzz_int(draw, 1, 12)
    last = max(min(nv, 12) - 1, 0)
    rows = draw(st.integers(0, 6))
    header = {
        "nv": nv,
        "ne": fuzz_int(draw, rows, rows),
        "src": fuzz_int(draw, 0, last),
        "dst": fuzz_int(draw, 0, last),
        "p": fuzz_int(draw, 0, 3),
    }
    kind = draw(st.sampled_from(["directed", "undirected"]))
    tokens = ["graphstream", "v1", kind] + [f"{key}={value}" for key, value in header.items()]
    lines = [" ".join(fuzz_text(draw, token) for token in tokens)]
    for _ in range(rows):
        lines.append(fuzz_text(draw, f"{fuzz_int(draw, 0, last)} {fuzz_int(draw, 0, last)}"))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n", "\n\n"]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_stream_texts(), st.text(max_size=40)))
def test_parse_stream_fuzz_round_trips_or_reports_a_line(text):
    try:
        stream = cb.parse_stream(text)
    except StreamFormatError as exc:
        assert re.match(r"line [1-9][0-9]*: ", str(exc)), str(exc)
    else:
        assert cb.serialize_stream(stream) == reference_serialize_stream(stream)
        assert cb.parse_stream(cb.serialize_stream(stream)) == stream


@settings(max_examples=400, deadline=None)
@given(st.one_of(_stream_texts(), st.text(max_size=40)))
def test_parse_stream_fuzz_agrees_with_the_line_parser(text):
    # whatever the fast path accepts, the line parser accepts as the same
    # stream; whatever either refuses, both refuse with the same message
    try:
        want = gadgets._parse_stream_lines(text)
    except StreamFormatError as exc:
        with pytest.raises(StreamFormatError) as err:
            cb.parse_stream(text)
        assert str(err.value) == str(exc)
    else:
        assert cb.parse_stream(text) == want


def test_identity_gadget_distance_is_exactly_two_q():
    for q in (1, 2, 3):
        inst = identity_instance(4, q)
        d = cb.build_distance_gadget(inst)
        assert cb.oracle_distance(d) == 2 * q
