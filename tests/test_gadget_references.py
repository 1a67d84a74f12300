"""Differential tests: the array-built gadget streams against the per-edge builders they replaced.

The references below are the earlier tuple-based builders and the earlier
per-edge `GraphStream` validation, kept verbatim in behaviour.  Each test
asserts the current code produces the same header and the same edges in
the same order, or rejects the same input with the same error text.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chasebench as cb
from chasebench.gadgets import GadgetLayout, MatchingLayout
from helpers import intersect_instance

# ------------------------------------------------------------------ references


def _left_blocks(side, layout):
    # block for layer i spans columns depth-1-i <-> depth-i, domain on the left
    q = layout.depth
    blocks = []
    for i in range(q):
        table = side.funcs[i]
        block = [
            (layout.vid(q - 1 - i, x), layout.vid(q - i, int(y)))
            for x in range(layout.k)
            for y in table.image(x)
        ]
        blocks.append(sorted(block))
    return blocks


def _right_blocks(side, layout):
    # mirrored: layer i spans columns depth+1+i <-> depth+i, domain on the right
    q = layout.depth
    blocks = []
    for i in range(q):
        table = side.funcs[i]
        block = [
            (layout.vid(q + 1 + i, x), layout.vid(q + i, int(y)))
            for x in range(layout.k)
            for y in table.image(x)
        ]
        blocks.append(sorted(block))
    return blocks


def reference_distance(inst):
    k, q = inst.n, inst.p
    layout = GadgetLayout(k, q)
    edges = []
    for block in _left_blocks(inst.left, layout) + _right_blocks(inst.right, layout):
        edges.extend(block)
    return (layout.nv, False, layout.u, layout.v, q - 1), edges


def reference_reachability(inst):
    k, q = inst.n, inst.p
    layout = GadgetLayout(k, q)
    edges = []
    for block in _left_blocks(inst.left, layout):
        edges.extend(block)
    for block in _right_blocks(inst.right, layout):
        edges.extend(sorted((b, a) for a, b in block))
    return (layout.nv, True, layout.u, layout.v, q - 1), edges


def reference_matching(inst):
    k, q = inst.n, inst.p
    lay = MatchingLayout(k, q)
    edges = []
    for x in range(1, k):
        edges.append((x, lay.pendant_left(x)))
    for c in range(1, 2 * q):
        for x in range(k):
            edges.append((lay.in_id(c, x), lay.out_id(c, x)))
    for x in range(1, k):
        edges.append((lay.v + x, lay.pendant_right(x)))

    def remap(block, domain_col, image_col):
        # gadget edge always joins the lower column's out-copy to the higher's in-copy
        if domain_col < image_col:
            out_col, in_col = domain_col, image_col
            pairs = [(a % k, b % k) for a, b in block]
        else:
            out_col, in_col = image_col, domain_col
            pairs = [(b % k, a % k) for a, b in block]
        return sorted((lay.out_id(out_col, ox), lay.in_id(in_col, ix)) for ox, ix in pairs)

    plain = GadgetLayout(k, q)
    for i, block in enumerate(_left_blocks(inst.left, plain)):
        edges.extend(remap(block, q - 1 - i, q - i))
    for i, block in enumerate(_right_blocks(inst.right, plain)):
        edges.extend(remap(block, q + 1 + i, q + i))
    return (lay.nv, False, lay.u, lay.v, q - 1), edges


def reference_stream_error(nv, edges):
    """Old per-edge GraphStream edge validation; the error text or None."""
    for a, b in edges:
        if not (0 <= a < nv and 0 <= b < nv):
            return f"edge ({a}, {b}) outside [0, {nv})"
        if a == b:
            return f"self-loop at vertex {a}"
    return None


PAIRS = [
    (cb.build_distance_gadget, reference_distance),
    (cb.build_reachability_gadget, reference_reachability),
    (cb.build_matching_gadget, reference_matching),
]


def assert_same_streams(inst):
    for build, reference in PAIRS:
        s = build(inst)
        header, edges = reference(inst)
        assert (s.nv, s.directed, s.src, s.dst, s.p) == header, build.__name__
        assert s.edges.tolist() == [list(e) for e in edges], build.__name__


# ------------------------------------------------------------------ builders


def test_builders_match_references_on_sampled_instances():
    rng = cb.derive_rng(410)
    for _ in range(150):
        k = int(rng.integers(1, 10))
        depth = int(rng.integers(1, 5))
        assert_same_streams(cb.sample_intersect_sc(k, depth, rng, include_prob=float(rng.uniform(0, 1))))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_builders_match_references_at_k1(depth):
    rng = cb.derive_rng(411, depth)
    for include_prob in (0.0, 1.0):
        assert_same_streams(cb.sample_intersect_sc(1, depth, rng, include_prob=include_prob))


def test_builders_match_references_on_empty_rows_and_tables():
    empty = cb.SetFunctionTable(3, np.zeros(4), [])
    rows = cb.SetFunctionTable.from_sets(3, [[], [0, 2], []])
    full = cb.SetFunctionTable.from_sets(3, [[0, 1, 2]] * 3)
    assert_same_streams(intersect_instance(3, [empty], [empty]))
    assert_same_streams(intersect_instance(3, [empty, empty], [empty, empty]))
    assert_same_streams(intersect_instance(3, [rows, full], [empty, rows]))
    assert_same_streams(intersect_instance(3, [full], [rows]))


def test_builders_match_references_at_k400():
    inst = cb.sample_intersect_sc(400, 3, cb.derive_rng(412), include_prob=0.03)
    assert_same_streams(inst)


# ------------------------------------------------------------------ validation


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(-2, 6), st.integers(-2, 6)), max_size=6),
)
def test_graph_stream_rejects_what_the_edge_loop_rejected(nv, edges):
    want = reference_stream_error(nv, edges)
    try:
        cb.GraphStream(nv, False, 0, 0, 0, edges)
    except ValueError as exc:
        got = str(exc)
    else:
        got = None
    assert got == want
