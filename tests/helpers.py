"""Shared builders and reference serializers for the test suite (no
assertions live here)."""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

import chasebench as cb
from chasebench import gadgets, gameio


def set_table(n: int, rows) -> cb.SetFunctionTable:
    """Build a set-valued table from a list of per-element target iterables."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    flat: list[int] = []
    for x, row in enumerate(rows):
        targets = sorted(row)
        offsets[x + 1] = offsets[x] + len(targets)
        flat.extend(targets)
    return cb.SetFunctionTable(n, offsets, np.array(flat, dtype=np.int64))


def fuzz_int(draw, low: int, high: int) -> int:
    """Mostly in [low, high]; now and then just past it, or past int64."""
    if draw(st.integers(0, 14)):
        return draw(st.integers(low, high))
    return draw(st.sampled_from([low - 1, high + 1, 2**63 - 1, 2**63, -(2**63) - 1]))


# characters str.splitlines breaks a line at but str.split("\n") does not,
# drawn as often as any other character
LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\r"
FUZZ_CHARS = st.one_of(st.characters(), st.sampled_from(LINE_BREAKS))


def fuzz_text(draw, value: str) -> str:
    """Mostly value itself; now and then any short text instead."""
    return value if draw(st.integers(0, 29)) else draw(st.text(FUZZ_CHARS, max_size=6))


def identity_set_table(n: int) -> cb.SetFunctionTable:
    return set_table(n, [[x] for x in range(n)])


def intersect_instance(k: int, left_tables, right_tables) -> cb.IntersectScInstance:
    depth = len(left_tables)
    return cb.IntersectScInstance(
        cb.ScInstance(k, depth, tuple(left_tables)),
        cb.ScInstance(k, depth, tuple(right_tables)),
    )


def all_set_tables(k: int) -> list[cb.SetFunctionTable]:
    """Every mapping from [k] to subsets of [k]; 2**(k*k) tables."""
    subsets = [[i for i in range(k) if mask >> i & 1] for mask in range(2**k)]
    out = []
    idx = [0] * k
    while True:
        out.append(set_table(k, [subsets[i] for i in idx]))
        for pos in range(k - 1, -1, -1):
            idx[pos] += 1
            if idx[pos] < len(subsets):
                break
            idx[pos] = 0
        else:
            return out


def brute_eval_sc(inst: cb.ScInstance) -> frozenset[int]:
    """Pure-python reference for the set chase (applies funcs[p-1] first)."""
    cur = {0}
    for f in reversed(inst.funcs):
        nxt: set[int] = set()
        for x in cur:
            lo, hi = int(f.offsets[x]), int(f.offsets[x + 1])
            nxt.update(int(v) for v in f.values[lo:hi])
        cur = nxt
    return frozenset(cur)


def brute_intersect(inst: cb.IntersectScInstance) -> int:
    return int(bool(brute_eval_sc(inst.left) & brute_eval_sc(inst.right)))


# The sorted-array set step that games._start/_step replaced, kept verbatim
# as the reference for the mask chase and the earlier protocol strategies.


def _vec_apply_sorted(f: cb.SetFunctionTable, elems: np.ndarray) -> np.ndarray:
    """Union of image rows for a sorted element array; returns a sorted array."""
    if elems.size == 0:
        return np.zeros(0, dtype=np.int64)
    parts = [f.values[f.offsets[x]:f.offsets[x + 1]] for x in elems.tolist()]
    joined = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    return np.unique(joined)


# ------------------------------------------------- serializers, as they were
# The per-line writers that util.format_canonical_rows replaced, kept
# verbatim as references for the text both serializers must write.


def _format_function_table(f: cb.FunctionTable) -> list[str]:
    return [f"{x}: {y}" for x, y in enumerate(f.image.tolist())]


def _format_set_table(f: cb.SetFunctionTable) -> list[str]:
    values, offsets = f.values.tolist(), f.offsets.tolist()
    lines = []
    for x in range(f.n):
        row = " ".join(map(str, values[offsets[x]:offsets[x + 1]]))
        lines.append(f"{x}: {row}" if row else f"{x}:")
    return lines


def reference_serialize_game(inst) -> str:
    _format_header = gameio._format_header
    if isinstance(inst, cb.PcInstance):
        head = _format_header("pc", n=inst.n, p=inst.p)
        tables = [_format_function_table(f) for f in inst.funcs]
    elif isinstance(inst, cb.ScInstance):
        head = _format_header("sc", n=inst.n, p=inst.p)
        tables = [_format_set_table(f) for f in inst.funcs]
    elif isinstance(inst, cb.LpceInstance):
        head = _format_header("lpce", n=inst.n, p=inst.p, r=inst.r)
        tables = [_format_function_table(f) for f in inst.tables()]
    elif isinstance(inst, cb.OrLpceInstance):
        head = _format_header("orlpce", n=inst.n, p=inst.p, r=inst.r, t=inst.t)
        tables = [_format_function_table(f) for item in inst.items for f in item.tables()]
    elif isinstance(inst, cb.IntersectScInstance):
        head = _format_header("intersectsc", n=inst.n, p=inst.p)
        tables = [_format_set_table(f) for f in inst.left.funcs + inst.right.funcs]
    else:
        raise TypeError(f"cannot serialize {type(inst).__name__}")
    lines = [head]
    for idx, block in enumerate(tables):
        lines.append(f"table {idx}")
        lines.extend(block)
    return "\n".join(lines) + "\n"


def reference_serialize_stream(stream: cb.GraphStream) -> str:
    kind = "directed" if stream.directed else "undirected"
    header = gadgets._format_header(kind, stream.nv, stream.ne, stream.src, stream.dst, stream.p)
    return header + "\n" + "%d %d\n" * stream.ne % tuple(stream.edges.ravel().tolist())
