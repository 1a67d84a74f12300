"""Plain-text serialization for game instances (the "scgame v1" format).

Layout::

    scgame v1 kind=<pc|sc|lpce|orlpce|intersectsc> n=<n> p=<p> [r=<r>] [t=<t>]
    table 0
    0: <y...>
    ...

Each table block holds one line per ground-set element, `x: y1 y2 ...` with
the targets ascending (exactly one target for function tables, any number
including zero for set tables).  Tables appear in a fixed order: left chase
outermost-first, then right chase; OR instances list item 0's tables first.
All indices are 0-based.
"""
from __future__ import annotations

import numpy as np

from .errors import GameFormatError
from .games import (
    FunctionTable,
    IntersectScInstance,
    LpceInstance,
    OrLpceInstance,
    PcInstance,
    ScInstance,
    SetFunctionTable,
)

__all__ = ["serialize_game", "parse_game"]

_HEADER_PREFIX = "scgame v1"


def _format_function_table(f: FunctionTable) -> list[str]:
    return [f"{x}: {y}" for x, y in enumerate(f.image.tolist())]


def _format_set_table(f: SetFunctionTable) -> list[str]:
    values, offsets = f.values.tolist(), f.offsets.tolist()
    lines = []
    for x in range(f.n):
        row = " ".join(map(str, values[offsets[x]:offsets[x + 1]]))
        lines.append(f"{x}: {row}" if row else f"{x}:")
    return lines


def serialize_game(inst) -> str:
    """Render any game instance as scgame v1 text (trailing newline included)."""
    if isinstance(inst, PcInstance):
        head = f"{_HEADER_PREFIX} kind=pc n={inst.n} p={inst.p}"
        tables = [_format_function_table(f) for f in inst.funcs]
    elif isinstance(inst, ScInstance):
        head = f"{_HEADER_PREFIX} kind=sc n={inst.n} p={inst.p}"
        tables = [_format_set_table(f) for f in inst.funcs]
    elif isinstance(inst, LpceInstance):
        head = f"{_HEADER_PREFIX} kind=lpce n={inst.n} p={inst.p} r={inst.r}"
        tables = [_format_function_table(f) for f in inst.tables()]
    elif isinstance(inst, OrLpceInstance):
        head = f"{_HEADER_PREFIX} kind=orlpce n={inst.n} p={inst.p} r={inst.r} t={inst.t}"
        tables = [_format_function_table(f) for item in inst.items for f in item.tables()]
    elif isinstance(inst, IntersectScInstance):
        head = f"{_HEADER_PREFIX} kind=intersectsc n={inst.n} p={inst.p}"
        tables = [_format_set_table(f) for f in inst.left.funcs + inst.right.funcs]
    else:
        raise TypeError(f"cannot serialize {type(inst).__name__}")
    lines = [head]
    for idx, block in enumerate(tables):
        lines.append(f"table {idx}")
        lines.extend(block)
    return "\n".join(lines) + "\n"


def _parse_header(line: str) -> dict:
    parts = line.split()
    if parts[:2] != ["scgame", "v1"]:
        raise GameFormatError("line 1: expected 'scgame v1' header")
    fields = {}
    for tok in parts[2:]:
        if "=" not in tok:
            raise GameFormatError(f"line 1: malformed header token {tok!r}")
        key, _, val = tok.partition("=")
        fields[key] = val
    if "kind" not in fields:
        raise GameFormatError("line 1: header missing kind")
    for key in ("n", "p", "r", "t"):
        if key in fields:
            try:
                fields[key] = int(fields[key])
            except ValueError:
                raise GameFormatError(f"line 1: {key} must be an integer") from None
            if fields[key] < 1:
                raise GameFormatError(f"line 1: {key} must be positive")
    for key in ("n", "p"):
        if key not in fields:
            raise GameFormatError(f"line 1: header missing {key}")
    return fields


def _parse_tables(lines, end: int, n: int, count: int, set_valued: bool):
    """Parse `count` table blocks into SetFunctionTables (set_valued) or
    FunctionTables, built straight from the validated rows.

    end is the line number just past the input, where a missing table or
    row is reported."""
    tables = []
    pos = 0
    for idx in range(count):
        if pos >= len(lines):
            raise GameFormatError(f"line {end}: expected {count} tables, found {idx}")
        lineno, line = lines[pos]
        if line.strip() != f"table {idx}":
            raise GameFormatError(f"line {lineno}: expected 'table {idx}', got {line!r}")
        pos += 1
        lengths, flat = [0], []
        for x in range(n):
            if pos >= len(lines):
                raise GameFormatError(f"line {end}: table {idx}: missing row for element {x}")
            lineno, line = lines[pos]
            pos += 1
            head, sep, rest = line.partition(":")
            if not sep:
                raise GameFormatError(f"line {lineno}: expected 'x: targets' row")
            try:
                label = int(head)
            except ValueError:
                raise GameFormatError(f"line {lineno}: bad element label {head!r}") from None
            if label != x:
                raise GameFormatError(f"line {lineno}: rows must be ascending; expected {x}")
            try:
                targets = [int(tok) for tok in rest.split()]
            except ValueError:
                raise GameFormatError(f"line {lineno}: targets must be integers") from None
            for y in targets:
                if not 0 <= y < n:
                    raise GameFormatError(f"line {lineno}: target {y} outside [0, {n})")
            if any(b <= a for a, b in zip(targets, targets[1:])):
                raise GameFormatError(f"line {lineno}: targets must be strictly ascending")
            if not set_valued and len(targets) != 1:
                raise GameFormatError(f"line {lineno}: function rows need exactly one target")
            lengths.append(len(targets))
            flat.extend(targets)
        flat = np.array(flat, dtype=np.int64)  # targets passed int(): no exactness check needed
        if set_valued:
            tables.append(SetFunctionTable(n, np.cumsum(lengths), flat))
        else:
            tables.append(FunctionTable(n, flat))
    if pos != len(lines):
        lineno, line = lines[pos]
        raise GameFormatError(f"line {lineno}: trailing content {line!r}")
    return tables


def parse_game(text: str):
    """Parse scgame v1 text into the matching instance type."""
    raw = text.splitlines()
    if not raw or not raw[0].strip():
        raise GameFormatError("line 1: empty input")
    fields = _parse_header(raw[0])
    kind, n, p = fields["kind"], fields["n"], fields["p"]
    body = [(i + 2, line) for i, line in enumerate(raw[1:]) if line.strip()]
    end = len(raw) + 1

    def lpce(funcs) -> LpceInstance:
        return LpceInstance(PcInstance(n, p, funcs[:p]), PcInstance(n, p, funcs[p:]), fields["r"])

    if kind == "pc":
        return PcInstance(n, p, _parse_tables(body, end, n, p, set_valued=False))
    if kind == "sc":
        return ScInstance(n, p, _parse_tables(body, end, n, p, set_valued=True))
    if kind == "lpce":
        if "r" not in fields:
            raise GameFormatError("line 1: kind=lpce requires r")
        return lpce(_parse_tables(body, end, n, 2 * p, set_valued=False))
    if kind == "orlpce":
        if "r" not in fields or "t" not in fields:
            raise GameFormatError("line 1: kind=orlpce requires r and t")
        t = fields["t"]
        funcs = _parse_tables(body, end, n, 2 * p * t, set_valued=False)
        return OrLpceInstance(t, tuple(lpce(funcs[j * 2 * p:(j + 1) * 2 * p]) for j in range(t)))
    if kind == "intersectsc":
        funcs = _parse_tables(body, end, n, 2 * p, set_valued=True)
        return IntersectScInstance(ScInstance(n, p, funcs[:p]), ScInstance(n, p, funcs[p:]))
    raise GameFormatError(f"line 1: unknown kind {fields['kind']!r}")
