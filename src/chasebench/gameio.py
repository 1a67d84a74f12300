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
from .util import format_canonical_rows, scan_canonical_rows

__all__ = ["serialize_game", "parse_game"]

_HEADER_PREFIX = "scgame v1"


def _format_header(kind: str, **sizes: int) -> str:
    return f"{_HEADER_PREFIX} kind={kind}" + "".join(f" {key}={value}" for key, value in sizes.items())


def serialize_game(inst) -> str:
    """Render any game instance as scgame v1 text (trailing newline included)."""
    if isinstance(inst, PcInstance):
        head = _format_header("pc", n=inst.n, p=inst.p)
        funcs = inst.funcs
    elif isinstance(inst, ScInstance):
        head = _format_header("sc", n=inst.n, p=inst.p)
        funcs = inst.funcs
    elif isinstance(inst, LpceInstance):
        head = _format_header("lpce", n=inst.n, p=inst.p, r=inst.r)
        funcs = inst.tables()
    elif isinstance(inst, OrLpceInstance):
        head = _format_header("orlpce", n=inst.n, p=inst.p, r=inst.r, t=inst.t)
        funcs = [f for item in inst.items for f in item.tables()]
    elif isinstance(inst, IntersectScInstance):
        head = _format_header("intersectsc", n=inst.n, p=inst.p)
        funcs = inst.left.funcs + inst.right.funcs
    else:
        raise TypeError(f"cannot serialize {type(inst).__name__}")
    n, count = inst.n, len(funcs)
    # one row per element of each table, its label x first
    if isinstance(funcs[0], SetFunctionTable):
        local = np.concatenate([f.offsets for f in funcs]).reshape(count, n + 1)
        offsets = np.zeros(count * n + 1, dtype=np.int64)
        np.cumsum(local[:, 1:] - local[:, :-1] + 1, out=offsets[1:])  # targets and a label
        values = np.empty(offsets[-1], dtype=np.int64)
        values[offsets[:-1]] = np.arange(count * n) % n
        is_target = np.ones(values.size, dtype=bool)
        is_target[offsets[:-1]] = False
        values[is_target] = np.concatenate([f.values for f in funcs])
    else:
        values = np.empty((count, n, 2), dtype=np.int64)
        values[:, :, 0] = np.arange(n)
        values[:, :, 1] = [f.image for f in funcs]
        offsets = np.arange(0, 2 * count * n + 1, 2)
    body = format_canonical_rows(values, offsets, labelled=True)
    # cut the rows after each table's n-th newline to put in the `table j` lines
    newlines = (np.frombuffer(body.encode("ascii"), np.uint8) == ord("\n")).nonzero()[0]
    cuts = [0, *(newlines[n - 1::n] + 1).tolist()]
    return head + "\n" + "".join(
        f"table {j}\n" + body[cuts[j]:cuts[j + 1]] for j in range(count)
    )


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


# kind -> (header sizes after n and p, tables per chase layer, set-valued tables)
_KINDS = {
    "pc": ((), 1, False),
    "sc": ((), 1, True),
    "lpce": (("r",), 2, False),
    "orlpce": (("r", "t"), 2, False),
    "intersectsc": ((), 2, True),
}


def _assemble(kind: str, n: int, p: int, fields: dict, funcs):
    """The instance of a known kind whose tables, in file order, are funcs."""
    def lpce(funcs) -> LpceInstance:
        return LpceInstance(PcInstance(n, p, funcs[:p]), PcInstance(n, p, funcs[p:]), fields["r"])

    if kind == "pc":
        return PcInstance(n, p, funcs)
    if kind == "sc":
        return ScInstance(n, p, funcs)
    if kind == "lpce":
        return lpce(funcs)
    if kind == "orlpce":
        t = fields["t"]
        return OrLpceInstance(t, tuple(lpce(funcs[j * 2 * p:(j + 1) * 2 * p]) for j in range(t)))
    return IntersectScInstance(ScInstance(n, p, funcs[:p]), ScInstance(n, p, funcs[p:]))


def parse_game(text: str):
    """Parse scgame v1 text into the matching instance type.

    Canonical text, exactly what serialize_game writes, takes a fast path:
    a header equal to its canonical rendering, then one `table j` line per
    table, with its n rows labelled 0..n-1 that scan_canonical_rows accepts,
    tokenized in bulk.  Any other text, valid or not, goes to the line
    parser, so that parser alone writes diagnostics and non-canonical
    spellings (blank lines, extra blanks, leading zeros, '+1', tabs, CRLF
    line ends, no final newline) parse as before.  So does canonical text
    whose tables FunctionTable or SetFunctionTable refuses.
    """
    header, _, body = text.partition("\n")
    try:
        _, _, kind, *sizes = header.split(" ")
        kind = kind.partition("=")[2]
        extra, per_layer, set_valued = _KINDS[kind]
        fields = {
            key: int(size.partition("=")[2]) for key, size in zip(("n", "p", *extra), sizes, strict=True)
        }
        n, p = fields["n"], fields["p"]
    except (ValueError, KeyError):
        return _parse_game_lines(text)
    if header != _format_header(kind, **fields) or min(fields.values()) < 1:
        return _parse_game_lines(text)
    count = per_layer * p * (fields["t"] if kind == "orlpce" else 1)
    blocks = body.split("table ")
    if blocks[0] or len(blocks) != count + 1:
        return _parse_game_lines(text)
    rows = []
    for idx, block in enumerate(blocks[1:]):
        label, _, block_rows = block.partition("\n")
        # each table holds exactly its n rows; a block not ending in a
        # newline means "table " sat inside a line
        if label != str(idx) or block_rows.count("\n") != n or not block_rows.endswith("\n"):
            return _parse_game_lines(text)
        rows.append(block_rows)
    scan = scan_canonical_rows("".join(rows), n * count, labelled=True,
                               width=None if set_valued else 2)
    if scan is None:
        return _parse_game_lines(text)
    values, offsets = scan
    if np.count_nonzero(values[offsets[:-1]].reshape(count, n) != np.arange(n)):
        return _parse_game_lines(text)
    try:
        if set_valued:
            is_target = np.ones(values.size, dtype=bool)
            is_target[offsets[:-1]] = False
            targets = values[is_target]
            offsets -= np.arange(offsets.size)  # now into targets: one label fewer per row
            bounds = offsets[::n].tolist()
            funcs = [
                SetFunctionTable(n, offsets[j * n:(j + 1) * n + 1] - bounds[j],
                                 targets[bounds[j]:bounds[j + 1]])
                for j in range(count)
            ]
        else:
            funcs = [FunctionTable(n, image) for image in values[1::2].reshape(count, n)]
    except ValueError:
        return _parse_game_lines(text)
    return _assemble(kind, n, p, fields, funcs)


def _parse_game_lines(text: str):
    """The line-by-line parser: accepts any whitespace layout and blank
    lines, and reports the first fault with its line number."""
    raw = text.splitlines()
    if not raw or not raw[0].strip():
        raise GameFormatError("line 1: empty input")
    fields = _parse_header(raw[0])
    kind, n, p = fields["kind"], fields["n"], fields["p"]
    body = [(i + 2, line) for i, line in enumerate(raw[1:]) if line.strip()]
    end = len(raw) + 1
    if kind not in _KINDS:
        raise GameFormatError(f"line 1: unknown kind {kind!r}")
    extra, per_layer, set_valued = _KINDS[kind]
    if any(key not in fields for key in extra):
        raise GameFormatError(f"line 1: kind={kind} requires {' and '.join(extra)}")
    count = per_layer * p * (fields["t"] if kind == "orlpce" else 1)
    return _assemble(kind, n, p, fields, _parse_tables(body, end, n, count, set_valued))
