"""Plain-text serialization for game instances (the "scgame v1" format).

Layout::

    scgame v1 kind=<pc|sc|lpce|orlpce|intersectsc> n=<n> p=<p> [r=<r>] [t=<t>]
    table 0
    0: <y...>
    ...

Each table block holds one line per ground-set element, `x: y1 y2 ...` with
the targets ascending (exactly one target for function tables, any number
including zero for set tables).  Table j is the instance's tables()[j]: for
the two-chase kinds that is player j's table, left chase outermost-first,
then right chase; OR instances list item 0's tables first.  All indices are
0-based.
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


# instance type -> (kind, header sizes after n and p, tables per chase layer,
# set-valued tables); a file's tables are the instance's tables(), whose
# inverse is the type's from_tables
_KINDS = {
    PcInstance: ("pc", (), 1, False),
    ScInstance: ("sc", (), 1, True),
    LpceInstance: ("lpce", ("r",), 2, False),
    OrLpceInstance: ("orlpce", ("r", "t"), 2, False),
    IntersectScInstance: ("intersectsc", (), 2, True),
}
_BY_KIND = {entry[0]: (cls, *entry[1:]) for cls, entry in _KINDS.items()}


def _layout(kind: str, fields: dict):
    """(type, header sizes, table count, set-valued tables) of a game of
    `kind` whose header holds `fields`; KeyError when either is unknown."""
    cls, extra, per_layer, set_valued = _BY_KIND[kind]
    sizes = {key: fields[key] for key in ("n", "p", *extra)}
    return cls, sizes, per_layer * sizes["p"] * sizes.get("t", 1), set_valued


def _format_header(kind: str, **sizes: int) -> str:
    return f"{_HEADER_PREFIX} kind={kind}" + "".join(f" {key}={value}" for key, value in sizes.items())


def serialize_game(inst) -> str:
    """Render any game instance as scgame v1 text (trailing newline included)."""
    if type(inst) not in _KINDS:
        raise TypeError(f"cannot serialize {type(inst).__name__}")
    kind, extra, _, _ = _KINDS[type(inst)]
    head = _format_header(kind, **{key: getattr(inst, key) for key in ("n", "p", *extra)})
    funcs = inst.tables()
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
        _, _, kind, *tokens = header.split(" ")
        kind = kind.partition("=")[2]
        fields = {key: int(value) for key, _, value in (token.partition("=") for token in tokens)}
        cls, sizes, count, set_valued = _layout(kind, fields)
    except (ValueError, KeyError):
        return _parse_game_lines(text)
    if header != _format_header(kind, **sizes) or min(sizes.values()) < 1:
        return _parse_game_lines(text)
    n = sizes["n"]
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
    return cls.from_tables(funcs, **sizes)


def _parse_game_lines(text: str):
    """The line-by-line parser: accepts any whitespace layout and blank
    lines, and reports the first fault with its line number."""
    raw = text.splitlines()
    if not raw or not raw[0].strip():
        raise GameFormatError("line 1: empty input")
    fields = _parse_header(raw[0])
    kind = fields["kind"]
    body = [(i + 2, line) for i, line in enumerate(raw[1:]) if line.strip()]
    end = len(raw) + 1
    if kind not in _BY_KIND:
        raise GameFormatError(f"line 1: unknown kind {kind!r}")
    extra = _BY_KIND[kind][1]
    if any(key not in fields for key in extra):
        raise GameFormatError(f"line 1: kind={kind} requires {' and '.join(extra)}")
    unused = [key for key in fields if key not in ("kind", "n", "p", *extra)]
    if unused:
        raise GameFormatError(f"line 1: kind={kind} takes no header key {unused[0]!r}")
    cls, sizes, count, set_valued = _layout(kind, fields)
    return cls.from_tables(_parse_tables(body, end, sizes["n"], count, set_valued), **sizes)
