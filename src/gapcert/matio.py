"""Text formats for matrices and saddle-point block files.

Matrix format: a header line ``rows cols`` followed by ``rows`` lines of
``cols`` whitespace-separated numbers.  Lines may carry ``#`` comments.
Numbers are read by numpy's text parser, which takes the forms ``float()``
takes except underscores (``1_000``) and non-ASCII digits; such a token
is a non-numeric entry.

Block file format: three sections headed by bare ``A``, ``B``, ``C``
lines, each followed by a matrix.  The ``C`` section may instead hold
the literal line ``zero k`` for Stokes problems.
"""

from __future__ import annotations

import numpy as np

from .bounds import BlockSaddle, check_shapes
from .errors import ParseError


def _logical_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _parse_body(body: list[str], cols: int) -> np.ndarray:
    """The rows of a matrix body as one array, converted in a single call.

    On failure the rows are scanned one by one, so the error names the
    first row with the wrong number of entries or a non-numeric one.
    """
    try:
        data = np.loadtxt(body, dtype=float, ndmin=2, comments=None)
    except ValueError:
        data = None
    if data is not None and data.shape == (len(body), cols):
        return data
    for i, line in enumerate(body):
        parts = line.split()
        if len(parts) != cols:
            raise ParseError(f"row {i + 1} has {len(parts)} entries, expected {cols}")
        try:
            np.loadtxt([line], dtype=float, comments=None)
        except ValueError:
            raise ParseError(f"row {i + 1} contains a non-numeric entry") from None
    raise ParseError(f"matrix body does not parse as {len(body)}x{cols}")


def _section_at(lines: list[str], pos: int) -> tuple[list[str], int]:
    """The header and body lines of the matrix headed at lines[pos], and its column count."""
    if pos >= len(lines):
        raise ParseError("expected a matrix header, got end of input")
    header = lines[pos].split()
    if len(header) != 2:
        raise ParseError(f"matrix header must be 'rows cols', got {lines[pos]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"matrix header must be two integers, got {lines[pos]!r}") from None
    if rows < 1 or cols < 1:
        raise ParseError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if pos + 1 + rows > len(lines):
        raise ParseError(f"matrix body truncated: expected {rows} rows")
    return lines[pos : pos + 1 + rows], cols


def _parse_section(section: list[str], cols: int) -> np.ndarray:
    data = _parse_body(section[1:], cols)
    if not np.all(np.isfinite(data)):
        raise ParseError("matrix contains non-finite entries")
    return data


def parse_block_saddle(text: str) -> BlockSaddle:
    """The saddle a block file describes.

    A section whose header and body lines repeat an earlier section's
    (the Kirsch form C = A) takes a copy of that section's array instead
    of a second parse.  A ``zero k`` block is built only once B's shape
    admits it.
    """
    lines = _logical_lines(text)
    sections: dict[str, np.ndarray | int] = {}
    parsed: list[tuple[list[str], np.ndarray]] = []  # each matrix section's lines and array
    pos = 0
    while pos < len(lines):
        name = lines[pos]
        if name not in ("A", "B", "C"):
            raise ParseError(f"expected section header A, B or C, got {name!r}")
        if name in sections:
            raise ParseError(f"duplicate section {name}")
        pos += 1
        if name == "C" and pos < len(lines) and lines[pos].split()[0] == "zero":
            parts = lines[pos].split()
            if len(parts) != 2:
                raise ParseError(f"zero block must be 'zero k', got {lines[pos]!r}")
            try:
                k = int(parts[1])
            except ValueError:
                raise ParseError(f"zero block size must be an integer, got {parts[1]!r}") from None
            if k < 1:
                raise ParseError(f"zero block size must be positive, got {k}")
            sections[name] = k  # built once B's shape admits it
            pos += 1
            continue
        section, cols = _section_at(lines, pos)
        earlier = next((M for seen, M in parsed if seen == section), None)
        if earlier is None:
            sections[name] = _parse_section(section, cols)
            parsed.append((section, sections[name]))
        else:
            sections[name] = earlier.copy()
        pos += len(section)
    missing = [n for n in ("A", "B", "C") if n not in sections]
    if missing:
        raise ParseError(f"missing section(s): {', '.join(missing)}")
    A, B, C = sections["A"], sections["B"], sections["C"]
    if isinstance(C, int):
        check_shapes(A.shape, B.shape, (C, C))
        C = np.zeros((C, C))
    return BlockSaddle(A, B, C)


def read_block_saddle(path) -> BlockSaddle:
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_block_saddle(text)

