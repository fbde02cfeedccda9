"""Text formats for matrices and saddle-point block files.

Matrix format: a header line ``rows cols`` followed by ``rows`` lines of
``cols`` whitespace-separated numbers.  Lines may carry ``#`` comments.

Block file format: three sections headed by bare ``A``, ``B``, ``C``
lines, each followed by a matrix.  The ``C`` section may instead hold
the literal line ``zero k`` for Stokes problems.
"""

from __future__ import annotations

import numpy as np

from .bounds import BlockSaddle
from .errors import ParseError


def _logical_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _parse_matrix_at(lines: list[str], pos: int) -> tuple[np.ndarray, int]:
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
    data = np.zeros((rows, cols))
    for i in range(rows):
        parts = lines[pos + 1 + i].split()
        if len(parts) != cols:
            raise ParseError(f"row {i + 1} has {len(parts)} entries, expected {cols}")
        try:
            data[i] = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"row {i + 1} contains a non-numeric entry") from None
    if not np.all(np.isfinite(data)):
        raise ParseError("matrix contains non-finite entries")
    return data, pos + 1 + rows


def parse_matrix(text: str) -> np.ndarray:
    lines = _logical_lines(text)
    M, pos = _parse_matrix_at(lines, 0)
    if pos != len(lines):
        raise ParseError("trailing content after matrix body")
    return M


def format_matrix(M: np.ndarray) -> str:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [f"{M.shape[0]} {M.shape[1]}"]
    for row in M:
        lines.append(" ".join("%.17g" % x for x in row))
    return "\n".join(lines) + "\n"


def parse_block_saddle(text: str) -> BlockSaddle:
    lines = _logical_lines(text)
    sections: dict[str, np.ndarray] = {}
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
            sections[name] = np.zeros((k, k))
            pos += 1
        else:
            sections[name], pos = _parse_matrix_at(lines, pos)
    missing = [n for n in ("A", "B", "C") if n not in sections]
    if missing:
        raise ParseError(f"missing section(s): {', '.join(missing)}")
    return BlockSaddle(sections["A"], sections["B"], sections["C"])


def read_block_saddle(path) -> BlockSaddle:
    with open(path, encoding="utf-8") as f:
        return parse_block_saddle(f.read())


def format_block_saddle(H: BlockSaddle) -> str:
    parts = ["A\n", format_matrix(H.A), "B\n", format_matrix(H.B)]
    if np.any(H.C):
        parts += ["C\n", format_matrix(H.C)]
    else:
        parts += ["C\n", f"zero {H.C.shape[0]}\n"]
    return "".join(parts)


def write_block_saddle(path, H: BlockSaddle) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_block_saddle(H))
