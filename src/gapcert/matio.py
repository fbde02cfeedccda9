"""Text formats for matrices and saddle-point block files.

Matrix format: a header line ``rows cols`` followed by ``rows`` lines of
``cols`` whitespace-separated numbers.  A ``#`` starts a comment that runs
to the end of its line, so whole lines and line ends may be comments.
The tokens taken are those of numpy's text parser: the forms ``float()``
takes except underscores (``1_000``) and non-ASCII digits; such a token
is a non-numeric entry.  Each number converts to the double ``float()``
gives for its token, bit for bit.

Block file format: three sections headed by bare ``A``, ``B``, ``C``
lines, each followed by a matrix.  The ``C`` section may instead hold
the literal line ``zero k`` for Stokes problems.
"""

from __future__ import annotations

import warnings

import numpy as np

from .bounds import BlockSaddle, check_shapes
from .errors import ParseError

# numpy's long double is x87 extended precision: a 64-bit significand
_X87 = np.finfo(np.longdouble).nmant == 63
# By x87 sign-and-exponent word: does the long double lie outside the normal
# doubles below 2**1023?  Exponent 0 holds the zeros and values far below
# every double; both round to a signed zero, as float() gives.
_OUTSIDE_DOUBLE = np.ones((2, 1 << 15), bool)  # sign, biased exponent
_OUTSIDE_DOUBLE[:, 0] = False
_OUTSIDE_DOUBLE[:, 16383 - 1022 : 16383 + 1023] = False
_OUTSIDE_DOUBLE = _OUTSIDE_DOUBLE.ravel()


def _logical_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = (raw[: raw.index("#")] if "#" in raw else raw).strip()
        if line:
            out.append(line)
    return out


def _parse_body(body: list[str], cols: int) -> np.ndarray:
    """The rows of a matrix body as one (rows, cols) array, each entry as ``float()`` gives it.

    Where numpy's long double is x87 extended precision,
    ``_read_long_double`` reads the whole body in one ``fromstring``
    call; elsewhere one ``np.loadtxt`` call does.  The rows either leaves
    unread (every row, where the call cannot vouch for the body) are then
    read one by one with ``np.loadtxt``, so an error names the first row
    with the wrong number of entries or a non-numeric one.
    """
    if _X87:
        data, redo = _read_long_double(body, cols)
    else:
        try:
            data = np.loadtxt(body, dtype=float, ndmin=2, comments=None)
        except ValueError:
            data = None
        if data is not None and data.shape == (len(body), cols):
            return data
        data, redo = np.empty((len(body), cols)), range(len(body))
    for i in redo:
        line = body[i]
        parts = line.split()
        if len(parts) != cols:
            raise ParseError(f"row {i + 1} has {len(parts)} entries, expected {cols}")
        try:
            data[i] = np.loadtxt([line], dtype=float, comments=None)
        except ValueError:
            raise ParseError(f"row {i + 1} contains a non-numeric entry") from None
    return data


def _read_long_double(body: list[str], cols: int) -> tuple[np.ndarray, range | list[int]]:
    """The body read by one long-double ``fromstring`` call, and the rows left unread.

    The rows are joined with an ``inf`` sentinel after each, and the call
    is kept only when it gives rows x (cols + 1) numbers, the last column
    all +inf and no other number with x87 exponent 0x7FFF (an inf or a
    NaN).  That proves each row held ``cols`` numbers, each read as it
    would be alone.  The lines are stripped, so each sentinel is a token
    of its own and reads as one +inf.  No number outside the last column
    is an inf, so the sentinels fill that column, in order: the j-th ends
    row j and follows j x cols other numbers, so rows 1 to j hold j x cols
    numbers for every j, and each row holds ``cols``.  Text holding an ``x`` or ``X``, which
    hex numbers need and ``float()`` refuses, is not read.  Numpy 1.x
    warns, where numpy 2 raises, on text it does not read to the end;
    ``parse_block_saddle`` makes that warning an error, and where it stays
    a warning the short read lacks the last sentinel.  A call that is not
    kept leaves every row unread.

    The C library's ``strtold`` (glibc's on Linux) rounds each token
    correctly to a 64-bit significand.  Rounding that to double gives the
    double nearest the token unless the long double lies exactly on a
    midpoint between two doubles (its low 11 significand bits are 0x400)
    or outside the normal doubles below 2**1023.  Rows holding such a
    value are left unread too.
    """
    rows = len(body)
    text = " inf\n".join([*body, ""])
    flat = None
    if not ("x" in text or "X" in text):
        try:
            flat = np.fromstring(text, np.longdouble, sep=" ")
        except (ValueError, DeprecationWarning):
            pass
    del text  # as large as the body's lines; free it before the checks allocate
    if flat is not None and flat.size == rows * (cols + 1):
        wide = flat.reshape(rows, cols + 1)
        # x87 layout: the significand in 16-bit words 0-3, sign and biased exponent in word 4
        words = wide.view(np.uint16).reshape(rows, cols + 1, -1)[:, :cols]
        outside = _OUTSIDE_DOUBLE.take(words[..., 4])  # take gathers twice as fast as indexing here
        misplaced = (wide[:, cols] != np.inf).any()
        nonfinite = outside.any() and ((words[..., 4][outside] & 0x7FFF) == 0x7FFF).any()
        if not (misplaced or nonfinite):
            data = wide[:, :cols]
            redo = np.flatnonzero((outside | ((words[..., 0] & 0x7FF) == 0x400)).any(axis=1)).tolist()
            data[redo] = 0  # they are re-read; zeros keep the cast below from overflowing
            return data.astype(np.float64), redo
    return np.empty((rows, cols)), range(rows)


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


def _read_sections(lines: list[str]) -> dict[str, np.ndarray | int]:
    """Each section's array by name; a ``zero k`` section gives k."""
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
    return sections


def parse_block_saddle(text: str) -> BlockSaddle:
    """The saddle a block file describes.

    A section whose header and body lines repeat an earlier section's
    (the Kirsch form C = A) takes a copy of that section's array instead
    of a second parse.  A ``zero k`` block is built only once B's shape
    admits it.
    """
    with warnings.catch_warnings():
        # on a row fromstring cannot read to its end, numpy 1.x warns and
        # returns what it read, where numpy 2 raises
        warnings.filterwarnings("error", "string or file could not be read to its end", DeprecationWarning)
        sections = _read_sections(_logical_lines(text))
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

