"""Matrix files: CSV with complex cells and a JSON schema.

CSV cells are plain decimals for real values and `a+bi` / `a-bi` with no
spaces for complex ones (scientific notation allowed in both parts).
JSON files look like {"rows": n, "cols": m, "data": [[...]]} with complex
entries encoded as two-element [re, im] arrays.  Writers emit full
precision so a written file re-parses to the same values.

Files are UTF-8.  A matrix has at most MAX_CELLS cells, and a file at most
_BYTES_PER_CELL bytes per allowed cell; the size is checked before the file
is read, the cell count before the array is built.

Readers and writers take a CSV row, or a whole JSON document, per step.
A real CSV row is checked by one character class and parsed by float(),
which on that alphabet accepts exactly the plain decimals.  Any other row,
complex ones included, is read cell by cell by parse_cell, so that a bad
cell is named by its row and column.
A Toeplitz matrix (every entry has the bits of its upper-left neighbour),
such as a matrix of translates, is written to CSV from its 2N - 1
diagonals, each formatted once; the bytes are those of the cell-at-a-time
writer.
"""

from __future__ import annotations

import json
import os
import re
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import MatrixParseError

# 2**20 cells is a 1024 x 1024 matrix, 16 MiB as complex doubles.
MAX_CELLS = 2**20
# a written cell takes at most 51 bytes (two 24-character %.17g parts, a sign, an i and a comma)
_BYTES_PER_CELL = 64

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_CELL_RE = re.compile(rf"(?P<re>[+-]?{_NUM})(?:(?P<im>[+-]{_NUM})i)?")
# on this alphabet float() accepts exactly [+-]?_NUM: no space, "_", "nan"/"inf" or non-ASCII digit
_REAL_CHARS_RE = re.compile(r"[0-9eE.+\-,]*")
# CSV cell formats by the imaginary part: zero (of either sign) is not written, a nan
# one gets "-"; "%.0s" takes the unwritten imaginary part and prints nothing
_CELL_FORMATS = ("%.17g%.0s", "%.17g+%.17gi", "%.17g-%.17gi")
# the line ends of str.splitlines; a CSV file is split 2**16 characters at a time
_LINE_END_RE = re.compile(r"\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")
_LINE_BLOCK = 2**16
_REAL_TYPES = frozenset((int, float))  # type(True) is bool: booleans take the per-cell loop


def parse_cell(text: str, row: int, col: int) -> complex | float:
    """One CSV cell; positions are 1-based and only used for error messages."""
    s = text.strip()
    m = _CELL_RE.fullmatch(s)
    if not m:
        raise MatrixParseError(
            f"cannot parse cell {s!r} at row {row}, column {col}", row=row, col=col
        )
    re_part = float(m.group("re"))
    im_part = m.group("im")
    if im_part is None:
        return re_part
    return complex(re_part, float(im_part))


def _toeplitz_diagonals(A: np.ndarray) -> np.ndarray | None:
    """A[::-1, 0] then A[0, 1:], the 2N - 1 diagonals of a Toeplitz A, else None.

    A (float64 or complex128, at least 2 x 2) is Toeplitz when every entry has
    the bits of its upper-left neighbour: bits, not values, since 0.0 and -0.0
    compare equal but are written apart.  Row j of A is then the diagonals
    [rows - 1 - j:][:cols].
    """
    # row 1 against row 0 first, so a general matrix is turned away after O(cols) work
    if min(A.shape) < 2 or A[1, 1:].tobytes() != A[0, :-1].tobytes():
        return None
    parts = (A.real, A.imag) if A.dtype.kind == "c" else (A,)
    if not all(np.array_equal(b[1:, 1:], b[:-1, :-1]) for b in (p.view(np.int64) for p in parts)):
        return None
    return np.concatenate([A[::-1, 0], A[0, 1:]])


def _csv_rows(A: np.ndarray):
    """The CSV line of each row of a float64 or complex128 array, one %-format per line."""
    if A.dtype.kind != "c":
        line = ",".join(["%.17g"] * A.shape[1])
        for row in A:
            yield line % tuple(row.tolist())
        return
    im = A.imag
    kinds = np.where(im == 0.0, 0, np.where(im >= 0.0, 1, 2))
    values = np.stack([A.real, np.abs(im)], axis=-1).reshape(A.shape[0], -1)
    for kind, row in zip(kinds, values):
        yield ",".join(map(_CELL_FORMATS.__getitem__, kind.tolist())) % tuple(row.tolist())


def _csv_lines(M):
    """The CSV lines of a 2-D array; a Toeplitz one formats each of its diagonals once."""
    A = np.asarray(M)
    A = A.astype(complex if np.iscomplexobj(A) else float, copy=False)
    d = _toeplitz_diagonals(A)
    if d is None:
        yield from _csv_rows(A)
        return
    cells = next(_csv_rows(d[None, :])).split(",")
    rows, cols = A.shape
    for start in range(rows - 1, -1, -1):  # row j is cells [rows - 1 - j:][:cols]
        yield ",".join(cells[start : start + cols])


def _read_text(path, digest=None) -> str:
    """The file's text, decoded as UTF-8, once its size is known to be within the cap.

    Line ends are read as open() reads them in text mode: "\r\n" and "\r"
    become "\n".  `digest`, a hashlib object, is fed the file's bytes.
    """
    size = os.stat(path).st_size
    cap = MAX_CELLS * _BYTES_PER_CELL
    if size > cap:
        raise MatrixParseError(
            f"{path}: {size} bytes exceeds the cap of {cap} bytes"
            f" ({MAX_CELLS} cells of {_BYTES_PER_CELL} bytes)",
            row=1,
            col=1,
        )
    data = Path(path).read_bytes()
    if digest is not None:
        digest.update(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixParseError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})", row=1, col=1
        ) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _lines(text: str):
    """The lines of text.splitlines(), split a block of whole lines at a time.

    A block ends at the first line end past _LINE_BLOCK characters, so the
    list of a file's lines is never built whole.
    """
    start = 0
    while start < len(text):
        end = _LINE_END_RE.search(text, start + _LINE_BLOCK)
        stop = end.end() if end else len(text)
        yield from text[start:stop].splitlines()
        start = stop


def _too_many_cells(path, row: int) -> MatrixParseError:
    return MatrixParseError(f"{path}: more than {MAX_CELLS} cells (the cap)", row=row, col=1)


def load_csv(path, digest=None) -> np.ndarray:
    rows = []
    width = None
    cells = 0
    has_complex = False
    for r, line in enumerate(_lines(_read_text(path, digest)), start=1):
        if not line.strip():
            continue
        cells += line.count(",") + 1
        if cells > MAX_CELLS:
            raise _too_many_cells(path, r)
        parsed = None
        if _REAL_CHARS_RE.fullmatch(line):
            try:
                parsed = list(map(float, line.split(",")))
            except ValueError:  # "1e+", "1..2", an empty cell: parse_cell decides
                pass
        if parsed is None:  # complex cells, spaces, non-ASCII digits, or a bad cell that it names
            parsed = [parse_cell(c, r, ci + 1) for ci, c in enumerate(line.split(","))]
            has_complex = has_complex or any(isinstance(c, complex) for c in parsed)
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise MatrixParseError(
                f"row {r} has {len(parsed)} cells, expected {width}", row=r, col=1
            )
        rows.append(parsed)
    if not rows:
        raise MatrixParseError(f"{path}: no data rows", row=1, col=1)
    return np.array(rows, dtype=complex if has_complex else float)


def save_csv(path, M) -> None:
    Path(path).write_text("\n".join(_csv_lines(M)) + "\n")


def _json_dim(doc: dict, key: str, default: int, path) -> int:
    value = doc.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise MatrixParseError(f"{path}: {key!r} must be an integer, got {value!r}", row=1, col=1)
    return value


def load_json(path, digest=None) -> np.ndarray:
    text = _read_text(path, digest)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"{path}: invalid JSON ({exc})", row=1, col=1) from exc
    except ValueError as exc:  # an integer literal beyond Python's int-conversion digit limit
        raise MatrixParseError(
            f"{path}: an integer has more than {sys.get_int_max_str_digits()} digits,"
            " outside the float64 range",
            row=1,
            col=1,
        ) from exc
    except RecursionError as exc:
        raise MatrixParseError(f"{path}: invalid JSON (nested too deeply)", row=1, col=1) from exc
    if not isinstance(doc, dict) or "data" not in doc:
        raise MatrixParseError(f"{path}: expected an object with a 'data' field", row=1, col=1)
    data = doc["data"]
    if not (isinstance(data, list) and data and all(isinstance(r, list) and r for r in data)):
        raise MatrixParseError(
            f"{path}: 'data' must be a non-empty list of non-empty rows", row=1, col=1
        )
    rows = _json_dim(doc, "rows", len(data), path)
    cols = _json_dim(doc, "cols", len(data[0]), path)
    if len(data) != rows:
        raise MatrixParseError(f"{path}: 'rows'={rows} but data has {len(data)} rows", row=1, col=1)
    if max(rows * cols, sum(map(len, data))) > MAX_CELLS:
        raise _too_many_cells(path, 1)
    if all(len(row) == cols for row in data) and _REAL_TYPES.issuperset(
        map(type, chain.from_iterable(data))
    ):
        try:
            return np.array(data, dtype=float)
        except OverflowError:
            pass  # an integer beyond float64: the loop below names its cell
    out = []
    has_complex = False
    for r, row in enumerate(data, start=1):
        if len(row) != cols:
            raise MatrixParseError(
                f"{path}: row {r} has {len(row)} entries, expected {cols}", row=r, col=1
            )
        parsed = []
        try:
            for c, cell in enumerate(row, start=1):
                if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                    parsed.append(float(cell))
                elif (
                    isinstance(cell, list)
                    and len(cell) == 2
                    and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in cell)
                ):
                    parsed.append(complex(cell[0], cell[1]))
                    has_complex = True
                else:
                    raise MatrixParseError(
                        f"{path}: bad cell at row {r}, column {c}: {cell!r}", row=r, col=c
                    )
        except OverflowError as exc:  # an integer cell, or part, beyond float64
            raise MatrixParseError(
                f"{path}: cell at row {r}, column {c} is outside the float64 range", row=r, col=c
            ) from exc
        out.append(parsed)
    return np.array(out, dtype=complex if has_complex else float)


def save_json(path, M) -> None:
    A = np.asarray(M)
    if np.iscomplexobj(A):
        A = np.stack([A.real, A.imag], axis=-1)
    doc = {"rows": int(A.shape[0]), "cols": int(A.shape[1]), "data": A.astype(float).tolist()}
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_matrix(path, digest=None) -> np.ndarray:
    """Load a matrix, with the format decided by the file extension.

    `digest`, a hashlib object, is fed the bytes of the file as read, here
    and in load_csv / load_json, so a caller that reports the file's hash
    reads it once.
    """
    p = Path(path)
    if p.suffix.lower() == ".json":
        return load_json(p, digest)
    return load_csv(p, digest)


def save_matrix(path, M) -> None:
    """Write a matrix, with the format decided by the file extension."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        save_json(p, M)
    else:
        save_csv(p, M)
