"""Matrix files: CSV with complex cells and a JSON schema.

CSV cells are plain decimals for real values and `a+bi` / `a-bi` with no
spaces for complex ones (scientific notation allowed in both parts).
JSON files look like {"rows": n, "cols": m, "data": [[...]]} with complex
entries encoded as two-element [re, im] arrays.  Writers emit full
precision so a written file re-parses to the same values.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import MatrixParseError

_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_CELL_RE = re.compile(rf"^(?P<re>{_NUM})(?:(?P<im>[+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i)?$")


def parse_cell(text: str, row: int, col: int) -> complex | float:
    """One CSV cell; positions are 1-based and only used for error messages."""
    s = text.strip()
    m = _CELL_RE.match(s)
    if not m:
        raise MatrixParseError(
            f"cannot parse cell {s!r} at row {row}, column {col}", row=row, col=col
        )
    re_part = float(m.group("re"))
    im_part = m.group("im")
    if im_part is None:
        return re_part
    return complex(re_part, float(im_part))


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def format_cell(value) -> str:
    v = complex(value)
    if v.imag == 0.0:
        return _format_float(v.real)
    sign = "+" if v.imag >= 0.0 else "-"
    return f"{_format_float(v.real)}{sign}{_format_float(abs(v.imag))}i"


def load_csv(path) -> np.ndarray:
    rows = []
    width = None
    text = Path(path).read_text()
    for r, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = [parse_cell(c, r, ci + 1) for ci, c in enumerate(line.split(","))]
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise MatrixParseError(
                f"row {r} has {len(cells)} cells, expected {width}", row=r, col=1
            )
        rows.append(cells)
    if not rows:
        raise MatrixParseError(f"{path}: no data rows", row=1, col=1)
    if any(isinstance(c, complex) for row in rows for c in row):
        return np.array(rows, dtype=complex)
    return np.array(rows, dtype=float)


def save_csv(path, M) -> None:
    A = np.asarray(M)
    lines = [",".join(format_cell(v) for v in row) for row in A]
    Path(path).write_text("\n".join(lines) + "\n")


def _json_dim(doc: dict, key: str, default: int, path) -> int:
    value = doc.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise MatrixParseError(f"{path}: {key!r} must be an integer, got {value!r}", row=1, col=1)
    return value


def load_json(path) -> np.ndarray:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"{path}: invalid JSON ({exc})", row=1, col=1) from exc
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
    out = []
    has_complex = False
    for r, row in enumerate(data, start=1):
        if len(row) != cols:
            raise MatrixParseError(
                f"{path}: row {r} has {len(row)} entries, expected {cols}", row=r, col=1
            )
        parsed = []
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
        out.append(parsed)
    return np.array(out, dtype=complex if has_complex else float)


def save_json(path, M) -> None:
    A = np.asarray(M)
    if np.iscomplexobj(A):
        data = [[[float(v.real), float(v.imag)] for v in row] for row in A]
    else:
        data = [[float(v) for v in row] for row in A]
    doc = {"rows": int(A.shape[0]), "cols": int(A.shape[1]), "data": data}
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_matrix(path) -> np.ndarray:
    """Load a matrix, with the format decided by the file extension."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        return load_json(p)
    return load_csv(p)


def save_matrix(path, M) -> None:
    """Write a matrix, with the format decided by the file extension."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        save_json(p, M)
    else:
        save_csv(p, M)
