"""Small shared helpers: deterministic serialization, the trajectory-log
writer, read-only arrays and rotations.

JSON and CSV written by this package must be byte-stable across runs with
the same inputs, so floats are always rendered with 17 significant digits
(enough to round-trip a double) instead of whatever repr() feels like.
"""
from __future__ import annotations

import numpy as np

from .errors import NonRotation

#: Points per block of a grid computation (surfaces.map_blocks) and rows per
#: block of a CSV (write_csv): the one bound on memory that grows with a grid.
BLOCK = 2048


def format_float(x) -> str:
    """Render a double with 17 significant digits (round-trip exact)."""
    if isinstance(x, (np.floating,)):
        x = float(x)
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only in place and return it."""
    a.flags.writeable = False
    return a


def format_rows(cols, sep: str = ",") -> list[str]:
    """Rows of equal-length float columns, each value as format_float writes it.

    A column that repeats its values (at most half of them distinct, by
    bit pattern, so -0 and 0 stay apart) formats each distinct value once
    with format_float and gathers the strings.  The other columns go
    through one "%.17g" template for the whole row; for finite doubles it
    prints exactly what format_float prints, -0 and subnormals included.
    A column with NaN or Infinity always takes the first route, so they are
    spelled the JSON way.
    """
    fields, parts = [], []
    for c in cols:
        c = np.ravel(np.asarray(c, dtype=float))
        bits = c.view(np.int64)
        order = np.argsort(bits)
        key = bits[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        if 2 * np.count_nonzero(first) > len(c) and np.isfinite(c).all():
            fields.append("%.17g")
            parts.append(c.tolist())
        else:
            text = np.array([format_float(x) for x in key[first].view(float)],
                            dtype=object)
            inverse = np.empty(len(c), dtype=np.intp)
            inverse[order] = np.cumsum(first) - 1
            fields.append("%s")
            parts.append(text[inverse].tolist())
    template = sep.join(fields)
    return [template % row for row in zip(*parts)]


def write_csv(path, header: str, cols) -> None:
    """Write a header line, then the columns as comma-separated rows.

    The rows are formatted and written BLOCK at a time, so the text of one
    block is held, not the file's.  format_rows may route a column
    differently from block to block; both routes print the same string.
    """
    flat = [np.reshape(np.asarray(c, dtype=float), -1) for c in cols]
    size = min(map(len, flat), default=0)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, size, BLOCK):
            rows = format_rows([c[start:start + BLOCK] for c in flat])
            fh.write("\n".join(rows) + "\n")


def json_dumps(obj, indent: int = 0) -> str:
    """Serialize nested dict/list/scalar data with fixed float formatting.

    Only the types this package actually emits are supported: dict, list,
    tuple, str, bool, None, ints and floats (numpy scalars included).
    Dict keys keep insertion order, which callers keep deterministic.
    """
    out: list[str] = []
    _write(obj, out, indent, 0)
    return "".join(out)


def write_jsonl(path, records) -> list:
    """Write a trajectory log: one json_dumps line per record, flushed as
    soon as records yields it, so a producer that raises midway leaves
    every record it made behind.  Returns the records written."""
    written = []
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json_dumps(rec) + "\n")
            fh.flush()
            written.append(rec)
    return written


def _write(obj, out: list, indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1)) if indent else ""
    end_pad = " " * (indent * level) if indent else ""
    nl = "\n" if indent else ""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{" + nl)
        for k, (key, val) in enumerate(obj.items()):
            out.append(pad + '"' + str(key) + '": ')
            _write(val, out, indent, level + 1)
            out.append(("," if k < len(obj) - 1 else "") + nl)
        out.append(end_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[" + nl)
        for k, val in enumerate(obj):
            out.append(pad)
            _write(val, out, indent, level + 1)
            out.append(("," if k < len(obj) - 1 else "") + nl)
        out.append(end_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def check_rotation(a) -> np.ndarray:
    """Validate a 3x3 rotation matrix (orthogonal and det = +1, to 1e-10)."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3):
        raise NonRotation(f"expected a 3x3 matrix, got shape {a.shape}")
    if not np.allclose(a @ a.T, np.eye(3), atol=1e-10):
        raise NonRotation("matrix is not orthogonal")
    if abs(np.linalg.det(a) - 1.0) > 1e-10:
        raise NonRotation("matrix has determinant != +1")
    return a


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Draw a rotation uniformly-ish from SO(3) via QR with sign fixing."""
    m = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q
