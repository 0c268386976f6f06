"""Matrix and system file formats shared across the project.

Two interchangeable matrix encodings:

* CSV: N rows by N columns, complex entries written as ``re+imj`` (real
  matrices write plain floats).  Entries round-trip exactly through the
  shortest-repr float format, except that a negative-zero imaginary part
  is written as ``+0.0j``.  Zero entries are written as the one token
  ``0.0`` (real) or ``0.0+0.0j`` (complex), and the writer and the reader
  do per-entry Python work only for the other cells, so the cost of a
  banded matrix scales with its non-zero entries.
* Binary: 16-byte header (magic ``FFMX``, little-endian u32 N, u32 flags,
  4 reserved bytes) followed by row-major little-endian float64 data;
  flag bit 0 marks complex data stored as interleaved (re, im) pairs.  A
  file is exactly 16 + 8 N^2 bytes (real) or 16 + 16 N^2 bytes (complex);
  any other length is rejected.

Either file may carry a JSON sidecar at ``<file>.json`` holding
``{"n", "margin", "dtype"}`` plus, for frame systems, ``{"label",
"reference"}``.  A sidecar whose ``n`` differs from the matrix size, or
whose ``dtype`` is ``f64`` while the data has a non-zero imaginary part,
is rejected with ValueError.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .envelopes import TruncatedMatrix
from .frames import FrameSystem, PerturbationSpec
from .weights import _from_json_list

__all__ = [
    "load_frame_system",
    "load_matrix",
    "parse_perturbation_spec",
    "save_frame_system",
    "save_matrix",
    "sidecar_path",
]

MAGIC = b"FFMX"
_FLAG_COMPLEX = 1


def sidecar_path(path) -> Path:
    p = Path(path)
    return p.with_name(p.name + ".json")


def _format_entry(z, complex_entries: bool) -> str:
    if complex_entries:
        z = complex(z)
        sign = "+" if z.imag >= 0 else "-"
        return f"{z.real!r}{sign}{abs(z.imag)!r}j"
    return repr(float(z))


def _format_csv(entries, complex_entries: bool) -> str:
    """CSV text of a square matrix; only cells whose bits are not all zero are formatted."""
    data = np.ascontiguousarray(entries, dtype=complex if complex_entries else float)
    n = data.shape[0]
    # Testing the bit patterns, not ``!= 0``, keeps -0.0 off the zero token.
    nonzero = data.view(np.int64).reshape(n, n, 2 if complex_entries else 1).any(axis=2)
    zero = _format_entry(0.0, complex_entries)
    lines = []
    for row, flags in zip(data, nonzero):
        cells = [zero] * n
        cols = np.flatnonzero(flags)
        for col, z in zip(cols.tolist(), row[cols].tolist()):
            cells[col] = _format_entry(z, complex_entries)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write_sidecar(path, n: int, margin: int, complex_entries: bool, extra=None):
    meta = {"n": n, "margin": margin, "dtype": "c128" if complex_entries else "f64"}
    if extra:
        meta.update(extra)
    sidecar_path(path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def save_matrix(path, a: TruncatedMatrix, binary: bool = False, extra_meta=None):
    """Write a matrix in the project format, with its JSON sidecar."""
    path = Path(path)
    complex_entries = bool(np.iscomplexobj(a.entries))
    if binary:
        flags = _FLAG_COMPLEX if complex_entries else 0
        header = struct.pack("<4sII4x", MAGIC, a.n, flags)
        data = np.asarray(a.entries, dtype="<c16" if complex_entries else "<f8")
        path.write_bytes(header + data.tobytes())
    else:
        path.write_text(_format_csv(a.entries, complex_entries))
    _write_sidecar(path, a.n, a.margin, complex_entries, extra_meta)


def _load_sidecar(path) -> dict:
    sp = sidecar_path(path)
    if sp.exists():
        return json.loads(sp.read_text())
    return {}


def _parse_csv(text: str):
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("no rows")
    width = len(lines[0].split(","))
    arr = np.zeros((len(lines), width), dtype=complex)
    # Cells that are exactly a zero token the writer emits keep the zero
    # already in ``arr``; every other cell goes through complex().
    zero_re, zero_c = _format_entry(0.0, False), _format_entry(0.0, True)
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"row {i + 1} has {len(cells)} cells, row 1 has {width}")
        cols = [j for j, cell in enumerate(cells) if cell != zero_c and cell != zero_re]
        if cols:
            arr[i, cols] = [complex(cells[j].strip()) for j in cols]
    return arr if "j" in text or "J" in text else arr.real.copy()


def _parse_binary(blob: bytes):
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise ValueError("not a FFMX binary matrix file")
    _, n, flags = struct.unpack("<4sII", blob[:12])
    complex_entries = bool(flags & _FLAG_COMPLEX)
    size = 16 + 8 * n * n * (2 if complex_entries else 1)
    if len(blob) != size:
        kind = "complex" if complex_entries else "real"
        raise ValueError(f"FFMX file has {len(blob)} bytes, a {kind} N={n} matrix needs {size}")
    data = np.frombuffer(blob, dtype="<c16" if complex_entries else "<f8", offset=16)
    return data.reshape(n, n).astype(complex if complex_entries else float)


def load_matrix(path) -> TruncatedMatrix:
    """Read a matrix written by :func:`save_matrix` (either encoding)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    blob = path.read_bytes()
    try:
        arr = _parse_binary(blob) if blob[:4] == MAGIC else _parse_csv(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as err:
        raise ValueError(f"cannot parse matrix file {path}: {err}") from err
    meta = _load_sidecar(path)
    if "n" in meta and meta["n"] != arr.shape[0]:
        raise ValueError("sidecar size disagrees with the matrix file")
    if meta.get("dtype") == "f64" and np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            raise ValueError("sidecar dtype f64 disagrees with the complex entries of the matrix file")
        arr = arr.real.copy()
    margin = int(meta.get("margin", -1))
    return TruncatedMatrix(arr, margin=margin)


def save_frame_system(path, system: FrameSystem, binary: bool = False):
    save_matrix(
        path,
        system.coeffs,
        binary=binary,
        extra_meta={"label": system.label, "reference": "hermite"},
    )


def load_frame_system(path) -> FrameSystem:
    mat = load_matrix(path)
    meta = _load_sidecar(path)
    return FrameSystem(mat, label=meta.get("label", ""))


def _spec_field(d: dict, key: str, convert):
    try:
        return convert(d[key])
    except (TypeError, ValueError, IndexError) as err:
        raise ValueError(f"bad perturbation spec field {key!r}: {err}") from err


def _constant_rows(a_field: dict, r: int, n: int) -> np.ndarray:
    if "constant" not in a_field:
        raise ValueError("the object form of a needs the key 'constant'")
    vals = np.atleast_1d(np.asarray(a_field["constant"], dtype=float))
    if vals.size == 1:
        vals = np.repeat(vals, r)
    if vals.size != r:
        raise ValueError("constant list length must equal r")
    return np.repeat(vals[:, None], n, axis=1)


def _explicit_rows(a_field, r: int) -> np.ndarray:
    rows = [_from_json_list(row) for row in a_field]
    if len(rows) != r:
        raise ValueError(f"{len(rows)} rows for r = {r}")
    width = max(len(row) for row in rows)
    a = np.zeros((r, width), dtype=complex if any(np.iscomplexobj(x) for x in rows) else float)
    for i, row in enumerate(rows):
        a[i, : len(row)] = row
    return a


def parse_perturbation_spec(d: dict, n: int) -> PerturbationSpec:
    """Build a PerturbationSpec from its JSON form.

    ``a`` may be explicit rows (lists of reals or [re, im] pairs) or
    ``{"constant": v}`` / ``{"constant": [v1, .., vr]}``, expanded to
    length-n constant sequences.  A malformed field raises ValueError
    naming the field.
    """
    if "r" not in d or "eps" not in d or "a" not in d:
        raise ValueError("perturbation spec needs fields r, eps, a")
    r = _spec_field(d, "r", int)
    eps = _spec_field(d, "eps", lambda v: tuple(float(x) for x in v))
    a = _spec_field(d, "a", lambda v: _constant_rows(v, r, n) if isinstance(v, dict) else _explicit_rows(v, r))
    return PerturbationSpec(r=r, a=a, eps=eps)
