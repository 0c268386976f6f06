"""Matrix and system file formats shared across the project.

Two interchangeable matrix encodings:

* CSV: N rows by N columns, complex entries written as ``re+imj`` (real
  matrices write plain floats).  Entries round-trip exactly through the
  shortest-repr float format, except that a negative-zero imaginary part
  is written as ``+0.0j``.  Zero entries are written as the one token
  ``0.0`` (real) or ``0.0+0.0j`` (complex), and the writer and the reader
  do per-entry Python work only for the other cells: the reader finds the
  line breaks, the commas and the zero tokens with numpy over the file's
  bytes, so a banded matrix costs one vectorized pass over the file plus
  Python work that scales with its non-zero entries.
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
from .weights import _ROW_BLOCK, _from_json_list

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
    bits = data.view(np.int64)
    nonzero = (bits[:, 0::2] | bits[:, 1::2]) != 0 if complex_entries else bits != 0
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


# The ASCII characters that str.strip removes, and those of them that
# str.splitlines breaks at ("\r\n" is one break).
_ASCII_SPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_ASCII_BREAKS = np.frombuffer(b"\n\r\x0b\x0c\x1c\x1d\x1e", np.uint8)
_SCAN_BYTES = 1 << 20  # the line-break search reads the file in pieces of this size


def _line_bounds(b: np.ndarray, ascii_only: bool) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the lines that str.splitlines finds in the UTF-8 bytes ``b``.

    ``b`` holds stripped text, so it neither starts nor ends with a break.
    Besides the ASCII breaks, a text that is not ASCII breaks at U+0085
    (C2 85), U+2028 (E2 80 A8) and U+2029 (E2 80 A9); UTF-8 sequences are
    self-synchronizing, so these byte patterns occur nowhere else.
    """
    found = []
    for start in range(0, b.size, _SCAN_BYTES):
        seg = b[start : start + _SCAN_BYTES]
        pos = np.flatnonzero(seg < 0x20)
        found.append(pos[np.isin(seg[pos], _ASCII_BREAKS)] + start)
        if not ascii_only:
            found.append(np.flatnonzero((seg == 0x85) | (seg == 0xA8) | (seg == 0xA9)) + start)
    pos = np.concatenate(found)
    size = np.ones(pos.size, dtype=np.int64)
    if not ascii_only:
        nel = (b[pos] == 0x85) & (b[pos - 1] == 0xC2)
        sep = (b[pos] >= 0xA8) & (b[pos - 1] == 0x80) & (b[pos - 2] == 0xE2)
        pos[nel], size[nel] = pos[nel] - 1, 2
        pos[sep], size[sep] = pos[sep] - 2, 3
        keep = (b[pos] < 0x80) | nel | sep
        pos, size = pos[keep], size[keep]
        order = np.argsort(pos, kind="stable")
        pos, size = pos[order], size[order]
    crlf = (b[pos] == 0x0D) & (b[pos + 1] == 0x0A)
    size[crlf] = 2
    keep = ~((b[pos] == 0x0A) & (b[pos - 1] == 0x0D))  # the "\n" of a "\r\n"
    pos, size = pos[keep], size[keep]
    return np.concatenate([[0], pos + size]), np.concatenate([pos, [b.size]])


def _zero_cells(data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Which cells data[starts[k]:ends[k]] are exactly a zero token the writer emits.

    A cell of a token's length is compared in one unaligned load of 8, 4,
    2 or 1 bytes per piece of the token ("0.0+0.0j" is one 8-byte load,
    "0.0" a 2-byte and a 1-byte load), read through a view of ``data`` that
    starts an integer at every byte offset.
    """
    zero = np.zeros(starts.size, dtype=bool)
    for token in (_format_entry(0.0, False).encode(), _format_entry(0.0, True).encode()):
        fits = np.flatnonzero(ends - starts == len(token))
        if not fits.size:
            continue
        match, at, offset = np.ones(fits.size, dtype=bool), starts[fits], 0
        for width in (8, 4, 2, 1):
            while len(token) - offset >= width:
                piece = int.from_bytes(token[offset : offset + width], "little")
                loads = np.ndarray((len(data) - width + 1,), dtype=f"<u{width}", buffer=data, strides=(1,))
                match &= loads[at + offset] == piece
                offset += width
        zero[fits] = match
    return zero


def _parse_csv(blob: bytes):
    """The matrix of a CSV file's UTF-8 bytes.

    The grammar is that of the text: ``text.strip().splitlines()`` gives
    the rows, ``line.split(",")`` the cells, and the width of row 1 is the
    width of every row.  A cell that is exactly a zero token the writer
    emits is 0; every other cell goes through ``complex(cell.strip())``, in
    row-major order, so a malformed cell raises before a later row of the
    wrong width.  A ``j`` or ``J`` anywhere makes the matrix complex.  numpy
    finds the line breaks, the commas and the zero tokens over the bytes,
    in blocks of rows, so only the other cells cost Python work.
    """
    ascii_only = blob.isascii()
    data = blob if ascii_only else blob.decode("utf-8").strip().encode("utf-8")
    lo, hi = 0, len(data)
    while lo < hi and data[lo] in _ASCII_SPACE:
        lo += 1
    while hi > lo and data[hi - 1] in _ASCII_SPACE:
        hi -= 1
    if lo == hi:
        raise ValueError("no rows")
    b = np.frombuffer(data, np.uint8)[lo:hi]
    line_starts, line_ends = _line_bounds(b, ascii_only)
    width = data.count(b",", lo + line_starts[0], lo + line_ends[0]) + 1
    arr = np.zeros((line_starts.size, width), dtype=complex)
    for r0 in range(0, line_starts.size, _ROW_BLOCK):
        starts, ends = line_starts[r0 : r0 + _ROW_BLOCK], line_ends[r0 : r0 + _ROW_BLOCK]
        commas = np.flatnonzero(b[starts[0] : ends[-1]] == ord(",")) + starts[0]
        cells = np.searchsorted(commas, ends) - np.searchsorted(commas, starts) + 1
        wrong = np.flatnonzero(cells != width)
        rows = wrong[0] if wrong.size else starts.size
        commas = commas[: rows * (width - 1)].reshape(rows, width - 1)
        cell_starts = lo + np.concatenate([starts[:rows, None], commas + 1], axis=1).ravel()
        cell_ends = lo + np.concatenate([commas, ends[:rows, None]], axis=1).ravel()
        parsed = np.flatnonzero(~_zero_cells(data, cell_starts, cell_ends))
        spans = zip(cell_starts[parsed].tolist(), cell_ends[parsed].tolist())
        values = [complex(data[s:e].decode("utf-8").strip()) for s, e in spans]
        arr[r0 : r0 + rows].reshape(-1)[parsed] = values
        if wrong.size:
            raise ValueError(f"row {r0 + rows + 1} has {cells[rows]} cells, row 1 has {width}")
    return arr if b"j" in data or b"J" in data else arr.real.copy()


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
        arr = _parse_binary(blob) if blob[:4] == MAGIC else _parse_csv(blob)
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
