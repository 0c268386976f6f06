import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameforge.envelopes import TruncatedMatrix
from frameforge.frames import FrameSystem, PerturbationSpec
from frameforge.matio import (
    load_frame_system,
    load_matrix,
    parse_perturbation_spec,
    save_frame_system,
    save_matrix,
    sidecar_path,
)


def test_csv_round_trip_real_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = TruncatedMatrix(rng.standard_normal((17, 17)), margin=3)
    path = tmp_path / "m.csv"
    save_matrix(path, a)
    back = load_matrix(path)
    np.testing.assert_array_equal(back.entries, a.entries)
    assert back.margin == 3
    assert not np.iscomplexobj(back.entries)


def test_csv_round_trip_complex_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    a = TruncatedMatrix(m, margin=1)
    path = tmp_path / "m.csv"
    save_matrix(path, a)
    back = load_matrix(path)
    np.testing.assert_array_equal(back.entries, m)
    assert np.iscomplexobj(back.entries)


def test_csv_complex_entry_format(tmp_path):
    a = TruncatedMatrix(np.array([[1.5 + 0.25j, -2.0 - 1.0j], [0.0 + 0.0j, -0.5 + 3.0j]]), margin=0)
    path = tmp_path / "m.csv"
    save_matrix(path, a)
    text = path.read_text()
    assert "1.5+0.25j" in text
    assert "-2.0-1.0j" in text


def test_binary_round_trip_real_and_complex(tmp_path):
    rng = np.random.default_rng(2)
    for m in [rng.standard_normal((12, 12)), rng.standard_normal((12, 12)) * 1j + 0.5]:
        a = TruncatedMatrix(m, margin=2)
        path = tmp_path / "m.ffmx"
        save_matrix(path, a, binary=True)
        blob = path.read_bytes()
        assert blob[:4] == b"FFMX"
        assert len(blob) == 16 + 12 * 12 * 8 * (2 if np.iscomplexobj(m) else 1)
        back = load_matrix(path)
        np.testing.assert_array_equal(back.entries, m)


def test_sidecar_contents(tmp_path):
    a = TruncatedMatrix(np.eye(8), margin=1)
    path = tmp_path / "m.csv"
    save_matrix(path, a)
    meta = json.loads(sidecar_path(path).read_text())
    assert meta == {"n": 8, "margin": 1, "dtype": "f64"}


def test_load_without_sidecar_defaults(tmp_path):
    a = TruncatedMatrix(np.eye(16), margin=2)
    path = tmp_path / "m.csv"
    save_matrix(path, a)
    sidecar_path(path).unlink()
    back = load_matrix(path)
    assert back.margin == 2  # default n // 8
    np.testing.assert_array_equal(back.entries, np.eye(16))


def test_load_missing_and_malformed(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_matrix(tmp_path / "absent.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\nnot-a-number,4.0\n")
    with pytest.raises(ValueError):
        load_matrix(bad)


def test_sidecar_size_mismatch(tmp_path):
    a = TruncatedMatrix(np.eye(8), margin=1)
    path = tmp_path / "m.csv"
    save_matrix(path, a)
    meta = json.loads(sidecar_path(path).read_text())
    meta["n"] = 9
    sidecar_path(path).write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="sidecar"):
        load_matrix(path)


def test_frame_system_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    system = FrameSystem(TruncatedMatrix(rng.standard_normal((10, 10)), margin=1), label="probe")
    path = tmp_path / "sys.csv"
    save_frame_system(path, system)
    meta = json.loads(sidecar_path(path).read_text())
    assert meta["label"] == "probe" and meta["reference"] == "hermite"
    back = load_frame_system(path)
    assert back.label == "probe"
    np.testing.assert_array_equal(back.matrix, system.matrix)


def test_parse_perturbation_spec_constant_form():
    spec = parse_perturbation_spec({"r": 1, "eps": [0.5], "a": {"constant": 0.5}}, n=8)
    assert isinstance(spec, PerturbationSpec)
    assert spec.a.shape == (1, 8)
    assert np.all(spec.a == 0.5)


def test_parse_perturbation_spec_explicit_rows():
    d = {"r": 2, "eps": [0.3, 0.2], "a": [[0.3, 0.1, 0.2], [0.2, 0.05, 0.1]]}
    spec = parse_perturbation_spec(d, n=3)
    assert spec.r == 2
    np.testing.assert_allclose(spec.a[1], [0.2, 0.05, 0.1])


def test_parse_perturbation_spec_keeps_negative_zero_real_parts():
    d = {"r": 1, "eps": [0.5], "a": [[[-0.0, 0.1], [0.1, -0.0], [-0.0, -0.0]]]}
    a = parse_perturbation_spec(d, n=3).a[0]
    assert np.iscomplexobj(a)
    assert list(np.signbit(a.real)) == [True, False, True]
    assert list(np.signbit(a.imag)) == [False, True, True]
    assert a[0].imag == 0.1 and a[1].real == 0.1


def test_perturbation_spec_json_round_trip():
    spec = PerturbationSpec(r=2, a=np.array([[0.3, 0.1, 0.2], [0.2, 0.05, 0.1]]), eps=(0.3, 0.2))
    back = parse_perturbation_spec(spec.to_json(), n=3)
    assert back.r == spec.r and back.eps == spec.eps
    np.testing.assert_array_equal(back.a, spec.a)
    cspec = PerturbationSpec(r=1, a=np.array([[0.2j, 0.1j]]), eps=(0.25,))
    cback = parse_perturbation_spec(cspec.to_json(), n=2)
    np.testing.assert_array_equal(cback.a, cspec.a)


def test_parse_perturbation_spec_rejects_gibberish():
    with pytest.raises(ValueError):
        parse_perturbation_spec({"r": 1}, n=4)
    with pytest.raises(ValueError):
        parse_perturbation_spec({"r": 2, "eps": [0.1, 0.1], "a": {"constant": [0.1, 0.1, 0.1]}}, n=4)
    with pytest.raises(ValueError, match="field 'a': 1 rows for r = 2"):
        parse_perturbation_spec({"r": 2, "eps": [0.1, 0.1], "a": [[0.1, 0.1]]}, n=4)
    with pytest.raises(ValueError, match="field 'a': 2 rows for r = 1"):
        parse_perturbation_spec({"r": 1, "eps": [0.1], "a": [[0.1, 0.1], [0.1, 0.1]]}, n=4)


# The per-entry CSV writer and per-cell parser that the non-zero-driven
# ones in matio replaced, kept as references: the writer must match them
# byte for byte and the reader bit for bit.
def _reference_format_entry(z, complex_entries):
    if complex_entries:
        z = complex(z)
        sign = "+" if z.imag >= 0 else "-"
        return f"{z.real!r}{sign}{abs(z.imag)!r}j"
    return repr(float(z))


def reference_format_csv(entries):
    complex_entries = bool(np.iscomplexobj(entries))
    rows = []
    for row in entries:
        rows.append(",".join(_reference_format_entry(z, complex_entries) for z in row))
    return "\n".join(rows) + "\n"


def reference_parse_csv(text):
    rows = []
    complex_seen = False
    for line in text.strip().splitlines():
        cells = []
        for cell in line.split(","):
            cell = cell.strip()
            if "j" in cell.lower():  # complex() accepts J as well as j
                complex_seen = True
            cells.append(complex(cell))
        rows.append(cells)
    arr = np.asarray(rows, dtype=complex)
    return arr if complex_seen else arr.real.copy()


def assert_bitwise_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# Signed zeros, subnormals, and both sides of repr's switches to exponent
# notation at 1e-4 and 1e16.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                1e-4, 9.999999999999999e-05, 0.00010000000000000002, 1e16, 9999999999999998.0,
                1.0000000000000002e16, -1e16, 1.0, -2.5]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _matrices(draw):
    n = draw(st.integers(1, 9))
    cells = st.lists(_floats, min_size=n * n, max_size=n * n)
    m = np.array(draw(cells)).reshape(n, n)
    if draw(st.booleans()):
        # complex, with any of -0.0 / 0.0 / values in either part
        m = m + 1j * np.array(draw(cells)).reshape(n, n)
        if draw(st.booleans()):
            m.imag[np.diag_indices(n)] = -0.0
    if draw(st.booleans()):
        # banded: everything off the band is an exact zero of the dtype
        band = draw(st.integers(0, n))
        i, j = np.indices((n, n))
        m = np.where(np.abs(i - j) <= band, m, m.dtype.type(0))
    return m


@settings(max_examples=200, deadline=None)
@given(m=_matrices())
def test_csv_writer_and_reader_match_per_entry_references(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    save_matrix(path, TruncatedMatrix(m))
    text = path.read_text()
    assert text == reference_format_csv(m)
    assert_bitwise_equal(load_matrix(path).entries, reference_parse_csv(text))


_TOKENS = ["0.0", "0.0+0.0j", " 0.0", "0.0 ", "\t0.0+0.0j ", "0", "-0.0", "-0.0-0.0j", "0.0-0.0j", "0j",
           "1_0", "1e-4", " -2.5 ", "1.5+0.25j", "5e-324", "-1e16-0.0j", "1e16j", "0.0+0.0J", "abc", ""]


@settings(max_examples=300, deadline=None)
@given(
    grid=st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.sampled_from(_TOKENS), min_size=n, max_size=n), min_size=1, max_size=n)
    ),
    ragged=st.booleans(),
)
def test_csv_reader_grammar_matches_per_cell_reference(tmp_path_factory, grid, ragged):
    if ragged and len(grid) > 1:
        grid[-1] = grid[-1] + ["1.0"]
    text = "\n".join(",".join(row) for row in grid) + "\n"
    path = tmp_path_factory.mktemp("grammar") / "m.csv"
    path.write_text(text)
    try:
        expected = reference_parse_csv(text)
    except ValueError:
        expected = None
    if expected is None or expected.ndim != 2 or expected.shape[0] != expected.shape[1]:
        with pytest.raises(ValueError):
            load_matrix(path)
    else:
        assert_bitwise_equal(load_matrix(path).entries, expected)


# Every line break str.splitlines accepts, and whitespace that str.strip removes.
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SPACES = ["", " ", "\t", "\x1f", "\xa0", "\u3000", "\u2009", "\n", "\r\n", "\x85", "\u2028 ", "\n\x1f", "\x1f\r"]


@settings(max_examples=300, deadline=None)
@given(
    grid=st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from(_TOKENS + ["\xa01.5", "2.0\u3000"]), min_size=n, max_size=n),
            min_size=1, max_size=n,
        )
    ),
    breaks=st.lists(st.sampled_from(_BREAKS), min_size=5, max_size=5),
    ends=st.tuples(st.sampled_from(_SPACES), st.sampled_from(_SPACES)),
    ragged=st.booleans(),
)
def test_csv_reader_matches_the_reference_on_every_line_break(tmp_path_factory, grid, breaks, ends, ragged):
    if ragged and len(grid) > 1:
        grid[-1] = grid[-1][:-1] if len(grid[-1]) > 1 else grid[-1] + ["1.0"]
    lines = [",".join(row) for row in grid]
    text = ends[0] + "".join(line + brk for line, brk in zip(lines[:-1], breaks)) + lines[-1] + ends[1]
    path = tmp_path_factory.mktemp("breaks") / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = reference_parse_csv(text)
    except ValueError:
        expected = None
    if expected is None or expected.ndim != 2 or expected.shape[0] != expected.shape[1]:
        with pytest.raises(ValueError):
            load_matrix(path)
    else:
        assert_bitwise_equal(load_matrix(path).entries, expected)


def test_csv_reader_reads_a_matrix_over_several_row_blocks(tmp_path):
    # more rows than one block of the reader, with every kind of cell, a break of each
    # kind and whitespace of each kind around the text
    n = 260
    rng = np.random.default_rng(8)
    m = np.where(rng.random((n, n)) < 0.03, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 0)
    m[0, 0], m[1, 1], m[2, 2] = complex(-0.0, 0.0), complex(0.0, -0.0), 5e-324j
    text = reference_format_csv(m)
    path = tmp_path / "m.csv"
    expected = reference_parse_csv(text)
    for brk, space in [(brk, "\u3000") for brk in _BREAKS] + [("\r\n", space) for space in _SPACES]:
        path.write_bytes((space + text.replace("\n", brk) + space).encode("utf-8"))
        assert_bitwise_equal(load_matrix(path).entries, expected)


def test_csv_reader_reports_the_first_error_in_row_order(tmp_path):
    # a malformed cell is met before a later row of the wrong width, and a row of
    # the wrong width before a malformed cell of its own or of a later row
    path = tmp_path / "m.csv"
    for text, message in (("1.0,2.0\nabc,1.0\n3.0\n", "malformed"), ("1.0,2.0\nabc\n1.0,x\n", "row 2 has 1"),
                          ("1.0,2.0\n" * 200 + "1.0,abc,3.0\n", "row 201 has 3")):
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_matrix(path)


def test_csv_uppercase_j_makes_the_matrix_complex(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1+2J,0.0\n0.0,1.0\n")
    entries = load_matrix(path).entries
    assert np.iscomplexobj(entries)
    np.testing.assert_array_equal(entries, [[1 + 2j, 0], [0, 1]])
    path.write_text("1.0,0.0\n0.0,1.0\n")
    assert not np.iscomplexobj(load_matrix(path).entries)


def test_csv_zero_tokens_and_ragged_rows(tmp_path):
    a = TruncatedMatrix(np.array([[1.0, 0.0, -0.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), margin=0)
    path = tmp_path / "m.csv"
    save_matrix(path, a)
    assert path.read_text() == "1.0,0.0,-0.0\n0.0,0.0,0.0\n0.0,2.0,0.0\n"
    assert np.signbit(load_matrix(path).entries[0, 2])
    c = TruncatedMatrix(np.array([[0j, complex(-0.0, 0.0)], [complex(0.0, -0.0), 1j]]), margin=0)
    save_matrix(path, c)
    assert path.read_text() == "0.0+0.0j,-0.0+0.0j\n0.0+0.0j,0.0+1.0j\n"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="row 2 has 1 cells, row 1 has 2"):
        load_matrix(path)
    path.write_text("\n \n")
    with pytest.raises(ValueError, match="no rows"):
        load_matrix(path)


@settings(max_examples=100, deadline=None)
@given(m=_matrices(), cut=st.integers(1, 64), extra=st.binary(min_size=1, max_size=24))
def test_ffmx_round_trip_and_exact_size(tmp_path_factory, m, cut, extra):
    path = tmp_path_factory.mktemp("ffmx") / "m.ffmx"
    save_matrix(path, TruncatedMatrix(m), binary=True)
    blob = path.read_bytes()
    assert len(blob) == 16 + 8 * m.size * (2 if np.iscomplexobj(m) else 1)
    assert_bitwise_equal(load_matrix(path).entries, m)
    for bad in (blob[: max(len(blob) - cut, 16)], blob + extra):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=f"FFMX file has {len(bad)} bytes, .* needs {len(blob)}"):
            load_matrix(path)


def test_ffmx_complex_with_flag_cleared_is_rejected(tmp_path):
    m = np.arange(16.0).reshape(4, 4) + 1j
    path = tmp_path / "m.ffmx"
    save_matrix(path, TruncatedMatrix(m), binary=True)
    blob = bytearray(path.read_bytes())
    blob[8:12] = struct.pack("<I", 0)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="FFMX file has 272 bytes, a real N=4 matrix needs 144"):
        load_matrix(path)
    path.write_bytes(bytes(blob[:10]))
    with pytest.raises(ValueError, match="not a FFMX"):
        load_matrix(path)


def test_sidecar_f64_with_complex_data(tmp_path):
    path = tmp_path / "m.csv"
    save_matrix(path, TruncatedMatrix(np.eye(4) + 1j * np.eye(4, k=1)))
    sidecar_path(path).write_text(json.dumps({"n": 4, "margin": 0, "dtype": "f64"}))
    with pytest.raises(ValueError, match="dtype f64"):
        load_matrix(path)
    # All imaginary parts zero: the sidecar's real dtype is kept.
    save_matrix(path, TruncatedMatrix(np.eye(4) + 0j))
    sidecar_path(path).write_text(json.dumps({"n": 4, "margin": 0, "dtype": "f64"}))
    back = load_matrix(path).entries
    assert not np.iscomplexobj(back)
    np.testing.assert_array_equal(back, np.eye(4))
