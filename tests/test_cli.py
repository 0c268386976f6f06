import json
import math
import os
import subprocess
import sys
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from frameforge import cli, envelopes, frames, graded, weights
from frameforge.cli import main
from frameforge.envelopes import TruncatedMatrix, p_series
from frameforge.matio import load_frame_system, save_matrix, sidecar_path
from test_matio import reference_format_csv


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def jaffard_csv(tmp_path, n, gamma, margin=None):
    idx = np.arange(1, n + 1, dtype=float)
    d = np.abs(idx[:, None] - idx[None, :])
    a = TruncatedMatrix(np.exp(-gamma * d), margin=-1 if margin is None else margin)
    path = tmp_path / "mat.csv"
    save_matrix(path, a)
    return str(path)


def test_gen_round_trip(tmp_path):
    cfg = write_config(
        tmp_path,
        "gen.json",
        {"spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}}, "n": 32, "label": "p32"},
    )
    assert main(["gen", "--config", cfg, "--out", str(tmp_path)]) == 0
    system = load_frame_system(tmp_path / "p32.csv")
    expected = np.eye(32) + 0.5 * np.eye(32, k=1)
    np.testing.assert_array_equal(system.matrix, expected)
    assert system.label == "p32"


def test_gen_invalid_spec_exit_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "gen.json",
        {"spec": {"r": 1, "eps": [0.5], "a": {"constant": 1.1}}, "n": 32},
    )
    assert main(["gen", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "exceeds eps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, message",
    [("two", "positive integer"), ("0", "positive integer"), ("1", "threadpoolctl is not installed")],
)
def test_frame_forge_threads_never_silently_ignored(tmp_path, capsys, monkeypatch, value, message):
    cfg = write_config(tmp_path, "fit.json", {"matrix": jaffard_csv(tmp_path, 32, 0.7)})
    monkeypatch.setenv("FRAME_FORGE_THREADS", value)
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # makes the import fail
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_fit_exponential_matrix(tmp_path):
    mat = jaffard_csv(tmp_path, 64, 0.7)
    cfg = write_config(tmp_path, "fit.json", {"matrix": mat, "betas": [1.0]})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "fit.csv").read_text().strip().splitlines()
    header, line = rows[0], rows[1].split(",")
    assert header == "beta,gamma_fit,c_fit,residual"
    assert abs(float(line[1]) - 0.7) < 1e-6


def test_fit_banded_matrix_exit_2_leaves_no_file(tmp_path, capsys):
    a = TruncatedMatrix(np.eye(48) + 0.3 * np.eye(48, k=1) + 0.3 * np.eye(48, k=-1))
    path = tmp_path / "band.csv"
    save_matrix(path, a)
    cfg = write_config(tmp_path, "fit.json", {"matrix": str(path), "betas": [1.0]})
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 2
    assert "fewer than 3 usable anti-diagonals" in capsys.readouterr().err
    assert not (out / "fit.csv").exists()


def test_fit_identity_sentinel(tmp_path):
    a = TruncatedMatrix(np.eye(32))
    path = tmp_path / "id.csv"
    save_matrix(path, a)
    cfg = write_config(tmp_path, "fit.json", {"matrix": str(path), "betas": [1.0]})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
    line = (tmp_path / "fit.csv").read_text().strip().splitlines()[1]
    assert line.split(",")[1] == "inf"


def test_fit_malformed_matrix_exit_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,zzz\n2.0,3.0\n")
    cfg = write_config(tmp_path, "fit.json", {"matrix": str(bad), "betas": [1.0]})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 3


def _truncated_ffmx(path):
    save_matrix(path, TruncatedMatrix(np.eye(8)), binary=True)
    path.write_bytes(path.read_bytes()[:-8])


def _ffmx_with_trailing_bytes(path):
    save_matrix(path, TruncatedMatrix(np.eye(8)), binary=True)
    path.write_bytes(path.read_bytes() + bytes(8))


def _complex_ffmx_flag_cleared(path):
    save_matrix(path, TruncatedMatrix(np.eye(8) + 0.5j * np.eye(8, k=1)), binary=True)
    blob = path.read_bytes()
    path.write_bytes(blob[:8] + bytes(4) + blob[12:])


def _complex_csv_f64_sidecar(path):
    save_matrix(path, TruncatedMatrix(np.eye(8) + 1j * np.eye(8, k=1)))
    sidecar_path(path).write_text(json.dumps({"n": 8, "margin": 1, "dtype": "f64"}))


@pytest.mark.parametrize(
    "name, write",
    [
        ("m.ffmx", _truncated_ffmx),
        ("m.ffmx", _ffmx_with_trailing_bytes),
        ("m.ffmx", _complex_ffmx_flag_cleared),
        ("m.csv", _complex_csv_f64_sidecar),
    ],
)
def test_inconsistent_matrix_file_exit_3(tmp_path, capsys, name, write):
    matrix = tmp_path / name
    write(matrix)
    cfg = write_config(tmp_path, "dual.json", {"matrix": str(matrix), "beta": 1.0})
    out = tmp_path / "out"
    assert main(["dual", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_gen_complex_csv_matches_per_entry_writer_then_dual(tmp_path):
    n = 64
    rng = np.random.default_rng(5)
    rows = [rng.uniform(-0.1, 0.1, (n, 2)).tolist() for _ in range(2)]
    spec = {"r": 2, "eps": [0.36, 0.15], "a": rows}
    cfg = write_config(tmp_path, "gen.json", {"spec": spec, "n": n, "margin": 4, "label": "c64"})
    assert main(["gen", "--config", cfg, "--out", str(tmp_path)]) == 0
    expected = np.eye(n, dtype=complex)
    for shift, row in enumerate(rows, start=1):
        for k in range(n - shift):
            expected[k, k + shift] = complex(*row[k])
    csv = tmp_path / "c64.csv"
    assert csv.read_text() == reference_format_csv(expected)
    dcfg = write_config(tmp_path, "dual.json", {"matrix": str(csv), "beta": 1.0})
    assert main(["dual", "--config", dcfg, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "dual.json").read_text())["dual"]["gamma"] > 0


def test_missing_config_exit_3(tmp_path):
    assert main(["fit", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 3


def test_schur_pass(tmp_path):
    mat = jaffard_csv(tmp_path, 48, 1.0)
    cfg = write_config(tmp_path, "s.json", {"matrix": mat, "p": 2})
    assert main(["schur", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "schur.json").read_text())
    assert data["dominates_spectral"] is True
    assert data["schur_bound"] >= data["spectral_norm"] - 1e-10

    # report's Schur step is the same check on the same matrix
    rcfg = write_config(tmp_path, "r.json", {"matrix": mat, "p": 2, "levels": [0], "seed": 1})
    assert main(["report", "--config", rcfg, "--out", str(tmp_path / "r"), "--no-timestamp"]) == 0
    step = json.loads((tmp_path / "r" / "report.json").read_text())["steps"]["schur"]
    assert step == {"status": "pass", "schur_bound": data["schur_bound"], "spectral_norm": data["spectral_norm"]}


def test_jaffard_identity_and_singular(tmp_path):
    a = TruncatedMatrix(np.eye(32))
    path = tmp_path / "id.csv"
    save_matrix(path, a)
    cfg = write_config(tmp_path, "j.json", {"matrix": str(path), "beta": 1.0, "gamma": 1.0})
    assert main(["jaffard", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "jaffard.json").read_text())
    assert data["violations"] == 0
    rep = data["report"]
    gpp, eps = rep["gamma_dprime"], rep["eps_free"]
    assert rep["gamma1_pred"] == pytest.approx(min(gpp * (1 - eps), eps * gpp))

    sing = np.eye(32)
    sing[4, 4] = 0.0
    spath = tmp_path / "sing.csv"
    save_matrix(spath, TruncatedMatrix(sing))
    cfg2 = write_config(tmp_path, "j2.json", {"matrix": str(spath), "beta": 1.0, "gamma": 1.0})
    assert main(["jaffard", "--config", cfg2, "--out", str(tmp_path / "sing")]) == 2
    assert not (tmp_path / "sing" / "jaffard.json").exists()


def test_gram_overflow_is_named_not_singular(tmp_path, capsys):
    # entries of 1e160 square past the double range in E^H E and AA*; eigvalsh
    # on the overflowed Gram failed to converge and was reported as singular
    n = 32
    path = tmp_path / "big.csv"
    save_matrix(path, TruncatedMatrix(1e160 * (np.eye(n) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1)))))
    cfg = write_config(tmp_path, "c.json", {"matrix": str(path), "beta": 1.0, "gamma": 1.0, "seed": 1,
                                            "trials": 10})
    for command, gram in (("schur", "E^H E"), ("dual", "E^H E"), ("jaffard", "AA*")):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert f"{gram} overflows the double range" in err
        assert "singular" not in err and "Warning" not in err
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "report"), "--no-timestamp"]) == 1
    steps = json.loads((tmp_path / "report" / "report.json").read_text())["steps"]
    for name in ("schur", "frame_bounds"):
        assert steps[name]["status"] == "fail"
        assert "E^H E overflows the double range" in steps[name]["error"]


def test_jaffard_banded_matrix_clean(tmp_path):
    n = 300
    mat = np.eye(n) + 0.3 * np.eye(n, k=1) + 0.3 * np.eye(n, k=-1)
    path = tmp_path / "band.csv"
    save_matrix(path, TruncatedMatrix(mat, margin=32))
    cfg = write_config(
        tmp_path,
        "j.json",
        {"matrix": str(path), "beta": 1.0, "gamma": float(np.log(1 / 0.3)), "margin": 32},
    )
    assert main(["jaffard", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "jaffard.json").read_text())
    assert data["violations"] == 0
    assert data["gamma_fit_inverse"] >= data["report"]["gamma1_pred"]


def test_jaffard_at_a_slow_rate_reports_instead_of_raising(tmp_path, capsys):
    # beta = 0.25 makes the series P in the split slow (gamma' - gamma'' = 0.125);
    # it used to run into the term cap and escape main as a RuntimeError
    mat = np.eye(64) + 0.3 * np.eye(64, k=1) + 0.3 * np.eye(64, k=-1)
    path = tmp_path / "band.csv"
    save_matrix(path, TruncatedMatrix(mat))
    cfg = write_config(tmp_path, "j.json", {"matrix": str(path), "beta": 0.25, "gamma": 0.5})
    assert main(["jaffard", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rep = json.loads((tmp_path / "jaffard.json").read_text())["report"]
    assert rep["p_split"] == pytest.approx(p_series(0.125, 0.25), rel=1e-15)


def test_jaffard_rate_past_the_double_range_exit_2(tmp_path, capsys):
    # beta = 1e-300 made gamma^(1/beta) in the series P overflow as a Python
    # float power, which escaped main as an OverflowError
    n = 64
    path = tmp_path / "band.ffmx"
    save_matrix(path, TruncatedMatrix(np.eye(n) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))), binary=True)
    cfg = write_config(tmp_path, "j.json", {"matrix": str(path), "beta": 1e-300, "gamma": 17.94})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["jaffard", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "passes the double range" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "jaffard.json").exists()


def test_report_star_constant_at_a_rate_past_the_double_range_is_inf(tmp_path):
    # (1+m)^gamma / (1+n)^(2 gamma) was inf / inf: the star constant read "nan",
    # with six RuntimeWarnings, where a non-zero entry over an underflowed envelope gives inf
    cfg = write_config(tmp_path, "r.json", {"spec": SPEC, "n": 64, "gamma": 1e300, "levels": [0, 1, 2],
                                            "trials": 50, "seed": 7})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "r"), "--no-timestamp"]) == 0
    text = (tmp_path / "r" / "report.json").read_text()
    step = json.loads(text)["steps"]["envelope_chain"]
    assert step["status"] == "pass" and step["constants"] == {"star": "inf", "dstar": "inf", "tstar": "inf"}
    assert "nan" not in text


def test_report_on_a_huge_stored_matrix_fails_its_steps_without_warning(tmp_path):
    # the unit-vector images of 1e200 I overflowed in synthesis with a RuntimeWarning;
    # they read inf, and the weighted step fails on the Gram, as the others do
    path = tmp_path / "big.csv"
    save_matrix(path, TruncatedMatrix(1e200 * np.eye(64)))
    cfg = write_config(tmp_path, "r.json", {"matrix": str(path), "levels": [0, 1], "p": 2, "seed": 1, "trials": 10,
                                            "weight": {"kind": "subexponential", "beta": 0.5, "gamma": 1.0}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "r"), "--no-timestamp"]) == 1
    text = (tmp_path / "r" / "report.json").read_text()
    steps = json.loads(text)["steps"]
    assert steps.pop("envelope_chain")["status"] == "pass"
    assert steps.pop("example_inequalities")["status"] == "skipped"
    assert set(steps) == {"schur", "frame_bounds", "dual_biorthogonality", "expansion", "fframe", "weighted_norms"}
    for step in steps.values():
        assert step == {"status": "fail",
                        "error": "the Gram matrix E^H E overflows the double range: matrix entries near 1e154 or larger"}
    assert "nan" not in text


def test_jaffard_on_a_tridiagonal_matrix_keeps_the_lu_inverse(tmp_path, monkeypatch):
    # A tridiagonal matrix is not triangular: its inverse is the LU's, so
    # jaffard.json has the bits of a run that calls np.linalg.inv directly.
    n = 256
    path = tmp_path / "band.ffmx"
    a = np.eye(n) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))
    save_matrix(path, TruncatedMatrix(a, margin=16), binary=True)
    cfg = write_config(tmp_path, "j.json", {"matrix": str(path), "beta": 1.0, "gamma": math.log(1 / 0.3)})

    def blocked(*args):
        raise AssertionError("blocked triangular inverse used")

    monkeypatch.setattr(frames, "_invert_upper", blocked)
    assert main(["jaffard", "--config", cfg, "--out", str(tmp_path / "inverse")]) == 0
    monkeypatch.setattr(frames, "_inverse", lambda m: np.linalg.inv(m.entries))
    assert main(["jaffard", "--config", cfg, "--out", str(tmp_path / "lu")]) == 0
    assert (tmp_path / "inverse" / "jaffard.json").read_bytes() == (tmp_path / "lu" / "jaffard.json").read_bytes()


def counted_lu(monkeypatch):
    """Patch np.linalg.inv to record the size of every matrix it inverts; return the list of sizes."""
    sizes, lu = [], np.linalg.inv

    def counting(m):
        sizes.append(m.shape[0])
        return lu(m)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return sizes


def test_jaffard_at_n1024_inverts_its_tridiagonal_matrix_by_band_elimination(tmp_path, monkeypatch):
    # The benchmark's matrix: from N = 512 on a narrow band is eliminated
    # within the band, and jaffard.json keeps the bits of the LU run.
    n = 1024
    path = tmp_path / "band.ffmx"
    save_matrix(path, TruncatedMatrix(np.eye(n) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1)), margin=64), binary=True)
    cfg = write_config(tmp_path, "j.json", {"matrix": str(path), "beta": 1.0, "gamma": math.log(1 / 0.3)})
    sizes = counted_lu(monkeypatch)
    assert main(["jaffard", "--config", cfg, "--out", str(tmp_path / "band")]) == 0
    assert max(sizes, default=0) <= frames._LEAF
    monkeypatch.setattr(frames, "_inverse", lambda m: np.linalg.inv(m.entries))
    assert main(["jaffard", "--config", cfg, "--out", str(tmp_path / "lu")]) == 0
    assert sizes[-1] == n
    assert (tmp_path / "band" / "jaffard.json").read_bytes() == (tmp_path / "lu" / "jaffard.json").read_bytes()


def test_dual_of_a_stored_non_triangular_band_takes_the_band_elimination(tmp_path, monkeypatch):
    # A complex tridiagonal system at N = 512: its dual is E^-H from the band
    # elimination, within rounding of the LU's.
    n, rng = 512, np.random.default_rng(12)
    off = [0.3 * rng.uniform(0.05, 1.0, n - 1) * np.exp(2j * np.pi * rng.uniform(size=n - 1)) for _ in range(2)]
    path = tmp_path / "band.ffmx"
    save_matrix(path, TruncatedMatrix(np.eye(n) + np.diag(off[0], 1) + np.diag(off[1], -1)), binary=True)
    cfg = write_config(tmp_path, "d.json", {"matrix": str(path), "beta": 1.0})
    sizes = counted_lu(monkeypatch)
    assert main(["dual", "--config", cfg, "--out", str(tmp_path / "band")]) == 0
    assert max(sizes, default=0) <= frames._LEAF
    monkeypatch.setattr(frames, "_inverse", lambda m: np.linalg.inv(m.entries))
    assert main(["dual", "--config", cfg, "--out", str(tmp_path / "lu")]) == 0
    assert sizes[-1] == n
    band, lu = (json.loads((tmp_path / side / "dual.json").read_text())["dual"] for side in ("band", "lu"))
    assert band == pytest.approx(lu, rel=1e-12, abs=1e-15)


def test_jaffard_narrow_window_reports_sentinel_rate(tmp_path):
    # margin 7 at N = 16 leaves a 2 x 2 window: too few distances to fit the inverse's rate
    mat = np.eye(16) + 0.3 * np.eye(16, k=1) + 0.3 * np.eye(16, k=-1)
    path = tmp_path / "band.csv"
    save_matrix(path, TruncatedMatrix(mat))
    cfg = write_config(tmp_path, "j.json", {"matrix": str(path), "beta": 1.0, "gamma": 1.0, "margin": 7})
    assert main(["jaffard", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "jaffard.json").read_text())
    assert data["gamma_fit_inverse"] == "inf"
    assert data["violations"] == 0 and data["checked"] == 4


def test_no_subcommand_calls_the_svd(tmp_path, capsys, monkeypatch):
    # Every spectral number is an eigenvalue of a Gram matrix the code forms anyway.
    n = 64
    path = tmp_path / "band.csv"
    save_matrix(path, TruncatedMatrix(np.eye(n) + 0.3 * np.eye(n, k=1) + 0.3 * np.eye(n, k=-1), margin=8))
    complex_spec = {"r": 1, "eps": [0.3], "a": [[[0.18, 0.24]] * n]}
    runs = {
        "report": {"spec": SPEC, "n": n, "gamma": 2.0, "levels": [0, 1], "trials": 50, "seed": 3,
                   "weight": {"kind": "subexponential", "beta": 0.5, "gamma": 1.0}},
        "jaffard": {"matrix": str(path), "beta": 1.0, "gamma": 1.0},
        "dual": {"spec": complex_spec, "n": n, "beta": 1.0},
        "schur": {"matrix": str(path)},
    }

    def outputs(tag):
        result = {}
        for command, payload in runs.items():
            out = tmp_path / tag / command
            code = main([command, "--config", write_config(tmp_path, "c.json", payload), "--out", str(out),
                         "--no-timestamp"])
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            result[command] = code, captured.out.replace(str(out), "OUT"), captured.err, files
        return result

    want = outputs("plain")
    assert [code for code, *_ in want.values()] == [0, 0, 0, 0]

    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", svd)
    assert outputs("no_svd") == want


def test_dual_expand_and_fframe_compute_no_gram_eigenvalue(tmp_path, capsys, monkeypatch):
    # None of them reports an eigenvalue: the dual's rank rule accepts on the
    # shifted-Cholesky proof, with the same outputs as from the eigenvalues.
    n = 256
    rng = np.random.default_rng(5)
    rows = [[[float(x), float(y)] for x, y in eps * rng.uniform(-0.7, 0.7, (n, 2))] for eps in (0.36, 0.15)]
    payload = {"spec": {"r": 2, "eps": [0.36, 0.15], "a": rows}, "n": n, "beta": 1.0, "levels": [0, 2], "seed": 4}
    cfg = write_config(tmp_path, "c.json", payload)

    def outputs(tag):
        result = {}
        for command in ("dual", "expand", "fframe"):
            out = tmp_path / tag / command
            code = main([command, "--config", cfg, "--out", str(out)])
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            result[command] = code, captured.out.replace(str(out), "OUT"), captured.err, files
        return result

    want = outputs("plain")
    assert [code for code, *_ in want.values()] == [0, 0, 0]

    def eigvalsh(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert outputs("no_eigvalsh") == want


def test_report_and_jaffard_on_the_benchmark_systems_compute_no_eigvalsh(tmp_path, capsys, monkeypatch):
    # At N = 1024 both Grams are narrow bands, E^H E of I + 0.5 S with b = 1 and AA* of
    # I + 0.3 (S + S^T) with b = 2: their extremes come from bisection on the band,
    # report forms no N x N Gram, and the outputs are those of a run that may call eigvalsh.
    n = 1024
    report = write_config(tmp_path, "report.json", {
        "spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}}, "n": n, "gamma": 2.0,
        "levels": [0, 1, 2, 3, 4], "trials": 1000, "seed": 3,
        "weight": {"kind": "subexponential", "beta": 0.5, "gamma": 1.0}})
    matrix = tmp_path / "tridiag.ffmx"
    save_matrix(matrix, TruncatedMatrix(np.eye(n) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1)), margin=64), binary=True)
    jaffard = write_config(tmp_path, "jaffard.json", {"matrix": str(matrix), "beta": 1.0, "gamma": math.log(1 / 0.3)})
    grams = []
    gram_product = frames._gram_product

    def counting(m, adjoint_first, name):
        grams.append(name)
        return gram_product(m, adjoint_first, name)

    monkeypatch.setattr(frames, "_gram_product", counting)

    def outputs(tag):
        result = {}
        for command, cfg in (("report", report), ("jaffard", jaffard)):
            out = tmp_path / tag / command
            code = main([command, "--config", cfg, "--out", str(out), "--no-timestamp"])
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            result[command] = code, captured.out.replace(str(out), "OUT"), captured.err, files
        return result

    want = outputs("plain")
    assert [code for code, *_ in want.values()] == [0, 0]
    assert grams == ["AA*"]  # jaffard's, for the membership constant of AA*

    def eigvalsh(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert outputs("no_eigvalsh") == want
    bounds = json.loads(want["report"][3]["report.json"])["steps"]["frame_bounds"]
    assert bounds["lambda_min_lower"] <= bounds["lower"] <= bounds["upper"] <= bounds["lambda_max_upper"]
    rep = json.loads(want["jaffard"][3]["jaffard.json"])["report"]
    assert rep["lambda_min_lower"] <= rep["norm_aas"] * (1 - rep["r_contraction"])
    assert rep["norm_aas"] <= rep["lambda_max_upper"]


def test_dual_of_a_gen_system_forms_no_gram_matrix(tmp_path, capsys, monkeypatch):
    # I + a_1 S + a_2 S^2 with |a_1| <= 0.36, |a_2| <= 0.15 is diagonally dominant:
    # Johnson's bound proves full rank, with neither E^H E nor its Cholesky factor.
    n = 256
    rng = np.random.default_rng(9)
    rows = [[[m * math.cos(t), m * math.sin(t)] for m, t in zip(eps * rng.uniform(0.05, 0.95, n),
                                                                  rng.uniform(0.0, 2 * math.pi, n))]
            for eps in (0.36, 0.15)]
    gen = write_config(tmp_path, "gen.json", {"spec": {"r": 2, "eps": [0.36, 0.15], "a": rows}, "n": n,
                                              "margin": 16, "label": "perturbed"})
    assert main(["gen", "--config", gen, "--out", str(tmp_path)]) == 0
    dual = write_config(tmp_path, "dual.json", {"matrix": str(tmp_path / "perturbed.csv"), "beta": 1.0})

    def run(tag):
        out = tmp_path / tag
        code = main(["dual", "--config", dual, "--out", str(out)])
        return code, capsys.readouterr().err, (out / "dual.json").read_bytes()

    want = run("plain")
    assert want[0] == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("a Gram matrix or its Cholesky factor was formed")

    monkeypatch.setattr(frames, "_gram_product", forbidden)
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    assert run("no_gram") == want


def test_dual_still_names_the_overflow_and_the_rank_deficiency(tmp_path, capsys):
    for name, scale, message in (("huge", 1e160, "E^H E overflows the double range"),
                                 ("tiny", 1e-12, "rank-deficient at this truncation")):
        path = tmp_path / f"{name}.csv"
        save_matrix(path, TruncatedMatrix(scale * np.eye(32)))
        cfg = write_config(tmp_path, f"{name}.json", {"matrix": str(path), "beta": 1.0})
        assert main(["dual", "--config", cfg, "--out", str(tmp_path / name)]) == 2
        assert message in capsys.readouterr().err


def test_gen_binary_round_trip(tmp_path):
    cfg = write_config(
        tmp_path,
        "gen.json",
        {
            "spec": {"r": 1, "eps": [0.4], "a": {"constant": 0.4}},
            "n": 24,
            "label": "bin24",
            "format": "binary",
        },
    )
    assert main(["gen", "--config", cfg, "--out", str(tmp_path)]) == 0
    system = load_frame_system(tmp_path / "bin24.ffmx")
    expected = np.eye(24) + 0.4 * np.eye(24, k=1)
    np.testing.assert_array_equal(system.matrix, expected)


def test_dual_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "d.json",
        {"spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}}, "n": 64, "beta": 1.0},
    )
    assert main(["dual", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "dual.json").read_text())
    assert data["dual"]["gamma"] > 0
    assert data["primal"]["gamma"] == "inf"


def test_expand_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "e.json",
        {
            "spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}},
            "n": 64,
            "function": {"kind": "gaussian", "a": 3.0},
            "levels": [0, 1],
            "checkpoints": [8, 16, 32, 64],
        },
    )
    assert main(["expand", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "expansion.csv").read_text().strip().splitlines()
    assert rows[0] == "M,k,error"
    assert len(rows) == 1 + 2 * 4

    # Without a function or checkpoints, expand runs report's expansion step.
    base = {"spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}}, "n": 64, "levels": [0, 1],
            "trials": 20, "seed": 5}
    cfg = write_config(tmp_path, "base.json", base)
    assert main(["expand", "--config", cfg, "--out", str(tmp_path / "e")]) == 0
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "r"), "--no-timestamp"]) == 0
    expanded = (tmp_path / "e" / "expansion.csv").read_bytes()
    assert expanded == (tmp_path / "r" / "expansion.csv").read_bytes()


def test_integral_float_checkpoints_write_integers(tmp_path):
    cfg = write_config(tmp_path, "e.json", {"spec": SPEC, "n": 32, "levels": [0], "checkpoints": [16.0, 32]})
    assert main(["expand", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "expansion.csv").read_text().strip().splitlines()
    assert [row.split(",")[0] for row in rows] == ["M", "16", "32"]


def test_fframe_command_needs_no_seed(tmp_path):
    base = {"spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}}, "n": 32, "levels": [0, 1], "trials": 5}
    cfg = write_config(tmp_path, "f.json", base)
    assert main(["fframe", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "fframe.json").read_text())
    assert set(data["intervals"]) == {"0", "1"}
    for iv in data["intervals"].values():
        assert 0 < iv["lower"] <= iv["upper"]

    # report's fframe step reads the same brackets
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "r"), "--seed", "7", "--no-timestamp"]) == 0
    steps = json.loads((tmp_path / "r" / "report.json").read_text())["steps"]
    assert steps["fframe"]["intervals"] == data["intervals"]


def test_fframe_on_a_rank_deficient_matrix_exit_2(tmp_path, capsys):
    sing = np.eye(32)
    sing[4, 4] = 0.0
    path = tmp_path / "sing.csv"
    save_matrix(path, TruncatedMatrix(sing))
    cfg = write_config(tmp_path, "f.json", {"matrix": str(path), "levels": [0]})
    assert main(["fframe", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "singular at truncation" in capsys.readouterr().err
    assert not (tmp_path / "out" / "fframe.json").exists()


def test_fframe_draws_no_samples_and_builds_no_hermite_context(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fframe sampled vectors or built a Hermite context")

    monkeypatch.setattr(graded, "standard_sample_set", refuse)
    monkeypatch.setattr(cli, "HermiteContext", refuse)
    cfg = write_config(tmp_path, "f.json", {"spec": SPEC, "n": 64, "levels": [0, 2], "family": "subexp",
                                            "beta": 0.5})
    assert main(["fframe", "--config", cfg, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command", ["gen", "dual", "expand", "fframe", "report"])
@pytest.mark.parametrize("key, value, message", [
    ("samples", 20, "unknown config field 'samples'"),
    ("level", [0], "unknown config field 'level'"),
    ("trials", "x", "bad config field 'trials'"),
])
def test_every_config_field_is_checked_by_every_subcommand(tmp_path, capsys, command, key, value, message):
    # a field the subcommand does not read is checked all the same
    cfg = write_config(tmp_path, "c.json", {"spec": SPEC, "n": 32, "seed": 1, key: value})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--no-timestamp"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert list(out.iterdir()) == []


def test_report_runs_and_is_deterministic(tmp_path):
    cfg_payload = {
        "spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}},
        "n": 48,
        "gamma": 2.0,
        "levels": [0, 1, 2],
        "trials": 50,
        "seed": 11,
    }
    cfg = write_config(tmp_path, "r.json", cfg_payload)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["report", "--config", cfg, "--out", str(out1), "--no-timestamp"]) == 0
    assert main(["report", "--config", cfg, "--out", str(out2), "--no-timestamp"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    steps = json.loads((out1 / "report.json").read_text())["steps"]
    assert steps["frame_bounds"]["status"] == "pass"
    assert steps["dual_biorthogonality"]["status"] == "pass"
    assert steps["example_inequalities"]["status"] == "pass"
    assert steps["expansion"]["status"] == "pass"
    assert steps["fframe"]["status"] == "pass"
    assert steps["weighted_norms"]["status"] == "skipped"


def test_report_incompatible_weight_rejected_not_fatal(tmp_path):
    cfg_payload = {
        "spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}},
        "n": 48,
        "levels": [0, 1],
        "trials": 20,
        "seed": 3,
        "weight": {"kind": "exponential", "gamma": 1.0},
    }
    cfg = write_config(tmp_path, "r.json", cfg_payload)
    assert main(["report", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]) == 0
    steps = json.loads((tmp_path / "report.json").read_text())["steps"]
    assert steps["weighted_norms"]["status"] == "rejected"
    assert "incompatible weight" in steps["weighted_norms"]["error"]
    assert steps["frame_bounds"]["status"] == "pass"


def test_report_weighted_norms_are_brackets(tmp_path):
    cfg = write_config(tmp_path, "r.json", {"spec": SPEC, "n": 64, "levels": [0], "seed": 3,
                                            "weight": {"kind": "subexponential", "beta": 0.5, "gamma": 1.0}})
    assert main(["report", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]) == 0
    step = json.loads((tmp_path / "report.json").read_text())["steps"]["weighted_norms"]
    assert step.pop("status") == "pass"
    assert set(step) == {"analysis", "synthesis", "frame_op", "frame_op_min"}
    for bracket in step.values():
        assert set(bracket) == {"lower", "upper"}
        assert 0 < bracket["lower"] <= bracket["upper"] < math.inf


@pytest.mark.parametrize("p", [0.5, 0])
def test_report_weighted_norms_fail_at_p_below_one(tmp_path, capsys, p):
    cfg = write_config(tmp_path, "r.json", {"spec": SPEC, "n": 64, "levels": [0], "seed": 3, "p": p,
                                            "weight": {"kind": "subexponential", "beta": 0.5, "gamma": 1.0}})
    assert main(["report", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]) == 1
    steps = json.loads((tmp_path / "report.json").read_text())["steps"]
    assert steps["weighted_norms"] == {"status": "fail", "error": "p must be in [1, inf]"}
    assert "failing steps: weighted_norms" in capsys.readouterr().err


def _sandwich_report_config(tmp_path, sigma_min):
    """Report config on Q1 diag(geomspace(2, sigma_min, 96)) Q2^T, stored as FFMX."""
    rng = np.random.default_rng(5)
    q1, _ = np.linalg.qr(rng.standard_normal((96, 96)))
    q2, _ = np.linalg.qr(rng.standard_normal((96, 96)))
    path = tmp_path / "near_singular.ffmx"
    save_matrix(path, TruncatedMatrix(q1 @ np.diag(np.geomspace(2.0, sigma_min, 96)) @ q2.T), binary=True)
    return write_config(tmp_path, "r.json", {"matrix": str(path), "levels": [0], "seed": 7})


def test_report_frame_bounds_fail_with_the_dual_when_the_lower_bound_is_noise(tmp_path):
    # sigma runs from 2 to 1e-8: lambda_min = 1e-16 lies below N eps lambda_max = 8.5e-14
    cfg = _sandwich_report_config(tmp_path, 1e-8)
    assert main(["report", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]) == 1
    steps = json.loads((tmp_path / "report.json").read_text())["steps"]
    bounds = steps["frame_bounds"]
    assert bounds["status"] == "fail"
    assert bounds["lower"] < 96 * np.finfo(float).eps * bounds["upper"]
    assert steps["dual_biorthogonality"]["status"] == "fail"
    assert "rank-deficient" in steps["dual_biorthogonality"]["error"]


def test_report_dual_of_an_ill_conditioned_system_is_biorthogonal(tmp_path):
    # sigma runs from 2 to 1e-5 (cond 2e5): the rank rule accepts the system,
    # and a dual solved from E meets the 1e-8 gate where the normal equations
    # in E^H E, with their squared condition number, miss it (4.9e-8).
    cfg = _sandwich_report_config(tmp_path, 1e-5)
    main(["report", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"])
    steps = json.loads((tmp_path / "report.json").read_text())["steps"]
    assert steps["frame_bounds"]["status"] == "pass"
    assert steps["dual_biorthogonality"]["status"] == "pass"


def test_report_forms_the_gram_once(tmp_path, monkeypatch):
    # E^H E is formed for its eigenvalues only; the dual is solved from E and
    # the weighted frame operator runs as synthesis of the analysis.
    calls = []
    gram_product = frames._gram_product

    def counting(*args):
        calls.append(args[-1])
        return gram_product(*args)

    monkeypatch.setattr(frames, "_gram_product", counting)
    cfg = write_config(tmp_path, "r.json", {"spec": SPEC, "n": 32, "levels": [0, 1], "trials": 20, "seed": 2,
                                            "weight": {"kind": "moderate", "k": 1.0}})
    assert main(["report", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]) == 0
    steps = json.loads((tmp_path / "report.json").read_text())["steps"]
    assert all(step["status"] == "pass" for step in steps.values())
    assert calls == ["the Gram matrix E^H E"]
    assert not hasattr(frames.FrameSystem, "gram")



def test_outputs_over_spans_equal_those_over_full_rows(tmp_path, monkeypatch):
    # the products and scaled-moduli passes read each block over its span of
    # non-zeros; with one full span per block they read whole rows, as before
    report = write_config(tmp_path, "report.json", {
        "spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}}, "n": 256, "gamma": 2.0,
        "levels": [0, 1, 2, 3, 4], "trials": 1000, "seed": 7,
        "weight": {"kind": "subexponential", "beta": 0.5, "gamma": 1.0}})
    n = 256
    matrix = tmp_path / "tridiag.csv"
    save_matrix(matrix, TruncatedMatrix(np.eye(n) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))))
    jaffard = write_config(tmp_path, "jaffard.json", {"matrix": str(matrix), "beta": 1.0, "gamma": math.log(1 / 0.3)})

    def run(tag):
        out = tmp_path / tag
        assert main(["report", "--config", report, "--out", str(out), "--no-timestamp"]) == 0
        assert main(["jaffard", "--config", jaffard, "--out", str(out)]) == 0
        return [(out / name).read_bytes() for name in ("report.json", "expansion.csv", "jaffard.json")]

    trimmed = run("spans")

    def full_spans(self):
        blocks = ((0, self.n),) * len(range(0, self.n, weights._ROW_BLOCK))
        return blocks, blocks

    monkeypatch.setattr(TruncatedMatrix, "spans", property(full_spans))
    assert run("full") == trimmed

def test_report_trials_and_levels_default_alike_in_every_step(tmp_path):
    base = {"spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}}, "n": 32, "seed": 2,
            "weight": {"kind": "moderate", "k": 1.0}}
    explicit = {**base, "trials": 1000, "levels": [0, 1, 2, 3, 4]}
    for name, payload in (("omitted", base), ("explicit", explicit)):
        cfg = write_config(tmp_path, name + ".json", payload)
        assert main(["report", "--config", cfg, "--out", str(tmp_path / name), "--no-timestamp"]) == 0
    for output in ("report.json", "expansion.csv"):
        assert (tmp_path / "omitted" / output).read_bytes() == (tmp_path / "explicit" / output).read_bytes()
    steps = json.loads((tmp_path / "omitted" / "report.json").read_text())["steps"]
    assert set(steps["fframe"]["intervals"]) == {"0", "1", "2", "3", "4"}


def test_report_with_timestamp_differs(tmp_path):
    cfg_payload = {
        "spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}},
        "n": 32,
        "levels": [0],
        "trials": 5,
        "seed": 1,
    }
    cfg = write_config(tmp_path, "r.json", cfg_payload)
    assert main(["report", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert "timestamp" in data


def test_report_builds_one_hermite_context(tmp_path, monkeypatch):
    built = []

    class Counting(cli.HermiteContext):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("nmax"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "HermiteContext", Counting)
    cfg_payload = {
        "spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}},
        "n": 32,
        "levels": [0, 1],
        "trials": 5,
        "seed": 2,
    }
    cfg = write_config(tmp_path, "r.json", cfg_payload)
    assert main(["report", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]) == 0
    steps = json.loads((tmp_path / "report.json").read_text())["steps"]
    assert steps["expansion"]["status"] == steps["fframe"]["status"] == "pass"
    assert built == [32]


def test_report_builds_one_perturbed_system(tmp_path, monkeypatch):
    # example_inequalities samples the system that the other steps read; it built an N x N copy of its own
    built = []
    build = frames.build_perturbed_basis

    def counting(spec, n):
        built.append(n)
        return build(spec, n)

    monkeypatch.setattr(frames, "build_perturbed_basis", counting)
    cfg = write_config(tmp_path, "r.json", dict(SMALL_REPORT, n=64))
    assert main(["report", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]) == 0
    steps = json.loads((tmp_path / "report.json").read_text())["steps"]
    assert steps["example_inequalities"]["status"] == "pass"
    assert built == [64]


SPEC = {"r": 1, "eps": [0.5], "a": {"constant": 0.5}}
SMALL_REPORT = {"spec": SPEC, "n": 32, "levels": [0], "trials": 5, "seed": 1}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("gen", {"spec": SPEC, "n": "abc"}),
        ("gen", {"spec": SPEC, "n": 32, "format": "ffmx"}),
        ("report", dict(SMALL_REPORT, n="abc")),
        ("report", dict(SMALL_REPORT, levels=["x"])),
        ("report", dict(SMALL_REPORT, trials="x")),
        ("report", dict(SMALL_REPORT, family="nope")),
        ("fframe", {"spec": SPEC, "n": 32, "seed": "x"}),
        ("fframe", {"spec": SPEC, "n": 32, "seed": 1, "levels": ["x"]}),
        ("fframe", {"spec": SPEC, "n": 32, "seed": 1, "levels": 3}),
        ("fframe", {"spec": SPEC, "n": 32, "seed": 1, "family": "nope"}),
        ("expand", {"spec": SPEC, "n": 32, "levels": ["x"]}),
        ("expand", {"spec": SPEC, "n": 32, "levels": 3}),
        ("expand", {"spec": SPEC, "n": 32, "checkpoints": [0, 999]}),
        ("expand", {"spec": SPEC, "n": 32, "family": "nope"}),
        ("schur", {"matrix": "MATRIX", "p": "x"}),
        ("jaffard", {"matrix": "MATRIX", "beta": "x", "gamma": 0.7}),
        ("jaffard", {"matrix": "MATRIX", "beta": 1.0, "gamma": 0.7, "eps_free": "x"}),
        ("dual", {"spec": SPEC, "n": 32, "margin": "x"}),
        ("dual", {"spec": SPEC, "n": 32, "poly": "false"}),
        ("report", dict(SMALL_REPORT, samples="x")),
        ("report", dict(SMALL_REPORT, p="x", weight={"kind": "moderate", "k": 1.0})),
        ("fframe", {"spec": SPEC, "n": 32.9}),
        ("report", dict(SMALL_REPORT, seed=2.5)),
        ("gen", {"spec": SPEC, "n": 32, "margin": True}),
        ("schur", {"matrix": "MATRIX", "p": True}),
        ("gen", {"spec": SPEC, "n": "32"}),
        ("schur", {"matrix": "MATRIX", "p": "2"}),
        ("schur", {"matrix": "MATRIX", "p": 10 ** 400}),
        ("gen", {"spec": SPEC, "n": math.inf}),
        ("gen", {"spec": dict(SPEC, eps=0.5), "n": 32}),
        ("gen", {"spec": dict(SPEC, a={"c": 0.5}), "n": 32}),
        ("gen", {"spec": {"r": 2, "eps": [0.1, 0.1], "a": [[0.1] * 32]}, "n": 32}),
        ("gen", {"spec": {"r": 1, "eps": [0.1], "a": [[0.1] * 32, [0.1] * 32]}, "n": 32}),
        ("fframe", {"spec": SPEC, "n": 32, "seed": 1, "levels": [True, "2"]}),
        ("fframe", {"spec": SPEC, "n": 32, "seed": 1, "levels": [0, True]}),
        ("report", dict(SMALL_REPORT, levels=["0"])),
        ("expand", {"spec": SPEC, "n": 32, "levels": [0], "checkpoints": [False, 32]}),
        ("expand", {"spec": SPEC, "n": 32, "levels": [0], "checkpoints": ["16", 32]}),
        ("fit", {"matrix": "MATRIX", "betas": [True]}),
        ("fit", {"matrix": "MATRIX", "betas": ["1.0"]}),
        ("fit", {"matrix": "MATRIX", "betas": [10 ** 400]}),
        ("fframe", {"spec": SPEC, "n": 32, "seed": 1, "levels": [math.inf]}),
        ("fframe", {"spec": SPEC, "n": 32, "seed": 1, "levels": [0, math.nan]}),
        ("expand", {"spec": SPEC, "n": 32, "levels": [-math.inf]}),
        ("expand", {"spec": SPEC, "n": 32, "levels": [0], "checkpoints": [16, math.inf]}),
        ("report", dict(SMALL_REPORT, levels=[math.inf])),
        ("report", dict(SMALL_REPORT, betas=[math.nan])),
        ("fit", {"matrix": "MATRIX", "betas": [1.0, -math.inf]}),
        ("expand", {"spec": SPEC, "n": 32, "levels": [0], "checkpoints": []}),
        ("expand", {"spec": SPEC, "n": 32, "levels": [0], "checkpoints": [2.5, 32]}),
        ("expand", {"spec": SPEC, "n": 32, "levels": []}),
        ("fframe", {"spec": SPEC, "n": 32, "levels": []}),
        ("report", dict(SMALL_REPORT, levels=[])),
        ("report", dict(SMALL_REPORT, checkpoints=[16.5])),
        ("fit", {"matrix": "MATRIX", "betas": []}),
        ("report", dict(SMALL_REPORT, weight={"kind": "bogus"})),
        ("report", dict(SMALL_REPORT, weight={"kind": "moderate", "order": 1.0})),
        ("report", dict(SMALL_REPORT, weight={"kind": "moderate", "k": "x"})),
        ("report", dict(SMALL_REPORT, weight={"kind": "moderate", "k": math.nan})),
        ("report", dict(SMALL_REPORT, weight="moderate")),
        ("report", dict(SMALL_REPORT, weight={"kind": "moderate", "k": True})),
        ("report", dict(SMALL_REPORT, weight={"kind": "moderate", "k": 1.0, "beta": "x"})),
        ("report", dict(SMALL_REPORT, weight={"kind": "moderate", "k": math.inf})),
        ("report", dict(SMALL_REPORT, weight={"kind": "moderate", "k": 10 ** 400})),
        ("fframe", {"spec": SPEC, "n": 32, "weight": {"kind": "subexponential", "beta": 0.5, "k": False}}),
        ("dual", {"spec": SPEC, "n": 32, "weight": {"kind": "bogus"}}),
        ("fframe", {"spec": SPEC, "n": 32, "weight": {"kind": "moderate", "k": "x"}}),
    ],
)
def test_malformed_config_value_exit_2(tmp_path, capsys, command, payload):
    if payload.get("matrix") == "MATRIX":
        payload = dict(payload, matrix=jaffard_csv(tmp_path, 32, 0.7))
    cfg = write_config(tmp_path, "bad.json", payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_integral_float_config_values_read_as_integers(tmp_path):
    cfg = write_config(tmp_path, "gen.json", {"spec": SPEC, "n": 32.0, "margin": 4.0, "label": "s"})
    assert main(["gen", "--config", cfg, "--out", str(tmp_path)]) == 0
    sidecar = json.loads((tmp_path / "s.csv.json").read_text())
    assert (sidecar["n"], sidecar["margin"]) == (32, 4) and type(sidecar["margin"]) is int


def test_report_byte_identical_under_one_and_two_blas_threads(tmp_path):
    # The Monte Carlo steps run as matrix-matrix products, whose work BLAS
    # splits across its threads; the report must not depend on the split.
    payload = {
        "spec": SPEC, "n": 256, "gamma": 2.0, "levels": [0, 1, 2, 3, 4], "trials": 1000, "seed": 11,
        "weight": {"kind": "subexponential", "beta": 0.5, "gamma": 1.0},
    }
    cfg = write_config(tmp_path, "r.json", payload)
    src = str(Path(cli.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "FRAME_FORGE_THREADS"}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]))
        out = tmp_path / f"threads{threads}"
        argv = [sys.executable, "-m", "frameforge.cli", "report", "--config", cfg, "--out", str(out), "--no-timestamp"]
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_report_reads_checkpoints_and_function(tmp_path):
    payload = dict(SMALL_REPORT, checkpoints=[8, 16])
    cfg = write_config(tmp_path, "r.json", payload)
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "r"), "--no-timestamp"]) == 0
    rows = (tmp_path / "r" / "expansion.csv").read_text().strip().splitlines()
    assert [row.split(",")[0] for row in rows] == ["M", "8", "16"]
    # report's expansion step and expand write the same rows for the same function
    payload["function"] = {"kind": "gaussian", "a": 1.0}
    cfg = write_config(tmp_path, "f.json", payload)
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "f"), "--no-timestamp"]) == 0
    assert main(["expand", "--config", cfg, "--out", str(tmp_path / "e")]) == 0
    written = (tmp_path / "f" / "expansion.csv").read_bytes()
    assert written == (tmp_path / "e" / "expansion.csv").read_bytes()
    assert written != (tmp_path / "r" / "expansion.csv").read_bytes()


@pytest.mark.parametrize("command", ["report", "expand"])
@pytest.mark.parametrize("checkpoints", [[0, 16], [8, 999], [16, 8]])
def test_checkpoints_outside_the_system_exit_2_and_write_nothing(tmp_path, capsys, command, checkpoints):
    cfg = write_config(tmp_path, "bad.json", dict(SMALL_REPORT, checkpoints=checkpoints))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--no-timestamp"]) == 2
    assert "checkpoints must be sorted within 1..32" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# Runs the (command, config) pairs of argv[1] in a fresh interpreter and
# checks whether scipy.special is loaded afterwards, as argv[3] says.
STARTUP_CHILD = """
import json, sys
from frameforge import cli
runs, out, loaded = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3] == "loaded"
codes = [cli.main([command, "--config", cfg, "--out", out]) for command, cfg in runs]
assert codes == [0] * len(runs), codes
assert ("scipy.special" in sys.modules) == loaded, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_subcommands_load_scipy_special_only_where_they_call_it(tmp_path):
    # importing scipy.special takes longer than gen and dual at N=1024 take
    # for their own work; only expand, jaffard and report call into it
    spec = write_config(tmp_path, "spec.json", {"spec": SPEC, "n": 32, "seed": 1, "levels": [0, 1]})
    matrix = jaffard_csv(tmp_path, 32, 0.7)
    stored = write_config(tmp_path, "m.json", {"matrix": matrix, "beta": 1.0, "gamma": 0.7})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    children = [
        ([], "absent"),
        ([("gen", spec), ("dual", spec), ("fit", stored), ("schur", stored), ("fframe", spec)], "absent"),
        ([("jaffard", stored), ("expand", spec)], "loaded"),
    ]
    for runs, loaded in children:
        argv = [sys.executable, "-c", STARTUP_CHILD, json.dumps(runs), str(tmp_path / "out"), loaded]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("gamma", [math.nan, -1.0])
def test_report_with_a_nan_or_negative_gamma_fails_the_envelope_chain(tmp_path, gamma):
    cfg = write_config(tmp_path, "r.json", dict(SMALL_REPORT, gamma=gamma))
    assert main(["report", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]) == 1
    text = (tmp_path / "report.json").read_text()
    assert json.loads(text)["steps"]["envelope_chain"] == {"status": "fail", "error": "gamma must be positive"}
    assert "nan" not in text


def test_report_with_an_infinite_gamma_fails_the_envelope_chain(tmp_path):
    # +inf passed "not gamma > 0": the step read "pass" with every constant "inf"
    cfg = write_config(tmp_path, "r.json", dict(SMALL_REPORT, gamma=math.inf))
    assert main(["report", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]) == 1
    step = json.loads((tmp_path / "report.json").read_text())["steps"]["envelope_chain"]
    assert step == {"status": "fail", "error": "gamma must be finite"}


def test_jaffard_with_an_infinite_or_huge_gamma_exit_2_naming_the_cause(tmp_path, capsys):
    # gamma = inf was reported as "gamma_prime must lie in (0, gamma)";
    # gamma = 1e308 overflowed in the envelope's exponent with a RuntimeWarning
    path = tmp_path / "band.ffmx"
    save_matrix(path, TruncatedMatrix(np.eye(64) + 0.3 * (np.eye(64, k=1) + np.eye(64, k=-1))), binary=True)
    for gamma, message in [(math.inf, "error: gamma must be finite"),
                           (1e308, "error: matrix does not satisfy the declared decay class on the window")]:
        cfg = write_config(tmp_path, "j.json", {"matrix": str(path), "beta": 1.0, "gamma": gamma})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["jaffard", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.strip() == message
        assert not (tmp_path / "out" / "jaffard.json").exists()


def test_no_envelope_evaluation_exceeds_a_block_of_rows(tmp_path, monkeypatch):
    # membership constants and the inverse-decay check evaluate the envelope
    # block by block of rows, never over the whole window at once
    cells, evaluate = [], envelopes.envelope_value

    def counting(env, m, n):
        cells.append(np.broadcast(np.asarray(m), np.asarray(n)).size)
        return evaluate(env, m, n)

    monkeypatch.setattr(envelopes, "envelope_value", counting)
    n = 512
    cfg = write_config(tmp_path, "r.json", dict(SMALL_REPORT, n=n))
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "report"), "--no-timestamp"]) == 0
    assert cells and max(cells) <= envelopes._ROW_BLOCK * n

    cells.clear()
    n = 1024
    path = tmp_path / "band.ffmx"
    save_matrix(path, TruncatedMatrix(np.eye(n) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1)), margin=64), binary=True)
    cfg = write_config(tmp_path, "j.json", {"matrix": str(path), "beta": 1.0, "gamma": math.log(1 / 0.3)})
    assert main(["jaffard", "--config", cfg, "--out", str(tmp_path / "jaffard")]) == 0
    assert cells and max(cells) <= envelopes._ROW_BLOCK * n


def _count_profile_scans(monkeypatch) -> list:
    """Patch ``TruncatedMatrix.profile`` to record the entries of every matrix it scans."""
    scanned, scan = [], TruncatedMatrix.profile.func

    def recording(self):
        scanned.append(self.entries)
        return scan(self)

    prop = cached_property(recording)
    prop.__set_name__(TruncatedMatrix, "profile")
    monkeypatch.setattr(TruncatedMatrix, "profile", prop)
    return scanned


def test_each_matrix_has_its_non_zeros_scanned_once(tmp_path, monkeypatch):
    n = 256
    e = np.eye(n) + 0.5 * np.eye(n, k=1)
    scanned = _count_profile_scans(monkeypatch)
    cfg = write_config(tmp_path, "r.json", dict(SMALL_REPORT, n=n, levels=[0, 1],
                                                 weight={"kind": "subexponential", "beta": 0.5, "gamma": 1.0}))
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "report"), "--no-timestamp"]) == 0
    assert len(scanned) == 3  # E's leading half and E in the envelope chain, then E's dual
    assert np.array_equal(scanned[0], e[: n // 2, : n // 2]) and np.array_equal(scanned[1], e)
    assert np.allclose(scanned[2], np.linalg.inv(e).T, rtol=0, atol=1e-12)

    scanned.clear()
    spec = {"r": 2, "eps": [0.3, 0.2], "a": [[[0.2, 0.1]] * n, [[0.1, -0.05]] * n]}  # complex [re, im] pairs
    gen = write_config(tmp_path, "g.json", {"spec": spec, "n": n, "label": "e"})
    assert main(["gen", "--config", gen, "--out", str(tmp_path)]) == 0
    assert scanned == []
    dual = write_config(tmp_path, "d.json", {"matrix": str(tmp_path / "e.csv")})
    assert main(["dual", "--config", dual, "--out", str(tmp_path / "dual")]) == 0
    assert len(scanned) == 1 and scanned[0][0, 1] == 0.2 + 0.1j

    scanned.clear()
    a = np.eye(n) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))
    path = tmp_path / "band.ffmx"
    save_matrix(path, TruncatedMatrix(a, margin=16), binary=True)
    jaffard = write_config(tmp_path, "j.json", {"matrix": str(path), "beta": 1.0, "gamma": math.log(1 / 0.3)})
    assert main(["jaffard", "--config", jaffard, "--out", str(tmp_path / "jaffard")]) == 0
    # A, then AA* for its membership constant, never the inverse
    assert len(scanned) == 2 and np.array_equal(scanned[0], a) and np.allclose(scanned[1], a @ a.T, rtol=0, atol=1e-15)
