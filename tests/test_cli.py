import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frameforge import cli, frames
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
    rcfg = write_config(tmp_path, "r.json", {"matrix": mat, "p": 2, "levels": [0], "samples": 3, "seed": 1})
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
        "report": {"spec": SPEC, "n": n, "gamma": 2.0, "levels": [0, 1], "trials": 50, "samples": 5, "seed": 3,
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
            "trials": 20, "samples": 5, "seed": 5}
    cfg = write_config(tmp_path, "base.json", base)
    assert main(["expand", "--config", cfg, "--out", str(tmp_path / "e")]) == 0
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "r"), "--no-timestamp"]) == 0
    expanded = (tmp_path / "e" / "expansion.csv").read_bytes()
    assert expanded == (tmp_path / "r" / "expansion.csv").read_bytes()


def test_fframe_command_requires_seed(tmp_path):
    base = {"spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}}, "n": 32, "levels": [0, 1], "trials": 5}
    cfg = write_config(tmp_path, "f.json", base)
    assert main(["fframe", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert main(["fframe", "--config", cfg, "--out", str(tmp_path), "--seed", "7"]) == 0
    data = json.loads((tmp_path / "fframe.json").read_text())
    assert set(data["intervals"]) == {"0", "1"}
    for iv in data["intervals"].values():
        assert 0 < iv["lower"] <= iv["upper"]

    # report's fframe step draws the same samples from the same seed
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "r"), "--seed", "7", "--no-timestamp"]) == 0
    steps = json.loads((tmp_path / "r" / "report.json").read_text())["steps"]
    assert steps["fframe"]["intervals"] == data["intervals"]


def test_report_runs_and_is_deterministic(tmp_path):
    cfg_payload = {
        "spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}},
        "n": 48,
        "gamma": 2.0,
        "levels": [0, 1, 2],
        "trials": 50,
        "samples": 10,
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
        "samples": 5,
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
    cfg = write_config(tmp_path, "r.json", {"spec": SPEC, "n": 64, "levels": [0], "samples": 3, "seed": 3,
                                            "weight": {"kind": "subexponential", "beta": 0.5, "gamma": 1.0}})
    assert main(["report", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]) == 0
    step = json.loads((tmp_path / "report.json").read_text())["steps"]["weighted_norms"]
    assert step.pop("status") == "pass"
    assert set(step) == {"analysis", "synthesis", "frame_op", "frame_op_min"}
    for bracket in step.values():
        assert set(bracket) == {"lower", "upper"}
        assert 0 < bracket["lower"] <= bracket["upper"] < math.inf


def _sandwich_report_config(tmp_path, sigma_min):
    """Report config on Q1 diag(geomspace(2, sigma_min, 96)) Q2^T, stored as FFMX."""
    rng = np.random.default_rng(5)
    q1, _ = np.linalg.qr(rng.standard_normal((96, 96)))
    q2, _ = np.linalg.qr(rng.standard_normal((96, 96)))
    path = tmp_path / "near_singular.ffmx"
    save_matrix(path, TruncatedMatrix(q1 @ np.diag(np.geomspace(2.0, sigma_min, 96)) @ q2.T), binary=True)
    return write_config(tmp_path, "r.json", {"matrix": str(path), "levels": [0], "samples": 3, "seed": 7})


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
    cfg = write_config(tmp_path, "r.json", {"spec": SPEC, "n": 32, "levels": [0, 1], "trials": 20, "samples": 3,
                                            "seed": 2, "weight": {"kind": "moderate", "k": 1.0}})
    assert main(["report", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]) == 0
    steps = json.loads((tmp_path / "report.json").read_text())["steps"]
    assert all(step["status"] == "pass" for step in steps.values())
    assert calls == ["the Gram matrix E^H E"]
    assert not hasattr(frames.FrameSystem, "gram")


def test_report_trials_and_levels_default_alike_in_every_step(tmp_path):
    base = {"spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}}, "n": 32, "samples": 3, "seed": 2,
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
        "samples": 3,
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
        "samples": 3,
        "seed": 2,
    }
    cfg = write_config(tmp_path, "r.json", cfg_payload)
    assert main(["report", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]) == 0
    steps = json.loads((tmp_path / "report.json").read_text())["steps"]
    assert steps["expansion"]["status"] == steps["fframe"]["status"] == "pass"
    assert built == [32]


SPEC = {"r": 1, "eps": [0.5], "a": {"constant": 0.5}}
SMALL_REPORT = {"spec": SPEC, "n": 32, "levels": [0], "trials": 5, "samples": 3, "seed": 1}


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
        ("gen", {"spec": dict(SPEC, eps=0.5), "n": 32}),
        ("gen", {"spec": dict(SPEC, a={"c": 0.5}), "n": 32}),
        ("gen", {"spec": {"r": 2, "eps": [0.1, 0.1], "a": [[0.1] * 32]}, "n": 32}),
        ("gen", {"spec": {"r": 1, "eps": [0.1], "a": [[0.1] * 32, [0.1] * 32]}, "n": 32}),
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
