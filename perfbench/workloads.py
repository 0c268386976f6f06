"""The benchmark's workloads: inputs built from a seed, one operation, its checks.

Every workload runs at N = 1024 as a closed loop with one client: the next
operation starts when the previous one has returned and been checked.  An
operation is one or two in-process ``frameforge.cli.main`` calls.  Inputs
and reference values are computed here with numpy and the standard
library, never with ``frameforge``.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

N = 1024
DIGITS_CAP = 12.0


def digits(err: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP."""
    return DIGITS_CAP if err <= 10.0 ** -DIGITS_CAP else -math.log10(err)


def rel_err(value, exact: float) -> float:
    return abs(float(value) - exact) / abs(exact)


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


class Workload:
    """One workload in a work directory.

    ``argvs`` is the list of ``cli.main`` argument lists that make one
    operation; ``outputs`` names the files every operation must reproduce
    byte for byte; ``check`` returns the problems of the latest operation.
    ``verify`` compares the outputs with references computed here and
    returns the accuracy in digits and any problems; it runs once, after
    the timed operations, because every operation's outputs equal the
    first one's.
    """

    argvs: list[list[str]]
    outputs: list[Path]

    def check(self) -> list[str]:
        raise NotImplementedError

    def verify(self) -> tuple[float, list[str]]:
        raise NotImplementedError


class ReportPerturbed(Workload):
    """``report`` on the README perturbed basis e_n = h_n + 0.5 h_{n+1}.

    Runs every module but ``matio``: the Schur step's power iteration
    (``frames.spectral_norm``), ``weights.kahan_sum`` under the weighted
    norms, six ``canonical_dual`` solves, the graded and Monte Carlo matvec
    loops and two ``HermiteContext`` builds.  The workload seed becomes the
    config ``seed``.
    """

    def __init__(self, work: Path, seed: int):
        self.out = work / "out"
        cfg = {
            "spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}},
            "n": N,
            "gamma": 2.0,
            "levels": [0, 1, 2, 3, 4],
            "trials": 1000,
            "seed": seed,
            "weight": {"kind": "subexponential", "beta": 0.5, "gamma": 1.0},
        }
        config = _write_json(work / "report.json", cfg)
        self.argvs = [["report", "--config", config, "--out", str(self.out), "--no-timestamp"]]
        self.outputs = [self.out / "report.json"]

    def _steps(self) -> dict:
        return json.loads(self.outputs[0].read_text())["steps"]

    def check(self) -> list[str]:
        return [
            f"report step {name} is {step.get('status')}"
            for name, step in self._steps().items()
            if step.get("status") != "pass"
        ]

    def verify(self) -> tuple[float, list[str]]:
        steps = self._steps()
        sigma = float(np.linalg.svd(np.eye(N) + 0.5 * np.eye(N, k=1), compute_uv=False)[0])
        return min(
            digits(rel_err(steps["schur"]["spectral_norm"], sigma)),
            digits(rel_err(steps["frame_bounds"]["upper"], sigma * sigma)),
        ), []


class JaffardTridiag(Workload):
    """``jaffard`` on I + 0.3 (S + S^T) stored as FFMX binary.

    Dominated by ``frames.jaffard_predict``: two power iterations and one
    SVD.  ``envelopes``, binary ``matio`` and ``linalg.inv`` do little;
    ``hermite``, ``graded`` and ``weights`` are not used.  The spectrum of
    the matrix has a closed form, so ``r`` and ``||AA*||`` are checked
    exactly.
    """

    BAND = 0.3

    def __init__(self, work: Path, seed: int):
        del seed  # the matrix is fixed by construction
        self.out = work / "out"
        matrix = work / "tridiag.ffmx"
        a = np.eye(N) + self.BAND * (np.eye(N, k=1) + np.eye(N, k=-1))
        matrix.write_bytes(struct.pack("<4sII4x", b"FFMX", N, 0) + a.astype("<f8").tobytes())
        _write_json(Path(str(matrix) + ".json"), {"n": N, "margin": 64, "dtype": "f64"})
        config = _write_json(
            work / "jaffard.json",
            {"matrix": str(matrix), "beta": 1.0, "gamma": math.log(1.0 / self.BAND)},
        )
        self.argvs = [["jaffard", "--config", config, "--out", str(self.out)]]
        self.outputs = [self.out / "jaffard.json"]

    def check(self) -> list[str]:
        data = json.loads(self.outputs[0].read_text())
        problems = []
        if data["violations"] != 0:
            problems.append(f"{data['violations']} inverse-decay violations")
        if not float(data["gamma_fit_inverse"]) >= float(data["report"]["gamma1_pred"]):
            problems.append("fitted inverse rate below the predicted rate")
        return problems

    def verify(self) -> tuple[float, list[str]]:
        rep = json.loads(self.outputs[0].read_text())["report"]
        # Eigenvalues of the symmetric tridiagonal Toeplitz matrix.
        lam_max = 1.0 + 2 * self.BAND * math.cos(math.pi / (N + 1))
        lam_min = 1.0 + 2 * self.BAND * math.cos(N * math.pi / (N + 1))
        return min(
            digits(rel_err(rep["norm_aas"], lam_max ** 2)),
            digits(rel_err(rep["r_contraction"], 1.0 - (lam_min / lam_max) ** 2)),
        ), []


class CsvGenDual(Workload):
    """``gen`` of a complex r=2 perturbed system as CSV, then ``dual`` on it.

    Writes and reads the matrix through ``matio`` CSV and runs
    ``canonical_dual`` on complex data (SVD and solve).  No power
    iteration, ``hermite`` or ``weights``: a change there should leave this
    workload flat.  The perturbation rows are drawn from the workload seed.
    """

    EPS = (0.36, 0.15)

    def __init__(self, work: Path, seed: int):
        self.out = work / "out"
        rng = np.random.default_rng(seed)
        rows = []
        for eps in self.EPS:
            modulus = eps * rng.uniform(0.05, 0.95, N)
            phase = rng.uniform(0.0, 2.0 * math.pi, N)
            rows.append([[float(m * math.cos(p)), float(m * math.sin(p))] for m, p in zip(modulus, phase)])
        self.rows = rows
        gen = _write_json(
            work / "gen.json",
            {"spec": {"r": 2, "eps": list(self.EPS), "a": rows}, "n": N, "margin": 64, "label": "perturbed"},
        )
        csv_path = self.out / "perturbed.csv"
        dual = _write_json(work / "dual.json", {"matrix": str(csv_path), "beta": 1.0})
        self.argvs = [
            ["gen", "--config", gen, "--out", str(self.out)],
            ["dual", "--config", dual, "--out", str(self.out)],
        ]
        self.outputs = [csv_path, self.out / "dual.json"]

    def expected(self) -> np.ndarray:
        """I + sum_i shift(a_i, i), built from the generated rows."""
        mat = np.eye(N, dtype=complex)
        for shift, row in enumerate(self.rows, start=1):
            for k in range(N - shift):
                mat[k, k + shift] = complex(*row[k])
        return mat

    def parsed(self) -> np.ndarray:
        text = self.outputs[0].read_text()
        return np.array([[complex(cell) for cell in line.split(",")] for line in text.splitlines()])

    def check(self) -> list[str]:
        dual = json.loads(self.outputs[1].read_text())["dual"]
        return [] if float(dual["gamma"]) > 0 else ["canonical dual shows no decay"]

    def verify(self) -> tuple[float, list[str]]:
        parsed, expected = self.parsed(), self.expected()
        if parsed.shape != expected.shape:
            return 0.0, [f"CSV holds a {parsed.shape} matrix, expected {expected.shape}"]
        err = float(np.max(np.abs(parsed - expected))) / float(np.max(np.abs(expected)))
        if parsed.tobytes() != expected.tobytes():
            return digits(err), ["CSV differs from the constructed matrix"]
        return digits(err), []


BUILDERS = {
    "report-perturbed-n1024": ReportPerturbed,
    "jaffard-tridiag-n1024": JaffardTridiag,
    "csv-gen-dual-n1024": CsvGenDual,
}
