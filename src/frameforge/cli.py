"""frame-forge: reproducible experiment driver.

Usage::

    frame-forge <gen|fit|schur|jaffard|dual|expand|fframe|report>
                --config <path> [--out <dir>] [--seed <u64>] [--no-timestamp]

Exit codes: 0 all checks pass, 1 verification failure, 2 invalid input,
3 I/O error.  Identical config and seed produce byte-identical JSON
output when timestamps are suppressed; randomness is drawn from per-step
streams derived from the single seed and a fixed step label.  The
environment variable ``FRAME_FORGE_THREADS`` limits BLAS threads through
``threadpoolctl``; a value that is not a positive integer, or any value
when ``threadpoolctl`` is not installed, exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import zlib
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import envelopes, frames, graded, matio
from .hermite import HermiteContext, TestFunction, project
from .weights import Weight

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2
EXIT_IO = 3

_COMMANDS = ("gen", "fit", "schur", "jaffard", "dual", "expand", "fframe", "report")


class InvalidInput(Exception):
    pass


class IOFailure(Exception):
    pass


class VerificationFailure(Exception):
    """Raised after outputs are written, to signal exit code 1."""


def step_rng(seed: int, label: str) -> np.random.Generator:
    """Deterministic per-step stream derived from one seed and a label."""
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, zlib.crc32(label.encode())])


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": _sanitize(obj.real), "im": _sanitize(obj.imag)}
    return obj


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n")


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise IOFailure(f"cannot read config {path}: {err}") from err
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise IOFailure(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise InvalidInput("config must be a JSON object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise InvalidInput(f"config is missing required field {key!r}")
    return cfg[key]


def _load_matrix(path: str) -> envelopes.TruncatedMatrix:
    try:
        return matio.load_matrix(path)
    except FileNotFoundError as err:
        raise IOFailure(f"matrix file not found: {path}") from err
    except (ValueError, OSError) as err:
        raise IOFailure(f"cannot read matrix {path}: {err}") from err


def _build_system(cfg: dict) -> tuple[frames.FrameSystem, frames.PerturbationSpec | None]:
    if "matrix" in cfg:
        mat = _load_matrix(cfg["matrix"])
        if "margin" in cfg:
            mat = envelopes.TruncatedMatrix(mat.entries, margin=int(cfg["margin"]))
        return frames.FrameSystem(mat, label=cfg.get("label", "")), None
    if "spec" in cfg:
        n = int(_require(cfg, "n"))
        if n < 16:
            raise InvalidInput("truncation n must be at least 16")
        try:
            spec = matio.parse_perturbation_spec(cfg["spec"], n)
            system, _ = frames.build_perturbed_basis(spec, n)
        except ValueError as err:
            raise InvalidInput(str(err)) from err
        if "margin" in cfg:
            system = frames.FrameSystem(
                envelopes.TruncatedMatrix(system.matrix, margin=int(cfg["margin"])),
                label=cfg.get("label", system.label),
            )
        return system, spec
    raise InvalidInput("config must provide either 'matrix' or 'spec'")


def _seed_from(cfg: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in cfg:
        return int(cfg["seed"])
    raise InvalidInput("seed required: pass --seed or put 'seed' in the config")


def cmd_gen(cfg: dict, out: Path, args) -> int:
    n = int(_require(cfg, "n"))
    if n < 16:
        raise InvalidInput("truncation n must be at least 16")
    try:
        spec = matio.parse_perturbation_spec(_require(cfg, "spec"), n)
        system, dropped = frames.build_perturbed_basis(spec, n)
    except ValueError as err:
        raise InvalidInput(str(err)) from err
    label = cfg.get("label", "system")
    if "margin" in cfg:
        system = frames.FrameSystem(
            envelopes.TruncatedMatrix(system.matrix, margin=int(cfg["margin"])), label=label
        )
    else:
        system = frames.FrameSystem(system.coeffs, label=label)
    binary = cfg.get("format", "csv") == "binary"
    path = out / (label + (".ffmx" if binary else ".csv"))
    matio.save_frame_system(path, system, binary=binary)
    print(f"wrote {path} (n={n}, dropped shift terms: {dropped})")
    return EXIT_OK


def cmd_fit(cfg: dict, out: Path, args) -> int:
    a = _load_matrix(_require(cfg, "matrix"))
    betas = cfg.get("betas", [1.0])
    margin = cfg.get("margin")
    rows = []
    for beta in betas:
        try:
            fit = envelopes.fit_decay(a, float(beta), margin=margin)
        except ValueError as err:
            raise InvalidInput(str(err)) from err
        rows.append((beta, fit.gamma, fit.c, fit.residual))
    path = out / "fit.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "gamma_fit", "c_fit", "residual"])
        for beta, g, c, resid in rows:
            writer.writerow([beta, "inf" if math.isinf(g) else repr(g), repr(c), repr(resid)])
    print(f"wrote {path}")
    return EXIT_OK


def cmd_schur(cfg: dict, out: Path, args) -> int:
    a = _load_matrix(_require(cfg, "matrix"))
    p = float(cfg.get("p", 2))
    bound = envelopes.schur_bound(a, p)
    spectral = frames.spectral_norm(a.entries)
    ok = p != 2 or bound >= spectral - 1e-10
    _write_json(
        out / "schur.json",
        {"p": p, "schur_bound": bound, "spectral_norm": spectral, "dominates_spectral": ok},
    )
    if not ok:
        raise VerificationFailure("Schur bound fell below the spectral norm")
    return EXIT_OK


def cmd_jaffard(cfg: dict, out: Path, args) -> int:
    a = _load_matrix(_require(cfg, "matrix"))
    if "margin" in cfg:
        a = envelopes.TruncatedMatrix(a.entries, margin=int(cfg["margin"]))
    beta = float(_require(cfg, "beta"))
    gamma = float(_require(cfg, "gamma"))
    try:
        report = frames.jaffard_predict(
            a,
            beta,
            gamma,
            gamma_prime=cfg.get("gamma_prime"),
            gamma_dprime=cfg.get("gamma_dprime"),
            eps_free=cfg.get("eps_free", 0.5),
        )
    except np.linalg.LinAlgError as err:
        raise InvalidInput(f"singular at truncation: {err}") from err
    except ValueError as err:
        raise InvalidInput(str(err)) from err
    check = frames.verify_inverse_decay(a, report)
    _write_json(
        out / "jaffard.json",
        {
            "report": report.to_json(),
            "violations": check.violations,
            "checked": check.checked,
            "gamma_fit_inverse": check.gamma_fit_inverse,
        },
    )
    if check.violations:
        raise VerificationFailure(f"{check.violations} inverse-decay violations")
    return EXIT_OK


def cmd_dual(cfg: dict, out: Path, args) -> int:
    system, _ = _build_system(cfg)
    poly = bool(cfg.get("poly", False))
    beta = float(cfg.get("beta", 1.0))
    try:
        rep = frames.dual_localization_check(system, beta=beta, poly=poly)
    except np.linalg.LinAlgError as err:
        raise InvalidInput(f"singular at truncation: {err}") from err
    _write_json(
        out / "dual.json",
        {
            "poly": poly,
            "beta": beta,
            "primal": {"gamma": rep.primal.gamma, "c": rep.primal.c, "residual": rep.primal.residual},
            "dual": {"gamma": rep.dual.gamma, "c": rep.dual.c, "residual": rep.dual.residual},
        },
    )
    if not rep.dual.gamma > 0:
        raise VerificationFailure("canonical dual shows no off-diagonal decay")
    return EXIT_OK


def _resolve_function(cfg: dict, n: int) -> np.ndarray:
    fdesc = cfg.get("function", {"kind": "gaussian", "a": 3.0})
    try:
        f = TestFunction.from_json(fdesc)
    except (KeyError, ValueError) as err:
        raise InvalidInput(f"bad test function descriptor: {err}") from err
    ctx = HermiteContext(nmax=n)
    return project(ctx, f, n)


def cmd_expand(cfg: dict, out: Path, args) -> int:
    system, _ = _build_system(cfg)
    family = cfg.get("family", "poly")
    beta = float(cfg.get("beta", 1.0))
    levels = cfg.get("levels", [0, 1, 2, 3, 4])
    checkpoints = cfg.get("checkpoints") or sorted({max(4, system.n // 2 ** i) for i in range(6)} | {system.n})
    coeffs = _resolve_function(cfg, system.n)
    path = out / "expansion.csv"
    final_errors = []
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M", "k", "error"])
        for k in levels:
            errs = graded.expansion_error_curve(coeffs, system, family, float(k), checkpoints, beta=beta)
            final_errors.append(errs[-1])
            for m, err in zip(checkpoints, errs):
                writer.writerow([m, k, repr(float(err))])
    print(f"wrote {path}")
    if checkpoints[-1] == system.n and any(e >= 1e-8 for e in final_errors):
        raise VerificationFailure("full expansion failed to reproduce the input")
    return EXIT_OK


def cmd_fframe(cfg: dict, out: Path, args) -> int:
    seed = _seed_from(cfg, args)
    system, _ = _build_system(cfg)
    family = cfg.get("family", "poly")
    beta = float(cfg.get("beta", 1.0))
    levels = cfg.get("levels", list(range(11)))
    count = int(cfg.get("samples", 20))
    ctx = HermiteContext(nmax=system.n)
    rng_seed = int(step_rng(seed, "fframe").integers(0, 2 ** 32))
    samples = graded.standard_sample_set(ctx, system.n, count=count, seed=rng_seed)
    intervals = {}
    ok = True
    for k in levels:
        lo, hi = graded.fframe_bounds_estimate(system, samples, family, float(k), beta=beta)
        intervals[str(k)] = {"lower": lo, "upper": hi}
        ok = ok and 0.0 < lo <= hi < math.inf
    _write_json(out / "fframe.json", {"family": family, "beta": beta, "intervals": intervals})
    if not ok:
        raise VerificationFailure("degenerate graded frame interval")
    return EXIT_OK


def _report_steps(cfg: dict, out: Path, seed: int) -> dict:
    system, spec = _build_system(cfg)
    family = cfg.get("family", "poly")
    beta = float(cfg.get("beta", 1.0))
    steps: dict = {}

    def run(name, fn):
        try:
            steps[name] = fn()
        except frames.IncompatibleWeight as err:
            steps[name] = {"status": "rejected", "error": str(err)}
        except ValueError as err:  # np.linalg.LinAlgError included
            steps[name] = {"status": "fail", "error": str(err)}

    def chain():
        rep = envelopes.check_implication_chain(system.coeffs, float(cfg.get("gamma", 2.0)))
        return {
            "status": "pass",
            "constants": {"star": rep.star, "dstar": rep.dstar, "tstar": rep.tstar},
            "diverges": {
                "star": rep.star_diverges,
                "dstar": rep.dstar_diverges,
                "tstar": rep.tstar_diverges,
            },
        }

    def schur():
        bound = envelopes.schur_bound(system.coeffs, 2)
        spectral = float(system.singular_values[0])
        ok = bound >= spectral - 1e-10
        return {
            "status": "pass" if ok else "fail",
            "schur_bound": bound,
            "spectral_norm": spectral,
        }

    def bounds():
        a, b = frames.frame_bounds(system)
        ok = 0.0 < a <= b < math.inf
        return {"status": "pass" if ok else "fail", "lower": a, "upper": b}

    def biorth():
        dual = frames.canonical_dual(system)
        gram = frames.cross_gram(dual, system).entries
        dev = float(np.max(np.abs(gram - np.eye(system.n))))
        return {"status": "pass" if dev < 1e-8 else "fail", "max_deviation": dev}

    def example():
        if spec is None:
            return {"status": "skipped", "reason": "system not built from a perturbation spec"}
        trials = int(cfg.get("trials", 1000))
        rng_seed = int(step_rng(seed, "example").integers(0, 2 ** 32))
        rep = frames.verify_example_inequalities(spec, system.n, trials, seed=rng_seed)
        return {
            "status": "pass" if rep.all_hold else "fail",
            "contraction_max": rep.contraction_max,
            "upper_max": rep.upper_max,
            "lower_min": rep.lower_min,
        }

    def expansion():
        ctx = HermiteContext(nmax=system.n)
        coeffs = project(ctx, TestFunction.gaussian(3.0), system.n)
        checkpoints = sorted({max(4, system.n // 2 ** i) for i in range(6)} | {system.n})
        levels = cfg.get("levels", [0, 1, 2, 3, 4])
        path = out / "expansion.csv"
        ok = True
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["M", "k", "error"])
            for k in levels:
                errs = graded.expansion_error_curve(
                    coeffs, system, family, float(k), checkpoints, beta=beta
                )
                ok = ok and errs[-1] < 1e-8 and np.all(np.diff(errs) <= 1e-10)
                for m, err in zip(checkpoints, errs):
                    writer.writerow([m, k, repr(float(err))])
        return {"status": "pass" if ok else "fail", "csv": path.name}

    def fframe():
        ctx = HermiteContext(nmax=system.n)
        rng_seed = int(step_rng(seed, "fframe").integers(0, 2 ** 32))
        samples = graded.standard_sample_set(ctx, system.n, count=int(cfg.get("samples", 20)), seed=rng_seed)
        intervals = {}
        ok = True
        for k in cfg.get("levels", list(range(11))):
            lo, hi = graded.fframe_bounds_estimate(system, samples, family, float(k), beta=beta)
            intervals[str(k)] = {"lower": lo, "upper": hi}
            ok = ok and 0.0 < lo <= hi < math.inf
        return {"status": "pass" if ok else "fail", "intervals": intervals}

    def weighted():
        if "weight" not in cfg:
            return {"status": "skipped", "reason": "no weight configured"}
        try:
            w = Weight(**cfg["weight"])
        except (TypeError, ValueError) as err:
            raise ValueError(f"invalid weight: {err}") from err
        rng_seed = int(step_rng(seed, "weighted").integers(0, 2 ** 32))
        rep = frames.weighted_operator_norms(
            system, w, float(cfg.get("p", 2)), trials=int(cfg.get("trials", 200)), seed=rng_seed
        )
        ok = rep.frame_op_min > 0 and math.isfinite(rep.analysis_max)
        return {
            "status": "pass" if ok else "fail",
            "analysis_max": rep.analysis_max,
            "synthesis_max": rep.synthesis_max,
            "frame_op_max": rep.frame_op_max,
            "frame_op_min": rep.frame_op_min,
        }

    run("envelope_chain", chain)
    run("schur", schur)
    run("frame_bounds", bounds)
    run("dual_biorthogonality", biorth)
    run("example_inequalities", example)
    run("expansion", expansion)
    run("fframe", fframe)
    run("weighted_norms", weighted)
    return steps


def cmd_report(cfg: dict, out: Path, args) -> int:
    seed = _seed_from(cfg, args)
    steps = _report_steps(cfg, out, seed)
    payload = {"command": "report", "seed": seed, "steps": steps}
    if not args.no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    _write_json(out / "report.json", payload)
    failed = [name for name, step in steps.items() if step.get("status") == "fail"]
    for name, step in steps.items():
        print(f"{name}: {step.get('status')}")
    if failed:
        raise VerificationFailure(f"failing steps: {', '.join(failed)}")
    return EXIT_OK


def _thread_limiter():
    """BLAS thread limit from ``FRAME_FORGE_THREADS``; applied or rejected, never ignored."""
    raw = os.environ.get("FRAME_FORGE_THREADS")
    if not raw:
        return contextlib.nullcontext()
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise InvalidInput(f"FRAME_FORGE_THREADS must be a positive integer, got {raw!r}")
    try:
        from threadpoolctl import threadpool_limits
    except ImportError as err:
        raise InvalidInput("FRAME_FORGE_THREADS is set but threadpoolctl is not installed") from err
    return threadpool_limits(limits=limit)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="frame-forge", description=__doc__)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override (u64)")
    parser.add_argument("--no-timestamp", action="store_true", help="omit timestamps from reports")
    args = parser.parse_args(argv)

    handlers = {
        "gen": cmd_gen,
        "fit": cmd_fit,
        "schur": cmd_schur,
        "jaffard": cmd_jaffard,
        "dual": cmd_dual,
        "expand": cmd_expand,
        "fframe": cmd_fframe,
        "report": cmd_report,
    }
    try:
        cfg = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with _thread_limiter():
            return handlers[args.command](cfg, out, args)
    except InvalidInput as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except IOFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except VerificationFailure as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
