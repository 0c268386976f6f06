"""frame-forge: reproducible experiment driver.

Usage::

    frame-forge <gen|fit|schur|jaffard|dual|expand|fframe|report>
                --config <path> [--out <dir>] [--seed <u64>] [--no-timestamp]

Exit codes: 0 all checks pass, 1 verification failure, 2 invalid input,
3 I/O error.  Every config field is checked before any step runs: an
unknown field, or a malformed value of any field, exits 2 whether or not
the subcommand reads it.  ``report`` writes its files only after every
step has run, so it leaves no output behind when it exits 2.
``report`` runs the same step functions as ``schur``, ``expand`` and
``fframe``, so each check has one verdict: ``expand`` fails on a
non-monotone error curve, exactly as ``report`` does.  The ``fframe``
intervals are proven Schur brackets of the graded frame bounds and draw
no random vectors.  Identical config and seed produce byte-identical JSON
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
from functools import cached_property
from pathlib import Path

import numpy as np

from . import envelopes, frames, graded, matio, weights
from .hermite import HermiteContext, TestFunction, project
from .weights import Weight

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2
EXIT_IO = 3

_REQUIRED = object()


class InvalidInput(Exception):
    pass


class IOFailure(Exception):
    pass


class VerificationFailure(Exception):
    """Raised after outputs are written, to signal exit code 1."""


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


def _write_csv(path: Path, header: list, rows) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


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


def _numbers(value) -> list:
    """A non-empty list of finite numbers, each checked as ``_real`` checks one, returned as given because outputs echo its entries."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    if not value:
        raise ValueError("expected a non-empty list")
    for x in value:
        if not math.isfinite(_real(x)):
            raise ValueError(f"expected a finite number, got {x!r}")
    return value


def _integer(value) -> int:
    """An integer, or a float with no fractional part; a boolean or a string is rejected, not converted."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _integers(value) -> list[int]:
    """A non-empty list of integers, each read by ``_integer``, so that 64.0 is 64 and 2.5 is rejected."""
    return [_integer(x) for x in _numbers(value)]


def _real(value) -> float:
    """A number as a float; a boolean or a string is rejected, not read as 0, 1 or a number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _one_of(*allowed):
    def convert(value):
        # Compared with their types, so that 0 and 1 are not taken for booleans.
        if not any(type(value) is type(a) and value == a for a in allowed):
            raise ValueError(f"expected one of {allowed}, got {value!r}")
        return value

    return convert


def _test_function(desc) -> TestFunction:
    try:
        return TestFunction.from_json(desc)
    except (AttributeError, KeyError, ValueError) as err:
        raise InvalidInput(f"bad test function descriptor: {err}") from err


# The converter of each config field, the same for every subcommand that reads it.
FIELDS = {
    "matrix": str, "spec": dict, "n": _integer, "margin": _integer, "seed": _integer, "label": str,
    "format": _one_of("csv", "binary"), "betas": _numbers, "p": _real, "beta": _real, "gamma": _real,
    "gamma_prime": _real, "gamma_dprime": _real, "eps_free": _real, "poly": _one_of(False, True),
    "family": _one_of(*weights._FAMILIES), "levels": _numbers, "checkpoints": _integers,
    "function": _test_function, "trials": _integer, "weight": lambda value: Weight(**value),
}

# The default of each key that several steps read, the same for all of them.
DEFAULTS = {"levels": (0, 1, 2, 3, 4)}


class Invocation:
    """One run of a subcommand: its config, output directory and arguments.

    Config fields are read through ``get``, the one place that turns a
    missing or malformed value into ``InvalidInput``.  The inputs that
    several steps share (the frame system, the seed and the Hermite
    context) are built on first use, once per invocation.
    """

    def __init__(self, cfg: dict, out: Path, args: argparse.Namespace):
        self.cfg, self.out, self.args = cfg, out, args

    def get(self, key: str, default=_REQUIRED):
        """Field ``key`` passed through its converter in ``FIELDS``; when absent, its ``DEFAULTS`` entry or ``default``."""
        if key not in self.cfg:
            default = DEFAULTS.get(key, default)
            if default is _REQUIRED:
                raise InvalidInput(f"config is missing required field {key!r}")
            return default
        try:
            return FIELDS[key](self.cfg[key])
        except (TypeError, ValueError, OverflowError) as err:  # OverflowError: an integer past the float range
            raise InvalidInput(f"bad config field {key!r}: {err}") from err

    def check_fields(self) -> None:
        """Reject a key that is not in ``FIELDS``, and pass every present value through its converter."""
        for key in self.cfg:
            if key not in FIELDS:
                raise InvalidInput(f"unknown config field {key!r}")
            self.get(key)

    def _with_margin(self, a: envelopes.TruncatedMatrix) -> envelopes.TruncatedMatrix:
        if "margin" not in self.cfg:
            return a
        return envelopes.TruncatedMatrix(a.entries, margin=self.get("margin"))

    @cached_property
    def matrix(self) -> envelopes.TruncatedMatrix:
        """The required stored ``matrix``, with the ``margin`` override."""
        path = self.get("matrix")
        try:
            a = matio.load_matrix(path)
        except FileNotFoundError as err:
            raise IOFailure(f"matrix file not found: {path}") from err
        except (ValueError, OSError) as err:
            raise IOFailure(f"cannot read matrix {path}: {err}") from err
        return self._with_margin(a)

    @cached_property
    def perturbed(self) -> tuple[frames.PerturbationSpec, frames.FrameSystem, int]:
        """The required ``spec`` at truncation ``n``, its system and the dropped shift terms."""
        n = self.get("n")
        if n < 16:
            raise InvalidInput("truncation n must be at least 16")
        spec = matio.parse_perturbation_spec(self.get("spec"), n)
        system, dropped = frames.build_perturbed_basis(spec, n)
        return spec, frames.FrameSystem(self._with_margin(system.coeffs)), dropped

    @cached_property
    def system(self) -> frames.FrameSystem:
        if "matrix" in self.cfg:
            return frames.FrameSystem(self.matrix)
        if "spec" in self.cfg:
            return self.perturbed[1]
        raise InvalidInput("config must provide either 'matrix' or 'spec'")

    @cached_property
    def seed(self) -> int:
        if self.args.seed is not None:
            return self.args.seed
        if "seed" not in self.cfg:
            raise InvalidInput("seed required: pass --seed or put 'seed' in the config")
        return self.get("seed")

    def step_seed(self, label: str) -> int:
        """Seed for one step, drawn from a stream fixed by the run's seed and the step label."""
        rng = np.random.default_rng([self.seed & 0xFFFFFFFFFFFFFFFF, zlib.crc32(label.encode())])
        return int(rng.integers(0, 2 ** 32))

    def grading(self) -> tuple[str, float]:
        """The graded-norm ``family`` and its ``beta``."""
        return self.get("family", "poly"), self.get("beta", 1.0)


def _result(ok, **values) -> dict:
    """A step's dict; a step that raises ValueError failed, one that raises InvalidInput exits 2."""
    return {"status": "pass" if ok else "fail", **values}


def step_envelope_chain(inv: Invocation) -> dict:
    rep = envelopes.check_implication_chain(inv.system.coeffs, inv.get("gamma", 2.0))
    constants = {"star": rep.star, "dstar": rep.dstar, "tstar": rep.tstar}
    diverges = {"star": rep.star_diverges, "dstar": rep.dstar_diverges, "tstar": rep.tstar_diverges}
    return _result(True, constants=constants, diverges=diverges)


def step_schur(inv: Invocation, p: float = 2.0) -> dict:
    """Schur bound against sigma_max; at p = 2 the bound must dominate it."""
    bound = envelopes.schur_bound(inv.system.coeffs, p)
    spectral = math.sqrt(frames.frame_bounds(inv.system)[1])  # sigma_max^2 is the upper frame bound
    return _result(p != 2 or bound >= spectral - 1e-10, schur_bound=bound, spectral_norm=spectral)


def step_frame_bounds(inv: Invocation) -> dict:
    """Frame bounds; they pass only under the dual's rank rule, so a lower bound that is noise fails.

    Beside them, the proven ends lambda_min_lower <= lambda_min and
    lambda_max_upper >= lambda_max of the exact E^H E, or None (null) for an
    E whose Gram eigenvalues come from ``eigvalsh``.
    """
    a, b = frames.frame_bounds(inv.system)
    lam_min, lam_max, lower, upper = inv.system.gram_extremes
    return _result(frames._full_rank(lam_min, lam_max, inv.system.n), lower=a, upper=b,
                   lambda_min_lower=lower, lambda_max_upper=upper)


def step_dual_biorthogonality(inv: Invocation) -> dict:
    system = inv.system
    gram = frames.cross_gram(frames.canonical_dual(system), system).entries
    gram.flat[:: system.n + 1] -= 1.0  # the deviation from the identity, in place
    dev = float(np.max(np.abs(gram, out=gram.real)))  # the moduli in place too: a real Gram needs no N x N temporary
    return _result(dev < 1e-8, max_deviation=dev)


def step_example_inequalities(inv: Invocation) -> dict:
    if "matrix" in inv.cfg:
        return {"status": "skipped", "reason": "system not built from a perturbation spec"}
    trials = inv.get("trials", 1000)
    spec, system, _ = inv.perturbed
    rep = frames.verify_example_inequalities(spec, system.n, trials, seed=inv.step_seed("example"), system=system)
    return _result(rep.all_hold, contraction_max=rep.contraction_max, upper_max=rep.upper_max,
                   lower_min=rep.lower_min)


def step_expansion(inv: Invocation) -> dict:
    """Expansion error curves of the config's ``function``, one per level, as the ``rows`` of ``expansion.csv``.

    ``function`` defaults to exp(-3x^2/2) and ``checkpoints`` to N/32, ...,
    N/2, N (at least 4); checkpoints that are not sorted within 1..N are
    invalid input.  A curve passes when it is non-increasing and, if its
    last checkpoint is N, ends below 1e-8 (finite-rank exactness).  The
    caller writes the rows with ``_write_expansion``, which takes them out
    of the result, after any later step that may reject the config.
    """
    system = inv.system
    family, beta = inv.grading()
    levels = inv.get("levels")
    checkpoints = inv.get("checkpoints", None)
    if checkpoints is None:
        checkpoints = sorted({max(4, system.n // 2 ** i) for i in range(6)} | {system.n})
    elif checkpoints != sorted(checkpoints) or not 1 <= checkpoints[0] <= checkpoints[-1] <= system.n:
        raise InvalidInput(f"checkpoints must be sorted within 1..{system.n}")
    # the q x N Hermite table lives for this projection only, not through the later steps
    coeffs = project(HermiteContext(nmax=system.n), inv.get("function", TestFunction.gaussian(3.0)), system.n)
    curves = [(k, graded.expansion_error_curve(coeffs, system, family, float(k), checkpoints, beta=beta))
              for k in levels]
    rows = [[m, k, repr(float(err))] for k, errs in curves for m, err in zip(checkpoints, errs)]
    exact = checkpoints[-1] != system.n or all(errs[-1] < 1e-8 for _, errs in curves)
    ok = exact and all(np.all(np.diff(errs) <= 1e-10) for _, errs in curves)
    return _result(ok, csv="expansion.csv", rows=rows)


def _write_expansion(inv: Invocation, step: dict) -> Path:
    return _write_csv(inv.out / step["csv"], ["M", "k", "error"], step.pop("rows"))


def step_fframe(inv: Invocation) -> dict:
    """Proven graded frame bounds per level; the frame inequality holds where they are positive and finite."""
    family, beta = inv.grading()
    intervals = {}
    for k in inv.get("levels"):
        lo, hi = graded.fframe_bounds(inv.system, family, float(k), beta=beta)
        intervals[str(k)] = {"lower": lo, "upper": hi}
    ok = all(0.0 < iv["lower"] <= iv["upper"] < math.inf for iv in intervals.values())
    return _result(ok, intervals=intervals)


def step_weighted_norms(inv: Invocation) -> dict:
    """Brackets of the weighted operator norms; bounded needs finite upper ends, invertible a positive lower one."""
    w = inv.get("weight", None)
    if w is None:
        return {"status": "skipped", "reason": "no weight configured"}
    rep = frames.weighted_operator_norms(inv.system, w, inv.get("p", 2.0))
    brackets = {name: {"lower": lo, "upper": hi} for name, (lo, hi) in vars(rep).items()}
    ok = rep.frame_op_min[0] > 0 and all(math.isfinite(hi) for _, hi in (rep.analysis, rep.synthesis, rep.frame_op))
    return _result(ok, **brackets)


# The Schur step runs at its default p = 2 here: in a report config
# ``p`` is the exponent of the weighted norms.
REPORT_STEPS = {
    "envelope_chain": step_envelope_chain, "schur": step_schur, "frame_bounds": step_frame_bounds,
    "dual_biorthogonality": step_dual_biorthogonality, "example_inequalities": step_example_inequalities,
    "expansion": step_expansion, "fframe": step_fframe, "weighted_norms": step_weighted_norms,
}


def cmd_gen(inv: Invocation) -> None:
    _, system, dropped = inv.perturbed
    label = inv.get("label", "system")
    binary = inv.get("format", "csv") == "binary"
    path = inv.out / (label + (".ffmx" if binary else ".csv"))
    matio.save_frame_system(path, frames.FrameSystem(system.coeffs, label=label), binary=binary)
    print(f"wrote {path} (n={system.n}, dropped shift terms: {dropped})")


def cmd_fit(inv: Invocation) -> None:
    a = inv.matrix
    # Every beta is fitted before fit.csv is opened: a failed fit leaves no file.
    fits = [(beta, envelopes.fit_decay(a, float(beta))) for beta in inv.get("betas", [1.0])]
    rows = [[b, "inf" if math.isinf(f.gamma) else repr(f.gamma), repr(f.c), repr(f.residual)] for b, f in fits]
    path = _write_csv(inv.out / "fit.csv", ["beta", "gamma_fit", "c_fit", "residual"], rows)
    print(f"wrote {path}")


def cmd_schur(inv: Invocation) -> None:
    inv.matrix  # schur reads a stored matrix, never a spec
    p = inv.get("p", 2.0)
    step = step_schur(inv, p)
    ok = step.pop("status") == "pass"
    _write_json(inv.out / "schur.json", {"p": p, "dominates_spectral": ok, **step})
    if not ok:
        raise VerificationFailure("Schur bound fell below the spectral norm")


def cmd_jaffard(inv: Invocation) -> None:
    a = inv.matrix
    report = frames.jaffard_predict(
        a, inv.get("beta"), inv.get("gamma"), gamma_prime=inv.get("gamma_prime", None),
        gamma_dprime=inv.get("gamma_dprime", None), eps_free=inv.get("eps_free", 0.5),
    )
    check = frames.verify_inverse_decay(a, report)
    _write_json(inv.out / "jaffard.json", {
        "report": report.to_json(), "violations": check.violations,
        "checked": check.checked, "gamma_fit_inverse": check.gamma_fit_inverse,
    })
    if check.violations:
        raise VerificationFailure(f"{check.violations} inverse-decay violations")


def cmd_dual(inv: Invocation) -> None:
    system = inv.system
    poly, beta = inv.get("poly", False), inv.get("beta", 1.0)
    rep = frames.dual_localization_check(system, beta=beta, poly=poly)
    _write_json(inv.out / "dual.json", {
        "poly": poly, "beta": beta,
        "primal": {"gamma": rep.primal.gamma, "c": rep.primal.c, "residual": rep.primal.residual},
        "dual": {"gamma": rep.dual.gamma, "c": rep.dual.c, "residual": rep.dual.residual},
    })
    if not rep.dual.gamma > 0:
        raise VerificationFailure("canonical dual shows no off-diagonal decay")


def cmd_expand(inv: Invocation) -> None:
    step = step_expansion(inv)
    print(f"wrote {_write_expansion(inv, step)}")
    if step["status"] != "pass":
        raise VerificationFailure("expansion errors grew, or the full expansion failed to reproduce the input")


def cmd_fframe(inv: Invocation) -> None:
    step = step_fframe(inv)
    family, beta = inv.grading()
    _write_json(inv.out / "fframe.json", {"family": family, "beta": beta, "intervals": step["intervals"]})
    if step["status"] != "pass":
        raise VerificationFailure("degenerate graded frame interval")


def cmd_report(inv: Invocation) -> None:
    seed, _ = inv.seed, inv.system  # a bad seed or system is invalid input, not a failing step
    steps: dict = {}
    for name, step in REPORT_STEPS.items():
        try:
            steps[name] = step(inv)
        except frames.IncompatibleWeight as err:
            steps[name] = {"status": "rejected", "error": str(err)}
        except ValueError as err:  # np.linalg.LinAlgError included
            steps[name] = {"status": "fail", "error": str(err)}
    if "rows" in steps["expansion"]:  # absent when the step failed
        _write_expansion(inv, steps["expansion"])
    payload = {"command": "report", "seed": seed, "steps": steps}
    if not inv.args.no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    _write_json(inv.out / "report.json", payload)
    failed = [name for name, step in steps.items() if step.get("status") == "fail"]
    for name, step in steps.items():
        print(f"{name}: {step.get('status')}")
    if failed:
        raise VerificationFailure(f"failing steps: {', '.join(failed)}")


_COMMANDS = {
    "gen": cmd_gen, "fit": cmd_fit, "schur": cmd_schur, "jaffard": cmd_jaffard,
    "dual": cmd_dual, "expand": cmd_expand, "fframe": cmd_fframe, "report": cmd_report,
}


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

    try:
        inv = Invocation(_load_config(args.config), Path(args.out), args)
        inv.out.mkdir(parents=True, exist_ok=True)
        inv.check_fields()
        with _thread_limiter():
            _COMMANDS[args.command](inv)
        return EXIT_OK
    except np.linalg.LinAlgError as err:
        print(f"error: singular at truncation: {err}", file=sys.stderr)
        return EXIT_INVALID
    except (InvalidInput, ValueError) as err:  # a ValueError here is a rejected config value
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except (IOFailure, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except VerificationFailure as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
