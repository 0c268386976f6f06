"""One benchmark run in its own process.

The process imports ``frameforge.cli`` before anything else, so the set-up
time it reports is what a CLI user pays.  It then builds the workload's
inputs from the seed, runs one warm-up operation, and runs operations in a
closed loop with one client for the given number of seconds.  With
``--trace 1`` the second half of the loop runs under the span tracer.  The
last line of standard output is one JSON object with the raw results;
``run.py`` turns them into metrics.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --spawned-at MONOTONIC --work DIR
    python3 perfbench/worker.py --setup-only --spawned-at MONOTONIC
"""

import time

import frameforge.cli  # imported first: its cost is the set-up every CLI user pays

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer, leftover_wrappers  # noqa: E402
from workloads import BUILDERS, file_digest  # noqa: E402

MODULES = ("cli", "frames", "envelopes", "weights", "graded", "hermite", "matio")
LAYERS = (*MODULES, "linalg")
# Candidate names of the OpenBLAS thread query, plain and as numpy's wheels export it.
_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def provenance() -> dict:
    """Interpreter and library versions, the BLAS vendor and version from
    numpy's build config, and the thread count the loaded OpenBLAS reports
    (None when it cannot be queried)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with contextlib.suppress(OSError, IndexError):
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        lib = ctypes.CDLL(sorted(libs)[0])
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


class Runner:
    """Runs and checks operations of one workload."""

    def __init__(self, workload):
        self.workload = workload
        self.digests = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self) -> float:
        """Run one operation, check it, and return its wall seconds."""
        wall = 0.0
        problems = []
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in self.workload.argvs:
                    start = time.perf_counter()
                    code = frameforge.cli.main(argv)
                    wall += time.perf_counter() - start
                    if code != 0:
                        problems.append(f"{argv[0]} exited {code}: {sink.getvalue().strip()[-300:]}")
            if not problems:
                problems += self.workload.check()
                digests = [file_digest(p) for p in self.workload.outputs]
                if self.digests is None:
                    self.digests = digests
                elif digests != self.digests:
                    problems.append("outputs differ from the first operation's")
        except Exception:  # a crash is a failed operation; the loop keeps going
            problems.append(traceback.format_exc(limit=3))
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return wall

    def loop(self, seconds: float, after_op=None) -> list[float]:
        """Closed loop with one client: at least one operation, and no new
        one that the last one's duration says would end past ``seconds``.
        ``after_op(wall)`` runs after each operation."""
        walls = []
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() + walls[-1] <= deadline:
            walls.append(self.op())
            if after_op is not None:
                after_op(walls[-1])
        return walls


def span_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-operation numbers from one traced operation's spans."""
    out = dict(tracer.counters)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for layer in LAYERS:
        out[f"{layer}.calls"] = out[f"{layer}.raised"] = 0
    for name, rec in tracer.stats.items():
        layer = name.split(".", 1)[0]
        out[f"{name}.calls"] = rec.calls
        out[f"{name}.s"] = rec.total_s
        out[f"{name}.self_s"] = rec.self_s
        out[f"{layer}.calls"] += rec.calls
        out[f"{layer}.raised"] += rec.raised
        layer_self[layer] += rec.self_s
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    out["trace.unattributed_s"] = wall - sum(layer_self.values())
    return out


def traced_loop(runner: Runner, seconds: float) -> tuple[list[float], list[dict]]:
    modules = [importlib.import_module(f"frameforge.{m}") for m in MODULES]
    linalg = [n for n in np.linalg.__all__ if callable(getattr(np.linalg, n)) and n != "LinAlgError"]
    tracer = Tracer()
    per_op = []

    def collect(wall):
        per_op.append(span_metrics(tracer, wall))
        tracer.reset()

    with tracer.installed(modules, "frameforge", extra=[(np.linalg, "linalg", linalg)]):
        walls = runner.loop(seconds, after_op=collect)
    leftover = leftover_wrappers([*modules, frameforge, np.linalg])
    if leftover:
        raise RuntimeError(f"tracer wrappers left in place: {leftover}")
    return walls, per_op


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = _parse(argv)
    setup_s = IMPORTED_AT - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    work = Path(args.work)
    workload = BUILDERS[args.workload](work, args.seed)
    runner = Runner(workload)
    runner.op()  # warm-up: first-call costs (e.g. the first complex SVD) are not timed
    if args.trace:
        walls = runner.loop(args.seconds / 2)
        traced_walls, per_op = traced_loop(runner, args.seconds / 2)
    else:
        walls = runner.loop(args.seconds)
        traced_walls, per_op = [], []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    accuracy, problems = workload.verify()
    if problems:  # every operation reproduced these outputs, so every one fails
        runner.failed = runner.attempted
        runner.problems += problems
    result = {
        "setup_s": setup_s,
        "provenance": provenance(),
        "op_walls": walls,
        "traced_walls": traced_walls,
        "per_op": per_op,
        "peak_rss_mb": peak_rss_mb,
        "accuracy_digits": accuracy,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:5],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
