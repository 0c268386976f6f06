"""frame-forge benchmark: end-to-end and per-layer metrics of CLI runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` as it stands, nothing is installed.  Each workload runs in one
child process (``worker.py``) with BLAS threads pinned through
``OPENBLAS_NUM_THREADS``.  Set-up time is also sampled by further children
that only import ``frameforge.cli``.  The metric names and units come
from ``BENCHMARK.json``: with ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` half of the measured time runs untraced and
half traced, and the per-layer metrics come from the traced half
(``trace.overhead_s`` is the difference of the two medians).

Output: a ``# run`` provenance line, one line per metric, and as the last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Children that only import frameforge.cli, on top of the worker's own import.
SETUP_PROBES = 4
# BLAS threads per worker, capped at nproc.  A fixed count keeps runs on hosts
# with more cores comparable; 2 is OpenBLAS's own default on a 2-core host.
BLAS_THREADS = 2
DEADLINE_S = 170.0
WORKLOAD_NAMES = (
    "report-perturbed-n1024",
    "jaffard-tridiag-n1024",
    "csv-gen-dual-n1024",
)


class BenchError(Exception):
    pass


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def run_child(args: list[str], env: dict, root: Path, timeout: float) -> dict:
    """Run worker.py with ``args`` and return the JSON of its last stdout line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawned-at", repr(time.monotonic()), *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")


def measure(root: Path, spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the metrics named in ``spec``."""
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    env = child_env(root, threads)
    started = time.monotonic()
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_child(["--setup-only"], env, root, 60.0)["setup_s"])
    work = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        res = run_child(
            ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace)), "--work", str(work)],
            env, root, DEADLINE_S - (time.monotonic() - started),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # succeeds only once no other run uses it
    setups.append(res["setup_s"])
    header = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "openblas_num_threads": threads,
        "commit": git_commit(root),
        **res["provenance"],
    }
    print("# run " + json.dumps(header, sort_keys=True))
    if res["problems"]:
        print("# problems " + json.dumps(res["problems"]))

    if trace:
        names = spec["per_layer"]
        per_op = res["per_op"]
        values = {
            m["name"]: statistics.median(op.get(m["name"], 0) for op in per_op) for m in names
        }
        values["trace.overhead_s"] = statistics.median(res["traced_walls"]) - statistics.median(res["op_walls"])
        note = f"median of {len(per_op)} traced ops"
    else:
        names = spec["end_to_end"]
        values = {
            "op_s.p50": statistics.median(res["op_walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "accuracy_digits": res["accuracy_digits"],
            "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        note = f"{len(res['op_walls'])} timed ops, {len(setups)} set-ups"
    metrics = {}
    for m in names:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} is named in BENCHMARK.json but not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        count = f"  (median of {len(res['op_walls'])} ops)" if m["name"] == "op_s.p50" else ""
        print(f"{workload}  {m['name']:<42} {values[m['name']]:>14.6g} {m['unit']}{count}")
    print(f"# {note}; op walls: " + " ".join(f"{w:.4f}" for w in res["op_walls"]))
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "frameforge" / "cli.py").is_file():
        print("error: run from the root of a frame-forge checkout (src/frameforge not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {w: measure(root, spec, w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
