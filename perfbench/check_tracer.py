"""Tests of the benchmark's own code: span arithmetic, patching, run accounting.

Not collected by a plain ``pytest`` run; run them with

    PYTHONPATH=src python3 -m pytest -q perfbench/check_tracer.py
"""

import importlib
import json

import numpy as np
import pytest

import frameforge
from frameforge import cli, envelopes, frames, graded
from tracer import SpanStats, Tracer, leftover_wrappers
from worker import LAYERS, MODULES, Runner, span_metrics
from workloads import DIGITS_CAP, digits


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _modules():
    return [importlib.import_module(f"frameforge.{m}") for m in MODULES]


def _owners():
    return [*_modules(), frameforge, np.linalg]


def test_self_time_excludes_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        w_inner()
        clock.now += 3.0
        w_inner()

    w_inner = tracer.wrap("m.inner", inner)
    w_outer = tracer.wrap("m.outer", outer)
    w_outer()
    assert tracer.stats["m.outer"] == SpanStats(calls=1, total_s=8.0, self_s=4.0, raised=0)
    assert tracer.stats["m.inner"] == SpanStats(calls=2, total_s=4.0, self_s=4.0, raised=0)
    assert sum(s.self_s for s in tracer.stats.values()) == tracer.stats["m.outer"].total_s


def test_wrapper_passes_values_and_exceptions_through():
    clock = FakeClock()
    tracer = Tracer(clock)
    marker = object()

    def ok(x, *, y):
        return (x, y)

    def bad():
        clock.now += 5.0
        raise KeyError("boom")

    w_ok, w_bad = tracer.wrap("m.ok", ok), tracer.wrap("m.bad", bad)
    assert w_ok(marker, y=3) == (marker, 3)
    with pytest.raises(KeyError, match="boom"):
        w_bad()
    assert tracer.stats["m.bad"].raised == 1
    # The stack unwound: the next span is a root span again.
    w_outer = tracer.wrap("m.outer", lambda: w_ok(1, y=2))
    clock.now += 1.0
    w_outer()
    assert tracer.stats["m.outer"].self_s == tracer.stats["m.outer"].total_s
    assert w_ok.__name__ == "ok"


def test_every_binding_is_patched_and_restored():
    originals = {
        "analysis": frames.analysis,
        "canonical_dual": frames.canonical_dual,
        "spectral_norm": frames.spectral_norm,
        "init": frames.FrameSystem.__init__,
        "svd": np.linalg.svd,
    }
    tracer = Tracer()
    with tracer.installed(_modules(), "frameforge", extra=[(np.linalg, "linalg", ["svd", "solve"])]):
        # Imported by name into graded and re-exported by the package.
        assert graded.analysis is frames.analysis is frameforge.analysis
        assert graded.analysis is not originals["analysis"]
        assert graded.canonical_dual is not originals["canonical_dual"]
        assert frames.spectral_norm is not originals["spectral_norm"]
        assert frames.FrameSystem.__init__ is not originals["init"]
        system, _ = frames.build_perturbed_basis(frames.PerturbationSpec.constant([0.5], n=16), 16)
        graded.expansion_error_curve(np.ones(16), system, "poly", 1.0, [4, 16])
        frames.spectral_norm(system.matrix)
    stats = tracer.stats
    assert stats["graded.expansion_error_curve"].calls == 1
    assert stats["frames.canonical_dual"].calls == 1
    assert stats["frames.analysis"].calls == 1
    assert stats["frames.spectral_norm"].calls == 1
    assert stats["frames.FrameSystem"].calls >= 2
    assert stats["linalg.solve"].calls == 1
    curve = stats["graded.expansion_error_curve"]
    assert curve.self_s < curve.total_s
    assert leftover_wrappers(_owners()) == []
    assert graded.analysis is frames.analysis is frameforge.analysis is originals["analysis"]
    assert frames.spectral_norm is originals["spectral_norm"]
    assert frames.FrameSystem.__init__ is originals["init"]
    assert np.linalg.svd is originals["svd"]


def test_wrappers_removed_when_the_traced_block_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(_modules(), "frameforge"):
            raise RuntimeError("stop")
    assert leftover_wrappers(_owners()) == []


def test_traced_cli_output_and_errors_match_untraced(tmp_path):
    cfg = tmp_path / "report.json"
    cfg.write_text(json.dumps({
        "spec": {"r": 1, "eps": [0.5], "a": {"constant": 0.5}}, "n": 32, "gamma": 2.0,
        "levels": [0, 1], "trials": 20, "seed": 3,
        "weight": {"kind": "subexponential", "beta": 0.5, "gamma": 1.0},
    }))
    banded = envelopes.TruncatedMatrix(np.eye(32) + 0.5 * np.eye(32, k=1))

    def run(out):
        code = cli.main(["report", "--config", str(cfg), "--out", str(out), "--no-timestamp"])
        with pytest.raises(ValueError) as err:
            envelopes.fit_decay(banded, 1.0)
        return code, (out / "report.json").read_bytes(), str(err.value)

    plain = run(tmp_path / "plain")
    tracer = Tracer()
    with tracer.installed(_modules(), "frameforge", extra=[(np.linalg, "linalg", ["svd", "solve", "norm"])]):
        traced = run(tmp_path / "traced")
    assert traced == plain
    assert tracer.stats["envelopes.fit_decay"].raised >= 1
    assert tracer.stats["cli.main"].calls == 1


def test_span_metrics_sum_layers_and_unattributed_time():
    tracer = Tracer()
    tracer.stats = {
        "cli.main": SpanStats(calls=1, total_s=10.0, self_s=1.0),
        "frames.spectral_norm": SpanStats(calls=2, total_s=6.0, self_s=4.0),
        "linalg.norm": SpanStats(calls=5, total_s=2.0, self_s=2.0, raised=1),
        "frames.analysis": SpanStats(calls=3, total_s=3.0, self_s=3.0),
    }
    tracer.counters = {"matio.bytes_read": 7}
    m = span_metrics(tracer, wall=10.5)
    assert m["frames.calls"] == 5 and m["frames.self_s"] == 7.0
    assert m["frames.spectral_norm.s"] == 6.0 and m["frames.spectral_norm.calls"] == 2
    assert m["frames.spectral_norm.self_s"] == 4.0
    assert m["linalg.raised"] == 1 and m["hermite.calls"] == 0 and m["hermite.self_s"] == 0.0
    assert m["matio.bytes_read"] == 7
    assert m["trace.unattributed_s"] == pytest.approx(0.5)
    assert all(f"{layer}.self_s" in m for layer in LAYERS)


def test_runner_counts_failed_operations(tmp_path):
    class Missing:
        argvs = [["report", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]]
        outputs = []

        def check(self):
            return []

    runner = Runner(Missing())
    runner.loop(0.0)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "exited 3" in runner.problems[0]


def test_digits_cap():
    assert digits(0.0) == DIGITS_CAP
    assert digits(1e-5) == pytest.approx(5.0)
