"""The benchmark's hooks into the package: the names it rebinds and the ops it
checks.  ``bench/`` reaches into ``freesde`` by module attribute, so a rename
or removal there must fail here before it fails a benchmark run."""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

import freesde.cli  # noqa: F401 - loads every module the spans name
from freesde import models, rmt

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
ops = _load("ops")


@pytest.mark.parametrize("stem, module, attr", spans.SPANS + spans.COUNTS)
def test_hook_resolves(stem, module, attr):
    owner, name = spans._resolve(module, attr)
    assert callable(getattr(owner, name)), stem


def test_analytic_warmup_ops_pass_under_tracing(tmp_path):
    runner = ops.Runner(ops.WORKLOADS["analytic_sweep"], tmp_path, 0, time.perf_counter)
    tracer = spans.Tracer()
    tracer.install()
    try:
        results = [(op, runner.run(op)) for op in runner.workload.warmup]
    finally:
        tracer.uninstall()
    for op, res in results:
        runner.check(op, res)
        assert not res.failed, (op.name, res.exit_code, res.error, res.problems)
    # the explosive transform is called through the rebound names; gbm1's
    # density comes from its boundary curve and reaches no Newton solve
    names = {span[1] for span in tracer.spans}
    assert {"models.explosive_cauchy", "cauchy.invert"} <= names
    assert "models.gbm_cauchy" not in names
    assert tracer.counts["models.gbm_newton_calls"] == 0
    assert models.gbm_cauchy.__name__ == "gbm_cauchy"  # the original is back


def test_mc_compare_warmup_op_passes_its_check(tmp_path, monkeypatch):
    # the compare check reads the histogram CSVs and the model records back
    workload = ops.WORKLOADS["mc_small_serial"]
    for key, value in workload.threads.items():
        if value is None:
            monkeypatch.delenv(key, raising=False)
        else:
            monkeypatch.setenv(key, value)
    runner = ops.Runner(workload, tmp_path, 0, time.perf_counter)
    (op,) = [op for op in workload.warmup if op.name == "compare gbm2"]
    res = runner.run(op)
    runner.check(op, res)
    assert not res.failed, (op.name, res.exit_code, res.error, res.problems)
    assert res.digest and "m2_relgap_max" in res.accuracy


def test_mc_compare_warmup_op_passes_under_tracing(tmp_path, monkeypatch):
    # the tracer wraps the increment draw and the march; the op must still
    # pass its check through the wrappers, and the originals come back
    workload = ops.WORKLOADS["mc_small_serial"]
    for key, value in workload.threads.items():
        if value is None:
            monkeypatch.delenv(key, raising=False)
        else:
            monkeypatch.setenv(key, value)
    runner = ops.Runner(workload, tmp_path, 0, time.perf_counter)
    (op,) = [op for op in workload.warmup if op.name == "compare gbm1"]
    draw, march = rmt.sample_wigner_increment, rmt._evolve_path
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = runner.run(op)
    finally:
        tracer.uninstall()
    runner.check(op, res)
    assert not res.failed, (op.name, res.exit_code, res.error, res.problems)
    names = {span[1] for span in tracer.spans}
    assert {"rmt.run_paths", "rmt.evolve_path", "rmt.wigner", "rmt.eigvalsh"} <= names
    assert rmt.sample_wigner_increment is draw and rmt._evolve_path is march


def test_compare_file_stamps_match_the_bench_check():
    # _check_compare opens hist_<model>_t<("%g" % t).replace(".", "p")>.csv
    times = {t for w in ops.WORKLOADS.values() for op in w.ops + w.warmup + w.probes
             if op.kind == "compare" for t in op.times}
    assert times == {0.2, 0.4, 0.01, 0.002}
    for t in times:
        assert freesde.cli._fmt_t(t) == ("%g" % t).replace(".", "p")
