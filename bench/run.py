"""freesde benchmark: the MC oracle at two matrix scales and the analytic sweep.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc_large --seed 1 --seconds 25 --trace 0

Each workload runs in this one process: ``freesde.cli.main`` and the
library's public functions are called in-process on the workload's op list
(see ``ops.py``).  The run

1. times fresh interpreters that import ``freesde.cli`` and warm up (every
   op kind once at the workload's sizes): ``setup_s`` is their median;
2. imports and warms up in-process, then repeats passes over the op list,
   in an order shuffled from ``--seed``, for ``--seconds``.  ``pass_s`` is
   the median over passes of the summed op wall times;
3. times a single-threaded, BLAS-free calibration kernel before every op
   (``host.calib_s``).  It is reported beside ``pass_s`` and never folded
   into it; ``pass_cal`` is the median over passes of the pass time divided
   by the median calibration sample of that pass, a cost that the host's
   speed changes cancel out of;
4. checks every op's output after each pass: exit code, closed forms,
   mass, and byte-identical files across passes; then runs the workload's
   known-defect ops once and reports how they fail;
5. with ``--trace 1``, runs a second set of passes with spans recorded
   (``spans.py``) and reports per-layer metrics and the tracing overhead,
   then reruns the passes with FREESDE_THREADS=1 OPENBLAS_NUM_THREADS=1 in
   a fresh process for ``rmt.serial_pass_s`` and ``rmt.thread_speedup``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the gated end-to-end metrics
``pass_cal``, ``setup_s`` and ``peak_rss_mb`` with ``--trace 0``, per-layer
metrics with ``--trace 1``).  The lines before it
give every metric with its unit, the failing ops, and the run record, which
is also written to ``.bench_out/<workload>/record.json``.

The thread settings are part of a workload: ``mc_large`` and
``analytic_sweep`` run with ``FREESDE_THREADS`` and the BLAS thread
variables unset, as a user gets them, ``mc_small_serial`` with
``FREESDE_THREADS=1 OPENBLAS_NUM_THREADS=1``.  The process re-executes
itself when its environment differs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from ops import CLI_OP_KEYS, EXIT_CLASSES, KNOWN_DEFECTS, SERIAL, WORKLOADS, Runner  # noqa: E402

# Thread variables that OpenBLAS or freesde read; FREESDE_SEED would override
# the seed the benchmark gives each compare op.
MANAGED_ENV = ("FREESDE_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
               "OMP_NUM_THREADS", "FREESDE_SEED")
MIN_PASSES = 3
SETUP_REPEATS = 6
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "pass_cal": "1", "peak_rss_mb": "MB"}
# The end-to-end metrics of the result line, which BENCHMARK.json gates.
# pass_s is printed and recorded beside them but not gated: the host's speed
# steps make it spread 10-20% between runs of the serial workloads, where
# pass_cal spreads under 5%.
GATED = ("pass_cal", "setup_s", "peak_rss_mb")
ACCURACY_UNITS = {"fail_frac": "1", "ks_max": "1", "m2_relgap_max": "1",
                  "mass_err_max": "1"}

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _wanted_env(threads: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in MANAGED_ENV}
    env.update({k: v for k, v in threads.items() if v is not None})
    return env


def timing(samples) -> dict:
    """Median, the highest percentile with ten samples beyond it, count."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs) if xs else None, "n": n,
           "p": None, "p_value": None}
    if n > 10:
        out["p"] = math.floor(100 * (n - 10) / n)
        out["p_value"] = xs[n - 11]
    return out


@dataclass
class Pass:
    results: dict             # op name -> OpResult
    calib: float              # median calibration sample taken during the pass
    layers: dict = field(default_factory=dict)
    rmt_by_op: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(res.seconds for res in self.results.values())


def pass_seconds(passes: list[Pass]) -> float:
    return statistics.median(p.seconds for p in passes)


def pass_calibrated(passes: list[Pass]) -> float:
    return statistics.median(p.seconds / p.calib for p in passes)


class Calibration:
    """Fixed single-threaded, BLAS-free kernel that no freesde setting reaches.

    One sample sorts and exponentiates 250k doubles (memory-bound numpy) and
    runs a 30k-step integer loop in the interpreter, about 5 ms in all.  The
    host's speed moves in steps of up to 40% as other tenants come and go,
    and the blend follows both the numpy-bound and the interpreter-bound
    parts of a pass.
    """

    def __init__(self):
        import numpy
        self.np = numpy
        self.data = numpy.random.default_rng(2011).random(250_000)
        self.buf = numpy.empty_like(self.data)
        self.samples: list[float] = []

    def sample(self) -> float:
        buf = self.buf
        start = clock()
        buf[:] = self.data
        buf.sort()
        float(self.np.exp(buf, out=buf).sum())
        acc = 0
        for i in range(30_000):
            acc = (acc * 31 + i) % 1_000_003
        seconds = clock() - start
        self.samples.append(seconds)
        return seconds


def warmup(runner: Runner) -> None:
    """Run every op kind once at the workload's sizes.

    A warm-up compare pools two paths after one step, too few samples for
    the Kolmogorov threshold, so its exit 4 only says the comparison ran.
    """
    for op in runner.workload.warmup:
        res = runner.run(op)
        if res.exit_code != 0 and not (op.kind == "compare" and res.exit_code == 4):
            raise BenchError(f"warm-up op '{op.name}' failed: exit "
                             f"{res.exit_code} {res.error}")
    shutil.rmtree(runner.out_dir, ignore_errors=True)


class Bench:
    def __init__(self, args, out_dir: Path):
        self.workload = WORKLOADS[args.workload]
        self.runner = Runner(self.workload, out_dir, args.seed, clock)
        self.rng = random.Random(args.seed)
        self.calibration = Calibration()
        self.digests: dict[str, str] = {}
        self.last_spans: list = []
        warmup(self.runner)

    def measure(self, seconds: float, tracer=None) -> list[Pass]:
        from spans import pass_layers, rmt_children
        passes = []
        deadline = clock() + seconds
        while len(passes) < MIN_PASSES or clock() < deadline:
            order = list(self.workload.ops)
            self.rng.shuffle(order)
            gc.collect()
            if tracer is not None:
                tracer.reset()
            results, ranges, calib = {}, {}, []
            for op in order:
                calib.append(self.calibration.sample())
                first = len(tracer.spans) if tracer is not None else 0
                results[op.name] = self.runner.run(op)
                if tracer is not None:
                    ranges[op.name] = (first, len(tracer.spans))
            p = Pass(results, statistics.median(calib))
            if tracer is not None:
                spans = tracer.spans
                extra = sum(
                    sum(1 for s in spans[slice(*ranges[op.name])] if s[1] == "cauchy.invert")
                    - len(op.times)
                    for op in order if op.kind == "density")
                p.layers = pass_layers(spans, tracer.counts, extra)
                p.rmt_by_op = {op.name: rmt_children(spans[slice(*ranges[op.name])])
                               for op in order if op.kind == "compare"}
                self.last_spans = list(spans)
            for op in self.workload.ops:
                self.check(op, results[op.name])
                results[op.name].payload = None
            shutil.rmtree(self.runner.out_dir, ignore_errors=True)
            passes.append(p)
        return passes

    def check(self, op, res) -> None:
        self.runner.check(op, res)
        if res.exit_code != 0 or not res.digest:
            return
        first = self.digests.setdefault(op.name, res.digest)
        if first != res.digest:
            res.problems.append("output bytes differ from the first pass")

    def known_defects(self) -> list[dict]:
        """Run each known-defect op once; how it ends now."""
        out = []
        for op in self.workload.probes:
            res = self.runner.run(op)
            if res.exit_code == 0:
                self.runner.check(op, res)
            error = res.error or (self.runner.error_class(op) if res.exit_code else "")
            out.append({"op": op.name, "exit": res.exit_code,
                        "exit_class": EXIT_CLASSES.get(res.exit_code, "exception"),
                        "error": error, "problems": res.problems,
                        "as_known": res.exit_code == 3 and error == KNOWN_DEFECTS[op.name]})
        shutil.rmtree(self.runner.out_dir, ignore_errors=True)
        return out


def _setup_probe(args) -> int:
    """Fresh-interpreter set-up: import freesde.cli, then warm up."""
    start = clock()
    import freesde.cli  # noqa: F401
    imported = clock()
    out_dir = OUT / f"{args.workload}-setup"
    shutil.rmtree(out_dir, ignore_errors=True)
    warmup(Runner(WORKLOADS[args.workload], out_dir, args.seed, clock))
    print(json.dumps({"import_s": imported - start, "warmup_s": clock() - imported}))
    return 0


def _serial_probe(args) -> int:
    out_dir = OUT / f"{args.workload}-serial"
    shutil.rmtree(out_dir, ignore_errors=True)
    passes = Bench(args, out_dir).measure(args.seconds)
    print(json.dumps({"pass_s": pass_seconds(passes), "pass_cal": pass_calibrated(passes),
                      "n": len(passes)}))
    return 0


def _child(args, probe: str, env: dict, seconds: float = 0.0) -> tuple[float, dict]:
    """Run this script in a fresh interpreter; wall time and its last JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0",
           "--probe", probe]
    start = clock()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{probe} child timed out") from exc
    wall = clock() - start
    if proc.returncode != 0:
        raise BenchError(f"{probe} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def _blas() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        return {"name": None, "version": None}


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    # Half the set-up probes run before the passes and half after, so that
    # their median spans the host's speed steps as the passes do.
    setup = [_child(args, "setup", dict(os.environ)) for _ in range(SETUP_REPEATS // 2)]
    import freesde.cli  # noqa: F401
    import numpy
    import scipy
    bench = Bench(args, out_dir)
    passes = bench.measure(args.seconds)
    setup += [_child(args, "setup", dict(os.environ)) for _ in range(SETUP_REPEATS // 2)]

    traced, serial = [], None
    if args.trace:
        from spans import Tracer, median_of
        tracer = Tracer()
        tracer.install()
        try:
            traced = bench.measure(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        _, serial = _child(args, "serial", _wanted_env(SERIAL), args.seconds / 2)
    defects = bench.known_defects()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = passes + traced
    attempted = sum(len(p.results) for p in every)
    failed = sum(res.failed for p in every for res in p.results.values())
    accuracy: dict[str, float] = {}
    for p in every:
        for res in p.results.values():
            for key, value in res.accuracy.items():
                accuracy[key] = max(accuracy.get(key, 0.0), value)
    accuracy_metrics = {"fail_frac": failed / attempted}
    accuracy_metrics.update({k: accuracy[k] for k in ("ks_max", "m2_relgap_max",
                                                      "mass_err_max") if k in accuracy})

    pass_s = pass_seconds(passes)
    pass_cal = pass_calibrated(passes)
    end_to_end = {
        "setup_s": statistics.median(wall for wall, _ in setup),
        "pass_s": pass_s,
        "pass_cal": pass_cal,
        "peak_rss_mb": peak_rss_mb,
    }
    calib = bench.calibration.samples
    per_layer = {}
    if args.trace:
        traced_s = pass_seconds(traced)
        per_layer = _op_seconds(workload, passes)
        per_layer.update(median_of([p.layers for p in traced]))
        per_layer.update({
            "setup.import_s": statistics.median(s["import_s"] for _, s in setup),
            "setup.warmup_s": statistics.median(s["warmup_s"] for _, s in setup),
            "host.calib_s": statistics.median(calib),
            "trace.pass_s": traced_s,
            "trace.overhead_s": traced_s - pass_s,
            "trace.overhead_frac": pass_calibrated(traced) / pass_cal - 1.0,
            "rmt.serial_pass_s": serial["pass_s"],
            "rmt.thread_speedup": serial["pass_cal"] / pass_cal,
            "cauchy.fp_resid_max": accuracy.get("fp_resid_max", 0.0),
            "characteristics.max_err": accuracy.get("char_max_err", 0.0),
        })
        with open(out_dir / "spans.jsonl", "w") as fh:
            for span in bench.last_spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "thread"), span))) + "\n")

    op_samples: dict[str, list[float]] = {}
    for p in passes:
        for name, res in p.results.items():
            op_samples.setdefault(name, []).append(res.seconds)
    record = {
        "workload": workload.name, "why": workload.why,
        "machine": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                    "blas": _blas(), "platform": platform.platform()},
        "software": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "settings": {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                     **{k: os.environ.get(k) for k in MANAGED_ENV},
                     "serial_rerun": dict(SERIAL) if serial else None},
        "timings": {
            "setup_s": timing([wall for wall, _ in setup]),
            "setup.import_s": timing([s["import_s"] for _, s in setup]),
            "setup.warmup_s": timing([s["warmup_s"] for _, s in setup]),
            "pass_s": timing([p.seconds for p in passes]),
            "pass_cal": timing([p.seconds / p.calib for p in passes]),
            "trace.pass_s": timing([p.seconds for p in traced]),
            "host.calib_s": timing(calib),
            "ops": {name: timing(v) for name, v in sorted(op_samples.items())},
        },
        "end_to_end": end_to_end,
        "accuracy": accuracy_metrics,
        "per_layer": per_layer,
        "rmt_children_by_op": ({name: median_of([p.rmt_by_op[name] for p in traced])
                                for name in traced[0].rmt_by_op} if traced else {}),
        "failing_ops": _failing_ops(every),
        "known_defects": defects,
        "attempted": attempted, "failed": failed, "correct": failed == 0,
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    _report(record)

    metrics = per_layer if args.trace else {k: end_to_end[k] for k in GATED}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


def _failing_ops(passes: list[Pass]) -> list[dict]:
    """Each failing op by name, with its exit class and error class."""
    failures: dict[str, list] = {}
    for p in passes:
        for name, res in p.results.items():
            if res.failed:
                failures.setdefault(name, []).append(res)
    return [{"op": name, "exit": results[0].exit_code,
             "exit_class": EXIT_CLASSES.get(results[0].exit_code, "exception"),
             "error": results[0].error, "passes": len(results),
             "problems": sorted({msg for r in results for msg in r.problems})}
            for name, results in sorted(failures.items())]


def _op_seconds(workload, passes: list[Pass]) -> dict[str, float]:
    """cli.op_s.<cmd>.<model>: CLI op time summed per pass, median over passes."""
    per_pass = {f"cli.op_s.{key}": [0.0] * len(passes) for key in CLI_OP_KEYS}
    for op in workload.ops:
        if op.kind in ("fp", "characteristics"):
            continue
        for i, p in enumerate(passes):
            per_pass[f"cli.op_s.{op.kind}.{op.model}"][i] += p.results[op.name].seconds
    return {key: statistics.median(v) for key, v in per_pass.items()}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.startswith("cli.op_s."):
        return "s"
    if name.endswith("_calls") or name == "cauchy.eps_refinements":
        return "count"
    return "1"


def _report(record: dict) -> None:
    settings = record["settings"]
    print(f"workload {record['workload']}  seed {settings['seed']}  "
          f"FREESDE_THREADS={settings['FREESDE_THREADS'] or 'unset'}  "
          f"OPENBLAS_NUM_THREADS={settings['OPENBLAS_NUM_THREADS'] or 'unset'}  "
          f"nproc {record['machine']['nproc']}  blas {record['machine']['blas']}")
    t = record["timings"]
    rows = [(k, v, END_TO_END_UNITS[k]) for k, v in record["end_to_end"].items()]
    rows += [(k, v, ACCURACY_UNITS[k]) for k, v in record["accuracy"].items()]
    rows.append(("host.calib_s", t["host.calib_s"]["median"], "s"))
    for name, value, unit in rows:
        n = t[name]["n"] if name in t else ""
        print(f"  {name:<16} {value:12.6g} {unit:<3} {'n=' + str(n) if n else ''}")
    for f in record["failing_ops"]:
        print(f"  failing op: {f['op']}: exit {f['exit']} ({f['exit_class']}), "
              f"{f['error'] or '-'}, {f['passes']} passes; " + "; ".join(f["problems"]))
    for d in record["known_defects"]:
        state = "fixed" if d["exit"] == 0 and not d["problems"] else (
            "still fails as known" if d["as_known"] else "fails differently")
        print(f"  known defect: {d['op']}: exit {d['exit']} ({d['exit_class']}), "
              f"{d['error'] or '-'}: {state}")
    if record["per_layer"]:
        for name, value in record["per_layer"].items():
            print(f"  {name:<34} {value:12.6g} {_unit(name)}")
        for op, children in record["rmt_children_by_op"].items():
            print(f"  {op:<20} " + "  ".join(f"{k}={v:.4g}s" for k, v in children.items()))
    print("run record: " + json.dumps(record, separators=(",", ":")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup", "serial"), help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else argv
    args = ap.parse_args(argv)
    threads = SERIAL if args.probe == "serial" else WORKLOADS[args.workload].threads
    env = _wanted_env(threads)
    if env != dict(os.environ):
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
                  env)
    if not (SRC / "freesde" / "cli.py").is_file():
        print(f"benchmark: no freesde sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.probe == "setup":
            return _setup_probe(args)
        if args.probe == "serial":
            return _serial_probe(args)
        return run(args)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
