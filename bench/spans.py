"""Per-layer spans for the traced benchmark run.

Layers are timed from outside the package: ``Tracer.install`` rebinds
module attributes to wrappers that record a span around each call and
``Tracer.uninstall`` puts the originals back.  A function imported by value
(``from .models import blowup_time`` in ``rmt``) is rebound in every
freesde module that holds it, since each module looks names up in its own
globals.  Rebinding reaches the path-pool threads because ``rmt`` resolves
``sample_wigner_increment``, ``_apply_increment`` and ``np.linalg.eigvalsh``
at call time, as do the ``models.cauchy_evaluator`` closures for
``gbm_cauchy`` and ``explosive_cauchy``.

A span is ``(id, name, start, end, parent, thread)``.  Its parent is the
innermost open span on the same thread; a span opened on a pool thread with
nothing open there takes the open ``rmt.run_paths`` span as its parent.
A layer's self time is its span minus the union of its child spans on the
same thread (children on one thread nest, so the union is their sum).
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

# (metric stem, module, attribute); the stem names the span and the metrics.
SPANS = (
    ("cli.main", "freesde.cli", "main"),
    ("rmt.run_paths", "freesde.rmt", "run_paths"),
    ("rmt.evolve_path", "freesde.rmt", "_evolve_path"),
    ("rmt.wigner", "freesde.rmt", "sample_wigner_increment"),
    ("rmt.sqrt", "freesde.rmt", "sym_sqrt_clamped"),
    ("rmt.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("rmt.kolmogorov", "freesde.rmt", "kolmogorov_distance"),
    ("rmt.histogram", "freesde.rmt", "EigenHistogram.from_samples"),
    ("models.gbm_cauchy", "freesde.models", "gbm_cauchy"),
    ("models.explosive_cauchy", "freesde.models", "explosive_cauchy"),
    ("cauchy.invert", "freesde.cauchy", "stieltjes_invert"),
    ("cauchy.hilbert", "freesde.cauchy", "hilbert_transform_grid"),
    ("cauchy.csv", "freesde.cauchy", "DensityCurve.to_csv"),
    ("characteristics.integrate", "freesde.characteristics",
     "integrate_characteristics"),
    ("characteristics.evaluate", "freesde.characteristics", "evaluate_on_surface"),
    ("moments.model_moments", "freesde.moments", "model_moments"),
)

# Calls counted without a span: (counter name, module, attribute).
COUNTS = (
    ("models.gbm_newton_calls", "freesde.models", "_gbm_newton"),
)

# The rmt children compared per compare op in the run record.
RMT_CHILDREN = ("rmt.wigner", "rmt.sqrt", "rmt.eigvalsh", "rmt.step")


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span recorder; install it, run the traced passes, then uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fanout: int | None = None
        self._saved: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)

    def _add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def _span(self, name: str, fn, fanout: bool = False):
        clock = time.perf_counter
        local = self._local
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._fanout
            sid = next(self._ids)
            stack.append(sid)
            if fanout:
                outer, self._fanout = self._fanout, sid
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if fanout:
                    self._fanout = outer
                self.spans.append((sid, name, start, end, parent, get_ident()))

        return traced

    def _counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self._add(name, 1)
            return fn(*args, **kwargs)

        return counted

    def _clamp_sum(self, fn):
        def summed(*args, **kwargs):
            root, clamp = fn(*args, **kwargs)
            self._add("rmt.clamp_mass", clamp)
            return root, clamp

        return summed

    def _rebind(self, module: str, attr: str, make) -> None:
        owner, name = _resolve(module, attr)
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        targets = [owner]
        if not isinstance(owner, type) and module.startswith("freesde"):
            targets = [mod for key, mod in list(sys.modules.items())
                       if key.split(".")[0] == "freesde"
                       and getattr(mod, name, None) is raw]
        for target in targets:
            self._saved.append((target, name, raw))
            setattr(target, name, wrapped)

    def install(self) -> None:
        # _rebind calls each factory at once, so the loop variables are current.
        for stem, module, attr in SPANS:
            if stem == "rmt.sqrt":
                self._rebind(module, attr,
                             lambda fn: self._span(stem, self._clamp_sum(fn)))
            else:
                self._rebind(module, attr, lambda fn: self._span(
                    stem, fn, fanout=stem == "rmt.run_paths"))
        for name, module, attr in COUNTS:
            self._rebind(module, attr, lambda fn: self._counter(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            target, name, raw = self._saved.pop()
            setattr(target, name, raw)


def _busy_and_self(spans):
    """Per-name busy time and self time, summed over spans."""
    thread_of = {s[0]: s[5] for s in spans}
    child = defaultdict(float)
    for sid, _, start, end, parent, thread in spans:
        if parent is not None and thread_of.get(parent) == thread:
            child[parent] += end - start
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for sid, name, start, end, _, _ in spans:
        busy[name] += end - start
        own[name] += end - start - child[sid]
        calls[name] += 1
    return busy, own, calls


def pass_layers(spans, counts, density_extra_inverts: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    busy, own, calls = _busy_and_self(spans)
    run_wall = busy["rmt.run_paths"]
    return {
        "cli.self_s": own["cli.main"],
        "rmt.wigner_s": busy["rmt.wigner"],
        "rmt.wigner_calls": calls["rmt.wigner"],
        "rmt.sqrt_s": busy["rmt.sqrt"],
        "rmt.sqrt_calls": calls["rmt.sqrt"],
        "rmt.clamp_mass": counts["rmt.clamp_mass"],
        "rmt.eigvalsh_s": busy["rmt.eigvalsh"],
        "rmt.eigvalsh_calls": calls["rmt.eigvalsh"],
        "rmt.step_s": own["rmt.evolve_path"],
        "rmt.busy_over_wall": busy["rmt.evolve_path"] / run_wall if run_wall else 0.0,
        "rmt.kolmogorov_s": busy["rmt.kolmogorov"],
        "rmt.histogram_s": busy["rmt.histogram"],
        "models.gbm_cauchy_s": busy["models.gbm_cauchy"],
        "models.gbm_newton_calls": int(counts["models.gbm_newton_calls"]),
        "models.explosive_cauchy_s": busy["models.explosive_cauchy"],
        "models.explosive_cauchy_calls": calls["models.explosive_cauchy"],
        "cauchy.invert_s": own["cauchy.invert"],
        "cauchy.invert_calls": calls["cauchy.invert"],
        "cauchy.eps_refinements": density_extra_inverts,
        "cauchy.hilbert_s": busy["cauchy.hilbert"],
        "cauchy.csv_s": busy["cauchy.csv"],
        "characteristics.integrate_s": busy["characteristics.integrate"],
        "characteristics.evaluate_s": busy["characteristics.evaluate"],
        "moments.model_moments_s": busy["moments.model_moments"],
        "moments.model_moments_calls": calls["moments.model_moments"],
    }


def rmt_children(spans) -> dict[str, float]:
    """Busy time of the rmt children in a slice of spans (one op)."""
    busy, own, _ = _busy_and_self(spans)
    out = {name: busy[name] for name in RMT_CHILDREN if name != "rmt.step"}
    out["rmt.step"] = own["rmt.evolve_path"]
    return out


def median_of(dicts: list[dict]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}
