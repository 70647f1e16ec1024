"""Command-line front end: density/support/moment sweeps, Monte Carlo
comparison, and a desk-scale self-test.

One JSON config file carries the model and run parameters; command-line
flags override individual fields.  All emitted CSV uses 17-significant-digit
decimals, LF line endings, and fixed field order, so identical configs
produce byte-identical outputs.

Each ``cmd_*`` returns ``(exit code, {file name: text})`` and ``main`` alone
writes them, after the command returns: a run that exits 2 or 3 writes nothing.

Config rules (each a configuration error): the file can be read, decoded
and parsed; each config object (the top level, the model fields, ``grid``
and ``mc``) holds only its own fields, by ``models.config_object``, and
each ``mc`` field is read by its kind for every command; a number is a JSON
number, not a string (``--times`` and ``FREESDE_SEED`` text is read as
numbers where it enters); ``times`` is a list that strictly increases, and
``density`` and ``compare`` need them positive; a ``grid``'s ``n`` nodes
from ``lo`` to ``hi`` strictly increase in double precision; ``density``
and ``compare`` hold at most ``MAX_GRID_N`` nodes summed over their times
(the auto grid counts ``AUTO_GRID_N`` a time); ``out_dir`` is a string and
``threshold`` is nonnegative.  A file name stamps t as ``%g`` where that
reads back as t, else as its shortest round-trip repr, with ``.`` as ``p``
and ``-`` as ``m``: distinct times never share a file.  Terminal lines and
SVG legends label t by the same rule, with ``.`` and ``-`` kept.

Exit codes: 0 success, 2 configuration error (an unwritable ``out_dir`` too),
3 numerical failure, 4 comparison threshold exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cauchy, characteristics, models, moments, rmt
from .errors import FreeSdeError, InvalidConfig, NonFinite
from .models import AUTO_GRID_N, MODEL_KEYS, config_number, config_object

_MC_KEYS = tuple(f.name for f in dataclasses.fields(rmt.SimConfig) if f.name != "seed")
_GRID_KEYS = ("lo", "hi", "n")
MAX_GRID_N = 10**6  # most nodes a run's curves hold: one such curve peaks near 200 MB


def _flag(value, what: str) -> bool:
    """A JSON boolean; any other value (the string "no" too) is a config error."""
    if not isinstance(value, bool):
        raise InvalidConfig(f"{what} must be true or false, got {value!r}")
    return value


@dataclass
class RunConfig:
    spec: models.ModelSpec
    times: list[float] | None = None  # required: None is refused
    grid: dict | np.ndarray | None = None  # {"lo","hi","n"} in, its nodes out; None for auto
    out_dir: str = "."
    svg: bool = False
    seed: int = 0
    mc: dict = field(default_factory=dict)
    threshold: float = 0.08

    def __post_init__(self):
        if not isinstance(self.times, list):
            raise InvalidConfig(f"times needs a list (or --times a,b), got {self.times!r}")
        self.times = [config_number(float, t, "time") for t in self.times]
        if not self.times:
            raise InvalidConfig("no times given")
        if any(t < 0 for t in self.times):
            raise InvalidConfig("times must be nonnegative")
        if any(a >= b for a, b in zip(self.times, self.times[1:])):
            raise InvalidConfig("times must be strictly increasing")
        if self.grid is not None:
            config_object(self.grid, _GRID_KEYS, "grid", required=_GRID_KEYS)
            lo, hi = (config_number(float, self.grid[k], f"grid {k}") for k in ("lo", "hi"))
            n = config_number(int, self.grid["n"], "grid n")
            if not 16 <= n <= MAX_GRID_N:
                raise InvalidConfig(f"grid n must be in [16, {MAX_GRID_N}], got {n}")
            with np.errstate(over="ignore", invalid="ignore"):
                self.grid = np.linspace(lo, hi, n)
                if not np.all(np.diff(self.grid) > 0):
                    raise InvalidConfig(f"grid needs lo < hi and n nodes that strictly increase "
                                        f"in doubles, got lo={lo}, hi={hi}, n={n}")
        if not isinstance(self.out_dir, str):
            raise InvalidConfig(f"out_dir must be a string, got {self.out_dir!r}")
        self.svg = _flag(self.svg, "svg")
        self.seed = config_number(int, self.seed, "seed")
        self.threshold = config_number(float, self.threshold, "threshold")
        if not self.threshold >= 0:
            raise InvalidConfig(f"threshold must be nonnegative, got {self.threshold}")
        self.mc = {k: _flag(v, f"mc {k}") if k == "allow_near_blowup" else
                   config_number(int if k in ("N", "n_paths") else float, v, f"mc {k}")
                   for k, v in config_object(self.mc, _MC_KEYS, "mc").items()}


_RUN_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name != "spec")


def _from_text(kind, text: str, what: str):
    """A number written as flag or environment text; ``RunConfig`` checks it next."""
    try:
        return kind(text)
    except ValueError:
        raise InvalidConfig(f"{what} must be a finite {kind.__name__}, got {text!r}") from None


def _load_config(args) -> RunConfig:
    """The config file's fields, overridden by the flags, then by ``FREESDE_SEED``."""
    raw: dict = {}
    if args.config:
        try:  # bad UTF-8 and over-long int literals are ValueErrors; deep nesting recurses
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise InvalidConfig(f"cannot read config {args.config}: {exc}") from exc
        config_object(raw, MODEL_KEYS + _RUN_KEYS, f"config {args.config}")
    for key in MODEL_KEYS + _RUN_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    if args.times is not None:
        raw["times"] = [_from_text(float, v, "time") for v in args.times.split(",")]
    seed_env = os.environ.get("FREESDE_SEED")
    if seed_env is not None:
        raw["seed"] = _from_text(int, seed_env, "FREESDE_SEED")
    spec = models.model_from_json({k: raw[k] for k in MODEL_KEYS if k in raw})
    return RunConfig(spec=spec, **{k: raw[k] for k in _RUN_KEYS if k in raw})


def _t_label(t: float) -> str:
    """t as ``%g`` where that reads back as t, else its shortest round-trip
    repr, so distinct times get distinct labels."""
    label = "%g" % t
    return label if float(label) == t else repr(t).removesuffix(".0")


def _fmt_t(t: float) -> str:
    """t for a file name: its label with ``.`` as ``p`` and ``-`` as ``m``."""
    return _t_label(t).replace(".", "p").replace("-", "m")


def polyline_svg(curves, title: str = "") -> str:
    """Static polyline plot: list of (xs, ps, label) on shared fixed axes."""
    width, height, margin = 800, 500, 50
    x_min = min(float(np.min(c[0])) for c in curves)
    x_max = max(float(np.max(c[0])) for c in curves)
    y_min = 0.0
    y_max = max(float(np.max(c[1])) for c in curves) or 1.0
    sx = (width - 2 * margin) / (x_max - x_min or 1.0)
    sy = (height - 2 * margin) / (y_max - y_min or 1.0)
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{width // 2}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    for i, (xs, ps, label) in enumerate(curves):
        pts = " ".join("%.4f,%.4f" % (margin + (x - x_min) * sx,
                                      height - margin - (p - y_min) * sy)
                       for x, p in zip(xs, ps))
        color = palette[i % len(palette)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin + 4}" '
                     f'y="{margin + 16 * i}" font-size="11" fill="{color}">{label}</text>')
    parts.append(
        f'<text x="{margin}" y="{height - margin + 18}" font-size="11">{x_min:.4g}</text>')
    parts.append(
        f'<text x="{width - margin}" y="{height - margin + 18}" text-anchor="end" '
        f'font-size="11">{x_max:.4g}</text>')
    parts.append(f'<text x="{margin - 4}" y="{margin}" text-anchor="end" '
                 f'font-size="11">{y_max:.4g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _check_curve_times(cfg: RunConfig) -> None:
    """density and compare hold a curve per time until the run ends: every
    time must be positive, and all the curves at most MAX_GRID_N nodes."""
    if any(t <= 0 for t in cfg.times):
        raise InvalidConfig("density and compare require strictly positive times")
    n = AUTO_GRID_N if cfg.grid is None else cfg.grid.size
    if len(cfg.times) * n > MAX_GRID_N:
        raise InvalidConfig(f"{len(cfg.times)} times x {n} grid nodes exceed the "
                            f"{MAX_GRID_N} nodes one run may hold")


def cmd_density(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    _check_curve_times(cfg)
    tag = cfg.spec.tag
    curves = [cfg.spec.density_curve(t, cfg.grid) for t in cfg.times]
    files = {}
    for t, curve in zip(cfg.times, curves):
        print(f"  t={_t_label(t)}: mass={curve.mass:.6f}")
        files[f"density_{tag}_t{_fmt_t(t)}.csv"] = curve.to_csv()
    if cfg.svg:
        files[f"density_{tag}.svg"] = polyline_svg(
            [(c.xs, c.ps, f"t={_t_label(t)}") for t, c in zip(cfg.times, curves)],
            title=f"spectral density ({tag})")
    return 0, files


def cmd_support(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    rows = [(t, sup.lo, sup.hi) for t, sup in zip(cfg.times, map(cfg.spec.support, cfg.times))]
    return 0, {f"support_{cfg.spec.tag}.csv": cauchy.csv_table("t,lo,hi", rows)}


def cmd_moments(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    rows = [(ms.t, ms.mean, ms.second_moment, ms.variance, ms.std_over_mean)
            for ms in (moments.model_moments(cfg.spec, t) for t in cfg.times)]
    return 0, {f"moments_{cfg.spec.tag}.csv": cauchy.csv_table(
        "t,mean,second_moment,variance,std_over_mean", rows)}


def cmd_compare(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    _check_curve_times(cfg)
    tag = cfg.spec.tag
    sim = rmt.SimConfig(**{"N": 300, "dt": 1e-3, "t_end": max(cfg.times), "n_paths": 20,
                           **cfg.mc}, seed=cfg.seed)
    # invert first: a curve that fails its mass check costs no MC run
    curves = [cfg.spec.density_curve(t, cfg.grid) if cfg.spec.cauchy is not None else None
              for t in cfg.times]
    hists = rmt.run_ensemble(cfg.spec, sim, cfg.times)
    report = {"model": models.model_to_json(cfg.spec), "config": dataclasses.asdict(sim),
              "threshold": cfg.threshold, "snapshots": []}
    files = {}
    worst = 0.0  # stays 0 with no transform, so gbm2 never exceeds the threshold
    for t, h, curve in zip(cfg.times, hists, curves):
        ms = moments.model_moments(cfg.spec, t)
        m1, m2 = h.moments()
        entry = {"t": t, "n_samples": h.n_samples, "mean_gap": abs(m1 - ms.mean),
                 "second_moment_gap": abs(m2 - ms.second_moment)}
        line = f"  t={_t_label(t)}: "
        if curve is not None:
            entry["kolmogorov"] = ks = rmt.kolmogorov_distance(h, curve)
            worst = max(worst, ks)
            line += f"KS={ks:.4f} "
        print(line + f"mean_gap={entry['mean_gap']:.4g}")
        report["snapshots"].append(entry)
        files[f"hist_{tag}_t{_fmt_t(t)}.csv"] = h.to_csv()
    try:
        files[f"compare_{tag}.json"] = json.dumps(report, indent=2, sort_keys=True,
                                                  allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFinite(f"compare report is not finite: {exc}") from exc
    if worst > cfg.threshold:
        print(f"FAIL: worst Kolmogorov distance {worst:.4f} > {cfg.threshold}")
        return 4, files
    return 0, files


def _selftest_checks():
    rng = np.random.default_rng(20240901)
    specs = (models.OrnsteinUhlenbeck(-1.0, 1.0), models.GeometricBrownian1(0.5),
             models.Explosive(1.0, 1.0))

    def herglotz_decay():
        for spec in specs:
            ev = spec.cauchy
            t = 0.4
            z = rng.uniform(-3, 3, 40) + 1j * rng.uniform(1e-3, 10, 40)
            g = ev(t, z)
            assert np.all(np.asarray(g).imag > 0)
            assert abs(1e6j * ev(t, 1e6j) + 1) < 1e-4

    def inversion():
        curve = models.Explosive(1.0, 1.0).density_curve(0.9)
        ref = models.explosive_density(1.0, 1.0, 0.9, curve.xs)
        err = np.max(np.abs(curve.ps - ref))
        assert err < 1e-6, err

    def gbm1_curve_vs_newton():
        spec = models.GeometricBrownian1(0.5)
        curve = spec.boundary(2.0)
        inner = curve.ps > 0
        ref = spec.cauchy(2.0, curve.xs[inner] + 0j).imag / np.pi
        err = np.max(np.abs(curve.ps[inner] - ref))
        assert err < 1e-7 * np.max(curve.ps), err

    def catalan_identity():
        assert moments.catalan(10) == 16796
        for n in (2, 4, 6, 8, 10, 12):
            assert moments.verify_power_identity(n, 1.5) < 1e-12

    def division_identity():
        poly = characteristics.Polynomial([3.0, -1.0, 2.0, 0.5])
        z = 1.3 + 0.7j
        e = characteristics.divided_difference_expand(poly, z)
        x = rng.uniform(-2, 2, 10)
        recon = poly(z) * np.ones_like(x, dtype=complex)
        for j, ej in enumerate(e):
            recon = recon + ej * x ** j * (x - z)
        assert np.max(np.abs(recon - poly(x))) < 1e-12

    def characteristics_closed_form():
        # each record's polynomials and moments, marched to t = 0.2, give its
        # closed-form transform on the curves; gbm2, which has none, keeps
        # its first integral
        for spec in specs + (models.GeometricBrownian2(0.5),):
            rhs = characteristics.build_pde(*spec.polynomials(), spec.moment_function())
            surf = characteristics.integrate_characteristics(
                rhs, lambda s: (s + 2.0j, 1.0 / (spec.x0 - (s + 2.0j))),
                np.linspace(-2.0, 4.0, 21), t_end=0.2)
            z, g = surf.z[:, -1], surf.g[:, -1]
            if spec.cauchy is None:
                got = models.gbm2_first_integral(spec.theta, 0.2, z, g)
                want = 2.0 * surf.g[:, 0] ** 2
            else:
                got, want = g, spec.cauchy(0.2, z)
            err = np.max(np.abs(got - want))
            assert err < 1e-8, (spec.tag, err)

    def mc_determinism():
        spec = models.OrnsteinUhlenbeck(-1.0, 1.0)
        sim = rmt.SimConfig(N=40, dt=1e-2, t_end=0.2, n_paths=3, seed=5)
        h1 = rmt.run_ensemble(spec, sim, [0.2])[0]
        h2 = rmt.run_ensemble(spec, sim, [0.2])[0]
        assert np.array_equal(h1.samples, h2.samples)

    def csv_roundtrip():
        ev = models.OrnsteinUhlenbeck(-1.0, 1.0).cauchy
        xs = np.linspace(-2, 2, 300)
        curve = cauchy.stieltjes_invert(ev, 1.0, xs, eps0=1e-3)
        back = cauchy.DensityCurve.from_csv(curve.to_csv())
        assert np.array_equal(back.xs, curve.xs) and np.array_equal(back.ps, curve.ps)

    return [("herglotz+decay", herglotz_decay), ("stieltjes inversion", inversion),
            ("gbm1 boundary curve vs Newton", gbm1_curve_vs_newton),
            ("catalan/power identity", catalan_identity),
            ("difference-quotient identity", division_identity),
            ("characteristics vs closed form", characteristics_closed_form),
            ("mc determinism", mc_determinism), ("csv roundtrip", csv_roundtrip)]


def cmd_selftest() -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
            print(f"PASS {name}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"FAIL {name}: {exc}")
    if failures:
        print(f"{failures} check(s) failed")
        return 3
    print("all checks passed")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` keeps no state between calls."""
    ap = argparse.ArgumentParser(
        prog="freesde",
        description="Spectral dynamics of free stochastic differential equations")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("density", "support", "moments", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--model", choices=list(models.MODELS))
        for key in MODEL_KEYS[1:]:
            p.add_argument(f"--{key}", type=float)
        p.add_argument("--times", help="comma-separated times")
        p.add_argument("--out", dest="out_dir")
        p.add_argument("--seed", type=int)
        if name == "density":
            p.add_argument("--svg", action="store_true", default=None)
        if name == "compare":
            p.add_argument("--threshold", type=float)
    sub.add_parser("selftest")
    return ap


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """Attach a negative number to the flag before it: ``--theta -1e-1``
    becomes ``--theta=-1e-1``.  argparse takes only ``-1``/``-.5``-shaped
    tokens for numbers and reads ``-1e-1`` as an unknown option.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev
                and token.startswith("-") and _is_number(token)):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    ap = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = ap.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "selftest":
        return cmd_selftest()
    try:
        cfg = _load_config(args)
        # looked up at call time, so a rebound cmd_* is the one that runs
        code, files = globals()[f"cmd_{args.command}"](cfg)
        try:  # the one write site: nothing is written before the command returns
            Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                path = Path(cfg.out_dir) / name
                path.write_text(text)
                print(f"wrote {path}")
        except (OSError, ValueError) as exc:
            raise InvalidConfig(f"cannot write out_dir {cfg.out_dir!r}: {exc}") from exc
        return code
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FreeSdeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
