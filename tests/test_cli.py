"""End-to-end command checks: files, formats, determinism, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freesde import cauchy, cli, rmt
from freesde import models as md
from freesde.errors import GridTooCoarse, InvalidConfig


SRC = Path(cli.__file__).resolve().parents[1]


def run_fresh(code, *args, timeout):
    """Run ``python -c code args`` in a fresh interpreter that finds freesde."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return str(path)


def read_density(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,p"
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]]).T


class TestDensityCommand:
    def test_explosive_early_times(self, tmp_path):
        cfgfile = write_config(tmp_path, model="explosive", k=1.0, a=1.0,
                               times=[0.1, 0.2, 0.3, 0.4],
                               out_dir=str(tmp_path / "out"))
        rc = cli.main(["density", "--config", cfgfile])
        assert rc == 0
        for t in ("0p1", "0p2", "0p3", "0p4"):
            xs, ps = read_density(tmp_path / "out" / f"density_explosive_t{t}.csv")
            assert abs(np.trapezoid(ps, xs) - 1.0) < 1e-3

    # X scales by c when a -> c a and k -> k/c, which keeps tau = (a k)^2 t:
    # margins from an absolute width floor of 1e-12 once put mass 1e14 here.
    @pytest.mark.parametrize("k", [1e40, 1e100])
    def test_explosive_at_any_scale(self, tmp_path, k):
        a = 1.0 / k
        assert cli.main(["density", "--model", "explosive", "--k", repr(k), "--a", repr(a),
                         "--times", "0.5", "--out", str(tmp_path)]) == 0
        xs, ps = read_density(tmp_path / "density_explosive_t0p5.csv")
        assert abs(np.trapezoid(ps, xs) - 1.0) < 1e-3
        want = md.explosive_density(k, a, 0.5, xs)
        assert np.max(np.abs(ps - want)) <= 1e-12 * np.max(want)

    # sigma^2 under- or overflows a double: a support of [0, 0] or [-inf, inf]
    @pytest.mark.parametrize("sigma", [1e-170, 1e160])
    def test_ou_at_any_scale(self, tmp_path, sigma):
        assert cli.main(["density", "--model", "ou", "--theta", "-1", "--sigma", repr(sigma),
                         "--times", "1", "--out", str(tmp_path)]) == 0
        xs, ps = read_density(tmp_path / "density_ou_t1.csv")
        assert abs(np.trapezoid(ps, xs) - 1.0) < 1e-3

    # An inversion off the axis biases the mass by O(sqrt(eps)) at square-root
    # edges; these runs failed the mass check with it.
    @pytest.mark.parametrize("t", [3.0, 4.0, 6.0])
    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_gbm1_late_times(self, tmp_path, theta, t):
        argv = ["density", "--model", "gbm1", "--theta", str(theta),
                "--times", str(t), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        xs, ps = read_density(tmp_path / f"density_gbm1_t{t:g}.csv")
        assert abs(np.trapezoid(ps, xs) - 1.0) < 1e-3

    @staticmethod
    def _gbm1_density_holds(tmp_path, capsys, theta, t):
        """density gbm1 exits 0 with no RuntimeWarning, on AUTO_GRID_N strictly
        increasing nodes, mass within 1e-3, m1 and m2 within 1e-4 relative."""
        argv = ["density", "--model", "gbm1", "--theta", str(theta),
                "--times", str(t), "--out", str(tmp_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in capsys.readouterr().err
        stamp = ("%g" % t).replace(".", "p")
        xs, ps = read_density(tmp_path / f"density_gbm1_t{stamp}.csv")
        assert xs.size == cli.AUTO_GRID_N and np.all(np.diff(xs) > 0)
        assert abs(np.trapezoid(ps, xs) - 1.0) < 1e-3
        mean, second = md.GeometricBrownian1(theta).moments(t)
        assert abs(np.trapezoid(xs * ps, xs) / mean - 1.0) < 1e-4
        assert abs(np.trapezoid(xs * xs * ps, xs) / second - 1.0) < 1e-4

    # A Newton continuation in time stalled at (2, 2.5), overflowed at
    # (1, 6) and lost mass at (-1, 6).
    @pytest.mark.parametrize("theta, t", [(2.0, 2.5), (1.0, 6.0), (-1.0, 6.0)])
    def test_gbm1_reach(self, tmp_path, capsys, theta, t):
        self._gbm1_density_holds(tmp_path, capsys, theta, t)

    # Newton on the cosine grid lost 1.9% of the mass at t = 8 and did not
    # converge at t = 20; the boundary curve reaches both.
    @pytest.mark.parametrize("t", [8.0, 10.0, 20.0])
    @pytest.mark.parametrize("theta", [-1.0, 0.0, 0.5, 2.0])
    def test_gbm1_reach_of_the_boundary_curve(self, tmp_path, capsys, theta, t):
        self._gbm1_density_holds(tmp_path, capsys, theta, t)

    @pytest.mark.parametrize("t", [0.85, 0.9, 0.95])
    def test_explosive_near_blowup(self, tmp_path, t):
        argv = ["density", "--model", "explosive", "--k", "1", "--a", "1",
                "--times", str(t), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        stamp = ("%g" % t).replace(".", "p")
        xs, ps = read_density(tmp_path / f"density_explosive_t{stamp}.csv")
        assert abs(np.trapezoid(ps, xs) - 1.0) < 1e-3
        assert np.max(np.abs(ps - md.explosive_density(1.0, 1.0, t, xs))) <= 1e-6

    def test_svg_written(self, tmp_path):
        cfgfile = write_config(tmp_path, model="ou", theta=-1.0, sigma=1.0,
                               times=[0.5, 1.0], out_dir=str(tmp_path / "o"),
                               svg=True)
        assert cli.main(["density", "--config", cfgfile]) == 0
        svg = (tmp_path / "o" / "density_ou.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_byte_identical_reruns(self, tmp_path):
        cfgfile = write_config(tmp_path, model="ou", theta=0.0, sigma=1.0,
                               times=[1.0], out_dir=str(tmp_path / "a"))
        cli.main(["density", "--config", cfgfile])
        first = (tmp_path / "a" / "density_ou_t1.csv").read_bytes()
        cli.main(["density", "--config", cfgfile])
        assert (tmp_path / "a" / "density_ou_t1.csv").read_bytes() == first

    def test_gbm2_refused(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, model="gbm2", theta=0.0, times=[1.0])
        assert cli.main(["density", "--config", cfgfile]) == 2
        assert "no transform" in capsys.readouterr().err

    def test_empty_times_is_config_error(self, tmp_path):
        cfgfile = write_config(tmp_path, model="ou", theta=0.0, sigma=1.0,
                               times=[], out_dir=str(tmp_path / "none"))
        assert cli.main(["density", "--config", cfgfile]) == 2
        assert not (tmp_path / "none").exists()

    def test_compare_config_error_leaves_no_directory(self, tmp_path):
        # 10 / 1e-320 steps is refused by SimConfig before anything is written
        cfgfile = write_config(tmp_path, model="ou", theta=0.0, sigma=1.0, times=[1.0],
                               mc={"N": 4, "dt": 1e-320, "t_end": 10},
                               out_dir=str(tmp_path / "none"))
        assert cli.main(["compare", "--config", cfgfile]) == 2
        assert not (tmp_path / "none").exists()

    def test_unknown_config_field_rejected(self, tmp_path):
        cfgfile = write_config(tmp_path, model="ou", theta=0.0, sigma=1.0,
                               times=[1.0], bogus=1)
        assert cli.main(["density", "--config", cfgfile]) == 2

    def test_flag_overrides(self, tmp_path):
        rc = cli.main(["density", "--model", "ou", "--theta", "0", "--sigma", "1",
                       "--times", "1.0", "--out", str(tmp_path / "f")])
        assert rc == 0
        assert (tmp_path / "f" / "density_ou_t1.csv").exists()


class TestSupportCommand:
    def test_ou_rows(self, tmp_path):
        cfgfile = write_config(tmp_path, model="ou", theta=0.0, sigma=1.0,
                               times=[1.0, 4.0], out_dir=str(tmp_path))
        assert cli.main(["support", "--config", cfgfile]) == 0
        lines = (tmp_path / "support_ou.csv").read_text().strip().split("\n")
        assert lines[0] == "t,lo,hi"
        row1 = [float(v) for v in lines[1].split(",")]
        row2 = [float(v) for v in lines[2].split(",")]
        assert row1 == [1.0, -2.0, 2.0]
        assert row2 == [4.0, -4.0, 4.0]

    def test_explosive_edge_blowup(self, tmp_path):
        cfgfile = write_config(tmp_path, model="explosive", k=1.0, a=1.0,
                               times=[0.5, 0.97], out_dir=str(tmp_path))
        assert cli.main(["support", "--config", cfgfile]) == 0
        lines = (tmp_path / "support_explosive.csv").read_text().strip().split("\n")
        assert float(lines[2].split(",")[2]) > 1e3

    def test_time_zero_gives_initial_atom(self, tmp_path):
        cfgfile = write_config(tmp_path, model="explosive", k=1.0, a=2.0,
                               times=[0.0], out_dir=str(tmp_path))
        assert cli.main(["support", "--config", cfgfile]) == 0
        row = (tmp_path / "support_explosive.csv").read_text().strip().split("\n")[1]
        assert [float(v) for v in row.split(",")] == [0.0, 2.0, 2.0]

    def test_gbm1_at_large_t(self, tmp_path):
        # hi ~ e t: the branch-point root once cancelled to a division by zero
        assert cli.main(["support", "--model", "gbm1", "--theta", "0", "--times", "1e17",
                         "--out", str(tmp_path)]) == 0
        row = (tmp_path / "support_gbm1.csv").read_text().strip().split("\n")[1]
        t, lo, hi = map(float, row.split(","))
        assert (t, lo) == (1e17, 0.0) and hi == pytest.approx(math.e * 1e17, rel=1e-15)


    def test_ou_at_large_sigma(self, tmp_path):
        # sigma^2 = 1e320 once made this row "1,-inf,inf"
        assert cli.main(["support", "--model", "ou", "--theta", "-1", "--sigma", "1e160",
                         "--times", "1", "--out", str(tmp_path)]) == 0
        row = (tmp_path / "support_ou.csv").read_text().strip().split("\n")[1]
        r = 1e160 * md.ou_support(-1.0, 1.0, 1.0).hi
        assert [float(v) for v in row.split(",")] == pytest.approx([1.0, -r, r], rel=1e-15)

    def test_ou_at_theta_past_two_to_the_1023(self, tmp_path):
        # 2 theta overflowed to -inf, and this row read "0.5,0,0"
        assert cli.main(["support", "--model", "ou", "--theta", "-1e308", "--sigma", "1",
                         "--times", "0.5", "--out", str(tmp_path)]) == 0
        row = (tmp_path / "support_ou.csv").read_text().strip().split("\n")[1]
        r = math.sqrt(2e-308)
        assert [float(v) for v in row.split(",")] == pytest.approx([0.5, -r, r], rel=1e-12, abs=0)


class TestMomentsCommand:
    def test_gbm1_ratio_is_sqrt_t(self, tmp_path):
        cfgfile = write_config(tmp_path, model="gbm1", theta=0.7,
                               times=[0.25, 1.0, 4.0], out_dir=str(tmp_path))
        assert cli.main(["moments", "--config", cfgfile]) == 0
        lines = (tmp_path / "moments_gbm1.csv").read_text().strip().split("\n")
        assert lines[0] == "t,mean,second_moment,variance,std_over_mean"
        for ln in lines[1:]:
            vals = [float(v) for v in ln.split(",")]
            assert abs(vals[4] - math.sqrt(vals[0])) < 1e-12

    def test_gbm2_ratio(self, tmp_path):
        cfgfile = write_config(tmp_path, model="gbm2", theta=0.3,
                               times=[1.0], out_dir=str(tmp_path))
        assert cli.main(["moments", "--config", cfgfile]) == 0
        row = (tmp_path / "moments_gbm2.csv").read_text().strip().split("\n")[1]
        vals = [float(v) for v in row.split(",")]
        assert abs(vals[4] - math.sqrt(2 * (math.e ** 2 - 1))) < 1e-12

    def test_zero_time_zero_variance(self, tmp_path):
        cfgfile = write_config(tmp_path, model="gbm1", theta=1.0,
                               times=[0.0], out_dir=str(tmp_path))
        assert cli.main(["moments", "--config", cfgfile]) == 0
        row = (tmp_path / "moments_gbm1.csv").read_text().strip().split("\n")[1]
        assert float(row.split(",")[3]) == 0.0


class TestCompareCommand:
    def test_ou_small_run(self, tmp_path):
        cfgfile = write_config(
            tmp_path, model="ou", theta=-1.0, sigma=1.0, times=[0.5],
            out_dir=str(tmp_path), seed=11,
            mc={"N": 80, "dt": 2e-3, "n_paths": 6})
        assert cli.main(["compare", "--config", cfgfile]) == 0
        report = json.loads((tmp_path / "compare_ou.json").read_text())
        snap = report["snapshots"][0]
        assert snap["kolmogorov"] < 0.08
        assert (tmp_path / "hist_ou_t0p5.csv").exists()

    def test_threshold_exceeded_exit_code(self, tmp_path, capsys):
        cfgfile = write_config(
            tmp_path, model="ou", theta=-1.0, sigma=1.0, times=[0.25, 0.5],
            out_dir=str(tmp_path / "o"), seed=11, threshold=1e-6,
            mc={"N": 40, "dt": 5e-3, "n_paths": 2})
        assert cli.main(["compare", "--config", cfgfile]) == 4
        # exit 4 still writes every file
        names = ["hist_ou_t0p25.csv", "hist_ou_t0p5.csv", "compare_ou.json"]
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == sorted(names)
        wrote = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("wrote ")]
        assert wrote == [f"wrote {tmp_path / 'o' / name}" for name in names]

    def test_gbm2_moment_gaps_only(self, tmp_path):
        cfgfile = write_config(
            tmp_path, model="gbm2", theta=0.0, times=[0.2],
            out_dir=str(tmp_path), seed=3, mc={"N": 60, "dt": 2e-3, "n_paths": 4})
        assert cli.main(["compare", "--config", cfgfile]) == 0
        report = json.loads((tmp_path / "compare_gbm2.json").read_text())
        snap = report["snapshots"][0]
        assert "kolmogorov" not in snap
        assert snap["mean_gap"] < 0.1

    # the report dropped allow_near_blowup, so it could not say whether the
    # blow-up guard was lifted
    @pytest.mark.parametrize("allow", [True, False])
    def test_report_records_every_mc_setting(self, tmp_path, allow):
        cfgfile = write_config(
            tmp_path, model="ou", theta=-1.0, sigma=1.0, times=[0.1], out_dir=str(tmp_path),
            seed=2, threshold=1.0,
            mc={"N": 8, "dt": 0.05, "n_paths": 2, "allow_near_blowup": allow})
        assert cli.main(["compare", "--config", cfgfile]) == 0
        report = json.loads((tmp_path / "compare_ou.json").read_text())
        assert report["config"] == {"N": 8, "dt": 0.05, "t_end": 0.1, "n_paths": 2,
                                    "seed": 2, "allow_near_blowup": allow}

    def test_seed_env_override(self, tmp_path, monkeypatch):
        cfgfile = write_config(
            tmp_path, model="ou", theta=0.0, sigma=1.0, times=[0.2],
            out_dir=str(tmp_path), seed=1, mc={"N": 30, "dt": 2e-3, "n_paths": 2})
        monkeypatch.setenv("FREESDE_SEED", "999")
        cli.main(["compare", "--config", cfgfile])
        report = json.loads((tmp_path / "compare_ou.json").read_text())
        assert report["config"]["seed"] == 999

    def test_mass_check_fails_before_monte_carlo(self, tmp_path, monkeypatch, capsys):
        # 16 grid points miss the curve mass (1.03); the MC run must not start
        def spy(*args, **kwargs):
            raise AssertionError("run_ensemble ran before the curves were inverted")
        monkeypatch.setattr(rmt, "run_ensemble", spy)
        cfgfile = write_config(
            tmp_path, model="ou", theta=-1.0, sigma=1.0, times=[0.2, 0.4],
            out_dir=str(tmp_path), seed=11, grid={"lo": -3.0, "hi": 3.0, "n": 16},
            mc={"N": 200, "n_paths": 8})
        assert cli.main(["compare", "--config", cfgfile]) == 3
        assert "mass" in capsys.readouterr().err


    # the mean of the squared samples overflowed where the closed form is
    # finite, and compare exited 0 with "second_moment_gap": Infinity, which
    # is not JSON
    @pytest.mark.parametrize("fields, t", [
        ({"model": "ou", "theta": -1.0, "sigma": 1e154}, 0.5),
        ({"model": "explosive", "k": 1e-154, "a": 1e154}, 0.1)], ids=["ou", "explosive"])
    def test_moment_gaps_of_huge_samples_are_finite(self, tmp_path, capsys, fields, t):
        cfgfile = write_config(tmp_path, **fields, times=[t], out_dir=str(tmp_path), seed=0,
                               mc={"N": 24})
        assert cli.main(["compare", "--config", cfgfile]) == 0
        out = capsys.readouterr().out

        def refuse(name):
            raise AssertionError(f"{name} in the report")

        text = (tmp_path / f"compare_{fields['model']}.json").read_text()
        snap = json.loads(text, parse_constant=refuse)["snapshots"][0]
        m2 = md.model_from_json(fields).moments(t)[1]
        assert math.isfinite(m2) and m2 > 1e307
        assert snap["second_moment_gap"] < 0.1 * m2
        # the terminal line gives the mean gap to 4 significant digits, not
        # as a fixed-point number of some 150 digits
        assert f"mean_gap={snap['mean_gap']:.4g}\n" in out

    def test_non_finite_report_is_exit_3_and_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rmt.EigenHistogram, "moments", lambda self: (math.nan, 0.0))
        out = tmp_path / "o"
        cfgfile = write_config(tmp_path, model="ou", theta=-1.0, sigma=1.0, times=[0.1],
                               out_dir=str(out), seed=2, mc={"N": 8, "dt": 0.05, "n_paths": 2})
        assert cli.main(["compare", "--config", cfgfile]) == 3
        assert not out.exists()


class TestExitCodes:
    def test_gbm1_unreachable_time_is_fast_exit_3(self, tmp_path):
        # a Newton continuation in time once ran ceil(t/0.05) steps, unbounded
        proc = run_fresh("import sys; from freesde.cli import main; sys.exit(main(sys.argv[1:]))",
                         "density", "--model", "gbm1", "--theta", "0", "--times", "1e6",
                         "--out", str(tmp_path), timeout=5)
        assert proc.returncode == 3
        assert "numerical failure" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        # support query inside the blow-up guard band
        cfgfile = write_config(tmp_path, model="explosive", k=1.0, a=1.0,
                               times=[1.0 - 1e-12], out_dir=str(tmp_path))
        assert cli.main(["support", "--config", cfgfile]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_usage_error_is_exit_2(self):
        assert cli.main(["density"]) == 2  # no model anywhere

    def test_bad_thread_count_is_exit_2(self, tmp_path, monkeypatch, capsys):
        cfgfile = write_config(
            tmp_path, model="ou", theta=0.0, sigma=1.0, times=[0.1],
            out_dir=str(tmp_path), mc={"N": 10, "dt": 1e-2, "n_paths": 2})
        monkeypatch.setenv("FREESDE_THREADS", "two")
        assert cli.main(["compare", "--config", cfgfile]) == 2
        assert "FREESDE_THREADS" in capsys.readouterr().err

    def test_thread_count_past_the_cap_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # 10^5 pool threads were once asked for; the cap is checked before
        # any pool exists, so this test starts no thread
        def no_pool(*args, **kwargs):
            raise AssertionError("a path pool was built")

        monkeypatch.setattr(rmt, "ThreadPoolExecutor", no_pool)
        monkeypatch.setenv("FREESDE_THREADS", "100000")
        cfg = rmt.SimConfig(N=4, dt=1e-2, t_end=0.1, n_paths=rmt.MAX_PATHS)
        with pytest.raises(InvalidConfig, match="FREESDE_THREADS"):
            rmt.run_paths(md.OrnsteinUhlenbeck(0.0, 1.0), cfg, [0.1])
        out = tmp_path / "o"
        cfgfile = write_config(
            tmp_path, model="ou", theta=0.0, sigma=1.0, times=[0.1],
            out_dir=str(out), mc={"N": 10, "dt": 1e-2, "n_paths": 2})
        assert cli.main(["compare", "--config", cfgfile]) == 2
        err = capsys.readouterr().err
        assert "FREESDE_THREADS" in err and f"[1, {rmt.MAX_THREADS}]" in err
        assert not out.exists()

    def test_huge_matrix_is_exit_2(self, tmp_path, capsys):
        # N = 1e7 once reached numpy's allocator and ended in a traceback
        cfgfile = write_config(
            tmp_path, model="ou", theta=0.0, sigma=1.0, times=[0.1],
            out_dir=str(tmp_path / "o"), mc={"N": 10_000_000, "dt": 1e-2, "n_paths": 2})
        assert cli.main(["compare", "--config", cfgfile]) == 2
        assert "config error" in capsys.readouterr().err

    # t_end/dt overflowed to infinity and was reported as a numerical failure;
    # a huge path count built an unbounded list of path blocks.  The other two
    # sizes are just past their limits, so a lost check costs seconds, not a hang.
    @pytest.mark.parametrize("mc", [{"N": 4, "dt": 1e-320, "t_end": 10, "n_paths": 1},
                                    {"N": 2, "dt": 1e-6, "t_end": 2, "n_paths": 1},
                                    {"N": 4, "dt": 1e-2, "n_paths": 10**4 + 1}])
    def test_oversized_ensemble_is_exit_2(self, tmp_path, capsys, mc):
        cfgfile = write_config(tmp_path, model="ou", theta=0.0, sigma=1.0, times=[0.1],
                               out_dir=str(tmp_path / "o"), mc=mc)
        assert cli.main(["compare", "--config", cfgfile]) == 2
        assert "config error" in capsys.readouterr().err

    def test_t_end_off_a_fine_grid_is_exit_2(self, tmp_path, capsys):
        # 3 steps of 3e-13 once ran to 9e-13 and were written as t = 1e-12
        cfgfile = write_config(tmp_path, model="ou", theta=0.0, sigma=1.0, times=[1e-12],
                               out_dir=str(tmp_path / "o"),
                               mc={"N": 4, "dt": 3e-13, "t_end": 1e-12, "n_paths": 1})
        assert cli.main(["compare", "--config", cfgfile]) == 2
        assert "not a multiple" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_seed_env_is_exit_2(self, tmp_path, monkeypatch, capsys):
        cfgfile = write_config(
            tmp_path, model="ou", theta=0.0, sigma=1.0, times=[0.1],
            out_dir=str(tmp_path), mc={"N": 10, "dt": 1e-2, "n_paths": 2})
        monkeypatch.setenv("FREESDE_SEED", "abc")
        assert cli.main(["compare", "--config", cfgfile]) == 2
        assert "FREESDE_SEED" in capsys.readouterr().err

    # -1 ran seed 0's stream with a cast warning and wrote -1 into the report
    @pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None),
                                           ([], str(2**64))], ids=["flag-1", "env2^64"])
    def test_seed_outside_its_range_is_exit_2(self, tmp_path, monkeypatch, capsys, flag, env):
        cfgfile = write_config(
            tmp_path, model="ou", theta=0.0, sigma=1.0, times=[0.1],
            out_dir=str(tmp_path / "o"), mc={"N": 10, "dt": 1e-2, "n_paths": 2})
        if env is not None:
            monkeypatch.setenv("FREESDE_SEED", env)
        assert cli.main(["compare", "--config", cfgfile, *flag]) == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # the analytic commands never read mc, so any value passed
    @pytest.mark.parametrize("command", ["density", "support", "moments"])
    @pytest.mark.parametrize("mc", [{"N": "abc"}, {"dt": True}, {"n_paths": math.inf},
                                    {"t_end": None}, {"allow_near_blowup": 1}],
                             ids=["N-str", "dt-bool", "n_paths-inf", "t_end-null", "allow-int"])
    def test_malformed_mc_value_is_exit_2_for_every_command(self, tmp_path, capsys,
                                                            command, mc):
        cfgfile = write_config(tmp_path, model="ou", theta=-1.0, sigma=1.0, times=[0.5],
                               out_dir=str(tmp_path / "o"), mc=mc)
        assert cli.main([command, "--config", cfgfile]) == 2
        assert "config error: mc " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_times_flag_is_exit_2(self, tmp_path, capsys):
        argv = ["support", "--model", "ou", "--theta", "0", "--sigma", "1",
                "--times", "1,x", "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        assert "config error" in capsys.readouterr().err

    def test_inverted_grid_is_exit_2(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, model="ou", theta=0.0, sigma=1.0,
                               times=[1.0], out_dir=str(tmp_path / "o"),
                               grid={"lo": 2.0, "hi": -2.0, "n": 64})
        assert cli.main(["density", "--config", cfgfile]) == 2
        assert "lo < hi" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_mc_key_is_exit_2(self, tmp_path, capsys):
        cfgfile = write_config(
            tmp_path, model="ou", theta=0.0, sigma=1.0, times=[0.1],
            out_dir=str(tmp_path / "o"), mc={"N": 10, "dt": 1e-2, "n_path": 2})
        assert cli.main(["compare", "--config", cfgfile]) == 2
        err = capsys.readouterr().err
        assert "n_path" in err
        assert "N, dt, t_end, n_paths, allow_near_blowup" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fields", [
        {"times": 1.0},
        {"times": [1.0], "grid": 5},
        {"times": "nan"},
        {"times": [1.0], "svg": "no"},
    ], ids=["times_number", "grid_number", "times_nan", "svg_string"])
    def test_malformed_density_input_is_exit_2(self, tmp_path, capsys, fields):
        cfgfile = write_config(tmp_path, model="ou", theta=0.0, sigma=1.0,
                               out_dir=str(tmp_path / "o"), **fields)
        assert cli.main(["density", "--config", cfgfile]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--times"])
    def test_nan_flag_is_exit_2(self, tmp_path, capsys, flag):
        argv = ["density", "--model", "ou", "--theta", "0", "--sigma", "1",
                "--times", "1", "--out", str(tmp_path / "o"), flag, "nan"]
        assert cli.main(argv) == 2
        assert "finite" in capsys.readouterr().err

    def test_eps0_is_exit_2(self, tmp_path, capsys):
        # density and compare invert at the boundary values; no offset is taken
        cfgfile = write_config(tmp_path, model="ou", theta=0.0, sigma=1.0,
                               times=[1.0], out_dir=str(tmp_path / "o"), eps0=1e-4)
        assert cli.main(["density", "--config", cfgfile]) == 2
        assert "eps0" in capsys.readouterr().err
        argv = ["density", "--model", "ou", "--theta", "0", "--sigma", "1",
                "--times", "1", "--out", str(tmp_path / "o"), "--eps0", "1e-4"]
        assert cli.main(argv) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["-1e-1", "-1E-1", "-10e-2"])
    def test_negative_exponent_flag_value(self, tmp_path, value):
        # argparse alone reads "-1e-1" as an unknown option, not a number
        argv = ["support", "--model", "ou", "--sigma", "1", "--times", "1"]
        assert cli.main(argv + ["--theta", value, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(argv + ["--theta=-0.1", "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "support_ou.csv").read_bytes()
                == (tmp_path / "b" / "support_ou.csv").read_bytes())

    def test_nan_threshold_is_exit_2(self, tmp_path, capsys):
        cfgfile = write_config(
            tmp_path, model="ou", theta=0.0, sigma=1.0, times=[0.1],
            out_dir=str(tmp_path / "o"), mc={"N": 10, "dt": 1e-2, "n_paths": 2})
        argv = ["compare", "--config", cfgfile, "--threshold", "nan"]
        assert cli.main(argv) == 2
        assert "threshold" in capsys.readouterr().err

    def test_string_allow_near_blowup_is_exit_2(self, tmp_path, capsys):
        # "no" used to read as true and switch the blow-up guard off
        cfgfile = write_config(
            tmp_path, model="explosive", k=1.0, a=1.0, times=[0.95],
            out_dir=str(tmp_path / "o"),
            mc={"N": 10, "dt": 0.05, "n_paths": 2, "allow_near_blowup": "no"})
        assert cli.main(["compare", "--config", cfgfile]) == 2
        assert "allow_near_blowup" in capsys.readouterr().err

    def test_non_object_config_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("5")
        assert cli.main(["support", "--config", str(path)]) == 2
        assert "not a JSON object" in capsys.readouterr().err

    # bytes that are not UTF-8, an int literal past Python's int-string limit
    # and nesting past the recursion limit each ended in a traceback, exit 1
    @pytest.mark.parametrize("content", [
        b'\xff\xfe{"model": "ou"}',
        b'{"model": "ou", "theta": ' + b"9" * 5000 + b"}",
        b"[" * 200_000 + b"]" * 200_000,
    ], ids=["not_utf8", "long_int", "deep_nesting"])
    def test_unreadable_config_is_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        argv = ["density", "--config", str(path), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    # a grid field other than lo, hi and n was accepted and ignored
    def test_unknown_grid_key_is_exit_2(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, model="ou", theta=-1.0, sigma=1.0, times=[1.0],
                               out_dir=str(tmp_path / "o"),
                               grid={"lo": -3.0, "hi": 3.0, "n": 2048, "spacing": "cosine"})
        assert cli.main(["density", "--config", cfgfile]) == 2
        err = capsys.readouterr().err
        assert "spacing" in err and "lo, hi, n" in err
        assert not (tmp_path / "o").exists()

    # a config grid sends gbm1 through Newton, which does not converge at
    # every node at t = 20 (the auto grid reads the boundary curve there)
    def test_newton_divergence_is_exit_3(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, model="gbm1", theta=0.0, times=[20.0],
                               grid={"lo": 0.5, "hi": 57.0, "n": 1024},
                               out_dir=str(tmp_path / "o"))
        assert cli.main(["density", "--config", cfgfile]) == 3
        assert "points did not converge at t=20" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_root_off_the_branch_domain_is_exit_3(self, tmp_path, capsys, monkeypatch):
        def off_domain(alpha, t, z):  # Im s < t Im w
            return np.full(z.shape, -1j), np.zeros(z.shape, complex), np.ones(z.shape, bool)
        monkeypatch.setattr(md, "_gbm_newton", off_domain)
        cfgfile = write_config(tmp_path, model="gbm1", theta=0.5, times=[1.0],
                               grid={"lo": 0.0, "hi": 6.0, "n": 64},
                               out_dir=str(tmp_path / "o"))
        assert cli.main(["density", "--config", cfgfile]) == 3
        assert "leaves the domain of the Herglotz branch" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # density reads g on the real axis alone; selftest reads it off the axis
    def test_root_off_the_upper_half_plane_is_exit_3(self, capsys, monkeypatch):
        def real_g(alpha, t, z):  # w = 0 gives Im g = 0
            return np.zeros(z.shape, complex), np.zeros(z.shape, complex), np.ones(z.shape, bool)
        monkeypatch.setattr(md, "_gbm_newton", real_g)
        assert cli.main(["selftest"]) == 3
        out = capsys.readouterr().out
        assert "FAIL herglotz+decay: converged root leaves the upper half plane" in out

    NUMBER_RULE_BASE = {"model": "ou", "theta": -1.0, "sigma": 1.0, "times": [0.1],
                        "seed": 3, "threshold": 1.0,
                        "mc": {"N": 24, "dt": 0.05, "n_paths": 2}}

    # A boolean was read as 0 or 1 and a fractional count was truncated:
    # N = 24.9 ran with N = 24, n_paths = true with one path.
    @pytest.mark.parametrize("key, value", [
        ("mc", {"N": 24.9}), ("mc", {"n_paths": True}), ("seed", 1.5), ("theta", True),
        ("times", [True, 2.0]), ("threshold", True),
        ("grid", {"lo": -3.0, "hi": 3.0, "n": 40.5}),
    ], ids=["mc.N", "mc.n_paths", "seed", "theta", "times", "threshold", "grid.n"])
    def test_boolean_or_fractional_number_is_exit_2(self, tmp_path, capsys, key, value):
        cfg = dict(self.NUMBER_RULE_BASE, out_dir=str(tmp_path / "o"))
        cfg[key] = {**cfg[key], **value} if key == "mc" else value
        assert cli.main(["compare", "--config", write_config(tmp_path, **cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # a JSON string went through float() or int(): "theta": "-1" ran theta = -1
    @pytest.mark.parametrize("key, value, what", [
        ("theta", "-1", "ou theta"), ("seed", "3", "seed"), ("threshold", "1.0", "threshold"),
        ("mc", {"N": "24"}, "mc N"), ("mc", {"t_end": "0.1"}, "mc t_end"),
        ("grid", {"lo": -3.0, "hi": 3.0, "n": "40"}, "grid n"),
        ("times", ["0.1"], "time"), ("times", "0.1", "times needs a list"),
    ], ids=["theta", "seed", "threshold", "mc.N", "mc.t_end", "grid.n", "times-element",
            "times-string"])
    def test_json_string_is_not_a_number(self, tmp_path, capsys, key, value, what):
        cfg = dict(self.NUMBER_RULE_BASE, out_dir=str(tmp_path / "o"))
        cfg[key] = {**cfg[key], **value} if key == "mc" else value
        assert cli.main(["compare", "--config", write_config(tmp_path, **cfg)]) == 2
        assert f"config error: {what}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integral_float_count_is_accepted(self, tmp_path):
        cfg = dict(self.NUMBER_RULE_BASE, out_dir=str(tmp_path))
        cfg["mc"] = dict(cfg["mc"], N=24.0)
        assert cli.main(["compare", "--config", write_config(tmp_path, **cfg)]) == 0
        report = json.loads((tmp_path / "compare_ou.json").read_text())
        assert report["config"]["N"] == 24 and report["snapshots"][0]["n_samples"] == 48

    # out_dir was made before any output existed, and left empty on failure;
    # the curve at t = 1 was written before t = 50 failed its mass check
    @pytest.mark.parametrize("command, fields", [
        ("density", {"model": "gbm1", "theta": 0.0, "times": [50.0]}),
        ("support", {"model": "explosive", "k": 1.0, "a": 1.0, "times": [0.5, 2.0]}),
        ("density", {"model": "gbm1", "theta": 0.0, "times": [1.0, 50.0]}),
    ], ids=["density_gbm1_t50", "support_past_blowup", "density_gbm1_t1_t50"])
    def test_failure_before_first_write_leaves_no_directory(self, tmp_path, capsys,
                                                            command, fields):
        cfgfile = write_config(tmp_path, out_dir=str(tmp_path / "o"), **fields)
        assert cli.main([command, "--config", cfgfile]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # mkdir raised FileExistsError, NotADirectoryError or ValueError: a
    # traceback, exit 1
    @pytest.mark.parametrize("out", ["blocker", "blocker/sub", "nul\0byte"],
                             ids=["file", "below_file", "nul_byte"])
    def test_unwritable_out_dir_is_exit_2(self, tmp_path, capsys, out):
        (tmp_path / "blocker").write_text("keep")
        cfgfile = write_config(tmp_path, model="ou", theta=-1.0, sigma=1.0, times=[1.0],
                               out_dir=str(tmp_path) + "/" + out)
        assert cli.main(["support", "--config", cfgfile]) == 2
        assert "config error: cannot write" in capsys.readouterr().err
        assert (tmp_path / "blocker").read_text() == "keep"

    def test_oversized_grid_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("a grid was built for a refused config")
        monkeypatch.setattr(md.ModelSpec, "density_curve", spy)
        cfgfile = write_config(tmp_path, model="ou", theta=-1.0, sigma=1.0, times=[1.0],
                               grid={"lo": -3.0, "hi": 3.0, "n": cli.MAX_GRID_N + 1},
                               out_dir=str(tmp_path / "o"))
        assert cli.main(["density", "--config", cfgfile]) == 2
        assert str(cli.MAX_GRID_N) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # each grid passed lo < hi, then its nodes collapsed or overflowed and the
    # inversion raised ValueError: a traceback, exit 1
    @pytest.mark.parametrize("grid", [{"lo": 0.0, "hi": 5e-323, "n": 16},
                                      {"lo": -1e308, "hi": 1e308, "n": 16},
                                      {"lo": 1.0, "hi": 1.0000000000000002, "n": 16}],
                             ids=["subnormal", "overflow", "one_ulp"])
    def test_collapsed_grid_is_exit_2(self, tmp_path, capsys, grid):
        cfgfile = write_config(tmp_path, model="ou", theta=-1.0, sigma=1.0, times=[1.0],
                               grid=grid, out_dir=str(tmp_path / "o"))
        assert cli.main(["density", "--config", cfgfile]) == 2
        assert "strictly increase" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # null was written as the directory "None", and 5 as "5"
    @pytest.mark.parametrize("out_dir", [None, 5], ids=["null", "number"])
    def test_non_string_out_dir_is_exit_2(self, tmp_path, capsys, monkeypatch, out_dir):
        monkeypatch.chdir(tmp_path)
        cfgfile = write_config(tmp_path, model="ou", theta=-1.0, sigma=1.0, times=[1.0],
                               out_dir=out_dir)
        assert cli.main(["support", "--config", cfgfile]) == 2
        assert "out_dir must be a string" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    # gbm2 exited 0 and every model with a transform exited 4, whatever its distance
    @pytest.mark.parametrize("model", [{"model": "gbm2", "theta": 0.0},
                                       {"model": "ou", "theta": -1.0, "sigma": 1.0}],
                             ids=["gbm2", "ou"])
    def test_negative_threshold_is_exit_2(self, tmp_path, capsys, model):
        cfgfile = write_config(tmp_path, times=[0.1], threshold=-1.0,
                               out_dir=str(tmp_path / "o"),
                               mc={"N": 8, "dt": 0.05, "n_paths": 2}, **model)
        assert cli.main(["compare", "--config", cfgfile]) == 2
        assert "threshold must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # t = 0 was dropped from the snapshots without a word
    def test_compare_time_zero_is_exit_2(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, model="ou", theta=-1.0, sigma=1.0, times=[0.0, 0.1],
                               out_dir=str(tmp_path / "o"), threshold=1.0,
                               mc={"N": 8, "dt": 0.05, "n_paths": 2})
        assert cli.main(["compare", "--config", cfgfile]) == 2
        assert "strictly positive times" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # grid.n was bounded, but not the nodes summed over a run's times; at the
    # bound the spy is reached (exit 3), one time more is refused before it
    @pytest.mark.parametrize("command, grid", [
        ("density", None), ("compare", None),
        ("density", {"lo": -3.0, "hi": 3.0, "n": 9901}),
        ("compare", {"lo": -3.0, "hi": 3.0, "n": 9901}),
    ], ids=["density_auto", "compare_auto", "density_grid", "compare_grid"])
    def test_total_grid_nodes_bounded(self, tmp_path, capsys, monkeypatch, command, grid):
        def spy(*args, **kwargs):
            raise GridTooCoarse("the spy stands in for the inversion")
        monkeypatch.setattr(md.ModelSpec, "density_curve", spy)
        n = cli.AUTO_GRID_N if grid is None else grid["n"]
        most = cli.MAX_GRID_N // n
        for n_times, code in ((most, 3), (most + 1, 2)):
            extra = {} if grid is None else {"grid": grid}
            cfgfile = write_config(tmp_path, model="ou", theta=-1.0, sigma=1.0,
                                   times=[0.01 * (i + 1) for i in range(n_times)],
                                   out_dir=str(tmp_path / "o"), threshold=1.0,
                                   mc={"N": 4, "dt": 0.01, "n_paths": 1}, **extra)
            assert cli.main([command, "--config", cfgfile]) == code
            err = capsys.readouterr().err
            assert ("spy" in err) if code == 3 else (str(cli.MAX_GRID_N) in err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, theta, sigma", [("moments", -1.0, 1e300),
                                                       ("support", 0.0, 1e308)])
    def test_ou_overflow_is_exit_3(self, tmp_path, capsys, command, theta, sigma):
        # a variance or a support end past a double was once written as inf
        assert cli.main([command, "--model", "ou", "--theta", repr(theta), "--sigma",
                         repr(sigma), "--times", "1", "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_point_mass_has_no_grid(self, tmp_path, capsys):
        # sigma = 0 keeps ou at its initial atom: a zero-width support
        cfgfile = write_config(tmp_path, model="ou", theta=-1.0, sigma=0.0, times=[1.0],
                               out_dir=str(tmp_path / "o"))
        assert cli.main(["density", "--config", cfgfile]) == 3
        assert "has no strictly increasing grid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, fields", [
        ("support", {"model": "gbm1", "theta": 1e308, "times": [1.0]}),
        # no closed form divides by zero on a valid input: a record method that
        # does, which the test patches in
        ("support", {"model": "gbm1", "theta": 0.0, "times": [1.0],
                     "support": lambda self, t: t / 0.0}),
        ("density", {"model": "ou", "theta": 1e308, "sigma": 0.0, "times": [0.05]}),
        ("density", {"model": "gbm1", "theta": 0.0, "times": [1e-30]}),
        ("compare", {"model": "gbm2", "theta": 1e308, "times": [0.05, 0.1]}),
        ("compare", {"model": "gbm1", "theta": 1e100, "times": [0.05]}),
    ], ids=["overflow", "zero_division", "nan_support", "collapsed_grid",
            "mc_eigenvalues", "mc_histogram"])
    def test_numerical_breakdown_is_exit_3(self, tmp_path, capsys, monkeypatch,
                                           command, fields):
        fields = dict(fields)
        if "support" in fields:
            monkeypatch.setattr(md.GeometricBrownian1, "support", fields.pop("support"))
        cfgfile = write_config(tmp_path, out_dir=str(tmp_path / "o"),
                               mc={"N": 4, "dt": 0.05, "n_paths": 2}, **fields)
        assert cli.main([command, "--config", cfgfile]) == 3
        assert "numerical failure" in capsys.readouterr().err


# A valid run of each command, then up to two fields replaced by values
# that are malformed, non-finite, out of range or extreme.  The ou noise
# stays at sigma >= 0.5 so that its density is resolved on the fixed grid;
# sigma = 0 (a point mass, which has no density) is one of the bad values.
_PARAMS = {
    "ou": {"theta": st.floats(-2.0, 2.0), "sigma": st.floats(0.5, 2.0)},
    "gbm1": {"theta": st.floats(-1.0, 1.0)},
    "gbm2": {"theta": st.floats(-1.0, 1.0)},
    "explosive": {"k": st.floats(0.25, 2.0), "a": st.floats(0.25, 2.0)},
}
_BAD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10 ** 400, 0, -1,
                     1e-300, "x", "no", "", None, True, [], {}, [1.0, "x"]]),
    st.floats(-5.0, 5.0))
# Monte Carlo sizes stay small: a large N, n_paths or n_steps is a valid
# (and costly) run, not a malformed one.
_BAD_MC = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, 0, -1, 0.07,
                     "x", "no", "", None, True, [], {}]),
    st.integers(-2, 8))
_BAD_KEYS = ["model", "theta", "sigma", "k", "a", "times", "grid",
             "threshold", "svg", "seed", "mc", "extra"]
_BAD_MC_KEYS = ["mc.N", "mc.dt", "mc.t_end", "mc.n_paths", "mc.allow_near_blowup",
                "mc.extra"]


def _base_config(draw, command, model):
    """A valid config for one command and model."""
    cfg = {"model": model, **{k: draw(v) for k, v in _PARAMS[model].items()}}
    cfg["times"] = sorted(draw(st.sets(st.sampled_from([0.05, 0.1]), min_size=1)))
    if command == "compare":
        cfg["mc"] = {"N": draw(st.integers(2, 8)), "dt": 0.05,
                     "t_end": 0.1, "n_paths": draw(st.integers(1, 3))}
        cfg["threshold"] = draw(st.floats(0.0, 1.0))
    else:
        if draw(st.booleans()):
            cfg["grid"] = {"lo": -3.0, "hi": 3.0, "n": 2048}
        cfg["svg"] = draw(st.booleans())
    return cfg


@st.composite
def _cli_runs(draw):
    """(command, config, flags) for one CLI invocation."""
    command = draw(st.sampled_from(["density", "support", "moments", "compare"]))
    model = draw(st.sampled_from(sorted(_PARAMS)))
    cfg = _base_config(draw, command, model)
    for key in draw(st.lists(st.sampled_from(_BAD_KEYS + _BAD_MC_KEYS), max_size=2)):
        owner, _, field = key.rpartition(".")
        if not owner:
            cfg[field] = draw(_BAD)
        elif isinstance(cfg.setdefault(owner, {}), dict):
            cfg[owner][field] = draw(_BAD_MC)
    flags = []
    for key in draw(st.lists(st.sampled_from(
            ["model", "theta", "times", "threshold", "svg"]), max_size=1)):
        flags += ["--svg"] if key == "svg" else [f"--{key}", str(draw(_BAD))]
    return command, cfg, flags, draw(st.booleans())


def _run_in_tmp(command, cfg, flags=(), out_is_file=False):
    """Run one command with out_dir inside a temporary directory; with
    out_is_file a file already sits at out_dir, so no output can be written."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        cfg["out_dir"] = str(Path(tmp) / "out")
        if out_is_file:
            Path(cfg["out_dir"]).write_text("")
        path.write_text(json.dumps(cfg))
        return cli.main([command, "--config", str(path), *flags])


@st.composite
def _ou_analytic_runs(draw):
    command = draw(st.sampled_from(["density", "support", "moments"]))
    return command, _base_config(draw, command, "ou")


class TestContractProperty:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(_cli_runs())
    def test_exit_code_is_in_contract(self, run):
        command, cfg, flags, out_is_file = run
        assert _run_in_tmp(command, cfg, flags, out_is_file) in (0, 2, 3, 4)

    # The base configs must run, or the property above covers only exit 2.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_ou_analytic_runs())
    def test_valid_ou_config_succeeds(self, run):
        command, cfg = run
        assert _run_in_tmp(command, cfg) == 0


class TestSelftest:
    def test_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out
        assert "PASS characteristics vs closed form" in out
        assert "PASS gbm1 boundary curve vs Newton" in out

    def test_failing_check_is_exit_3_and_the_rest_still_run(self, capsys, monkeypatch):
        ran = []

        def broken():
            ran.append("broken")
            raise AssertionError("deliberately broken")
        checks = [("first", lambda: ran.append("first")), ("broken", broken),
                  ("last", lambda: ran.append("last"))]
        monkeypatch.setattr(cli, "_selftest_checks", lambda: checks)
        assert cli.main(["selftest"]) == 3
        out = capsys.readouterr().out
        assert ran == ["first", "broken", "last"]
        assert "PASS first" in out and "PASS last" in out
        assert "FAIL broken: deliberately broken" in out
        assert "1 check(s) failed" in out and "all checks passed" not in out


class TestFileStamps:
    # "%g" named both files density_ou_t1.csv, so the second replaced the first
    def test_distinct_times_get_distinct_files(self, tmp_path, capsys):
        argv = ["density", "--model", "ou", "--theta", "-1", "--sigma", "1",
                "--times", "1.0000001,1.0000002", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "density_ou_t1p0000001.csv", "density_ou_t1p0000002.csv"]

    # "%g" labelled both curves t=1, on the terminal and in the SVG legend
    def test_distinct_times_get_distinct_labels(self, tmp_path, capsys):
        argv = ["density", "--model", "ou", "--theta", "-1", "--sigma", "1",
                "--times", "1.0000001,1.0000002", "--svg", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "t=1.0000001: mass=" in out and "t=1.0000002: mass=" in out
        legend = re.findall(r">(t=[^<]*)</text>", (tmp_path / "density_ou.svg").read_text())
        assert legend == ["t=1.0000001", "t=1.0000002"]

    @pytest.mark.parametrize("times", ["1,1", "2,1"])
    def test_times_not_strictly_increasing_is_exit_2(self, tmp_path, capsys, times):
        argv = ["density", "--model", "ou", "--theta", "-1", "--sigma", "1",
                "--times", times, "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert "strictly increasing" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_empty_time_is_exit_2(self, tmp_path, capsys):
        argv = ["density", "--model", "ou", "--theta", "-1", "--sigma", "1",
                "--times", "1,,2", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert "time must be a finite float, got ''" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("t", [0.2, 0.4, 0.01, 0.002, 0.25, 0.5, 1.0, 3.0, 1e-5, 1e6])
    def test_stamp_is_g_where_g_is_exact(self, t):
        assert cli._fmt_t(t) == ("%g" % t).replace(".", "p").replace("-", "m")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(0.0, 1e20), st.floats(0.0, 1e20))
    @example(1.0000001, 1.0000002)
    @example(1234567.0, 1234568.0)
    def test_distinct_times_get_distinct_stamps(self, a, b):
        assert (cli._fmt_t(a) == cli._fmt_t(b)) == (a == b)


class TestRuntimeDependencies:
    def test_cli_imports_only_numpy(self):
        code = ("import sys; before = {m.partition('.')[0] for m in sys.modules}; "
                "import freesde.cli; "
                "print(sorted({m.partition('.')[0] for m in sys.modules} - before"
                " - set(sys.stdlib_module_names) - {'freesde'}))")
        proc = run_fresh(code, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['numpy']"

    def test_commands_load_no_test_dependency(self, tmp_path):
        # numpy is the one runtime dependency: selftest and a compare run
        # load nothing from the test extra
        cfgfile = write_config(tmp_path, model="ou", theta=-1.0, sigma=1.0, times=[0.1],
                               out_dir=str(tmp_path / "out"), seed=2, threshold=1.0,
                               mc={"N": 8, "dt": 0.05, "n_paths": 2})
        code = ("import sys; from freesde.cli import main; "
                "codes = [main(['selftest']), main(['compare', '--config', sys.argv[1]])]; "
                "print(codes, sorted({m.partition('.')[0] for m in sys.modules}"
                " & {'scipy', 'hypothesis', 'pytest'}))")
        proc = run_fresh(code, cfgfile, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0] []"

    def test_package_binds_no_public_name_and_loads_no_module(self):
        code = ("import sys, freesde; "
                "print([n for n in vars(freesde) if not n.startswith('_')], "
                "sorted(m for m in sys.modules if m.startswith('freesde.')))")
        proc = run_fresh(code, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[] []"

    @pytest.mark.parametrize("module", ["cauchy", "characteristics", "models", "moments",
                                        "rmt", "cli", "errors"])
    def test_each_module_imports_alone(self, module):
        proc = run_fresh(f"import freesde.{module}", timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_declared_dependencies_are_numpy_alone(self):
        tomllib = pytest.importorskip("tomllib")
        with open(SRC.parent / "pyproject.toml", "rb") as fh:
            deps = tomllib.load(fh)["project"]["dependencies"]
        assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"]


class TestParser:
    def test_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_no_state_leaks_between_runs(self, tmp_path):
        cfgfile = write_config(tmp_path, model="ou", theta=-1.0, sigma=1.0,
                               times=[1.0], out_dir=str(tmp_path / "b"))
        assert cli.main(["density", "--config", cfgfile, "--svg", "--theta", "-0.5",
                         "--out", str(tmp_path / "a")]) == 0
        assert (tmp_path / "a" / "density_ou.svg").exists()
        assert cli.main(["density", "--config", cfgfile]) == 0
        assert not (tmp_path / "b" / "density_ou.svg").exists()
        expected = md.OrnsteinUhlenbeck(-1.0, 1.0).density_curve(1.0)
        assert (tmp_path / "b" / "density_ou_t1.csv").read_text() == expected.to_csv()
        assert (tmp_path / "a" / "density_ou_t1.csv").read_text() != expected.to_csv()


class TestCsvContract:
    """Each row is its values in 17-significant-digit %g, comma-separated, LF-ended."""

    EDGES = [-1e308, -2.5, 0.0, 5e-324, 0.1 + 0.2, 1 / 3, 1e308]

    def test_density_rows(self):
        ps = [0.0, 1 / 3, 0.1 + 0.2, 1.0, 5e-324, 0.5, 0.0]
        curve = cauchy.DensityCurve.from_samples(self.EDGES, ps)
        expected = "x,p\n" + "".join("%.17g,%.17g\n" % row for row in zip(self.EDGES, ps))
        assert curve.to_csv() == expected
        assert "\n4.9406564584124654e-324,1\n" in expected and "\n0.30000000000000004," in expected

    def test_histogram_rows(self):
        counts = [0, 3, 2 ** 40, 1, 7, 2]
        hist = rmt.EigenHistogram(time=1.0, samples=np.zeros(1),
                                  bin_edges=np.array(self.EDGES), counts=np.array(counts))
        expected = "bin_lo,bin_hi,count\n" + "".join(
            "%.17g,%.17g,%d\n" % row for row in zip(self.EDGES, self.EDGES[1:], counts))
        assert hist.to_csv() == expected
        assert "\n0.33333333333333331,1e+308,2\n" in expected

    TIMES = [0.0, 0.1 + 0.2, 1 / 3, 2.5]

    def test_support_rows(self, tmp_path):
        cfgfile = write_config(tmp_path, model="ou", theta=-1.0, sigma=1.0,
                               times=self.TIMES, out_dir=str(tmp_path))
        assert cli.main(["support", "--config", cfgfile]) == 0
        sups = [md.OrnsteinUhlenbeck(-1.0, 1.0).support(t) for t in self.TIMES]
        expected = "t,lo,hi\n" + "".join(
            "%.17g,%.17g,%.17g\n" % (t, s.lo, s.hi) for t, s in zip(self.TIMES, sups))
        assert (tmp_path / "support_ou.csv").read_text() == expected
        assert expected.startswith("t,lo,hi\n0,0,0\n0.30000000000000004,")

    @pytest.mark.parametrize("spec", [md.OrnsteinUhlenbeck(-1.0, 1.0), md.GeometricBrownian1(0.5)],
                             ids=lambda spec: spec.tag)
    def test_moments_rows(self, tmp_path, spec):
        cfgfile = write_config(tmp_path, **md.model_to_json(spec), times=self.TIMES,
                               out_dir=str(tmp_path))
        assert cli.main(["moments", "--config", cfgfile]) == 0
        rows = []
        for t in self.TIMES:
            mean, m2 = spec.moments(t)
            var = m2 - mean ** 2
            ratio = math.sqrt(max(var, 0.0)) / mean if mean else math.nan
            rows.append((t, mean, m2, var, ratio))
        expected = "t,mean,second_moment,variance,std_over_mean\n" + "".join(
            "%.17g,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)
        assert (tmp_path / f"moments_{spec.tag}.csv").read_text() == expected
        if spec.tag == "ou":
            assert expected.endswith(",nan\n") and expected.count(",nan\n") == 4


    @pytest.mark.parametrize("fields, times", [
        ({"model": "ou", "theta": -1.0, "sigma": 1.0}, [0.25, 0.5, 1.0, 2.0, 4.0]),
        ({"model": "explosive", "k": 1.0, "a": 1.0}, [0.2, 0.4, 0.6, 0.7, 0.8]),
    ], ids=["ou", "explosive"])
    def test_density_has_no_negative_zero(self, tmp_path, fields, times):
        # the clamp of negative density once kept -0.0, written as "-0"
        cfgfile = write_config(tmp_path, **fields, times=times, out_dir=str(tmp_path))
        assert cli.main(["density", "--config", cfgfile]) == 0
        paths = sorted(tmp_path.glob("density_*.csv"))
        assert len(paths) == len(times)
        for path in paths:
            assert "-0" not in re.split("[,\n]", path.read_text())


class TestSvgWriter:
    def test_structure(self):
        xs = np.linspace(0, 1, 20)
        svg = cli.polyline_svg([(xs, xs ** 2, "sq"), (xs, xs, "id")], title="demo")
        assert svg.count("<polyline") == 2
        assert "demo" in svg
