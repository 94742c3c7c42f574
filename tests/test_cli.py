"""Command-line front end: config validation, exit codes, determinism."""
import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

import pwlrotor as pr
from pwlrotor import cli
from pwlrotor.backend import LOCKSTEP_LANES

README = Path(__file__).resolve().parent.parent / "README.md"

HERMAN = {"family": "herman_shifted", "params": {"lam": 1.4142135623730951}}
OFFSET = {"family": "herman_offset", "params": {"lam": "1/2", "d": "1/50"}}
OFFSET_FLOAT = {"family": "herman_offset", "params": {"lam": 0.5, "d": 0.02}}
OFFSET_PLANE = {"family": "herman_offset", "params": {"lam": "1/2", "d": "0"}}
REFR_LOCKED = {"family": "refraction", "params": {"alpha": 2.0, "beta": 1.14}}


def run_cli(tmp_path, command, config, *extra, timeout=300):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "pwlrotor.cli", command, "--config", str(cfg), *extra],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


def readme_jobs():
    """The README's example job files, paired with their subcommands."""
    text = README.read_text(encoding="utf-8")
    intro = "Example job files (for `rho`, `conjugacy`, and `sweep` respectively):"
    assert intro in text
    blocks = re.findall(r"```json\n(.*?)```", text.split(intro, 1)[1], re.S)
    return list(zip(("rho", "conjugacy", "sweep"), blocks))


#: SHA-256 of the README sweep job's CSV, as one orbit per call printed it.
README_SWEEP_SHA256 = "d06353621a4c585c721988f8394ada795fc0518151616078906a6c23ef7cd2cd"
#: SHA-256 of the README rho and conjugacy jobs' JSON, as each result's own
#: hand-written encoder printed it.
README_JSON_SHA256 = {
    "rho": "146dea3c050cd1e93f280b7ed7057f6fc16d33c9c2e5fe4393f4b8ac9c5c0b7a",
    "conjugacy": "a77af302a90c84964c865d7fb4c68ac2b9a8139c6745ffc6955fe0371bf50d38",
}


class TestReadmeJobs:
    @pytest.mark.parametrize("command, job", readme_jobs(), ids=["rho", "conjugacy", "sweep"])
    def test_example_job_runs(self, tmp_path, command, job):
        cfg = tmp_path / "job.json"
        cfg.write_text(job)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "-o", str(out)]) == 0
        assert out.read_text()
        want = README_SWEEP_SHA256 if command == "sweep" else README_JSON_SHA256[command]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        proc = run_cli(tmp_path, "rho", {"family": HERMAN, "mu": 0.0, "typo": 1})
        assert proc.returncode == 2
        assert "typo" in proc.stderr

    def test_conjugacy_takes_no_orbit_tolerance(self, tmp_path):
        # the closure tolerance is fixed by the backend, not by the job
        proc = run_cli(tmp_path, "conjugacy", {"family": HERMAN, "mu": 0.0, "orbit_tol": 1e-9})
        assert proc.returncode == 2
        assert "orbit_tol" in proc.stderr

    def test_missing_required_key(self, tmp_path):
        proc = run_cli(tmp_path, "rho", {"family": HERMAN})
        assert proc.returncode == 2

    def test_unknown_family(self, tmp_path):
        proc = run_cli(tmp_path, "rho", {"family": {"family": "arnold", "params": {}},
                                         "mu": 0.0})
        assert proc.returncode == 2

    def test_out_of_domain_parameter(self, tmp_path):
        cfg = {"family": {"family": "refraction", "params": {"alpha": 2.0, "beta": 1.2}},
               "mu": -0.5}
        proc = run_cli(tmp_path, "rho", cfg)
        assert proc.returncode == 2

    @pytest.mark.parametrize("command, cfg", [
        ("rho", {"family": HERMAN, "mu": "abc"}),
        ("rho", {"family": HERMAN, "mu": None}),
        ("rho", {"family": HERMAN, "mu": [0, 1]}),
        ("rho", {"family": HERMAN, "mu": "1/0"}),
        ("rho", {"family": HERMAN, "mu": True}),
        ("rho", {"family": {"family": "herman_shifted", "params": {"lam": "1/0"}}, "mu": 0}),
        ("modelock", {"family": OFFSET, "p": 1, "q": 2, "bracket": ["x", 0.1]}),
        ("pinch", {"family": OFFSET_PLANE, "p": 1, "q": 2, "d_grid": [None],
                   "mu_bracket": ["-1/20", "1/20"]}),
        ("modelock", {"family": OFFSET_FLOAT, "p": 1, "q": 2, "bracket": [-0.05, 0.05],
                      "tol": float("nan")}),
        ("modelock", {"family": OFFSET_FLOAT, "p": 1, "q": 2, "bracket": [-0.05, 0.05],
                      "tol": float("inf")}),
    ], ids=["text", "null", "array", "zero-denominator", "bool", "family-param",
            "bracket", "d_grid", "nan", "infinity"])
    def test_malformed_scalar_exits_2(self, tmp_path, command, cfg):
        proc = run_cli(tmp_path, command, cfg, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, cfg", [
        ("modelock", {"family": OFFSET, "p": 1, "q": 2, "bracket": ["-1/20", "1/20"],
                      "tol": 0}),
        ("modelock", {"family": OFFSET_FLOAT, "p": 1, "q": 2, "bracket": [-0.05, 0.05],
                      "tol": -1}),
        ("modelock", {"family": OFFSET_FLOAT, "p": 1, "q": 2, "bracket": [-0.05, 0.05],
                      "tol": "1/1" + "0" * 400}),
        ("pinch", {"family": {"family": "herman_offset", "params": {"lam": 0.5, "d": 0}},
                   "p": 1, "q": 2, "d_grid": [0], "mu_bracket": [-0.05, 0.05],
                   "tol": "1/1" + "0" * 400}),
        ("pinch", {"family": OFFSET_PLANE, "p": 1, "q": 2, "d_grid": ["0"],
                   "mu_bracket": ["-1/20", "1/20"], "tol": 0}),
        ("scaling", {"family": HERMAN, "mu_c": 0.0, "m_fit": 10**4, "window": 0}),
        ("scaling", {"family": HERMAN, "mu_c": 0.0, "m_fit": 10**4, "window": -0.01}),
        ("scaling", {"family": HERMAN, "mu_c": 0.0, "m_fit": 10**4, "h_fit": "-1/1000"}),
    ], ids=["modelock-exact-tol-0", "modelock-float-tol-neg", "modelock-float-tol-rounds-to-0",
            "pinch-float-tol-rounds-to-0", "pinch-tol-0",
            "window-0", "window-neg", "h_fit-neg"])
    def test_non_positive_width_exits_2(self, tmp_path, command, cfg):
        # a bisection to a width <= 0 never ends, hence the timeout
        proc = run_cli(tmp_path, command, cfg, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "must be positive" in proc.stderr

    def test_csv_refused_for_non_tabular_commands(self, tmp_path):
        proc = run_cli(tmp_path, "rho", {"family": HERMAN, "mu": 0.0}, "--format", "csv")
        assert proc.returncode == 2


class TestRho:
    def test_reports_certificate_and_enclosure(self, tmp_path):
        proc = run_cli(tmp_path, "rho", {"family": HERMAN, "mu": 0.0, "m": 10000})
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["rotation"]["kind"] == "exact"
        assert (out["rotation"]["p"], out["rotation"]["q"]) == (1, 2)
        assert out["rotation"]["iterations"] == 1  # the mediant 1/2
        assert out["birkhoff"]["lo"] <= 0.5 <= out["birkhoff"]["hi"]

    def test_float_job_keeps_exact_farey_bounds(self, tmp_path):
        # a float-backend search stopped at q_max still encloses rho between
        # two fractions, and they print as "p/q", not as floats
        proc = run_cli(tmp_path, "rho", {"family": HERMAN, "mu": 0.013, "q_max": 7})
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["rotation"]["kind"] == "enclosure"
        assert (out["rotation"]["lo"], out["rotation"]["hi"]) == ("1/2", "4/7")
        assert isinstance(out["birkhoff"]["lo"], float)

    def test_output_file(self, tmp_path):
        out = tmp_path / "rho.json"
        proc = run_cli(tmp_path, "rho", {"family": HERMAN, "mu": 0.0, "m": 1000},
                       "-o", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["birkhoff"]["iterations"] == 1000


class TestConjugacy:
    def test_conjugate_point_reports_h_and_density(self, tmp_path):
        proc = run_cli(tmp_path, "conjugacy", {"family": HERMAN, "mu": 0.0})
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["verdict"]["verdict"] == "conjugate"
        assert "h" in out and "invariant_density" in out

    @pytest.mark.parametrize(
        "rho, breaks, values",
        [
            (Fr(10, 17), [Fr(13, 97), Fr(18, 97)], [Fr(43, 97), Fr(139, 97)]),
            (Fr(31, 33), [Fr(34, 101), Fr(41, 101), Fr(42, 101)],
             [Fr(57, 101), Fr(2049, 2020), Fr(1479, 1010)]),
        ],
        ids=["10_17", "31_33"],
    )
    def test_density_comes_from_the_certified_partition(self, tmp_path, rho, breaks, values):
        # a float custom map h^-1 o R_rho o h: the verdict's partition
        # carries the density, so no second certificate can contradict it
        h = pr.make_lift(breaks, values)
        f = pr.compose(pr.invert(h), pr.compose(pr.rigid(rho), h))
        breaks, values = [float(b) for b in f.breaks], [float(v) for v in f.values]
        family = {"family": "custom", "params": {"mu": [0, 1], "breaks": [breaks, breaks],
                                                 "values": [values, values]}}
        proc = run_cli(tmp_path, "conjugacy", {"family": family, "mu": 0})
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert (out["verdict"]["p"], out["verdict"]["q"]) == (rho.numerator, rho.denominator)
        dens = out["invariant_density"]
        exact = pr.invariant_density(f)
        assert dens["backend"] == "float" and len(dens["cuts"]) == len(exact.cuts)
        for c, d, ec, ed in zip(dens["cuts"], dens["densities"], exact.cuts, exact.values):
            assert abs(c - ec) <= 1e-12 and abs(d - ed) <= 1e-9 * ed

    def test_h_slopes_are_the_density(self, tmp_path):
        # an exact map with two break orbits: h is the distribution function
        # of the invariant measure, so its slopes are the density beside it
        h = pr.make_lift([Fr(13, 97), Fr(18, 97)], [Fr(43, 97), Fr(139, 97)])
        f = pr.compose(pr.invert(h), pr.compose(pr.rigid(Fr(10, 17)), h))
        breaks, values = [str(b) for b in f.breaks], [str(v) for v in f.values]
        family = {"family": "custom", "params": {"mu": [0, 1], "breaks": [breaks, breaks],
                                                 "values": [values, values]}}
        proc = run_cli(tmp_path, "conjugacy", {"family": family, "mu": 0})
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert len(out["verdict"]["partition"]["orbits"]) == 2
        phi = pr.canonicalize(pr.make_lift([Fr(b) for b in out["h"]["breaks"]],
                                           [Fr(v) for v in out["h"]["values"]]))
        dens = out["invariant_density"]
        assert phi.breaks == tuple(Fr(c) for c in dens["cuts"])
        assert phi.slopes == tuple(Fr(d) for d in dens["densities"])

    def test_non_conjugate_point_is_still_a_valid_answer(self, tmp_path):
        proc = run_cli(tmp_path, "conjugacy", {"family": REFR_LOCKED, "mu": 0.0})
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["verdict"]["verdict"] == "not_conjugate"
        assert "h" not in out


class TestScaling:
    def test_scaling_at_conjugacy_point(self, tmp_path):
        cfg = {"family": HERMAN, "mu_c": 0.0, "m_fit": 10**5, "residual": False}
        proc = run_cli(tmp_path, "scaling", cfg)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert abs(out["scaling"]["R1"] - 1.0303300858899107) < 1e-9
        assert "residual" not in out

    def test_scaling_off_the_conjugacy_point_exits_4(self, tmp_path):
        proc = run_cli(tmp_path, "scaling",
                       {"family": HERMAN, "mu_c": 0.05, "m_fit": 10**4})
        assert proc.returncode == 4

    def test_h_fit_accepts_an_exact_string(self, tmp_path):
        cfg = {"family": HERMAN, "mu_c": 0.0, "m_fit": 10**4, "residual": False}
        exact = run_cli(tmp_path, "scaling", {**cfg, "h_fit": "1/1000"})
        assert exact.returncode == 0, exact.stderr
        assert exact.stdout == run_cli(tmp_path, "scaling", {**cfg, "h_fit": 0.001}).stdout

    @pytest.mark.parametrize("residual", ["false", 0, None])
    def test_residual_must_be_a_boolean(self, tmp_path, residual):
        cfg = {"family": HERMAN, "mu_c": 0.0, "m_fit": 10**4, "residual": residual}
        proc = run_cli(tmp_path, "scaling", cfg, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "residual must be true or false" in proc.stderr

    def test_residual_block_on_by_default(self, tmp_path):
        cfg = {"family": HERMAN, "mu_c": 0.0, "m_fit": 10**5,
               "window": 1e-2, "samples": 6}
        proc = run_cli(tmp_path, "scaling", cfg)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["residual"]["r2"] > 0


class TestModelock:
    def test_interval_reported(self, tmp_path):
        cfg = {"family": {"family": "herman_offset",
                          "params": {"lam": "1/2", "d": "1/50"}},
               "p": 1, "q": 2, "bracket": ["-1/20", "1/20"]}
        proc = run_cli(tmp_path, "modelock", cfg)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["p"] == 1 and out["q"] == 2

    def test_reversed_bracket_gives_the_ordered_answer(self, tmp_path, capsys):
        # the lock is [0, 1/100], not the width-zero pinch of an unordered bracket
        outs = []
        for bracket in (["-1/20", "1/20"], ["1/20", "-1/20"]):
            cfg = {"family": OFFSET, "p": 1, "q": 2, "bracket": bracket}
            code, out, _ = main_on(tmp_path, capsys, "modelock", cfg)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        out = json.loads(outs[0])
        assert (out["lo"], out["hi"], out["width"]) == ("0", "1/100", "1/100")

    def test_not_bracketed_exits_5(self, tmp_path):
        cfg = {"family": {"family": "herman_offset",
                          "params": {"lam": "1/2", "d": "1/50"}},
               "p": 1, "q": 3, "bracket": ["-1/100", "1/100"]}
        proc = run_cli(tmp_path, "modelock", cfg)
        assert proc.returncode == 5


class TestPrecisionLoss:
    def test_float_collapse_exits_3_not_2(self, tmp_path):
        # refraction(2, beta_c) is 5/6-locked at mu = -0.1; its float F^512
        # collapses there, so the first bisection probe loses precision.
        cfg = {"family": {"family": "refraction",
                          "params": {"alpha": 2.0, "beta": 1.2360679774997898}},
               "p": 427, "q": 512, "bracket": [-0.1, -0.09]}
        proc = run_cli(tmp_path, "modelock", cfg)
        assert proc.returncode == 3
        assert "precision" in proc.stderr


class TestSizeLimit:
    def test_exact_result_too_long_to_print_exits_3(self, tmp_path, capsys):
        # The exact Birkhoff end point of 10^5 steps has a denominator of
        # far more than 4300 digits, Python's integer-to-string limit.
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"family": {"family": "herman_shifted",
                                              "params": {"lam": "3/2"}}, "mu": "-4/25"}))
        assert cli.main(["rho", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "size limit exceeded" in captured.err


class TestSweep:
    CFG = {"family": HERMAN, "mu_min": -0.05, "mu_max": 0.05,
           "points": 9, "m": 2000}

    def test_csv_shape(self, tmp_path):
        proc = run_cli(tmp_path, "sweep", self.CFG)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert lines[0].startswith("#") and "backend=" in lines[0] and "seed=" in lines[0]
        assert lines[1].split(",")[0] == "mu"
        assert len(lines) == 2 + 9

    def test_byte_identical_across_worker_counts(self, tmp_path):
        outs = []
        for workers in ("1", "2", "3"):
            p = run_cli(tmp_path, "sweep", self.CFG, "--workers", workers)
            assert p.returncode == 0, p.stderr
            outs.append(p.stdout)
        assert outs[0] == outs[1] == outs[2]

    def test_no_more_workers_than_points(self, tmp_path, monkeypatch):
        # a stand-in pool records its size and maps inline: no process starts
        sizes = []

        class InlinePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=None):
                return [fn(item) for item in items]

        monkeypatch.setattr("multiprocessing.Pool", InlinePool)
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(dict(self.CFG, points=3)))
        outs = []
        for workers in ("64", "1"):
            out = tmp_path / ("workers-%s.csv" % workers)
            assert cli.main(["sweep", "--config", str(cfg), "--workers", workers,
                             "-o", str(out)]) == 0
            outs.append(out.read_text())
        assert sizes == [3]
        assert outs[0] == outs[1]

    def test_json_format(self, tmp_path):
        proc = run_cli(tmp_path, "sweep", self.CFG, "--format", "json")
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)["rows"]
        assert len(rows) == 9

    def test_blank_rows_survive_batching(self, tmp_path):
        # refraction needs beta + mu > 1: the first quarter of the grid has
        # no lift.  One worker runs the rest in lock-step; two and three
        # workers split it into chunks on both sides of LOCKSTEP_LANES.
        points = 2 * LOCKSTEP_LANES + 1
        cfg = {"family": {"family": "refraction", "params": {"alpha": 2.0, "beta": 1.2}},
               "mu_min": -0.3, "mu_max": 0.1, "points": points, "m": 1000}
        outs = []
        for workers in ("1", "2", "3"):
            p = run_cli(tmp_path, "sweep", cfg, "--workers", workers)
            assert p.returncode == 0, p.stderr
            outs.append(p.stdout)
        assert outs[0] == outs[1] == outs[2]
        lines = outs[0].splitlines()
        assert lines[0] == ("# pwl-rotor sweep backend=float eps_x=1e-12 eps_s=1e-10 "
                            "decision_band=1e-10 m=1000 points=%d seed=none" % points)
        step = (0.1 - -0.3) / (points - 1)  # as cmd_sweep builds the grid
        blank = [line.endswith(",,") for line in lines[2:]]
        assert blank == [not (1.2 + (-0.3 + i * step) > 1) for i in range(points)]
        assert 0 < sum(blank) < points - LOCKSTEP_LANES
        assert p.stderr.count("OutOfDomain: refraction needs beta + mu > 1") == sum(blank)

    def test_float_start_in_an_exact_family_exits_2(self, tmp_path):
        # refused once, before the grid is chunked, as rho refuses it
        cfg = {"family": {"family": "herman_shifted", "params": {"lam": "3/2"}},
               "mu_min": "-1/20", "mu_max": "1/20", "points": 5, "m": 100, "x0": 0.25}
        for workers in ("1", "2"):
            proc = run_cli(tmp_path, "sweep", cfg, "--workers", workers)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr.count("BackendMismatch") == 1
            assert "sweep point" not in proc.stderr

    def test_midpoints_non_decreasing(self, tmp_path):
        proc = run_cli(tmp_path, "sweep", self.CFG)
        mids = []
        for line in proc.stdout.strip().split("\n")[2:]:
            _, lo, hi = line.split(",")
            mids.append((float(lo) + float(hi)) / 2)
        assert all(a <= b for a, b in zip(mids, mids[1:]))


class TestPinch:
    def test_csv_rows(self, tmp_path):
        cfg = {"family": {"family": "herman_offset", "params": {"lam": "1/2", "d": "0"}},
               "p": 1, "q": 2, "d_grid": ["-1/100", "0", "1/100"],
               "mu_bracket": ["-1/20", "1/20"]}
        proc = run_cli(tmp_path, "pinch", cfg)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1].split(",")[:3] == ["d", "mu_lo", "mu_hi"]
        assert len(lines) == 2 + 3

    def test_family_d_must_be_zero(self, tmp_path):
        # pinch sweeps d over d_grid; a d set in the family would be ignored
        cfg = {"family": {"family": "herman_offset", "params": {"lam": "1/2", "d": "1/50"}},
               "p": 1, "q": 2, "d_grid": ["0"], "mu_bracket": ["-1/20", "1/20"]}
        proc = run_cli(tmp_path, "pinch", cfg)
        assert proc.returncode == 2
        assert "pinch sweeps d over d_grid" in proc.stderr

    def test_requires_the_offset_family(self, tmp_path):
        cfg = {"family": HERMAN, "p": 1, "q": 2,
               "d_grid": ["0"], "mu_bracket": ["-1/20", "1/20"]}
        proc = run_cli(tmp_path, "pinch", cfg)
        assert proc.returncode == 2


class TestGlobalFlags:
    def test_backend_override(self, tmp_path):
        # rational scalars serialise as "p/q" strings, floats as numbers
        cfg = {"family": {"family": "coelho", "params": {"a": "1/3", "b": "1/3"}},
               "mu": 0, "m": 1000}
        exact = run_cli(tmp_path, "rho", cfg)
        assert exact.returncode == 0, exact.stderr
        assert isinstance(json.loads(exact.stdout)["birkhoff"]["lo"], str)
        floated = run_cli(tmp_path, "rho", cfg, "--backend", "float")
        assert floated.returncode == 0, floated.stderr
        assert isinstance(json.loads(floated.stdout)["birkhoff"]["lo"], float)

    def test_log_env_does_not_pollute_stdout(self, tmp_path):
        import os
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"family": HERMAN, "mu": 0.0, "m": 1000}))
        env = dict(os.environ, PWL_ROTOR_LOG="debug")
        proc = subprocess.run(
            [sys.executable, "-m", "pwlrotor.cli", "rho", "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        json.loads(proc.stdout)  # still clean JSON


def main_on(tmp_path, capsys, command, config, *extra):
    """``cli.main`` in this process on ``config`` (an object, or raw job
    text): ``(exit code, stdout, stderr)``."""
    cfg = tmp_path / "job.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    code = cli.main([command, "--config", str(cfg), *extra])
    out, err = capsys.readouterr()
    return code, out, err


class TestExitsInProcess:
    """Refusals and output forms that no subprocess test reaches."""

    def test_float_orbits_closer_than_the_band_are_undecided(self, tmp_path, capsys):
        # h^-1 o R_{2/3} o h for h through (1/3, 1/5), (1/3 + 1e-10, 1/2),
        # (3/4, 4/5), in floats: F^3 is x + 2 to eps_x, but the orbit of
        # break 1 walked forward misses itself by 2.4e-7
        breaks = [0.041666666666666664, 0.2361111111111111, 0.3333333333333333,
                  0.3333333334333333, 0.3796296297185185, 0.75, 0.7986111111111112]
        values = [0.5648148148592592, 0.75, 0.8472222222222222, 1.2847222222222223,
                  1.3333333333333333, 1.3333333334222222, 1.3333333334333333]
        family = {"family": "custom", "params": {"mu": [0, 1], "breaks": [breaks, breaks],
                                                 "values": [values, values]}}
        code, out, err = main_on(tmp_path, capsys, "conjugacy", {"family": family, "mu": 0})
        assert code == 0, err
        verdict = json.loads(out)["verdict"]
        assert verdict["verdict"] == "undecided"
        assert "walked forward moves it by -2.4" in verdict["reason"]
        assert verdict["enclosure"]["q"] == 3 and "h" not in json.loads(out)

    @pytest.mark.parametrize("text, message", [
        ("{", "is not valid JSON"),
        ("[1]", "config root must be a JSON object"),
        (json.dumps({"family": HERMAN, "mu": 0.0, "m": 0}), "m must be an integer >= 1"),
        (json.dumps({"family": HERMAN, "mu": 0.0, "m": 1.5}), "m must be an integer >= 1"),
    ], ids=["json", "root", "m-zero", "m-float"])
    def test_bad_job_file_exits_2(self, tmp_path, capsys, text, message):
        code, out, err = main_on(tmp_path, capsys, "rho", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("family, message", [
        ({**HERMAN, "backend": 5}, "unknown backend tag 5"),
        ({**HERMAN, "backend": ["float"]}, "unknown backend tag ['float']"),
        ({"family": "herman_shifted", "params": {"lam": True}}, "param 'lam' must be a number"),
        ({"family": "herman", "params": {"lam": 1.5, "beta": True}}, "param 'beta' must be a"),
        ({"family": "custom", "params": {"mu": [0, 1], "breaks": [[0], [0]],
                                         "values": [[0.5], [0.5]], "increasing": "yes"}},
         "param 'increasing' must be a boolean"),
    ], ids=["backend-int", "backend-list", "lam-bool", "beta-bool", "increasing-text"])
    def test_malformed_family_exits_2(self, tmp_path, capsys, family, message):
        code, out, err = main_on(tmp_path, capsys, "rho", {"family": family, "mu": 0.0})
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_missing_job_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["rho", "--config", str(tmp_path / "absent.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_workers_below_one_exits_2(self, tmp_path, capsys):
        code, out, err = main_on(tmp_path, capsys, "rho", {"family": HERMAN, "mu": 0.0},
                                 "--workers", "0")
        assert (code, out, err) == (2, "", "error: --workers must be >= 1\n")

    def test_bracket_must_be_a_pair(self, tmp_path, capsys):
        cfg = {"family": OFFSET, "p": 1, "q": 2, "bracket": ["1/20"]}
        code, _, err = main_on(tmp_path, capsys, "modelock", cfg)
        assert code == 2 and "bracket must be a two-element array" in err

    def test_reversed_sweep_range_exits_2(self, tmp_path, capsys):
        cfg = {"family": HERMAN, "mu_min": 0.05, "mu_max": -0.05, "points": 3, "m": 100}
        code, _, err = main_on(tmp_path, capsys, "sweep", cfg)
        assert code == 2 and "mu_max must be >= mu_min" in err

    def test_one_point_sweep(self, tmp_path, capsys):
        cfg = {"family": HERMAN, "mu_min": 0.0, "mu_max": 0.05, "points": 1, "m": 100}
        code, out, _ = main_on(tmp_path, capsys, "sweep", cfg)
        lines = out.splitlines()
        assert code == 0 and len(lines) == 3 and lines[2].startswith("0.0,")

    def test_empty_d_grid_exits_2(self, tmp_path, capsys):
        cfg = {"family": OFFSET_PLANE, "p": 1, "q": 2, "d_grid": [],
               "mu_bracket": ["-1/20", "1/20"]}
        code, _, err = main_on(tmp_path, capsys, "pinch", cfg)
        assert code == 2 and "d_grid must be a non-empty array" in err

    def test_pinch_json(self, tmp_path, capsys):
        cfg = {"family": OFFSET_PLANE, "p": 1, "q": 2, "d_grid": ["0"],
               "mu_bracket": ["-1/10", "1/10"]}
        code, out, _ = main_on(tmp_path, capsys, "pinch", cfg, "--format", "json")
        rep = json.loads(out)
        assert code == 0 and rep["width_at_zero"] == "0" and len(rep["rows"]) == 1

    @pytest.mark.parametrize("lam, zero, one", [("1/2", "0", "1"), (0.5, 0.0, 1.0)],
                             ids=["exact", "float"])
    def test_integer_scalars_print_in_the_backend(self, tmp_path, capsys, lam, zero, one):
        # a JSON integer is a scalar of the job's backend: "p/q" when exact,
        # a float otherwise, in rho as in conjugacy
        family = {"family": "herman_shifted", "params": {"lam": lam}}
        for command in ("rho", "conjugacy"):
            code, out, _ = main_on(tmp_path, capsys, command, {"family": family, "mu": 0})
            assert code == 0 and json.loads(out)["mu"] == zero
        cfg = {"family": {"family": "herman_offset", "params": {"lam": lam, "d": 0}},
               "p": 1, "q": 2, "d_grid": [0], "mu_bracket": [-1, 1]}
        code, out, _ = main_on(tmp_path, capsys, "pinch", cfg, "--format", "json")
        rep = json.loads(out)
        assert code == 0 and rep["rows"][0]["d"] == zero and rep["bracket"][1] == one
