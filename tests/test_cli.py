"""Command-line driver: exit codes, config handling, determinism."""

import argparse
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import vortexkit
from vortexkit import cli, orthopoly
from vortexkit.backgrounds import NewtonResult


def run(argv):
    return cli.main(argv)


def strict_json(path):
    """The report at path, parsed so that NaN, Infinity and -Infinity raise."""
    def refuse(token):
        raise ValueError(f"non-finite token {token} in {path.name}")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestParameterTable:
    """Flags and config values take their type from the parameter's default."""

    def test_flags_and_types_unchanged(self):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        # argparse passes the string through when type is None
        flags = {command: [(a.option_strings, a.dest, a.type or str) for a in p._actions if a.dest != "help"]
                 for command, p in sub.choices.items()}
        assert flags == {
            "zeros": [(["--family"], "family", str), (["--n"], "n", int), (["--alpha"], "alpha", float),
                      (["--beta"], "beta", float)],
            "equilibrium": [(["--family"], "family", str), (["--n"], "n", int), (["--l"], "l", float),
                            (["--p"], "p", float), (["--q"], "q", float)],
            "simulate": [(["--t-end"], "t_end", float), (["--samples"], "samples", int)],
            "laughlin": [(["--N"], "N", int), (["--m-exp"], "m_exp", int), (["--l-B"], "l_B", float)],
            "beam": [(["--p"], "p", int), (["--ell"], "ell", int), (["--w0"], "w0", float),
                     (["--grid"], "grid", int), (["--slices"], "slices", int)],
        }

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "samples", 1.5),
        ("equilibrium", "n", 5.5),
        ("laughlin", "max_iter", 2.5),
        ("beam", "grid", 256.5),
        ("simulate", "samples", True),
        ("zeros", "alpha", "1.5"),
        ("beam", "save_fields", 1),
        # no step would be taken, and that used to read as an exhausted step budget (exit 3)
        ("simulate", "max_steps", 0),
        ("simulate", "max_steps", -5),
    ], ids=["fractional_samples", "fractional_n", "fractional_max_iter", "fractional_grid", "bool_samples",
            "string_alpha", "int_save_fields", "zero_max_steps", "negative_max_steps"])
    def test_ill_typed_or_invalid_value_exit_2(self, tmp_path, capsys, command, key, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({command: {key: value}}))
        assert run(["--config", str(config), "--out", str(tmp_path), command]) == 2
        assert key in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command, section, key", [
        ("simulate", {"positions": [[1.0, "a"], [2.0, 0.0]]}, "positions"),
        ("simulate", {"strengths": [1.0, True]}, "strengths"),
        ("beam", {"z_total": [1.0]}, "z_total"),
        ("equilibrium", {"family": "custom", "n": 3, "poly": ["a"]}, "poly"),
        ("simulate", {"background": {"kind": "custom", "poly": "ab"}}, "poly"),
        ("simulate", {"background": {"kind": "coulomb", "l": "1"}}, "l"),
        ("simulate", {"background": {"kind": "coulomb", "l": True}}, "l"),
        ("simulate", {"background": {"kind": "coulomb", "q": 1}}, "q"),
        ("simulate", {"background": {"kind": ["coulomb"]}}, "kind"),
    ], ids=["position_element", "bool_strength", "list_z_total", "string_poly_element", "string_background_poly",
            "string_background_l", "bool_background_l", "unknown_background_key", "list_background_kind"])
    def test_ill_typed_nested_value_exit_2(self, tmp_path, capsys, command, section, key):
        # list elements, z_total and a background's fields are typed by the rule of the top-level values
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({command: section}))
        assert run(["--config", str(config), "--out", str(tmp_path), command]) == 2
        assert key in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_integral_nested_values_run_as_floats(self, tmp_path):
        outs = []
        for tag, pair, l in (("int", [[1, 0], [-1, 0]], 1), ("float", [[1.0, 0.0], [-1.0, 0.0]], 1.0)):
            config = tmp_path / f"{tag}.json"
            config.write_text(json.dumps({"simulate": {"positions": pair, "strengths": [1, -1], "t_end": 0.5,
                                                       "samples": 3, "background": {"kind": "coulomb", "l": l}}}))
            run(["--quiet", "--config", str(config), "--out", str(tmp_path / tag), "simulate"])
            outs.append((tmp_path / tag / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_integral_float_count_reports_like_flag(self, tmp_path):
        flag, conf = tmp_path / "flag", tmp_path / "conf"
        assert run(["--out", str(flag), "equilibrium", "--n", "5"]) == 0
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"equilibrium": {"n": 5.0}}))
        assert run(["--config", str(config), "--out", str(conf), "equilibrium"]) == 0
        assert (conf / "equilibrium.json").read_bytes() == (flag / "equilibrium.json").read_bytes()


class TestZeros:
    def test_default_ok(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "zeros"]) == 0
        out = capsys.readouterr().out
        assert "ode_residual" in out

    def test_flags_override(self, tmp_path):
        assert run(["--out", str(tmp_path), "zeros", "--family", "laguerre",
                    "--n", "7", "--alpha", "1.5"]) == 0

    def test_invalid_alpha_exit_2(self, tmp_path):
        assert run(["--out", str(tmp_path), "zeros", "--family", "laguerre",
                    "--n", "4", "--alpha", "-2"]) == 2

    def test_unknown_family_exit_2(self, tmp_path):
        assert run(["--out", str(tmp_path), "zeros", "--family", "chebyshov"]) == 2

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        assert run(["--quiet", "--out", str(tmp_path), "zeros"]) == 0
        assert capsys.readouterr().out == ""

    def test_nan_residual_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(orthopoly, "ode_residual_relative", lambda spec, x: x * np.nan)
        assert run(["--out", str(tmp_path), "zeros", "--n", "5"]) == 3

    def test_large_n_residuals_finite(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "zeros", "--family", "hermite", "--n", "300"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 301
        assert "nan" not in out.lower()


class TestEquilibrium:
    def test_hermite_certified(self, tmp_path):
        assert run(["--out", str(tmp_path), "equilibrium", "--family", "hermite",
                    "--n", "6"]) == 0
        doc = json.loads((tmp_path / "equilibrium.json").read_text())
        assert doc["certified"] is True
        assert len(doc["positions"]) == 6

    @pytest.mark.parametrize("argv", [
        ["--family", "hermite", "--n", "300"],
        ["--family", "coulomb", "--l", "1", "--n", "200"],
    ], ids=["hermite300", "coulomb_l1_200"])
    def test_large_n_certified(self, tmp_path, argv):
        assert run(["--out", str(tmp_path), "equilibrium"] + argv) == 0
        doc = json.loads((tmp_path / "equilibrium.json").read_text())
        assert doc["certified"] is True

    def test_coulomb_and_jacobi(self, tmp_path):
        assert run(["--out", str(tmp_path), "equilibrium", "--family", "coulomb",
                    "--n", "4", "--l", "1.0"]) == 0
        assert json.loads((tmp_path / "equilibrium.json").read_text())["certified"] is True
        assert run(["--out", str(tmp_path), "equilibrium", "--family", "jacobi",
                    "--n", "5", "--p", "1.0", "--q", "1.5"]) == 0
        assert json.loads((tmp_path / "equilibrium.json").read_text())["certified"] is True

    def test_custom_background_no_certificate(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "equilibrium": {"family": "custom", "n": 3,
                            "poles": [], "residues": [], "poly": [0.0, 1.0]}
        }))
        assert run(["--config", str(config), "--out", str(tmp_path), "equilibrium"]) == 0
        assert "certified" not in json.loads((tmp_path / "equilibrium.json").read_text())

    def test_integer_config_reports_like_flag(self, tmp_path):
        flag, conf = tmp_path / "flag", tmp_path / "conf"
        assert run(["--out", str(flag), "equilibrium", "--family", "coulomb", "--n", "4",
                    "--l", "1"]) == 0
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"equilibrium": {"family": "coulomb", "n": 4, "l": 1}}))
        assert run(["--config", str(config), "--out", str(conf), "equilibrium"]) == 0
        report = (flag / "equilibrium.json").read_bytes()
        assert b'"l": 1.0' in report
        assert (conf / "equilibrium.json").read_bytes() == report

    def test_constant_field_exit_3(self, tmp_path, capsys):
        # The F_i sum to n * w, so a constant field has no equilibrium; the Newton
        # step is singular, and that ends the solve as non-convergence, with a report.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"equilibrium": {"family": "custom", "n": 4, "poly": [0.5]}}))
        assert run(["--config", str(config), "--out", str(tmp_path), "equilibrium"]) == 3
        assert "non-convergence" in capsys.readouterr().out
        doc = json.loads((tmp_path / "equilibrium.json").read_text())
        assert doc["iterations"] == 0 and doc["residual_inf"] > 0.0

    def test_report_is_the_solve_record(self, tmp_path):
        assert run(["--quiet", "--out", str(tmp_path), "equilibrium", "--n", "4"]) == 0
        doc = strict_json(tmp_path / "equilibrium.json")
        assert set(doc) == {"family", "parameters", "n", "positions", "residual_inf", "iterations", "converged",
                            "certified", "max_zero_deviation"}
        assert doc["converged"] is True and type(doc["iterations"]) is int

    def test_non_finite_residual_exit_3_written_as_null(self, tmp_path, capsys):
        # w = 1e308 x - 1e308/(x - 2) overflows at the guess and max|F| is NaN.  NaN > tol is
        # false, so this used to exit 0 and write the bare token NaN; NaN <= tol is false too.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"equilibrium": {"family": "custom", "n": 3, "poles": [2.0],
                                                      "residues": [-1e308], "poly": [0.0, 1e308]}}))
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the point of this input
            assert run(["--config", str(config), "--out", str(tmp_path), "equilibrium"]) == 3
        assert "non-convergence" in capsys.readouterr().out
        doc = strict_json(tmp_path / "equilibrium.json")
        assert doc["residual_inf"] is None and doc["converged"] is False
        assert "certified" not in doc

    @pytest.mark.parametrize("poly", [[], [0.0]])
    def test_field_free_custom_exit_2(self, tmp_path, capsys, poly):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"equilibrium": {"family": "custom", "n": 4, "poly": poly}}))
        assert run(["--config", str(config), "--out", str(tmp_path), "equilibrium"]) == 2
        assert "not zero" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["none", "conjugate_linear", "chebyshov"])
    def test_unsolvable_family_exit_2(self, tmp_path, family):
        assert run(["--out", str(tmp_path), "equilibrium", "--family", family]) == 2

    def test_unreachable_tolerance_exit_3(self, tmp_path):
        assert run(["--out", str(tmp_path), "--tol", "1e-30", "equilibrium",
                    "--family", "hermite", "--n", "5"]) == 3

    def test_unknown_config_key_exit_2(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"equilibrium": {"familly": "hermite"}}))
        assert run(["--config", str(config), "--out", str(tmp_path), "equilibrium"]) == 2

    def test_malformed_json_exit_2(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("{not json")
        assert run(["--config", str(config), "--out", str(tmp_path), "equilibrium"]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert run(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path),
                    "equilibrium"]) == 2


class TestSimulate:
    def test_default_pair(self, tmp_path):
        assert run(["--out", str(tmp_path), "simulate", "--t-end", "2.0"]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x_1,y_1,x_2,y_2,Q,P,I,H"
        assert len(lines) == 12

    def test_summary_reports_the_solver_counters(self, tmp_path, capsys):
        # the counters go to stdout after the drift; trajectory.csv keeps its columns
        assert run(["--out", str(tmp_path / "loud"), "simulate"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("drift |dQ| ")
        assert line.endswith("  evaluations 55  accepted 4  rejected 0")
        assert (tmp_path / "loud" / "trajectory.csv").read_text().startswith("t,x_1,y_1,x_2,y_2,Q,P,I,H\n")
        assert run(["--quiet", "--out", str(tmp_path / "quiet"), "simulate"]) == 0
        assert capsys.readouterr().out == ""
        csv_bytes = [(tmp_path / tag / "trajectory.csv").read_bytes() for tag in ("loud", "quiet")]
        assert csv_bytes[0] == csv_bytes[1]

    def test_collision_exit_4(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "simulate": {
                "positions": [[0.05, 1.0], [-0.05, 1.0]],
                "strengths": [-1.0, 1.0],
                "background": {"kind": "coulomb", "l": 0.0},
                "t_end": 50.0,
                "max_steps": 20000,
                "collision_eps": 0.06,
            }
        }))
        assert run(["--config", str(config), "--out", str(tmp_path), "simulate"]) == 4

    def test_coincident_positions_exit_2(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "simulate": {"positions": [[1.0, 0.0], [1.0, 0.0]], "strengths": [1.0, 1.0]}
        }))
        assert run(["--config", str(config), "--out", str(tmp_path), "simulate"]) == 2

    def test_step_limit_exit_3(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "simulate": {"t_end": 100.0, "max_steps": 3}
        }))
        assert run(["--config", str(config), "--out", str(tmp_path), "simulate"]) == 3

    def test_negative_rtol_exit_2(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"simulate": {"rtol": -1e-10}}))
        assert run(["--config", str(config), "--out", str(tmp_path), "simulate"]) == 2
        assert not (tmp_path / "trajectory.csv").exists()

    def test_no_samples_exit_2(self, tmp_path):
        assert run(["--out", str(tmp_path), "simulate", "--samples", "0"]) == 2


class TestNonFiniteInput:
    """A NaN from a flag or a config file is invalid input (exit 2), not a run that exits 0 or 3."""

    def test_nan_t_end_exit_2(self, tmp_path):
        assert run(["--out", str(tmp_path), "simulate", "--t-end", "nan"]) == 2
        assert not (tmp_path / "trajectory.csv").exists()

    def test_nan_tol_exit_2(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"equilibrium": {"family": "custom", "n": 5, "poly": [0.3, 1.2]}}))
        assert run(["--config", str(config), "--out", str(tmp_path), "--tol", "nan", "equilibrium"]) == 2
        assert not (tmp_path / "equilibrium.json").exists()

    def test_nan_magnetic_length_exit_2(self, tmp_path):
        assert run(["--out", str(tmp_path), "laughlin", "--l-B", "nan"]) == 2
        assert not (tmp_path / "laughlin.json").exists()

    def test_nan_background_parameter_exit_2(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"simulate": {"background": {"kind": "coulomb", "l": float("nan")}}}))
        assert run(["--config", str(config), "--out", str(tmp_path), "simulate"]) == 2


class TestLaughlin:
    def test_pair_radius(self, tmp_path):
        assert run(["--out", str(tmp_path), "--tol", "1e-13", "laughlin",
                    "--N", "2", "--m-exp", "1"]) == 0
        doc = json.loads((tmp_path / "laughlin.json").read_text())
        assert doc["converged"] is True
        assert doc["radius_mean"] == pytest.approx(2.0**0.5, abs=1e-9)

    def test_invalid_even_exponent_exit_2(self, tmp_path):
        assert run(["--out", str(tmp_path), "laughlin", "--N", "2", "--m-exp", "2"]) == 2

    def test_report_is_the_solve_record(self, tmp_path):
        assert run(["--quiet", "--out", str(tmp_path), "laughlin", "--N", "3"]) == 0
        doc = strict_json(tmp_path / "laughlin.json")
        assert set(doc) == {"N", "m_exp", "l_B", "positions", "residual_inf", "iterations", "converged",
                            "radius_mean", "radius_min", "radius_max"}
        assert doc["converged"] is True and type(doc["iterations"]) is int and doc["iterations"] > 0
        assert len(doc["positions"]) == 3 and all(len(p) == 2 for p in doc["positions"])

    @pytest.mark.parametrize("l_b", ["1e-160", "1e160"])
    def test_magnetic_length_without_finite_omega_exit_2(self, tmp_path, capsys, l_b):
        # 1e-160 gave omega = inf and a report with "residual_inf": Infinity; 1e160 an
        # OverflowError traceback (exit 1) from l_B**2
        assert run(["--out", str(tmp_path), "laughlin", "--N", "3", "--l-B", l_b]) == 2
        assert "l_B" in capsys.readouterr().err
        assert not (tmp_path / "laughlin.json").exists()

    def test_non_finite_jacobian_exits_3_silently(self, tmp_path):
        # omega = 1.56e308 is finite, but the 2n real Jacobian overflows in its assembly.
        # LAPACK used to print "On entry to DLASCL parameter number 4 had an illegal value"
        # to the process's stdout, despite --quiet; a subprocess sees that output.
        env = dict(os.environ, PYTHONPATH=str(Path(vortexkit.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "vortexkit.cli", "--quiet",
             "--out", str(tmp_path), "laughlin", "--N", "3", "--l-B", "4e-155"],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "")
        doc = strict_json(tmp_path / "laughlin.json")
        assert (doc["iterations"], doc["converged"]) == (0, False)

    def test_non_finite_numbers_written_as_null_exit_3(self, tmp_path, monkeypatch):
        # the writer's rule, on a solve whose residual and one position are not finite
        result = NewtonResult(np.array([np.inf + 1j, -1.0 + 0j]), float("nan"), 3, False)
        monkeypatch.setattr(cli, "solve_planar_equilibrium", lambda *args, **kwargs: result)
        assert run(["--quiet", "--out", str(tmp_path), "laughlin"]) == 3
        doc = strict_json(tmp_path / "laughlin.json")
        assert doc["positions"] == [[None, 1.0], [-1.0, 0.0]]
        assert (doc["residual_inf"], doc["iterations"], doc["converged"]) == (None, 3, False)
        assert doc["radius_max"] is None and doc["radius_min"] == 1.0


class TestBeam:
    def test_charge_tracked(self, tmp_path):
        assert run(["--out", str(tmp_path), "beam", "--ell", "1", "--slices", "5"]) == 0
        lines = (tmp_path / "vortex_track.csv").read_text().strip().splitlines()
        assert lines[0] == "z,x,y,charge"
        assert len(lines) == 7  # one vortex per slice, 6 slices

    def test_node_rings_keep_the_total_charge(self, tmp_path):
        # LG(2,3) has exact pi phase jumps on its node rings; the waist slice used to total -5
        assert run(["--out", str(tmp_path), "beam", "--p", "2", "--ell", "3", "--grid", "256",
                    "--slices", "2"]) == 0
        totals = {}
        for line in (tmp_path / "vortex_track.csv").read_text().strip().splitlines()[1:]:
            z, _, _, c = line.split(",")
            totals[z] = totals.get(z, 0) + int(c)
        assert list(totals.values()) == [3, 3, 3]

    def test_under_resolved_grid_exit_2(self, tmp_path):
        assert run(["--out", str(tmp_path), "beam", "--grid", "32", "--w0", "0.2"]) == 2

    def test_no_slices_exit_2(self, tmp_path):
        # 0 used to divide by zero, a negative count to write an empty track
        for slices in ("0", "-2"):
            assert run(["--out", str(tmp_path), "beam", "--slices", slices]) == 2
        assert not (tmp_path / "vortex_track.csv").exists()

    def test_aliasing_exit_5(self, tmp_path):
        config = tmp_path / "cfg.json"
        # high-order mode whose spectrum spills past half-Nyquist
        config.write_text(json.dumps({
            "beam": {"p": 20, "ell": 80, "w0": 0.5, "grid": 128, "dx": 0.0625,
                     "k": 100.0, "slices": 2}
        }))
        assert run(["--config", str(config), "--out", str(tmp_path), "beam"]) == 5

    def test_save_fields(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"beam": {"slices": 2, "save_fields": True}}))
        assert run(["--config", str(config), "--out", str(tmp_path), "beam"]) == 0
        for s in range(3):
            assert (tmp_path / f"field_{s:03d}.bin").exists()


class TestImports:
    def test_cli_does_not_load_scipy_integrate(self):
        # the integrator's tableau is copied as constants: scipy.integrate would also load
        # scipy.optimize and scipy.fft, which a fresh process shows in sys.modules; the
        # Laguerre modes use orthopoly's recurrence, so scipy.special is not loaded either
        env = dict(os.environ, PYTHONPATH=str(Path(vortexkit.__file__).parents[1]))
        code = "import sys, vortexkit.cli; print([m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_only_solves_load_scipy(self, tmp_path):
        # simulate and beam run on numpy alone; scipy.linalg is imported on the first solve
        env = dict(os.environ, PYTHONPATH=str(Path(vortexkit.__file__).parents[1]))
        code = textwrap.dedent("""
            import sys
            def scipy_modules():
                return sorted(m for m in sys.modules if m.startswith("scipy"))
            import vortexkit, vortexkit.cli
            assert scipy_modules() == [], scipy_modules()
            out = sys.argv[1]
            for argv in (["simulate"], ["beam", "--grid", "128", "--slices", "2"]):
                assert vortexkit.cli.main(["--quiet", "--out", out] + argv) == 0, argv
                assert scipy_modules() == [], (argv, scipy_modules())
            assert vortexkit.cli.main(["--quiet", "--out", out, "zeros", "--n", "5"]) == 0
            assert "scipy.linalg" in sys.modules
        """)
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestDeterminism:
    def read_all(self, path):
        return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}

    def test_repeat_runs_byte_identical(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "laughlin": {"N": 4, "m_exp": 3, "tol": 1e-12},
            "simulate": {"t_end": 3.0, "samples": 7},
            "beam": {"slices": 3},
        }))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            for cmdline in (["laughlin"], ["simulate"], ["beam"],
                            ["equilibrium", "--family", "hermite", "--n", "8"]):
                assert run(["--quiet", "--config", str(config), "--out", str(out),
                            "--seed", "7"] + cmdline) == 0
            outs.append(self.read_all(out))
        assert outs[0] == outs[1]

    def test_different_seed_moves_laughlin_guess_same_answer(self, tmp_path):
        docs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert run(["--quiet", "--out", str(out), "--seed", seed, "--tol", "1e-12",
                        "laughlin", "--N", "3"]) == 0
            docs.append(json.loads((out / "laughlin.json").read_text()))
        assert docs[0]["radius_mean"] == pytest.approx(docs[1]["radius_mean"], abs=1e-9)
