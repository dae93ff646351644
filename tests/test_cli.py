"""Command-line driver: exit codes, config handling, determinism."""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vortexkit
from vortexkit import cli, orthopoly, paraxial
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
        # a solver setting that can never be met; each used to run and exit 3, as a non-convergence
        ("equilibrium", "max_iter", -5),
        ("equilibrium", "tol", -1),
        ("laughlin", "max_iter", -1),
        ("zeros", "tol", -1),
        ("simulate", "drift_bound", -1),
        # a negative eps would turn off the collision check; refused by the command, before the run
        ("simulate", "collision_eps", -1),
        # lg_mode divided w0 / dx before any check: a ZeroDivisionError traceback and exit 1
        ("beam", "dx", 0),
    ], ids=["fractional_samples", "fractional_n", "fractional_max_iter", "fractional_grid", "bool_samples",
            "string_alpha", "int_save_fields", "zero_max_steps", "negative_max_steps", "negative_equilibrium_max_iter",
            "negative_equilibrium_tol", "negative_laughlin_max_iter", "negative_zeros_tol", "negative_drift_bound",
            "negative_collision_eps", "zero_beam_dx"])
    def test_ill_typed_or_invalid_value_exit_2(self, tmp_path, capsys, command, key, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({command: {key: value}}))
        assert run(["--config", str(config), "--out", str(tmp_path), command]) == 2
        assert key in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command, key", [
        ("equilibrium", "max_iter"), ("equilibrium", "tol"), ("laughlin", "max_iter"), ("zeros", "tol"),
        ("simulate", "drift_bound"),
    ])
    def test_zero_setting_is_valid(self, tmp_path, capsys, command, key):
        # 0 is a setting that can be met: no step, or an exact answer; here none is reached (exit 3)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({command: {key: 0}}))
        assert run(["--quiet", "--config", str(config), "--out", str(tmp_path), command]) == 3
        assert "invalid input" not in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [["simulate"], ["beam", "--slices", "1"]], ids=["simulate", "beam"])
    def test_tol_without_a_tolerance_exit_2(self, tmp_path, capsys, argv):
        # simulate and beam have no tol; the flag used to be ignored, and the run exited 0
        assert run(["--out", str(tmp_path), "--tol", "5"] + argv) == 2
        assert "invalid input" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert run(["--quiet", "--out", str(tmp_path), "--tol", "1e-8", "zeros"]) == 0

    @pytest.mark.parametrize("doc", [[1, 2], "x", {"simulate": 5}, {"simulate": [1]}, {"simulate": None}],
                             ids=["list", "string", "number_section", "list_section", "null_section"])
    def test_config_that_is_not_an_object_exit_2(self, tmp_path, capsys, doc):
        # a list or a string died with AttributeError, a number or null section with TypeError, each exit 1;
        # a list section was refused only by accident, as "unknown config keys [1]"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        assert run(["--config", str(config), "--out", str(tmp_path), "simulate"]) == 2
        assert "must be JSON objects" in capsys.readouterr().err
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
        assert "newton_step" in out

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

    def test_recurrence_runs_twice(self, tmp_path, monkeypatch):
        # the one polish in zeros, then the certificate: newton_step on all n zeros each time
        calls = []
        step = orthopoly.newton_step

        def counting(spec, x):
            calls.append(np.size(x))
            return step(spec, x)

        monkeypatch.setattr(orthopoly, "newton_step", counting)
        assert run(["--quiet", "--out", str(tmp_path), "zeros", "--n", "12"]) == 0
        assert calls == [12, 12]

    def test_nan_step_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(orthopoly, "newton_step", lambda spec, x: x * np.nan)
        assert run(["--out", str(tmp_path), "zeros", "--n", "5"]) == 3

    def test_points_that_are_not_zeros_exit_3(self, tmp_path, monkeypatch, capsys):
        # the midpoints between the degree-21 zeros, handed over as the degree-20 ones: the
        # polynomial's ODE holds at every x, so only the Newton step tells them from zeros
        x = orthopoly.zeros(orthopoly.PolynomialSpec("hermite", 21))
        monkeypatch.setattr(orthopoly, "zeros", lambda spec: 0.5 * (x[1:] + x[:-1]))
        assert run(["--out", str(tmp_path), "zeros", "--n", "20"]) == 3
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(row.split()[0]) for row in rows] == (0.5 * (x[1:] + x[:-1])).tolist()

    def test_jacobi_near_minus_one_ok(self, tmp_path, capsys):
        # correct zeros (mpmath agrees to 1e-16); the ODE residual read 3.2e-2 here and exited 3
        assert run(["--out", str(tmp_path), "zeros", "--family", "jacobi", "--n", "157",
                    "--alpha", "-0.99999999999219402", "--beta", "-0.99999999998952838"]) == 0
        rows = [row.split() for row in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 157 and all(abs(float(step)) <= 1e-8 * max(1.0, abs(float(x))) for x, step in rows)

    def test_large_weight_parameter_ok(self, tmp_path, capsys):
        # the weight's total mass gamma(201), which nothing read, overflowed here
        assert run(["--out", str(tmp_path), "zeros", "--family", "laguerre", "--alpha", "200", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 4 and "nan" not in out.lower()

    @pytest.mark.parametrize("command", ["zeros", "equilibrium"])
    def test_failed_eigensolve_exit_3(self, tmp_path, monkeypatch, capsys, command):
        def failing(d, e, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(orthopoly, "eigh_tridiagonal", failing)
        assert run(["--out", str(tmp_path), command]) == 3
        assert "non-convergence: eigenvalues did not converge" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [
        ["--family", "coulomb", "--l", "100", "--n", "3"],
        ["--family", "jacobi", "--p", "100", "--q", "100", "--n", "3"],
    ], ids=["coulomb_l100", "jacobi_p100_q100"])
    def test_large_weight_parameter_certified(self, tmp_path, argv):
        # gamma(l + 2) and gamma(p + q + 2) overflowed in the recurrence the certificate uses
        assert run(["--out", str(tmp_path), "equilibrium"] + argv) == 0
        assert json.loads((tmp_path / "equilibrium.json").read_text())["certified"] is True

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

    def test_out_that_is_a_file_exit_2(self, tmp_path, capsys):
        # os.makedirs raised FileExistsError ahead of the exit-code table: a traceback and exit 1
        out = tmp_path / "taken"
        out.write_text("")
        assert run(["--out", str(out), "equilibrium"]) == 2
        assert "invalid input" in capsys.readouterr().err


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

    def test_non_finite_invariant_exit_3(self, tmp_path, capsys):
        # I = sum kappa |z|^2 overflows to inf at every sample: the drift is NaN, which no bound passes
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"simulate": {"positions": [[1e160, 0.0], [-1e160, 0.0]]}}))
        assert run(["--config", str(config), "--out", str(tmp_path), "simulate"]) == 3
        line = capsys.readouterr().out
        assert line.startswith("drift |dQ| 0.000e+00  |dI| nan  |dH| 0.000e+00  ")

    @staticmethod
    def simulate(tmp_path, **section):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"simulate": section}))
        return run(["--config", str(config), "--out", str(tmp_path), "--quiet", "simulate"])

    @staticmethod
    def jittered_ring(n=30):
        rng = np.random.default_rng(9)
        z = np.exp(2j * np.pi * np.arange(n) / n) + 1e-6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        return {"positions": np.column_stack([z.real, z.imag]).tolist(), "strengths": [1.0] * n,
                "t_end": 0.25, "samples": 11}

    def test_drift_is_gated_relative_to_the_invariant(self, tmp_path):
        # |dH| 1.017e-8 on H of size sum_{i<j} |kappa_i kappa_j| = 435: an absolute 1e-8 failed it
        assert self.simulate(tmp_path, **self.jittered_ring()) == 0

    def test_loose_ring_still_fails_its_drift_gate(self, tmp_path):
        # |dH| 1.1e-5 against 1e-8 * 435
        assert self.simulate(tmp_path, **self.jittered_ring(), rtol=1e-7) == 3

    def test_drift_gate_is_scale_free(self, tmp_path):
        # the default pair at 2^10 times its positions, for 2^20 times as long, is the same motion
        # to rounding; its |dI| 1.6e-6 is 8e-13 of I = 2^21, but failed an absolute 1e-8
        assert self.simulate(tmp_path, positions=[[1024.0, 0.0], [-1024.0, 0.0]], t_end=2.0**20) == 0

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

    def test_coincident_positions_exit_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "simulate": {"positions": [[1.0, 0.0], [1.0, 0.0]], "strengths": [1.0, 1.0]}
        }))
        assert run(["--config", str(config), "--out", str(tmp_path), "simulate"]) == 2
        assert capsys.readouterr().err == "invalid input: positions must be pairwise distinct\n"

    @pytest.mark.parametrize("section, message", [
        ('"strengths": [1.0]', "positions and strengths must be 1-d arrays of equal length >= 1"),
        ('"positions": []', "positions and strengths must be 1-d arrays of equal length >= 1"),
        ('"positions": [], "strengths": []', "positions and strengths must be 1-d arrays of equal length >= 1"),
        # JSON reads 1e400 as inf, which no parameter may be
        ('"positions": [[1e400, 0.0], [-1.0, 0.0]]', "simulate parameters must be finite numbers"),
        ('"strengths": [1e400, 1.0]', "simulate parameters must be finite numbers"),
        ('"strengths": [1.0, 0.0]', "strengths must be finite and nonzero"),
    ], ids=["one_strength_for_two", "no_positions", "empty", "position_1e400", "strength_1e400", "zero_strength"])
    def test_refused_vortices_exit_2(self, tmp_path, capsys, section, message):
        config = tmp_path / "cfg.json"
        config.write_text('{"simulate": {%s}}' % section)
        assert run(["--config", str(config), "--out", str(tmp_path), "simulate"]) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

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
    """A NaN, or an integer beyond the floats, from a flag or a config file is invalid input (exit 2),
    not a run that exits 0, 1 or 3."""

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

    @pytest.mark.parametrize("command, key", [("laughlin", "l_B"), ("equilibrium", "n")])
    def test_integer_beyond_the_floats_exit_2(self, tmp_path, capsys, command, key):
        # a JSON integer has no bound: float() of this 401-digit one raised OverflowError, exit 1
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({command: {key: 10**400}}))
        assert run(["--config", str(config), "--out", str(tmp_path), command]) == 2
        assert capsys.readouterr().err.startswith("invalid input: ")


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
    def test_magnetic_length_without_finite_omega_scales_the_unit_answer(self, tmp_path, l_b):
        # omega = 1/(4 l_B^2) is inf at 1e-160 and 1/(4 l_B^2) overflowed at 1e160, so both were refused;
        # the problem is solved in units of l_B, so its answer here is l_B times the l_B = 1 answer
        assert run(["--quiet", "--out", str(tmp_path / "unit"), "laughlin", "--N", "3"]) == 0
        assert run(["--quiet", "--out", str(tmp_path / "scaled"), "laughlin", "--N", "3", "--l-B", l_b]) == 0
        unit, scaled = (strict_json(tmp_path / d / "laughlin.json") for d in ("unit", "scaled"))
        assert scaled["converged"] is True and scaled["iterations"] == unit["iterations"]
        for key in ("radius_mean", "radius_min", "radius_max"):
            assert scaled[key] == pytest.approx(float(l_b) * unit[key], rel=np.finfo(float).eps)

    def test_non_finite_jacobian_exits_3_silently(self, tmp_path):
        # `laughlin` solves at omega = 1/4 and never forms a large omega, so the overflow is driven
        # through a custom `equilibrium` field w = 1e308 z: an entry of the Newton Jacobian at the
        # guess is inf.  LAPACK used to print "On entry to DLASCL parameter number 4 had an illegal
        # value" to the process's stdout, despite --quiet; a subprocess sees that output.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"equilibrium": {"family": "custom", "n": 3, "poly": [0.0, 1e308]}}))
        env = dict(os.environ, PYTHONPATH=str(Path(vortexkit.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "vortexkit.cli", "--quiet",
             "--config", str(config), "--out", str(tmp_path), "equilibrium"],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "")
        doc = strict_json(tmp_path / "equilibrium.json")
        assert (doc["iterations"], doc["converged"]) == (0, False)

    def test_large_magnetic_length_is_solved(self, tmp_path):
        # the absolute tol used to hold at the guess, 0.9 of the radius, after 0 Newton steps;
        # residual_inf and tol are in units of 1/l_B now.  The equilateral radius is 2 l_B.
        assert run(["--quiet", "--out", str(tmp_path), "laughlin", "--N", "3", "--l-B", "1e150"]) == 0
        doc = strict_json(tmp_path / "laughlin.json")
        assert doc["iterations"] > 0 and doc["converged"] is True
        assert doc["radius_mean"] == pytest.approx(2e150, rel=1e-12)

    def test_positions_beyond_the_floats_exit_3(self, tmp_path):
        # the equilibrium at radius 2e308 is solved in units of l_B; its positions overflow when scaled
        assert run(["--quiet", "--out", str(tmp_path), "laughlin", "--N", "3", "--l-B", "1e308"]) == 3
        doc = strict_json(tmp_path / "laughlin.json")
        assert doc["converged"] is False
        assert None in sum(doc["positions"], [])

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(n=st.integers(1, 10), k=st.integers(-490, 490), seed=st.integers(0, 2**32 - 1))
    def test_power_of_two_magnetic_length_scales_exactly(self, n, k, seed):
        # l_B = 2^k scales the l_B = 1 answer exactly: the same exit code and every position times
        # 2^k, bit for bit (N = 7 exits 3 at every scale)
        with tempfile.TemporaryDirectory() as out:
            docs, codes = [], []
            for l_b in (1.0, 2.0**k):
                codes.append(run(["--quiet", "--seed", str(seed), "--out", out, "laughlin", "--N", str(n),
                                  "--l-B", repr(l_b)]))
                docs.append(json.loads(Path(out, "laughlin.json").read_text()))
        unit, scaled = docs
        assert codes[0] == codes[1]
        assert scaled["positions"] == [[2.0**k * x for x in p] for p in unit["positions"]]
        assert (scaled["iterations"], scaled["residual_inf"]) == (unit["iterations"], unit["residual_inf"])

    def test_non_finite_numbers_written_as_null_exit_3(self, tmp_path, monkeypatch):
        # the writer's rule, on a solve whose residual and one position are not finite
        result = NewtonResult(np.array([np.inf + 1j, -1.0 + 0j]), float("nan"), 3, False)
        monkeypatch.setattr(cli, "stationary", lambda *args, **kwargs: result)
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

    def test_aliasing_exit_5(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        # high-order mode whose spectrum spills past half-Nyquist
        config.write_text(json.dumps({
            "beam": {"p": 20, "ell": 80, "w0": 0.5, "grid": 128, "dx": 0.0625,
                     "k": 100.0, "slices": 2}
        }))
        assert run(["--config", str(config), "--out", str(tmp_path), "beam"]) == 5
        # main's exit-code table reports it on stderr, as it does codes 2-4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("aliasing: ") and "15.54%" in err
        assert not (tmp_path / "vortex_track.csv").exists()

    def test_aliased_run_writes_nothing(self, tmp_path, capsys):
        # the aliasing check runs before slice 0: field_000.bin used to be written ahead of exit 5
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "beam": {"p": 20, "ell": 80, "w0": 0.5, "grid": 128, "dx": 0.0625, "k": 100.0, "slices": 2,
                     "save_fields": True}
        }))
        out = tmp_path / "out"
        assert run(["--config", str(config), "--out", str(out), "beam"]) == 5
        assert "15.54%" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_beam_spread_past_the_grid_exit_2(self, tmp_path, capsys):
        # at z = 2e297 z_R the LG(0,1) samples on the grid underflow: no slice can be scaled to unit power
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"beam": {"z_total": 1e300}}))
        assert run(["--config", str(config), "--out", str(tmp_path / "out"), "beam"]) == 2
        assert "has no power on the grid" in capsys.readouterr().err

    def test_no_2d_transform(self, tmp_path, monkeypatch):
        # each slice is the product of the mode's Hermite-Gauss factors at its z, in closed form: no
        # inverse transform runs, and the forward 1-d transforms of the two waist factors (128 x r,
        # r = 5) feed the one aliasing check
        calls = []
        for name in ("fft", "ifft", "fft2", "ifft2"):
            def spy(a, *args, name=name, real=getattr(np.fft, name), **kwargs):
                calls.append((name, np.shape(a)))
                return real(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, spy)
        check = paraxial._factor_energy_fraction_outer
        monkeypatch.setattr(paraxial, "_factor_energy_fraction_outer",
                            lambda sy, sx: calls.append("check") or check(sy, sx))
        assert run(["--quiet", "--out", str(tmp_path), "beam", "--p", "1", "--ell", "2", "--slices", "3"]) == 0
        assert calls == [("fft", (128, 5)), ("fft", (128, 5)), "check"]

    def test_save_fields(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"beam": {"slices": 2, "save_fields": True}}))
        assert run(["--config", str(config), "--out", str(tmp_path), "beam"]) == 0
        for s in range(3):
            assert (tmp_path / f"field_{s:03d}.bin").exists()


class TestTables:
    def test_both_tables_end_their_lines_with_lf(self, tmp_path):
        # one writer: trajectory.csv ended its lines with CRLF, vortex_track.csv with LF
        assert run(["--quiet", "--out", str(tmp_path), "simulate"]) == 0
        assert run(["--quiet", "--out", str(tmp_path), "beam", "--slices", "1"]) == 0
        for name in ("trajectory.csv", "vortex_track.csv"):
            data = (tmp_path / name).read_bytes()
            assert b"\r" not in data and data.endswith(b"\n")


class TestImports:
    def test_cli_does_not_load_scipy_integrate(self):
        # the integrator's tableau is copied as constants: scipy.integrate would also load
        # scipy.optimize and scipy.fft, which a fresh process shows in sys.modules; the
        # LG modes are sums of Hermite functions from their recurrence, so scipy.special is not loaded either
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


def fresh(argv, cwd):
    """argv run by `python -m vortexkit.cli` in a new interpreter, which builds its parser afresh."""
    env = dict(os.environ, PYTHONPATH=str(Path(vortexkit.__file__).parents[1]), COLUMNS="80")
    return subprocess.run([sys.executable, "-m", "vortexkit.cli"] + argv, capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


class TestOneParser:
    """main parses with the one parser of the process, and no call leaves anything to the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_share_no_state(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"equilibrium": {"max_iter": 50, "output": "first.json"}}))
        # at tol 1e-3 the certificate may fail (exit 3); the second call must solve at the default 1e-12
        assert run(["--tol", "1e-3", "--seed", "5", "--quiet", "--config", str(config), "--out",
                    str(tmp_path / "first"), "equilibrium", "--family", "coulomb", "--l", "1", "--n", "7"]) in (0, 3)
        assert (tmp_path / "first" / "first.json").exists()
        capsys.readouterr()
        assert run(["--out", str(tmp_path / "in_process"), "equilibrium", "--n", "5"]) == 0
        said = capsys.readouterr()
        proc = fresh(["--out", str(tmp_path / "fresh"), "equilibrium", "--n", "5"], tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, said.out, said.err)
        assert [p.name for p in (tmp_path / "in_process").iterdir()] == ["equilibrium.json"]
        report = (tmp_path / "in_process" / "equilibrium.json").read_bytes()
        assert report == (tmp_path / "fresh" / "equilibrium.json").read_bytes()

    @pytest.mark.parametrize("argv", [["--help"]] + [[command, "--help"] for command in cli._COMMANDS],
                             ids=["vortexkit"] + list(cli._COMMANDS))
    def test_help_as_in_a_fresh_process(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(["--quiet", "--out", str(tmp_path), "zeros", "--n", "4"]) == 0
        with pytest.raises(SystemExit) as exit_:
            run(argv)
        said = capsys.readouterr()
        proc = fresh(argv, tmp_path)
        assert (exit_.value.code, said.out, said.err) == (0, proc.stdout, proc.stderr)
        assert proc.returncode == 0 and said.out.startswith("usage: vortexkit")
