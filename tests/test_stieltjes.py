"""Stationary (electrostatic) equilibrium tests against the polynomial oracle."""

import json

import numpy as np
import pytest

from vortexkit import backgrounds, cli, orthopoly
from vortexkit.backgrounds import (
    CollisionError, Coulomb, CustomRational, DomainError, HermiteLinear, JacobiCharges, default_guess,
    kirchhoff_energy, kirchhoff_field, kirchhoff_jacobian, stationary,
)
from vortexkit.orthopoly import PolynomialSpec, certify


def solve_line(n, bg, guess=None, tol=1e-12, max_iter=200):
    """The line solve of the `equilibrium` command: strengths -1, from the default guess unless one is given."""
    return stationary(default_guess(n, bg) if guess is None else np.asarray(guess, dtype=float),
                      -1.0, bg, tol, max_iter)


class TestResidual:
    """The residual R_k = sum_{j != k} 1/(x_k - x_j) - w(x_k) is -F, F the Kirchhoff field of strengths -1."""

    def test_hermite_pair_equilibrium(self):
        a = 1 / np.sqrt(2)
        r = -kirchhoff_field(np.array([-a, a]), -1.0, HermiteLinear())
        assert r == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_coulomb_single(self):
        assert -kirchhoff_field(np.array([2.0]), -1.0, Coulomb(0.0)) == pytest.approx([0.0])

    def test_legendre_single(self):
        assert -kirchhoff_field(np.array([0.0]), -1.0, JacobiCharges(0.5, 0.5)) == pytest.approx([0.0])

    def test_coincident_points(self):
        # unsorted, the repeated pair not adjacent; -0.0 and 0.0 coincide too
        for x in ([0.3, -1.0, 0.7, 0.3], [0.0, 2.0, -0.0]):
            with pytest.raises(DomainError):
                kirchhoff_field(np.array(x), -1.0, HermiteLinear())


def jacobian(x, bg):
    """The shared jacobian of F = -R (strengths -1); on the line its zbar block is zero."""
    a, b = kirchhoff_jacobian(x, -1.0, bg)
    assert not np.any(b)
    return a


class TestJacobian:
    def test_single_hermite(self):
        assert jacobian(np.array([0.3]), HermiteLinear()) == pytest.approx(np.array([[1.0]]))

    def test_pair_hermite_at_equilibrium(self):
        a = 1 / np.sqrt(2)
        j = jacobian(np.array([-a, a]), HermiteLinear())
        assert j == pytest.approx(np.array([[1.5, -0.5], [-0.5, 1.5]]))

    @pytest.mark.parametrize("bg,lo,hi", [
        (HermiteLinear(), -3.0, 3.0),
        (Coulomb(1.0), 0.3, 12.0),
        (JacobiCharges(1.0, 2.0), -0.9, 0.9),
    ])
    def test_matches_central_differences(self, bg, lo, hi):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = np.sort(rng.uniform(lo, hi, size=4))
            while np.diff(x).min() < 0.05:
                x = np.sort(rng.uniform(lo, hi, size=4))
            j = jacobian(x, bg)
            h = 1e-6
            for m in range(4):
                xp, xm = x.copy(), x.copy()
                xp[m] += h
                xm[m] -= h
                fd = (kirchhoff_field(xp, -1.0, bg) - kirchhoff_field(xm, -1.0, bg)) / (2 * h)
                assert j[:, m] == pytest.approx(fd, abs=1e-5)


class TestEnergy:
    @pytest.mark.parametrize("bg,x", [
        (HermiteLinear(), [-2.0, -0.3, 0.4, 1.7]),
        (Coulomb(1.0), [0.5, 2.0, 4.5, 9.0]),
        (JacobiCharges(1.0, 2.0), [-0.8, -0.1, 0.3, 0.85]),
    ])
    def test_gradient_is_minus_residual(self, bg, x):
        x = np.array(x)
        h = 1e-6
        grad = np.empty(x.size)
        for m in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[m] += h
            xm[m] -= h
            # the electrostatic energy is -E at kappa = -1
            grad[m] = (kirchhoff_energy(xm, -1.0, bg) - kirchhoff_energy(xp, -1.0, bg)) / (2 * h)
        assert grad == pytest.approx(kirchhoff_field(x, -1.0, bg), abs=1e-6)  # -R = F


class TestSolve:
    def test_hermite_n5(self):
        rep = solve_line(5, HermiteLinear())
        assert np.abs(rep.positions - orthopoly.zeros(PolynomialSpec("hermite", 5))).max() < 1e-10

    def test_coulomb_l1_n4(self):
        rep = solve_line(4, Coulomb(1.0))
        ref = orthopoly.zeros(PolynomialSpec("laguerre", 4, alpha=3.0))
        assert np.abs(rep.positions - ref).max() < 1e-10

    def test_jacobi_n6(self):
        rep = solve_line(6, JacobiCharges(1.0, 1.5))
        ref = orthopoly.zeros(PolynomialSpec("jacobi", 6, alpha=1.0, beta=2.0))
        assert np.abs(rep.positions - ref).max() < 1e-10

    def test_permutation_invariant_guess(self):
        guess = np.array([-2.0, -0.5, 0.5, 2.0])
        rep1 = solve_line(4, HermiteLinear(), guess=guess)
        rep2 = solve_line(4, HermiteLinear(), guess=guess[::-1].copy())
        assert rep1.positions == pytest.approx(rep2.positions, abs=1e-12)

    def test_points_that_cross_come_back_sorted(self):
        # the Newton iterates of this guess pass the third point below the first two
        rep = solve_line(3, Coulomb(1.0), guess=[1.87, 2.35, 25.6])
        ref = orthopoly.zeros(PolynomialSpec("laguerre", 3, alpha=3.0))
        assert rep.converged and np.abs(rep.positions - ref).max() < 1e-10

    def test_equilibria_are_energy_minima(self):
        for n in range(2, 11):
            rep = solve_line(n, HermiteLinear())
            hess = jacobian(rep.positions, HermiteLinear())  # Hessian of E: grad E = -R = F
            assert np.linalg.eigvalsh(hess).min() > 0

    def test_guess_where_the_field_is_undefined_refused(self):
        # raised by the first evaluation of F, before any division
        bg = CustomRational(poles=(0.5,), residues=(-1.0,), poly=(0.0, 1.0))
        for guess in ([-1.0, 0.5, 2.0], [-1.0, 2.0, -1.0]):  # on the pole; coincident
            with np.errstate(all="raise"), pytest.raises(CollisionError):
                solve_line(3, bg, guess=guess)
        with pytest.raises(DomainError):
            solve_line(2, Coulomb(1.0), guess=[0.0, 1.0])

    def test_domain_violation(self, monkeypatch):
        # a guess outside the open domain raises; a trial point outside it is halved back, never evaluated
        with pytest.raises(DomainError):
            solve_line(1, Coulomb(0.0), guess=[-1.0])
        with pytest.raises(DomainError):
            solve_line(2, JacobiCharges(1.0, 1.0), guess=[0.0, 1.5])
        field, seen = backgrounds.kirchhoff_field, []
        monkeypatch.setattr(backgrounds, "kirchhoff_field", lambda x, *args: seen.append(x) or field(x, *args))
        # full steps from these guesses leave the domain
        for bg, guess in ((Coulomb(1.0), [30.0, 31.0, 32.0, 60.0]),
                          (JacobiCharges(2.0, 0.5), [-0.99, -0.98, 0.97, 0.999])):
            seen.clear()
            assert solve_line(4, bg, guess=guess).converged
            lo, hi = bg.domain
            assert all(np.all((lo < x) & (x < hi)) for x in seen)

    def test_custom_rational_solves(self):
        # two fixed unit charges at +/-2 plus a linear confinement
        bg = CustomRational(poles=(-2.0, 2.0), residues=(-1.0, -1.0), poly=(0.0, 1.0))
        rep = solve_line(3, bg, guess=np.array([-1.0, 0.1, 1.0]))
        assert rep.residual_inf < 1e-12 and rep.converged

    def test_residual_decreases_over_accepted_iterates(self):
        # far from equilibrium, so that full steps leave the domain or overshoot
        for bg, guess in (
            (HermiteLinear(), [-4.0, -3.5, 3.5, 4.0]),
            (Coulomb(1.0), [30.0, 31.0, 32.0, 60.0]),
            (JacobiCharges(2.0, 0.5), [-0.99, -0.98, 0.97, 0.999]),
        ):
            res = []
            for k in range(40):
                rep = solve_line(4, bg, guess=guess, max_iter=k)
                if rep.iterations < k:
                    break
                res.append(rep.residual_inf)
            assert len(res) > 3
            assert np.all(np.diff(res) < 0)

    def test_jacobi_half_stops_on_stagnation(self):
        # max|R| stalls near 3e-10 above the 1e-12 tolerance: the solve must
        # stop there rather than run out max_iter
        rep = solve_line(100, JacobiCharges(0.5, 0.5))
        assert rep.iterations < 20
        ref = orthopoly.zeros(PolynomialSpec("jacobi", 100))
        assert np.abs(rep.positions - ref).max() <= 1e-14


class TestExport:
    """The `equilibrium` report: the background's family and parameters, n, and the solve's record."""

    @staticmethod
    def report(tmp_path, bg, n, params):
        kind = {cls: kind for kind, cls in cli._BACKGROUNDS.items()}[type(bg)]
        assert cli._background_from(kind, params) == bg
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"equilibrium": {"family": kind, "n": n, **params}}))
        assert cli.main(["--quiet", "--config", str(config), "--out", str(tmp_path), "equilibrium"]) == 0
        return json.loads((tmp_path / "equilibrium.json").read_text())

    def test_json_report_fields(self, tmp_path):
        rep = solve_line(3, Coulomb(1.0))
        certified, deviation = certify(rep.positions, PolynomialSpec("laguerre", 3, alpha=3.0))
        doc = self.report(tmp_path, Coulomb(1.0), 3, {"l": 1.0})
        assert doc["family"] == "Coulomb"
        assert doc["parameters"] == {"l": 1.0}
        assert doc["n"] == 3
        assert doc["certified"] is True
        assert len(doc["positions"]) == 3
        assert {"residual_inf", "iterations", "max_zero_deviation"} <= set(doc)
        # the record's fields and the certificate, value for value; the solver is not named
        assert doc == {"family": "Coulomb", "parameters": {"l": 1.0}, "n": 3, **vars(rep),
                       "certified": certified, "max_zero_deviation": deviation,
                       "positions": rep.positions.tolist()}
        assert rep.converged and "method" not in doc

    @pytest.mark.parametrize("bg, params", [
        (HermiteLinear(), {}),
        (JacobiCharges(1.0, 1.5), {"p": 1.0, "q": 1.5}),
        (CustomRational(poles=(-2.0, 2.0), residues=(-1.0, -1.0), poly=(0.0, 1.0)),
         {"poles": [-2.0, 2.0], "residues": [-1.0, -1.0], "poly": [0.0, 1.0]}),
    ])
    def test_json_parameters_per_family(self, tmp_path, bg, params):
        assert self.report(tmp_path, bg, 4, params)["parameters"] == params

    @pytest.mark.parametrize("n, pole", [(1, 0.5), (3, 0.0), (5, 0.0)])
    def test_guess_kept_off_a_custom_pole(self, tmp_path, n, pole):
        # the Chebyshev guess sat on the pole (n = 1: exit 4, "collision") or 6e-17 from it (odd n:
        # exit 3, residual 6.7e15); a point within half the guess spacing of it now starts outside that band
        params = {"poles": [pole], "residues": [-1.0], "poly": [0.0, 1.0]}
        doc = self.report(tmp_path, CustomRational((pole,), (-1.0,), (0.0, 1.0)), n, params)
        assert doc["converged"] and doc["iterations"] <= 8
        if n == 1:  # x - 1/(x - 1/2) = 0
            assert doc["positions"] == pytest.approx([0.25 + np.sqrt(17.0) / 4.0], abs=1e-14)
