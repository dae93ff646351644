"""Laughlin states in the plane: log|psi| as a Kirchhoff energy, the `laughlin` command's
refusals, and solves.  The stationarity field and its Jacobian are tested in test_backgrounds.py,
beside the helpers omega_of and log_modulus."""

import json

import numpy as np
import pytest

from vortexkit import cli
from vortexkit.backgrounds import ConjugateLinear, kirchhoff_field, ring_guess, stationary
from test_backgrounds import log_modulus, omega_of


class TestLogLaughlin:
    """log|psi| through `kirchhoff_energy`, and the parameters the `laughlin` command refuses."""

    def test_single_particle_origin(self):
        assert log_modulus([0.0j], 1, 1.0) == 0.0

    def test_pair_principal_branch(self):
        # the real part of log psi at +-1: m ln 2 - (1 + 1)/4
        assert log_modulus([1.0, -1.0], 1, 1.0) == pytest.approx(np.log(2.0) - 0.5)

    def test_swap_antisymmetry_modulus(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        zs = z.copy()
        zs[[0, 1]] = zs[[1, 0]]
        # |psi| is symmetric under a swap, psi itself antisymmetric for odd m
        assert log_modulus(z, 3, 0.8) == pytest.approx(log_modulus(zs, 3, 0.8), abs=1e-12)

    @pytest.mark.parametrize("bad", [dict(N=0), dict(N=2, m_exp=2), dict(N=2, l_B=0.0), dict(N=2, l_B=np.nan)])
    def test_invalid_params(self, bad, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"laughlin": bad}))
        assert cli.main(["--quiet", "--config", str(config), "--out", str(tmp_path), "laughlin"]) == 2
        assert not (tmp_path / "laughlin.json").exists()

    @pytest.mark.parametrize("l_b", [1e160, 10**200, 1e-160], ids=["1e160", "int_1e200", "1e-160"])
    def test_magnetic_length_without_finite_positive_omega(self, l_b):
        # l_B^2 overflows at 1e160 and 1e200, so omega is 0; at 1e-160 l_B^2 rounds to a subnormal
        # and omega is inf.  ConjugateLinear, the one check of omega, refuses both; the `laughlin`
        # command solves in units of l_B and never forms this omega.
        with np.errstate(over="ignore", divide="ignore"):
            omega = 1.0 / (4.0 * np.float64(l_b) ** 2)
        with pytest.raises(ValueError, match="omega"):
            ConjugateLinear(omega)

    def test_small_magnetic_length_with_finite_omega_accepted(self):
        assert 0 < ConjugateLinear(omega_of(1e-150)).omega < np.inf


def solve_plane(guess, m=1, l_b=1.0, tol=1e-10, max_iter=200):
    """The plane solve of strengths m in ConjugateLinear(omega), the `laughlin` command's at l_B = 1."""
    return stationary(np.asarray(guess, dtype=complex), m, ConjugateLinear(omega_of(l_b)), tol, max_iter)


class TestPlanarEquilibrium:
    def test_pair_radius(self):
        sol = solve_plane(np.array([1.2 + 0.3j, -1.1 - 0.2j]), tol=1e-12)
        assert sol.converged and sol.residual_inf <= 1e-12
        assert np.abs(sol.positions) == pytest.approx([np.sqrt(2.0)] * 2, abs=1e-10)

    def test_single_particle_origin(self):
        sol = solve_plane(np.array([0.3 + 0.4j]))
        assert sol.converged
        assert abs(sol.positions[0]) < 1e-10

    def test_triangle(self):
        # brute-force oracle: minimize max |S| over symmetric triangle radius
        bg = ConjugateLinear(omega_of(1.0))
        radii = np.linspace(1.5, 2.5, 20001)
        best = min(
            radii,
            key=lambda r: np.abs(kirchhoff_field(r * np.exp(2j * np.pi * np.arange(3) / 3), 1, bg)).max(),
        )
        guess = 1.7 * np.exp(2j * np.pi * np.arange(3) / 3 + 0.05j)
        sol = solve_plane(guess, tol=1e-12)
        assert sol.converged and sol.residual_inf <= 1e-10
        z = sol.positions
        d = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(d, np.inf)
        side = d[np.isfinite(d)]
        assert side.max() - side.min() < 1e-9  # equilateral
        assert np.abs(z) == pytest.approx([best] * 3, abs=1e-4)

    def test_exact_triangle_takes_no_step(self):
        # max|S| is 1.6e-16 here, and the rotation iz is a null vector of the Jacobian at
        # S = 0, so rcond < eps: the one refusal rule of the line stops the plane too
        z = 2.0 * np.exp(2j * np.pi * np.arange(3) / 3)
        sol = solve_plane(z, tol=0.0)
        assert (sol.positions.tolist(), sol.iterations, sol.converged) == (z.tolist(), 0, False)

    @pytest.mark.parametrize("n", [10, 30])
    def test_returned_residual_is_max_modulus(self, n):
        # the modulus of the complex S_j, not the largest of its real and imaginary parts
        sol = solve_plane(ring_guess(n, 1, n))
        assert sol.converged
        bg = ConjugateLinear(omega_of(1.0))
        assert sol.residual_inf == np.abs(kirchhoff_field(sol.positions, 1, bg)).max()
