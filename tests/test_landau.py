"""Laughlin wavefunction, Berry connection, planar equilibria, ladder operators."""

import numpy as np
import pytest

from vortexkit.backgrounds import ConjugateLinear, kirchhoff_jacobian
from vortexkit.landau import (
    LaughlinParams,
    QuasiholeSet,
    berry_connection,
    ladder_apply,
    laughlin_stationarity_residual,
    log_laughlin,
    solve_planar_equilibrium,
)
from vortexkit.paraxial import BeamField


def gaussian_field(n, extent, l_b=1.0, prefactor=None):
    dx = extent / n
    x = (np.arange(n) - n // 2) * dx
    xg, yg = np.meshgrid(x, x)
    z = xg + 1j * yg
    psi = np.exp(-np.abs(z) ** 2 / (4 * l_b**2)).astype(complex)
    if prefactor is not None:
        psi = prefactor(z) * psi
    return BeamField(psi, dx, dx, 1.0), z


class TestLogLaughlin:
    def test_single_particle_origin(self):
        assert log_laughlin(np.array([0.0j]), LaughlinParams(1)) == 0.0

    def test_pair_principal_branch(self):
        val = log_laughlin(np.array([1.0, -1.0], dtype=complex), LaughlinParams(2, 1, 1.0))
        assert val == pytest.approx(np.log(2.0) + np.pi * 1j - 0.5)

    def test_swap_antisymmetry_modulus(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        params = LaughlinParams(3, 3, 0.8)
        a = log_laughlin(z, params)
        zs = z.copy()
        zs[[0, 1]] = zs[[1, 0]]
        b = log_laughlin(zs, params)
        # |psi| is branch-free; imaginary parts differ by multiples of pi*m
        assert a.real == pytest.approx(b.real, abs=1e-12)
        assert (b - a).imag / np.pi == pytest.approx(round((b - a).imag / np.pi), abs=1e-10)

    def test_coincident_particles_rejected(self):
        with pytest.raises(ValueError):
            log_laughlin(np.array([1.0 + 0j, 1.0 + 0j]), LaughlinParams(2))

    @pytest.mark.parametrize("bad", [dict(N=0), dict(N=2, m_exp=2), dict(N=2, l_B=0.0), dict(N=2, l_B=np.nan)])
    def test_invalid_params(self, bad):
        with pytest.raises(ValueError):
            LaughlinParams(**{"N": 2, "m_exp": 1, "l_B": 1.0, **bad})

    @pytest.mark.parametrize("l_b", [1e160, 10**200, 1e-160], ids=["1e160", "int_1e200", "1e-160"])
    def test_magnetic_length_without_finite_positive_omega(self, l_b):
        # 1e160**2 overflows (OverflowError) and 10**200 cannot become a float; at
        # 1e-160, l_B**2 rounds to a subnormal and omega = 1/(4 l_B^2) is inf
        with pytest.raises(ValueError, match="omega"):
            LaughlinParams(2, 1, l_b)

    def test_small_magnetic_length_with_finite_omega_accepted(self):
        assert 0 < LaughlinParams(2, 1, 1e-150).omega < np.inf


class TestBerryConnection:
    def test_single_hole_origin(self):
        assert berry_connection(QuasiholeSet(np.array([0.0j]), 1.0), 0, 1.0) == 0.0

    def test_symmetric_pair(self):
        a = 0.5
        holes = QuasiholeSet(np.array([a, -a], dtype=complex), 1.0)
        val = berry_connection(holes, 0, 1.0)
        assert val == pytest.approx(1j * (1 / (4 * a) + a / 4))

    def test_symbolic_oracle(self):
        import sympy as sp

        eta0, eta1 = 0.7 + 0.2j, -0.4 + 0.9j
        nu, l_b = 1.0 / 3.0, 1.3
        e0, e1 = sp.sympify(eta0), sp.sympify(eta1)
        expected = -sp.I * nu / 2 * (1 / (e1 - e0)) + sp.I * nu * sp.conjugate(e0) / (4 * l_b**2)
        got = berry_connection(QuasiholeSet(np.array([eta0, eta1]), nu), 0, l_b)
        assert got == pytest.approx(complex(expected))

    def test_negative_index_counts_from_the_end(self):
        rng = np.random.default_rng(3)
        holes = QuasiholeSet(rng.normal(size=5) + 1j * rng.normal(size=5), 1.0 / 3.0)
        last = berry_connection(holes, -1, 1.2)
        assert np.isfinite(last)
        assert last == berry_connection(holes, 4, 1.2)

    def test_structural_match_with_stationarity(self):
        # same pole locations and conjugate-linear term, up to -nu/2 vs m normalization
        rng = np.random.default_rng(4)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        params = LaughlinParams(4, 3, 1.1)
        s = laughlin_stationarity_residual(z, params)
        holes = QuasiholeSet(z, float(params.m_exp))
        for j in range(4):
            a = berry_connection(holes, j, params.l_B)
            # A = (i nu / 2) * (pair sum of S / m * ... ) : check the exact linear relation
            pair = (s[j] + np.conj(z[j]) * params.omega) / params.m_exp  # sum 1/(z_j - z_i)
            expected = -0.5j * holes.nu * (-pair) + 1j * holes.nu * np.conj(z[j]) * params.omega
            assert a == pytest.approx(expected)


class TestStationarityResidual:
    def test_symmetric_pair_closed_form(self):
        for m in (1, 3, 5):
            for l_b in (0.5, 1.0, 2.0):
                a = l_b * np.sqrt(2.0 * m)
                s = laughlin_stationarity_residual(
                    np.array([a, -a], dtype=complex), LaughlinParams(2, m, l_b)
                )
                assert np.abs(s).max() < 1e-13

    def test_single_particle(self):
        params = LaughlinParams(1, 1, 1.0)
        z = np.array([2.0 + 1.0j])
        s = laughlin_stationarity_residual(z, params)
        assert s[0] == pytest.approx(-np.conj(z[0]) / 4.0)
        assert np.abs(laughlin_stationarity_residual(np.array([0.0j]), params)).max() == 0.0

    def test_conjugation_property(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=5) + 1j * rng.normal(size=5)
        params = LaughlinParams(5, 3, 0.9)
        s = laughlin_stationarity_residual(z, params)
        sc = laughlin_stationarity_residual(np.conj(z), params)
        assert np.abs(sc - np.conj(s)).max() < 1e-12

    def test_rotational_equivariance(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        params = LaughlinParams(4, 1, 1.0)
        theta = 0.83
        s = laughlin_stationarity_residual(z, params)
        srot = laughlin_stationarity_residual(z * np.exp(1j * theta), params)
        assert np.abs(srot - s * np.exp(-1j * theta)).max() < 1e-12

    def test_gradient_of_log_modulus(self):
        # 2 d/dzbar_j log|psi| + omega z_j equals conj(S_j); finite differences
        rng = np.random.default_rng(21)
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        params = LaughlinParams(3, 3, 1.2)
        s = laughlin_stationarity_residual(z, params)
        h = 1e-6
        for j in range(3):
            def logmod(dz):
                zz = z.copy()
                zz[j] += dz
                return log_laughlin(zz, params).real

            gx = (logmod(h) - logmod(-h)) / (2 * h)
            gy = (logmod(1j * h) - logmod(-1j * h)) / (2 * h)
            two_dzbar = gx + 1j * gy
            assert two_dzbar + params.omega * z[j] == pytest.approx(np.conj(s[j]), abs=1e-6)


class TestPlanarJacobian:
    def test_matches_central_differences(self):
        # the shared jacobian's Wirtinger blocks: dS/dx = a + diag(b), dS/dy = i(a - diag(b))
        rng = np.random.default_rng(77)
        worst = 0.0
        for params in (LaughlinParams(2, 1, 1.0), LaughlinParams(5, 3, 1.1), LaughlinParams(7, 1, 0.7)):
            n = params.N
            while True:
                z = 2.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
                d = np.abs(z[:, None] - z[None, :]) + np.eye(n)
                if d.min() > 0.3:
                    break
            a, b = kirchhoff_jacobian(z, params.m_exp, ConjugateLinear(params.omega))
            b = np.eye(n) * b
            h = 1e-6
            for i in range(n):
                for col, step in (((a + b)[:, i], h), ((1j * (a - b))[:, i], 1j * h)):
                    zp, zm = z.copy(), z.copy()
                    zp[i] += step
                    zm[i] -= step
                    fd = (laughlin_stationarity_residual(zp, params)
                          - laughlin_stationarity_residual(zm, params)) / (2 * h)
                    worst = max(worst, np.abs(col.real - fd.real).max(),
                                np.abs(col.imag - fd.imag).max())
        assert worst < 1e-6


class TestPlanarEquilibrium:
    def test_pair_radius(self):
        params = LaughlinParams(2, 1, 1.0)
        sol = solve_planar_equilibrium(
            params, np.array([1.2 + 0.3j, -1.1 - 0.2j]), tol=1e-12
        )
        assert sol.converged and sol.residual_inf <= 1e-12
        assert np.abs(sol.positions) == pytest.approx([np.sqrt(2.0)] * 2, abs=1e-10)

    def test_single_particle_origin(self):
        sol = solve_planar_equilibrium(LaughlinParams(1), np.array([0.3 + 0.4j]))
        assert sol.converged
        assert abs(sol.positions[0]) < 1e-10

    def test_triangle(self):
        # brute-force oracle: minimize max |S| over symmetric triangle radius
        params = LaughlinParams(3, 1, 1.0)
        radii = np.linspace(1.5, 2.5, 20001)
        best = min(
            radii,
            key=lambda r: np.abs(
                laughlin_stationarity_residual(r * np.exp(2j * np.pi * np.arange(3) / 3), params)
            ).max(),
        )
        guess = 1.7 * np.exp(2j * np.pi * np.arange(3) / 3 + 0.05j)
        sol = solve_planar_equilibrium(params, guess, tol=1e-12)
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
        sol = solve_planar_equilibrium(LaughlinParams(3, 1, 1.0), z, tol=0.0)
        assert (sol.positions.tolist(), sol.iterations, sol.converged) == (z.tolist(), 0, False)

    @pytest.mark.parametrize("n", [10, 30])
    def test_returned_residual_is_max_modulus(self, n):
        # the modulus of the complex S_j, not the largest of its real and imaginary parts
        params = LaughlinParams(n)
        rng = np.random.default_rng(n)
        angles = 2.0 * np.pi * np.arange(n) / n + 0.01 * rng.standard_normal(n)
        guess = 0.9 * np.sqrt(2.0 * (n - 1)) * np.exp(1j * angles)
        sol = solve_planar_equilibrium(params, guess)
        assert sol.converged
        assert sol.residual_inf == np.abs(laughlin_stationarity_residual(sol.positions, params)).max()


class TestLadder:
    @pytest.mark.parametrize("prefactor", [None, lambda z: z])
    def test_lowering_annihilates_lll(self, prefactor):
        norms = []
        for n in (64, 128, 256):
            field, _ = gaussian_field(n, 16.0, prefactor=prefactor)
            low = ladder_apply(field, "lower", 1.0)
            norms.append(np.linalg.norm(low.amplitude) / np.linalg.norm(field.amplitude))
        # O(h^2): each halving of h cuts the residual by ~4
        assert norms[0] / norms[1] == pytest.approx(4.0, rel=0.2)
        assert norms[1] / norms[2] == pytest.approx(4.0, rel=0.2)

    def test_raised_state_orthogonal_to_ground(self):
        field, _ = gaussian_field(256, 16.0)
        up = ladder_apply(field, "raise", 1.0)
        psi = field.amplitude
        overlap = abs(np.vdot(psi, up.amplitude)) / (np.linalg.norm(psi) * np.linalg.norm(up.amplitude))
        assert overlap < 1e-3

    def test_commutator_is_unity(self):
        vals = []
        for n in (128, 256):
            field, _ = gaussian_field(n, 16.0)
            psi = field.amplitude
            ada = ladder_apply(ladder_apply(field, "raise", 1.0), "lower", 1.0).amplitude
            aad = ladder_apply(ladder_apply(field, "lower", 1.0), "raise", 1.0).amplitude
            vals.append(complex(np.vdot(psi, ada - aad) / np.vdot(psi, psi)))
        assert vals[1].real == pytest.approx(1.0, abs=5e-3)
        err = [abs(v - 1.0) for v in vals]
        assert err[0] / err[1] == pytest.approx(4.0, rel=0.3)

    def test_invalid_operator_name(self):
        field, _ = gaussian_field(16, 16.0)
        with pytest.raises(ValueError):
            ladder_apply(field, "sideways", 1.0)

    def test_mixed_terms_cancel_for_radial_functions(self):
        # omega (zbar d/dzbar - z d/dz) f(r) = 0 on a grid, to O(h^2)
        n = 256
        field, z = gaussian_field(n, 12.0)
        u = field.amplitude
        ux = np.gradient(u, field.dx, axis=1)
        uy = np.gradient(u, field.dy, axis=0)
        dz = 0.5 * (ux - 1j * uy)
        dzbar = 0.5 * (ux + 1j * uy)
        omega = 0.25
        mixed = omega * (np.conj(z) * dzbar - z * dz)
        assert np.abs(mixed).max() < 1e-4
