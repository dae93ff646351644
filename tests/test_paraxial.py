"""Beam synthesis, propagation, vortex detection, field I/O; the ladder operators.

The transform checks of the former radix-2 module live here, against the
numpy.fft path `propagate` uses: DFT agreement (dense-matrix oracle), frequency
layout and the power-of-two rule.  `propagate` multiplies the numpy.fft spectrum
by exp(-i k^2 dz / 2k) and transforms back, so its sign of propagation and its
energy conservation rest on numpy.fft's convention: forward kernel
exp(-2 pi i k n / N), inverse scaled by 1/N.  TestNumpyFFT pins that convention
(DFT oracle, round trip, Parseval, linearity); TestPropagate checks the
reversibility, energy and linearity of the propagation itself, and the
factored path of `beam` (`_lg_factors`, then `_slices`) against `propagate`
and the closed-form LG(0, ell) beams; TestLgFactors pins the factors' rank
and their aliasing fraction against the 2-d spectrum's.
"""

import inspect
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre

import vortexkit.paraxial as paraxial
from vortexkit.paraxial import (
    AliasingWarning,
    _lg_factors,
    _slices,
    BeamField,
    find_vortices,
    ladder_apply,
    lg_mode,
    load_field,
    propagate,
    save_field,
)
from oracles import laguerre, lg_mode_polar, topological_charge


def measured_width(field):
    xg, yg = field.grid()
    intensity = np.abs(field.amplitude) ** 2
    return np.sqrt(2.0 * np.sum((xg**2 + yg**2) * intensity) / np.sum(intensity))


def old_freq(n, d):
    """Frequency layout of the removed radix-2 module: 0..n/2-1, then -n/2..-1."""
    k = np.arange(n)
    k[n // 2:] -= n
    return k / (n * d)


def dft_oracle(x):
    n = x.size
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


def lg_slices(p, ell, w0, nx, ny, dx, dy, k, dz, count):
    """The beam path: LG(p, ell) as Hermite-Gauss factors, then `_slices` on them."""
    return _slices(*_lg_factors(p, ell, w0, nx, ny, dx, dy), dx, dy, k, dz, count)


def propagate_quietly(field, dz):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        return propagate(field, dz)


def _edge(u, a, b):
    """Phase step from pixel a to pixel b: one value per undirected edge, the angle
    of u[hi] conj(u[lo]) + 0.0 from its lower-index end lo (so an exact pi jump
    is +pi), negated when the edge is walked the other way."""
    return np.angle(u[b] * np.conj(u[a]) + 0.0) if a < b else -np.angle(u[a] * np.conj(u[b]) + 0.0)


def _circulation(u, loop):
    acc = 0.0
    for a, b in zip(loop[:-1], loop[1:]):
        acc += _edge(u, a, b)
    return acc


def find_vortices_reference(field, margin=4):
    """find_vortices with per-plaquette and per-dead-pixel loops."""
    amp = field.amplitude
    peak = np.abs(amp).max()
    if peak == 0.0:
        return []
    u = amp / peak
    ny, nx = amp.shape
    winding = np.zeros((ny - 1, nx - 1), dtype=int)
    for iy in range(ny - 1):
        for ix in range(nx - 1):
            loop = [(iy, ix), (iy, ix + 1), (iy + 1, ix + 1), (iy + 1, ix), (iy, ix)]
            winding[iy, ix] = int(round(_circulation(u, loop) / (2.0 * np.pi)))
    dead = np.abs(amp) < 1e-10 * peak
    corner_dead = dead[:-1, :-1] | dead[:-1, 1:] | dead[1:, :-1] | dead[1:, 1:]
    winding[corner_dead] = 0
    faint = np.abs(amp) < 1e-6 * peak
    all_faint = faint[:-1, :-1] & faint[:-1, 1:] & faint[1:, :-1] & faint[1:, 1:]
    winding[all_faint & ~corner_dead] = 0
    if margin > 0:
        winding[:margin, :] = 0
        winding[-margin:, :] = 0
        winding[:, :margin] = 0
        winding[:, -margin:] = 0
    x = field.x()
    y = field.y()
    out = []
    for iy, ix in zip(*np.nonzero(dead)):
        lo = max(1, margin)
        if iy < lo or ix < lo or iy > ny - 1 - lo or ix > nx - 1 - lo:
            continue
        loop = [(iy - 1, ix - 1), (iy - 1, ix), (iy - 1, ix + 1), (iy, ix + 1),
                (iy + 1, ix + 1), (iy + 1, ix), (iy + 1, ix - 1), (iy, ix - 1),
                (iy - 1, ix - 1)]
        if any(dead[p] for p in loop[:-1]) or all(faint[p] for p in loop[:-1]):
            continue
        q = int(round(_circulation(u, loop) / (2.0 * np.pi)))
        if q != 0:
            out.append(((float(x[ix]), float(y[iy])), q))
    ys, xs = np.nonzero(winding)
    for iy, ix in zip(ys, xs):
        u00, u01 = amp[iy, ix], amp[iy, ix + 1]
        u10, u11 = amp[iy + 1, ix], amp[iy + 1, ix + 1]
        gx = 0.5 * ((u01 - u00) + (u11 - u10))
        gy = 0.5 * ((u10 - u00) + (u11 - u01))
        u0 = 0.25 * (u00 + u01 + u10 + u11)
        a = np.array([[gx.real, gy.real], [gx.imag, gy.imag]])
        b = -np.array([u0.real, u0.imag])
        try:
            t = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            t = np.zeros(2)
        t = np.clip(t, -0.5, 0.5)
        px = x[ix] + (0.5 + t[0]) * field.dx
        py = y[iy] + (0.5 + t[1]) * field.dy
        out.append(((float(px), float(py)), int(winding[iy, ix])))
    return out


# the 8 neighbours of a pixel as (dy, dx)
_RING = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))


def find_vortices_full_scan(field, margin=4):
    """find_vortices as one vectorised scan of the whole grid, with no half-plane
    prefilter: edge angles on every edge, eight shifted masks for the isolated dead
    pixels, and one plane fit per wound plaquette."""
    amp = field.amplitude
    mag = np.abs(amp)
    peak = mag.max()
    if peak == 0.0:
        return []
    ex = np.angle(amp[:, :-1].conj() / peak * (amp[:, 1:] / peak) + 0.0)
    ey = np.angle(amp[:-1].conj() / peak * (amp[1:] / peak) + 0.0)
    circ = ex[:-1] + ey[:, 1:] - ex[1:] - ey[:, :-1]
    winding = np.rint(circ / (2.0 * np.pi)).astype(int)
    dead = mag < 1e-10 * peak
    corner_dead = dead[:-1, :-1] | dead[:-1, 1:] | dead[1:, :-1] | dead[1:, 1:]
    winding[corner_dead] = 0
    faint = mag < 1e-6 * peak
    all_faint = faint[:-1, :-1] & faint[:-1, 1:] & faint[1:, :-1] & faint[1:, 1:]
    winding[all_faint & ~corner_dead] = 0
    if margin > 0:
        winding[:margin, :] = 0
        winding[-margin:, :] = 0
        winding[:, :margin] = 0
        winding[:, -margin:] = 0
    x = field.x()
    y = field.y()
    ny, nx = amp.shape
    lo = max(1, margin)
    isolated = dead[lo:ny - lo, lo:nx - lo].copy()
    for dy, dx in _RING:
        isolated &= ~dead[lo + dy:ny - lo + dy, lo + dx:nx - lo + dx]
    cy, cx = np.nonzero(isolated)
    cy, cx = cy + lo, cx + lo
    quad = (cy - 1, cx - 1), (cy - 1, cx), (cy, cx - 1), (cy, cx)
    charge = np.rint(sum(circ[q] for q in quad) / (2.0 * np.pi)).astype(int)
    charge[np.logical_and.reduce([all_faint[q] for q in quad])] = 0
    out = [((float(x[i]), float(y[j])), q)
           for j, i, q in zip(cy.tolist(), cx.tolist(), charge.tolist()) if q]
    ys, xs = np.nonzero(winding)
    for iy, ix in zip(ys, xs):
        u00, u01 = amp[iy, ix], amp[iy, ix + 1]
        u10, u11 = amp[iy + 1, ix], amp[iy + 1, ix + 1]
        gx = 0.5 * ((u01 - u00) + (u11 - u10))
        gy = 0.5 * ((u10 - u00) + (u11 - u01))
        u0 = 0.25 * (u00 + u01 + u10 + u11)
        a = np.array([[gx.real, gy.real], [gx.imag, gy.imag]])
        b = -np.array([u0.real, u0.imag])
        try:
            t = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            t = np.zeros(2)
        t = np.clip(t, -0.5, 0.5)
        px = x[ix] + (0.5 + t[0]) * field.dx
        py = y[iy] + (0.5 + t[1]) * field.dy
        out.append(((float(px), float(py)), int(winding[iy, ix])))
    return out


@pytest.fixture
def gauss_beam():
    return lg_mode(0, 0, 1.0, 256, 256, 8.0 / 256, 8.0 / 256, 100.0)


class TestBeamField:
    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            BeamField(np.zeros((8, 8), dtype=complex), 0.1, 0.1, 1.0)
        with pytest.raises(ValueError):
            BeamField(np.zeros((48, 64), dtype=complex), 0.1, 0.1, 1.0)

    def test_non_power_of_two_rejected(self):
        for shape in ((16, 12), (12, 16), (16, 48), (96, 64)):
            with pytest.raises(ValueError, match="powers of two"):
                BeamField(np.zeros(shape, dtype=complex), 0.1, 0.1, 1.0)

    def test_rejects_bad_scalars(self):
        amp = np.zeros((16, 16), dtype=complex)
        for kwargs in (dict(dx=0.0, dy=0.1, k=1.0), dict(dx=0.1, dy=0.1, k=-1.0)):
            with pytest.raises(ValueError):
                BeamField(amp, **kwargs)


class TestLgMode:
    @pytest.mark.parametrize("p", range(4))
    def test_matches_polar_form(self, p):
        n, dx = 256, 8.0 / 256
        for ell in range(-5, 6):
            f = lg_mode(p, ell, 1.0, n, n, dx, dx, 100.0)
            want = lg_mode_polar(p, ell, 1.0, n, n, dx, dx)
            assert np.abs(f.amplitude - want).max() <= 1e-13 * np.abs(want).max()
            assert f.power() == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("p", range(4))
    def test_matches_polar_form_on_a_non_square_grid(self, p):
        # the Gaussian is exp(-y^2/w0^2)[:, None] * exp(-x^2/w0^2): axis 0 must take y and dy
        nx, ny, dx = 128, 256, 1.0 / 16
        for ell in range(-3, 4):
            f = lg_mode(p, ell, 1.0, nx, ny, dx, 2 * dx, 100.0)
            want = lg_mode_polar(p, ell, 1.0, nx, ny, dx, 2 * dx)
            assert f.amplitude.shape == (ny, nx)
            assert np.abs(f.amplitude - want).max() <= 1e-13 * np.abs(want).max()

    def test_fundamental_gaussian(self, gauss_beam):
        phase = np.angle(gauss_beam.amplitude)
        mask = np.abs(gauss_beam.amplitude) > 1e-8
        assert np.ptp(phase[mask]) < 1e-10

    def test_unit_vortex_zero_on_axis(self):
        f = lg_mode(0, 1, 1.0, 128, 128, 8.0 / 128, 8.0 / 128, 100.0)
        assert abs(f.amplitude[64, 64]) == 0.0
        assert topological_charge(f, (64, 64), 16) == 1

    def test_normalization(self, gauss_beam):
        assert gauss_beam.power() == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("p", range(8))
    def test_laguerre_factor_matches_scipy(self, p):
        # L_p^a(-rho) has the coefficients of L_p^a(rho) in absolute value: it is the size of the terms
        rho = np.linspace(0.0, 60.0, 6001)
        for a in range(6):
            err = np.abs(laguerre(p, a, rho) - eval_genlaguerre(p, a, rho))
            assert np.all(err <= 3 * p * np.finfo(float).eps * eval_genlaguerre(p, a, -rho))

    def test_resolution_guards(self):
        with pytest.raises(ValueError):
            lg_mode(0, 0, 0.2, 64, 64, 0.1, 0.1, 1.0)  # under-resolved waist
        with pytest.raises(ValueError):
            lg_mode(0, 0, 2.0, 16, 16, 0.25, 0.25, 1.0)  # extent < 6 w0

    @pytest.mark.parametrize("dx, dy", [(0.0, 0.1), (0.1, 0.0), (-0.1, 0.1), (0.1, -0.1), (np.nan, 0.1)])
    def test_refuses_a_spacing_that_is_not_positive(self, dx, dy):
        # a zero spacing used to raise ZeroDivisionError, and a negative one read as an under-resolved waist
        with pytest.raises(ValueError, match="need dx > 0 and dy > 0"):
            lg_mode(0, 0, 1.0, 64, 64, dx, dy, 1.0)

    def test_waist_field_only(self):
        # the mode is the field at z = 0; a field further along z comes from propagate
        assert list(inspect.signature(lg_mode).parameters) == ["p", "ell", "w0", "nx", "ny", "dx", "dy", "k"]
        assert lg_mode(0, 1, 1.0, 64, 64, 8.0 / 64, 8.0 / 64, 100.0).z == 0.0


class TestLgFactors:
    @pytest.mark.parametrize("p, ell", [(0, 0), (0, 1), (0, -3), (2, 3), (1, -2), (3, 1), (20, 80)])
    def test_rank(self, p, ell):
        fy, fx = _lg_factors(p, ell, 0.5, 128, 256, 0.0625, 0.0625)
        assert fy.shape == (256, 2 * p + abs(ell) + 1) and fx.shape == (128, 2 * p + abs(ell) + 1)

    @pytest.mark.parametrize("p, ell, w0, n", [(0, 1, 1.0, 256), (0, 2, 2.5, 256), (0, 1, 4.0, 512),
                                               (2, 3, 1.0, 256), (0, 1, 1.0, 128), (20, 80, 0.5, 128)])
    def test_aliasing_fraction_matches_2d_spectrum(self, p, ell, w0, n):
        # the beam workload's modes, and the aliased LG(20,80) case of the CLI
        fy, fx = _lg_factors(p, ell, w0, n, n, 0.0625, 0.0625)
        frac = paraxial._factor_energy_fraction_outer(np.fft.fft(fy, axis=0), np.fft.fft(fx, axis=0))
        assert abs(frac - paraxial._spectral_energy_fraction_outer(np.fft.fft2(fy @ fx.T))) <= 1e-12
        assert (frac > 0.01) == (p == 20)


class TestPropagate:
    def test_gaussian_beam_law(self, gauss_beam):
        z_r = 0.5 * gauss_beam.k * 1.0**2
        out = propagate(gauss_beam, z_r)
        assert measured_width(out) == pytest.approx(np.sqrt(2.0), rel=0.005)

    def test_gaussian_beam_closed_form(self):
        # LG(0,0) at the beam defaults: u = (s0/s) A0 exp(-r^2/(4s)), s = w0^2/4 + iz/2k
        n, dx, k, w0 = 256, 0.0625, 100.0, 1.0
        f = lg_mode(0, 0, w0, n, n, dx, dx, k)
        xg, yg = f.grid()
        r2 = xg**2 + yg**2
        s0, z_r = w0**2 / 4, 0.5 * k * w0**2
        a0 = f.amplitude[n // 2, n // 2]
        slices = list(lg_slices(0, 0, w0, n, n, dx, dx, k, z_r / 4, 4))
        assert np.array_equal(slices[0].amplitude, f.amplitude)
        for zeta, g in zip((0.25, 0.5, 0.75, 1.0), slices[1:]):
            s = s0 + 1j * zeta * z_r / (2 * k)
            want = (s0 / s) * a0 * np.exp(-r2 / (4 * s))
            assert g.z == pytest.approx(zeta * z_r, rel=1e-15)
            assert np.abs(g.amplitude - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("p, ell, nx, ny, dy", [
        (0, 1, 256, 256, 0.0625), (0, 2, 256, 256, 0.0625), (0, -2, 256, 256, 0.0625), (0, 3, 256, 256, 0.0625),
        (2, 3, 256, 256, 0.0625), (1, -2, 256, 256, 0.0625), (3, 1, 256, 256, 0.0625), (1, 2, 128, 256, 0.125)])
    def test_factored_slices_match_closed_form_and_propagate(self, p, ell, nx, ny, dy):
        # LG(0,ell) is A (s0/s)^(|ell|+1) (x + i sign(ell) y)^|ell| exp(-r^2/(4s)), s = w0^2/4 + iz/2k.
        # zeta = 1 is left out: the periodic box's wrap-around puts both paths up to 5.6e-12 off there.
        dx, k, w0 = 0.0625, 100.0, 1.0
        s0, z_r = w0**2 / 4, 0.5 * k * w0**2
        slices = list(lg_slices(p, ell, w0, nx, ny, dx, dy, k, z_r / 4, 3))
        seed = slices[0]
        xg, yg = seed.grid()
        r2 = xg**2 + yg**2
        core = (xg + 1j * np.sign(ell) * yg) ** abs(ell)
        waist = core * np.exp(-r2 / (4 * s0))
        a = np.vdot(waist, seed.amplitude) / np.vdot(waist, waist)
        for zeta, g in zip((0.25, 0.5, 0.75), slices[1:]):
            assert g.z == pytest.approx(zeta * z_r, rel=1e-15)
            want = propagate(seed, g.z).amplitude
            assert np.abs(g.amplitude - want).max() <= 1e-13 * np.abs(want).max()
            if p == 0:
                s = s0 + 1j * g.z / (2 * k)
                want = a * (s0 / s) ** (abs(ell) + 1) * core * np.exp(-r2 / (4 * s))
                assert np.abs(g.amplitude - want).max() <= 1e-13 * np.abs(want).max()

    def test_zero_field(self):
        f = BeamField(np.zeros((32, 32), dtype=complex), 0.1, 0.1, 10.0)
        out = propagate(f, 1.0)
        assert np.all(out.amplitude == 0.0)

    def test_energy_conservation_per_step(self, gauss_beam):
        f = gauss_beam
        for _ in range(5):
            g = propagate(f, 7.0)
            assert abs(g.power() - f.power()) < 1e-10
            f = g

    def test_lg01_self_similar(self):
        # every LG mode is self-similar: its rms radius grows by sqrt(2) at z_R
        f = lg_mode(0, 1, 1.0, 256, 256, 16.0 / 256, 16.0 / 256, 100.0)
        z_r = 0.5 * f.k
        g = propagate(f, z_r)
        assert measured_width(g) / measured_width(f) == pytest.approx(np.sqrt(2.0), rel=0.005)
        # ring-shaped profile keeps its central null
        assert abs(g.amplitude[128, 128]) < 1e-6 * np.abs(g.amplitude).max()

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a = lg_mode(0, 1, 1.0, 64, 64, 8.0 / 64, 8.0 / 64, 50.0)
        b = lg_mode(1, 0, 1.0, 64, 64, 8.0 / 64, 8.0 / 64, 50.0)
        lhs = propagate(
            BeamField(2.0 * a.amplitude - 0.7j * b.amplitude, a.dx, a.dy, a.k), 3.0
        ).amplitude
        rhs = 2.0 * propagate(a, 3.0).amplitude - 0.7j * propagate(b, 3.0).amplitude
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_reversibility(self, gauss_beam):
        back = propagate(propagate(gauss_beam, 11.0), -11.0)
        assert np.abs(back.amplitude - gauss_beam.amplitude).max() < 1e-10

    def test_aliasing_warning(self):
        rng = np.random.default_rng(5)
        noise = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        f = BeamField(noise, 0.1, 0.1, 10.0)
        with pytest.warns(AliasingWarning):
            propagate(f, 0.1)

    @pytest.mark.parametrize("shape", [(16, 32), (64, 16), (128, 256), (256, 64)])
    def test_aliasing_fraction_matches_mask_formula(self, shape):
        # the former formula: a 2-d boolean mask of the outer quarter over |spec|^2
        def masked(spec_sq, nx, ny):
            fx, fy = np.fft.fftfreq(nx), np.fft.fftfreq(ny)
            outer = ((np.abs(fx)[None, :] / np.abs(fx).max() > 0.75)
                     | (np.abs(fy)[:, None] / np.abs(fy).max() > 0.75))
            return float(spec_sq[outer].sum() / spec_sq.sum())

        rng = np.random.default_rng(shape[0] + shape[1])
        ny, nx = shape
        for spread in (0.0, 3.0):  # flat spectra, and magnitudes over many decades
            spec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            spec *= np.exp(spread * rng.normal(size=shape))
            want = masked(np.abs(spec) ** 2, nx, ny)
            assert abs(paraxial._spectral_energy_fraction_outer(spec) - want) <= 1e-14
        assert paraxial._spectral_energy_fraction_outer(np.zeros(shape, dtype=complex)) == 0.0

    def test_slices_from_one_transform(self, gauss_beam):
        slices = list(lg_slices(0, 0, 1.0, 256, 256, 8.0 / 256, 8.0 / 256, 100.0, 4.0, 3))
        # the seed is gauss_beam's field bit for bit
        assert np.array_equal(slices[0].amplitude, gauss_beam.amplitude) and slices[0].z == 0.0
        for s, f in enumerate(slices[1:], 1):
            assert f.z == s * 4.0
            assert np.abs(f.amplitude - propagate(gauss_beam, s * 4.0).amplitude).max() < 1e-12

    def test_matches_dft_matrix_oracle(self):
        # F^-1 diag(phase) F with dense DFT matrices, on a non-square grid
        ny, nx, dx, dy, k, dz, steps = 16, 32, 0.1, 0.2, 10.0, 0.3, 3
        rng = np.random.default_rng(4)
        a = rng.normal(size=(ny, nx)) + 1j * rng.normal(size=(ny, nx))
        fy, fx = (np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) for n in (ny, nx))
        k2 = (2.0 * np.pi) ** 2 * (old_freq(nx, dx)[None, :] ** 2 + old_freq(ny, dy)[:, None] ** 2)
        phase = np.exp(-1j * k2 * steps * dz / (2.0 * k))
        want = fy.conj() @ ((fy @ a @ fx) * phase) @ fx.conj() / (nx * ny)
        out = propagate_quietly(BeamField(a, dx, dy, k), steps * dz)
        assert np.abs(out.amplitude - want).max() < 1e-12
        assert out.z == steps * dz

    def test_freq_layout(self):
        assert np.fft.fftfreq(8, d=0.5) == pytest.approx([0, 0.25, 0.5, 0.75, -1.0, -0.75, -0.5, -0.25])
        # each grid plane wave picks up exp(-i (2 pi f)^2 dz / 2k), f in that layout
        n, d, k, dz = 16, 0.5, 10.0, 0.7
        j = np.arange(n)
        for m, f in zip(j, old_freq(n, d)):
            row = np.tile(np.exp(2j * np.pi * m * j / n), (n, 1))
            want = row * np.exp(-1j * (2.0 * np.pi * f) ** 2 * dz / (2.0 * k))
            for wave, expect in ((row, want), (row.T.copy(), want.T)):
                out = propagate_quietly(BeamField(wave, d, d, k), dz)
                assert np.abs(out.amplitude - expect).max() < 1e-12


class TestNumpyFFT:
    """The transform under the paraxial layer: numpy.fft's convention, pinned."""

    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    def test_matches_direct_dft(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.abs(np.fft.fft(x) - dft_oracle(x)).max() < 1e-10 * n

    def test_round_trip_2d(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(32, 128)) + 1j * rng.normal(size=(32, 128))
        assert np.abs(np.fft.ifft2(np.fft.fft2(a)) - a).max() < 1e-12

    def test_parseval_2d(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        spec = np.fft.fft2(a)
        lhs = np.sum(np.abs(a) ** 2)
        rhs = np.sum(np.abs(spec) ** 2) / a.size
        assert abs(lhs - rhs) < 1e-12 * lhs

    def test_linearity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=128) + 1j * rng.normal(size=128)
        b = rng.normal(size=128) + 1j * rng.normal(size=128)
        lhs = np.fft.fft(2.0 * a - 1.5j * b)
        rhs = 2.0 * np.fft.fft(a) - 1.5j * np.fft.fft(b)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestTopologicalCharge:
    @pytest.mark.parametrize("ell", [-3, -2, -1, 0, 1, 2, 3])
    def test_lg_charges_exact(self, ell):
        f = lg_mode(0, ell, 1.0, 128, 128, 8.0 / 128, 8.0 / 128, 100.0)
        assert topological_charge(f, (64, 64), 16) == ell

    def test_gaussian_no_winding(self, gauss_beam):
        assert topological_charge(gauss_beam, (128, 128), 32) == 0

    def test_invariant_under_global_phase_and_radius(self):
        f = lg_mode(0, 2, 1.0, 128, 128, 8.0 / 128, 8.0 / 128, 100.0)
        rotated = BeamField(f.amplitude * np.exp(0.7j), f.dx, f.dy, f.k)
        for radius in (10, 16, 28):
            assert topological_charge(rotated, (64, 64), radius) == 2

    def test_core_on_loop_rejected(self):
        f = lg_mode(0, 1, 1.0, 128, 128, 8.0 / 128, 8.0 / 128, 100.0)
        # loop centered just off the core passes exactly through the null
        with pytest.raises(ValueError):
            topological_charge(f, (64.3, 64.0), 0.3)

    def test_loop_leaving_grid_rejected(self):
        f = lg_mode(0, 1, 1.0, 128, 128, 8.0 / 128, 8.0 / 128, 100.0)
        with pytest.raises(ValueError):
            topological_charge(f, (2, 2), 10)


class TestFindVortices:
    def test_lg_unit_vortex(self):
        f = lg_mode(0, 1, 1.0, 128, 128, 8.0 / 128, 8.0 / 128, 100.0)
        found = find_vortices(f)
        assert len(found) == 1
        (x, y), charge = found[0]
        assert charge == 1
        assert abs(x) <= 0.5 * f.dx and abs(y) <= 0.5 * f.dy

    def test_two_imprinted_vortices(self):
        n, extent = 128, 10.0
        dx = extent / n
        x = (np.arange(n) - n // 2) * dx
        xg, yg = np.meshgrid(x, x)
        z = xg + 1j * yg
        a = 0.731 + 0.412j
        u = (z - a) * (z + a) * np.exp(-np.abs(z) ** 2 / 2)
        found = find_vortices(BeamField(u, dx, dx, 50.0))
        assert sorted(c for _, c in found) == [1, 1]
        positions = sorted(pos for pos, _ in found)
        assert positions[0] == pytest.approx((-a.real, -a.imag), abs=dx)
        assert positions[1] == pytest.approx((a.real, a.imag), abs=dx)

    def test_charge_conserved_under_propagation(self):
        f = lg_mode(0, 1, 1.0, 128, 128, 8.0 / 128, 8.0 / 128, 100.0)
        totals = []
        for _ in range(11):
            totals.append(sum(c for _, c in find_vortices(f)))
            f = propagate(f, 5.0)
        assert totals == [1] * 11

    def test_empty_for_plain_gaussian(self, gauss_beam):
        assert find_vortices(gauss_beam) == []


def _vortex_field(n, cores, dx=0.1):
    """Gaussian times (z - z_c) or its conjugate per (iy, ix, sign): exact zeros on pixels."""
    x = (np.arange(n) - n // 2) * dx
    xg, yg = np.meshgrid(x, x)
    z = xg + 1j * yg
    u = np.exp(-np.abs(z) ** 2 / (0.1 * (n * dx) ** 2))
    for iy, ix, sign in cores:
        zc = z - z[iy, ix]
        u = u * (zc if sign > 0 else zc.conj())
    return BeamField(u, dx, dx, 10.0)


def _random_with_zeros(n=64):
    u = np.random.default_rng(8).normal(size=(n, n, 2)) @ [1.0, 1j]
    for iy, ix in ((10, 10), (10, 11), (20, 20), (21, 21), (30, 45), (40, 12), (41, 12), (50, 50), (55, 5)):
        u[iy, ix] = 0.0
    return BeamField(u, 0.1, 0.1, 10.0)


def _edge_cores(lo, n=32):
    """Cores on the first scanned ring (lo) and one pixel outside it (lo - 1), each side."""
    cores = [(lo, 10, 1), (n - 1 - lo, 20, -1), (12, lo, 1), (22, n - 1 - lo, 1)]
    if lo > 0:
        cores += [(lo - 1, 16, 1), (n - lo, 6, 1), (6, lo - 1, -1), (16, n - lo, 1)]
    return _vortex_field(n, cores)


def _lg(p, ell, n=256, z=0.0):
    dx = 0.0625 if n >= 256 else 8.0 / n
    f = lg_mode(p, ell, 1.0, n, n, dx, dx, 100.0)
    return propagate(f, z) if z else f


def _real_field(seed, n=64):
    """Random real amplitudes: phases 0 and pi only, so every sign change is an exact-pi edge."""
    return BeamField(np.random.default_rng(seed).normal(size=(n, n)).astype(complex), 0.1, 0.1, 10.0)


def _complex_field(seed, n=64):
    return BeamField(np.random.default_rng(seed).normal(size=(n, n, 2)) @ [1.0, 1j], 0.1, 0.1, 10.0)


def _half_real(n=64):
    """Real on the left half, complex on the right: singular and regular plane fits side by side."""
    u = _complex_field(1, n).amplitude
    u[:, :n // 2] = _real_field(1, n).amplitude[:, :n // 2]
    return BeamField(u, 0.1, 0.1, 10.0)


def _subnormal_parts(n=16):
    """Four corners with Re u = 5e-324 > 0: Im u is +0.4, -0.4, +0.4, +0.4 around the plaquette
    (7, 7), so both terms of the Im of its top edge's product round to zero and the edge rule
    reads that step of -pi + d as +pi.  The plaquettes (6, 7) and (7, 7) wind -1 and +1."""
    u = np.ones((n, n), dtype=complex)
    for (iy, ix), im in (((7, 7), 0.4), ((7, 8), -0.4), ((8, 8), 0.4), ((8, 7), 0.4)):
        u[iy, ix] = complex(5e-324, im)
    return BeamField(u, 0.1, 0.1, 10.0)


SCAN_CASES = {
    "lg01_g256": (lambda: _lg(0, 1), 4),
    "lg23_g256": (lambda: _lg(2, 3), 4),
    "lg23_g256_z25": (lambda: _lg(2, 3, z=25.0), 4),
    "lg1m2_g256": (lambda: _lg(1, -2), 4),
    "random_planted_zeros": (_random_with_zeros, 4),
    "random_planted_zeros_margin0": (_random_with_zeros, 0),
    "edge_cores_margin4": (lambda: _edge_cores(4), 4),
    "edge_cores_margin1": (lambda: _edge_cores(1), 1),
    "edge_cores_margin0": (lambda: _edge_cores(1), 0),
    "grid16": (lambda: _vortex_field(16, [(5, 5, 1), (8, 10, -1), (10, 6, 1), (11, 11, 1)]), 4),
    "grid16_margin0": (lambda: _vortex_field(16, [(0, 5, 1), (1, 8, -1), (8, 8, 1), (14, 3, 1)]), 0),
    "grid16_margin7": (lambda: _vortex_field(16, [(7, 8, 1), (5, 5, -1)]), 7),
    "lg01_g64_margin_half": (lambda: _lg(0, 1, n=64), 32),
    "lg01_g64_margin_above_half": (lambda: _lg(0, 1, n=64), 33),
    "lg01_g64_margin_huge": (lambda: _lg(0, 1, n=64), 1000),
    "real_field0": (lambda: _real_field(0), 4),
    "half_real": (_half_real, 4),
    "subnormal_parts": (_subnormal_parts, 4),
}


class TestFindVorticesOracle:
    @pytest.mark.parametrize("case", SCAN_CASES)
    def test_matches_per_pixel_reference(self, case):
        make, margin = SCAN_CASES[case]
        field = make()
        assert find_vortices(field, margin) == find_vortices_reference(field, margin)

    def test_cases_reach_the_dead_pixel_path(self):
        assert find_vortices(_lg(0, 1)) == [((0.0, 0.0), 1)]
        found = find_vortices(_edge_cores(4), 4)
        assert sorted(c for _, c in found) == [-1, 1, 1, 1]
        assert [c for _, c in find_vortices(_vortex_field(16, [(7, 8, 1), (5, 5, -1)]), 7)] == [1]

    def test_cases_reach_the_singular_plane_fit(self, monkeypatch):
        # a real field has Im u = 0 at every corner, so each wound plaquette's 2 x 2 system is
        # singular: the stacked solve raises and every core sits at its plaquette's centre
        raised = []
        solve = np.linalg.solve

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                raised.append(np.shape(a))
                raise

        monkeypatch.setattr(paraxial.np.linalg, "solve", spy)
        field = _real_field(0)
        centres = set((field.x()[:-1] + 0.5 * field.dx).tolist())
        found = find_vortices(field)
        assert found and raised[0] == (len(found), 2, 2)
        assert all(x in centres and y in centres for (x, y), _ in found)
        # the half-real field mixes singular rows, solved as (0, 0), with regular ones
        raised.clear()
        found = find_vortices(_half_real())
        assert raised and not all(x in centres for (x, _), _ in found)

    def test_subnormal_parts_are_not_a_half_plane(self):
        # the winding plaquettes have Re u > 0 at all four corners; a prefilter testing Re u > 0
        # in place of Re u > tiny would drop them
        field = _subnormal_parts()
        assert np.all(field.amplitude.real > 0.0)
        assert find_vortices(field) == [((-0.05, -0.1), -1), ((-0.05, -0.05), 1)]


class _AnySide(BeamField):
    """A BeamField on any grid side: the scan itself does not need powers of two."""

    def __post_init__(self):
        pass


@st.composite
def planted_fields(draw):
    """Random fields, smoothed 0-3 times so that neighbours share half-planes, with exact
    zeros and +-5e-324 planted in Re u, Im u or both, on whole rows, columns and pixels."""
    ny, nx = draw(st.integers(16, 40)), draw(st.integers(16, 40))
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(ny, nx, 2)) @ [1.0, 1j]
    for _ in range(draw(st.integers(0, 3))):
        u = u + np.roll(u, 1, axis=0) + np.roll(u, 1, axis=1)
    u /= np.abs(u).max()
    plants = st.tuples(st.sampled_from(["real", "imag", "both"]), st.sampled_from(["row", "col", "pixel"]),
                       st.integers(0, 39), st.integers(0, 39), st.sampled_from([0.0, 5e-324, -5e-324]))
    for part, where, j, i, value in draw(st.lists(plants, max_size=8)):
        at = {"row": (j % ny, slice(None)), "col": (slice(None), i % nx), "pixel": (j % ny, i % nx)}[where]
        if part in ("real", "both"):
            u.real[at] = value
        if part in ("imag", "both"):
            u.imag[at] = value
    return _AnySide(u, 0.1, 0.1, 10.0)


PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)


class TestHalfPlanePrefilter:
    @PROPERTY
    @given(field=planted_fields(), margin=st.integers(0, 5))
    def test_planted_fields_match_per_pixel_reference(self, field, margin):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert find_vortices(field, margin) == find_vortices_reference(field, margin)

    @pytest.mark.parametrize("case", ["lg01_g512_w4", "lg23", "lg1m2", "lg31", "real"])
    def test_matches_full_scan(self, case):
        # the beam slices of the CI runs, at scale 1 and 2**+-600, and four real fields
        modes = {"lg01_g512_w4": (0, 1, 4.0, 512, 20), "lg23": (2, 3, 1.0, 256, 2),
                 "lg1m2": (1, -2, 1.0, 256, 2), "lg31": (3, 1, 1.0, 256, 2)}
        if case == "real":
            fields = [_real_field(seed) for seed in range(4)]
        else:
            p, ell, w0, n, count = modes[case]
            fields = list(lg_slices(p, ell, w0, n, n, 0.0625, 0.0625, 100.0, 0.5 * 100.0 * w0**2 / count, count))
            fields += [replace(g, amplitude=scale * g.amplitude) for g in fields for scale in (2.0**600, 2.0**-600)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for g in fields:
                assert find_vortices(g) == find_vortices_full_scan(g)

    def test_edge_angles_only_near_cores(self, monkeypatch):
        # LG(0,1) at 512 x 512: one core, so a handful of the 261,121 plaquettes reach the edge rule
        sizes = []
        circulation = paraxial._circulation

        def spy(u, idx, nx):
            sizes.append(len(idx))
            return circulation(u, idx, nx)

        monkeypatch.setattr(paraxial, "_circulation", spy)
        for g in lg_slices(0, 1, 4.0, 512, 512, 0.0625, 0.0625, 100.0, 40.0, 20):
            sizes.clear()
            assert sum(c for _, c in find_vortices(g)) == 1
            assert sum(sizes) <= 8


# real fields total 0 under the product rule; the complex ones wind -8, 3, -4, -4, 6, 1 and 8
BOUNDARY_CASES = {str(seed): lambda seed=seed: _real_field(seed) for seed in range(8)}
BOUNDARY_CASES.update({f"complex{seed}": lambda seed=seed: _complex_field(seed) for seed in range(6)})
BOUNDARY_CASES["complex_planted_zeros"] = _random_with_zeros


class TestEdgeRule:
    @pytest.mark.parametrize("p, ell", [(2, 3), (1, -2), (3, 1)])
    def test_lg_total_charge_at_waist(self, p, ell):
        # the node rings have exact pi phase jumps; one step per edge keeps the total at ell
        assert sum(c for _, c in find_vortices(_lg(p, ell))) == ell

    @pytest.mark.parametrize("case", BOUNDARY_CASES)
    def test_total_charge_is_boundary_winding(self, case):
        field = BOUNDARY_CASES[case]()
        u = field.amplitude / np.abs(field.amplitude).max()
        n = field.nx
        boundary = ([(0, i) for i in range(n)] + [(j, n - 1) for j in range(1, n)]
                    + [(n - 1, i) for i in range(n - 2, -1, -1)] + [(j, 0) for j in range(n - 2, -1, -1)])
        want = int(round(_circulation(u, boundary) / (2.0 * np.pi)))
        assert want != 0 or case.isdigit()
        assert sum(c for _, c in find_vortices(field, 0)) == want

    @pytest.mark.parametrize("p, ell", [(0, 1), (2, 3)])
    def test_scale_invariant(self, p, ell):
        # u = amp / peak keeps |u| <= 1, so no edge product overflows or underflows; the scaling
        # multiply turns -0.0 into +0.0, which the + 0.0 of the edge rule makes harmless
        field = _lg(p, ell)
        want = find_vortices(field)
        for scale in (2.0**600, 2.0**-600):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert find_vortices(replace(field, amplitude=scale * field.amplitude)) == want

    def test_dead_pixel_in_faint_neighbourhood_has_no_charge(self):
        # all eight neighbours of the zero at 2 + 2i sit below 2.7e-8 of the peak
        n, dx = 64, 0.1
        x = (np.arange(n) - n // 2) * dx
        xg, yg = np.meshgrid(x, x)
        z = xg + 1j * yg
        u = np.exp(-np.abs(z) ** 2 / 0.5) * (z - z[52, 52])
        assert z[52, 52] == 2 + 2j
        assert find_vortices(BeamField(u, dx, dx, 10.0)) == []


class TestFieldIO:
    def test_round_trip(self, tmp_path, gauss_beam):
        path = tmp_path / "field.bin"
        save_field(gauss_beam, path)
        back = load_field(path)
        assert np.array_equal(back.amplitude, gauss_beam.amplitude)
        assert (back.dx, back.dy, back.k, back.z) == (
            gauss_beam.dx,
            gauss_beam.dy,
            gauss_beam.k,
            gauss_beam.z,
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTFIELD" + b"\0" * 64)
        with pytest.raises(ValueError):
            load_field(path)


def gaussian_field(n, extent, l_b=1.0, prefactor=None):
    """exp(-|z|^2/(4 l_B^2)), times prefactor(z) if given, on an n x n grid of side extent."""
    dx = extent / n
    x = (np.arange(n) - n // 2) * dx
    xg, yg = np.meshgrid(x, x)
    z = xg + 1j * yg
    psi = np.exp(-np.abs(z) ** 2 / (4 * l_b**2)).astype(complex)
    if prefactor is not None:
        psi = prefactor(z) * psi
    return BeamField(psi, dx, dx, 1.0), z


class TestLadder:
    """`ladder_apply` on the lowest Landau level, by centred differences: O(h^2) errors."""

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
