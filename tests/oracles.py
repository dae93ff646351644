"""Independent oracles: second implementations that only the tests call.

Each cross-checks a fast path of `vortexkit` without running it:
`hamiltonian_rhs` and the finite-difference `poisson_bracket` check the
velocity conj(i F) of `kirchhoff_field` and never evaluate it, take the same
positions z and strengths kappa as `vortex.velocity`, and keep their own
collision check, `_check_separation`; `min_separation`, the smallest pairwise
distance, is what that check and the distinctness rule of `simulate`'s input
are compared against; `topological_charge` counts the winding on a sampled
loop, the count `find_vortices` takes per plaquette; `lg_mode_polar` builds
an LG mode in its polar form from the generalized Laguerre polynomial
`laguerre`, the form `lg_mode` assembles from Hermite-Gauss factors.
None of them imports `_row_blocks`, `pair_sum`, `kirchhoff_field`,
`vortex.velocity`, `find_vortices` or `_circulation`: `min_separation` runs
a pair loop of its own.
"""

import math

import numpy as np

from vortexkit.backgrounds import CollisionError, CustomRational, NoFlow
from vortexkit.orthopoly import LAGUERRE, PolynomialSpec, _eval_all, recurrence
from vortexkit.paraxial import BeamField


class UnsupportedBackgroundError(ValueError):
    """Background whose potential is not Re Phi of an analytic Phi, as the Hamiltonian form needs."""


def min_separation(z) -> float:
    """Smallest |z_i - z_j| over pairs i != j; inf for fewer than two points."""
    z = np.asarray(z)
    best = np.inf
    for i in range(z.size - 1):
        best = np.minimum(best, np.abs(z[i] - z[i + 1:]).min())
    return float(best)


def _check_separation(z, bg, eps):
    """The oracles' collision check, the same rule as kirchhoff_field's but not its code."""
    for d in [min_separation(z)] + [np.abs(z - pole).min() for pole in bg.poles]:
        if d <= eps:
            raise CollisionError(f"distance {d:.3e} not above epsilon {eps:.1e}")


def hamiltonian_rhs(z, kappa, bg=NoFlow(), eps: float = 1e-12) -> np.ndarray:
    """Velocities from Hamilton's equations with analytic gradients.

    H_tot = sum_{i<j} kappa_i kappa_j ln|z_i - z_j| + sum_k kappa_k Re Phi(z_k), Phi' = w,
    with the bracket {f, g} = sum_k (1/kappa_k)(f_x g_y - f_y g_x).  H_tot is the
    Kirchhoff energy E of `backgrounds.kirchhoff_energy`; this oracle differentiates
    it by hand and never evaluates it.
    """
    if not isinstance(bg, CustomRational):
        raise UnsupportedBackgroundError(
            f"{type(bg).__name__} background has no real line potential in this form"
        )
    _check_separation(z, bg, eps)
    n = z.size
    v = np.zeros(n, dtype=complex)
    for k in range(n):
        xdot = 0.0
        ydot = 0.0
        for j in range(n):
            if j == k:
                continue
            dxy = z[k] - z[j]
            r2 = dxy.real**2 + dxy.imag**2
            # xdot_k = (1/kappa_k) dH/dy_k, ydot_k = -(1/kappa_k) dH/dx_k
            xdot += kappa[j] * dxy.imag / r2
            ydot += -kappa[j] * dxy.real / r2
        wk = bg.w(z[k])
        # d/dy Re Phi = -Im Phi' = -Im w; d/dx Re Phi = Re w (Cauchy-Riemann)
        xdot += -np.imag(wk)
        ydot += -np.real(wk)
        v[k] = xdot + 1j * ydot
    return v


def poisson_bracket(f, g, z, kappa, step: float = 1e-5, eps: float = 1e-12):
    """{f, g} = sum_k (1/kappa_k)(df/dx_k dg/dy_k - df/dy_k dg/dx_k) by central differences.

    f and g take the complex position vector and return a real number; z is complex.
    """
    n = z.size

    def partials(func):
        fx = np.empty(n)
        fy = np.empty(n)
        for k in range(n):
            for d, out in ((step, fx), (1j * step, fy)):
                zp = z.copy()
                zm = z.copy()
                zp[k] += d
                zm[k] -= d
                for stencil in (zp, zm):
                    _check_separation(stencil, NoFlow(), eps)
                out[k] = (func(zp) - func(zm)) / (2.0 * step)
        return fx, fy

    fx, fy = partials(f)
    gx, gy = partials(g)
    return float(np.sum((fx * gy - fy * gx) / kappa))


def _bilinear(amp, xi, yi):
    """Bilinear interpolation at fractional pixel coordinates (xi along axis 1)."""
    ny, nx = amp.shape
    x0 = np.clip(np.floor(xi).astype(int), 0, nx - 2)
    y0 = np.clip(np.floor(yi).astype(int), 0, ny - 2)
    tx = xi - x0
    ty = yi - y0
    return (
        amp[y0, x0] * (1 - tx) * (1 - ty)
        + amp[y0, x0 + 1] * tx * (1 - ty)
        + amp[y0 + 1, x0] * (1 - tx) * ty
        + amp[y0 + 1, x0 + 1] * tx * ty
    )


def topological_charge(field: BeamField, center, radius) -> int:
    """Winding number of the phase around a circle (center, radius in pixels).

    Phase differences are unwrapped step by step; every step must stay below pi.
    """
    cx, cy = center
    n_samples = max(64, int(np.ceil(4.0 * 2.0 * np.pi * radius)))
    theta = 2.0 * np.pi * np.arange(n_samples + 1) / n_samples
    xi = cx + radius * np.cos(theta)
    yi = cy + radius * np.sin(theta)
    if xi.min() < 0 or yi.min() < 0 or xi.max() > field.nx - 1 or yi.max() > field.ny - 1:
        raise ValueError("loop leaves the grid")
    u = _bilinear(field.amplitude, xi, yi)
    peak = np.abs(field.amplitude).max()
    if np.abs(u).min() < 1e-6 * peak:
        raise ValueError("amplitude on loop below 1e-6 of peak (core intersects loop)")
    dphi = np.angle(u[1:] / u[:-1])
    if np.abs(dphi).max() >= np.pi:
        raise ValueError("phase step >= pi on loop; increase sampling")
    return int(round(dphi.sum() / (2.0 * np.pi)))


def laguerre(p, alpha, x):
    """The generalized Laguerre polynomial L_p^alpha(x) = (-1)^p/p! times the monic one of orthopoly."""
    if p == 0:
        return 1.0
    value, e = _eval_all(recurrence(PolynomialSpec(LAGUERRE, p, alpha=alpha)), x, rows=1)
    return np.ldexp(value, e) * ((-1) ** p / math.factorial(p))


def lg_mode_polar(p, ell, w0, nx, ny, dx, dy):
    """The polar form of lg_mode: sqrt(rho)^|ell| L_p^|ell|(rho) exp(-r^2/w0^2) exp(i ell phi)."""
    xg, yg = np.meshgrid((np.arange(nx) - nx // 2) * dx, (np.arange(ny) - ny // 2) * dy)
    r2 = xg**2 + yg**2
    rho = 2.0 * r2 / w0**2
    u = (np.sqrt(rho) ** abs(ell)) * laguerre(p, abs(ell), rho) * np.exp(-r2 / w0**2)
    u = u * np.exp(1j * ell * np.arctan2(yg, xg))
    return u / np.sqrt(np.sum(np.abs(u) ** 2) * dx * dy)
