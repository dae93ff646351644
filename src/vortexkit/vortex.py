"""Time-dependent point-vortex dynamics in the plane.

Vortex i moves with dz_i/dt = conj(i F_i), F the Kirchhoff field of strengths
kappa in the background flow w (`backgrounds.kirchhoff_field`, which raises
CollisionError within eps of another vortex or a pole of w).  Integration is
adaptive embedded Runge-Kutta with step rejection, driven by one Dormand-Prince
5(4) tableau (_DP_A, whose last row is the 5th-order weights, and the error row
_DP_E); linear impulse Q+iP, angular impulse I and the interaction energy H are
monitored as integration-quality diagnostics.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .backgrounds import (  # DomainError is re-exported
    CollisionError, CustomRational, DomainError, NoFlow, kirchhoff_field, log_abs, min_separation, pair_sum,
)


class StepLimitError(RuntimeError):
    """Adaptive integrator exhausted its step budget (near-collision stiffness)."""


class UnsupportedBackgroundError(ValueError):
    """Background has no real potential usable for the Hamiltonian form."""


@dataclass(frozen=True)
class VortexConfiguration:
    """n complex vortex positions with circulation strengths at time t."""

    z: np.ndarray
    kappa: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=complex))
        kappa = np.atleast_1d(np.asarray(self.kappa, dtype=float))
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "kappa", kappa)
        if z.shape != kappa.shape or z.ndim != 1 or z.size < 1:
            raise ValueError("positions and strengths must be 1-d arrays of equal length >= 1")
        if not np.all(np.isfinite(kappa)) or np.any(kappa == 0.0):
            raise ValueError("strengths must be finite and nonzero")
        if not np.all(np.isfinite(z.view(float))):
            raise ValueError("positions must be finite")
        if min_separation(z) == 0.0:
            raise ValueError("positions must be pairwise distinct")

    @property
    def n(self):
        return self.z.size


@dataclass(frozen=True)
class ConservedSet:
    """Linear impulse Q+iP, angular impulse I, interaction energy H."""

    linear_impulse: complex
    angular_impulse: float
    interaction_energy: float


@dataclass(frozen=True)
class DriftReport:
    """Max absolute deviations of Q+iP, I, H over a completed run."""

    linear: float
    angular: float
    energy: float


def _check_separation(z, bg, eps):
    """The oracles' collision check, the same rule as kirchhoff_field's but not its code."""
    for d in [min_separation(z)] + [np.abs(z - pole).min() for pole in bg.poles]:
        if d <= eps:
            raise CollisionError(f"distance {d:.3e} not above epsilon {eps:.1e}")


def _velocity(z, kappa, bg, eps):
    return np.conj(1j * kirchhoff_field(z, kappa, bg, eps))


def rhs(cfg: VortexConfiguration, bg=NoFlow(), eps: float = 1e-12) -> np.ndarray:
    """Velocities dz_i/dt; O(n^2) pairwise sum."""
    return _velocity(cfg.z, cfg.kappa, bg, eps)


def _conserved(z, kappa):
    h = float(np.sum(kappa * pair_sum(z, kappa, log_abs, upper=True)))
    return ConservedSet(complex(np.sum(kappa * z)), float(np.sum(kappa * np.abs(z) ** 2)), h)


def conserved(cfg: VortexConfiguration) -> ConservedSet:
    return _conserved(cfg.z, cfg.kappa)


def hamiltonian_rhs(cfg: VortexConfiguration, bg=NoFlow(), eps: float = 1e-12) -> np.ndarray:
    """Velocities from Hamilton's equations with analytic gradients.

    H_tot = sum_{i<j} kappa_i kappa_j ln|z_i - z_j| + sum_k kappa_k Re Phi(z_k)
    where Phi is the complex antiderivative of the background flow w, with the
    bracket {f, g} = sum_k (1/kappa_k)(f_x g_y - f_y g_x).
    """
    if not isinstance(bg, CustomRational):
        raise UnsupportedBackgroundError(
            f"{type(bg).__name__} background has no real line potential in this form"
        )
    z, kappa = cfg.z, cfg.kappa
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


def poisson_bracket(f, g, cfg: VortexConfiguration, step: float = 1e-5, eps: float = 1e-12):
    """{f, g} = sum_k (1/kappa_k)(df/dx_k dg/dy_k - df/dy_k dg/dx_k) by central differences.

    f and g take the complex position vector and return a real number.
    """
    z, kappa = cfg.z, cfg.kappa
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


# Dormand-Prince 5(4) (Dormand & Prince 1980; Hairer-Norsett-Wanner I, Table II.5.2).  Stage s is
# evaluated at z + h * (_DP_A[s, :s] @ k[:s]).  The last row is the 5th-order weights b5, so the 7th
# stage is evaluated at the step's result (first same as last); _DP_E = b5 - b4 weights the error.
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


@dataclass(frozen=True)
class Trajectory:
    """Sampled configurations plus invariant-drift diagnostics."""

    configurations: list
    drift: DriftReport

    def to_csv(self, path):
        """Columns t, x_1, y_1, ..., x_n, y_n, Q, P, I, H with a header row."""
        n = self.configurations[0].n
        header = ["t"]
        for i in range(1, n + 1):
            header += [f"x_{i}", f"y_{i}"]
        header += ["Q", "P", "I", "H"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for cfg in self.configurations:
                c = conserved(cfg)
                row = [cfg.t]
                for zi in cfg.z:
                    row += [zi.real, zi.imag]
                row += [c.linear_impulse.real, c.linear_impulse.imag,
                        c.angular_impulse, c.interaction_energy]
                writer.writerow(["%.17g" % v for v in row])


def integrate(
    cfg: VortexConfiguration,
    bg=NoFlow(),
    t_end: float = 1.0,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_steps: int = 100000,
    sample_times=None,
    eps: float = 1e-12,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) integration of the vortex equations.

    One step evaluates stages 2-7 of the tableau _DP_A: six velocity evaluations per attempted
    step, since the 7th stage is evaluated at the accepted point and is the next step's 1st (FSAL).
    The error estimate h * (_DP_E @ k) must not exceed atol + rtol * max(|z|, |z_new|); max_steps
    bounds the attempted steps (StepLimitError).  rtol >= 0, atol > 0, eps >= 0, max_steps >= 1 are
    required: any other value turns off the error control, the collision check or every step (ValueError).

    Trajectory is sampled exactly at sample_times (default: start and end), finite and in [t, t_end].
    Drift is the max deviation of Q+iP, I, H over all accepted steps.
    """
    t0 = cfg.t
    if not (np.isfinite(t_end) and t_end > t0):
        raise ValueError(f"t_end {t_end} must be finite and exceed initial time {t0}")
    if not (rtol >= 0.0 and atol > 0.0 and eps >= 0.0 and max_steps >= 1):
        raise ValueError(f"need rtol >= 0, atol > 0, eps >= 0, max_steps >= 1; got {rtol}, {atol}, {eps}, {max_steps}")
    if sample_times is None:
        sample_times = np.array([t0, t_end])
    sample_times = np.sort(np.asarray(sample_times, dtype=float))
    # a NaN sorts last and fails the comparison
    if sample_times.size == 0 or not (t0 <= sample_times[0] and sample_times[-1] <= t_end):
        raise ValueError("sample times must be given and lie in [t, t_end]")

    c0 = conserved(cfg)
    drift_lin = drift_ang = drift_en = 0.0
    samples = []
    si = 0
    t, z = t0, cfg.z
    k = np.empty((7, z.size), dtype=complex)
    k[0] = _velocity(z, cfg.kappa, bg, eps)
    speed = np.abs(k[0]).max()
    dt = min(t_end - t0, 0.01 * (1.0 + np.abs(z).max()) / max(speed, 1e-8))
    nsteps = 0
    while True:
        while si < sample_times.size and sample_times[si] <= t + 1e-14 * max(1.0, abs(t)):
            samples.append(VortexConfiguration(z.copy(), cfg.kappa, sample_times[si]))
            si += 1
        if t >= t_end:
            return Trajectory(samples, DriftReport(drift_lin, drift_ang, drift_en))
        if nsteps >= max_steps:
            raise StepLimitError(f"step budget {max_steps} exhausted at t={t:.6g}")
        target = sample_times[si] if si < sample_times.size else t_end
        h = min(dt, target - t)
        for s in range(1, 7):  # the last stage point zs is the 5th-order step
            zs = z + h * (_DP_A[s, :s] @ k[:s])
            k[s] = _velocity(zs, cfg.kappa, bg, eps)
        emax = (np.abs(h * (_DP_E @ k)) / (atol + rtol * np.maximum(np.abs(z), np.abs(zs)))).max()
        nsteps += 1
        if emax <= 1.0:
            t, z = t + h, zs
            k[0] = k[6]
            c = _conserved(z, cfg.kappa)
            drift_lin = max(drift_lin, abs(c.linear_impulse - c0.linear_impulse))
            drift_ang = max(drift_ang, abs(c.angular_impulse - c0.angular_impulse))
            drift_en = max(drift_en, abs(c.interaction_energy - c0.interaction_energy))
            dt = dt * min(5.0, max(0.2, 0.9 * emax ** (-0.2))) if emax > 0 else dt * 5.0
        else:
            dt = dt * max(0.2, 0.9 * emax ** (-0.2))
