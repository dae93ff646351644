"""Laughlin wavefunction, Berry connection, planar equilibria, Landau-level operators.

Stationarity of the log-Laughlin wavefunction reads, per particle j,
S_j = m * sum_{i != j} 1/(z_j - z_i) - conj(z_j)/(4 l_B^2) = 0: the Kirchhoff
field of vortices of strength kappa = m in the background ConjugateLinear(omega),
omega = 1/(4 l_B^2), computed and solved (`backgrounds.newton`) as such.  The
symmetric pair solves in closed form at radius l_B * sqrt(2 m).
"""

from dataclasses import dataclass

import numpy as np

from .backgrounds import ConjugateLinear, NewtonResult, kirchhoff_field, min_separation, newton, pair_sum
from .paraxial import BeamField


@dataclass(frozen=True)
class LaughlinParams:
    """Particle count, odd filling exponent m, magnetic length l_B."""

    N: int
    m_exp: int = 1
    l_B: float = 1.0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.m_exp < 1 or self.m_exp % 2 == 0:
            raise ValueError(f"m_exp must be a positive odd integer, got {self.m_exp}")
        try:
            ok = self.l_B > 0 and 0 < self.omega < np.inf
        except OverflowError:  # l_B**2 beyond the largest float
            ok = False
        if not ok:
            raise ValueError(f"l_B must be > 0 with a finite omega = 1/(4 l_B^2) > 0, got {self.l_B}")

    @property
    def omega(self):
        return 1.0 / (4.0 * self.l_B**2)


@dataclass(frozen=True)
class QuasiholeSet:
    """Quasihole positions with the filling fraction nu."""

    eta: np.ndarray
    nu: float

    def __post_init__(self):
        eta = np.atleast_1d(np.asarray(self.eta, dtype=complex))
        object.__setattr__(self, "eta", eta)
        if min_separation(eta) == 0.0:
            raise ValueError("quasihole positions must be pairwise distinct")


def log_laughlin(z, params: LaughlinParams) -> complex:
    """log psi = sum_{i<j} m log(z_j - z_i) - sum_j |z_j|^2 / (4 l_B^2).

    Per-factor principal branch; only the imaginary part depends on branch
    choices (mod 2 pi).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if min_separation(z) == 0.0:
        raise ValueError("coincident particles")
    # Over -z the differences are z_j - z_i exactly, signed zeros included, so
    # each factor keeps its principal branch.
    pairs = np.sum(pair_sum(-z, params.m_exp, np.log, upper=True))
    return complex(pairs - np.sum(np.abs(z) ** 2) / (4.0 * params.l_B**2))


def berry_connection(holes: QuasiholeSet, j: int, l_B: float) -> complex:
    """A(eta_j) = -(i nu / 2) sum_{k != j} 1/(eta_k - eta_j) + i nu conj(eta_j)/(4 l_B^2).

    A negative j counts from the end, as in indexing.
    """
    eta = holes.eta
    s = pair_sum(eta)[j]  # sum_{k != j} 1/(eta_j - eta_k)
    return complex(0.5j * holes.nu * s + 1j * holes.nu * np.conj(eta[j]) / (4.0 * l_B**2))


def laughlin_stationarity_residual(z, params: LaughlinParams) -> np.ndarray:
    """S_j = m sum_{i != j} 1/(z_j - z_i) - conj(z_j)/(4 l_B^2).

    The conjugate-transpose equation (adiabatic transport of the conjugate
    coordinates) is exactly conj(S_j) evaluated on the conjugated
    configuration; use np.conj rather than a second evaluator.  Coincident
    particles raise CollisionError, a ValueError.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return kirchhoff_field(z, params.m_exp, ConjugateLinear(params.omega))


def solve_planar_equilibrium(params: LaughlinParams, guess, tol: float = 1e-10, max_iter: int = 200) -> NewtonResult:
    """`backgrounds.newton` on S = 0, strengths m in ConjugateLinear(omega); residual_inf is max_j |S_j|.

    S depends on conj(z), so each step is an LU solve in 2N real variables.  S is
    rotation-equivariant, a (iz) + b conj(iz) = -iS, so that Jacobian is singular only
    where S = 0: at an exact solution the step is refused and the solve stops there.
    """
    z = np.atleast_1d(np.asarray(guess, dtype=complex))
    if z.size != params.N:
        raise ValueError(f"guess size {z.size} does not match N={params.N}")
    return newton(lambda z: laughlin_stationarity_residual(z, params), z,
                  params.m_exp, ConjugateLinear(params.omega), tol, max_iter)


def ladder_apply(field: BeamField, which: str, l_B: float) -> BeamField:
    """Apply the lowering/raising operator on a grid by centered differences.

    lower: -i sqrt(2) (l_B d/dzbar + z/(4 l_B)); raise: -i sqrt(2) (l_B d/dz -
    zbar/(4 l_B)); d/dz = (d/dx - i d/dy)/2, d/dzbar = (d/dx + i d/dy)/2.
    """
    if which not in ("lower", "raise"):
        raise ValueError(f"which must be 'lower' or 'raise', got {which!r}")
    u = field.amplitude
    if u.shape[0] < 3 or u.shape[1] < 3:
        raise ValueError("grid too small for centered differences (< 3 per axis)")
    ux = np.gradient(u, field.dx, axis=1)
    uy = np.gradient(u, field.dy, axis=0)
    xg, yg = field.grid()
    zg = xg + 1j * yg
    if which == "lower":
        dzbar = 0.5 * (ux + 1j * uy)
        out = -1j * np.sqrt(2.0) * (l_B * dzbar + zg * u / (4.0 * l_B))
    else:
        dz = 0.5 * (ux - 1j * uy)
        out = -1j * np.sqrt(2.0) * (l_B * dz - np.conj(zg) * u / (4.0 * l_B))
    return BeamField(out, field.dx, field.dy, field.k, field.z)
