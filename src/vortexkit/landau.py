"""Laughlin wavefunction, planar equilibria, Landau-level operators.

Stationarity of the log-Laughlin wavefunction reads, per particle j,
S_j = m * sum_{i != j} 1/(z_j - z_i) - conj(z_j)/(4 l_B^2) = 0: S is the Kirchhoff
field `backgrounds.kirchhoff_field(z, m, ConjugateLinear(omega))`, omega = 1/(4 l_B^2),
and is solved as such by `backgrounds.stationary` from the ring guess
`backgrounds.ring_guess`: S depends on conj(z), so each Newton step is an LU solve in
2N real variables.  The symmetric pair solves in closed form at
radius l_B * sqrt(2 m).
"""

from dataclasses import dataclass

import numpy as np

from .backgrounds import min_separation, pair_sum
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
    pairs = np.sum(pair_sum(-z, params.m_exp, np.log))
    return complex(pairs - np.sum(np.abs(z) ** 2) / (4.0 * params.l_B**2))


def ladder_apply(field: BeamField, which: str, l_B: float) -> BeamField:
    """Apply the lowering/raising operator on a grid by centered differences.

    lower: -i sqrt(2) (l_B d/dzbar + z/(4 l_B)); raise: -i sqrt(2) (l_B d/dz -
    zbar/(4 l_B)); d/dz = (d/dx - i d/dy)/2, d/dzbar = (d/dx + i d/dy)/2.
    """
    if which not in ("lower", "raise"):
        raise ValueError(f"which must be 'lower' or 'raise', got {which!r}")
    u = field.amplitude
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
