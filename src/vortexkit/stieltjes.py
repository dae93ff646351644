"""Stationary vortex configurations on a line (Stieltjes electrostatics), certified.

R_k = sum_{j != k} 1/(x_k - x_j) - w(x_k) = 0.  R = -F, F the Kirchhoff field of
vortices of strength -1: the equilibria are stationary vortices, solved as such by
`backgrounds.stationary` from the line guess `backgrounds.default_guess`.  F refuses
coincident points and points on a pole (CollisionError), and the solve refuses points
outside the open domain (DomainError).  They are the critical points of the Kirchhoff energy
`backgrounds.kirchhoff_energy` at kappa = -1, and are certified here against the
zeros of the matching classical orthogonal polynomial.
"""

from dataclasses import dataclass

import numpy as np

from . import orthopoly
from .backgrounds import CollisionError, DomainError, NewtonResult, kirchhoff_field  # the errors are re-exported


@dataclass(frozen=True)
class EquilibriumReport(NewtonResult):
    """A solve compared with the zeros of its classical polynomial (`certify`)."""

    certified: bool
    max_zero_deviation: float


def residual(x, background) -> np.ndarray:
    """R_k = sum_{j != k} 1/(x_k - x_j) - w(x_k): minus the Kirchhoff field of strengths -1."""
    return -kirchhoff_field(np.asarray(x, dtype=float), -1.0, background)


def certify(result: NewtonResult, spec: orthopoly.PolynomialSpec, tol: float = 1e-10) -> EquilibriumReport:
    """Compare positions against the polynomial zeros and the ODE residual; both must be finite."""
    x = result.positions
    if spec.n != x.size:
        raise ValueError(f"spec degree {spec.n} does not match {x.size} positions")
    ref = orthopoly.zeros(spec)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(ref))):
        raise ValueError("cannot certify non-finite positions or reference zeros")
    dev = float(np.abs(np.sort(x) - ref).max())
    ode_ok = np.all(np.abs(orthopoly.ode_residual_relative(spec, x)) <= 1e-8)
    return EquilibriumReport(**{**vars(result), "certified": bool(dev <= tol and ode_ok), "max_zero_deviation": dev})
