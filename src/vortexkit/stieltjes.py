"""Stationary vortex configurations on a line (Stieltjes electrostatics).

Solves R_k = sum_{j != k} 1/(x_k - x_j) - w(x_k) = 0.  R = -F, F the Kirchhoff
field of vortices of strength -1: the equilibria are stationary vortices, solved
as such by `backgrounds.newton`; F also refuses coincident points and points on a
pole (CollisionError).  They are the critical points of the Kirchhoff energy
`backgrounds.kirchhoff_energy` at kappa = -1, and are certified against the zeros
of the matching classical orthogonal polynomial.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import orthopoly
from .backgrounds import (  # CollisionError is re-exported
    CollisionError, Coulomb, CustomRational, DomainError, JacobiCharges, NewtonResult, kirchhoff_field, newton,
)


@dataclass(frozen=True)
class EquilibriumProblem:
    n: int
    background: object
    guess: Optional[np.ndarray] = None

    def __post_init__(self):
        bg = self.background
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        # refused by its field: with w = 0 the points repel without bound
        if not isinstance(bg, CustomRational) or not (any(bg.residues) or any(bg.poly)):
            raise ValueError(f"unsupported background {bg!r}: the field must be rational and not zero")
        if self.guess is not None:
            g = np.sort(np.asarray(self.guess, dtype=float))
            if g.size != self.n:
                raise ValueError("guess must hold n entries")
            residual(g, bg)  # raises where F is not defined
            object.__setattr__(self, "guess", g)


@dataclass(frozen=True)
class EquilibriumReport(NewtonResult):
    """A solve compared with the zeros of its classical polynomial (`certify`)."""

    certified: bool
    max_zero_deviation: float


def residual(x, background) -> np.ndarray:
    """R_k = sum_{j != k} 1/(x_k - x_j) - w(x_k): minus the Kirchhoff field of strengths -1."""
    x = np.asarray(x, dtype=float)
    lo, hi = background.domain
    if np.any(x <= lo) or np.any(x >= hi):
        raise DomainError(f"points outside open domain ({lo}, {hi})")
    return -kirchhoff_field(x, -1.0, background)


def default_guess(n, background) -> np.ndarray:
    """Chebyshev points affinely mapped into the family's domain."""
    c = np.sort(np.cos((2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2.0 * n)))
    if isinstance(background, Coulomb):
        return 2.0 * n * (c + 1.0) + 0.5
    if isinstance(background, JacobiCharges):
        return c
    return np.sqrt(2.0 * n) * c if n > 1 else np.array([0.5])


def solve(problem: EquilibriumProblem, tolerance: float = 1e-12, max_iter: int = 200) -> NewtonResult:
    """`backgrounds.newton` on F = -R with strengths -1; positions returned sorted."""
    bg = problem.background
    x = problem.guess if problem.guess is not None else default_guess(problem.n, bg)
    x = np.sort(np.asarray(x, dtype=float))
    result = newton(lambda x: -residual(x, bg), x, -1.0, bg, tolerance, max_iter)
    return replace(result, positions=np.sort(result.positions))


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
