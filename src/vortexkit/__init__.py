"""Point-vortex dynamics, Stieltjes and Laughlin equilibria, paraxial beams and Landau-level ladder operators."""

from .orthopoly import PolynomialSpec, RecurrenceCoefficients, recurrence, zeros
from .backgrounds import (
    NoFlow,
    HermiteLinear,
    Coulomb,
    JacobiCharges,
    ConjugateLinear,
    CustomRational,
    DomainError,
    CollisionError,
    NewtonResult,
    stationary,
)
from .vortex import (
    velocity,
    conserved,
    integrate,
)
from .paraxial import (
    BeamField,
    lg_mode,
    propagate,
    find_vortices,
    ladder_apply,
    save_field,
    load_field,
)

__version__ = "0.1.0"
