"""Point-vortex dynamics, Stieltjes equilibria, Landau-level operators, paraxial beams."""

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
    VortexConfiguration,
    rhs,
    hamiltonian_rhs,
    conserved,
    poisson_bracket,
    integrate,
)
from .landau import (
    LaughlinParams,
    log_laughlin,
    ladder_apply,
)
from .paraxial import (
    BeamField,
    lg_mode,
    propagate,
    topological_charge,
    find_vortices,
    save_field,
    load_field,
)

__version__ = "0.1.0"
