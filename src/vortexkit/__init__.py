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
)
from .vortex import (
    VortexConfiguration,
    ConservedSet,
    rhs,
    hamiltonian_rhs,
    conserved,
    poisson_bracket,
    integrate,
)
from .stieltjes import EquilibriumProblem, EquilibriumReport, residual, solve, certify
from .landau import (
    LaughlinParams,
    QuasiholeSet,
    log_laughlin,
    berry_connection,
    laughlin_stationarity_residual,
    solve_planar_equilibrium,
    ladder_apply,
)
from .paraxial import (
    BeamField,
    lg_mode,
    propagate,
    topological_charge,
    find_vortices,
    paraxial_validity,
    save_field,
    load_field,
)

__version__ = "0.1.0"
