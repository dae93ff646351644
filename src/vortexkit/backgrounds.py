"""Background flows w and the Kirchhoff field F_i = sum_{j != i} kappa_j/(z_i - z_j) + w(z_i).

Each family provides w(z), its Wirtinger derivatives dw/dz and dw/dzbar, and the
real potential U(z) with 2 dU/dz = w.  All but ConjugateLinear are rational,
w(z) = sum_m r_m/(z - p_m) + polynomial(z): CustomRationals that only set their
poles, residues and polynomial.

`pair_sum` is the sum over pairs and `min_separation` the distinctness check of
input configurations, both over blocks of _BLOCK rows (memory O(n * _BLOCK)).
`kirchhoff_field` is F, written once: vortices move with conj(i F), and the
stationary problems (kappa = -1 on a line, kappa = m in ConjugateLinear for
Laughlin) are F = 0, solved by `newton` with the step from `kirchhoff_jacobian`.
They are the critical points of `kirchhoff_energy`, E, with 2 dE/dz_i = kappa_i F_i;
E is the one energy sum, and the invariant of the motion in every background.
F alone decides where it is defined (CollisionError, found in the pair pass), and
`newton` alone whether a solve converged (its `NewtonResult`).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .orthopoly import PolynomialSpec, HERMITE, LAGUERRE, JACOBI


class DomainError(ValueError):
    """A point where the Kirchhoff field is not defined, or outside a background's domain."""


class CollisionError(DomainError):
    """Two points, or a point and a pole of w, are not farther apart than epsilon."""


def _refuse_within(dist, eps, *what):
    """Raise CollisionError if the smallest of the distances is <= eps; a NaN distance is skipped, never raises.

    what: the words that name the distance, joined into the message only when it is raised.
    """
    d = np.fmin.reduce(dist, axis=None, initial=np.inf)
    if d <= eps:
        raise CollisionError(f"{' '.join(map(str, what))} {d:.3e} not above epsilon {eps:.1e}")


_BLOCK = 128
_SELF_OR_LOWER = np.tri(_BLOCK, dtype=bool)  # j <= i: the pairs an upper sum leaves out of a block


def _row_blocks(z, upper):
    """Yield (j0, d, diag) for each block of rows i0 <= i < i0 + _BLOCK.

    d[r, k] = z[i0 + r] - z[j0 + k], with j0 = i0 when `upper` and 0 otherwise,
    and diag is the strided view of d's self pairs z_i - z_i (j0 + k == i0 + r).
    When `upper`, the pairs j <= i are d[:, :b][_SELF_OR_LOWER[:b, :b]], b = diag.size.
    """
    for i0 in range(0, z.size, _BLOCK):
        j0 = i0 if upper else 0
        d = z[i0:i0 + _BLOCK, None] - z[j0:]
        yield j0, d, d.ravel()[i0 - j0::d.shape[1] + 1]


def log_abs(d):
    """ln|d|, the pair term of the Kirchhoff energy."""
    return np.log(np.abs(d))


def pair_sum(z, c=1.0, g=None, eps=None):
    """s_i = sum over j != i of c_j/(z_i - z_j); with g, s_i = sum over j > i of c_j g(z_i - z_j).

    c is a scalar or one weight per point.  The sums with g count each
    unordered pair once in sum(s).  With eps, a pair with |z_i - z_j| <= eps
    raises CollisionError before the reciprocal sees its block.
    """
    z = np.asarray(z)
    parts = []
    for j0, d, diag in _row_blocks(z, upper=g is not None):
        if g is None:
            diag[:] = np.inf  # skipped by the check; its reciprocal is 0
            if eps is not None:
                _refuse_within(np.abs(d), eps, "pairwise distance")
            t = c * np.reciprocal(d)
        else:
            b = diag.size
            drop = _SELF_OR_LOWER[:b, :b]
            d[:, :b][drop] = 1.0  # keeps g finite on the dropped pairs
            t = (c[j0:] if np.ndim(c) else c) * g(d)
            t[:, :b][drop] = 0.0
        parts.append(t.sum(axis=1))
    return np.concatenate(parts) if parts else np.zeros(0)


def pair_jacobian(z, c=1.0):
    """J[i, k] = d pair_sum(z, c)[i] / dz_k: c_k/(z_i - z_k)^2 off the diagonal, minus the row sum on it.

    c is a scalar or one weight per point.
    """
    z = np.asarray(z)
    d = z[:, None] - z[None, :]
    np.fill_diagonal(d, 1.0)  # complex inf would square to nan
    jac = c / d**2
    np.fill_diagonal(jac, 0.0)
    np.fill_diagonal(jac, -jac.sum(axis=1))
    return jac


def kirchhoff_field(z, kappa, bg, eps=0.0):
    """F_i = sum_{j != i} kappa_j/(z_i - z_j) + w(z_i); vortex i moves with conj(i F_i).

    Raises CollisionError where F is not defined: some |z_i - z_j| or |z_i - pole| is <= eps.
    """
    for p in bg.poles:
        _refuse_within(np.abs(z - p), eps, "distance to the pole at", p)
    return pair_sum(z, kappa, eps=eps) + bg.w(z)


def kirchhoff_energy(z, kappa, bg) -> float:
    """E = sum_{i<j} kappa_i kappa_j ln|z_i - z_j| + sum_k kappa_k U(z_k), U = bg.u; 2 dE/dz_i = kappa_i F_i."""
    return float((kappa * (pair_sum(z, kappa, log_abs) + bg.u(z))).sum())


def kirchhoff_jacobian(z, kappa, bg):
    """The Wirtinger blocks of F: a[i, k] = dF_i/dz_k and dF_i/dzbar_k = b delta_ik, b = dw/dzbar.

    So dF/dx = a + diag(b) and dF/dy = i(a - diag(b)); b is 0 for an analytic w.
    """
    a = pair_jacobian(z, kappa)
    a[np.diag_indices_from(a)] += bg.dw(z)
    return a, bg.dwbar(z)


def _newton_step(z, kappa, bg, f):
    """The full Newton step at z, where F is f: one LU solve, of the n x n a when w is
    analytic (b = 0), else of the 2n real Jacobian in (x_k, y_k).

    With w = ConjugateLinear, F is rotation-equivariant, a (iz) + b conj(iz) = -iF, so
    the 2n Jacobian is singular only at F = 0, where no step is taken.  A Jacobian
    whose entries, 2n assembly or 1-norm are not finite, or whose LAPACK rcond is
    below eps (or NaN), is a singular step: LinAlgError.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        jac, b = kirchhoff_jacobian(z, kappa, bg)
        planar = np.any(b)
        if planar:
            b = np.eye(z.size) * b
            # jac[2i + r, 2k + c]: part r (Re, Im) of dF_i/dx_k (c = 0) or dF_i/dy_k (c = 1)
            jac = np.stack([jac + b, 1j * (jac - b)], -1).view(float).reshape(z.size, z.size, 2, 2)
            jac = jac.transpose(0, 3, 1, 2).reshape(2 * z.size, 2 * z.size)
        norm = np.linalg.norm(jac, 1)  # not finite if some entry is not
    if not np.isfinite(norm):
        raise np.linalg.LinAlgError("non-finite Newton Jacobian")
    from scipy.linalg.lapack import get_lapack_funcs  # here, not at import: simulate and beam never solve

    getrf, getrs, gecon = get_lapack_funcs(("getrf", "getrs", "gecon"), (jac,))
    lu, piv, info = getrf(jac)
    # rcond < eps (or NaN): a pivot zero but for rounding, whose step has no correct digit
    if info or not gecon(lu, norm)[0] >= np.finfo(float).eps:
        raise np.linalg.LinAlgError("singular Newton step")
    if not planar:
        return getrs(lu, piv, -f)[0]
    return getrs(lu, piv, -f.view(float))[0].view(complex)


@dataclass(frozen=True)
class NewtonResult:
    """The one record of a solve of F = 0: the last iterate, its max|F|, the Newton steps
    taken, and whether max|F| <= tol (never so for a NaN residual)."""

    positions: np.ndarray
    residual_inf: float
    iterations: int
    converged: bool


def newton(residual, z, kappa, bg, tol, max_iter) -> NewtonResult:
    """Damped Newton on F(z) = 0.

    residual(z) is `kirchhoff_field(z, kappa, bg)`, raising ValueError at the
    trial points its caller rejects.  Each iteration takes the full step, halved
    at most 30 times until residual() is defined and max|F| strictly decreases (the
    accepted trial's F is reused).  Stops at max|F| <= tol, after max_iter steps,
    when no halving decreases max|F|, or at a singular or ill-conditioned step (LinAlgError).
    """
    f = residual(z)
    fmax = np.abs(f).max()
    steps = 0
    while fmax > tol and steps < max_iter:
        try:
            dz = _newton_step(z, kappa, bg, f)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        for _ in range(31):
            zn = z + lam * dz
            lam *= 0.5
            try:
                fn = residual(zn)
            except ValueError:
                continue
            fn_max = np.abs(fn).max()
            if fn_max < fmax:
                z, f, fmax = zn, fn, fn_max
                break
        else:
            break
        steps += 1
    return NewtonResult(z, float(fmax), steps, bool(fmax <= tol))


def min_separation(z) -> float:
    """Smallest |z_i - z_j| over pairs i != j; inf for fewer than two points."""
    best = np.inf
    for _, d, diag in _row_blocks(np.asarray(z), upper=True):
        d[:, :diag.size][_SELF_OR_LOWER[:diag.size, :diag.size]] = np.inf
        best = np.minimum(best, np.abs(d).min())
    return float(best)


def _horner(coeffs, z):
    """sum_m coeffs[m] * z**m by Horner from the leading coefficient; None without coefficients."""
    if not coeffs:
        return None
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        out = out * z + c if c else out * z  # so that w(z) = z is 1.0 * z and not 1.0 * z + 0.0
    return out


@dataclass(frozen=True)
class CustomRational:
    """w(z) = sum_m residues[m]/(z - poles[m]) + polynomial(z) (ascending coeffs).

    The one evaluation of w, w' and the potential U: the families below only
    set poles, residues and poly.  A result that does not depend on z (w
    of NoFlow, w' of HermiteLinear) is a scalar, which broadcasts against z.
    """

    poles: tuple = ()
    residues: tuple = ()
    poly: tuple = ()

    def __post_init__(self):
        if len(self.poles) != len(self.residues):
            raise ValueError("poles and residues must have equal length")
        if len(set(self.poles)) != len(self.poles):
            raise ValueError("poles must be distinct")

    domain = (-np.inf, np.inf)

    def _add_poles(self, z, out, term):
        """out plus term(r, z - p) for each pole p with residue r; out is the polynomial part or None."""
        for p, r in zip(self.poles, self.residues):
            t = term(r, z - p if p else z)  # z - 0 is z: one numpy operation less for Coulomb
            out = t if out is None else out + t
        return 0.0 if out is None else out

    def w(self, z):
        return self._add_poles(z, _horner(self.poly, z), lambda r, d: r / d)

    def dw(self, z):
        return self._add_poles(z, _horner(self._derived_polys[0], z), lambda r, d: -r / (d * d))

    def dwbar(self, z):
        return 0.0  # w is analytic

    def u(self, z):
        """U = Re Phi, Phi the antiderivative of w on the principal branch; each logarithm is
        complex, so that a real point on the far side of a pole takes ln|z - p|."""
        ipoly = _horner(self._derived_polys[1], z)
        return np.real(self._add_poles(z, None if ipoly is None else ipoly * z,
                                       lambda r, d: r * np.log(d, dtype=complex)))

    @cached_property
    def _derived_polys(self):
        """Ascending coefficients of polynomial'(z) and of (the antiderivative of polynomial(z)) / z."""
        return [m * c for m, c in enumerate(self.poly)][1:], [c / (m + 1) for m, c in enumerate(self.poly)]

    def polynomial_spec(self, n):
        """The classical polynomial whose zeros are the n-point equilibrium; None for a general field."""
        return None


@dataclass(frozen=True)
class _Family(CustomRational):
    """A CustomRational that sets its own poles, residues and poly.

    They are no constructor arguments: a family sets them as class attributes,
    or in __post_init__ when they depend on its parameters.
    """

    poles: tuple = field(init=False, repr=False)
    residues: tuple = field(init=False, repr=False)
    poly: tuple = field(init=False, repr=False)


@dataclass(frozen=True)
class NoFlow(_Family):
    """w(z) = 0: no background flow."""


@dataclass(frozen=True)
class HermiteLinear(_Family):
    """w(z) = z; stationary points sit at Hermite zeros."""

    poly = (0.0, 1.0)

    def polynomial_spec(self, n):
        return PolynomialSpec(HERMITE, n)


@dataclass(frozen=True)
class Coulomb(_Family):
    """w(r) = 1/2 - (l+1)/r on (0, inf); stationary points at Laguerre(2l+1) zeros."""

    l: float = 0.0
    poles = (0.0,)
    poly = (0.5,)
    domain = (0.0, np.inf)

    def __post_init__(self):
        if not self.l >= 0:
            raise ValueError(f"l must be >= 0, got {self.l}")
        object.__setattr__(self, "residues", (-(self.l + 1.0),))

    def polynomial_spec(self, n):
        return PolynomialSpec(LAGUERRE, n, alpha=2.0 * self.l + 1.0)


@dataclass(frozen=True)
class JacobiCharges(_Family):
    """Fixed charges p at +1 and q at -1; w(x) = -p/(x-1) - q/(x+1) on (-1, 1).

    Stationary points sit at Jacobi(2p-1, 2q-1) zeros.
    """

    p: float = 0.5
    q: float = 0.5
    poles = (1.0, -1.0)
    domain = (-1.0, 1.0)

    def __post_init__(self):
        if not (self.p > 0 and self.q > 0):
            raise ValueError(f"fixed charges must be positive, got p={self.p}, q={self.q}")
        object.__setattr__(self, "residues", (-self.p, -self.q))

    def polynomial_spec(self, n):
        return PolynomialSpec(JACOBI, n, alpha=2.0 * self.p - 1.0, beta=2.0 * self.q - 1.0)


@dataclass(frozen=True)
class ConjugateLinear:
    """w(z) = -omega * conj(z): the Gaussian confinement of the planar problem.

    omega = 1/(4 l_B^2).  Its potential U = -(omega/2)|z|^2 is not Re of an analytic Phi.
    """

    omega: float = 0.25

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")

    poles = ()

    def w(self, z):
        return -self.omega * np.conj(z)

    def dw(self, z):
        return 0.0  # w depends on conj(z) alone

    def dwbar(self, z):
        return -self.omega

    def u(self, z):
        return -0.5 * self.omega * np.abs(z) ** 2
