"""Background flows w and the Kirchhoff field F_i = sum_{j != i} kappa_j/(z_i - z_j) + w(z_i).

Each family provides w(z), its Wirtinger derivatives dw/dz and dw/dzbar, and the
real potential U(z) with 2 dU/dz = w.  All but ConjugateLinear are rational,
w(z) = sum_m r_m/(z - p_m) + polynomial(z): CustomRationals that only set their
poles, residues and polynomial.

`_row_blocks` is the one generator of the differences z_i - z_j: full rows, in
blocks of _BLOCK (memory O(n * _BLOCK)), for F's Cauchy sum `pair_sum`, the one
pair pass that decides a collision, for E's sum of ln|z_i - z_j|, and for F's
Jacobian `pair_jacobian`, which writes each block into the n x n matrix it returns.
`kirchhoff_field` is F, written once: vortices move with conj(i F), and the
stationary problems (kappa = -1 on a line, kappa = m in ConjugateLinear for
Laughlin) are F = 0, solved by `stationary` alone, from `default_guess` on the
line or `ring_guess` in the plane: `newton`, the damped loop that knows no field, with the
step `_newton_step` from `kirchhoff_jacobian`, which `stationary` alone binds.
They are the critical points of `kirchhoff_energy`, E, with 2 dE/dz_i = kappa_i F_i;
E is the one energy sum, and the invariant of the motion in every background.
F alone decides where it is defined (CollisionError, found in the pair pass), and
`newton` alone whether a solve converged (its `NewtonResult`).
"""

from dataclasses import dataclass, field, replace
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


def _row_blocks(z):
    """Yield (i0, d, diag) for each block of rows i0 <= i < i0 + _BLOCK: d[r, j] = z[i0 + r] - z[j]
    over every j, and diag the strided view of d's self pairs z_i - z_i (j = i0 + r)."""
    for i0 in range(0, z.size, _BLOCK):
        d = z[i0:i0 + _BLOCK, None] - z
        yield i0, d, d.ravel()[i0::z.size + 1]


def _inexact(z):
    """z as an array of floats or complex numbers; float and complex input as it is.  An integer
    block could hold no inf on its diagonal, and its squares would wrap round past 2**63."""
    z = np.asarray(z)
    return z.astype(np.result_type(z, 1.0), copy=False)


def pair_sum(z, c=1.0, eps=0.0):
    """s_i = sum over j != i of c_j/(z_i - z_j), c a scalar or one weight per point.

    A pair with |z_i - z_j| <= eps raises CollisionError before the reciprocal sees its block.
    """
    z = _inexact(z)
    parts = []
    for _, d, diag in _row_blocks(z):
        diag[:] = np.inf  # skipped by the check; its reciprocal is 0
        _refuse_within(np.abs(d), eps, "pairwise distance")
        parts.append((c * np.reciprocal(d)).sum(axis=1))
    return np.concatenate(parts) if parts else np.zeros(0)


def pair_jacobian(z, c=1.0):
    """J[i, k] = d pair_sum(z, c)[i] / dz_k: c_k/(z_i - z_k)^2 off the diagonal, minus the row sum on it.

    c is a scalar or one weight per point.  Each block of rows is written straight into the result.
    """
    z = _inexact(z)
    jac = np.empty((z.size, z.size), np.result_type(c, z))
    for i0, d, diag in _row_blocks(z):
        diag[:] = 1.0  # complex inf would square to nan
        np.divide(c, d**2, out=jac[i0:i0 + _BLOCK])
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
    """E = sum_{i<j} kappa_i kappa_j ln|z_i - z_j| + sum_k kappa_k U(z_k), U = bg.u; 2 dE/dz_i = kappa_i F_i.

    The pair part is half the full-row sum over j != i, over the row blocks of F's pair pass.
    """
    z = np.asarray(z)
    kappa = np.full(z.shape, kappa, dtype=float)
    pair = np.zeros(z.size)
    for i0, d, diag in _row_blocks(z):
        diag[:] = 1.0  # ln|1| = 0: the self pairs drop out
        a = np.abs(d, dtype=float)
        pair[i0:i0 + _BLOCK] = np.log(a, out=a) @ kappa
    return float((kappa * (0.5 * pair + bg.u(z))).sum())


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
    """The one record of a Newton solve: the last iterate, its max|f|, the Newton steps
    taken, and whether max|f| <= tol (never so for a NaN residual)."""

    positions: np.ndarray
    residual_inf: float
    iterations: int
    converged: bool


def newton(residual, step, z, tol, max_iter) -> NewtonResult:
    """Damped Newton on residual(z) = 0, any residual, with the full step step(z, f) at z, where residual is f.

    residual raises ValueError at the trial points its caller rejects, and step raises
    LinAlgError where it is singular or ill-conditioned.  Each iteration takes the full step, halved
    at most 30 times until residual() is defined and max|f| strictly decreases (the
    accepted trial's f is reused).  Stops at max|f| <= tol, after max_iter steps, when no
    halving decreases max|f|, or at a singular step.  Refuses tol < 0 and max_iter < 0 (ValueError).
    A trial that rounds to z itself ends the halving unevaluated: rounding is monotone, so
    every shorter step rounds to z as well, and f(z) does not decrease below itself.
    """
    if not (tol >= 0 and max_iter >= 0):
        raise ValueError(f"need tol >= 0 and max_iter >= 0; got {tol} and {max_iter}")
    f = residual(z)
    fmax = np.abs(f).max()
    steps = 0
    while fmax > tol and steps < max_iter:
        try:
            dz = step(z, f)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        for _ in range(31):
            zn = z + lam * dz
            lam *= 0.5
            if np.array_equal(zn, z):  # every shorter step rounds to z too: f cannot decrease
                break
            try:
                fn = residual(zn)
            except ValueError:
                continue
            fn_max = np.abs(fn).max()
            if fn_max < fmax:
                z, f, fmax = zn, fn, fn_max
                break
        if z is not zn:  # no trial was accepted
            break
        steps += 1
    return NewtonResult(z, float(fmax), steps, bool(fmax <= tol))


def stationary(z0, kappa, bg, tol, max_iter) -> NewtonResult:
    """`newton` on F = kirchhoff_field(z, kappa, bg) = 0 from z0, with the step `_newton_step`: the one
    solve of a stationary problem, and the one code that binds the Kirchhoff step.

    A real z0 is a line problem: its points are sorted before and after the solve, and a
    trial point outside the open bg.domain raises DomainError, which the line search refuses.
    A z0 where F is not defined raises from the first evaluation of F.
    """
    def field(z):
        if line and (np.any(z <= lo) or np.any(z >= hi)):
            raise DomainError(f"points outside open domain ({lo}, {hi})")
        return kirchhoff_field(z, kappa, bg)

    line = not np.iscomplexobj(z0)
    lo, hi = bg.domain if line else (None, None)
    z0 = np.sort(np.asarray(z0, dtype=float)) if line else np.asarray(z0)
    result = newton(field, lambda z, f: _newton_step(z, kappa, bg, f), z0, tol, max_iter)
    return replace(result, positions=np.sort(result.positions)) if line else result


def _semicircle(n) -> np.ndarray:
    """The n quantiles s_k, k = 1..n, of the semicircle law on [-1, 1] at q = (k - 1/2)/n, increasing.

    s = -cos(E/2), where E - sin E = 2 pi q (Kepler's equation with eccentricity 1): 8 Newton
    steps from E = (12 pi q)^(1/3) on the lower half, which the upper half mirrors, so the
    quantiles are exactly odd and the middle one of odd n is 0.
    """
    m = 2.0 * np.pi * (np.arange(1, n // 2 + 1) - 0.5) / n
    e = np.cbrt(6.0 * m)
    for _ in range(8):
        e = e - (e - np.sin(e) - m) / (1.0 - np.cos(e))
    low = -np.cos(0.5 * e)
    return np.concatenate([low, np.zeros(n % 2), -low[::-1]])


def _marchenko_pastur(n, alpha) -> np.ndarray:
    """The n quantiles x_k, k = 1..n, at q = (k - 1/2)/n of the Marchenko-Pastur law
    sqrt((x - a)(b - x)) / (pi d x) on [a, b] = m -+ r, d = 2n + 1, m = d + alpha and
    r = sqrt(d (m + alpha)), so ab = alpha^2: the equilibrium measure of the Laguerre(alpha) zeros.

    x = m - r cos th, where pi d CDF = m th + r sin th - 2 alpha arctan(((m + r)/alpha) tan(th/2)),
    and pi d dCDF/dth = r^2 sin^2 th / x: 12 Newton steps in th from th = arccos(1 - 2q), the
    uniform law's quantile on [a, b], clipped to (0, pi]; they reach rounding up to n = 10^4.
    No terms of size m cancel: x is taken as a + 2r sin^2(th/2), a = alpha^2/(m + r), and the
    CDF with arctan u - arctan v = arctan((u - v)/(1 + uv)).  Not finite where alpha or n is
    beyond the floats.
    """
    q = (np.arange(1, n + 1) - 0.5) / n
    d = 2.0 * n + 1.0
    m = d + alpha
    r = np.sqrt(d * (m + alpha))
    a = alpha * alpha / (m + r)
    th = np.arccos(1.0 - 2.0 * q)
    for _ in range(12):
        x = a + 2.0 * r * np.sin(0.5 * th) ** 2
        t = np.tan(0.5 * th)
        cdf = d * th + r * np.sin(th) - 2.0 * alpha * np.arctan((d + r) * t / (alpha + (m + r) * t * t))
        th = np.clip(th - (cdf - np.pi * d * q) * x / (r * np.sin(th)) ** 2, np.finfo(float).tiny, np.pi)
    return a + 2.0 * r * np.sin(0.5 * th) ** 2


def default_guess(n, bg) -> np.ndarray:
    """The line guess: n points at the quantiles of the field's equilibrium measure, or of a law near it.

    A linear field w = b + a x with a > 0 and no poles (HermiteLinear, and such custom fields)
    puts its stationary points at scaled Hermite zeros, whose counting measure tends to the
    semicircle on -b/a +- sqrt(2n/a): the guess is -b/a + sqrt(2n/a) s_k, s_k its quantiles
    (`_semicircle`), with offsets from -b/a exactly odd, when all of them are finite.  Coulomb(l)
    puts them at Laguerre(2l + 1) zeros, whose counting measure tends to the Marchenko-Pastur law:
    the guess is its quantiles (`_marchenko_pastur`), when they are finite, positive and strictly
    increasing.  Every other field, and these two where their quantiles are not, takes n Chebyshev
    points, the quantiles of the arcsine law, affinely mapped into bg's domain.  Then a point
    within half the smallest spacing (0.5 for n = 1) of a real pole of a custom field moves
    out to that distance, on its own side: Coulomb's and Jacobi's poles end their domains,
    so every pole that reaches the rule lies inside the open domain.
    Refuses n < 1, and a field that is not rational or is zero: with w = 0 the points
    repel without bound.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not isinstance(bg, CustomRational) or not (any(bg.residues) or any(bg.poly)):
        raise ValueError(f"unsupported background {bg!r}: the field must be rational and not zero")
    if not bg.poles and len(bg.poly) == 2 and bg.poly[1] > 0:
        b, a = bg.poly
        with np.errstate(over="ignore", invalid="ignore"):
            x = (0.0 - b / a) + np.sqrt(2.0 * n / a) * _semicircle(n)  # 0.0 - 0.0 is 0.0, not -0.0
        if np.all(np.isfinite(x)):  # else the equilibrium lies beyond the floats: the Chebyshev guess, exit 3
            return x
    c = np.sort(np.cos((2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2.0 * n)))
    if isinstance(bg, Coulomb):
        with np.errstate(all="ignore"):
            x = _marchenko_pastur(n, 2.0 * bg.l + 1.0)
        if np.all(np.isfinite(x)) and x[0] > 0 and np.all(np.diff(x) > 0):
            return x
        # l so large that alpha^2 overflows or the quantiles round to one float: the Chebyshev guess
        return 2.0 * n * (c + 1.0) + 0.5
    if isinstance(bg, JacobiCharges):
        return c
    x = np.sqrt(2.0 * n) * c if n > 1 else np.array([0.5])
    half = 0.5 * np.diff(x).min() if n > 1 else 0.5
    poles = np.array(bg.poles)
    for p in poles[poles.imag == 0].real:
        near = np.abs(x - p) < half
        x[near] = p + np.copysign(half, x[near] - p)
    return x


def ring_guess(n, m, seed) -> np.ndarray:
    """The plane guess for n particles of strength m in units of l_B (omega = 1/4): the origin for
    n = 1, else a ring at 0.9 of the radius sqrt(2 m (n - 1)), its angles jittered by 0.01 standard
    normals from seed."""
    if n == 1:
        return np.array([0.0 + 0.0j])
    r0 = np.sqrt(2.0 * m * (n - 1))
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(n) / n
    return 0.9 * r0 * np.exp(1j * (angles + 0.01 * rng.standard_normal(n)))


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
    """w(r) = 1/2 - (l+1)/r on (0, inf); stationary points at Laguerre(2l+1) zeros.

    Its line solves start at the quantiles of their Marchenko-Pastur law (`default_guess`).
    """

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

    omega = 1/(4 l_B^2), 1/4 in units of l_B; a finite positive float.  Its potential
    U = -(omega/2)|z|^2 is not Re of an analytic Phi.
    """

    omega: float = 0.25

    def __post_init__(self):
        if not 0 < self.omega < np.inf:
            raise ValueError(f"omega must be finite and > 0, got {self.omega}")

    poles = ()

    def w(self, z):
        return -self.omega * np.conj(z)

    def dw(self, z):
        return 0.0  # w depends on conj(z) alone

    def dwbar(self, z):
        return -self.omega

    def u(self, z):
        return -0.5 * self.omega * np.abs(z) ** 2
