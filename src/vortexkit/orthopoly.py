"""Classical orthogonal polynomials: monic recurrences, high-accuracy zeros, ODE residuals.

All polynomials are monic internally.  Conversion factors to the conventional
normalizations (physicists' Hermite H_n = 2^n p_n, Laguerre L_n^(a) = (-1)^n/n! p_n,
Jacobi P_n^(a,b) = binom(2n+a+b, n)/2^n p_n) follow from the leading coefficients
and are not exposed.

One evaluator, `_eval_all`, gives p, p', p'' divided by 2^e and the exponent e,
so nothing overflows at any degree.  Its two users, the zeros polish and the
relative ODE residual, are ratios, so they use the scaled values as they are.
"""

from dataclasses import dataclass
from math import gamma, sqrt, pi

import numpy as np

HERMITE = "hermite"
LAGUERRE = "laguerre"
JACOBI = "jacobi"

_FAMILIES = (HERMITE, LAGUERRE, JACOBI)
_POLISH_STEPS = 2
_RESCALE = 16


class EigensolveError(RuntimeError):
    """Tridiagonal eigensolver failed to converge."""


def eigh_tridiagonal(d, e, **kwargs):
    """scipy.linalg.eigh_tridiagonal, imported on the first call: scipy.linalg is
    about two thirds of `import vortexkit`, and only the solves need it."""
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(d, e, **kwargs)


@dataclass(frozen=True)
class PolynomialSpec:
    """Family, degree and weight parameters of one classical polynomial.

    Weights: Hermite e^{-x^2} on R, Laguerre x^alpha e^{-x} on (0, inf),
    Jacobi (1-x)^alpha (1+x)^beta on (-1, 1).
    """

    family: str
    n: int
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError(f"degree must be >= 1, got {self.n}")
        if self.family in (LAGUERRE, JACOBI) and self.alpha <= -1.0:
            raise ValueError(f"alpha must be > -1, got {self.alpha}")
        if self.family == JACOBI and self.beta <= -1.0:
            raise ValueError(f"beta must be > -1, got {self.beta}")


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """Monic three-term recurrence p_{k+1} = (x - a_k) p_k - b_k p_{k-1}.

    b[0] stores the total mass of the weight; b[k] > 0 for k >= 1.
    """

    a: np.ndarray
    b: np.ndarray


def recurrence(spec: PolynomialSpec) -> RecurrenceCoefficients:
    """Monic recurrence coefficients a_0..a_{n-1}, b_0..b_{n-1}."""
    n = spec.n
    k = np.arange(n, dtype=float)
    if spec.family == HERMITE:
        a = np.zeros(n)
        b = k / 2.0
        b[0] = sqrt(pi)
    elif spec.family == LAGUERRE:
        al = spec.alpha
        a = 2.0 * k + al + 1.0
        b = k * (k + al)
        b[0] = gamma(al + 1.0)
    else:
        al, be = spec.alpha, spec.beta
        s = al + be
        a = np.empty(n)
        b = np.empty(n)
        a[0] = (be - al) / (s + 2.0)
        b[0] = 2.0 ** (s + 1.0) * gamma(al + 1.0) * gamma(be + 1.0) / gamma(s + 2.0)
        if n > 1:
            # k = 1 written with the (1 + s) factor cancelled, valid for s -> -1
            b[1] = 4.0 * (1.0 + al) * (1.0 + be) / ((2.0 + s) ** 2 * (3.0 + s))
            kk = k[1:]
            a[1:] = (be * be - al * al) / ((2.0 * kk + s) * (2.0 * kk + s + 2.0))
        if n > 2:
            kk = k[2:]
            t = 2.0 * kk + s
            b[2:] = 4.0 * kk * (kk + al) * (kk + be) * (kk + s) / (t * t * (t * t - 1.0))
    return RecurrenceCoefficients(a=a, b=b)


def _eval_all(rec: RecurrenceCoefficients, n: int, x):
    """Value and first two derivatives of the monic degree-n polynomial at x (scalar or array).

    Returns (p, d, s, e): the monic values are p·2^e, d·2^e, s·2^e.  Every
    _RESCALE steps the whole state is divided by a power of two per point, so
    nothing overflows; the scaling is exact, so ratios such as p/d equal the
    unscaled ones bit for bit.
    """
    p_prev, p, d_prev, d, s_prev, s, e = 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0
    for k in range(n):
        t = x - rec.a[k]
        bk = rec.b[k] if k >= 1 else 0.0
        p_next = t * p - bk * p_prev
        d_next = t * d + p - bk * d_prev
        s_next = t * s + 2.0 * d - bk * s_prev
        p_prev, p = p, p_next
        d_prev, d = d, d_next
        s_prev, s = s, s_next
        if k % _RESCALE == _RESCALE - 1:
            state = [p_prev, p, d_prev, d, s_prev, s]
            shift = np.frexp(np.max(np.abs(state), axis=0))[1]
            p_prev, p, d_prev, d, s_prev, s = np.ldexp(state, -shift)
            e = e + shift
    return p, d, s, e


def zeros(spec: PolynomialSpec) -> np.ndarray:
    """All n real zeros, strictly increasing.

    Eigenvalues of the symmetric tridiagonal (Jacobi) matrix built from the
    recurrence, followed by _POLISH_STEPS Newton steps p/d with the rescaled
    recurrence, which stays finite at every degree.  A step that is still not
    finite (d = 0) is skipped and the eigenvalue kept.
    """
    rec = recurrence(spec)
    try:
        x = eigh_tridiagonal(rec.a, np.sqrt(rec.b[1:]), eigvals_only=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigensolveError(f"tridiagonal eigensolve failed for {spec}") from exc
    for _ in range(_POLISH_STEPS):
        p, d, _, _ = _eval_all(rec, spec.n, x)
        with np.errstate(all="ignore"):
            dx = p / d
        x = np.where(np.isfinite(dx), x - dx, x)
    return np.sort(x)


def _ode(spec: PolynomialSpec, x):
    """The family's ODE at x as (coefficient, size bound) pairs of f'', f' and f.

    Hermite: f'' - 2x f' + 2n f; Laguerre: x f'' + (alpha+1-x) f' + n f;
    Jacobi: (1-x^2) f'' + [beta-alpha-(alpha+beta+2)x] f' + n(n+alpha+beta+1) f.
    """
    n, al, be = spec.n, spec.alpha, spec.beta
    if spec.family == HERMITE:
        return (1.0, 1.0), (-2.0 * x, 2.0 * abs(x)), (2.0 * n, 2.0 * n)
    if spec.family == LAGUERRE:
        return (x, abs(x)), (al + 1.0 - x, abs(al + 1.0) + abs(x)), (n, n)
    c, j = n * (n + al + be + 1.0), al + be + 2.0
    return (1.0 - x * x, abs(1.0 - x * x)), (be - al - j * x, abs(be - al) + j * abs(x)), (c, c)


def ode_residual_relative(spec: PolynomialSpec, x):
    """Residual of the family's ODE (see `_ode`) for the monic polynomial at x (scalar or
    array), scaled by the sum of its terms' size bounds; both are scaled by the same 2^-e."""
    x = np.asarray(x, dtype=float)
    p, d, s, _ = _eval_all(recurrence(spec), spec.n, x)
    pairs = list(zip(_ode(spec, x), (s, d, p)))
    terms = sum(c * f for (c, _), f in pairs)
    scale = sum(b * abs(f) for (_, b), f in pairs)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(scale == 0.0, 0.0, terms / scale)[()]
