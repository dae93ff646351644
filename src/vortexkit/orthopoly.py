"""Classical orthogonal polynomials: monic recurrences, evaluation, high-accuracy zeros.

All polynomials are monic internally.  Conversion factors to the conventional
normalizations (physicists' Hermite H_n = 2^n p_n, Laguerre L_n^(a) = (-1)^n/n! p_n,
Jacobi P_n^(a,b) = binom(2n+a+b, n)/2^n p_n) follow from the leading coefficients
and are not exposed.
"""

from dataclasses import dataclass
from math import gamma, sqrt, pi

import numpy as np
from scipy.linalg import eigh_tridiagonal

HERMITE = "hermite"
LAGUERRE = "laguerre"
JACOBI = "jacobi"

_FAMILIES = (HERMITE, LAGUERRE, JACOBI)
_POLISH_STEPS = 2


class EigensolveError(RuntimeError):
    """Tridiagonal eigensolver failed to converge."""


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


def _eval_all(rec: RecurrenceCoefficients, n: int, x: float):
    """Value and first two derivatives of the monic degree-n polynomial at x (scalar or array)."""
    p_prev, p = 0.0, 1.0
    d_prev, d = 0.0, 0.0
    s_prev, s = 0.0, 0.0
    for k in range(n):
        ak = rec.a[k]
        bk = rec.b[k] if k >= 1 else 0.0
        p_next = (x - ak) * p - bk * p_prev
        d_next = (x - ak) * d + p - bk * d_prev
        s_next = (x - ak) * s + 2.0 * d - bk * s_prev
        p_prev, p = p, p_next
        d_prev, d = d, d_next
        s_prev, s = s, s_next
    return p, d, s


def evaluate(spec: PolynomialSpec, x: float):
    """Value and first derivative of the monic polynomial at x."""
    if not np.isfinite(x):
        raise ValueError("x must be finite")
    rec = recurrence(spec)
    p, d, _ = _eval_all(rec, spec.n, float(x))
    return p, d


def zeros(spec: PolynomialSpec) -> np.ndarray:
    """All n real zeros, strictly increasing.

    Eigenvalues of the symmetric tridiagonal (Jacobi) matrix built from the
    recurrence, followed by _POLISH_STEPS Newton steps with the recurrence
    derivative.  Where the monic recurrence overflows (large n) the step is
    not finite and the eigenvalue is kept.
    """
    rec = recurrence(spec)
    n = spec.n
    if n == 1:
        x = np.array([rec.a[0]])
    else:
        try:
            x = eigh_tridiagonal(rec.a, np.sqrt(rec.b[1:]), eigvals_only=True)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise EigensolveError(f"tridiagonal eigensolve failed for {spec}") from exc
        x = np.sort(x)
    for _ in range(_POLISH_STEPS):
        with np.errstate(all="ignore"):
            p, d, _ = _eval_all(rec, n, x)
            dx = p / d
        x = np.where(np.isfinite(dx), x - dx, x)
    return np.sort(x)


def ode_residual(spec: PolynomialSpec, x: float) -> float:
    """Residual of the family's second-order ODE at x for the monic polynomial.

    Hermite: f'' - 2x f' + 2n f; Laguerre: x f'' + (alpha+1-x) f' + n f;
    Jacobi: (1-x^2) f'' + [beta-alpha-(alpha+beta+2)x] f' + n(n+alpha+beta+1) f.
    """
    rec = recurrence(spec)
    n = spec.n
    x = float(x)
    p, d, s = _eval_all(rec, n, x)
    if spec.family == HERMITE:
        return s - 2.0 * x * d + 2.0 * n * p
    if spec.family == LAGUERRE:
        return x * s + (spec.alpha + 1.0 - x) * d + n * p
    al, be = spec.alpha, spec.beta
    return (1.0 - x * x) * s + (be - al - (al + be + 2.0) * x) * d + n * (n + al + be + 1.0) * p


def ode_residual_relative(spec: PolynomialSpec, x: float) -> float:
    """ODE residual scaled by the magnitude of its largest term."""
    rec = recurrence(spec)
    n = spec.n
    x = float(x)
    p, d, s = _eval_all(rec, n, x)
    if spec.family == HERMITE:
        terms = (s, -2.0 * x * d, 2.0 * n * p)
        scale = abs(s) + 2.0 * abs(x) * abs(d) + 2.0 * n * abs(p)
    elif spec.family == LAGUERRE:
        terms = (x * s, (spec.alpha + 1.0 - x) * d, n * p)
        scale = abs(x) * abs(s) + (abs(spec.alpha + 1.0) + abs(x)) * abs(d) + n * abs(p)
    else:
        al, be = spec.alpha, spec.beta
        terms = (
            (1.0 - x * x) * s,
            (be - al - (al + be + 2.0) * x) * d,
            n * (n + al + be + 1.0) * p,
        )
        scale = (
            abs(1.0 - x * x) * abs(s)
            + (abs(be - al) + (al + be + 2.0) * abs(x)) * abs(d)
            + n * (n + al + be + 1.0) * abs(p)
        )
    if scale == 0.0:
        return 0.0
    return sum(terms) / scale
