"""Classical orthogonal polynomials: monic recurrences, high-accuracy zeros, Newton steps.

All polynomials are monic internally.  Conversion factors to the conventional
normalizations (physicists' Hermite H_n = 2^n p_n, Laguerre L_n^(a) = (-1)^n/n! p_n,
Jacobi P_n^(a,b) = binom(2n+a+b, n)/2^n p_n) follow from the leading coefficients
and are not exposed.

One evaluator, `_eval_all`, gives p and as many derivatives as asked (p', p'')
divided by 2^e and the exponent e, so nothing overflows at any degree.  Its user
here, `newton_step` (p/p'), is a ratio, so it uses the scaled values as they are.
The zeros polish takes that step, and at a returned zero the next step is the
zero's error to first order: that is how a zero is certified.
`certify` checks points, such as the stationary vortices on a line, against the
zeros.
"""

from dataclasses import dataclass

import numpy as np

HERMITE = "hermite"
LAGUERRE = "laguerre"
JACOBI = "jacobi"

_FAMILIES = (HERMITE, LAGUERRE, JACOBI)
_POLISH_STEPS = 2
_RESCALE = 16


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

    b[0] = 0, so the recurrence starts from p_0 = 1 alone; b[k] > 0 for k >= 1.
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
    elif spec.family == LAGUERRE:
        al = spec.alpha
        a = 2.0 * k + al + 1.0
        b = k * (k + al)
    else:
        al, be = spec.alpha, spec.beta
        # c = 2 + al + be summed as (1 + al) + (1 + be), and 2k + al + be as 2(k - 1) + c, so
        # nothing cancels as al, be -> -1
        c = (1.0 + al) + (1.0 + be)
        a = np.empty(n)
        b = np.zeros(n)
        a[0] = (be - al) / c
        if n > 1:
            # k = 1 written with the (1 + al + be) factor cancelled, valid for al + be -> -1
            b[1] = 4.0 * (1.0 + al) * (1.0 + be) / (c * c * (1.0 + c))
            kk = k[1:]
            a[1:] = (be - al) * (be + al) / ((2.0 * (kk - 1.0) + c) * (2.0 * kk + c))
        if n > 2:
            kk = k[2:]
            t = 2.0 * (kk - 1.0) + c
            b[2:] = 4.0 * kk * (kk + al) * (kk + be) * ((kk - 2.0) + c) / (t * t * (t * t - 1.0))
    return RecurrenceCoefficients(a=a, b=b)


def _eval_all(rec: RecurrenceCoefficients, x, rows):
    """Value and first rows - 1 derivatives of the monic polynomial of rec, degree rec.a.size,
    at x (scalar or array).

    Returns (p, d, s, e) for rows = 3, (p, d, e) for 2 and (p, e) for 1: the monic values are
    p·2^e, d·2^e, s·2^e.  The derivatives are one (rows, ...) state, row r stepping as
    (x - a_k) row_r + r row_{r-1} - b_k prev_r, so each row takes the same operations in the
    same order at every rows.  Every _RESCALE steps the whole state is divided by a power of
    two per point, so nothing overflows; the scaling is exact, so ratios such as p/d equal
    the unscaled ones bit for bit (e itself depends on rows).
    """
    x = np.asarray(x, dtype=float)
    prev = np.zeros((rows,) + x.shape)
    cur = np.zeros((rows,) + x.shape)
    cur[0] = 1.0
    r = np.arange(1.0, rows).reshape((-1,) + (1,) * x.ndim)
    e = 0
    for k in range(rec.a.size):
        nxt = (x - rec.a[k]) * cur
        nxt[1:] += r * cur[:-1]
        nxt -= rec.b[k] * prev
        prev, cur = cur, nxt
        if k % _RESCALE == _RESCALE - 1:
            state = np.stack((prev, cur))
            shift = np.frexp(np.abs(state).max(axis=(0, 1)))[1]
            prev, cur = np.ldexp(state, -shift)
            e = e + shift
    return (*cur, e)


def newton_step(spec: PolynomialSpec, x):
    """The Newton step p(x)/p'(x) of the monic polynomial at x (scalar or array), from the
    rescaled recurrence; inf or NaN where p' is 0 or the evaluation fails.  At a zero it is the
    zero's error to first order."""
    with np.errstate(all="ignore"):
        p, d, _ = _eval_all(recurrence(spec), x, rows=2)
        return (p / d)[()]


def zeros(spec: PolynomialSpec) -> np.ndarray:
    """All n real zeros, strictly increasing.

    Eigenvalues of the symmetric tridiagonal (Jacobi) matrix built from the
    recurrence, followed by _POLISH_STEPS steps of `newton_step`, which stays
    finite at every degree.  A step that is still not finite (p' = 0) is skipped
    and the eigenvalue kept.  A failed eigensolve raises its LinAlgError.
    """
    rec = recurrence(spec)
    x = eigh_tridiagonal(rec.a, np.sqrt(rec.b[1:]), eigvals_only=True)
    for _ in range(_POLISH_STEPS):
        dx = newton_step(spec, x)
        x = np.where(np.isfinite(dx), x - dx, x)
    return np.sort(x)


def certify(x, spec: PolynomialSpec):
    """(certified, max_zero_deviation) of the points x against the zeros of spec: certified when
    the sorted points are within 1e-10 of the zeros.  A degree mismatch, or a non-finite point or
    zero, raises ValueError."""
    x = np.asarray(x, dtype=float)
    if spec.n != x.size:
        raise ValueError(f"spec degree {spec.n} does not match {x.size} positions")
    ref = zeros(spec)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(ref))):
        raise ValueError("cannot certify non-finite positions or reference zeros")
    dev = float(np.abs(np.sort(x) - ref).max())
    return dev <= 1e-10, dev
