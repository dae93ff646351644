"""Background-flow / superpotential families added to the point-vortex velocity.

Each family provides the flow term w(z) entering the velocity
dz_bar/dt = sum_j i*kappa_j/(z - z_j) + i*w(z), its derivative (used by the
Newton jacobian of the stationary problem), and the complex antiderivative
(real part = line potential for the electrostatic energy, stream-function
bookkeeping for the Hamiltonian form).

The other half, the sum over pairs of points, is `pair_sum`, with
`min_separation` the matching distinctness check.  Both work over blocks of
_BLOCK rows, so memory stays O(n * _BLOCK) at any n.  `pair_jacobian` is the
derivative of that sum, and `newton` the damped Newton loop that both
stationary problems (points on a line, points in the plane) are solved with.
"""

from dataclasses import dataclass, field

import numpy as np

from .orthopoly import PolynomialSpec, HERMITE, LAGUERRE, JACOBI

_BLOCK = 128
# The pairs left out of the sums within the diagonal square of a row block.
_SELF = np.eye(_BLOCK, dtype=bool)  # j == i
_SELF_OR_LOWER = np.tri(_BLOCK, dtype=bool)  # j <= i


def _row_blocks(z, upper):
    """Yield (j0, d, square, drop) for each block of rows i0 <= i < i0 + _BLOCK.

    d[r, k] = z[i0 + r] - z[j0 + k], with j0 = i0 when `upper` and 0 otherwise.
    d[square] is the block's diagonal square, and d[square][drop] are the pairs
    left out of the sums: j == i, and also j < i when `upper`.
    """
    for i0 in range(0, z.size, _BLOCK):
        j0 = i0 if upper else 0
        d = z[i0:i0 + _BLOCK, None] - z[None, j0:]
        b = d.shape[0]
        yield j0, d, np.s_[:, i0 - j0:i0 - j0 + b], (_SELF_OR_LOWER if upper else _SELF)[:b, :b]


def log_abs(d):
    """ln|d|, the pair term of the interaction energies."""
    return np.log(np.abs(d))


def pair_sum(z, c=1.0, g=np.reciprocal, upper=False):
    """s_i = sum over j != i of c_j * g(z_i - z_j); over j > i only when `upper`.

    c is a scalar or one weight per point.  `upper` gives the sums over pairs
    i < j, so that sum(s) counts each unordered pair once.
    """
    z = np.asarray(z)
    c = np.broadcast_to(c, z.shape)
    parts = []
    for j0, d, square, drop in _row_blocks(z, upper):
        d[square][drop] = 1.0  # keeps g finite on the dropped pairs
        t = c[j0:] * g(d)
        t[square][drop] = 0.0
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


def newton(residual, step, z, tol, max_iter):
    """Damped Newton on residual(z) = 0; returns (z, max|r|, steps).

    step(z, r) gives the full Newton step at z, where the residual is r.  Each
    iteration takes the full step, halving it at most 30 times until residual()
    is defined there (raises no ValueError) and max|r| strictly decreases; the
    accepted trial's residual is reused, so an iteration evaluates it once.
    Stops at max|r| <= tol, after max_iter steps, or when no halving decreases
    max|r|.
    """
    r = residual(z)
    rmax = np.abs(r).max()
    steps = 0
    while rmax > tol and steps < max_iter:
        dz = step(z, r)
        lam = 1.0
        for _ in range(31):
            zn = z + lam * dz
            lam *= 0.5
            try:
                rn = residual(zn)
            except ValueError:
                continue
            rn_max = np.abs(rn).max()
            if rn_max < rmax:
                z, r, rmax = zn, rn, rn_max
                break
        else:
            break
        steps += 1
    return z, float(rmax), steps


def min_separation(z) -> float:
    """Smallest |z_i - z_j| over pairs i != j; inf for fewer than two points."""
    best = np.inf
    for _, d, square, drop in _row_blocks(np.asarray(z), upper=True):
        d[square][drop] = np.inf
        best = np.minimum(best, np.abs(d).min())
    return float(best)


@dataclass(frozen=True)
class NoFlow:
    poles = ()
    domain = (-np.inf, np.inf)

    def w(self, z):
        return np.zeros_like(np.asarray(z, dtype=complex)) if np.ndim(z) else 0.0

    def dw(self, z):
        return np.zeros_like(np.asarray(z, dtype=complex)) if np.ndim(z) else 0.0

    def antiderivative(self, z):
        return np.zeros_like(np.asarray(z, dtype=complex)) if np.ndim(z) else 0.0


@dataclass(frozen=True)
class HermiteLinear:
    """w(z) = z; stationary points sit at Hermite zeros."""

    poles = ()
    domain = (-np.inf, np.inf)

    def w(self, z):
        return z

    def dw(self, z):
        return np.ones_like(np.asarray(z, dtype=float)) if np.ndim(z) else 1.0

    def antiderivative(self, z):
        return 0.5 * z * z

    def polynomial_spec(self, n):
        return PolynomialSpec(HERMITE, n)


@dataclass(frozen=True)
class Coulomb:
    """w(r) = 1/2 - (l+1)/r on (0, inf); stationary points at Laguerre(2l+1) zeros."""

    l: float = 0.0

    def __post_init__(self):
        if self.l < 0:
            raise ValueError(f"l must be >= 0, got {self.l}")

    @property
    def poles(self):
        return (0.0,)

    domain = (0.0, np.inf)

    def w(self, z):
        return 0.5 - (self.l + 1.0) / z

    def dw(self, z):
        return (self.l + 1.0) / (z * z)

    def antiderivative(self, z):
        return 0.5 * z - (self.l + 1.0) * np.log(z)

    def polynomial_spec(self, n):
        return PolynomialSpec(LAGUERRE, n, alpha=2.0 * self.l + 1.0)


@dataclass(frozen=True)
class JacobiCharges:
    """Fixed charges p at +1 and q at -1; w(x) = -p/(x-1) - q/(x+1) on (-1, 1).

    Stationary points sit at Jacobi(2p-1, 2q-1) zeros.
    """

    p: float = 0.5
    q: float = 0.5

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValueError(f"fixed charges must be positive, got p={self.p}, q={self.q}")

    @property
    def poles(self):
        return (-1.0, 1.0)

    domain = (-1.0, 1.0)

    def w(self, z):
        return -self.p / (z - 1.0) - self.q / (z + 1.0)

    def dw(self, z):
        return self.p / (z - 1.0) ** 2 + self.q / (z + 1.0) ** 2

    def antiderivative(self, z):
        return -self.p * np.log(z - 1.0) - self.q * np.log(z + 1.0)

    def polynomial_spec(self, n):
        return PolynomialSpec(JACOBI, n, alpha=2.0 * self.p - 1.0, beta=2.0 * self.q - 1.0)


@dataclass(frozen=True)
class ConjugateLinear:
    """w(z) = -omega * conj(z): the Gaussian confinement of the planar problem.

    omega = 1/(4 l_B^2).  Not derivable from a real line potential.
    """

    omega: float = 0.25

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")

    poles = ()
    domain = (-np.inf, np.inf)

    def w(self, z):
        return -self.omega * np.conj(z)


@dataclass(frozen=True)
class CustomRational:
    """w(z) = sum_m residues[m]/(z - poles[m]) + polynomial(z) (ascending coeffs)."""

    poles: tuple = ()
    residues: tuple = ()
    poly: tuple = field(default=())

    def __post_init__(self):
        if len(self.poles) != len(self.residues):
            raise ValueError("poles and residues must have equal length")
        if len(set(self.poles)) != len(self.poles):
            raise ValueError("poles must be distinct")

    domain = (-np.inf, np.inf)

    def w(self, z):
        out = np.zeros_like(np.asarray(z, dtype=complex)) if np.ndim(z) else 0.0 + 0.0j
        for p, r in zip(self.poles, self.residues):
            out = out + r / (z - p)
        for m, c in enumerate(self.poly):
            out = out + c * z**m
        return out

    def dw(self, z):
        out = np.zeros_like(np.asarray(z, dtype=complex)) if np.ndim(z) else 0.0 + 0.0j
        for p, r in zip(self.poles, self.residues):
            out = out - r / (z - p) ** 2
        for m, c in enumerate(self.poly):
            if m >= 1:
                out = out + m * c * z ** (m - 1)
        return out

    def antiderivative(self, z):
        out = np.zeros_like(np.asarray(z, dtype=complex)) if np.ndim(z) else 0.0 + 0.0j
        for p, r in zip(self.poles, self.residues):
            out = out + r * np.log(z - p)
        for m, c in enumerate(self.poly):
            out = out + c * z ** (m + 1) / (m + 1)
        return out
