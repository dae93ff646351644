"""Paraxial beam propagation, Laguerre-Gaussian vortex modes, vortex detection.

Fields live on uniform power-of-two grids; free-space propagation applies the
exact spectral phase exp(-i (kx^2+ky^2) dz / 2k) to the numpy.fft spectrum, so
the split-step structure carries no splitting error and conserves energy to
rounding.  The Fresnel factor is the outer product exp(-i ky^2 dz/2k)
exp(-i kx^2 dz/2k) of 1-d factors (Goodman, Introduction to Fourier Optics,
sec. 4.2).  An LG mode of radial index p and charge ell is a sum of
r = 2p + |ell| + 1 Hermite-Gauss products h_{N-k}(x) h_k(y) (Beijersbergen et
al. 1993), so `_lg_factors` returns it as two factors, an ny x r and an nx x r
matrix, and `_slices` propagates it without a 2-d transform: the 1-d spectra
of the factors' columns are taken once, and each slice costs a multiply of
each by its 1-d Fresnel factor, r 1-d inverse transforms per axis, and one
matrix product.  The aliasing check is taken from the factor spectra too.
`propagate` moves any other field, such as a `ladder_apply` output or a loaded
one, by one 2-d transform pair.
`ladder_apply` applies the Landau-level lowering and raising operators to a
field by centered differences.
"""

import math
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

_MAGIC = b"VKFIELD1"


class AliasingWarning(UserWarning):
    """More than 1% of the energy sits in the outer quarter of the spectrum."""


@dataclass(frozen=True)
class BeamField:
    """Complex amplitude on a uniform grid; axis 0 is y, axis 1 is x."""

    amplitude: np.ndarray
    dx: float
    dy: float
    k: float
    z: float = 0.0

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=complex)
        object.__setattr__(self, "amplitude", amp)
        ny, nx = amp.shape
        for n in (nx, ny):
            if n < 16 or (n & (n - 1)) != 0:
                raise ValueError(f"grid sides must be powers of two >= 16, got {amp.shape}")
        if self.dx <= 0 or self.dy <= 0 or self.k <= 0:
            raise ValueError("dx, dy, k must be positive")
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("amplitudes must be finite")

    @property
    def nx(self):
        return self.amplitude.shape[1]

    @property
    def ny(self):
        return self.amplitude.shape[0]

    def x(self):
        return (np.arange(self.nx) - self.nx // 2) * self.dx

    def y(self):
        return (np.arange(self.ny) - self.ny // 2) * self.dy

    def grid(self):
        return np.meshgrid(self.x(), self.y())

    def power(self):
        return float(np.vdot(self.amplitude, self.amplitude).real * self.dx * self.dy)


def _hermite_functions(t, count):
    """Columns h_0(t) .. h_{count-1}(t) of the orthonormal Hermite functions
    h_n = H_n exp(-t^2/2) / sqrt(2^n n! sqrt(pi)), by their three-term recurrence
    h_{n+1} = sqrt(2/(n+1)) t h_n - sqrt(n/(n+1)) h_{n-1}, which stays bounded by
    pi^(-1/4) where the polynomials H_n overflow."""
    h = np.empty((count, t.size))
    h[0] = math.pi**-0.25 * np.exp(-0.5 * t**2)
    if count > 1:
        h[1] = math.sqrt(2.0) * t * h[0]
    for n in range(1, count - 1):
        h[n + 1] = math.sqrt(2.0 / (n + 1)) * t * h[n] - math.sqrt(n / (n + 1)) * h[n - 1]
    return h.T


def _lg_factors(p, ell, w0, nx, ny, dx, dy):
    """Laguerre-Gaussian LG_{p,ell} at the waist plane as factors (fy, fx), u = fy @ fx.T.

    With N = 2p + |ell|, u = sum_k c_k h_{N-k}(X) h_k(Y) over k = 0..N, X = sqrt(2) x / w0
    and Y = sqrt(2) sign(ell) y / w0 (Beijersbergen, Allen, van der Veen & Woerdman,
    Opt. Commun. 96 (1993) 123): c_k = (-1)^p (-i)^k b(p + |ell|, p, k), where
    b(n, m, k) is sqrt((N-k)! k! / (2^N n! m!)) times the coefficient of t^k in
    (1 - t)^n (1 + t)^m.  Column k of fy (ny x (N+1), complex) is c_k h_k(Y) and column k
    of fx (nx x (N+1), real) is h_{N-k}(X).  The sum is scaled to unit grid power, which
    is sum(G_y * G_x) dx dy over the Gram matrices of the two factors.
    """
    if p < 0 or w0 <= 0:
        raise ValueError("need p >= 0 and w0 > 0")
    if not (dx > 0 and dy > 0):  # before w0 / dx; NaN too
        raise ValueError(f"need dx > 0 and dy > 0, got {dx} and {dy}")
    if w0 / dx < 8 or w0 / dy < 8:
        raise ValueError(f"waist under-resolved: need >= 8 samples across w0={w0}")
    if nx * dx < 6 * w0 or ny * dy < 6 * w0:
        raise ValueError(f"grid extent must cover >= 6 waists, got {nx * dx} x {ny * dy}")
    a = abs(ell)
    rank = 2 * p + a + 1
    x = (np.arange(nx) - nx // 2) * (math.sqrt(2.0) * dx / w0)
    y = (np.arange(ny) - ny // 2) * (math.copysign(math.sqrt(2.0), ell) * dy / w0)
    # b(n, m, k) up to the factor sqrt(N! / (2^N n! m!)) common to all k, which the scaling absorbs;
    # (-i)^k from a table, since complex powers above 100 are not exact
    c = np.array([(-1) ** p * (1, -1j, -1, 1j)[i % 4]
                  * sum((-1) ** j * math.comb(p + a, j) * math.comb(p, i - j) for j in range(i + 1))
                  / math.sqrt(math.comb(rank - 1, i)) for i in range(rank)])
    fy = _hermite_functions(y, rank) * c
    fx = _hermite_functions(x, rank)[:, ::-1]
    fy *= 1.0 / math.sqrt(np.sum((fy.conj().T @ fy) * (fx.T @ fx)).real * dx * dy)
    return fy, fx


def lg_mode(p, ell, w0, nx, ny, dx, dy, k) -> BeamField:
    """Laguerre-Gaussian LG_{p,ell} at the waist plane z = 0, unit grid norm.

    It is the polynomial-Gaussian beam w^|ell| L_p^|ell|(|w|^2) exp(-|w|^2/2)
    with w = sqrt(2) (x + i sign(ell) y) / w0 and sign(0) = +1 (Indebetouw,
    J. Mod. Opt. 40 (1993) 73): its core of charge ell is the zero of w^|ell| on
    the axis.  It is assembled from its Hermite-Gauss factors, `_lg_factors`.
    """
    fy, fx = _lg_factors(p, ell, w0, nx, ny, dx, dy)
    return BeamField(fy @ fx.T, dx, dy, k)


def _inner(n):
    """Frequencies of an n-point numpy.fft axis up to 3/4 of the largest in modulus."""
    f = np.abs(np.fft.fftfreq(n))
    return f <= 0.75 * f.max()


def _spectral_energy_fraction_outer(spec):
    """Share of |spec|^2 above 3/4 of the largest frequency on either axis: the total minus
    the inner rectangle, summed as inner rows @ |spec|^2 @ inner columns."""
    power = np.abs(spec)
    power *= power
    total = power.sum()
    if total == 0.0:
        return 0.0
    inner = _inner(spec.shape[0]).astype(float) @ power @ _inner(spec.shape[1]).astype(float)
    return float((total - inner) / total)


def _factor_energy_fraction_outer(sy, sx):
    """`_spectral_energy_fraction_outer` of the spectrum sy @ sx.T, from its factors: the
    energy of its rows a and columns b is sum(G_y * G_x), with the r x r Gram matrices
    G_y = sy[a].T @ conj(sy[a]) and G_x = sx[b].T @ conj(sx[b])."""
    def energy(a, b):
        return np.sum((sy[a].T @ sy[a].conj()) * (sx[b].T @ sx[b].conj())).real

    total = energy(slice(None), slice(None))
    return float((total - energy(_inner(len(sy)), _inner(len(sx)))) / total)


def _warn_if_aliased(frac):
    if frac > 0.01:
        warnings.warn(
            f"{100 * frac:.2f}% of energy in outer quarter of spectrum", AliasingWarning
        )


def _fresnel(n, d, dz, k):
    """exp(-i kappa^2 dz / 2k) on the numpy.fft wavenumbers kappa of an n-point axis of spacing d."""
    kappa = 2.0 * np.pi * np.fft.fftfreq(n, d)
    return np.exp(1j * (-dz / (2.0 * k)) * kappa**2)


def _slices(fy, fx, dx, dy, k, dz, count):
    """Yield the field fy @ fx.T at z = 0, then `count` fields each dz further along z.

    The Fresnel factor is the outer product of its 1-d y and x factors, so the
    spectrum of fy @ fx.T stays the product of the 1-d spectra of its factors:
    slice s is ifft(fft(fy) py**s) @ ifft(fft(fx) px**s).T, with the running
    products kept in place.  The 1-d transforms of the factors' r columns and
    the aliasing check run only when the first propagated slice is asked for.
    """
    field = BeamField(fy @ fx.T, dx, dy, k)
    yield field
    sy, sx = np.fft.fft(fy, axis=0), np.fft.fft(fx, axis=0)
    _warn_if_aliased(_factor_energy_fraction_outer(sy, sx))
    py, px = _fresnel(len(sy), dy, dz, k)[:, None], _fresnel(len(sx), dx, dz, k)[:, None]
    for s in range(1, count + 1):
        sy *= py
        sx *= px
        # rebinding field keeps no earlier slice alive here: the caller decides which it holds
        field = replace(field, amplitude=np.fft.ifft(sy, axis=0) @ np.fft.ifft(sx, axis=0).T, z=s * dz)
        yield field


def propagate(field: BeamField, dz) -> BeamField:
    """Free-space propagation of any field by dz using the exact spectral factor: one 2-d
    transform, the aliasing check on its spectrum, and one inverse transform."""
    spec = np.fft.fft2(field.amplitude)
    _warn_if_aliased(_spectral_energy_fraction_outer(spec))
    spec *= _fresnel(field.ny, field.dy, dz, field.k)[:, None] * _fresnel(field.nx, field.dx, dz, field.k)
    return replace(field, amplitude=np.fft.ifft2(spec), z=field.z + dz)


def _circulation(u, idx, nx):
    """Summed phase steps around the plaquettes whose top-left corners are at the
    flat indices idx: each edge, along +x or +y, is the angle of conj(u_a) u_b."""
    u00, u01, u10, u11 = u[idx], u[idx + 1], u[idx + nx], u[idx + nx + 1]
    # adding 0.0 turns a -0.0 imaginary part into +0.0: an exact pi jump is +pi, whatever
    # the signs of the zeros in u
    top, right = np.angle(u00.conj() * u01 + 0.0), np.angle(u01.conj() * u11 + 0.0)
    bottom, left = np.angle(u10.conj() * u11 + 0.0), np.angle(u00.conj() * u10 + 0.0)
    return top + right - bottom - left


def _plane_fit(amp, idx, nx):
    """Sub-pixel offsets, clipped to the plaquette, of the zero of the local plane
    fit of Re amp and Im amp over each plaquette's corners; (0, 0) where it is singular."""
    a00, a01, a10, a11 = amp[idx], amp[idx + 1], amp[idx + nx], amp[idx + nx + 1]
    gx = 0.5 * ((a01 - a00) + (a11 - a10))
    gy = 0.5 * ((a10 - a00) + (a11 - a01))
    u0 = 0.25 * (a00 + a01 + a10 + a11)
    a = np.stack([gx.real, gy.real, gx.imag, gy.imag], axis=-1).reshape(-1, 2, 2)
    b = -np.stack([u0.real, u0.imag], axis=-1)
    try:
        t = np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        t = np.zeros_like(b)
        for r in range(len(b)):
            try:
                t[r] = np.linalg.solve(a[r], b[r])
            except np.linalg.LinAlgError:
                pass
    return np.clip(t, -0.5, 0.5)


def find_vortices(field: BeamField, margin: int = 4):
    """Per-plaquette phase-winding scan with bilinear sub-pixel refinement.

    Each grid edge carries one phase step, taken along +x or +y: the angle of
    u_b conj(u_a) on the peak-normalised field u = amp / peak, the angle of
    the ratio u_b / u_a without a division.  With |u| <= 1 no product
    overflows, and none underflows in modulus except next to a dead pixel.  A
    plaquette's winding is the circulation of its four edges over 2 pi, so the two
    plaquettes that share an edge see it with opposite signs and the windings
    of a region add up to the winding of its boundary (the residue scan of
    Goldstein, Zebker & Werner, Radio Sci. 23 (1988) 713).  A core sitting on a
    sample point (below 1e-10 of the peak) with no such neighbour gets the
    summed circulation of its four plaquettes: the edges to the dead pixel
    cancel in pairs, so its arbitrary phase drops out.  Plaquettes, and dead
    pixels, whose whole neighbourhood is below 1e-6 of the peak carry no
    charge.  Plaquettes within `margin` cells of the boundary are skipped: the
    spectral domain is periodic and its wrap-around seam produces phantom
    windings.

    Edge angles are computed only where a core can be.  A plaquette whose four
    corners all have Re u > tiny, or all Re u < -tiny, or all Im u > tiny, or
    all Im u < -tiny (tiny the smallest normal float) lies in one open
    half-plane through 0 and is skipped: its winding under the edge rule is 0.
    Within such a half-plane a step near +-pi joins two corners on opposite
    sides of the half-plane's axis, so the two terms of Im(conj(u_a) u_b) have
    the same sign, and with |u| >= 1e-10 at live corners and the half-plane
    part above tiny they do not both round to zero.  The computed Im then has
    the exact sign, no step wraps, and the four steps telescope to 0 up to
    rounding.  (With > 0 in place of > tiny, two subnormal parts can round
    both terms to zero, and a step of -pi + d is read as +pi.)  Exact zeros
    fail the tests, so fields with zeros on an axis, or real fields, go
    through the edge rule as before.
    Returns a list of ((x, y), charge) in physical coordinates.
    """
    amp = field.amplitude
    mag = np.abs(amp)
    peak = mag.max()
    if peak == 0.0:
        return []
    ny, nx = amp.shape
    u = amp / peak
    dead_level, faint_level = 1e-10 * peak, 1e-6 * peak
    dead = mag < dead_level
    # plaquettes off the margin: each part of u is 1 above tiny, 2 below -tiny and 0
    # otherwise, one byte per part, and corners that share a set bit share a half-plane
    m = max(margin, 0)
    part = u[m:ny - m, m:nx - m].view(float)
    tiny = np.finfo(float).tiny
    side = (part > tiny).view(np.uint16) | ((part < -tiny).view(np.uint16) << 1)
    side = side[:-1] & side[1:]
    side = side[:, :-1] & side[:, 1:]
    # a core sitting on a sample point leaves its four plaquettes phase-ambiguous
    near = dead[m:ny - m, m:nx - m]
    near = near[:-1] | near[1:]
    near = near[:, :-1] | near[:, 1:]
    jy, jx = np.divmod(np.flatnonzero((side == 0) & ~near), side.shape[1])
    idx = (jy + m) * nx + (jx + m)   # flat index of each candidate's corner (j, i)
    # dead pixels at least max(1, margin) from the edge whose left and right neighbours live
    lo = max(1, margin)
    cy, cx = np.divmod(np.flatnonzero(dead[:, 1:-1] & ~(dead[:, :-2] | dead[:, 2:])), nx - 2)
    cx += 1
    inside = (cy >= lo) & (cy < ny - lo) & (cx >= lo) & (cx < nx - lo)
    cores = cy[inside] * nx + cx[inside]
    mag, dead, u, amp = mag.ravel(), dead.ravel(), u.ravel(), amp.ravel()
    # plaquettes whose whole neighbourhood is near the noise floor carry no signal
    level = mag[np.stack([idx, idx + 1, idx + nx, idx + nx + 1])]
    idx = idx[(level >= faint_level).any(axis=0)]
    winding = np.rint(_circulation(u, idx, nx) / (2.0 * np.pi)).astype(int)
    idx, winding = idx[winding != 0], winding[winding != 0]
    # a dead pixel with no dead neighbour: its charge is the circulation of its four
    # plaquettes, unless all are faint
    ring = (-nx - 1, -nx, -nx + 1, -1, 1, nx - 1, nx, nx + 1)
    for off in ring:
        cores = cores[~dead[cores + off]]
    quad = cores - nx - 1, cores - nx, cores - 1, cores
    charge = np.rint(sum(_circulation(u, q, nx) for q in quad) / (2.0 * np.pi)).astype(int)
    charge[np.logical_and.reduce([mag[cores + off] < faint_level for off in ring])] = 0
    x = field.x()
    y = field.y()
    out = [((float(x[c % nx]), float(y[c // nx])), q)
           for c, q in zip(cores.tolist(), charge.tolist()) if q]
    t = _plane_fit(amp, idx, nx)
    px = x[idx % nx] + (0.5 + t[:, 0]) * field.dx
    py = y[idx // nx] + (0.5 + t[:, 1]) * field.dy
    return out + list(zip(zip(px.tolist(), py.tolist()), winding.tolist()))


def ladder_apply(field: BeamField, which: str, l_B: float) -> BeamField:
    """Apply the lowering/raising operator on a grid by centered differences.

    lower: -i sqrt(2) (l_B d/dzbar + z/(4 l_B)); raise: -i sqrt(2) (l_B d/dz -
    zbar/(4 l_B)); d/dz = (d/dx - i d/dy)/2, d/dzbar = (d/dx + i d/dy)/2.
    """
    if which not in ("lower", "raise"):
        raise ValueError(f"which must be 'lower' or 'raise', got {which!r}")
    u = field.amplitude
    ux = np.gradient(u, field.dx, axis=1)
    uy = np.gradient(u, field.dy, axis=0)
    xg, yg = field.grid()
    zg = xg + 1j * yg
    if which == "lower":
        dzbar = 0.5 * (ux + 1j * uy)
        out = -1j * np.sqrt(2.0) * (l_B * dzbar + zg * u / (4.0 * l_B))
    else:
        dz = 0.5 * (ux - 1j * uy)
        out = -1j * np.sqrt(2.0) * (l_B * dz - np.conj(zg) * u / (4.0 * l_B))
    return BeamField(out, field.dx, field.dy, field.k, field.z)


def save_field(field: BeamField, path):
    """Binary layout: magic, Nx, Ny (int64), dx, dy, k, z (float64), then
    row-major interleaved re/im float64, all little-endian."""
    header = _MAGIC + struct.pack("<qqdddd", field.nx, field.ny, field.dx, field.dy, field.k, field.z)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.amplitude, dtype="<c16").tobytes())


def load_field(path) -> BeamField:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        nx, ny, dx, dy, k, z = struct.unpack("<qqdddd", fh.read(8 * 6))
        data = np.frombuffer(fh.read(nx * ny * 16), dtype="<c16").reshape(ny, nx)
    return BeamField(data.astype(complex), dx, dy, k, z)
