"""Paraxial beam propagation, Laguerre-Gaussian vortex modes, vortex detection.

An LG mode of radial index p and charge ell is a sum of r = 2p + |ell| + 1
Hermite-Gauss products h_{N-k}(x) h_k(y) (Beijersbergen et al. 1993), each of
which propagates on the open plane in closed form (Siegman, Lasers, 1986,
ch. 16).  So `_lg_factors` returns the mode at any z as two factors, an ny x r
and an nx x r matrix, and `_slices` gives each slice of `beam` as their
product: no transform, and no periodic box to wrap the spreading beam round.
`propagate` moves any other field, such as a `ladder_apply` output or a loaded
one, through its periodic box: the exact spectral phase exp(-i (kx^2+ky^2) dz /
2k) on one numpy.fft transform pair, which conserves energy to rounding.
`ladder_apply` applies the Landau-level lowering and raising operators to a
field by centered differences.
"""

import math
import os
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

_MAGIC = b"VKFIELD1"
_HEADER = struct.Struct("<qqdddd")  # nx, ny, dx, dy, k, z after the magic
_TINY = np.finfo(float).tiny  # the smallest normal float; 1/peak overflows only below it


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
        _check_grid(amp.shape, self.dx, self.dy, self.k, self.z)
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


def _check_grid(shape, dx, dy, k, z):
    """Refuse a grid `BeamField` cannot hold: sides (ny, nx) that are not powers of two >= 16,
    a dx, dy or k that is not finite and positive, or a z that is not finite."""
    for n in shape:
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"grid sides must be powers of two >= 16, got {tuple(shape)}")
    if not all(math.isfinite(v) and v > 0 for v in (dx, dy, k)):
        raise ValueError(f"dx, dy, k must be finite and positive, got {dx}, {dy}, {k}")
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")


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


def _lg_factors(p, ell, w0, nx, ny, dx, dy, zeta=0.0):
    """Laguerre-Gaussian LG_{p,ell} at z = zeta z_R, z_R = k w0^2 / 2, as factors (fy, fx), u = fy @ fx.T.

    With N = 2p + |ell| and w = w0 sqrt(1 + zeta^2), u is sum_k c_k h_{N-k}(X) h_k(Y) over
    k = 0..N, X = sqrt(2) x / w and Y = sqrt(2) sign(ell) y / w, times the chirp
    exp(i zeta (X^2 + Y^2) / 2) and the Gouy phase exp(-i (N + 1) arctan zeta) (Siegman, Lasers,
    1986, ch. 16; zeta = 0 is the waist).  Here c_k = (-1)^p (-i)^k b(p + |ell|, p, k)
    (Beijersbergen, Allen, van der Veen & Woerdman, Opt. Commun. 96 (1993) 123), where
    b(n, m, k) is sqrt((N-k)! k! / (2^N n! m!)) times the coefficient of t^k in
    (1 - t)^n (1 + t)^m.  Column k of fy (ny x (N+1), complex) is c_k h_k(Y) with its chirp
    and the Gouy phase, and column k of fx (nx x (N+1)) is h_{N-k}(X) with its chirp.  The sum
    is scaled to unit grid power, sum(G_y * G_x) dx dy over the Gram matrices of the factors,
    which the chirps leave alone; the scaling carries the beam's amplitude w0 / w.
    """
    if not (p >= 0 and 0 < w0 < math.inf):  # NaN too: it would build NaN factors
        raise ValueError(f"need p >= 0 and a finite w0 > 0, got p={p} and w0={w0}")
    if not (dx > 0 and dy > 0):  # before w0 / dx; NaN too
        raise ValueError(f"need dx > 0 and dy > 0, got {dx} and {dy}")
    if w0 / dx < 8 or w0 / dy < 8:
        raise ValueError(f"waist under-resolved: need >= 8 samples across w0={w0}")
    if nx * dx < 6 * w0 or ny * dy < 6 * w0:
        raise ValueError(f"grid extent must cover >= 6 waists, got {nx * dx} x {ny * dy}")
    a = abs(ell)
    rank = 2 * p + a + 1
    w = w0 * math.hypot(1.0, zeta)
    x = (np.arange(nx) - nx // 2) * (math.sqrt(2.0) * dx / w)
    y = (np.arange(ny) - ny // 2) * (math.copysign(math.sqrt(2.0), ell) * dy / w)
    # b(n, m, k) up to the factor sqrt(N! / (2^N n! m!)) common to all k, which the scaling absorbs;
    # (-i)^k from a table, since complex powers above 100 are not exact
    c = np.array([(-1) ** p * (1, -1j, -1, 1j)[i % 4]
                  * sum((-1) ** j * math.comb(p + a, j) * math.comb(p, i - j) for j in range(i + 1))
                  / math.sqrt(math.comb(rank - 1, i)) for i in range(rank)])
    fy = _hermite_functions(y, rank) * c
    fx = _hermite_functions(x, rank)[:, ::-1]
    power = np.sum((fy.conj().T @ fy) * (fx.T @ fx)).real * dx * dy
    if not power > 0:  # the beam has spread so far past the grid that its samples there underflow
        raise ValueError(f"LG({p},{ell}) has no power on the grid at z = {zeta} z_R")
    fy *= 1.0 / math.sqrt(power)
    # the chirps, and the Gouy phase in fy: all are 1 at the waist
    fy = fy * np.exp(0.5j * zeta * y**2 - 1j * rank * math.atan(zeta))[:, None]
    return fy, fx * np.exp(0.5j * zeta * x**2)[:, None]


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


def _slices(p, ell, w0, nx, ny, dx, dy, k, dz, count):
    """Yield LG_{p,ell} at z = 0, then `count` fields each dz further along z.

    Slice s is fy @ fx.T from `_lg_factors` at zeta = s dz / z_R: the beam on the open
    plane, sampled on the grid.  Before slice 0, the aliasing check runs once, on the 1-d
    spectra of the waist factors: the beam's spectrum keeps its modulus along z, so a waist
    that is resolved on the grid stays resolved, and a beam wider than the grid is cut off
    at its edge, never wrapped round.
    """
    waist = _lg_factors(p, ell, w0, nx, ny, dx, dy)
    _warn_if_aliased(_factor_energy_fraction_outer(*(np.fft.fft(f, axis=0) for f in waist)))
    for s in range(count + 1):
        # zeta = 2 s dz / (k w0^2), divided in steps so that a w0^2 below the floats cannot divide by 0
        fy, fx = _lg_factors(p, ell, w0, nx, ny, dx, dy, 2.0 * s * dz / k / w0 / w0) if s else waist
        yield BeamField(fy @ fx.T, dx, dy, k, s * dz)


def propagate(field: BeamField, dz) -> BeamField:
    """Free-space propagation of any field by dz in its periodic box: one 2-d transform, the
    aliasing check on its spectrum, the exact spectral factor exp(-i kappa^2 dz / 2k) as the
    outer product of its y and x factors on the numpy.fft wavenumbers kappa, and one
    inverse transform."""
    spec = np.fft.fft2(field.amplitude)
    _warn_if_aliased(_spectral_energy_fraction_outer(spec))
    py, px = (np.exp(1j * (-dz / (2.0 * field.k)) * (2.0 * np.pi * np.fft.fftfreq(n, d)) ** 2)
              for n, d in ((field.ny, field.dy), (field.nx, field.dx)))
    spec *= py[:, None] * px
    return replace(field, amplitude=np.fft.ifft2(spec), z=field.z + dz)


def _circulation(u, idx, nx):
    """Summed phase steps around the plaquettes whose top-left corners are at the
    flat indices idx: each edge, along +x or +y, is the angle of conj(u_a) u_b.
    u(i) is the peak-normalised field at the flat indices i, formed only there."""
    u00, u01, u10, u11 = u(idx), u(idx + 1), u(idx + nx), u(idx + nx + 1)
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
    overflows, and none underflows in modulus except next to a dead pixel.
    u is formed only at the corners the edge rule reads, never on the whole
    grid.  A field whose peak is subnormal, where 1/peak overflows, is first
    scaled by the exact power of two 2**600.
    A plaquette's winding is the circulation of its four edges over 2 pi, so the two
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
    all Im u < -tiny (tiny the smallest normal float; the screen reads the
    parts of amp times 1/peak, which numpy's division by a real scalar also
    computes, so they are the parts of u) lies in one open
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
    if peak < _TINY:
        # 1/peak overflows below 2**-1024; the exact power of two moves the field into normal range
        amp = amp * 2.0**600
        mag = np.abs(amp)
        peak = mag.max()
    ny, nx = amp.shape
    dead_level, faint_level = 1e-10 * peak, 1e-6 * peak
    dead = mag < dead_level
    # plaquettes off the margin: each part of u is 1 above tiny, 2 below -tiny and 0
    # otherwise, one byte per part, and corners that share a set bit share a half-plane.
    # numpy divides a complex array by a real scalar as (re + im * 0, im - re * 0) * (1 / peak),
    # so these products are the parts of amp / peak, up to the sign of a zero, which fails both tests
    m = max(margin, 0)
    part = amp[m:ny - m, m:nx - m].view(float) * (1.0 / peak)
    side = (part > _TINY).view(np.uint16) | ((part < -_TINY).view(np.uint16) << 1)
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
    mag, dead, amp = mag.ravel(), dead.ravel(), amp.ravel()

    def u(i):
        return amp[i] / peak

    # plaquettes whose whole neighbourhood is near the noise floor carry no signal
    level = mag[np.stack([idx, idx + 1, idx + nx, idx + nx + 1])]
    idx = idx[(level >= faint_level).any(axis=0)]
    # a dead pixel with no dead neighbour: its charge is the circulation of its four
    # plaquettes, unless all are faint
    ring = np.array([-nx - 1, -nx, -nx + 1, -1, 1, nx - 1, nx, nx + 1])
    cores = cores[~dead[cores[:, None] + ring].any(axis=1)]
    # one pass of the edge rule: the candidates' windings, then each core's four plaquettes
    circ = _circulation(u, np.concatenate([idx, cores - nx - 1, cores - nx, cores - 1, cores]), nx)
    winding = np.rint(circ[:idx.size] / (2.0 * np.pi)).astype(int)
    q0, q1, q2, q3 = circ[idx.size:].reshape(4, -1)
    idx, winding = idx[winding != 0], winding[winding != 0]
    charge = np.rint((q0 + q1 + q2 + q3) / (2.0 * np.pi)).astype(int)
    charge[(mag[cores[:, None] + ring] < faint_level).all(axis=1)] = 0
    x = field.x()
    y = field.y()
    out = [((float(x[c % nx]), float(y[c // nx])), q)
           for c, q in zip(cores.tolist(), charge.tolist()) if q]
    if not idx.size:
        return out
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
    header = _MAGIC + _HEADER.pack(field.nx, field.ny, field.dx, field.dy, field.k, field.z)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.amplitude, dtype="<c16").tobytes())


def load_field(path) -> BeamField:
    """Read a field written by `save_field`.  The header's sides and scalars, and the file
    length they imply, are checked before the payload is read; ValueError names the fault."""
    size = len(_MAGIC) + _HEADER.size
    with open(path, "rb") as fh:
        head = fh.read(size)
        if head[:len(_MAGIC)] != _MAGIC:
            raise ValueError(f"bad magic {head[:len(_MAGIC)]!r}")
        if len(head) < size:
            raise ValueError(f"truncated header: {len(head)} of {size} bytes")
        nx, ny, dx, dy, k, z = _HEADER.unpack_from(head, len(_MAGIC))
        _check_grid((ny, nx), dx, dy, k, z)
        expected, found = size + 16 * nx * ny, os.fstat(fh.fileno()).st_size
        if found != expected:
            raise ValueError(f"a {ny} x {nx} field file is {expected} bytes, found {found}")
        data = np.frombuffer(fh.read(16 * nx * ny), dtype="<c16").reshape(ny, nx)
    return BeamField(data.astype(complex), dx, dy, k, z)
