"""Paraxial beam propagation, Laguerre-Gaussian vortex modes, vortex detection.

Fields live on uniform power-of-two grids; free-space propagation applies the
exact spectral phase exp(-i (kx^2+ky^2) dz / 2k) to the numpy.fft spectrum, so
the split-step structure carries no splitting error and conserves energy to
rounding.  The phase has unit modulus, so |spectrum| never changes along z: a
run of slices takes the forward transform, the aliasing check and the phase
factor once, and then costs one multiply and one inverse transform per slice.
Both 2-d factors that are not transforms are built from 1-d factors: the
Fresnel factor is exp(-i ky^2 dz/2k) exp(-i kx^2 dz/2k) (Goodman, Introduction
to Fourier Optics, sec. 4.2) and the Gaussian of an LG mode is
exp(-y^2/w0^2) exp(-x^2/w0^2), each an outer product of two grid axes, so no
2-d exp runs outside the FFT.
`ladder_apply` applies the Landau-level lowering and raising operators to a
field by centered differences.
"""

import math
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .orthopoly import LAGUERRE, PolynomialSpec, _eval_all, recurrence

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


def _laguerre(p, alpha, x):
    """The generalized Laguerre polynomial L_p^alpha(x) = (-1)^p/p! times the monic one of orthopoly."""
    if p == 0:
        return 1.0
    value, e = _eval_all(recurrence(PolynomialSpec(LAGUERRE, p, alpha=alpha)), x, rows=1)
    return np.ldexp(value, e) * ((-1) ** p / math.factorial(p))


def lg_mode(p, ell, w0, nx, ny, dx, dy, k) -> BeamField:
    """Laguerre-Gaussian LG_{p,ell} at the waist plane z = 0, unit grid norm.

    It is the polynomial-Gaussian beam w^|ell| L_p^|ell|(|w|^2) exp(-|w|^2/2)
    with w = sqrt(2) (x + i sign(ell) y) / w0 and sign(0) = +1 (Indebetouw,
    J. Mod. Opt. 40 (1993) 73): its core of charge ell is the zero of w^|ell| on
    the axis.
    """
    if p < 0 or w0 <= 0:
        raise ValueError("need p >= 0 and w0 > 0")
    if not (dx > 0 and dy > 0):  # before w0 / dx; NaN too
        raise ValueError(f"need dx > 0 and dy > 0, got {dx} and {dy}")
    if w0 / dx < 8 or w0 / dy < 8:
        raise ValueError(f"waist under-resolved: need >= 8 samples across w0={w0}")
    if nx * dx < 6 * w0 or ny * dy < 6 * w0:
        raise ValueError(f"grid extent must cover >= 6 waists, got {nx * dx} x {ny * dy}")
    x = (np.arange(nx) - nx // 2) * (math.sqrt(2.0) * dx / w0)
    y = (np.arange(ny) - ny // 2) * (math.copysign(math.sqrt(2.0), ell) * dy / w0)
    u = np.exp(-0.5 * y**2)[:, None] * np.exp(-0.5 * x**2)  # exp(-|w|^2/2), separable
    if p > 0:
        u *= _laguerre(p, abs(ell), x**2 + y[:, None] ** 2)
    u = u.astype(complex)
    if ell:
        w = x + 1j * y[:, None]
        for _ in range(abs(ell)):
            u *= w
    u *= 1.0 / math.sqrt(np.vdot(u, u).real * dx * dy)  # a real scale, not a complex division
    return BeamField(u, dx, dy, k)


def _spectral_energy_fraction_outer(spec):
    """Share of |spec|^2 above 3/4 of the largest frequency on either axis: the total minus
    the inner rectangle, summed as inner rows @ |spec|^2 @ inner columns."""
    power = np.abs(spec)
    power *= power
    total = power.sum()
    if total == 0.0:
        return 0.0
    fy, fx = (np.abs(np.fft.fftfreq(n)) for n in spec.shape)
    inner = (fy <= 0.75 * fy.max()).astype(float) @ power @ (fx <= 0.75 * fx.max()).astype(float)
    return float((total - inner) / total)


def _slices(field: BeamField, dz, count):
    """Yield `field` itself, then `count` fields each dz further along z.

    One forward transform serves every slice: slice s is ifft2(spec * phase**s),
    with the running product kept in place.  The phase is the outer product of
    its 1-d ky and kx factors.  The transform and the aliasing check run only
    when the first propagated slice is asked for.
    """
    yield field
    spec = np.fft.fft2(field.amplitude)
    frac = _spectral_energy_fraction_outer(spec)
    if frac > 0.01:
        warnings.warn(
            f"{100 * frac:.2f}% of energy in outer quarter of spectrum", AliasingWarning
        )
    c = -dz / (2.0 * field.k)
    kx = 2.0 * np.pi * np.fft.fftfreq(field.nx, field.dx)
    ky = 2.0 * np.pi * np.fft.fftfreq(field.ny, field.dy)
    phase = np.exp(1j * c * ky**2)[:, None] * np.exp(1j * c * kx**2)
    z0 = field.z
    for s in range(1, count + 1):
        spec *= phase
        # rebinding field keeps no earlier slice alive here: the caller decides which it holds
        field = replace(field, amplitude=np.fft.ifft2(spec), z=z0 + s * dz)
        yield field


def propagate(field: BeamField, dz) -> BeamField:
    """Free-space propagation by dz using the exact spectral factor."""
    _, out = _slices(field, dz, 1)
    return out


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
