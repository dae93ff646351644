"""Independent output checks, one per CLI command.

Each check reads what the op wrote (files in its --out directory, and stdout)
and returns a list of problems; an empty list means the output is right.  The
references come from scipy.special or from numpy code written here, never
from vortexkit itself.
"""

import json
import os
import struct

import numpy as np
from scipy.special import roots_genlaguerre, roots_hermite, roots_jacobi

POSITION_RTOL = 1e-9   # positions against reference zeros, relative to the largest |zero|
INVARIANT_RTOL = 1e-9  # Q, P, I, H columns, relative to the sum of |terms|
STATIONARY_RTOL = 1e-9  # Laughlin residual, relative to the size of its terms


def _finite_rows(values, what):
    bad = ~np.isfinite(values)
    if bad.any():
        return [f"{what}: {int(bad.sum())} non-finite values"]
    return []


def check_simulate(op, out_dir, stdout):
    path = os.path.join(out_dir, "trajectory.csv")
    if not os.path.exists(path):
        return ["no trajectory.csv"]
    e = op.expect
    n = len(e["strengths"])
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    want = ["t"] + [f"{a}_{i}" for i in range(1, n + 1) for a in "xy"] + ["Q", "P", "I", "H"]
    if header != want:
        return [f"unexpected header {header[:4]}..."]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    problems = _finite_rows(data, "trajectory")
    if problems:
        return problems
    if data.shape[0] != e["samples"]:
        return [f"{data.shape[0]} rows, expected {e['samples']}"]
    if not np.allclose(data[:, 0], np.linspace(0.0, e["t_end"], e["samples"]), rtol=1e-12, atol=1e-15):
        problems.append("sample times differ from linspace(0, t_end, samples)")
    z = data[:, 1:1 + 2 * n:2] + 1j * data[:, 2:2 + 2 * n:2]
    z0 = np.array([complex(x, y) for x, y in e["positions"]])
    if not np.array_equal(z[0], z0):
        problems.append("first row differs from the initial positions")
    kappa = np.asarray(e["strengths"])
    q = z @ kappa
    ang = (np.abs(z) ** 2) @ kappa
    iu = np.triu_indices(n, 1)
    logd = np.log(np.abs(z[:, iu[0]] - z[:, iu[1]]))
    kk = (kappa[:, None] * kappa[None, :])[iu]
    h = logd @ kk
    absk, absz = np.abs(kappa), np.abs(z)
    columns = (("Q", q.real, absz @ absk), ("P", q.imag, absz @ absk),
               ("I", ang, absz**2 @ absk), ("H", h, np.abs(logd) @ np.abs(kk)))
    for k, (col, ref, scale) in enumerate(columns):
        err = (np.abs(data[:, k - 4] - ref) / (scale + 1e-300)).max()
        if err > INVARIANT_RTOL:
            problems.append(f"{col} column off by {err:.1e} (relative)")
    return problems


def _reference_zeros(e):
    n, family = e["n"], e["family"]
    if family == "hermite":
        return roots_hermite(n)[0]
    if family == "coulomb":
        return roots_genlaguerre(n, 2.0 * e["l"] + 1.0)[0]
    if family == "jacobi":
        return roots_jacobi(n, 2.0 * e["p"] - 1.0, 2.0 * e["q"] - 1.0)[0]
    # custom w(x) = b + a x: x = y / sqrt(a) - b / a with y the Hermite zeros
    return roots_hermite(n)[0] / np.sqrt(e["a"]) - e["b"] / e["a"]


def _compare_positions(x, ref):
    if x.size != ref.size:
        return [f"{x.size} positions, expected {ref.size}"]
    bad = ~np.isfinite(x)
    if bad.any():
        return [f"{int(bad.sum())} of {x.size} positions non-finite"]
    dev = np.abs(np.sort(x) - np.sort(ref)).max() / np.abs(ref).max()
    if dev > POSITION_RTOL:
        return [f"positions deviate from scipy zeros by {dev:.1e} (relative)"]
    return []


def check_zeros(op, out_dir, stdout):
    lines = stdout.strip().splitlines()[1:]
    try:
        x = np.array([float(line.split()[0]) for line in lines])
    except (ValueError, IndexError):
        return ["unparsable zeros output"]
    return _compare_positions(x, _reference_zeros(dict(op.expect, family="hermite")))


def check_equilibrium(op, out_dir, stdout):
    path = os.path.join(out_dir, "equilibrium.json")
    if not os.path.exists(path):
        return ["no equilibrium.json"]
    with open(path) as fh:
        doc = json.load(fh)
    return _compare_positions(np.array(doc["positions"], dtype=float), _reference_zeros(op.expect))


def check_laughlin(op, out_dir, stdout):
    path = os.path.join(out_dir, "laughlin.json")
    if not os.path.exists(path):
        return ["no laughlin.json"]
    with open(path) as fh:
        doc = json.load(fh)
    e = op.expect
    z = np.array([complex(x, y) for x, y in doc["positions"]])
    if z.size != e["N"]:
        return [f"{z.size} positions, expected {e['N']}"]
    if not np.all(np.isfinite(z)):
        return ["non-finite positions"]
    omega = 1.0 / (4.0 * e["l_B"] ** 2)
    d = z[:, None] - z[None, :]
    np.fill_diagonal(d, np.inf)
    if (np.abs(d) == 0.0).any():
        return ["coincident positions"]
    s = e["m_exp"] * np.sum(1.0 / d, axis=1) - omega * np.conj(z)
    scale = e["m_exp"] * np.sum(1.0 / np.abs(d), axis=1) + omega * np.abs(z)
    rel = (np.abs(s) / scale).max()
    if rel > STATIONARY_RTOL:
        return [f"stationarity residual {rel:.1e} (relative)"]
    return []


def _check_field_file(path, e, z):
    if not os.path.exists(path):
        return [f"no {os.path.basename(path)}"]
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != b"VKFIELD1":
        return [f"{os.path.basename(path)}: bad magic"]
    nx, ny, dx, dy, k, zf = struct.unpack("<qqdddd", blob[8:56])
    if (nx, ny) != (e["grid"], e["grid"]) or (dx, dy, k) != (e["dx"], e["dx"], e["k"]):
        return [f"{os.path.basename(path)}: header {nx}x{ny} dx={dx} k={k}"]
    if abs(zf - z) > 1e-12 * max(1.0, abs(z)):
        return [f"{os.path.basename(path)}: z={zf}, expected {z}"]
    amp = np.frombuffer(blob[56:], dtype="<c16")
    if amp.size != nx * ny or not np.all(np.isfinite(amp)):
        return [f"{os.path.basename(path)}: bad or non-finite data"]
    power = float(np.sum(np.abs(amp) ** 2) * dx * dy)
    if abs(power - 1.0) > 1e-9:
        return [f"{os.path.basename(path)}: power {power:.12g}, expected 1"]
    return []


def check_beam(op, out_dir, stdout):
    path = os.path.join(out_dir, "vortex_track.csv")
    if not os.path.exists(path):
        return ["no vortex_track.csv"]
    e = op.expect
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, 4)
    problems = _finite_rows(data, "vortex track")
    if problems:
        return problems
    zs = np.arange(e["slices"] + 1) * (e["z_total"] / e["slices"])
    for s, z in enumerate(zs):
        rows = data[np.abs(data[:, 0] - z) <= 1e-9 * max(1.0, z)]
        charge = int(rows[:, 3].sum())
        if charge != e["ell"]:
            problems.append(f"slice {s}: total charge {charge}, expected {e['ell']}")
        if not (np.hypot(rows[:, 1], rows[:, 2]) <= e["dx"]).any():
            problems.append(f"slice {s}: no core within one pixel of the axis")
        if e["save"]:
            problems += _check_field_file(os.path.join(out_dir, f"field_{s:03d}.bin"), e, z)
    if len(data) and (np.abs(data[:, :1] - zs[None, :]).min(axis=1) > 1e-9 * zs[-1]).any():
        problems.append("rows at a z that is no slice")
    return problems


CHECKS = {
    "simulate": check_simulate,
    "zeros": check_zeros,
    "equilibrium": check_equilibrium,
    "laughlin": check_laughlin,
    "beam": check_beam,
}
