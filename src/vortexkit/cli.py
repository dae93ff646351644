"""Command-line driver: zeros, equilibrium, simulate, laughlin, beam.

Configuration comes from a JSON file (--config) with one top-level object per
command; command-line flags override config fields.  One table, _DEFAULTS,
states each command's parameters: their names, defaults and types, for flags
and config values alike.  _COMMANDS names the parameters that are also flags.
Exit codes: 0 ok, 2 validation, 3 non-convergence, 4 collision, 5 aliasing.
"""

import argparse
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import fields, replace

import numpy as np

from . import orthopoly
from .backgrounds import (
    NoFlow, HermiteLinear, Coulomb, JacobiCharges, ConjugateLinear, CustomRational, CollisionError, default_guess,
    ring_guess, stationary,
)
from .paraxial import AliasingWarning, _slices, find_vortices, save_field
from .vortex import StepLimitError, conserved, integrate, velocity

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_COLLISION = 4
EXIT_ALIASING = 5


class ConfigError(ValueError):
    pass


_BACKGROUNDS = {"none": NoFlow, "hermite": HermiteLinear, "coulomb": Coulomb, "jacobi": JacobiCharges,
                "conjugate_linear": ConjugateLinear, "custom": CustomRational}


_DEFAULTS = {
    "zeros": {"family": "hermite", "n": 3, "alpha": 0.0, "beta": 0.0, "tol": 1e-8},
    "equilibrium": {
        "family": "hermite",
        "n": 5,
        "l": 0.0,
        "p": 0.5,
        "q": 0.5,
        "poles": [],
        "residues": [],
        "poly": [],
        "tol": 1e-12,
        "max_iter": 200,
        "output": "equilibrium.json",
    },
    "simulate": {
        "positions": [[1.0, 0.0], [-1.0, 0.0]],
        "strengths": [1.0, 1.0],
        "background": {"kind": "none"},
        "t_end": 1.0,
        "samples": 11,
        "rtol": 1e-10,
        "atol": 1e-12,
        "max_steps": 100000,
        "collision_eps": 1e-12,
        "drift_bound": 1e-8,
        "output": "trajectory.csv",
    },
    "laughlin": {
        "N": 2,
        "m_exp": 1,
        "l_B": 1.0,
        "tol": 1e-10,
        "max_iter": 200,
        "output": "laughlin.json",
    },
    "beam": {
        "p": 0,
        "ell": 1,
        "w0": 1.0,
        "grid": 128,
        "dx": 0.0625,
        "k": 100.0,
        "z_total": None,
        "slices": 10,
        "save_fields": False,
        "output": "vortex_track.csv",
    },
}


def _load_params(command, args):
    params = dict(_DEFAULTS[command])
    if args.tol is not None and "tol" not in params:
        raise ConfigError(f"{command} has no tolerance: --tol does not apply")
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        section = doc.get(command, {}) if isinstance(doc, dict) else None
        if not isinstance(section, dict):
            raise ConfigError(f"the config and its {command} section must be JSON objects")
        _refuse_unknown(command, section, params)
        params.update(section)
    for key, value in vars(args).items():
        if key in params and value is not None:
            params[key] = value
    try:  # NaN and inf, from a flag or from the config, nested or not, are not valid JSON
        json.dumps(params, allow_nan=False)
    except ValueError:
        raise ConfigError(f"{command} parameters must be finite numbers") from None
    return {key: _typed(f"{command} {key}", default, params[key]) for key, default in _DEFAULTS[command].items()}


def _refuse_unknown(what, keys, known):
    unknown = set(keys) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys for {what}: {sorted(unknown)}")


def _typed(what, default, value):
    """value as its default's type: an int takes an integral number, a float any number but a
    bool, a list or tuple a list whose elements are typed as the default's first one (as a
    float when it has none), None (beam z_total) None or a float, any other type only itself.
    A JSON integer has no bound: one outside the float range is refused like a non-finite number."""
    if default is None:
        return None if value is None else _typed(what, 0.0, value)
    kind, number = type(default), type(value) in (int, float)
    if type(value) is int and abs(value) > sys.float_info.max:
        raise ConfigError(f"{what} must lie within the float range, got an integer of {value.bit_length()} bits")
    if kind in (list, tuple) and type(value) is list:
        first = default[0] if default else 0.0
        return kind(_typed(what, first, v) for v in value)
    if kind is type(value):
        return value
    if kind is float and number:
        return float(value)
    if kind is int and number and float(value).is_integer():
        return int(value)
    raise ConfigError(f"{what} must be of type {kind.__name__}, got {value!r}")


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _background_from(kind, doc):
    """The background `kind`, built from the keys of doc that are its constructor fields, each
    typed as its default: "l": 1 reports as 1.0, the same as the flag --l 1."""
    kind = _typed("background kind", "none", kind)
    if kind not in _BACKGROUNDS:
        raise ConfigError(f"unknown background kind {kind!r}")
    cls = _BACKGROUNDS[kind]
    return cls(**{f.name: _typed(f"background {f.name}", f.default, doc[f.name])
                  for f in fields(cls) if f.init and f.name in doc})


def _write_report(args, params, result, **doc):
    """The one writer of the JSON reports: doc and the fields of the solve's record, sorted keys,
    indent 2; complex positions as [x, y] pairs, and a non-finite number of the solve as null."""
    doc.update(vars(result))
    z = result.positions
    xy = np.stack([z.real, z.imag], -1) if np.iscomplexobj(z) else z
    doc["positions"] = np.where(np.isfinite(xy), xy, None).tolist()
    doc = {key: None if isinstance(v, float) and not math.isfinite(v) else v for key, v in doc.items()}
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)  # nested values are finite config
    with open(os.path.join(args.out, params["output"]), "w") as fh:
        fh.write(text + "\n")


def _write_table(args, params, header, rows):
    """The one writer of the CSV tables: a header row, then each row's values as %.17g (the
    shortest form that reads back bit for bit), commas between them and LF line ends."""
    lines = [",".join(header)] + [",".join(["%.17g" % v for v in row]) for row in rows]
    with open(os.path.join(args.out, params["output"]), "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_zeros(args):
    params = _load_params("zeros", args)
    if params["tol"] < 0:
        raise ConfigError(f"zeros tol must be >= 0, got {params['tol']}")
    spec = orthopoly.PolynomialSpec(params["family"], params["n"], params["alpha"], params["beta"])
    xs = orthopoly.zeros(spec)
    step = orthopoly.newton_step(spec, xs)
    rows = [f"{x:24.16e}  {h:14.3e}" for x, h in zip(xs, step)]
    _say(args, "\n".join([f"{'zero':>24}  {'newton_step':>14}"] + rows))
    # the next Newton step is each zero's error to first order; fails closed: NaN is not <= tol
    certified = np.abs(step) <= params["tol"] * np.maximum(1.0, np.abs(xs))
    return EXIT_OK if np.all(certified) else EXIT_NONCONVERGENCE


def cmd_equilibrium(args):
    params = _load_params("equilibrium", args)
    bg = _background_from(params["family"], params)
    n = params["n"]
    # default_guess refuses the fields that have no equilibrium on the line (exit 2)
    result = stationary(default_guess(n, bg), -1.0, bg, params["tol"], params["max_iter"])
    spec = bg.polynomial_spec(n)
    certificate = {}
    if result.converged and spec is not None:
        certified, deviation = orthopoly.certify(result.positions, spec)
        certificate = {"certified": certified, "max_zero_deviation": deviation}
    # the constructor arguments: l, p and q, or a custom field's poles, residues and poly
    parameters = {f.name: getattr(bg, f.name) for f in fields(bg) if f.init}
    _write_report(args, params, result, family=type(bg).__name__, parameters=parameters, n=n, **certificate)
    if not result.converged:
        _say(args, f"non-convergence: residual {result.residual_inf:.3e}")
        return EXIT_NONCONVERGENCE
    certified = certificate.get("certified")
    _say(args, f"residual_inf {result.residual_inf:.3e}  certified {certified}")
    return EXIT_NONCONVERGENCE if certified is False else EXIT_OK


def _vortices(positions, strengths):
    """simulate's [x, y] positions as complex numbers, and its strengths, both finite (_load_params
    refuses what is not).  Refused: unequal counts or none, a zero strength, and two equal positions
    (np.unique: 0.0 and -0.0 coincide; points 5e-324 apart are distinct here and collide in the run)."""
    z = np.array([complex(x, y) for x, y in positions])
    kappa = np.array(strengths, dtype=float)
    if z.shape != kappa.shape or z.size < 1:
        raise ConfigError("positions and strengths must be 1-d arrays of equal length >= 1")
    if np.any(kappa == 0.0):
        raise ConfigError("strengths must be finite and nonzero")
    if np.unique(z).size < z.size:
        raise ConfigError("positions must be pairwise distinct")
    return z, kappa


def cmd_simulate(args):
    params = _load_params("simulate", args)
    if params["drift_bound"] < 0:
        raise ConfigError(f"simulate drift_bound must be >= 0, got {params['drift_bound']}")
    eps = params["collision_eps"]
    if eps < 0:  # a negative eps would turn off the collision check
        raise ConfigError(f"simulate collision_eps must be >= 0, got {eps}")
    z, kappa = _vortices(params["positions"], params["strengths"])
    doc = dict(params["background"])
    bg = _background_from(doc.pop("kind", "none"), doc)
    _refuse_unknown("background", doc, [f.name for f in fields(bg) if f.init])
    times = np.linspace(0.0, params["t_end"], params["samples"])
    traj = integrate(lambda z: velocity(z, kappa, bg, eps), lambda z: conserved(z, kappa), z, params["t_end"],
                     rtol=params["rtol"], atol=params["atol"], max_steps=params["max_steps"], sample_times=times)
    header = ["t", *(f"{c}_{i}" for i in range(1, z.size + 1) for c in "xy"), "Q", "P", "I", "H"]
    # the rows [Q+iP, I, H] as the columns Q, P, I, H: I and H are real
    invariants = traj.invariants.view(float)[:, [0, 1, 2, 4]]
    _write_table(args, params, header, np.column_stack([traj.times, traj.positions.view(float), invariants]))
    dq, di, dh = traj.drift
    _say(args, f"drift |dQ| {dq:.3e}  |dI| {di:.3e}  |dH| {dh:.3e}  "
               f"evaluations {traj.evaluations}  accepted {traj.accepted}  rejected {traj.rejected}")
    # each drift relative to its invariant's size at the start: sum |kappa||z| for Q+iP, sum |kappa||z|^2
    # for I, sum_{i<j} |kappa_i kappa_j| for H; an overflow is inf or NaN, and fails closed (NaN is not <=)
    k = np.abs(kappa)
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.abs(z)
        bound = params["drift_bound"] * np.array([k @ r, k @ r**2, k[1:] @ np.cumsum(k)[:-1]])
        return EXIT_OK if np.all(traj.drift <= bound) else EXIT_NONCONVERGENCE


def cmd_laughlin(args):
    params = _load_params("laughlin", args)
    n, m, l_b = params["N"], params["m_exp"], params["l_B"]
    if n < 1 or m < 1 or m % 2 == 0 or not l_b > 0:
        raise ConfigError(f"laughlin needs N >= 1, an odd m_exp >= 1 and l_B > 0, got {n}, {m} and {l_b}")
    # solved in units of l_B (omega = 1/4, residual_inf and tol in units of 1/l_B), then scaled by
    # l_B on the float view: a complex product would turn 0 * inf into NaN.  At a power-of-two l_B
    # the positions are the l_B = 1 positions times l_B, bit for bit.
    result = stationary(ring_guess(n, m, args.seed), m, ConjugateLinear(0.25), params["tol"], params["max_iter"])
    radii = np.abs(result.positions)
    with np.errstate(over="ignore"):
        z = (result.positions.view(float) * l_b).view(complex)
    result = replace(result, positions=z, converged=result.converged and bool(np.isfinite(z).all()))
    # a Python float product overflows to inf without a warning, and the writer writes inf as null
    mean, lo, hi = (l_b * float(r) for r in (radii.mean(), radii.min(), radii.max()))
    _write_report(args, params, result, N=n, m_exp=m, l_B=l_b, radius_mean=mean, radius_min=lo, radius_max=hi)
    _say(args, f"residual {result.residual_inf:.3e}  mean radius {mean:.12g}")
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def cmd_beam(args):
    params = _load_params("beam", args)
    n, dx, k, w0 = params["grid"], params["dx"], params["k"], params["w0"]
    z_total = params["z_total"]
    if z_total is None:
        z_total = 0.5 * k * w0**2  # one Rayleigh range
    slices = params["slices"]
    if slices < 1:
        raise ConfigError(f"slices must be >= 1, got {slices}")
    dz = z_total / slices
    # each slice is freed once the loop moves past it
    beam = _slices(params["p"], params["ell"], w0, n, n, dx, dx, k, dz, slices)
    rows = []
    charges = []
    for s, current in enumerate(beam):
        vortices = find_vortices(current)
        charges.append(sum(c for _, c in vortices))
        rows += [(current.z, vx, vy, c) for (vx, vy), c in vortices]
        if params["save_fields"]:
            save_field(current, os.path.join(args.out, f"field_{s:03d}.bin"))
    _write_table(args, params, ["z", "x", "y", "charge"], rows)
    conservedq = len(set(charges)) <= 1
    _say(args, f"slices {slices + 1}  total charge per slice {charges}")
    return EXIT_OK if conservedq else EXIT_NONCONVERGENCE


_COMMANDS = {  # function, help, and the keys that are also flags: t_end is --t-end
    "zeros": (cmd_zeros, "orthogonal polynomial zeros and their Newton steps", ("family", "n", "alpha", "beta")),
    "equilibrium": (cmd_equilibrium, "solve and certify a stationary configuration",
                    ("family", "n", "l", "p", "q")),
    "simulate": (cmd_simulate, "integrate the time-dependent vortex equations", ("t_end", "samples")),
    "laughlin": (cmd_laughlin, "planar Laughlin equilibrium", ("N", "m_exp", "l_B")),
    "beam": (cmd_beam, "propagate an LG mode and track its vortices", ("p", "ell", "w0", "grid", "slices")),
}


@functools.cache
def build_parser():
    """The one parser of the process, built on the first call.  It holds only the constants of
    _COMMANDS and _DEFAULTS, and parse_args returns a fresh Namespace, so main's calls share nothing."""
    ap = argparse.ArgumentParser(prog="vortexkit", description=__doc__)
    ap.add_argument("--config", default=None, help="JSON config path")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--tol", type=float, default=None, help="tolerance override")
    ap.add_argument("--seed", type=int, default=0, help="seed of the laughlin guess's angle jitter")
    ap.add_argument("--quiet", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (func, about, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        for key in flags:
            p.add_argument("--" + key.replace("_", "-"), type=type(_DEFAULTS[command][key]))
        p.set_defaults(func=func)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", AliasingWarning)  # propagate only warns, for library callers
            os.makedirs(args.out, exist_ok=True)
            return args.func(args)
    except AliasingWarning as exc:
        print(f"aliasing: {exc}", file=sys.stderr)
        return EXIT_ALIASING
    except CollisionError as exc:
        print(f"collision: {exc}", file=sys.stderr)
        return EXIT_COLLISION
    except (StepLimitError, np.linalg.LinAlgError) as exc:  # a failed eigensolve; ahead of its base ValueError
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:  # OSError: an --out that is a file
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
