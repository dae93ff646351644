"""Outside-in tracer: wraps vortexkit's public functions from the benchmark side.

Nothing under src/ is edited.  Each target is named by module and attribute;
the wrapper replaces the original in every vortexkit module that binds it
(so `from .vortex import integrate` in cli.py is traced too) and is removed
again by `uninstall`.  A target whose module or attribute no longer exists is
recorded as absent instead of raising, so the tracer survives refactors that
delete or rename functions.

Spans are kept in memory as (id, parent_id, name, op, start_ns, end_ns, attrs)
and written out once, at the end of a run.
"""

import functools
import gzip
import importlib
import json
import os
import sys
import time

import numpy as np


def _rhs_attrs(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return {"n": int(np.size(cfg.z))}


def _grid_attrs(args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs["a"])
    return {"grid": int(a.shape[-1]), "points": int(a.size)}


def _field_attrs(args, kwargs, result):
    amp = (args[0] if args else kwargs["field"]).amplitude
    mag = np.abs(amp)
    return {"grid": int(amp.shape[-1]), "points": int(amp.size),
            "dead": int(np.count_nonzero(mag < 1e-10 * mag.max()))}


def _zeros_attrs(args, kwargs, result):
    return {"nonfinite": int(np.count_nonzero(~np.isfinite(result)))}


def _save_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


# (span name, module, attribute, attrs hook).  "*.w" means the `w` method of
# every class in the module that defines one.
TARGETS = (
    ("cli.main", "vortexkit.cli", "main", None),
    ("vortex.rhs", "vortexkit.vortex", "rhs", _rhs_attrs),
    ("vortex.conserved", "vortexkit.vortex", "conserved", None),
    ("vortex.config_ctor", "vortexkit.vortex", "VortexConfiguration.__init__", None),
    ("vortex.integrate", "vortexkit.vortex", "integrate", None),
    ("vortex.to_csv", "vortexkit.vortex", "Trajectory.to_csv", None),
    ("backgrounds.w", "vortexkit.backgrounds", "*.w", None),
    ("stieltjes.solve", "vortexkit.stieltjes", "solve", None),
    ("stieltjes.jacobian", "vortexkit.stieltjes", "jacobian", None),
    ("stieltjes.residual", "vortexkit.stieltjes", "residual", None),
    ("stieltjes.energy", "vortexkit.stieltjes", "energy", None),
    ("stieltjes.certify", "vortexkit.stieltjes", "certify", None),
    ("orthopoly.zeros", "vortexkit.orthopoly", "zeros", _zeros_attrs),
    ("orthopoly.eigensolve", "vortexkit.orthopoly", "eigh_tridiagonal", None),
    ("orthopoly.ode_residual_relative", "vortexkit.orthopoly", "ode_residual_relative", None),
    ("landau.solve_planar_equilibrium", "vortexkit.landau", "solve_planar_equilibrium", None),
    ("landau.residual", "vortexkit.landau", "laughlin_stationarity_residual", None),
    ("paraxial.find_vortices", "vortexkit.paraxial", "find_vortices", _field_attrs),
    ("paraxial.propagate", "vortexkit.paraxial", "propagate", None),
    ("paraxial.lg_mode", "vortexkit.paraxial", "lg_mode", None),
    ("paraxial.save_field", "vortexkit.paraxial", "save_field", _save_attrs),
    ("fourier.fft2", "vortexkit.fourier", "fft2", _grid_attrs),
    ("fourier.ifft2", "vortexkit.fourier", "ifft2", _grid_attrs),
)
SPAN_NAMES = {target[0] for target in TARGETS}


def _bindings(modname, attr):
    """(owner, name, original) for every place the target is bound; [] if it is gone.

    A method is bound on its class.  A function is bound in its own module and
    in every other vortexkit module that imported it by name.
    """
    try:
        module = importlib.import_module(modname)
    except ImportError:
        return []
    owner_name, _, fn_name = attr.rpartition(".")
    if owner_name:
        if owner_name == "*":
            owners = [c for c in vars(module).values()
                      if isinstance(c, type) and c.__module__ == modname]
        else:
            owners = [getattr(module, owner_name, None)]
        return [(c, fn_name, vars(c)[fn_name]) for c in owners
                if c is not None and fn_name in vars(c)]
    original = getattr(module, fn_name, None)
    if not callable(original):
        return []
    return [(mod, binding, original)
            for mod in list(sys.modules.values())
            if getattr(mod, "__name__", "").split(".")[0] == "vortexkit"
            for binding, value in list(vars(mod).items()) if value is original]


class Tracer:
    """Records nested spans around the wrapped functions while installed."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self.op = None
        self._stack = []
        self._next_id = 1
        self._patches = []

    def _wrap(self, name, fn, attrs_hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else 0
            tracer._stack.append(sid)
            result, returned = None, False
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = time.perf_counter_ns()
                tracer._stack.pop()
                attrs = attrs_hook(args, kwargs, result) if attrs_hook and returned else None
                tracer.spans.append((sid, parent, name, tracer.op, t0, t1, attrs))

        return wrapper

    def install(self):
        """Wrap every target that exists; record the others as absent."""
        for name, modname, attr, hook in TARGETS:
            bindings = _bindings(modname, attr)
            if not bindings and name not in self.absent:  # installed once per traced pass
                self.absent.append(name)
            wrappers = {}
            for owner, binding, original in bindings:
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, hook)
                self._patches.append((owner, binding, original))
                setattr(owner, binding, wrappers[id(original)])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write(self, path, header):
        """Gzipped JSON lines: one header object, then one array per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(dict(header, absent=self.absent)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Per-layer metrics of one traced pass: name -> unit.  The end-to-end metric
# each one should move is given in bench/README.md.
LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "vortex.rhs.calls": "count",
    "vortex.rhs.s": "s",
    "vortex.rhs.us_per_call.n10": "us",
    "vortex.rhs.us_per_call.n30": "us",
    "vortex.rhs.us_per_call.n100": "us",
    "vortex.rhs.pairs": "count",
    "vortex.conserved.calls": "count",
    "vortex.conserved.s": "s",
    "vortex.config_ctor.calls": "count",
    "vortex.config_ctor.s": "s",
    "vortex.integrate.self_s": "s",
    "vortex.to_csv.s": "s",
    "backgrounds.w.calls": "count",
    "backgrounds.w.s": "s",
    "stieltjes.solve.s": "s",
    "stieltjes.solve.self_s": "s",
    "stieltjes.jacobian.calls": "count",
    "stieltjes.residual.calls": "count",
    "stieltjes.energy.calls": "count",
    "stieltjes.certify.s": "s",
    "orthopoly.zeros.calls": "count",
    "orthopoly.zeros.s": "s",
    "orthopoly.zeros.self_s": "s",
    "orthopoly.eigensolve.s": "s",
    "orthopoly.zeros.nonfinite": "count",
    "orthopoly.ode_residual_relative.calls": "count",
    "orthopoly.ode_residual_relative.s": "s",
    "landau.solve_planar_equilibrium.s": "s",
    "landau.solve_planar_equilibrium.self_s": "s",
    "landau.residual.calls": "count",
    "landau.residual.s": "s",
    "paraxial.find_vortices.s": "s",
    "paraxial.find_vortices.s.g128": "s",
    "paraxial.find_vortices.s.g256": "s",
    "paraxial.find_vortices.s.g512": "s",
    "paraxial.dead_fraction": "1",
    "paraxial.propagate.calls": "count",
    "paraxial.propagate.self_s": "s",
    "paraxial.lg_mode.s": "s",
    "paraxial.save_field.s": "s",
    "paraxial.save_field.bytes": "B",
    "fourier.fft2.calls": "count",
    "fourier.fft2.s": "s",
    "fourier.ifft2.calls": "count",
    "fourier.ifft2.s": "s",
    "fourier.fft2.s.g128": "s",
    "fourier.fft2.s.g256": "s",
    "fourier.fft2.s.g512": "s",
    "fourier.flops_computed": "flop",
    "fourier.bytes_computed": "B",
    "trace.overhead_ratio": "1",
}


def layer_metrics(spans):
    """Per-layer values of one pass from its spans (harness-level ones excluded).

    A layer's self time is its duration minus the time its child spans cover.
    Counts and times of a layer that did not run, or whose function is absent,
    are 0.
    """
    child = {}
    for sid, parent, name, op, t0, t1, attrs in spans:
        child[parent] = child.get(parent, 0.0) + (t1 - t0) * 1e-9
    calls, total, self_s = {}, {}, {}
    by_attr = {}  # (name, attr key, attr value) -> [calls, seconds]
    sums = {}  # (name, attr key) -> sum of the attribute
    for sid, parent, name, op, t0, t1, attrs in spans:
        d = (t1 - t0) * 1e-9
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + d - child.get(sid, 0.0)
        for key, value in (attrs or {}).items():
            cell = by_attr.setdefault((name, key, value), [0, 0.0])
            cell[0] += 1
            cell[1] += d
            sums[(name, key)] = sums.get((name, key), 0) + value

    def per_value(name, key, value, what):
        cell = by_attr.get((name, key, value), [0, 0.0])
        if what == "us_per_call":
            return 1e6 * cell[1] / cell[0] if cell[0] else 0.0
        return cell[1]

    rhs_pairs = sum(c[0] * v * (v - 1) for (nm, k, v), c in by_attr.items()
                    if nm == "vortex.rhs" and k == "n")
    fft_points = [(v, c[0]) for (nm, k, v), c in by_attr.items()
                  if nm in ("fourier.fft2", "fourier.ifft2") and k == "points"]
    points = sums.get(("paraxial.find_vortices", "points"), 0)
    out = {
        "cli.self_s": self_s.get("cli.main", 0.0),
        "vortex.rhs.pairs": rhs_pairs,
        "vortex.integrate.self_s": self_s.get("vortex.integrate", 0.0),
        "stieltjes.solve.self_s": self_s.get("stieltjes.solve", 0.0),
        "orthopoly.zeros.self_s": self_s.get("orthopoly.zeros", 0.0),
        "orthopoly.zeros.nonfinite": sums.get(("orthopoly.zeros", "nonfinite"), 0),
        "landau.solve_planar_equilibrium.self_s": self_s.get("landau.solve_planar_equilibrium", 0.0),
        "paraxial.dead_fraction": sums.get(("paraxial.find_vortices", "dead"), 0) / points if points else 0.0,
        "paraxial.propagate.self_s": self_s.get("paraxial.propagate", 0.0),
        "paraxial.save_field.bytes": sums.get(("paraxial.save_field", "bytes"), 0),
        "fourier.flops_computed": sum(c * 5.0 * n * np.log2(n) for n, c in fft_points),
        "fourier.bytes_computed": sum(c * 32 * n for n, c in fft_points),  # read + write c16
    }
    for n in (10, 30, 100):
        out[f"vortex.rhs.us_per_call.n{n}"] = per_value("vortex.rhs", "n", n, "us_per_call")
    for g in (128, 256, 512):
        out[f"paraxial.find_vortices.s.g{g}"] = per_value("paraxial.find_vortices", "grid", g, "s")
        out[f"fourier.fft2.s.g{g}"] = per_value("fourier.fft2", "grid", g, "s")
    for metric in LAYER_UNITS:
        if metric in out:
            continue
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(base, 0)
        elif kind == "s" and base in SPAN_NAMES:
            out[metric] = total.get(base, 0.0)
    return out
