"""vortexkit benchmark: drives `vortexkit.cli.main(argv)` in process over one workload.

    python3 bench/run.py --workload dynamics|equilibria|beam|all --seed N --seconds S --trace 0|1
    python3 bench/run.py --list-metrics

One client, closed loop: a single process runs one op at a time, with BLAS
pinned to one thread.  With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics.  Timings are taken at each op's best run in the
measuring window, which the host's speed drift does not move (see
bench/README.md).  Every op's output is checked against an independent
reference, and repeats of an op must write byte-identical output.  The last
line of stdout is one JSON object; see bench/README.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")  # relative to ROOT, which is the working directory
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 5  # every op runs at least this often, so that its best run is a quiet one
MEASURE_CAP_S = 120.0  # no run measures longer, so every run ends well within 180 s
SETUP_STARTS = 7
SETUP_CODE = ("import time; t0 = time.perf_counter(); import vortexkit.cli as cli; "
              "cli.build_parser(); print(repr(time.perf_counter() - t0))")

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "pass_ratio": "1",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def blas_threads():
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def setup_start():
    """One fresh interpreter: seconds to `import vortexkit.cli` and build the parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout)


class OpState:
    """Every execution of one op in this run, and why any of them failed."""

    def __init__(self, op, argv, out_dir):
        self.op = op
        self.argv = argv
        self.out_dir = out_dir
        self.times = []
        self.runs = 0
        self.failures = 0
        self.reasons = []
        self.first_digest = None
        self.problems_by_digest = {}

    def record(self, rc, stdout, stderr, digest, checks):
        self.runs += 1
        reasons = []
        if rc != 0:
            # the program's own message, not the warnings numpy printed on the way
            said = [line for line in stderr.splitlines()
                    if line and not line[0].isspace() and "Warning: " not in line]
            reasons.append(f"exit {rc}" + (f" ({said[-1][:120]})" if said else ""))
        if digest not in self.problems_by_digest:
            self.problems_by_digest[digest] = checks[self.op.kind](self.op, self.out_dir, stdout)
        reasons += self.problems_by_digest[digest]
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            reasons.append("output bytes differ from the op's first run")
        if reasons:
            self.failures += 1
            for reason in reasons:
                if reason not in self.reasons:
                    self.reasons.append(reason)

    def execute(self, cli, checks):
        """Run the op once; returns (seconds, bytes written to --out and stdout)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(self.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash: the command-line program would exit 1
                rc = 1
                err.write(f"{type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - t0
        stdout = out.getvalue().encode()
        h = hashlib.sha256(stdout)
        written = len(stdout)
        for name in sorted(os.listdir(self.out_dir) if self.out_dir.is_dir() else []):
            data = (self.out_dir / name).read_bytes()
            written += len(data)
            h.update(name.encode() + b"\0" + data)
        self.record(0 if rc is None else rc, stdout.decode(), err.getvalue(), h.hexdigest(), checks)
        return seconds, written


def best_times(passes):
    """Each op's fastest run over a list of passes (lists of per-op seconds)."""
    return [min(column) for column in zip(*passes)]


def run_pass(states, cli, checks, tracer=None, pass_index=0):
    """One pass over the op list; returns (per-op seconds, bytes written)."""
    times, written = [], 0
    for i, state in enumerate(states):
        if tracer is not None:
            tracer.op = (pass_index, i)
        seconds, nbytes = state.execute(cli, checks)
        state.times.append(seconds)
        times.append(seconds)
        written += nbytes
    return times, written


def prepare(workload, seed, make_ops):
    base = WORK / workload
    shutil.rmtree(base, ignore_errors=True)
    (base / "config").mkdir(parents=True)
    states = []
    for op in make_ops(seed):
        argv = ["--out", str(base / "out" / op.name)]
        if op.config is not None:
            path = base / "config" / f"{op.name}.json"
            path.write_text(json.dumps(op.config, indent=1) + "\n")
            argv = ["--config", str(path)] + argv
        states.append(OpState(op, argv + list(op.argv), base / "out" / op.name))
    return states


def run_workload(workload, seed, seconds, trace):
    os.chdir(ROOT)
    if not (Path("src") / "vortexkit" / "cli.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'vortexkit'} not found; run from a vortexkit checkout")
    sys.path.insert(0, str(ROOT / "src"))
    from checks import CHECKS as checks
    import tracer as tracing
    import workloads
    import vortexkit.cli as cli

    check_benchmark_json(tracing.LAYER_UNITS)
    if not trace:
        setup_start()  # writes the bytecode caches; not counted
    states = prepare(workload, seed, workloads.WORKLOADS[workload])
    print(f"# workload {workload}  seed {seed}  ops/pass {len(states)}  trace {trace}  "
          f"clients 1 (closed loop)  nproc {os.cpu_count()}  blas threads {blas_threads()}")

    start = time.perf_counter()
    run_pass(states, cli, checks)  # warm-up: lazy imports, caches, first-run digests
    for state in states:
        state.times.clear()
    measure_start = time.perf_counter()
    deadline = measure_start + seconds
    cap = start + MEASURE_CAP_S
    passes, setup_times = [], []
    traced_passes, layer_rows = [], []
    tracer = tracing.Tracer()
    while time.perf_counter() < cap:
        enough = time.perf_counter() >= deadline
        if trace:
            if enough and traced_passes:
                break
        elif enough and len(passes) >= MIN_PASSES:
            break
        op_times, _ = run_pass(states, cli, checks)
        passes.append(op_times)
        if not trace:
            # fresh starts spread over the run, so that they see the same
            # machine conditions as the passes
            elapsed = time.perf_counter() - measure_start
            while len(setup_times) < math.ceil(SETUP_STARTS * min(1.0, elapsed / max(seconds, 1e-9))):
                setup_times.append(setup_start())
        else:
            index = len(traced_passes)
            tracer.install()
            try:
                op_times, written = run_pass(states, cli, checks, tracer, index)
            finally:
                tracer.uninstall()
            traced_passes.append(op_times)
            row = tracing.layer_metrics([s for s in tracer.spans if s[3][0] == index])
            row["cli.bytes_written"] = written
            layer_rows.append(row)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(s.runs for s in states)
    failed = sum(s.failures for s in states)
    unexpected = [s.op.name for s in states if s.failures and s.op.name not in workloads.KNOWN_FAILURES]
    print(f"# {'op':<32} {'runs':>5} {'best_s':>10} {'median_s':>10} {'failed':>6}  reasons")
    for s in states:
        best = min(s.times) if s.times else float("nan")
        med = statistics.median(s.times) if s.times else float("nan")
        known = " [known seed failure]" if s.failures and s.op.name in workloads.KNOWN_FAILURES else ""
        print(f"  {s.op.name:<32} {s.runs:>5} {best:>10.4f} {med:>10.4f} {s.failures:>6}  "
              f"{'; '.join(s.reasons) or 'ok'}{known}")
    print(f"# attempted {attempted}  failed {failed}  fail_ratio {failed / attempted:.4f}  "
          f"unexpected failures {unexpected or 'none'}")

    if trace:
        metrics = {name: statistics.median(row[name] for row in layer_rows)
                   for name in tracing.LAYER_UNITS if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = sum(best_times(traced_passes)) / sum(best_times(passes))
        units = tracing.LAYER_UNITS
        tracer.write(WORK / f"spans-{workload}-seed{seed}.jsonl.gz",
                     {"workload": workload, "seed": seed, "passes": len(traced_passes)})
        if tracer.absent:
            print(f"# absent (function not found, reported as 0): {', '.join(tracer.absent)}")
        print(f"# {len(traced_passes)} traced passes, {len(tracer.spans)} spans")
    else:
        best = best_times(passes)
        metrics = {
            "wall_s": sum(best),
            "op_s.p50": statistics.median(best),
            "op_s.p90": statistics.quantiles(best, n=10, method="inclusive")[8],
            "pass_ratio": 1.0 - failed / attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END_UNITS
        # The same statistics over every run rather than each op's best: what
        # a user sees on this host under its current load.
        samples = [t for op_times in passes for t in op_times]
        p90 = statistics.quantiles(samples, n=10)[8]
        print(f"# {len(passes)} passes; each op's best of {len(passes)} runs gives the timings. "
              f"Over all {len(samples)} op samples: median pass {statistics.median(map(sum, passes)):.4g} s, "
              f"op p50 {statistics.median(samples):.4g} s, op p90 {p90:.4g} s "
              f"({sum(t > p90 for t in samples)} samples above it)")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    shutil.rmtree(WORK / workload, ignore_errors=True)
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def check_benchmark_json(layer_units):
    """BENCHMARK.json, when present, must name exactly the metrics this file reports."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    doc = json.loads(path.read_text())
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    ours = dict(END_TO_END_UNITS, **layer_units)
    if declared != ours:
        sys.exit(f"error: BENCHMARK.json metrics differ from bench/run.py: "
                 f"{sorted(set(declared.items()) ^ set(ours.items()))}")


def run_all(args):
    """Each workload in its own process (so peak RSS is per workload), metrics prefixed."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("dynamics", "equilibria", "beam"):
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            sys.exit(f"error: workload {workload} exited {done.returncode}")
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        result["metrics"].update({f"{workload}.{k}": v for k, v in one["metrics"].items()})
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("dynamics", "equilibria", "beam", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list-metrics", action="store_true", help="print every metric with its unit")
    args = ap.parse_args()
    if args.list_metrics:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import LAYER_UNITS

        for name, unit in list(END_TO_END_UNITS.items()) + list(LAYER_UNITS.items()):
            kind = "end_to_end (--trace 0)" if name in END_TO_END_UNITS else "per_layer (--trace 1)"
            print(f"{name:<44} {unit:<6} {kind}")
        return
    if args.workload is None:
        ap.error("--workload is required")
    # BLAS reads its thread count when numpy loads, which happens below.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
