#!/usr/bin/env python3
"""spillscale benchmark.

One workload, one process:

    python3 perfbench/run.py --workload mc-fig1 --seed 7 --seconds 40 --trace 0

runs closed-loop operations (one at a time) for --seconds, checks every
output, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json; --trace 1 runs a few untraced operations and
then two traced operations, and reports the per-layer metrics.

Other modes:

    python3 perfbench/run.py                    # every workload, a table
    python3 perfbench/run.py --smoke            # tiny sizes, self-check
    python3 perfbench/run.py --write-reference  # regenerate seed-7 outputs

The package is imported from src/ of the checkout this file sits in;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference" / "seed7.json"
# one BLAS/OpenMP thread: steadier timings on a shared 2-core machine
THREAD_VARS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import spillscale; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at tiny sizes; check the metric names "
                         "and that a perturbed output counts as failed")
    ap.add_argument("--write-reference", action="store_true",
                    help=f"rewrite {REFERENCE.relative_to(ROOT)} from this code")
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def die(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_package():
    """Import spillscale from this checkout's src/; seconds it took."""
    if not (SRC / "spillscale" / "__init__.py").is_file():
        die(f"{SRC / 'spillscale'} not found; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import spillscale
    elapsed = time.perf_counter() - t0
    if Path(spillscale.__file__).resolve().parent != SRC / "spillscale":
        die(f"imported {spillscale.__file__}, not this checkout")
    return elapsed


def import_seconds_in_child():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def environment():
    """Machine, interpreter, numpy/scipy and BLAS details of this run."""
    import platform

    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
            for k, v in deps.items() if k in ("blas", "lapack")}
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS}}


class Run:
    """Closed-loop operations of one workload, with their checks."""

    def __init__(self, workload, inputs, reference, perturb, counts_path):
        self.w, self.inputs = workload, inputs
        self.ref, self.perturb = reference, perturb
        self.counts_path = counts_path
        self.walls = []             # untraced operations that completed
        self.attempted = self.failed = 0
        self.first_results = None

    def op(self, tracer=None):
        """One operation (traced when a tracer is given) and its check."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            if tracer is None:
                out = self.w.run(self.inputs)
            else:
                out = tracer.span("bench.op", "bench", self.w.run, self.inputs)
            wall = time.perf_counter() - t0
            if self.perturb:
                out = self.w.perturb(out)
            errors = self.w.check(out, self.inputs, self.ref)
            errors += self._same_bytes(out)
            if tracer is not None:
                errors += self._traced_checks(tracer)
        except Exception:   # a failed operation is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        if tracer is None:
            self.walls.append(wall)
        if errors:
            self.failed += 1
            for e in errors[:10]:
                print(f"check failed: {e}", file=sys.stderr)
        return out

    def _same_bytes(self, out):
        if "results" not in out:
            return []
        if self.first_results is None:
            self.first_results = out["results"]
        if out["results"] != self.first_results:
            return ["results.csv bytes differ from this run's first operation"]
        return []

    def _traced_checks(self, tracer):
        errors = []
        if hasattr(self.w, "check_objectives"):
            errors += self.w.check_objectives(tracer.ow_objectives, self.ref)
        # exact counts must repeat across traced runs of one seed
        counts = dict(sorted(tracer.counts.items()))
        if self.counts_path.exists():
            before = json.loads(self.counts_path.read_text())
            errors += [f"count {k} = {counts.get(k)} in this traced run, "
                       f"{v} in an earlier one" for k, v in before.items()
                       if counts.get(k) != v]
        else:
            self.counts_path.parent.mkdir(parents=True, exist_ok=True)
            self.counts_path.write_text(json.dumps(counts))
        return errors

    def loop(self, seconds):
        """Operations until the next one would end after `seconds`."""
        t_start = time.perf_counter()
        while True:
            self.op()
            typical = statistics.median(self.walls) if self.walls else 0.0
            if time.perf_counter() - t_start + typical > seconds:
                break


def bytes_changed(a: bytes, b: bytes) -> int:
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))


def traced_op(run, args, tracing, wl):
    """Traced operations after the untraced ones; per-layer metrics.

    The first traced operation gives times and counts, the second (under
    tracemalloc) allocation peaks; both are checked like any other.
    """
    timing, memory = tracing.Tracer(), tracing.Tracer(memory=True)
    for tracer in (timing, memory):
        tracer.op = run.attempted
        with tracer.patched():
            out = run.op(tracer)
    tracing.write_spans(WORK / "trace" / f"{run.w.name}-seed{args.seed}.json",
                        timing=timing, memory=memory)
    wall = statistics.median(run.walls) if run.walls else float("nan")
    metrics = tracing.layer_metrics(timing, memory, wl.SCALE_SIZES, wall)
    base = (run.ref["results_csv"].encode() if run.ref and "results_csv" in run.ref
            else run.first_results)
    results = (out or {}).get("results")
    metrics["harness.results_bytes_changed"] = (
        bytes_changed(results, base) if results is not None else 0)
    return metrics


def run_one(args):
    os.environ.update(THREAD_VARS)      # before numpy loads
    import_s = [import_package()]
    import tracing
    import workloads as wl

    w = wl.workloads(tiny=args.tiny).get(args.workload)
    if w is None:
        die(f"unknown workload {args.workload!r}")
    import_s += [import_seconds_in_child() for _ in range(SETUP_REPEATS - 1)]

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    profile = "-tiny" if args.tiny else ""
    try:
        setup_s = []
        for imp in import_s:
            t0 = time.perf_counter()
            inputs = w.setup(work, args.seed)
            setup_s.append(imp + time.perf_counter() - t0)
        ref = None
        if inputs["seed"] == wl.DEFAULT_SEED and not args.tiny:
            with open(REFERENCE) as fh:
                ref = json.load(fh).get(w.name)
        run = Run(w, inputs, ref, args.perturb,
                  WORK / "counts" / f"{w.name}{profile}-seed{args.seed}.json")
        if args.trace:
            run.loop(args.seconds / 4)
            metrics = traced_op(run, args, tracing, wl)
        else:
            run.loop(args.seconds)
            wall = statistics.median(run.walls) if run.walls else float("nan")
            metrics = {
                "setup_s": statistics.median(setup_s),
                "wall_s": wall,
                "work_per_s": w.work(inputs) / wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                               * 1024 / 1e6}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = spec()["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        die(f"metrics not computed: {missing}")
    print("env " + json.dumps(environment(), sort_keys=True))
    if not args.trace:
        print(f"{w.name} seed={args.seed}: "
              + " ".join(f"{m['name']}={metrics[m['name']]:.6g} {m['unit']}"
                         for m in names)
              + f" error_rate={run.failed / run.attempted:.6g} ratio"
              f" ({run.failed}/{run.attempted} operations failed;"
              f" wall_s is the median of {len(run.walls)}:"
              f" {' '.join(f'{t:.3f}' for t in run.walls)})")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names}}))
    return 0


def child_run(name, seed, seconds, trace, *flags, show_stderr=True):
    """Run one workload in its own process; (summary line, result dict)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if show_stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, None
    summary = next((ln for ln in lines if ln.startswith(f"{name} ")), "")
    return summary, json.loads(lines[-1])


def run_all(args):
    """Every workload in its own process; one summary line each."""
    ok = True
    for wk in spec()["workloads"]:
        summary, result = child_run(wk["name"], args.seed, args.seconds, 0)
        ok &= bool(result and result["correct"])
        print(summary or f"{wk['name']}: benchmark run failed")
    return 0 if ok else 1


def smoke(args):
    """Tiny sizes: every metric emitted, and a perturbed output counted."""
    import math

    s = spec()
    problems = []
    for wk in s["workloads"]:
        name = wk["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, res = child_run(name, args.seed, 1, trace, "--tiny")
            if res is None:
                problems.append(f"{name} trace={trace}: run failed")
                continue
            want = {m["name"] for m in s[key]}
            if set(res["metrics"]) != want:
                problems.append(f"{name} trace={trace}: metrics "
                                f"{sorted(set(res['metrics']) ^ want)} differ")
            if not all(math.isfinite(v["value"]) for v in res["metrics"].values()):
                problems.append(f"{name} trace={trace}: a metric is not finite")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={trace}: {res['failed']} failed")
        _, res = child_run(name, args.seed, 1, 0, "--tiny", "--perturb",
                           show_stderr=False)
        if res is None or res["correct"] or res["failed"] != res["attempted"]:
            problems.append(f"{name}: a perturbed output was not counted "
                            f"as failed ({res})")
    for p in problems:
        print(f"smoke: {p}")
    print(f"smoke: {'ok' if not problems else 'FAILED'} "
          f"({len(s['workloads'])} workloads)")
    return 0 if not problems else 1


def write_reference():
    """Outputs of this code at the default seed, for the reference check."""
    import_package()
    import tracing
    import workloads as wl

    WORK.mkdir(exist_ok=True)
    ref = {}
    for name, w in wl.workloads().items():
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            inputs = w.setup(work, wl.DEFAULT_SEED)
            tracer = tracing.Tracer()
            with tracer.patched():
                out = tracer.span("bench.op", "bench", w.run, inputs)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        errors = w.check(out, inputs, None)
        if errors:
            sys.exit(f"{name}: output fails its invariants: {errors[:3]}")
        ref[name] = w.reference(out, inputs)
        if tracer.ow_objectives:
            ref[name]["ow_objective"] = {str(n): ow for n, (ow, _)
                                         in tracer.ow_objectives.items()}
        print(f"{name}: reference taken", flush=True)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload:
        return run_one(args)
    os.environ.update(THREAD_VARS)
    if args.write_reference:
        return write_reference()
    if args.smoke:
        return smoke(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
