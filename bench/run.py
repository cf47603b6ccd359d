#!/usr/bin/env python3
"""Closed-loop benchmark of the `usc-relax` CLI workloads.

    python3 bench/run.py --workload gap_map --seed 1 --seconds 24 --trace 0

One client runs one CLI invocation at a time, each in a fresh interpreter
(bench/child.py), as users run `usc-relax`: every invocation pays its own
imports.  Passes of the workload repeat until the next one would overrun
--seconds (at least one pass); an untimed set-up-only child runs first as a
warm-up.  Children get USC_RELAX_JOBS=1 and their default BLAS threads.
After the passes, the correctness gate (gate.py) checks every pass's tables;
then one JSON line reports the metrics:

--trace 0: setup_s (median over children), wall_s and cpu_s (per pass: the
           sum over invocations of each one's median over passes),
           peak_rss_mb (median over passes);
--trace 1: per-layer self times and counts from traced passes, which
           alternate with untraced ones; trace.overhead_s is the difference
           of their wall times.

Lines before the last one give the sample counts, failed_frac, the gate's
findings and the provenance block.  Exits 2 without a result when the
library or its tests are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SETUP_SAMPLES = 7
CHILD_TIMEOUT = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
POOL_NOTE = (
    "USC_RELAX_JOBS=1: at 9a35f02 a 12x12 gap-scan took 12.7 / 25.1 / 11.7 s at the default pool "
    "(2 workers x 2 BLAS threads on 2 cores) against 7.2 / 7.2 / 7.4 s at one job; "
    "the pool's spread measures the scheduler, not the program"
)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
LAYER_UNITS = {"lindblad.generator_bytes": "B"}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failed operation of the program)."""


def layer_metric(layer: str) -> str:
    return f"{layer}_s" if "." in layer else f"{layer}.s"


LAYER_TIMES = tuple(layer_metric(l) for l in tracing.LAYERS)
PER_LAYER = LAYER_TIMES + tracing.COUNTS + ("trace.overhead_s",)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env["USC_RELAX_JOBS"] = "1"
    return env


def run_child(spec: dict) -> dict:
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"invocation {spec['argv'][0]} exceeded {CHILD_TIMEOUT} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(report["module"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"usc_relax imported from {report['module']}, not from {ROOT / 'src'}")
    report["setup"] = report["setup_end"] - t_spawn
    report["stderr"] = proc.stderr
    return report


def run_pass(invocations, work: Path, traced: bool) -> dict:
    t0 = time.monotonic()
    result = {"traced": traced, "rss_mb": 0.0, "setups": [], "walls": {}, "cpus": {},
              "outputs": {}, "layers": {}, "counts": {}, "absent": set(), "spans": {}, "hook_errors": 0}
    for inv in invocations:
        out = work / f"{inv.name}.csv"
        out.unlink(missing_ok=True)
        argv = list(inv.argv) + ["--output", str(out)]
        rep = run_child({"argv": argv, "trace": traced, "setup_only": False})
        text = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        result["outputs"][inv.name] = (rep["rc"], text)
        result["walls"][inv.name] = rep["wall"]
        result["cpus"][inv.name] = rep["cpu"]
        result["rss_mb"] = max(result["rss_mb"], rep["maxrss_kb"] / 1024.0)
        result["setups"].append(rep["setup"])
        if rep["rc"] != 0:
            print(f"{inv.name}: exit {rep['rc']}: {rep['stderr'].strip()[-500:]}")
        if traced:
            trace = rep["trace"]
            for layer, secs in tracing.layer_totals(trace["spans"]).items():
                result["layers"][layer] = result["layers"].get(layer, 0.0) + secs
            for key, value in trace["counts"].items():
                result["counts"][key] = result["counts"].get(key, 0) + value
            result["absent"].update(trace["absent"])
            result["hook_errors"] += trace["hook_errors"]
            result["spans"][inv.name] = trace["spans"]
    result["duration"] = time.monotonic() - t0
    return result


def measure(invocations, work: Path, seconds: float, trace: bool) -> list[dict]:
    """Passes until the next would overrun `seconds`; traced runs alternate."""
    passes = []
    t0 = time.monotonic()
    while True:
        passes.append(run_pass(invocations, work, traced=trace and len(passes) % 2 == 1))
        elapsed = time.monotonic() - t0
        if (not trace or len(passes) >= 2) and elapsed + passes[-1]["duration"] > seconds:
            return passes


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine() -> dict:
    model = next((l.split(":", 1)[1].strip() for l in _read("/proc/cpuinfo").splitlines()
                  if l.startswith("model name")), platform.processor() or "unknown")
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f).strip() for f in ("level", "type", "size"))
        caches.append(f"L{level} {kind} {size}")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
    }


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def median(values):
    return statistics.median(values) if values else float("nan")


def per_pass(passes, key: str) -> float:
    """Time of one pass: the sum over invocations of each one's median over `passes`.

    One invocation that runs slow in one pass moves this less than it moves
    the median of whole-pass sums.
    """
    return sum(median([p[key][name] for p in passes]) for name in passes[0][key])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "usc_relax" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2

    invocations = workloads.build(args.workload, args.seed)
    work = HERE / f".work-{os.getpid()}"
    work.mkdir()
    try:
        # warm-up, untimed: the first import in a fresh checkout compiles bytecode
        probe = run_child({"argv": list(invocations[0].argv), "trace": False,
                           "setup_only": True, "provenance": True})
        passes = measure(invocations, work, args.seconds, bool(args.trace))
        setups = [s for p in passes for s in p["setups"]]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_child({"argv": list(invocations[0].argv), "trace": False,
                                     "setup_only": True})["setup"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # correctness gate, outside every timed region
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import gate

    checker = gate.Gate(invocations, args.seed)
    attempted, failures = 0, {}
    for i, p in enumerate(passes):
        n, bad = checker.check(p["outputs"])
        attempted += n
        failures.update({f"pass {i}: {k}": v for k, v in bad.items()})

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    samples = {
        "setup_s": len(setups), "wall_s": len(plain), "cpu_s": len(plain), "peak_rss_mb": len(plain),
    }
    values = {
        "setup_s": median(setups),
        "wall_s": per_pass(plain, "walls"),
        "cpu_s": per_pass(plain, "cpus"),
        "peak_rss_mb": median([p["rss_mb"] for p in plain]),
    }
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} "
          f"({len(traced)} traced)  invocations/pass {len(invocations)}")
    print(f"{'metric':<28}{'value':>16}  {'unit':<6}samples")
    for name, unit in END_TO_END:
        print(f"{name:<28}{values[name]:>16.6g}  {unit:<6}{samples[name]}")
    print("wall_s by invocation: " + ", ".join(
        f"{inv.name} {median([p['walls'][inv.name] for p in plain]):.4g}" for inv in invocations))
    failed_frac = len(failures) / attempted
    print(f"{'failed_frac':<28}{failed_frac:>16.6g}  {'ratio':<6}{attempted} ops")
    for where, why in list(failures.items())[:20]:
        print(f"gate: {where}: {why}")

    if args.trace:
        layer_values = {}
        for layer in tracing.LAYERS:
            layer_values[layer_metric(layer)] = median([p["layers"].get(layer, 0.0) for p in traced])
        for key in tracing.COUNTS:
            layer_values[key] = median([p["counts"].get(key, 0) for p in traced])
        layer_values["trace.overhead_s"] = per_pass(traced, "walls") - values["wall_s"]
        total = sum(layer_values[name] for name in LAYER_TIMES)
        print(f"{'layer metric':<28}{'value':>16}  share of traced self time")
        for name in PER_LAYER:
            share = f"{layer_values[name] / total:7.1%}" if name in LAYER_TIMES and total else ""
            print(f"{name:<28}{layer_values[name]:>16.6g}  {share}")
        absent = sorted(set().union(*(p["absent"] for p in traced)))
        if absent:
            print(f"absent functions: {', '.join(absent)}")
        hook_errors = sum(p["hook_errors"] for p in traced)
        if hook_errors:
            print(f"counts not taken (changed return types): {hook_errors}")
        trace_dir = HERE / "traces"
        trace_dir.mkdir(exist_ok=True)
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["id", "parent", "layer", "start", "end"],
             "passes": [p["spans"] for p in traced]}))
        metrics = {name: {"value": layer_values[name], "unit": LAYER_UNITS.get(
            name, "s" if name in LAYER_TIMES or name == "trace.overhead_s" else "count")}
            for name in PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    provenance = {
        "machine": machine(),
        "versions": probe.get("versions"),
        "blas": probe.get("blas"),
        "blas_env_removed": sorted(k for k in BLAS_THREAD_VARS if k in os.environ),
        "commit": commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "jobs": POOL_NOTE,
        "argv": {inv.name: list(inv.argv) for inv in invocations},
    }
    print("provenance " + json.dumps(provenance))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
