"""Closed-loop, single-process benchmark of dickeprep with per-op output checks.

    python3 bench/run.py --workload {reproduce,prepare,search} --seed N \
        --seconds S --trace {0,1}

One client runs the seeded op list of the workload in whole cycles, the next
op starting when the previous one returns: as many cycles as take S seconds
of op time at the nominal speed, and at least 4.  A short fixed reference
task runs before every op, and every time is scaled to the speed at which that
task takes REF_NOMINAL_S (see README.md, "Scaled times").  An op's latency is
the fastest of its scaled runs; every run's output is checked outside the
timed region.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of one traced cycle (see
README.md).  Result files and spans go to bench/.runs/<workload>-<seed>-trace<k>/.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy and dickeprep load

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / ".runs"
MIN_CYCLES = 4  # runs per op at least (twice per core on 2 cores); latency is the fastest
SETUP_PROBES = 4  # extra set-ups in fresh interpreters; setup_s is the median of 1 + 4
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REF_NOMINAL_S = 0.0016  # scaled times are seconds at the speed where reference_task takes this
SETUP_REF_RUNS = 25  # reference runs right after each set-up, to scale it

for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")  # one client, one thread: steadier timings


def _import_program():
    """Import dickeprep from this checkout's src/ and the benchmark modules."""
    if not (SRC / "dickeprep" / "__init__.py").is_file():
        raise SystemExit(f"error: no dickeprep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import dickeprep

    if Path(dickeprep.__file__).resolve().parent != (SRC / "dickeprep").resolve():
        raise SystemExit(f"error: imported dickeprep from {dickeprep.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# machine speed

def reference_task() -> int:
    """A fixed few milliseconds of the kinds of work the program does: exact
    binomials, an interpreted float loop and small numpy array passes.  It
    touches no dickeprep code, so a change to the program does not move it."""
    import numpy as np

    s = 0
    for n in range(300, 316):
        for k in range(0, n, 9):
            s += math.comb(n, k) % 97
    x = 0.0
    for i in range(6000):
        x += i * 0.5
    a = np.arange(1024, dtype=float)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return s + int(x) + int(a[-1])


def time_reference() -> float:
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


def speed_scale(ref_times: list[float]) -> float:
    """Factor that turns seconds measured alongside `ref_times` into seconds at
    the nominal speed: REF_NOMINAL_S over their first quartile."""
    return REF_NOMINAL_S / statistics.quantiles(ref_times, n=4)[0]


# ---------------------------------------------------------------------------
# running ops

class Outcome:
    __slots__ = ("op", "latency", "problems")

    def __init__(self, op: dict, latency: float, problems: list[str]) -> None:
        self.op, self.latency, self.problems = op, latency, problems

    @property
    def ok(self) -> bool:
        return not self.problems


def run_op(op: dict, ctx, tracer=None) -> Outcome:
    import workloads

    result = error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workloads.execute(op, ctx)
        else:
            with tracer.active(op["id"]):
                result = workloads.execute(op, ctx)
    except Exception as exc:  # the op failed: counted, never fatal
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if error is not None:
        return Outcome(op, latency, [error])
    try:
        problems = workloads.check(op, result, ctx)
    except Exception as exc:  # a malformed output the checker cannot read
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return Outcome(op, latency, problems)


def setup(workload: str, seed: int, scale: str, run_dir: Path):
    """Generate the op list and warm up.

    Returns (ops, context, seconds since start, speed scale measured right
    after); the reference runs are not part of the set-up time."""
    _import_program()
    import workloads

    ops = workloads.generate_ops(workload, seed, scale)
    if run_dir.exists():
        shutil.rmtree(run_dir)
    ctx = workloads.Context(run_dir)
    for op in workloads.warmup_ops(workload):
        run_op(op, ctx)
    setup_s = time.perf_counter() - _T0
    return ops, ctx, setup_s, speed_scale([time_reference() for _ in range(SETUP_REF_RUNS)])


def probe_setup(workload: str, seed: int, scale: str, run_dir: Path,
                probes: int) -> list[tuple[float, float]]:
    """(set-up time, speed scale) of `probes` fresh interpreters doing the same set-up."""
    times = []
    for k in range(probes):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--scale", scale, "--setup-probe",
               "--run-dir", str(run_dir / f"probe{k}")]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        setup_s, factor = proc.stdout.split()[-2:]
        times.append((float(setup_s), float(factor)))
        shutil.rmtree(run_dir / f"probe{k}", ignore_errors=True)
    return times


def cycle_count(workload: str, seconds: float, min_cycles: int) -> int:
    """Cycles that take `seconds` of op time at the nominal speed, and at least `min_cycles`.

    The count depends on nothing measured, so every run of a workload, and
    the parent and a change alike, get the same number of runs per op.  Run
    until a time limit, a slow phase of the host gave 4 cycles instead of 5
    and a 5 % slower fastest run, and a faster program would get more runs."""
    import workloads

    return max(min_cycles, round(seconds / workloads.NOMINAL_CYCLE_S[workload]))


def run_cycles(ops: list[dict], ctx, count: int) -> tuple[list[list[Outcome]], list[float]]:
    """`count` whole cycles over the op list.

    Returns the outcomes of each cycle and its speed scale, from the
    reference task run before every op of the cycle.  Cycle i runs pinned to
    CPU i mod m of the m CPUs the process may use, so every op gets runs on
    more than one core."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    cycles: list[list[Outcome]] = []
    scales: list[float] = []
    try:
        while len(cycles) < count:
            if cpus:
                os.sched_setaffinity(0, {cpus[len(cycles) % len(cpus)]})
            outcomes, ref_times = [], []
            for op in ops:
                ref_times.append(time_reference())
                outcomes.append(run_op(op, ctx))
            cycles.append(outcomes)
            scales.append(speed_scale(ref_times))
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    return cycles, scales


# ---------------------------------------------------------------------------
# metrics

def best_of(cycles: list[list[Outcome]], scales: list[float]) -> tuple[list[float], list[bool]]:
    """Per op of the list: its fastest run, each run times the scale of its
    cycle, and whether every run of it passed."""
    best = [min(c[i].latency * f for c, f in zip(cycles, scales)) for i in range(len(cycles[0]))]
    ok = [all(c[i].ok for c in cycles) for i in range(len(cycles[0]))]
    return best, ok


def end_to_end(cycles: list[list[Outcome]], scales: list[float], setup_s: float) -> dict:
    """Metrics from the fastest scaled run of each op.

    The scale removes the swings of a shared host's speed, which last from
    seconds to minutes (on a 2-vCPU KVM guest, cycle times of the same ops
    moved by up to 80 %); the fastest of k runs drops what is left."""
    best, ok = best_of(cycles, scales)
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    return {
        "ops_per_s": {"value": sum(ok) / sum(best), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(best) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": deciles[8] * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
    }


def raw_timing(cycles: list[list[Outcome]], scales: list[float], setup_raw_s: list[float]) -> dict:
    """The timing figures as measured, without scaling: from the fastest runs,
    and from every run pooled; with the scale of each cycle."""
    best, ok = best_of(cycles, [1.0] * len(cycles))
    lat = [o.latency for c in cycles for o in c]
    return {
        "fastest": {
            "ops_per_s": sum(ok) / sum(best),
            "latency_p50_ms": statistics.median(best) * 1e3,
            "latency_p90_ms": statistics.quantiles(best, n=10, method="inclusive")[8] * 1e3,
            "setup_s": statistics.median(setup_raw_s),
        },
        "pooled": {
            "ops_per_s": sum(o.ok for c in cycles for o in c) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        },
        "cycle_scales": scales,
    }


def per_layer(tracer, traced: list[Outcome], untraced: list[Outcome]) -> dict:
    import tracing
    import workloads

    wall = sum(o.latency for o in traced)
    metrics = {}
    for layer, self_s in tracer.self_times().items():
        metrics[f"{layer}.calls"] = {"value": tracer.calls[layer], "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{layer}.share"] = {"value": self_s / wall, "unit": "fraction"}
    for name in tracing.COUNTER_NAMES:
        metrics[name] = {"value": tracer.counters[name], "unit": "count"}
    metrics["csvio.bytes"]["unit"] = "B"
    passes = metrics["fullsim.amplitude_passes"]["value"]
    metrics["fullsim.amplitude_bytes"] = {"value": 16 * passes, "unit": "B"}  # complex128, computed
    residual = max((workloads.norm_residual(s.amps) for s in tracer.states), default=0.0)
    metrics["symstate.norm_residual_max"] = {"value": residual, "unit": "1"}
    metrics["trace.overhead_ratio"] = {
        "value": wall / sum(o.latency for o in untraced), "unit": "ratio"}
    return metrics


def provenance(workload: str, seed: int, scale: str) -> dict:
    import numpy as np
    import workloads

    sha = None
    if (ROOT / ".git").exists():  # a bare source tree inside another repository has no sha
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "dickeprep").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "op_list_sha256": {w: workloads.digest(workloads.generate_ops(w, seed, scale))
                           for w in workloads.WORKLOADS},
    }


def failure_summary(outcomes: list[Outcome]) -> dict:
    """Failures split by the documented defect each op was expected to hit."""
    expected, unexpected, fixed = {}, [], {}
    for o in outcomes:
        tag = o.op.get("expect")
        if o.ok and tag:
            fixed[tag] = fixed.get(tag, 0) + 1
        elif not o.ok and tag:
            expected[tag] = expected.get(tag, 0) + 1
        elif not o.ok:
            unexpected.append({"op": o.op, "problems": o.problems})
    return {"expected": expected, "unexpected": unexpected, "known_defect_passed": fixed}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        run_dir: Path | None = None, probes: int = SETUP_PROBES,
        min_cycles: int = MIN_CYCLES) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    run_dir = run_dir or RUNS / f"{workload}-{seed}-trace{int(trace)}"
    ops, ctx, setup_s, setup_scale = setup(workload, seed, scale, run_dir)
    if trace:
        import tracing

        # each op runs untraced, then traced, so both see the same machine state
        tracer = tracing.Tracer()
        untraced, traced = [], []
        for op in ops:
            untraced.append(run_op(op, ctx))
            tracer.install()
            try:
                traced.append(run_op(op, ctx, tracer))
            finally:
                tracer.uninstall()
        metrics = per_layer(tracer, traced, untraced)
        tracer.write_spans(run_dir / "spans.jsonl")
        cycles = [traced]
        raw = None
    else:
        cycles, scales = run_cycles(ops, ctx, cycle_count(workload, seconds, min_cycles))
        setups = [(setup_s, setup_scale)] + probe_setup(workload, seed, scale, run_dir, probes)
        metrics = end_to_end(cycles, scales, statistics.median(s * f for s, f in setups))
        raw = raw_timing(cycles, scales, [s for s, _ in setups])
    outcomes = [o for c in cycles for o in c]
    failures = failure_summary(outcomes)
    attempted, failed = len(outcomes), sum(not o.ok for o in outcomes)
    report = {
        "provenance": provenance(workload, seed, scale),
        "cycles": len(cycles),
        "ops_per_cycle": len(ops),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "metrics": metrics,
        "raw_timing": raw,
    }
    (run_dir / "result.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    return {
        "correct": not failures["unexpected"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("reproduce", "prepare", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--run-dir", type=Path, default=None)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        run_dir = args.run_dir or RUNS / f"{args.workload}-{args.seed}-probe"
        *_, setup_s, factor = setup(args.workload, args.seed, args.scale, run_dir)
        print(repr(setup_s), repr(factor))
        return 0

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, args.run_dir)
    report = result.pop("report")
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"cycles {report['cycles']} x {report['ops_per_cycle']} ops")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']!r} {m['unit']}")
    print(f"  {'error_rate':32s} {report['error_rate']!r} ({result['failed']}/{result['attempted']})")
    if report["raw_timing"]:
        print(f"  unscaled {json.dumps(report['raw_timing']['fastest'])}")
    failures = report["failures"]
    print(f"  expected failures {failures['expected']}  known-defect ops that passed "
          f"{failures['known_defect_passed']}  unexpected {len(failures['unexpected'])}")
    for item in failures["unexpected"][:5]:
        print(f"    unexpected: {json.dumps(item, default=str)}")
    print(f"  provenance {json.dumps(report['provenance'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
