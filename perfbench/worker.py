"""Run one workload in a fresh process: set up, warm up, time, check.

Usage: python perfbench/worker.py --workload NAME --seed N --seconds S
                                  --trace 0|1 [--setup-only]

Prints ``READY`` once inputs are generated and warm-up is done, then the
median calibration probe in seconds, then (unless --setup-only) one JSON
line with the raw results of the timed phase.
run.py starts this with ``sys.executable`` and turns the results into
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# p90 needs at least ten samples beyond it.
MIN_OPS = 100


def run_checked(workload, op, run=None):
    """(seconds, ok, error) of one op; an op that raises or fails its
    check is not ok."""
    start = perf_counter()
    try:
        out = (run or workload.run)(op)
    except Exception as e:  # a failing op is a measured outcome
        return perf_counter() - start, False, repr(e)
    seconds = perf_counter() - start
    try:
        ok = bool(workload.check(op, out))
    except Exception as e:
        return seconds, False, f"check raised {e!r}"
    return seconds, ok, None


class Failures:
    def __init__(self):
        self.by_kind: dict[str, dict] = {}

    def add(self, op, error) -> None:
        key = op.defect or repr(op.args)[:160]
        entry = self.by_kind.setdefault(
            key, {"op": repr(op.args)[:160], "defect": op.defect, "error": error, "count": 0}
        )
        entry["count"] += 1

    @property
    def total(self) -> int:
        return sum(e["count"] for e in self.by_kind.values())

    @property
    def unexpected(self) -> int:
        return sum(e["count"] for e in self.by_kind.values() if e["defect"] is None)

    def as_list(self) -> list[dict]:
        return list(self.by_kind.values())


def timed_phase(workload, seconds: float) -> dict:
    """Closed loop over whole blocks, with a calibration probe before
    every op and after the last.  Probe and check time are left out of
    the phase's wall time."""
    probe = calibrate.PROBES[workload.probe][0]
    latencies: list[float] = []
    probes: list[float] = []
    failures = Failures()
    excluded_s = 0.0
    start = perf_counter()
    while perf_counter() - start < seconds or len(latencies) < MIN_OPS:
        for op in workload.block():
            t0 = perf_counter()
            probes.append(probe())
            op_s, ok, error = run_checked(workload, op)
            excluded_s += perf_counter() - t0 - op_s
            latencies.append(op_s)
            if not ok:
                failures.add(op, error)
    wall = perf_counter() - start - excluded_s
    probes.append(probe())
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return {
        "ops": len(latencies),
        "failed": failures.total,
        "unexpected_failures": failures.unexpected,
        "failures": failures.as_list(),
        "wall_s": wall,
        "latencies_s": latencies,
        "probe": workload.probe,
        "probes_s": probes,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def spawn_import_s(env) -> float:
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import qtop.cli"],
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        check=True,
        timeout=120,
    )
    return perf_counter() - start


def traced_phase(workload, seconds: float, spans_out: Path) -> dict:
    """Each op runs untraced, then traced; the paired difference is the
    tracing overhead.  A child that only imports qtop.cli is timed before
    every op on ``cli`` (its command time is the paired difference) and
    once per block elsewhere."""
    import tracer
    import workloads

    spans = tracer.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    imports: list[float] = []
    failures = Failures()
    is_cli = workload.name == "cli"
    env = workloads.child_env()
    if is_cli:
        trace_file = workload.workdir / "spans.json"
        traced_env = dict(env, PERFBENCH_TRACE_OUT=str(trace_file))
        prefix = [sys.executable, str(HERE / "tracechild.py")]

        def run_traced(op):
            trace_file.unlink(missing_ok=True)
            out = workload.run(op, argv_prefix=prefix, env=traced_env)
            spans.merge(json.loads(trace_file.read_text(encoding="utf-8")))
            return out

    start = perf_counter()
    while perf_counter() - start < seconds:
        for i, op in enumerate(workload.block()):
            if is_cli or i == 0:
                imports.append(spawn_import_s(env))
            untraced.append(run_checked(workload, op)[0])
            if is_cli:
                op_s, ok, error = run_checked(workload, op, run_traced)
            else:
                spans.install()
                try:
                    op_s, ok, error = run_checked(workload, op)
                finally:
                    spans.uninstall()
            spans.end_op(op_s, ok)
            traced.append(op_s)
            if not ok:
                failures.add(op, error)
    metrics = spans.metrics()
    metrics["cli.spawn_import_ms"] = (1e3 * statistics.median(imports), "ms")
    metrics["cli.command_ms"] = (
        1e3 * statistics.fmean(u - i for u, i in zip(untraced, imports)) if is_cli else 0.0,
        "ms",
    )
    metrics["trace.untraced_op_ms"] = (1e3 * statistics.median(untraced), "ms")
    metrics["trace.traced_op_ms"] = (1e3 * statistics.median(traced), "ms")
    metrics["trace.overhead_ms"] = (
        1e3 * statistics.median(t - u for t, u in zip(traced, untraced)),
        "ms",
    )
    spans_out.write_text(json.dumps(spans.kept), encoding="utf-8")
    return {
        "ops": len(traced),
        "failed": failures.total,
        "unexpected_failures": failures.unexpected,
        "failures": failures.as_list(),
        "layer_metrics": metrics,
        "spans_file": str(spans_out.relative_to(ROOT)),
        "import_samples": len(imports),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # One CPU for the worker and every child it starts, so that the probes
    # measure the speed of the CPU the ops (and cli children) run on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})

    sys.path.insert(0, str(ROOT / "src"))
    import qtop

    if not Path(qtop.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: qtop imported from {qtop.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](random.Random(args.seed), workdir)
        # A fixed spread of the pool, so warm-up costs the same every time.
        # Outputs are checked only in the timed phase.
        pool = workload.pool
        for op in pool[:: len(pool) // workload.warm_up_ops]:
            try:
                workload.run(op)
            except Exception:
                pass
        gc.collect()
        print("READY", flush=True)
        # Machine speed right after set-up, to scale the set-up time.
        print(statistics.median(calibrate.probe() for _ in range(15)), flush=True)
        if args.setup_only:
            return 0
        # Expected outputs, built outside both set-up and the timed phase.
        for op in pool:
            op.expect
        gc.collect()
        if args.trace:
            spans_out = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            result = traced_phase(workload, args.seconds, spans_out)
        else:
            result = timed_phase(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["meta"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": qtop.KERNEL_BACKEND,
        "python": platform.python_version(),
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
