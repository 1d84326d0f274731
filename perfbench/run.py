"""qtop benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census|search|wide|cli \
        --seed N --seconds S --trace 0|1

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  Each metric is printed as a line
``<workload> <name> <value> <unit>``; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A record
with the run metadata goes to .perfbench_out/.

Load model: a closed loop with one client.  The timed phase runs in a
fresh worker process started with ``sys.executable``, after its own
warm-up and a ``gc.collect()``.  Set-up time is the median over several
workers that each start, import qtop, generate the inputs and warm up.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("census", "search", "wide", "cli")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60


def run_worker(args, setup_only: bool, timeout_s: float) -> tuple[float, float, str]:
    """Start one worker; return (seconds until it reported READY, its
    calibration probe in seconds, the rest of its stdout).  The worker
    is killed after ``timeout_s``."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        probe_s = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker {' '.join(cmd[2:])} failed with exit code {code}")
    return setup_s, float(probe_s), rest


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(end-to-end metrics, the same timings uncalibrated).  ``setups``
    holds pairs of set-up time and the probe taken right after it."""
    raw = result["latencies_s"]
    ops = len(raw)
    scale = calibrate.factors(result["probes_s"], calibrate.PROBES[result["probe"]][1])
    latencies = [t * f for t, f in zip(raw, scale)]
    wall = result["wall_s"] * sum(latencies) / sum(raw)
    common = {
        "ok_ops_ratio": ((ops - result["failed"]) / ops, "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }

    def timings(setup, latencies, wall):
        return {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (ops / wall, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[8], "ms"),
        }

    setup = [s * calibrate.NOMINAL_S / p for s, p in setups]
    calibrated = {**timings(setup, latencies, wall), **common}
    return calibrated, timings([s for s, _ in setups], raw, result["wall_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qtop" / "__init__.py").is_file():
        print(f"error: no qtop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, True, SETUP_TIMEOUT_S)[:2])
        setup_s, probe_s, out = run_worker(args, False, args.seconds + 120)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups.append((setup_s, probe_s))
    result = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        metrics, raw = result["layer_metrics"], {}
    else:
        metrics, raw = end_to_end(result, setups)
    record = {
        "meta": result["meta"],
        "samples": {"ops": result["ops"], "setup": len(setups)},
        "setup_s_and_probe_s": setups,
        "probe_median_ms": 1e3 * statistics.median(result.get("probes_s") or [probe_s]),
        "failures": result["failures"],
        "metrics": metrics,
    }
    if args.trace:
        record["samples"]["import_spawns"] = result["import_samples"]
        record["spans_file"] = result["spans_file"]
    else:
        record["uncalibrated_metrics"] = raw
        record["latencies_s"] = result["latencies_s"]
        record["probes_s"] = result["probes_s"]
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    for metric, (value, unit) in metrics.items():
        wall = f"  (uncalibrated {raw[metric][0]:.6g})" if metric in raw else ""
        print(f"{args.workload} {metric} {value:.6g} {unit}{wall}")
    print("meta " + json.dumps({**record["meta"], "samples": record["samples"]}))
    for failure in result["failures"]:
        print("failed " + json.dumps(failure))
    print(
        json.dumps(
            {
                "correct": result["unexpected_failures"] == 0,
                "attempted": result["ops"],
                "failed": result["failed"],
                "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
