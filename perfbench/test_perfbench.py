"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qtop import core, enumeration  # noqa: E402

END_TO_END = {"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "ok_ops_ratio", "peak_rss_mb"}


def _workload(name, tmp_path, seed=7):
    return workloads.WORKLOADS[name](random.Random(seed), tmp_path)


def _phase(workload, monkeypatch, ops):
    monkeypatch.setattr(worker, "MIN_OPS", ops)
    return worker.timed_phase(workload, 0.0)


def _metrics(result):
    return run.end_to_end(result, [(1.0, 1.0)])[0]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_reference_enumeration_matches_library():
    for n in range(5):
        ground = core.make_ground_set([f"p{i}" for i in range(n)])
        got = [t.masks for t in enumeration.enumerate_topologies(ground)]
        assert got == ref.all_topologies(n)
        assert len(got) == ref.A000798[n]


@pytest.mark.parametrize("name", ["census", "search", "wide", "cli"])
def test_smoke_every_op_checks_out(name, tmp_path, monkeypatch):
    workload = _workload(name, tmp_path)
    result = _phase(workload, monkeypatch, len(workload.pool))
    assert result["ops"] == len(workload.pool)
    assert result["unexpected_failures"] == 0, result["failures"]
    defects = {op.defect for op in workload.pool if op.defect}
    assert {f["defect"] for f in result["failures"]} == defects
    metrics = _metrics(result)
    assert set(metrics) == END_TO_END
    expected_ok = 1 - len(defects) / len(workload.pool)
    assert metrics["ok_ops_ratio"][0] == pytest.approx(expected_ok)


CORRUPT = {
    "census": lambda e: dict(e, self_dual_count=e["self_dual_count"] + 1),
    "search": lambda bit: bit << 1,  # another point's bit
    "wide": lambda e: e[:3] + (e[3] + " ",) if len(e) == 4 else ("rejected", set(), 0),
    "cli": lambda e: ("unexpected\n",) + e[1:],
}


@pytest.mark.parametrize("name", ["census", "search", "wide", "cli"])
def test_corrupted_expectation_lowers_ok_ratio(name, tmp_path, monkeypatch):
    workload = _workload(name, tmp_path)
    target = next(op for op in workload.pool if op.defect is None)
    target.expect = CORRUPT[name](target.expect)
    result = _phase(workload, monkeypatch, len(workload.pool))
    assert result["unexpected_failures"] == 1
    defects = sum(1 for op in workload.pool if op.defect)
    ok = _metrics(result)["ok_ops_ratio"][0]
    assert ok == pytest.approx(1 - (defects + 1) / len(workload.pool))


def test_cli_crash_is_a_failure(tmp_path):
    """An uncaught exception exits 1 with empty stdout, as a domain
    failure does; its traceback on stderr must still fail the op."""
    workload = _workload("cli", tmp_path)
    crash = [sys.executable, "-c", "raise ValueError('boom')"]
    ops = [op for op in workload.pool if 1 in op.expect[1] and op.expect[0] == ""]
    assert len(ops) == 4
    for op in ops:
        out = workload.run(op, argv_prefix=crash)
        assert out[:2] == (1, "") and "Traceback" in out[2]
        assert not workload.check(op, out)


def test_drop_a_join():
    rng = random.Random(0)
    assert workloads.drop_a_join(rng, {0, 1, 3, 7}, 7) is None  # a chain
    assert workloads.drop_a_join(rng, {0, 1, 2, 3}, 3) is None  # 1 | 2 is the full set
    assert workloads.drop_a_join(rng, {0, 1, 2, 3, 7}, 7) == {0, 1, 2, 7}


def test_inputs_follow_the_seed(tmp_path):
    pools = []
    for seed in (3, 3, 4):
        workdir = tmp_path / str(len(pools))
        workdir.mkdir()
        pools.append([op.args for op in _workload("wide", workdir, seed).pool])
    assert pools[0] == pools[1] != pools[2]


def test_run_prints_contract_line():
    proc = _run(ROOT, "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= worker.MIN_OPS
    assert set(result["metrics"]) == END_TO_END


def test_traced_run_reports_layers():
    proc = _run(ROOT, "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    self_ms = {k: v["value"] for k, v in metrics.items() if k.endswith(".self_ms")}
    assert max(self_ms, key=self_ms.get) == "kernel.self_ms"
    assert metrics["kernel.topology_masks.masks_out"]["value"] == ref.A000798[5]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}


def test_run_without_sources_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
