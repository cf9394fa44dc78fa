"""Tests of the benchmark itself, on tiny configurations of each workload.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    """A few cheap operations of the named workload, all covered by the reference."""
    if name == "sweep":
        return [[op for op in workloads.build(name, 0)[0] if op[2] <= 1]]
    if name == "large":
        return [[["cli_verify", "one", 1, 1]], [["cli_verify", "zero", 1, 2]]]
    if name == "qpfaff":
        smallest = min(weight for _, weight, _ in workloads.QPFAFF_CLASSES)
        return [[op for op in workloads.build(name, 0)[0] if sum(op[1]) == smallest]]
    return [[op for op in workloads.build(name, 0)[0] if op[3] <= 2]]


def report_of(children, trace, result):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        final = run.report("tiny", children, 0, trace, result, "test")
    return final, out.getvalue()


def measure_and_report(children, trace, reference):
    return report_of(children, trace, run.measure(children, 0, trace, reference))


@pytest.fixture(scope="module")
def reference():
    return json.loads(run.REFERENCE.read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_prints_every_end_to_end_metric(name, reference):
    final, text = measure_and_report(tiny(name), False, reference)
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    for metric in BENCHMARK["end_to_end"]:
        got = final["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert f"{metric['name']}: " in text and f" {metric['unit']} median" in text
    assert set(final["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert "fail_ratio: 0 " in text


def test_traced_run_prints_every_per_layer_metric(reference):
    final, text = measure_and_report(tiny("sweep"), True, reference)
    assert final["correct"]
    assert set(final["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert final["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"{metric['name']}: " in text
    metrics = {k: v["value"] for k, v in final["metrics"].items()}
    assert metrics["mixed.verify.calls"] == len(tiny("sweep")[0])
    assert metrics["schur.rect_schur.calls"] == metrics["mixed.verify.calls"]
    assert metrics["mixed.terms"] == metrics["barquot.quotient.calls"]
    assert metrics["partitions.add_set.results"] == metrics["mixed.terms"]
    assert metrics["trace.overhead"] > 0


def test_tracer_counts_a_streaming_add_set():
    t = tracer.Tracer()
    streamed = t._wrap("partitions.add_set", lambda core, color, ell: iter(range(ell)))
    assert list(streamed(None, 1, 3)) == [0, 1, 2]
    assert t.summary()["partitions.add_set.results"] == 3


def test_sampler_samples_while_active_and_leaves_its_time_out():
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        sampler.active = True
        wall0, _ = sampler.clock()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        wall = sampler.clock()[0] - wall0
        sampler.active = False
        taken = len(sampler.samples)
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert taken >= 2 and len(sampler.samples) == taken
    assert sampler.spent_wall > 0
    assert abs(wall + sampler.spent_wall - 0.5) < 0.05
    wall_speed, cpu_speed = calibrate.speeds(sampler.samples)
    assert wall_speed > 0 and cpu_speed > 0


def test_times_are_rescaled_by_the_child_speed(monkeypatch, reference):
    op = ["verify", "one", 1, 1]
    expected = reference[workloads.op_key(op)]

    def fake(ops, deadline, *args):
        records = [[2.0, 1.5, expected["equal"], expected["digest"], None]]
        speed = {"wall": 0.5, "cpu": 2.0, "samples": 7, "setup_wall": 3.0}
        return {"setup_s": 0.1, "records": records, "peak_rss_mb": 1.0, "layers": None, "speed": speed, "error": None}

    monkeypatch.setattr(run, "spawn", fake)
    result = run.measure([[op]], 0, False, reference)
    unit = result["plain"][0]
    assert (unit["raw_wall_s"], unit["raw_cpu_s"]) == (2.0, 1.5)
    assert (unit["wall_s"], unit["cpu_s"], unit["samples"]) == (1.0, 3.0, 7)
    final, _ = report_of([[op]], False, result)
    assert final["metrics"]["setup_s"]["value"] == pytest.approx(0.3)


def test_per_layer_names_match_the_tracer():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(tracer.metric_units())


def test_wrong_reference_digest_fails_the_run(reference):
    children = tiny("fock")
    key = workloads.op_key(children[0][0])
    broken = dict(reference)
    broken[key] = {**reference[key], "digest": "0" * 64}
    final, text = measure_and_report(children, False, broken)
    assert final["failed"] > 0 and not final["correct"]
    ratio = float(text.split("fail_ratio: ", 1)[1].split()[0])
    assert ratio > 0
    assert f"failed: {key}: output digest differs" in text


def test_operations_a_child_never_ran_count_as_failed(monkeypatch, reference):
    def crashed(ops, deadline, *args):
        return {"setup_s": 0.1, "records": [], "peak_rss_mb": 0.0, "layers": None, "speed": None, "error": "child timed out"}

    monkeypatch.setattr(run, "spawn", crashed)
    children = tiny("sweep")
    result = run.measure(children, 0, False, reference)
    assert result["attempted"] == len(children[0])
    assert len(result["failures"]) == len(children[0])
    assert {reason for _, reason in result["failures"]} == {"child timed out"}


def test_missing_reference_entry_fails_the_operation():
    op = ["verify", "one", 1, 1]
    assert run.check(op, [0.1, 0.1, True, "x", None], {}) == "no reference output"


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_inputs_and_reference_covers_every_seed(reference):
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        for seed in range(20):
            for ops in workloads.build(name, seed):
                assert all(workloads.op_key(op) in reference for op in ops)
