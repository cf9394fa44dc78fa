"""Benchmark runner for schurmix: one workload, one seed, one time budget.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the repository root.  The parent process spawns one fresh child
interpreter at a time (``child.py``) with ``src`` on its path, so every child
starts with cold caches.  It first spawns set-up probes, then repeats the
workload's unit (see ``workloads.py``) until ``--seconds`` have passed, and
checks every operation against ``reference.json``.

With ``--trace 0`` the final line reports the end-to-end metrics, medians over
units: ``wall_s`` and ``cpu_s`` (time of the unit's operations, excluding
set-up), ``setup_s`` (spawn until schurmix is imported and the child is ready)
and ``peak_rss_mb`` (largest child maximum resident set).  The three times are
in reference-host seconds: each child samples its CPU's speed while it works
(``calibrate.py``) and the measured seconds are scaled by the mean speed, so
that the drift of a shared host's CPU speed cancels out.  The measured
seconds are printed above the final line.  With ``--trace 1``
each unit runs once untraced and once traced; the final line reports the
per-layer metrics of the traced units (their lower median) and
``trace.overhead``, traced over untraced rescaled wall time of the same pass.
Spans of the last traced unit are written to ``.perfbench/``.  Lines above the final JSON give quartiles, the operation
tail latency, the failure ratio and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_PROBES = 20
# A run must end well inside three minutes whatever the program does.
HARD_LIMIT_S = 150.0
# op_tail_s needs at least this many operations per unit.
TAIL_MIN_OPS = 20
TAIL_BEYOND = 10

# Speed of a child that sent no reply; its operations fail the run anyway.
NO_SPEED = {"wall": 1.0, "cpu": 1.0, "samples": 0, "setup_wall": 1.0}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(ops, deadline, trace=False, spans_path=None, header=""):
    """Run ops in a fresh child; return its set-up time, records, peak RSS and layers.

    A child that crashes or passes the deadline yields ``error`` and no records.
    """
    result = {"setup_s": None, "records": [], "peak_rss_mb": 0.0, "layers": None, "speed": None, "error": None}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
    )
    try:
        readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - start))
        line = proc.stdout.readline() if readable else b""
        result["setup_s"] = time.perf_counter() - start
        if line != b"ready\n":
            result["error"] = "child did not start"
            return result
        job = {"ops": ops, "trace": trace, "spans_path": spans_path, "header": header}
        timeout = max(1.0, deadline - time.perf_counter())
        out, err = proc.communicate(json.dumps(job).encode(), timeout=timeout)
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:]
            result["error"] = f"child exited with {proc.returncode}: {' '.join(tail)}"
            return result
        reply = json.loads(out.decode().strip().splitlines()[-1])
        result.update(
            records=reply["ops"], peak_rss_mb=reply["peak_rss_mb"], layers=reply["layers"], speed=reply["speed"]
        )
        return result
    except subprocess.TimeoutExpired:
        result["error"] = "child timed out"
        return result
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


def merge_layers(parts):
    """Sum per-child layer counters; sizes take the maximum."""
    merged = {}
    for layers in parts:
        for key, value in layers.items():
            if key.endswith(".max_size"):
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    calls = merged.get("fock.f_inf.calls", 0)
    useful = merged.pop("fock.f_inf.useful", 0)
    merged["fock.f_inf.useful_ratio"] = useful / calls if calls else 0.0
    return merged


def run_unit(children, deadline, trace=False, spans_tag=None, header=""):
    """One pass over the workload's children, one fresh interpreter each."""
    unit = {
        "wall_s": 0.0, "cpu_s": 0.0, "raw_wall_s": 0.0, "raw_cpu_s": 0.0, "samples": 0,
        "peak_rss_mb": 0.0, "setups": [], "ops": [], "layers": [],
    }
    for j, ops in enumerate(children):
        spans_path = None
        if trace and spans_tag:
            spans_path = str(SPANS_DIR / f"{spans_tag}-child{j}.tsv")
        child = spawn(ops, deadline, trace, spans_path, header)
        speed = child["speed"] or NO_SPEED
        unit["setups"].append((child["setup_s"], speed["setup_wall"]))
        unit["peak_rss_mb"] = max(unit["peak_rss_mb"], child["peak_rss_mb"])
        unit["samples"] += speed["samples"]
        records = child["records"]
        for k, op in enumerate(ops):
            record = records[k] if k < len(records) else [0.0, 0.0, None, None, child["error"] or "not run"]
            unit["ops"].append((op, record))
            unit["raw_wall_s"] += record[0]
            unit["raw_cpu_s"] += record[1]
            unit["wall_s"] += record[0] * speed["wall"]
            unit["cpu_s"] += record[1] * speed["cpu"]
        if child["layers"] is not None:
            unit["layers"].append(child["layers"])
    return unit


def check(op, record, reference):
    """Reason an operation failed, or None when its output matches the reference."""
    _, _, equal, digest, error = record
    if error:
        return error
    expected = reference.get(workloads.op_key(op))
    if expected is None:
        return "no reference output"
    if equal is False or equal != expected["equal"]:
        return f"equal is {equal}, expected {expected['equal']}"
    if digest != expected["digest"]:
        return "output digest differs from the reference"
    return None


def measure(children, seconds, trace, reference, spans_tag=None, header=""):
    """Repeat the unit for the time budget; return units, probes and failures."""
    begin = time.perf_counter()
    deadline = begin + HARD_LIMIT_S
    probes = []
    for _ in range(SETUP_PROBES):
        probe = spawn([], deadline)
        probes.append((probe["setup_s"], (probe["speed"] or NO_SPEED)["setup_wall"]))
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        plain.append(run_unit(children, deadline))
        if trace:
            traced.append(run_unit(children, deadline, True, spans_tag, header))
        now = time.perf_counter()
        if now - start >= seconds or now + (now - before) > deadline:
            break
    attempted, failures = 0, []
    for unit in plain + traced:
        for op, record in unit["ops"]:
            attempted += 1
            reason = check(op, record, reference)
            if reason:
                failures.append((workloads.op_key(op), reason))
    return {"plain": plain, "traced": traced, "probes": probes, "attempted": attempted, "failures": failures}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def op_tail(units):
    """Latency with TAIL_BEYOND operations beyond it, its percentile and the count."""
    walls = sorted(record[0] for unit in units for _, record in unit["ops"])
    value = walls[len(walls) - TAIL_BEYOND - 1]
    return value, 100.0 * (len(walls) - TAIL_BEYOND) / len(walls), len(walls)


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}, "
        f"seed {seed}, commit {commit()}"
    )


def commit():
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(name, children, seconds, trace, result, env):
    """Print the human-readable lines and return the final JSON object."""
    plain, traced = result["plain"], result["traced"]
    ops_per_unit = sum(len(ops) for ops in children)
    print(f"schurmix benchmark: workload {name}, seconds {seconds}, trace {int(trace)}")
    print(f"env: {env}")
    print(f"units: {len(plain)} untraced, {len(traced)} traced; {len(children)} children, {ops_per_unit} operations per unit")
    failed = len(result["failures"])
    attempted = result["attempted"]
    metrics = {}
    if not trace:
        setups = [s for s in result["probes"] + [s for u in plain for s in u["setups"]] if s[0] is not None]
        samples = {
            "wall_s": ([u["wall_s"] for u in plain], [u["raw_wall_s"] for u in plain]),
            "cpu_s": ([u["cpu_s"] for u in plain], [u["raw_cpu_s"] for u in plain]),
            "setup_s": ([s * speed for s, speed in setups], [s for s, _ in setups]),
            "peak_rss_mb": ([u["peak_rss_mb"] for u in plain], None),
        }
        for metric, (values, measured) in samples.items():
            unit = END_TO_END_UNITS[metric]
            median = statistics.median(values)
            q1, q3 = quartiles(values)
            line = f"{metric}: {median:.6g} {unit} median (q1 {q1:.6g}, q3 {q3:.6g}, {len(values)} samples)"
            if measured:
                line += f"; measured {statistics.median(measured):.6g} {unit} median"
            print(line)
            metrics[metric] = {"value": median, "unit": unit}
        speeds = [u["wall_s"] / u["raw_wall_s"] for u in plain if u["raw_wall_s"] > 0]
        print(
            f"host speed: {statistics.median(speeds or [0.0]):.4g} of the reference host, median over units "
            f"({sum(u['samples'] for u in plain)} samples)"
        )
        if ops_per_unit >= TAIL_MIN_OPS:
            value, pct, count = op_tail(plain)
            print(f"op_tail_s: {value:.6g} s measured at p{pct:.1f} ({TAIL_BEYOND} of {count} operations beyond it)")
        else:
            print(f"op_tail_s: not reported, {ops_per_unit} operations per unit (needs {TAIL_MIN_OPS})")
    else:
        units = tracer.metric_units()
        layers = [merge_layers(u["layers"]) for u in traced]
        overhead = [t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced) if p["wall_s"] > 0]
        for metric, unit in units.items():
            if metric == "trace.overhead":
                values = overhead or [0.0]
            else:
                values = [lay.get(metric, 0) for lay in layers]
            value = statistics.median_low(values)
            print(f"{metric}: {value:.6g} {unit}")
            metrics[metric] = {"value": value, "unit": unit}
    ratio = failed / attempted if attempted else 1.0
    print(f"fail_ratio: {ratio:.6g} ({failed} failed of {attempted} attempted)")
    for key, reason in result["failures"][:10]:
        print(f"failed: {key}: {reason}")
    # Operations a child never ran count as attempted and failed, so a run
    # cannot pass by doing less than the workload defines.
    correct = failed == 0 and attempted > 0
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "schurmix" / "__init__.py").is_file():
        print(f"error: schurmix sources not found under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    children = workloads.build(args.workload, args.seed)
    env = environment(args.seed)
    spans_tag = None
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_tag = args.workload
    result = measure(children, args.seconds, bool(args.trace), reference, spans_tag, env)
    final = report(args.workload, children, args.seconds, bool(args.trace), result, env)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
