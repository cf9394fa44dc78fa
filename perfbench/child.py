"""One benchmark child: a fresh interpreter that runs a list of operations.

Protocol: after importing schurmix the child prints ``ready`` and flushes, so
the parent can time set-up, and takes ``calibrate.SETUP_SAMPLES`` speed
samples.  It then reads one JSON job from stdin,
``{"ops": [...], "trace": bool, "spans_path": str or null, "header": str}``,
runs the operations in order and prints one JSON result line:
``{"ops": [[wall_s, cpu_s, equal, digest, error], ...], "peak_rss_mb": float,
"layers": {...} or null, "speed": {...}}``.  Only the operation itself is
timed; digests are taken after the clock stops, except for ``addset``, whose
per-partition results are hashed as they are produced so that none are kept.

An untraced child samples the host's speed during its operations (see
``calibrate.py``) and leaves the sampling time out of the operations' times.
``speed`` holds the mean ``wall`` and ``cpu`` speed of the samples taken
during operations, their count ``samples``, and ``setup_wall``, the mean wall
speed of the samples taken right after start-up.  A traced child takes no
samples during its operations, which would show in its spans; its speed
comes from samples taken before and after them.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout

import calibrate
import schurmix.barquot
import schurmix.cli
import schurmix.fock
import schurmix.mixed
import schurmix.partitions
import schurmix.schur


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _poly_pair_digest(lhs_obj, rhs_obj):
    return _digest(json.dumps({"lhs": lhs_obj, "rhs": rhs_obj}, sort_keys=True))


def _fock_text(vector):
    return "\n".join(f"{lam.to_text()}: {coeff}" for lam, coeff in vector.items())


def _raw_clock():
    return time.perf_counter(), time.process_time()


def _since(clock, wall0, cpu0):
    wall, cpu = clock()
    return wall - wall0, cpu - cpu0


def run_op(op, clock=_raw_clock):
    """Run one operation; return (wall_s, cpu_s, equal, digest).

    equal is None for operations that check no identity.  ``clock`` returns
    (wall, cpu) seconds.
    """
    kind, *args = op
    wall0, cpu0 = clock()
    if kind == "verify":
        report = schurmix.mixed.verify(*args)
        wall, cpu = _since(clock, wall0, cpu0)
        digest = _poly_pair_digest(report.lhs.to_json_obj(), report.rhs.to_json_obj())
        return wall, cpu, report.equal, digest
    if kind == "cli_verify":
        case, m, n = args
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = schurmix.cli.main(["verify", "--case", case, "--m", str(m), "--n", str(n), "--json"])
        wall, cpu = _since(clock, wall0, cpu0)
        out = json.loads(buf.getvalue())
        equal = code == 0 and out["equal"]
        return wall, cpu, equal, _poly_pair_digest(out["lhs"], out["rhs"])
    if kind == "schur_q":
        poly = schurmix.schur.schur_q(schurmix.partitions.StrictPartition(args[0]))
        wall, cpu = _since(clock, wall0, cpu0)
        return wall, cpu, None, _digest(json.dumps(poly.to_json_obj(), sort_keys=True))
    if kind == "lemma":
        left, right = schurmix.fock.lemma_co_sides(*args)
        equal = left == right
        wall, cpu = _since(clock, wall0, cpu0)
        return wall, cpu, equal, _digest(_fock_text(left) + "\n--\n" + _fock_text(right))
    if kind == "addset":
        color, core, ell = args
        barquot = schurmix.barquot
        h = hashlib.sha256()
        equal = True
        count = 0
        for mu in schurmix.partitions.add_set(schurmix.partitions.bar_core(core), color, ell):
            tri = barquot.quotient(mu)
            equal &= barquot.inverse_quotient(tri.charge, tri.q0, tri.q1) == mu
            sign = barquot.delta_sign(mu, core)
            h.update(repr((mu.parts, tri.charge, tri.q0.parts, tri.q1.parts, sign)).encode())
            count += 1
        wall, cpu = _since(clock, wall0, cpu0)
        h.update(f"count {count}".encode())
        return wall, cpu, equal, h.hexdigest()
    raise ValueError(f"unknown operation {kind!r}")


def main():
    print("ready", flush=True)
    setup_samples = [calibrate.sample() for _ in range(calibrate.SETUP_SAMPLES)]
    job = json.loads(sys.stdin.read())
    tracer = None
    sampler = calibrate.Sampler()
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler.start()
    records = []
    for op in job["ops"]:
        wall0, cpu0 = sampler.clock()
        sampler.active = not job["trace"]
        try:
            records.append([*run_op(op, sampler.clock), None])
        except Exception as err:  # a failing operation is counted, the rest still run
            wall, cpu = _since(sampler.clock, wall0, cpu0)
            records.append([wall, cpu, False, None, f"{type(err).__name__}: {err}"])
        finally:
            sampler.active = False
    sampler.stop()
    # A traced child, or one whose operations were too short for a sample,
    # takes its speed from samples before and after the operations.
    samples = sampler.samples or setup_samples + [calibrate.sample() for _ in range(calibrate.SETUP_SAMPLES)]
    wall_speed, cpu_speed = calibrate.speeds(samples)
    speed = {
        "wall": wall_speed,
        "cpu": cpu_speed,
        "samples": len(sampler.samples),
        "setup_wall": calibrate.speeds(setup_samples)[0],
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        layers = tracer.summary()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"], job.get("header", ""))
    print(json.dumps({"ops": records, "peak_rss_mb": peak_rss_mb, "layers": layers, "speed": speed}))


if __name__ == "__main__":
    main()
