"""Regenerate reference.json: expected equal flag and output digest of every
operation any seed of any workload can produce.

    python3 perfbench/make_reference.py

Run from the repository root, only at a commit whose outputs are trusted; the
benchmark fails every operation whose output later differs.  Operations run
in this one process, since caches do not change outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import child  # noqa: E402
import workloads  # noqa: E402


def main():
    reference = {}
    for op in workloads.all_ops():
        key = workloads.op_key(op)
        if key in reference:
            continue
        _, _, equal, digest = child.run_op(op)
        if equal is False:
            raise SystemExit(f"{key}: identity does not hold; refusing to record it")
        reference[key] = {"equal": equal, "digest": digest}
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{len(reference)} reference outputs written to {path}")


if __name__ == "__main__":
    main()
