"""Print every benchmark metric by name and unit, for every workload.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--seed N]

Runs each workload of ``BENCHMARK.json`` for its ``run_seconds``, twice,
in fresh processes: with tracing off for the end-to-end metrics, then the
traced run for the per-layer ones (whose ``trace.overhead_share`` is the
tracing overhead).  Prints ``failed_share``
(failed checks over attempted ones) for both runs, and exits 1 when any
``failed_share`` is above 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True)
    sys.stderr.write(out.stderr)
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    failing = 0
    for workload in names:
        plain = _run(workload, args.seed, spec["run_seconds"], 0)
        traced = _run(workload, args.seed, spec["run_seconds"], 1)
        for result in (plain, traced):
            for name, metric in result["metrics"].items():
                print(f"{workload:14s} {name:50s} {metric['value']:16.6f} {metric['unit']}")
        for label, result in (("end-to-end", plain), ("traced", traced)):
            share = result["failed"] / result["attempted"]
            print(f"{workload:14s} {'failed_share (' + label + ' run)':50s} {share:16.6f} ratio")
            failing += share > 0
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
