"""Determinism self-check for the benchmark.

Usage (from the root of a checkout):

    python3 perfbench/selfcheck.py

1. The instance builder renders byte-identical model files for one seed
   and surface under two ``PYTHONHASHSEED`` values, for every workload.
2. Two traced runs of each workload under those two hash seeds report
   identical size counters (every per-layer metric counted in calls,
   subsets, pairs, entries, states, transitions or bytes, and the
   distinct-subset share).

Exits 1 and names the difference when either check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEEDS = ("1", "2")
RUN_SEEDS = (0, 7)

_DIGEST = """
import hashlib, sys
sys.path.insert(0, {here!r})
from workloads import WORKLOADS, inputs
h = hashlib.sha256()
for workload in WORKLOADS:
    for seed, surface in [(seed, surface) for seed in {seeds!r} for surface in (0, 1)]:
        files, checks = inputs(workload, seed, "w", surface)
        for path in sorted(files):
            h.update(path.encode() + b"\\0" + files[path].encode())
        h.update(" ".join(c.id for c in checks).encode())
print(h.hexdigest())
"""


def _under(hash_seed: str, argv: list[str]) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(argv, cwd=ROOT, env=env, check=True, capture_output=True, text=True).stdout


def _counters(hash_seed: str, workload: str) -> dict:
    out = _under(hash_seed, [sys.executable, str(HERE / "run.py"), "--workload", workload,
                             "--seed", str(RUN_SEEDS[0]), "--seconds", "1", "--trace", "1"])
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "bytes") or k.endswith("distinct_subset_share")}


def main() -> int:
    bad = 0
    script = _DIGEST.format(here=str(HERE), seeds=RUN_SEEDS)
    digests = {h: _under(h, [sys.executable, "-c", script]).strip() for h in HASH_SEEDS}
    same = len(set(digests.values())) == 1
    print(f"instances: {'identical' if same else 'DIFFERENT'} under PYTHONHASHSEED {', '.join(HASH_SEEDS)} {digests}")
    bad += not same
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        first, second = (_counters(h, workload) for h in HASH_SEEDS)
        differ = sorted(k for k in first if first[k] != second.get(k))
        print(f"{workload}: {len(first)} counters, {'identical' if not differ else 'DIFFERENT: ' + ', '.join(differ)}")
        bad += bool(differ)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
