#!/usr/bin/env python3
"""Benchmark a change against an earlier revision and write the evidence.

Runs ``perfbench/run.py --trace 0 --seconds 40`` on one workload in
``--pairs`` alternating pairs: the revision ``--against`` and the change,
the checkout's working tree (its tracked files and the untracked ones git
does not ignore).  Each tree is copied into a temporary directory of its
own and runs there, so neither run's inputs or outputs reach the other or
the checkout.  Pair ``i`` runs both trees with seed ``--seed + i``; even
pairs run the revision first and odd ones the change first, so that a
drift in host speed does not favour one side.

Writes ``BENCH_<label>.json`` at the root of the checkout with the
revision's sha, the checkout's HEAD and whether its working tree differed
from it, the Python version, the core count, the ``PYTHONDONTWRITEBYTECODE``
setting the runs saw, the seeds, and every run's end-to-end metrics with
their units, named as in ``BENCHMARK.json``.  Per metric it also records
each side's median and quartiles (``statistics.quantiles``, inclusive
method) and how many pairs the change won, by the metric's ``better``
direction; a tie wins for neither side.  A run that exits non-zero stops
the script before anything is written.

Example:
    python3 scripts/bench_record.py --against HEAD~1 --workload subset-blowup \\
        --pairs 10 --seed 3501 --label example
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 40


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_revision(rev: str, into: Path) -> None:
    """The files of ``rev`` as git stores them, under ``into``."""
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=git("archive", "--format=tar", rev), check=True)


def export_working_tree(into: Path) -> None:
    """The checkout's tracked files and its untracked, unignored ones, as
    they are on disk, under ``into``."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run in ``tree``: the metrics its last line reports."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{' '.join(argv)} in {tree} exited with {done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": report["correct"], "attempted": report["attempted"], "failed": report["failed"],
            "metrics": report["metrics"]}


def summary(specs: list[dict], base: list[dict], change: list[dict]) -> dict:
    """Per end-to-end metric: its unit and direction, each side's quartiles
    and median, and the pairs the change won."""
    out = {}
    for spec in specs:
        name = spec["name"]
        sides = {}
        for side, runs in (("base", base), ("change", change)):
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
            sides[side] = {"q1": q1, "median": median, "q3": q3}
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (b["metrics"][name]["value"] - c["metrics"][name]["value"]) > 0
                   for b, c in zip(base, change))
        out[name] = {"unit": spec["unit"], "better": spec["better"], **sides, "change_wins": wins}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", required=True, help="the revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    parser.add_argument("--label", required=True, help="names the file written: BENCH_<label>.json")
    args = parser.parse_args()
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base_sha = git("rev-parse", "--verify", f"{args.against}^{{commit}}").decode().strip()
    head_sha = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain"))
    seeds = [args.seed + i for i in range(args.pairs)]
    runs: dict[str, list] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-record-") as scratch:
        trees = {"base": Path(scratch) / "base", "change": Path(scratch) / "change"}
        export_revision(base_sha, trees["base"])
        export_working_tree(trees["change"])
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append({"seed": seed, **run_once(trees[side], args.workload, seed)})
            wall = {side: runs[side][-1]["metrics"]["batch_s"]["value"] for side in order}
            print(f"pair {i + 1}/{args.pairs} seed {seed}: batch_s base {wall['base']:.4f} change {wall['change']:.4f}",
                  flush=True)
    record = {
        "label": args.label,
        "workload": args.workload,
        "base": base_sha,
        "head": head_sha,
        "working_tree_differs_from_head": dirty,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "command": f"perfbench/run.py --workload {args.workload} --seed SEED --seconds {SECONDS} --trace 0",
        "seeds": seeds,
        "runs": runs,
        "summary": summary(specs, runs["base"], runs["change"]),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, s in record["summary"].items():
        print(f"{name}: base {s['base']['median']:.6g} [{s['base']['q1']:.6g}, {s['base']['q3']:.6g}]"
              f" change {s['change']['median']:.6g} [{s['change']['q1']:.6g}, {s['change']['q3']:.6g}]"
              f" change won {s['change_wins']}/{args.pairs}")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
