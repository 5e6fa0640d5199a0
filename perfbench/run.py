"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload random-lts --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones in ``BENCHMARK.json``; with ``--trace 1``
they are the per-layer ones, taken from a separate traced run.  Every check
is compared with ``perfbench/expected.json`` outside the timed region; a
wrong verdict, witness or exit code counts as failed.

A run sets the workload up in fresh processes (import ``opaqcheck``,
generate and write the inputs) three times before its first pass and once
before each pass, and reports the median as ``setup_s``.  The set-up before
a pass writes a fresh surface of the inputs (state names and line order),
which the pass reads anew, so no cache in the program carries over from one
pass to the next.  A run decides the workload's whole fixed set of checks a
fixed number of times, one pass after another in a closed loop with one
client, starting a pass only while ``--seconds`` have not passed; a
check's time is its median in these passes.  Every time
behind an end-to-end metric is scaled to a fixed machine speed, measured
by ``reference.py`` just before and just after it.  Each check
has a time limit, enforced here: ``SIGALRM`` for in-process checks, a kill
for ``opaq`` processes.  A check that hits it, or is not started because
the run is out of time, counts as undecided and is timed at the limit.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import reference  # noqa: E402
from workloads import PASSES, TIME_LIMIT_S, WORK_DIR, WORKLOADS, Check, cli_answer, decide, write_inputs  # noqa: E402

#: Set-ups timed before the first pass, after one untimed warm-up that
#: compiles bytecode.  One more is timed before each pass, so that the
#: median of them all spans the whole run.
SETUPS = 3
#: Bare and import-only interpreter starts timed for ``cli.startup_s``.
STARTUPS = 7
#: No check starts later than this many seconds after the run began, so a
#: run ends well within three minutes even when every check is slow; the
#: checks left are counted as undecided.
HARD_STOP_S = 140.0


class CheckTimeout(BaseException):
    """Raised by the alarm in a check that exceeded its time limit."""


class Alarm:
    def __init__(self) -> None:
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        if self.armed:
            raise CheckTimeout

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


class Runner:
    """Runs checks of one workload and records time, status and answer."""

    def __init__(self, workload: str, checks: list[Check], expected: dict, deadline: float, env: dict) -> None:
        self.workload = workload
        self.checks = checks
        self.expected = {key: entry["answer"] for key, entry in expected.items()}
        self.deadline = deadline
        self.alarm = Alarm()
        self.env = env
        self.texts: dict[str, str] = {}
        self.child_peak_kb = 0
        self.statuses: list[str] = []
        self.failures: list[str] = []
        #: Per pass, the factor that brings each check's time to the reference speed.
        self.scales: list[list[float]] = []

    def _limit(self) -> float:
        return min(TIME_LIMIT_S, self.deadline - time.monotonic())

    def run_pass(self, mode: str, tracer=None) -> list[float]:
        """Every check once; the time of each, in check order.  ``mode`` is
        ``library``, ``process`` (one ``opaq`` process per check) or
        ``inprocess`` (``cli.main`` in this process).  Reads the inputs
        anew, as the last set-up wrote them."""
        self.texts = {c.path: (ROOT / c.path).read_text() for c in self.checks if c.kind != "cli"}
        out, decided = [], []
        speeds = [reference.sample()]
        for index, check in enumerate(self.checks):
            limit = self._limit()
            if limit <= 0:
                seconds, answer = TIME_LIMIT_S, "undecided"
            elif mode == "process":
                seconds, answer = self._process(check, limit)
            else:
                call = decide if mode == "library" else self._inprocess
                seconds, answer = self._call(call, check, limit, tracer, index)
                if isinstance(answer, tuple):
                    answer = cli_answer(check, *answer, str(ROOT))
            if answer == "undecided":
                seconds = TIME_LIMIT_S
            decided.append(answer != "undecided")
            self.statuses.append(self._judge(check, answer))
            out.append(seconds)
            speeds.append(reference.sample())
        # A check timed at the limit (undecided) is not scaled.
        self.scales.append([reference.scale(a, b) if ok else 1.0 for a, b, ok in zip(speeds, speeds[1:], decided)])
        return out

    def _call(self, fn, check, limit, tracer, index):
        args = (check, self.texts[check.path]) if fn is decide else (check,)
        gc.collect()  # each check starts from the same collector state, whatever ran before it
        start = time.perf_counter()
        if tracer:
            tracer.begin_check(index)
        try:
            self.alarm.arm(limit)
            try:
                answer = fn(*args)
            finally:
                self.alarm.disarm()
        except CheckTimeout:
            answer = "undecided"
        except Exception as exc:  # a crash of the checked program is a failed check
            answer = f"raised {type(exc).__name__}: {exc}"
        if tracer:
            tracer.end_check()
        return time.perf_counter() - start, answer

    def _inprocess(self, check: Check) -> tuple[int, str]:
        from opaqcheck import cli

        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = cli.main(list(check.argv))
        return code, stdout.getvalue()

    def _process(self, check: Check, limit: float):
        out_path = ROOT / WORK_DIR / self.workload / "out" / "stdout.txt"
        with open(out_path, "w+") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "opaqcheck", *check.argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.DEVNULL)
            seconds, usage, status = _wait(proc, limit)
            seconds -= start
            out.seek(0)
            stdout = out.read()
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        if status is None:
            return seconds, "undecided"
        return seconds, cli_answer(check, os.waitstatus_to_exitcode(status), stdout, str(ROOT))

    def _judge(self, check: Check, answer) -> str:
        if answer == "undecided":
            return "undecided"
        want = self.expected.get(check.id)
        if answer == want:
            return "ok"
        self.failures.append(f"{check.id}: got {answer!r}, expected {want!r}")
        return "failed"


def _wait(proc: subprocess.Popen, limit: float):
    """Wait for ``proc`` at most ``limit`` seconds, killing it after that.
    Returns the exit time, its resource usage and its wait status (None
    when it was killed)."""
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], limit)
    finally:
        os.close(fd)
    exited = time.perf_counter()
    if not ready:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return exited, usage, status if ready else None


def _scaled_spawn_seconds(argv: list[str], env: dict) -> float:
    """``_spawn_seconds`` at the reference speed."""
    before = reference.sample()
    seconds = _spawn_seconds(argv, env)
    return seconds * reference.scale(before, reference.sample())


def _spawn_seconds(argv: list[str], env: dict, limit: float = 60.0) -> float:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
    exited, _, status = _wait(proc, limit)
    if status is None or os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{' '.join(argv)} failed")
    return exited - start


def _tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError("a tail needs at least eleven samples")
    return 100.0 * (n - 10) / n, ordered[n - 11]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.monotonic()
    if not (ROOT / "src" / "opaqcheck" / "__init__.py").is_file():
        print(f"error: no opaqcheck sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    # Set-up, timed in fresh processes; the last one leaves the inputs in place.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    setup_argv = [sys.executable, str(HERE / "setup_inputs.py"), args.workload, str(args.seed)]
    _spawn_seconds(setup_argv, env)
    setups = [_scaled_spawn_seconds(setup_argv, env) for _ in range(SETUPS)]
    checks = write_inputs(args.workload, args.seed, str(ROOT))
    import opaqcheck  # noqa: F401

    runner = Runner(args.workload, checks, expected, began + HARD_STOP_S, env)
    cli_workload = args.workload == "cli-mixed"
    passes = PASSES[args.workload]
    metrics: dict[str, float] = {}
    if args.trace:
        from tracing import Tracer

        if cli_workload:
            bare = [sys.executable, "-c", "pass"]
            imported = [sys.executable, "-c", "import opaqcheck.cli"]
            starts = [(_spawn_seconds(bare, env), _spawn_seconds(imported, env)) for _ in range(STARTUPS)]
            metrics["cli.startup_s"] = statistics.median(i for _, i in starts) - statistics.median(b for b, _ in starts)
            metrics["cli.process_s"] = statistics.median(runner.run_pass("process"))
        mode = "inprocess" if cli_workload else "library"
        tracer = Tracer()
        turn = itertools.count()

        def one_pass():
            """Traced and untraced passes alternate, traced first."""
            if next(turn) % 2:
                return sum(runner.run_pass(mode))
            tracer.install()
            try:
                mark = tracer.mark()
                times = runner.run_pass(mode, tracer)
            finally:
                tracer.uninstall()
            layer = tracer.aggregate(mark)
            layer["trace.batch_s"] = sum(times)
            return layer

        done = _passes(one_pass, passes, time.monotonic() + args.seconds, began, at_least=2,
                       before_each=lambda i: write_inputs(args.workload, args.seed, str(ROOT), i + 1))
        per_pass = [p for p in done if isinstance(p, dict)]
        untraced = [p for p in done if not isinstance(p, dict)]
        passes_made = len(done)
        tracer.write(str(ROOT / WORK_DIR / args.workload / "spans"), [c.id for c in checks])
        for key in sorted({k for p in per_pass for k in p}):
            metrics[key] = statistics.median(p.get(key, 0.0) for p in per_pass)
        metrics["trace.layer_self_s"] = statistics.median(
            sum(v for k, v in p.items() if k.endswith(".self_s") and not k.startswith("check.")) for p in per_pass)
        metrics["trace.overhead_share"] = min(p["trace.batch_s"] for p in per_pass) / min(untraced) - 1.0
        built = metrics.get("automata.determinize.subsets", 0.0)
        metrics["automata.determinize.distinct_subset_share"] = (
            metrics.get("automata.determinize.distinct_subsets", 0.0) / built if built else 0.0)
    else:
        mode = "process" if cli_workload else "library"
        measured_from = time.monotonic()
        results = _passes(lambda: runner.run_pass(mode), passes, measured_from + args.seconds, began,
                          before_each=lambda i: setups.append(_scaled_spawn_seconds(setup_argv + [str(i + 1)], env)))
        results = [[t * f for t, f in zip(r, scales)]
                   for r, scales in zip(results, runner.scales)]
        per_check = [statistics.median(r[i] for r in results) for i in range(len(checks))]
        passes_made = len(results)
        samples = [seconds for r in results for seconds in r]
        percentile, tail = _tail(samples)
        peak_kb = runner.child_peak_kb if cli_workload else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": statistics.median(setups),
            "batch_s": sum(per_check),
            "verdict_s.p50": statistics.median(samples),
            "verdict_s.tail": tail,
            "decided_share": 1.0 - runner.statuses.count("undecided") / len(runner.statuses),
            "peak_rss_mb": peak_kb / 1024.0,
            "checks": float(len(checks)),
        }
        print(f"verdict_s.tail is the p{percentile:.1f} of {len(samples)} check times "
              f"({passes_made} passes of {len(checks)} checks)")
        factors = [f for scales in runner.scales for f in scales]
        print(f"times scaled to the reference speed by a median factor of {statistics.median(factors):.3f} "
              f"(range {min(factors):.3f}-{max(factors):.3f})")

    statuses = runner.statuses
    attempted = len(statuses)
    failed = statuses.count("failed")
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {passes_made} passes of {len(checks)} checks; "
          f"failed_share {failed / attempted:.4f} ({failed}/{attempted}); undecided {statuses.count('undecided')}")
    report = {}
    for spec in specs:
        report[spec["name"]] = {"value": metrics.get(spec["name"], 0.0), "unit": spec["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


def _passes(run_one, count: int, until: float, began: float, at_least: int = 1, before_each=None) -> list:
    """Up to ``count`` results of ``run_one()``: ``at_least`` of them, then
    another only while ``until`` has not passed.  ``before_each(i)``, when
    given, runs untimed before pass ``i``."""
    results = []
    while len(results) < count:
        if len(results) >= at_least and time.monotonic() > min(until, began + HARD_STOP_S):
            break
        if before_each is not None:
            before_each(len(results))
        results.append(run_one())
    return results


if __name__ == "__main__":
    raise SystemExit(main())
