"""The three benchmark workloads: their inputs, their checks, and how one
check is run and judged.

A workload is a fixed list of checks.  ``inputs(workload, seed, work,
surface)`` gives the model files to write and the checks in run-seed order;
the same seed and surface give the same files, and the same seed gives the
same order.  A run writes a fresh surface (state names and line order)
before each pass, so no cache in the program can carry over from one pass
to the next.  Check ids do not depend on the seed: they key
``expected.json``.

Library calls go through module attributes (``opacity.check_...``), never
through names imported into this module, so the wrappers that
``tracing.py`` installs see every call.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from instances import Model, blowup_model, random_model, relabel, render

WORKLOADS = ("random-lts", "subset-blowup", "cli-mixed")

#: Where runs write their inputs, outputs and span files, relative to the checkout.
WORK_DIR = ".perfbench-work"

#: Per-check time limit in seconds, enforced by the benchmark process: more
#: than ten times the slowest check on the seed code (about 0.75 s in
#: process, 0.3 s for an ``opaq`` process), so ``decided_share`` does not
#: flip on noise.
TIME_LIMIT_S = 10.0

#: Passes over the fixed set of checks per run (fewer only when ``--seconds``
#: run out first).  Fixed, so that a faster program is not also measured
#: more often and ``verdict_s.tail`` is always the same order statistic.
#: Every check is short (under a second), so that the median of this many
#: passes is steady.
PASSES = {"random-lts": 6, "subset-blowup": 9, "cli-mixed": 7}

#: random-lts: (states before trimming, structure seed).  Each system is
#: decided by Orwellian opacity, INI decomposed and INI direct.
_RANDOM_SYSTEMS = [(50, s) for s in range(8)] + [(100, s) for s in range(4)]
_RANDOM_DECIDERS = ("orwellian", "ini_decomposed", "ini_direct")

#: subset-blowup: (n, alphabet width, marked letter); each member gets
#: static opacity and NI of its opacity_to_ni translation.  The largest
#: member comes in its two mirror images, so that the slowest checks form
#: a group of two and ``verdict_s.tail`` falls inside that group rather
#: than on the edge between two sizes.
_BLOWUP_MEMBERS = ([(n, 2, "a") for n in range(6, 13)] + [(n, 3, "a") for n in range(6, 12)]
                   + [(12, 3, "a"), (12, 3, "b")])

#: cli-mixed: the repository's fixtures, each with its own commands.
_FIXTURE_COMMANDS = {
    "downgrade_loop": (
        ("check", "static"),
        ("check", "orwellian"),
        ("check", "orwellian", "--secret-re", "h l + h d h l l*"),
        ("check", "ni"),
        ("check", "ini"),
        ("reduce", "to-ni"),
        ("reduce", "to-ini"),
        ("reduce", "from-ini"),
    ),
    "projection_leak": (
        ("check", "static", "--secret-re", "a b b"),
        ("check", "ni"),
        ("check", "ini"),
        ("reduce", "to-ni", "--secret-re", "a b b"),
        ("reduce", "from-ini"),
    ),
    "hdl_chain": (
        ("check", "ni"),
        ("check", "ini"),
        ("check", "orwellian", "--secret-re", "h d l"),
        ("reduce", "from-ini"),
    ),
}

_CLI_COMMANDS = (
    ("check", "static"),
    ("check", "orwellian"),
    ("check", "ni"),
    ("check", "ini"),
    ("reduce", "to-ni"),
    ("reduce", "to-ini"),
    ("reduce", "from-ini"),
)
#: cli-mixed: random models (name, states before trimming, secret pattern
#: or None for the model's own Fphi, commands).  ``m30b`` is a second
#: renaming of ``m30`` that runs only the slowest command, so that the
#: slowest checks form a group of two and ``verdict_s.tail`` falls inside
#: that group rather than on the edge between two sizes.
_CLI_MODELS = (
    ("m18", 18, None, _CLI_COMMANDS),
    ("m30", 30, "a b* + u d a", _CLI_COMMANDS),
    ("m30b", 30, "a b* + u d a", (("reduce", "to-ini"),)),
)
_NEEDS_SECRET = {("check", "static"), ("check", "orwellian"), ("reduce", "to-ni"), ("reduce", "to-ini")}


@dataclass(frozen=True)
class Check:
    """One check: a decider on one input file, or one ``opaq`` command."""

    id: str
    kind: str
    path: str
    argv: tuple[str, ...] = ()


def inputs(workload: str, seed: int, work: str, surface: int = 0) -> tuple[dict[str, str], list[Check]]:
    """Model files to write (path relative to the checkout -> text) and the
    workload's checks in run-seed order.  ``work`` is the workload's
    directory, relative to the checkout; ``surface`` picks the state names
    and line order among those of the run seed."""
    files: dict[str, str] = {}
    checks: list[Check] = []

    def add_model(name: str, model: Model) -> str:
        path = f"{work}/{name}.lts"
        files[path] = render(relabel(model, seed, f"{name}:{surface}"))
        return path

    if workload == "random-lts":
        for n, s in _RANDOM_SYSTEMS:
            path = add_model(f"n{n}-s{s}", random_model(n, s))
            checks.extend(Check(f"n{n}.s{s}.{d}", d, path) for d in _RANDOM_DECIDERS)
    elif workload == "subset-blowup":
        for n, width, marked in _BLOWUP_MEMBERS:
            path = add_model(f"w{width}-n{n}-{marked}", blowup_model(n, width, marked))
            checks.extend(Check(f"w{width}.n{n}.{marked}.{d}", d, path) for d in ("static", "ni_to_ni"))
    elif workload == "cli-mixed":
        for name, commands in _FIXTURE_COMMANDS.items():
            for command in commands:
                checks.append(_cli_check(name, f"fixtures/{name}.lts", command, work))
        for name, n, pattern, commands in _CLI_MODELS:
            path = add_model(name, random_model(n, 0))
            for command in commands:
                if pattern is not None and command in _NEEDS_SECRET:
                    command = command + ("--secret-re", pattern)
                checks.append(_cli_check(name, path, command, work))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    random.Random(f"order:{seed}:{workload}").shuffle(checks)
    return files, checks


def write_inputs(workload: str, seed: int, root: str, surface: int = 0) -> list[Check]:
    """Generate and write one workload's model files under ``root``; return
    its checks."""
    work = f"{WORK_DIR}/{workload}"
    files, checks = inputs(workload, seed, work, surface)
    os.makedirs(f"{root}/{work}/out", exist_ok=True)
    for path, text in files.items():
        with open(f"{root}/{path}", "w") as f:
            f.write(text)
    return checks


def _cli_check(model: str, path: str, command: tuple[str, ...], work: str) -> Check:
    tag = ".".join(command[:2]) + (".re" if "--secret-re" in command else "")
    argv = command[:2] + ("--system", path) + command[2:]
    if command[0] == "reduce":
        argv += ("-o", f"{work}/out/{model}.{tag}.lts")
    return Check(f"{model}.{tag}", "cli", path, argv)


def decide(check: Check, text: str) -> dict:
    """Run one library check on its model text; the answer in the form
    ``expected.json`` stores."""
    from opaqcheck import interference, modelfile, opacity, reductions

    system = modelfile.parse_model(text)
    if check.kind == "orwellian":
        verdict = opacity.check_opacity_orwellian(system)
    elif check.kind == "ini_decomposed":
        verdict = interference.check_ini_decomposed(system)
    elif check.kind == "ini_direct":
        verdict = interference.check_ini_direct(system)
    elif check.kind == "static":
        verdict = opacity.check_opacity_static(system)
    elif check.kind == "ni_to_ni":
        verdict = interference.check_ni(reductions.opacity_to_ni(system).lts)
    else:
        raise ValueError(f"unknown check kind {check.kind!r}")
    return {"holds": verdict.holds, "witness": None if verdict.witness is None else " ".join(verdict.witness)}


def cli_answer(check: Check, exit_code: int, stdout: str, root: str) -> dict:
    """The answer of one ``opaq`` command in the form ``expected.json``
    stores: the exit code plus the verdict and witness lines of a check, or
    the size of the model a reduction wrote."""
    if check.argv[0] == "check":
        lines = stdout.splitlines()
        return {"exit": exit_code, "out": lines[:2]}
    answer: dict = {"exit": exit_code}
    if exit_code == 0:
        with open(f"{root}/{check.argv[-1]}") as f:
            lines = f.read().splitlines()
        answer["states"] = sum(len(ln.split()) - 1 for ln in lines if ln.startswith("states "))
        answer["transitions"] = sum(1 for ln in lines if ln.startswith("trans "))
    return answer
