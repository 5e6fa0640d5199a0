"""Write ``expected.json``: the answer of every check, each confirmed once by
an independent route.

Usage (from the root of a checkout):

    python3 perfbench/make_expected.py

Answers come from the program itself on run seed 0 (state names and line
order do not change them; every run checks that again).  Each answer is
then confirmed without trusting the decider that produced it:

* an opacity violation: the witness is secret and
  ``oracle.nonsecret_partner`` finds no non-secret word observed like it;
* an NI or INI violation: the witness is outside the language, and
  ``oracle.nonsecret_partner`` (with an empty secret) finds a run whose
  projection is the witness;
* a verdict that holds: a translation or a second decider agrees (static
  opacity with NI of ``opacity_to_ni``, Orwellian opacity with INI of
  ``opacity_to_ini``, INI direct with INI decomposed); NI, which has no
  second decider, is brute-forced on every run up to a bounded length;
* a reduction: the written model, decided again, has the source's verdict.

The script stops with an error if any confirmation fails.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from opaqcheck import (  # noqa: E402
    ObservationKind,
    check_ini_decomposed,
    check_ini_direct,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    cli,
    compile_regex,
    enumerate_language,
    incorporate_secret,
    nonsecret_partner,
    opacity_to_ini,
    opacity_to_ni,
    parse_model,
    project_natural,
    with_set,
    word,
)
from workloads import WORKLOADS, cli_answer, decide, write_inputs  # noqa: E402


#: Run length up to which an NI verdict that holds is brute-forced.
NI_BRUTE_FORCE_LEN = 8


class Unconfirmed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Unconfirmed(message)


def _kind(system, problem: str) -> ObservationKind:
    alpha = system.alphabet
    if problem in ("orwellian", "ini"):
        return ObservationKind.orwellian(alpha.observable, alpha.downgrading)
    return ObservationKind.natural(alpha.observable)


def confirm_opacity(system, problem: str, holds: bool, witness) -> str:
    """``problem`` is ``static`` or ``orwellian``; ``system`` carries Fphi."""
    if not holds:
        w = word(witness)
        _require(system.accepts(w, "F") and system.accepts(w, "Fphi"), "witness is not a secret run")
        kind = _kind(system, problem)
        _require(nonsecret_partner(system, kind, kind.observe(w)) is None, "witness has a non-secret partner")
        return "oracle.nonsecret_partner finds no partner"
    if problem == "static":
        _require(check_ni(opacity_to_ni(system).lts).holds, "NI of opacity_to_ni disagrees")
        return "NI of opacity_to_ni holds too"
    _require(check_ini_decomposed(opacity_to_ini(system).lts).holds, "INI of opacity_to_ini disagrees")
    return "INI of opacity_to_ini holds too"


def confirm_interference(system, problem: str, holds: bool, witness) -> str:
    """``problem`` is ``ni`` or ``ini``."""
    if not holds:
        w = word(witness)
        _require(not system.accepts(w, "F"), "witness is in the language")
        no_secret = with_set(system, "Fphi", ())
        _require(nonsecret_partner(no_secret, _kind(system, problem), w) is not None, "no run projects to the witness")
        return "witness is outside F and a run projects to it"
    if problem == "ni":
        low = system.alphabet.observable
        words = enumerate_language(system, "F", NI_BRUTE_FORCE_LEN).words
        _require(all(system.accepts(project_natural(w, low), "F") for w in words), "a projected run escapes F")
        return f"every run up to length {NI_BRUTE_FORCE_LEN} projects into F"
    _require(check_ini_direct(system).holds and check_ini_decomposed(system).holds, "INI deciders disagree")
    return "INI direct and decomposed both hold"


def confirm_library(check, system, answer, answers) -> str:
    holds, witness = answer["holds"], answer["witness"]
    if check.kind in ("static", "orwellian"):
        return confirm_opacity(system, check.kind, holds, witness)
    if check.kind == "ni_to_ni":
        other = answers[check.id.replace("ni_to_ni", "static")]["answer"]
        _require(other["holds"] == holds, "static opacity disagrees with NI of its translation")
        return "static opacity agrees"
    note = confirm_interference(system, "ini", holds, witness)
    twin = check.id.replace("ini_direct", "ini_decomposed") if check.kind == "ini_direct" else check.id
    _require(answers.get(twin, {"answer": answer})["answer"] == answer, "INI direct and decomposed differ")
    return note


def _checked_system(check):
    """The system an ``opaq`` command decides, built as the command does."""
    argv = check.argv
    system = parse_model((ROOT / check.path).read_text())
    if "--secret-re" in argv:
        pattern = argv[argv.index("--secret-re") + 1]
        system = incorporate_secret(system, "F", compile_regex(pattern, system.alphabet), "F")
    return system


def confirm_cli(check, answer) -> str:
    system = _checked_system(check)
    action, problem = check.argv[0], check.argv[1]
    if action == "check":
        _require(answer["exit"] in (0, 1), "a check must exit 0 or 1")
        holds = answer["exit"] == 0
        _require(answer["out"][0] == ("holds" if holds else "violated"), "exit code and verdict line differ")
        witness = answer["out"][1] if not holds else None
        if problem in ("static", "orwellian"):
            return confirm_opacity(system, problem, holds, witness)
        return confirm_interference(system, problem, holds, witness)
    _require(answer["exit"] == 0, "a reduction must exit 0")
    produced = parse_model((ROOT / check.argv[-1]).read_text())
    if problem == "to-ni":
        same = check_ni(produced).holds == check_opacity_static(system).holds
    elif problem == "to-ini":
        same = check_ini_decomposed(produced).holds == check_opacity_orwellian(system).holds
    else:
        same = check_opacity_orwellian(produced).holds == check_ini_decomposed(system).holds
    _require(same, "the reduction changed the verdict")
    return "the written model has the source's verdict"


def main() -> int:
    expected: dict = {}
    for workload in WORKLOADS:
        checks = write_inputs(workload, 0, str(ROOT))
        checks.sort(key=lambda c: c.id)
        answers: dict = {}
        for check in checks:
            if check.kind == "cli":
                stdout = io.StringIO()
                with redirect_stdout(stdout):
                    code = cli.main(list(check.argv))
                answer = cli_answer(check, code, stdout.getvalue(), str(ROOT))
            else:
                answer = decide(check, (ROOT / check.path).read_text())
            answers[check.id] = {"answer": answer}
        for check in checks:
            entry = answers[check.id]
            if check.kind == "cli":
                entry["confirmed"] = confirm_cli(check, entry["answer"])
            else:
                system = parse_model((ROOT / check.path).read_text())
                entry["confirmed"] = confirm_library(check, system, entry["answer"], answers)
            print(f"{workload} {check.id}: {entry['answer']} -- {entry['confirmed']}", flush=True)
        expected[workload] = answers
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
