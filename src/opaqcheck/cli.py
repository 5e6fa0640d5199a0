"""Command-line frontend.

Subcommands::

    opaq check static|orwellian --system FILE (--secret FILE | --secret-re PATTERN)
    opaq check ni --system FILE
    opaq check ini --system FILE [--method direct|decomposed|both]
    opaq reduce to-ni|to-ini|from-ini --system FILE [--secret ...] -o FILE
    opaq oracle --system FILE [--secret ...] --obs natural|orwellian --max-len K

Exit codes: 0 the property holds, 1 it is violated (the witness is printed,
one event per token), 3 undecided: the run ran out of memory, 2 every other
outcome: an input or usage error or an internal error, or a help request
(``--help`` prints the help text).  Exits 2 and 3 are reported on one
``error:`` line.  An option the chosen property does not
read (a secret for ``ni``, ``ini`` or ``reduce from-ini``, ``--method`` for
any property but ``ini``) is an input error.  ``check ini`` runs the
decomposition unless ``--method`` asks for ``direct`` or for ``both``, the
audit that fails with an internal error when the two disagree on verdict
or witness.  ``--report
json-lines`` emits one JSON record per sub-check with fields ``state``,
``holds`` and ``witness`` on standard output, and one verdict record on
standard error, marked by its key ``verdict`` (``holds`` or ``violated``),
with the property's ``holds`` and global ``witness``; the oracle's verdict
record also carries ``approximate``, whether the bound stayed below the
exactness bound, which the text report gives as a ``note:`` line on
standard error.  Model files are read and written as UTF-8, whatever the
locale.

Each ``opaq`` run is a fresh process, so its start-up is part of the time
to a verdict.  This module therefore imports, at its top, only what every
subcommand runs (reading a model and printing a verdict); the deciders,
translations, regex compiler and brute-force evaluator are imported inside
the branch that runs them.
"""

from __future__ import annotations

import argparse
import sys

from .automata import InvalidModel, Lts, format_word, incorporate_secret, render_state
from .modelfile import parse_model, render_model
from .verdicts import SubCheck


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opaq", description="Decide opacity and (intransitive) non-interference for finite transition systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, report=True):
        p.add_argument("--system", required=True, help="model file")
        p.add_argument("--secret", help="secret automaton file (same alphabet)")
        p.add_argument("--secret-re", help="secret as a regular expression over declared events")
        if report:
            p.add_argument("--report", choices=["json-lines"], help="machine-readable per-sub-check records")

    check = sub.add_parser("check", help="decide a property")
    check.add_argument("property", choices=["static", "orwellian", "ni", "ini"])
    add_common(check)
    check.add_argument("--method", choices=["direct", "decomposed", "both"], help="INI method (default decomposed; both audits it against direct)")

    reduce_p = sub.add_parser("reduce", help="translate a problem into another one")
    reduce_p.add_argument("direction", choices=["to-ni", "to-ini", "from-ini"])
    add_common(reduce_p, report=False)
    reduce_p.add_argument("-o", "--output", required=True, help="where to write the produced model")

    oracle_p = sub.add_parser("oracle", help="bounded brute-force evaluation, for auditing the deciders")
    oracle_p.add_argument("--obs", choices=["natural", "orwellian"], required=True)
    oracle_p.add_argument("--max-len", type=int, default=10)
    add_common(oracle_p)

    return parser


def _read_model(path: str) -> Lts:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise InvalidModel(f"{path}: not UTF-8 text (bad byte at offset {exc.start})") from None
    # a leading byte-order mark is no part of the model (utf-8-sig would miscount the offset above)
    return parse_model(text.removeprefix("\ufeff"))


def _with_secret(args, system: Lts) -> Lts:
    """Fold the requested secret in; fall back to a file-declared Fphi."""
    if args.secret is not None and args.secret_re is not None:
        raise InvalidModel("give either --secret or --secret-re, not both")
    if args.secret is not None:
        secret = _read_model(args.secret)
        name = "Fphi" if "Fphi" in secret.accepting_sets else "F"
        return incorporate_secret(system, "F", secret, name)
    if args.secret_re is not None:
        from .regexlang import compile_regex

        return incorporate_secret(system, "F", compile_regex(args.secret_re, system.alphabet), "F")
    if "Fphi" in system.accepting_sets:
        return system
    raise InvalidModel("no secret: give --secret or --secret-re, or declare Fphi in the system file")


def _emit(verdict, checked: Lts, report: str | None, **extra) -> int:
    breakdown = tuple(verdict.breakdown) or (SubCheck(checked.initial, verdict.holds, verdict.witness),)
    if report == "json-lines":
        import json

        def witness(w):
            return format_word(w) if w is not None else None

        for sub in breakdown:
            print(json.dumps({"state": render_state(sub.state), "holds": sub.holds, "witness": witness(sub.witness)}))
        print(json.dumps({
            "verdict": "holds" if verdict.holds else "violated",
            "holds": verdict.holds,
            "witness": witness(verdict.witness),
            **extra,
        }), file=sys.stderr)
    else:
        print("holds" if verdict.holds else "violated")
        print(format_word(verdict.witness) if verdict.witness is not None else "")
        if verdict.breakdown:
            for sub in verdict.breakdown:
                tail = "" if sub.witness is None else ":" + "".join(f" {e}" for e in sub.witness)
                print(f"q={render_state(sub.state)} {'holds' if sub.holds else 'violated'}{tail}")
    return 0 if verdict.holds else 1


def _run_check(args) -> int:
    if args.method is not None and args.property != "ini":
        raise InvalidModel(f"--method applies only to ini, not to {args.property}")
    if args.property in ("ni", "ini"):
        if args.secret is not None or args.secret_re is not None:
            raise InvalidModel(f"--secret and --secret-re apply only to static and orwellian, not to {args.property}")
        from .interference import check_ini, check_ni

        system = _read_model(args.system)
        verdict = check_ni(system) if args.property == "ni" else check_ini(system, args.method or "decomposed")
        return _emit(verdict, system, args.report)
    from .opacity import check_opacity_orwellian, check_opacity_static

    checked = _with_secret(args, _read_model(args.system))
    check = check_opacity_static if args.property == "static" else check_opacity_orwellian
    return _emit(check(checked), checked, args.report)


def _run_reduce(args) -> int:
    if args.direction == "from-ini" and (args.secret is not None or args.secret_re is not None):
        raise InvalidModel("--secret and --secret-re apply only to to-ni and to-ini, not to from-ini")
    from .reductions import ini_to_opacity, opacity_to_ini, opacity_to_ni

    system = _read_model(args.system)
    # keep only the model, so the construction behind it is freed before rendering
    if args.direction == "to-ni":
        out = opacity_to_ni(_with_secret(args, system)).lts
    elif args.direction == "to-ini":
        out = opacity_to_ini(_with_secret(args, system)).lts
    else:
        out = ini_to_opacity(system).lts
    text = render_model(out)
    with open(args.output, "w", encoding="utf-8") as f:
        f.write(text)
    return 0


def _run_oracle(args) -> int:
    if args.max_len < 0:
        raise InvalidModel("--max-len must be non-negative")
    from .observation import ObservationKind
    from .oracle import oracle_check_opacity

    checked = _with_secret(args, _read_model(args.system))
    alpha = checked.alphabet
    if args.obs == "natural":
        kind = ObservationKind.natural(alpha.observable)
    else:
        kind = ObservationKind.orwellian(alpha.observable, alpha.downgrading)
    verdict = oracle_check_opacity(checked, kind, args.max_len)
    if verdict.approximate and args.report is None:
        print("note: bound below the exactness bound; a holds verdict may be approximate", file=sys.stderr)
    return _emit(verdict, checked, args.report, approximate=verdict.approximate)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:  # a usage error, or help printed instead of a verdict
        return 2
    try:
        if args.command == "check":
            return _run_check(args)
        if args.command == "reduce":
            return _run_reduce(args)
        return _run_oracle(args)
    except (InvalidModel, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # not bad input, and no verdict: undecided
        print("error: out of memory: undecided", file=sys.stderr)
        return 3
    except Exception as exc:  # 0 and 1 are verdicts; a crash must not read as one
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
