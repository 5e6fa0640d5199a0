"""Deciders for language-based information-flow properties of finite
transition systems: opacity of regular secrets under static and Orwellian
observers, non-interference (NI) and intransitive non-interference (INI),
together with executable translations between the three problems and a
brute-force evaluator for auditing every decider.

Every public name below is importable from the package itself
(``from opaqcheck import check_ni``).  They are what a library user calls:
the model types and their errors, the deciders and their verdicts, the
translations, the parser, the regex compiler and the brute-force
evaluator.  The constructions these are built from (``determinize``,
``trim``, ``restrict``, ``entry_words`` and the like) are imported from
their modules, such as ``opaqcheck.automata``.

Importing the package loads none of its modules: the first access to a
name imports the module that defines it (PEP 562), so a program, the
``opaq`` command among them, pays only for the modules it uses.
"""

from importlib import import_module

#: Public name -> the module that defines it; its keys are ``__all__``.
_EXPORTS = {
    **dict.fromkeys((
        "EpsilonNfa", "InvalidModel", "Lts", "PartitionedAlphabet", "alphabet", "format_word", "incorporate_secret",
        "with_set", "word",
    ), "automata"),
    **dict.fromkeys(("check_ini", "check_ini_decomposed", "check_ini_direct", "check_ni"), "interference"),
    **dict.fromkeys(("ParseError", "parse_model", "render_model"), "modelfile"),
    **dict.fromkeys(("Factorization", "ObservationKind", "factorize", "project_natural", "project_orwellian"), "observation"),
    **dict.fromkeys(("check_opacity_orwellian", "check_opacity_static"), "opacity"),
    **dict.fromkeys(("disclosing_class", "enumerate_language", "nonsecret_partner", "oracle_check_opacity"), "oracle"),
    **dict.fromkeys(("ini_to_opacity", "opacity_to_ini", "opacity_to_ni"), "reductions"),
    **dict.fromkeys(("RegexError", "compile_regex"), "regexlang"),
    **dict.fromkeys(("InterferenceVerdict", "OpacityVerdict", "SubCheck"), "verdicts"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
