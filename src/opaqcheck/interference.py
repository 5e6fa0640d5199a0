"""Non-interference deciders.

Non-interference (NI): the Low-projection of the system language stays
inside the language, so a public observer learns nothing about private
activity.  Intransitive non-interference (INI) relaxes this with
downgrades: runs are projected with the Orwellian function that keeps
everything up to the last downgrading event verbatim, and the image must
stay inside the language.  Both a direct image construction and a
decomposition into one NI check per downgrade entry state are provided;
they must agree.
"""

from __future__ import annotations

from .automata import (
    InvalidModel,
    Lts,
    Word,
    entry_words,
    nfa_subset,
    rebase,
    restrict,
    state_order,
    trim,
    word_sort_key,
)
from .observation import natural_image_nfa, orwellian_image_nfa
from .verdicts import InterferenceVerdict, SubCheck


def check_ni(system: Lts) -> InterferenceVerdict:
    """Decide NI: is the Low-projection of the language included in it?

    Low is the observable class; downgrading events, if any, are treated
    like private ones.  The witness is the shortest projected run missing
    from the language.
    """
    image = natural_image_nfa(system, system.alphabet.observable)
    inclusion = nfa_subset(image, "F", system, "F")
    return InterferenceVerdict(inclusion.holds, inclusion.counterexample)


def check_ini_direct(system: Lts) -> InterferenceVerdict:
    """Decide INI by checking the inclusion of the Orwellian image
    automaton in the system language."""
    system = trim(system)
    inclusion = nfa_subset(orwellian_image_nfa(system), "F", system, "F")
    return InterferenceVerdict(inclusion.holds, inclusion.counterexample)


def check_ini_decomposed(system: Lts) -> InterferenceVerdict:
    """Decide INI as one NI check per downgrade entry state, on the
    downgrade-free part reachable from it.

    Each failing entry state yields a global witness (its shortest entry
    word followed by the local one); the reported witness is the least.
    """
    system = trim(system)
    entries = entry_words(system)
    order = {q: i for i, q in enumerate(state_order(system))}
    breakdown: list[SubCheck] = []
    candidates: list[Word] = []
    for q in sorted(entries, key=order.__getitem__):
        local = trim(restrict(rebase(system, q), system.alphabet.downgrading))
        sub = check_ni(local)
        breakdown.append(SubCheck(q, sub.holds, sub.witness))
        if not sub.holds:
            candidates.append(entries[q] + sub.witness)
    if not candidates:
        return InterferenceVerdict(True, breakdown=tuple(breakdown))
    witness = min(candidates, key=lambda w: word_sort_key(system.alphabet, w))
    return InterferenceVerdict(False, witness, tuple(breakdown))


def check_ini(system: Lts, method: str = "both") -> InterferenceVerdict:
    """Decide INI by the requested method.

    ``both`` runs the direct and the decomposed decider, insists they
    agree, and reports the direct witness with the decomposed breakdown.
    """
    if method == "direct":
        return check_ini_direct(system)
    if method == "decomposed":
        return check_ini_decomposed(system)
    if method != "both":
        raise InvalidModel(f"unknown method {method!r}")
    direct = check_ini_direct(system)
    decomposed = check_ini_decomposed(system)
    if direct.holds != decomposed.holds:
        raise AssertionError("direct and decomposed INI deciders disagree; this is a bug")
    return InterferenceVerdict(direct.holds, direct.witness, decomposed.breakdown)
