"""Constructions translating each property into the others.

Opacity under a static observer becomes NI by layering the system: a copy
of its observable behaviour plus a fresh private event fired exactly at
secret-accepting states, so the public projection of a run reveals the
secret iff the original observation disclosed it.  The Orwellian variant
layers the two Orwellian images instead (non-secret image on the base
layer, secret image marked by the fresh event); the images keep private
prefixes before downgrades verbatim, which is essential, since erasing
them would merge observations the Orwellian observer can tell apart.
Conversely, INI becomes Orwellian opacity by taking as secret exactly the
runs the Orwellian projection changes.
"""

from __future__ import annotations

from typing import NamedTuple

from .automata import (
    SILENT,
    EpsilonNfa,
    Lts,
    PartitionedAlphabet,
    State,
    determinize,
    incorporate_secret,
    trim,
    with_set,
)
from .observation import orwellian_image_nfa


class ReductionOutput(NamedTuple):
    """A translated problem instance.

    ``lts`` is ready for the target decider, with the target Low/High/Down
    roles in its alphabet.  ``nfa`` is the literal layered construction
    when one exists.  ``provenance`` maps every constructed state back to
    its source state, so witnesses can be read in source vocabulary.
    ``high_event`` names the fresh private event, when one was introduced.
    """

    nfa: EpsilonNfa | None
    lts: Lts
    provenance: dict
    high_event: str | None = None


def _fresh_event(taken: tuple[str, ...]) -> str:
    name = "h"
    while name in taken:
        name += "h"
    return name


def _layered_nfa(system: Lts, kept: set) -> tuple[EpsilonNfa, str, dict]:
    """Copy the system keeping ``kept`` labels, silence the rest, and add a
    second layer entered by a fresh event exactly at secret states.

    Accepting are the non-secret system-accepting states on the base layer
    and the secret states on the second, so the two languages (non-secret
    image, secret image marked by the fresh event) stay apart.
    """
    f_states = system.accepting("F")
    secret = system.accepting("Fphi") & f_states
    high = _fresh_event(system.alphabet.events)
    states = {(q, 0) for q in system.states} | {(q, 1) for q in secret}
    transitions = set()
    for (q, e), r in system.delta.items():
        transitions.add(((q, 0), e if e in kept else SILENT, (r, 0)))
    for q in secret:
        transitions.add(((q, 0), high, (q, 1)))
    accepting = frozenset((q, 0) for q in f_states - secret) | frozenset((q, 1) for q in secret)
    order = tuple(e for e in system.alphabet.events if e in kept) + (high,)
    nfa = EpsilonNfa(
        order,
        frozenset(states),
        frozenset(transitions),
        (system.initial, 0),
        {"F": accepting},
    )
    provenance = {(q, layer): q for (q, layer) in states}
    return nfa, high, provenance


def opacity_to_ni(system: Lts) -> ReductionOutput:
    """Turn a static-opacity instance into an NI instance.

    Low is the source observable class, High is the single fresh event;
    every other source event goes silent.  The source secret is opaque
    exactly when the produced system satisfies NI.
    """
    kept = set(system.alphabet.observable)
    nfa, high, provenance = _layered_nfa(system, kept)
    partition = PartitionedAlphabet(system.alphabet.observable, (high,))
    lts = trim(determinize(nfa, "F", partition))
    return ReductionOutput(nfa, lts, provenance, high)


def opacity_to_ini(system: Lts) -> ReductionOutput:
    """Turn an Orwellian-opacity instance into an INI instance.

    The produced language is the Orwellian image of the non-secret part
    together with the image of the secret part suffixed by a fresh private
    event.  Images are projection fixed points, so the Orwellian
    projection of a marked word is the bare secret image, and it stays
    inside the language exactly when the non-secret image covers it, which
    is opacity.  Down carries over; High is the source private class plus
    the fresh event, because image prefixes keep private events verbatim
    up to the last downgrade.
    """
    f_states = system.accepting("F")
    secret = system.accepting("Fphi") & f_states
    trimmed = trim(with_set(with_set(system, "Fphi", secret), "_nonsecret", f_states - secret))
    base = orwellian_image_nfa(trimmed)
    high = _fresh_event(system.alphabet.events)
    marked = {(x, 1) for x in base.accepting("Fphi")}
    states = base.states | marked
    transitions = set(base.transitions)
    for x in base.accepting("Fphi"):
        transitions.add((x, high, (x, 1)))
    down = set(system.alphabet.downgrading)
    entered_by_down = {r for (_, e, r) in transitions if e in down}
    assert not entered_by_down & marked, "a downgrade entered the marked layer"
    accepting = base.accepting("_nonsecret") | frozenset(marked)
    nfa = EpsilonNfa(
        base.alphabet + (high,),
        frozenset(states),
        frozenset(transitions),
        base.initial,
        {"F": accepting},
    )
    partition = PartitionedAlphabet(
        system.alphabet.observable,
        system.alphabet.unobservable + (high,),
        system.alphabet.downgrading,
    )
    lts = trim(determinize(nfa, "F", partition))
    provenance: dict = {("in",): trimmed.initial}
    for q in base.states - {("in",)}:
        provenance[q] = q[-1]
    for x in base.accepting("Fphi"):
        provenance[(x, 1)] = x[-1]
    return ReductionOutput(nfa, lts, provenance, high)


def ini_to_opacity(system: Lts) -> ReductionOutput:
    """Turn an INI instance into an Orwellian-opacity instance.

    The secret is the set of runs the Orwellian projection changes: those
    with a private event after their last downgrade.  A two-state marker
    automaton tracks exactly that and is folded into the system; INI holds
    for the source exactly when the secret is opaque for the product.
    """
    alpha = system.alphabet
    high = set(alpha.unobservable)
    clean: State = "low_tail"
    dirty: State = "high_tail"
    delta = {}
    for q in (clean, dirty):
        for e in alpha.events:
            if e in alpha.downgrading:
                delta[(q, e)] = clean
            elif e in high:
                delta[(q, e)] = dirty
            else:
                delta[(q, e)] = q
    marker = Lts(alpha, frozenset({clean, dirty}), delta, clean, {"Fphi": frozenset({dirty})})
    folded = incorporate_secret(system, "F", marker, "Fphi")
    provenance = {s: s[0] for s in folded.states}
    return ReductionOutput(None, folded, provenance)
