"""Constructions translating each property into the others.

A translation of opacity is an image automaton plus a marked layer.  The
image is the observer's view of the system: the natural image for static
opacity, the Orwellian image for Orwellian opacity.  A fresh private
event leads from each secret image state into a marked copy of it, so the
translation accepts the non-secret image together with the secret image
followed by the fresh event.  Images are projection fixed points, so the
projection of a marked word is the bare secret image, and it stays inside
the language exactly when the non-secret image covers it, which is
opacity.  The Orwellian image keeps private prefixes before downgrades
verbatim, which is essential, since erasing them would merge observations
the Orwellian observer can tell apart.  Conversely, INI becomes Orwellian
opacity by taking as secret exactly the runs the Orwellian projection
changes.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .automata import (
    EpsilonNfa,
    InvalidModel,
    Lts,
    MovesOnDemand,
    PartitionedAlphabet,
    State,
    determinize,
    incorporate_secret,
    trim,
)
from .observation import natural_image_nfa, orwellian_image_nfa


class ReductionOutput(NamedTuple):
    """A translated problem instance.

    ``lts`` is ready for the target decider, with the target Low/High/Down
    roles in its alphabet.  ``provenance`` maps every constructed state
    back to its source state, so witnesses can be read in source
    vocabulary: for a translation of opacity, every image state and every
    marked state, the members of ``lts``'s subset states.  ``high_event``
    names the fresh private event, when one was introduced.
    """

    lts: Lts
    provenance: dict
    high_event: str | None = None


def _fresh_event(taken: tuple[str, ...]) -> str:
    name = "h"
    while name in taken:
        name += "h"
    return name


def _layered(image: EpsilonNfa, partition: PartitionedAlphabet, source: Callable[[State], State]) -> ReductionOutput:
    """Mark ``image`` and determinize it under ``partition``.

    The fresh event, the last private event of ``partition``, leads from
    each secret image state ``x`` (in both ``Fphi`` and ``F``) to a marked
    state ``(x, 1)``, which has no moves.  Accepting are the non-secret
    ``F`` states and the marked ones, so the two languages stay apart.
    ``source`` maps an image state to the system state it stands for.  The
    marks are added to the image's moves as the subset construction reaches
    each state, and that construction builds only reachable subsets.
    """
    high = partition.unobservable[-1]
    f_states = image.accepting("F")
    secret = image.accepting("Fphi") & f_states
    marked = {(x, 1): x for x in secret}
    if not image.states.isdisjoint(marked):
        raise InvalidModel("a marked state is also a state of the image")
    fresh = len(image.alphabet)
    down = {image.alphabet.index(e) for e in partition.downgrading}

    def expand(x: State) -> tuple:
        if x in marked:
            return (), ()
        silent, labeled = image.moves[x]
        assert not any(i in down and r in marked for i, r in labeled), "a downgrade entered the marked layer"
        return silent, ([*labeled, (fresh, (x, 1))] if x in secret else labeled)

    states = image.states | frozenset(marked)
    accepting = {"F": (f_states - secret) | frozenset(marked)}
    nfa = EpsilonNfa(image.alphabet + (high,), states, image.initial, accepting, MovesOnDemand(expand))
    provenance = {x: source(x) for x in image.states}
    provenance.update((m, provenance[x]) for m, x in marked.items())
    return ReductionOutput(determinize(nfa, "F", partition), provenance, high)


def opacity_to_ni(system: Lts) -> ReductionOutput:
    """Turn a static-opacity instance into an NI instance.

    The natural image keeps the source observable class, and every other
    source event goes silent.  Low is that class, High is the single fresh
    event.  The source secret is opaque exactly when the produced system
    satisfies NI.
    """
    alpha = system.alphabet
    partition = PartitionedAlphabet(alpha.observable, (_fresh_event(alpha.events),))
    return _layered(natural_image_nfa(system, alpha.observable), partition, lambda q: q)


def opacity_to_ini(system: Lts) -> ReductionOutput:
    """Turn an Orwellian-opacity instance into an INI instance.

    The image is the Orwellian image of the trimmed system.  Down carries
    over; High is the source private class plus the fresh event, because
    image prefixes keep private events verbatim up to the last downgrade.
    The source secret is opaque exactly when the produced system satisfies
    INI.
    """
    alpha = system.alphabet
    partition = PartitionedAlphabet(
        alpha.observable, alpha.unobservable + (_fresh_event(alpha.events),), alpha.downgrading
    )
    image = orwellian_image_nfa(trim(system))
    return _layered(image, partition, lambda x: system.initial if x == image.initial else x[-1])


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
    return ReductionOutput(folded, provenance)
