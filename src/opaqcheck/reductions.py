"""Constructions translating each property into the others.

A translation of opacity is an image automaton plus a marked layer.  The
image is the observer's view of the system: the natural image condensed
by the hidden steps for static opacity, the Orwellian image (a verbatim
prefix layer over copies of that condensed image) for Orwellian opacity.
Both images lift the secret states and the non-secret accepting states as
two sets, so one image state may stand for both.  A fresh private event
leads from each secret image state into a marked copy of it, so the
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

from typing import NamedTuple

from .automata import (
    EpsilonNfa,
    Lts,
    MovesOnDemand,
    PartitionedAlphabet,
    State,
    determinize,
    incorporate_secret,
)
from .observation import condensed_image, orwellian_image_nfa


class ReductionOutput(NamedTuple):
    """A translated problem instance.

    ``lts`` is ready for the target decider, with the target Low/High/Down
    roles in its alphabet; a translation of opacity adds one fresh private
    event, the last of its High class.
    """

    lts: Lts


def _fresh_event(taken: tuple[str, ...]) -> str:
    name = "h"
    while name in taken:
        name += "h"
    return name


def _split(system: Lts) -> Lts:
    """``system`` with two sets, its secret states (in both ``F`` and
    ``Fphi``) and its non-secret accepting states, for an image to lift
    each on its own: one image state can stand for both."""
    f_states = system.accepting("F")
    secret = f_states & system.accepting("Fphi")
    sets = {"secret": secret, "nonsecret": f_states - secret}
    return Lts.derived(system.alphabet, system.states, system.steps, system.initial, sets)


def _layered(image: EpsilonNfa, partition: PartitionedAlphabet) -> ReductionOutput:
    """Mark ``image`` of a :func:`_split` system and determinize it under
    ``partition``.

    The fresh event, the last private event of ``partition``, leads from
    each secret image state ``x`` to a marked state ``(x, 1)``, which has
    no moves.  Accepting are the non-secret image states and the marked
    ones, so the two languages stay apart; an image state standing for
    both kinds is accepting and marked.  The subset construction reaches
    the states one by one, and builds only reachable subsets: each image
    state is decided secret or not, and marked, when it is first reached,
    after the image has expanded it and so entered it in its own accepting
    sets.
    """
    high = partition.unobservable[-1]
    secret = image.accepting_sets["secret"]
    nonsecret = image.accepting_sets["nonsecret"]
    marked: set = set()
    accepting: set = set()
    fresh = len(image.alphabet)

    def expand(x: State) -> tuple:
        if x in marked:
            accepting.add(x)
            return (), ()
        silent, labeled = image.moves[x]
        if x in nonsecret:
            accepting.add(x)
        if x not in secret:
            return silent, labeled
        mark = (x, 1)
        marked.add(mark)
        return silent, [*labeled, (fresh, mark)]

    nfa = EpsilonNfa(image.alphabet + (high,), image.initial, {"F": accepting}, MovesOnDemand(expand))
    return ReductionOutput(determinize(nfa, "F", partition))


def opacity_to_ni(system: Lts) -> ReductionOutput:
    """Turn a static-opacity instance into an NI instance.

    The natural image, condensed by the hidden steps
    (:func:`~.observation.condensed_image`), keeps the source observable
    class, and every other source event goes silent.  Low is that class,
    High is the single fresh event.  The source secret is opaque exactly
    when the produced system satisfies NI.
    """
    alpha = system.alphabet
    partition = PartitionedAlphabet(alpha.observable, (_fresh_event(alpha.events),))
    return _layered(condensed_image(_split(system)).nfa, partition)


def opacity_to_ini(system: Lts) -> ReductionOutput:
    """Turn an Orwellian-opacity instance into an INI instance.

    The image is the Orwellian image of the system.  Down carries
    over; High is the source private class plus the fresh event, because
    image prefixes keep private events verbatim up to the last downgrade.
    The source secret is opaque exactly when the produced system satisfies
    INI.
    """
    alpha = system.alphabet
    partition = PartitionedAlphabet(
        alpha.observable, alpha.unobservable + (_fresh_event(alpha.events),), alpha.downgrading
    )
    return _layered(orwellian_image_nfa(_split(system)), partition)


def ini_to_opacity(system: Lts) -> ReductionOutput:
    """Turn an INI instance into an Orwellian-opacity instance.

    The secret is the set of runs the Orwellian projection changes: those
    with a private event after their last downgrade.  A two-state marker
    automaton tracks exactly that and is folded into the system; INI holds
    for the source exactly when the secret is opaque for the product.
    """
    alpha = system.alphabet
    clean: State = "low_tail"
    dirty: State = "high_tail"
    # one map per role, shared by its events: a downgrade cleans, a private
    # event dirties, an observable one keeps the state
    keeps, dirties, cleans = {clean: clean, dirty: dirty}, {clean: dirty, dirty: dirty}, {clean: clean, dirty: clean}
    steps = ((keeps,) * len(alpha.observable) + (dirties,) * len(alpha.unobservable)
             + (cleans,) * len(alpha.downgrading))
    marker = Lts.derived(alpha, frozenset({clean, dirty}), steps, clean, {"Fphi": frozenset({dirty})})
    return ReductionOutput(incorporate_secret(system, "F", marker, "Fphi"))
