"""Non-interference deciders.

Non-interference (NI): the Low-projection of the system language stays
inside the language, so a public observer learns nothing about private
activity.  Intransitive non-interference (INI) relaxes this with
downgrades: runs are projected with the Orwellian function that keeps
everything up to the last downgrading event verbatim, and the image must
stay inside the language.  With no downgrading event that function is the
natural projection, so NI is INI with no downgrade: INI of the system with
its downgrading events made private (Rushby, SRI CSL-92-02, 1992).  So
every search here walks the pairs of :class:`~.observation.OrwellianImage`
(a system state, and a subset of the components of the condensed natural
image of the downgrade-free system) with one goal.  INI is decided
directly, by one search from the initial state, and decomposed, by NI's
search from each reachable downgrade entry state
(:func:`~.observation.per_entry`); they must agree.  NI's search, its
dead-end set, its image and the pairs it shares between start states are
:func:`~.observation.searches`; its dead ends are the pairs whose system
state is in the dead-end set, from which every observable word stays
accepted, and the pairs with no component left, since with no downgrade
to come none comes back.  The direct search has neither dead ends nor
proven pairs, so ``method="both"`` checks the pruned per-entry searches
against one unpruned search, verdict and witness.
"""

from __future__ import annotations

from typing import AbstractSet, Callable

from .automata import InvalidModel, Lts, PartitionedAlphabet, State, Word, restrict, subset_pair_search
from .observation import OrwellianImage, condensed_image, per_entry, searches
from .verdicts import InterferenceVerdict


def _escapes(marks: AbstractSet | int, kept: frozenset) -> Callable[[tuple], bool]:
    """Goal of the search for a word of the Orwellian image outside the
    system's language: the pair reached has a component among the image's
    accepting ones ``marks``, and a system state outside the system's
    accepting states ``kept``, or none."""
    return lambda s: s[1] & marks and s[0] not in kept


def _ni_escape(system: Lts) -> Callable[[State], Word | None]:
    """NI of ``system`` read from any start state: the returned function
    gives the shortest Low-projected run from that state that the system
    cannot make from there, or None (:func:`~.observation.searches`), read
    off the Orwellian image of ``system`` with its downgrades made private."""
    alpha = system.alphabet
    if alpha.downgrading:
        system = Lts.derived(PartitionedAlphabet(alpha.observable, alpha.unobservable + alpha.downgrading),
                             system.states, system.steps, system.initial, system.accepting_sets)
    # the system is deterministic, so from the dead-end states every
    # observable word steps through accepting states only
    kept = system.accepting("F")

    def search_for(image, covered):
        # with no downgrade to come, a pair with no component gets none back
        return (OrwellianImage(system, image), lambda q: q, _escapes(image.lift(kept), kept),
                lambda s: s[0] in covered or not s[1])

    return searches(system, kept, search_for)


def check_ni(system: Lts) -> InterferenceVerdict:
    """Decide NI: is the Low-projection of the language included in it?

    Low is the observable class; downgrading events, if any, are treated
    like private ones.  The witness is the shortest projected run missing
    from the language.
    """
    witness = _ni_escape(system)(system.initial)
    return InterferenceVerdict(witness is None, witness)


def check_ini_direct(system: Lts) -> InterferenceVerdict:
    """Decide INI by checking the inclusion of the Orwellian image of the
    system in the system language, read as (prefix state, continuation
    subset) pairs (:class:`~.observation.OrwellianImage`); the search
    computes only the rows it reaches."""
    # the system's set first: it reports a model with no F set
    kept = system.accepting("F")
    continuation = condensed_image(restrict(system))
    witness = subset_pair_search(OrwellianImage(system, continuation), _escapes(continuation.lift(kept), kept))
    return InterferenceVerdict(witness is None, witness)


def check_ini_decomposed(system: Lts) -> InterferenceVerdict:
    """Decide INI as one NI check per reachable downgrade entry state of
    the system, on the downgrade-free part reachable from it.

    Each failing entry state yields a global witness (its shortest entry
    word followed by the local one); the reported witness is the least.
    """
    witness, breakdown = per_entry(system, _ni_escape)
    return InterferenceVerdict(witness is None, witness, breakdown)


def check_ini(system: Lts, method: str = "decomposed") -> InterferenceVerdict:
    """Decide INI by the requested method, by default the decomposition.

    ``both``, the audit, runs the direct and the decomposed decider, insists
    they agree on verdict and witness, and reports the direct witness with
    the decomposed breakdown.
    """
    if method == "direct":
        return check_ini_direct(system)
    if method == "decomposed":
        return check_ini_decomposed(system)
    if method != "both":
        raise InvalidModel(f"unknown method {method!r}")
    direct = check_ini_direct(system)
    decomposed = check_ini_decomposed(system)
    if (direct.holds, direct.witness) != (decomposed.holds, decomposed.witness):
        raise AssertionError("direct and decomposed INI deciders disagree; this is a bug")
    return InterferenceVerdict(direct.holds, direct.witness, decomposed.breakdown)
