"""Non-interference deciders.

Non-interference (NI): the Low-projection of the system language stays
inside the language, so a public observer learns nothing about private
activity.  Intransitive non-interference (INI) relaxes this with
downgrades: runs are projected with the Orwellian function that keeps
everything up to the last downgrading event verbatim, and the image must
stay inside the language.  Both a direct image construction and a
decomposition into one NI check per downgrade entry state are provided;
they must agree.  Both read the natural image of the downgrade-free
system, condensed by the hidden steps
(:func:`~.observation.condensed_image`): :func:`~.observation.per_entry`
runs the NI search from each reachable entry state (as NI does from the
initial one), and the direct route searches the Orwellian image as pairs
of a verbatim prefix state and a subset of the same image's components,
entered after each downgrade (:class:`~.observation.OrwellianImage`),
through the same view.  The NI search, its dead-end set, its
image and the pairs it shares between start states are
:func:`~.observation.searches`; this module supplies its goal, a word the
image accepts and the system does not, and its dead ends, the system
states from which every observable word stays accepted.  The direct route
searches without dead ends or proven pairs, so ``method="both"`` checks
the pruned searches against an unpruned one, verdict and witness.
"""

from __future__ import annotations

from typing import AbstractSet, Callable

from .automata import InvalidModel, Lts, State, Word, subset_pair_search
from .observation import OrwellianImage, per_entry, searches
from .verdicts import InterferenceVerdict


def _escapes(marks: AbstractSet | int, kept: frozenset) -> Callable[[frozenset | int, State], bool]:
    """Goal of the search for a word of an image outside a system's
    language: the subset reached meets the image's accepting states
    ``marks`` and the system state is not in its accepting states ``kept``."""
    return lambda s, p: s & marks and p not in kept


def _ni_escape(system: Lts) -> Callable[[State], Word | None]:
    """NI of ``system`` read from any start state: the returned function
    gives the shortest Low-projected run from that state that the system
    cannot make from there, or None (:func:`~.observation.searches`)."""
    # the system is deterministic, so from the dead-end states every
    # observable word steps through accepting states only
    kept = system.accepting("F")
    return searches(system, kept,
                    lambda image, covered: (_escapes(image.lift(kept), kept), system, lambda _, p: p in covered))


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
    image = OrwellianImage(system)
    marks = image.continuation.lift(kept)
    # the prefix state is the system's state on the word read
    witness = subset_pair_search(image, lambda s, _: s[1] & marks and s[0] not in kept)
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
