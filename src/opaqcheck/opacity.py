"""Opacity deciders.

A secret is opaque when every secret run shares its observation with some
non-secret run, so an observer can never be sure the secret happened.  For
a static observer this is one regular-language inclusion between projection
images.  For an Orwellian observer the problem splits into one static check
per downgrade entry state: a run discloses after its last downgrade exactly
when its continuation discloses under the static observer started there.
:func:`~.observation.per_entry` drops the system's downgrades and runs
those checks; the static check is the same search from the initial state.
The observer is the system's observable class.  The search, its dead-end
set, its image and the pairs it shares between start states are
:func:`~.observation.searches`; this module supplies its goal, an
observation whose subset meets the secret and misses the non-secret
states, and its dead ends, the subsets holding a non-secret state from
which every observable step stays inside the non-secret states: such a
subset, and every subset after it, meets the non-secret states, so no
escape can follow.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from .automata import InvalidModel, Lts, State, Word, _spelled, incorporate_secret
from .observation import per_entry, searches
from .verdicts import OpacityVerdict


def _shortest_secret_preimage(system: Lts, observation: Word, start: State) -> Word:
    """Shortest secret word (ties lexicographic) read from ``start`` and
    observed as ``observation`` under the natural projection, spelled from
    the node and event each (state, index) node was first reached by."""
    keep = set(system.alphabet.observable)
    secret = system.accepting("Fphi") & system.accepting("F")
    steps = list(zip(system.alphabet.events, system.steps))

    def done(q, i):
        return i == len(observation) and q in secret

    if done(start, 0):
        return ()
    parent: dict[tuple[State, int], tuple[tuple[State, int], str] | None] = {(start, 0): None}
    queue = deque([(start, 0)])
    while queue:
        node = queue.popleft()
        q, i = node
        for e, targets in steps:
            r = targets.get(q)
            if r is None:
                continue
            j = i
            if e in keep:
                if i == len(observation) or observation[i] != e:
                    continue
                j = i + 1
            reached = (r, j)
            if reached in parent:
                continue
            if done(r, j):
                return _spelled(parent, (node, e))
            parent[reached] = (node, e)
            queue.append(reached)
    raise AssertionError("observation came from the secret image but has no secret preimage")


def _static_disclosure(system: Lts) -> Callable[[State], Word | None]:
    """Static opacity of ``system`` from any start state: the witness from
    there, or None when it holds (:func:`~.observation.searches`)."""
    f_states = system.accepting("F")
    secret = system.accepting("Fphi") & f_states
    nonsecret = f_states - secret

    def search_for(image, covered):
        secret_, nonsecret_, covered_ = map(image.lift, (secret, nonsecret, covered))
        # a subset meeting the dead-end set meets the non-secret states after
        # every continuation; with no dead end, no predicate to call
        return (image.nfa, image.component.__getitem__, lambda s: s & secret_ and not s & nonsecret_,
                (lambda s: s & covered_) if covered else None)

    search = searches(system, nonsecret, search_for)

    def disclosure(q: State) -> Word | None:
        escape = search(q)
        return None if escape is None else _shortest_secret_preimage(system, escape, q)

    return disclosure


def check_opacity_static(system: Lts) -> OpacityVerdict:
    """Decide opacity under the static observer of the system's observable
    events.

    The system carries the full language in ``F`` and the secret in
    ``Fphi`` (clamped into ``F``).  Opacity holds exactly when the image of
    the secret is included in the image of the non-secret part.  Both
    images share one automaton, so an observation escapes exactly when the
    subset of states it reaches meets the secret and misses the non-secret
    states.  On violation the witness is the shortest secret preimage of
    the shortest escaping observation.
    """
    witness = _static_disclosure(system)(system.initial)
    return OpacityVerdict(witness is None, witness)


def check_opacity_orwellian(system: Lts, secret: Lts | None = None) -> OpacityVerdict:
    """Decide opacity under the Orwellian observer of the system's
    partition: its observable events, and its downgrading events that
    reveal their past.

    When ``secret`` is given, its ``Fphi`` set (its ``F`` set when it has
    none) is folded into the system first and the verdict speaks in
    product state names.  :func:`~.observation.per_entry` runs one static
    sub-check per reachable downgrade entry state, on one image and one
    dead-end set of the downgrade-free system; the property holds exactly
    when all of them do.  Each failing entry state contributes a global
    disclosing trace (its shortest entry word followed by the local
    witness); the reported witness is the least of those.
    """
    if secret is not None:
        system = incorporate_secret(system, "F", secret, "Fphi" if "Fphi" in secret.accepting_sets else "F")
    if "Fphi" not in system.accepting_sets:
        raise InvalidModel("Orwellian opacity check needs an Fphi accepting set or a secret automaton")
    witness, breakdown = per_entry(system, _static_disclosure)
    return OpacityVerdict(witness is None, witness, breakdown)
