"""Bounded brute-force evaluation of the opacity definitions.

This module is the independent ground truth the automaton-based deciders
are differentially tested against.  It never builds projection images,
complements or per-entry decompositions; it works word by word: a secret
word discloses exactly when no non-secret word of the system language
produces the same observation, and the search for such a partner walks the
system synchronously with the observation, which saturates within the
exactness bound.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .automata import InvalidModel, Lts, State, Word, _spelled, step, with_set
from .observation import ObservationKind, factorize
from .verdicts import OpacityVerdict

#: Default cap on observation lengths considered when flagging verdicts
#: as approximate.
DEFAULT_OBSERVATION_CAP = 10


class BoundedLanguage(NamedTuple):
    """A finite slice of a language: every member up to the length bound
    it was enumerated with, in length-then-lexicographic order."""

    words: tuple[Word, ...]


def enumerate_language(a: Lts, set_name: str, maxlen: int) -> BoundedLanguage:
    """All accepted words of length at most ``maxlen``, breadth first,
    lexicographic within each length."""
    if maxlen < 0:
        raise ValueError("maxlen must be non-negative")
    marks = a.accepting(set_name)
    out: list[Word] = []
    frontier: list[tuple[Word, State]] = [((), a.initial)]
    steps = list(zip(a.alphabet.events, a.steps))
    for _ in range(maxlen + 1):
        out.extend(w for w, q in frontier if q in marks)
        frontier = [
            (w + (e,), targets[q])
            for w, q in frontier
            for e, targets in steps
            if q in targets
        ]
        if not frontier:
            break
    return BoundedLanguage(tuple(out))


def exactness_bound(m: int, n: int) -> int:
    """Word length past which a bounded search for a word with a given
    observation cannot change its answer.

    A word observed as m events splits into m + 1 silent segments around
    them; each segment can be taken repetition-free, so it needs at most n
    steps on an n-state automaton, giving (m + 1) * n + m.
    """
    return (m + 1) * n + m


def nonsecret_partner(system: Lts, kind: ObservationKind, observation: Word) -> Word | None:
    """Shortest word of the system language outside the secret with the
    given observation; None when the whole observation class is secret.

    The observation fixes the verbatim prefix up to its last downgrading
    event; candidate words walk that prefix literally and then match the
    remaining observable events one by one, so only observation-consistent
    words are explored and the search is exact.  Only the word found is
    spelled, from the node and event each node was first reached by.
    """
    f_states = system.accepting("F")
    secret = system.accepting("Fphi") & f_states
    fact = factorize(observation, kind.downgrading)
    tail = fact.continuation
    if any(e not in kind.observable for e in tail):
        return None
    start = step(system, system.initial, fact.prefix)
    if start is None:
        return None

    def done(q: State, i: int) -> bool:
        return i == len(tail) and q in f_states and q not in secret

    if done(start, 0):
        return fact.prefix
    steps = [(e, targets) for e, targets in zip(system.alphabet.events, system.steps) if e not in kind.downgrading]
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
            if e in kind.observable:
                if i == len(tail) or tail[i] != e:
                    continue
                j = i + 1
            reached = (r, j)
            if reached in parent:
                continue
            if done(r, j):
                return fact.prefix + _spelled(parent, (node, e))
            parent[reached] = (node, e)
            queue.append(reached)
    return None


def oracle_check_opacity(system: Lts, kind: ObservationKind, maxlen: int) -> OpacityVerdict:
    """Evaluate opacity directly from its definition on a bounded slice.

    Every secret word up to ``maxlen`` is checked for a non-secret partner
    with the same observation (the partner search itself is exact).  The
    first partnerless secret word, in length-then-lexicographic order, is
    the disclosure witness.  A holds verdict is flagged approximate when
    ``maxlen`` does not reach the exactness bound for the observation
    lengths seen.
    """
    secret = system.accepting("Fphi") & system.accepting("F")
    normalized = with_set(system, "Fphi", secret)
    classes: dict[Word, Word | None] = {}
    longest_observation = 0
    for s in enumerate_language(normalized, "Fphi", maxlen).words:
        o = kind.observe(s)
        longest_observation = max(longest_observation, len(o))
        if o not in classes:
            classes[o] = nonsecret_partner(normalized, kind, o)
        if classes[o] is None:
            return OpacityVerdict(holds=False, witness=s)
    m = min(longest_observation, DEFAULT_OBSERVATION_CAP)
    approximate = maxlen < exactness_bound(m, len(system.states))
    return OpacityVerdict(holds=True, approximate=approximate)


def disclosing_class(system: Lts, w: Word, kind: ObservationKind, bound: int) -> tuple[Word, ...]:
    """Every word of the system language up to ``bound`` observed like ``w``."""
    if not system.accepts(w, "F"):
        raise InvalidModel(f"word {' '.join(w) or '(empty)'} is not in the system language")
    target = kind.observe(w)
    return tuple(u for u in enumerate_language(system, "F", bound).words if kind.observe(u) == target)
