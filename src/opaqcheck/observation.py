"""Observation functions: what an attacker sees of a run.

A static observer sees the observable events only (natural projection).  An
Orwellian observer additionally learns, retroactively, everything up to the
last downgrading event: the prefix up to that event is reported verbatim
and only the remainder is filtered through the natural projection.

The image automata here turn one observer into one :class:`EpsilonNfa`
whose words are the observations.  The natural image copies the system
with hidden moves made silent, its move map read straight off the system's
step function.  The Orwellian image holds one continuation
copy per downgrade entry state, so it is explored on demand: its states
are declared up front, but a state's moves are computed from the system's
step function only when a search first reaches it.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .automata import (
    SILENT,
    EpsilonNfa,
    InvalidModel,
    Lts,
    MovesOnDemand,
    State,
    Word,
    entry_words,
    move_map,
    state_order,
    word_sort_key,
)
from .verdicts import SubCheck


def project_natural(s: Word, observable: Iterable[str]) -> Word:
    """Erase every event outside ``observable``, preserving order."""
    keep = set(observable)
    return tuple(e for e in s if e in keep)


class Factorization(NamedTuple):
    """Unique split of a word at its last downgrading event.

    ``prefix`` is empty or ends with a downgrading event; ``continuation``
    contains none; their concatenation is the original word.
    """

    prefix: Word
    continuation: Word


def factorize(s: Word, downgrading: Iterable[str]) -> Factorization:
    down = set(downgrading)
    cut = 0
    for i, e in enumerate(s):
        if e in down:
            cut = i + 1
    return Factorization(s[:cut], s[cut:])


def project_orwellian(s: Word, observable: Iterable[str], downgrading: Iterable[str]) -> Word:
    """Keep the prefix up to the last downgrading event verbatim and
    naturally project the rest.

    Closed form of the rightmost-event recursion (emit downgrading events
    with their full past, keep observable events, drop the rest); linear
    and stackless.  With no downgrading events this is the natural
    projection.
    """
    f = factorize(s, downgrading)
    return f.prefix + project_natural(f.continuation, observable)


class ObservationKind(NamedTuple):
    """A concrete observer: which events it sees directly and which events
    retroactively reveal their past."""

    observable: frozenset
    downgrading: frozenset = frozenset()

    @classmethod
    def natural(cls, observable: Iterable[str]) -> "ObservationKind":
        return cls(frozenset(observable))

    @classmethod
    def orwellian(cls, observable: Iterable[str], downgrading: Iterable[str]) -> "ObservationKind":
        return cls(frozenset(observable), frozenset(downgrading))

    def observe(self, s: Word) -> Word:
        return project_orwellian(s, self.observable, self.downgrading)


def per_entry(system: Lts, local: Callable[[State], Word | None]) -> tuple[Word | None, tuple[SubCheck, ...]]:
    """Run one downgrade-free check per downgrade entry state ``q`` of the
    trimmed ``system``; ``local(q)`` returns its witness read from ``q``, or
    None.  Returns the least global witness (the entry word of ``q`` followed
    by its local witness; None when every check holds) and one sub-check per
    entry state, in canonical state order."""
    entries = entry_words(system)
    found = {q: local(q) for q in state_order(system) if q in entries}
    witnesses = [entries[q] + w for q, w in found.items() if w is not None]
    witness = min(witnesses, key=lambda w: word_sort_key(system.alphabet, w), default=None)
    return witness, tuple(SubCheck(q, w is None, w) for q, w in found.items())


def natural_image_nfa(a: Lts, observable: Iterable[str]) -> EpsilonNfa:
    """Nondeterministic automaton for the natural-projection images of
    ``a``'s languages, one accepting set per source set.

    Transitions on ``observable`` events are kept and all others turn
    silent; the alphabet is the observable events in ``a``'s declaration
    order.  The move map is read straight off ``a``'s step function, which
    ``a`` has validated; the ``transitions`` are built only when read.
    """
    keep = set(observable)
    unknown = keep - set(a.alphabet.events)
    if unknown:
        raise InvalidModel(f"unknown events {sorted(unknown)}")
    events = tuple(e for e in a.alphabet.events if e in keep)
    moves = move_map(events, a.states, ((q, e if e in keep else SILENT, r) for (q, e), r in a.delta.items()))
    return EpsilonNfa(events, a.states, None, a.initial, dict(a.accepting_sets), moves)


def orwellian_image_nfa(a: Lts) -> EpsilonNfa:
    """Nondeterministic automaton for the Orwellian-projection images of
    ``a``'s languages, one accepting set per source set.

    An image word is a verbatim prefix ending at a downgrading event (or
    empty) followed by the natural projection of a downgrade-free
    continuation.  The automaton has a verbatim prefix layer copying the
    system (``("pre", q)``); every downgrading move into a downgrade entry
    state ``q`` additionally jumps into a continuation component rooted at
    ``q`` (``("post", q, r)``), where unobservable moves turn silent and
    downgrading moves are dropped.  A fresh start state ``("in",)`` also
    enters the initial state's component silently, covering runs with no
    downgrade.

    The automaton is explored on demand: a state's moves are computed from
    ``a``'s step function when a search first reaches it, so a search that
    stops early never builds the continuation components it does not
    enter.  Its ``transitions`` are built only when read.

    Note the image alphabet is the full source alphabet: prefixes keep
    their unobservable events.
    """
    events = a.alphabet.events
    low = set(a.alphabet.observable)
    down = set(a.alphabet.downgrading)
    delta = a.delta
    entries = set(entry_words(a))
    start: State = ("in",)
    states = frozenset(
        [start, *[("pre", q) for q in a.states], *[("post", q, r) for q in entries for r in a.states]]
    )
    steps = {
        q: [(i, e, delta[(q, e)]) for i, e in enumerate(events) if (q, e) in delta]
        for q in a.states
    }

    def expand(x: State) -> tuple[tuple, list]:
        if x == start:
            return (("pre", a.initial), ("post", a.initial, a.initial)), []
        if x[0] == "pre":
            labeled = []
            for i, e, r in steps[x[1]]:
                labeled.append((i, ("pre", r)))
                if e in down and r in entries:
                    labeled.append((i, ("post", r, r)))
            return (), labeled
        _, q, r = x
        silent = []
        labeled = []
        for i, e, r2 in steps[r]:
            if e in low:
                labeled.append((i, ("post", q, r2)))
            elif e not in down:
                silent.append(("post", q, r2))
        return silent, labeled

    accepting = {
        name: frozenset({("post", q, r) for q in entries for r in members})
        for name, members in a.accepting_sets.items()
    }
    return EpsilonNfa(events, states, None, start, accepting, MovesOnDemand(expand, states))
