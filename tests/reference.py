"""Reference routes the tests check the package against.

These are the textbook constructions the deciders no longer run: the
synchronous product, completion and complement, re-housing over another
partition of the same events, rebasing, a breadth-first search for the
shortest accepted word, direct simulation of a silent-move automaton, an
isomorphism search, inclusion decided as the product of one automaton
with the complement of the other, the natural-projection image of one
language as a deterministic automaton, the natural image automaton built
as a set of transition triples, the Orwellian image automaton built in
full before any search reads it, successor subsets built member by member
without the per-state memo, and the two translations of opacity written
out layer by layer.  Each is written for clarity, not speed.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, NamedTuple

from opaqcheck.automata import (
    SILENT,
    EpsilonNfa,
    InvalidModel,
    Lts,
    PartitionedAlphabet,
    State,
    Word,
    determinize,
    entry_words,
    move_map,
    render_state,
    trim,
    with_set,
)
from opaqcheck.observation import natural_image_nfa, orwellian_image_nfa


class Inclusion(NamedTuple):
    """Outcome of a language-inclusion check."""

    holds: bool
    counterexample: Word | None = None


def rebase(a: Lts, q: State) -> Lts:
    """The same automaton started from ``q``."""
    if q not in a.states:
        raise InvalidModel(f"unknown state {render_state(q)}")
    return Lts(a.alphabet, a.states, a.delta, q, a.accepting_sets)


def with_alphabet(a: Lts, alpha: PartitionedAlphabet) -> Lts:
    """Re-house the automaton over a wider (or re-partitioned) alphabet."""
    used = {e for (_, e) in a.delta}
    if not used <= set(alpha.events):
        raise InvalidModel("new alphabet misses events in use")
    return Lts(alpha, a.states, a.delta, a.initial, a.accepting_sets)


def product(a: Lts, b: Lts) -> Lts:
    """Synchronous product, trimmed to reachable pairs.

    A step is defined exactly when both components step; accepting sets are
    left for the caller to attach (components are readable off the pair
    states).
    """
    if a.alphabet.events != b.alphabet.events:
        raise InvalidModel("product requires identical alphabets")
    start = (a.initial, b.initial)
    states = {start}
    delta: dict[tuple[State, str], State] = {}
    queue = deque([start])
    while queue:
        (p, q) = queue.popleft()
        for e in a.alphabet.events:
            pa = a.delta.get((p, e))
            qb = b.delta.get((q, e))
            if pa is None or qb is None:
                continue
            nxt = (pa, qb)
            delta[((p, q), e)] = nxt
            if nxt not in states:
                states.add(nxt)
                queue.append(nxt)
    return Lts(a.alphabet, frozenset(states), delta, start, {})


def complete(a: Lts) -> Lts:
    """Total-ize the step function by adding one fresh non-accepting sink."""
    sink = "sink"
    while sink in a.states:
        sink += "_"
    states = a.states | {sink}
    delta = dict(a.delta)
    for q in states:
        for e in a.alphabet.events:
            delta.setdefault((q, e), sink)
    return Lts(a.alphabet, states, delta, a.initial, a.accepting_sets)


def is_complete(a: Lts) -> bool:
    return all((q, e) in a.delta for q in a.states for e in a.alphabet.events)


def complement(a: Lts, set_name: str) -> Lts:
    """Complete, then flip membership of the named accepting set."""
    done = complete(a)
    sets = dict(done.accepting_sets)
    sets[set_name] = done.states - done.accepting(set_name)
    return Lts(done.alphabet, done.states, done.delta, done.initial, sets)


def explicit_nfa(alphabet: tuple[str, ...], states: Iterable[State], triples: Iterable[tuple], initial: State,
                 accepting_sets: dict) -> EpsilonNfa:
    """The automaton given by its transitions, triples (source, label,
    target), each label in ``alphabet`` or SILENT."""
    states = frozenset(states)
    return EpsilonNfa(alphabet, states, initial, accepting_sets, move_map(alphabet, states, triples))


def lts_to_nfa(a: Lts) -> EpsilonNfa:
    triples = [(q, e, r) for (q, e), r in a.delta.items()]
    return explicit_nfa(a.alphabet.events, a.states, triples, a.initial, dict(a.accepting_sets))


def nfa_accepts(nfa: EpsilonNfa, w: Word, set_name: str = "F") -> bool:
    """Direct simulation of a silent-move automaton on ``w``."""
    moves: dict[tuple[State, str | None], set] = {}
    for q, label, r in nfa.transitions:
        moves.setdefault((q, label), set()).add(r)

    def closed(states: Iterable[State]) -> set:
        todo = list(states)
        seen = set(todo)
        while todo:
            for r in moves.get((todo.pop(), SILENT), ()):
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        return seen

    current = closed([nfa.initial])
    for e in w:
        current = closed(r for q in current for r in moves.get((q, e), ()))
    return not current.isdisjoint(nfa.accepting(set_name))


def shortest_accepted(a: Lts, target: Callable[[State], bool] | Iterable[State]) -> Word | None:
    """Shortest word reaching a target state, lexicographically least among
    the shortest; None when no target state is reachable."""
    if not callable(target):
        members = frozenset(target)
        target = lambda q: q in members  # noqa: E731
    if target(a.initial):
        return ()
    seen = {a.initial}
    queue: deque[tuple[State, Word]] = deque([(a.initial, ())])
    while queue:
        q, path = queue.popleft()
        for e in a.alphabet.events:
            r = a.delta.get((q, e))
            if r is None or r in seen:
                continue
            w = path + (e,)
            if target(r):
                return w
            seen.add(r)
            queue.append((r, w))
    return None


def includes(a: Lts, a_set: str, b: Lts, b_set: str) -> Inclusion:
    """Inclusion of ``a``'s language in ``b``'s, decided as the product of
    ``a`` with the complement of ``b``: on failure the counterexample is
    the shortest word of the difference, lexicographically least among the
    shortest."""
    b_comp = complement(b, b_set)
    in_a = a.accepting(a_set)
    in_comp = b_comp.accepting(b_set)
    w = shortest_accepted(product(a, b_comp), lambda pq: pq[0] in in_a and pq[1] in in_comp)
    return Inclusion(w is None, w)


def incorporate_secret_by_product(g: Lts, f: str, g_phi: Lts, f_phi: str) -> Lts:
    """The secret fold as a chain of constructions: re-house the secret over
    the system's partition, complete it when its step function is partial,
    then take the product with the system."""
    if set(g.alphabet.events) != set(g_phi.alphabet.events):
        raise InvalidModel("secret automaton must share the system alphabet")
    phi = with_alphabet(g_phi, g.alphabet)
    if not is_complete(phi):
        phi = complete(phi)
    pairs = product(g, phi)
    f_states = g.accepting(f)
    phi_states = phi.accepting(f_phi)
    return Lts(
        pairs.alphabet,
        pairs.states,
        pairs.delta,
        pairs.initial,
        {
            "F": frozenset(s for s in pairs.states if s[0] in f_states),
            "Fphi": frozenset(s for s in pairs.states if s[0] in f_states and s[1] in phi_states),
        },
    )


def find_isomorphism(a: Lts, b: Lts, check_sets: bool = True) -> dict | None:
    """State bijection matching initial states, steps and (optionally)
    accepting sets; None when there is none.  Expects trimmed automata."""
    if a.alphabet.events != b.alphabet.events:
        return None
    if len(a.states) != len(b.states):
        return None
    fwd = {a.initial: b.initial}
    bwd = {b.initial: a.initial}
    queue = deque([a.initial])
    while queue:
        p = queue.popleft()
        q = fwd[p]
        for e in a.alphabet.events:
            pa = a.delta.get((p, e))
            qb = b.delta.get((q, e))
            if (pa is None) != (qb is None):
                return None
            if pa is None:
                continue
            if pa in fwd:
                if fwd[pa] != qb:
                    return None
                continue
            if qb in bwd:
                return None
            fwd[pa] = qb
            bwd[qb] = pa
            queue.append(pa)
    if len(fwd) != len(a.states):
        return None
    if check_sets:
        if set(a.accepting_sets) != set(b.accepting_sets):
            return None
        for name, members in a.accepting_sets.items():
            if {fwd[s] for s in members} != set(b.accepting(name)):
                return None
    return fwd


def natural_image_nfa_triples(a: Lts, observable: Iterable[str]) -> EpsilonNfa:
    """The natural image automaton given by its transitions: each of
    ``a``'s moves as a triple, observable events kept and the others
    silent, the alphabet the observable events in declaration order."""
    keep = set(observable)
    unknown = keep - set(a.alphabet.events)
    if unknown:
        raise InvalidModel(f"unknown events {sorted(unknown)}")
    return explicit_nfa(
        tuple(e for e in a.alphabet.events if e in keep),
        a.states,
        [(q, e if e in keep else SILENT, r) for (q, e), r in a.delta.items()],
        a.initial,
        dict(a.accepting_sets),
    )


def orwellian_image_nfa_eager(a: Lts) -> EpsilonNfa:
    """The Orwellian image automaton with every state and transition built
    up front: a verbatim prefix layer ``("pre", q)``, one continuation
    component ``("post", q, r)`` per downgrade entry state ``q``, and a
    fresh start ``("in",)`` entering both silently.  A downgrading move
    jumps into the component of its target only when that target is an
    entry state, which every reachable downgrade target is."""
    alpha = a.alphabet
    low = set(alpha.observable)
    down = set(alpha.downgrading)
    entries = set(entry_words(a))
    start: State = ("in",)
    states = {start}
    states |= {("pre", q) for q in a.states}
    states |= {("post", q, r) for q in entries for r in a.states}
    transitions = {
        (start, SILENT, ("pre", a.initial)),
        (start, SILENT, ("post", a.initial, a.initial)),
    }
    for (q, e), r in a.delta.items():
        transitions.add((("pre", q), e, ("pre", r)))
        if e in down and r in entries:
            transitions.add((("pre", q), e, ("post", r, r)))
    for q in entries:
        for (r, e), r2 in a.delta.items():
            if e in down:
                continue
            transitions.add((("post", q, r), e if e in low else SILENT, ("post", q, r2)))
    accepting = {
        name: frozenset(("post", q, r) for q in entries for r in members)
        for name, members in a.accepting_sets.items()
    }
    return explicit_nfa(alpha.events, states, transitions, start, accepting)


def successor_row_by_buckets(nfa: EpsilonNfa, subset: Iterable[State]) -> tuple[frozenset, ...]:
    """The silent-closed successor of ``subset`` on each event, in alphabet
    order, rebuilt from scratch: every member's labeled targets go into one
    bucket per event, then the silent closure of each target is added."""
    moves = nfa.moves
    buckets: list[set] = [set() for _ in nfa.alphabet]
    for q in subset:
        for i, r in moves[q][1]:
            buckets[i].add(r)
    for moved in buckets:
        for q in [q for q in moved if moves[q][0]]:
            moved |= nfa.epsilon_closure((q,))
    return tuple(frozenset(moved) for moved in buckets)


def project_language(a: Lts, set_name: str, observable: Iterable[str]) -> Lts:
    """Automaton for the natural-projection image of one of ``a``'s languages.

    The subset construction of :func:`natural_image_nfa` yields a complete
    deterministic automaton over the observable events whose language
    (under the same set name) is the image.
    """
    nfa = natural_image_nfa(a, observable)
    return determinize(nfa, set_name, PartitionedAlphabet(observable=nfa.alphabet))


def _fresh_event(taken: tuple[str, ...]) -> str:
    name = "h"
    while name in taken:
        name += "h"
    return name


def layered_opacity_to_ni(system: Lts) -> Lts:
    """Static opacity to NI, with both layers tagged: the system copied as
    ``(q, 0)`` with hidden moves silent, and each secret state copied as
    ``(q, 1)``, entered by a fresh private event."""
    kept = set(system.alphabet.observable)
    f_states = system.accepting("F")
    secret = system.accepting("Fphi") & f_states
    high = _fresh_event(system.alphabet.events)
    states = {(q, 0) for q in system.states} | {(q, 1) for q in secret}
    transitions = {((q, 0), e if e in kept else SILENT, (r, 0)) for (q, e), r in system.delta.items()}
    transitions |= {((q, 0), high, (q, 1)) for q in secret}
    accepting = frozenset((q, 0) for q in f_states - secret) | frozenset((q, 1) for q in secret)
    order = tuple(e for e in system.alphabet.events if e in kept) + (high,)
    nfa = explicit_nfa(order, states, transitions, (system.initial, 0), {"F": accepting})
    return trim(determinize(nfa, "F", PartitionedAlphabet(system.alphabet.observable, (high,))))


def layered_opacity_to_ini(system: Lts) -> Lts:
    """Orwellian opacity to INI: the secret and non-secret states folded
    into the system as sets of their own, then the Orwellian image of that
    system with each secret image state copied as ``(x, 1)``, entered by a
    fresh private event."""
    f_states = system.accepting("F")
    secret = system.accepting("Fphi") & f_states
    trimmed = trim(with_set(with_set(system, "Fphi", secret), "_nonsecret", f_states - secret))
    base = orwellian_image_nfa(trimmed)
    high = _fresh_event(system.alphabet.events)
    marked = {(x, 1) for x in base.accepting("Fphi")}
    transitions = set(base.transitions) | {(x, high, (x, 1)) for x in base.accepting("Fphi")}
    accepting = base.accepting("_nonsecret") | frozenset(marked)
    nfa = explicit_nfa(base.alphabet + (high,), base.states | marked, transitions, base.initial, {"F": accepting})
    alpha = system.alphabet
    partition = PartitionedAlphabet(alpha.observable, alpha.unobservable + (high,), alpha.downgrading)
    return trim(determinize(nfa, "F", partition))
