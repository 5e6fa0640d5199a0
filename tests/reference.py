"""Reference routes the tests check the package against.

These are the textbook constructions the deciders no longer run: the
synchronous product, completion and complement, re-housing over another
partition of the same events (another observer among them), rebasing, a
breadth-first search for the shortest accepted word, the searches for a
secret preimage and a non-secret partner of an observation that copy the
word so far into every queue entry, the dead-end set as a fixpoint taken
round by round, the move map of an automaton read off its transitions,
direct simulation of a silent-move automaton, an isomorphism search,
inclusion decided as the product of one automaton with the complement of
the other, the natural-projection image of one
language as a deterministic automaton, the natural image automaton built
as a set of transition triples, the Orwellian image automaton built in
full before any search reads it, the reachable part of an automaton as a
value and its quotient by a map of states, successor subsets built
member by member without the per-state memo and the subset construction
over them that names each state by its subset, the two translations of
opacity written out layer by layer, the downgrade entry words picked by
comparing sort keys, the natural image as the deciders' image, and the
model parser that checks a file line by line.  Each
is written for clarity, not speed.  Beside them are the seeded random
silent-move automata and words that the automaton tests draw
(:func:`random_nfa`, :func:`random_word`); the random systems are the
package's own (:func:`opaqcheck.generate.random_system`).  The package
condenses every natural image by the hidden steps, one state per
component; the images here keep one state per system state, so the tests
compare the two through the component map (:func:`merged_part`), by
isomorphism of what they determinize to, or by the models they write; a
compiled pattern's fragment automaton too (:func:`pattern_images`).  Up
to :data:`opaqcheck.observation.MASK_COMPONENTS` components the package's
image is a mask view, which holds no move map; :func:`image_automaton`
gives the automaton it builds past that width.  That automaton is its move
map alone: the automata here are :class:`ExplicitNfa`, which adds named
accepting sets and reads its states and transitions (silent ones labeled
:data:`SILENT`) off the map."""

from __future__ import annotations

import io
import random
from collections import deque
from functools import cached_property
from typing import Callable, Iterable, NamedTuple
from unittest import mock

from opaqcheck import observation
from opaqcheck.automata import (
    EpsilonNfa,
    InvalidModel,
    Lts,
    PartitionedAlphabet,
    State,
    Word,
    determinize,
    entry_words,
    render_state,
    step,
    trim,
    with_set,
    word_sort_key,
)
from opaqcheck.modelfile import _ROLES, _SET_NAMES, ParseError
from opaqcheck.observation import CondensedImage, ObservationKind, _image, condensed_image, factorize
from opaqcheck.regexlang import _Parser


#: Label of silent transitions in a triple (source, label, target);
#: distinct from every event.
SILENT = None


class ExplicitNfa(EpsilonNfa):
    """:class:`opaqcheck.automata.EpsilonNfa` with named accepting sets, the
    form the tests build their explicit automata in, and its reachable
    ``states`` and ``transitions`` (triples, silent ones labeled
    :data:`SILENT`) read off the move map."""

    def __init__(self, alphabet: tuple[str, ...], initial: State, accepting_sets: dict, moves) -> None:
        super().__init__(alphabet, initial, moves)
        self.accepting_sets = accepting_sets

    @cached_property
    def states(self) -> frozenset:
        moves = self.moves
        seen = {self.initial}
        todo = [self.initial]
        while todo:
            silent, labeled = moves[todo.pop()]
            for r in [*silent, *(r for _, r in labeled)]:
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        return frozenset(seen)

    @cached_property
    def transitions(self) -> frozenset:
        moves = self.moves
        events = self.alphabet
        triples = set()
        for q in self.states:
            silent, labeled = moves[q]
            triples.update((q, SILENT, r) for r in silent)
            triples.update((q, events[i], r) for i, r in labeled)
        return frozenset(triples)


class Inclusion(NamedTuple):
    """Outcome of a language-inclusion check."""

    holds: bool
    counterexample: Word | None = None


def lts_parts(a: Lts) -> tuple:
    """Everything that makes up ``a``, for comparing two systems as values."""
    return a.alphabet, a.states, a.delta, a.initial, a.accepting_sets


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


def with_observable(a: Lts, observable: Iterable[str]) -> Lts:
    """The same system under another static observer: ``observable``
    becomes the observable class, in declaration order, the other events
    of the old class turn unobservable, and the rest keep their roles."""
    keep = set(observable)
    alpha = a.alphabet
    return with_alphabet(a, PartitionedAlphabet(
        tuple(e for e in alpha.events if e in keep),
        tuple(e for e in alpha.observable + alpha.unobservable if e not in keep),
        tuple(e for e in alpha.downgrading if e not in keep),
    ))


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


def move_map(alphabet: tuple[str, ...], states: Iterable[State], triples: Iterable[tuple]) -> dict:
    """The move map of ``states`` (see :class:`opaqcheck.automata.EpsilonNfa`),
    read off ``triples`` (source, label, target), each label in
    ``alphabet`` or SILENT."""
    index = {e: i for i, e in enumerate(alphabet)}
    index[SILENT] = None
    none: tuple = ((), ())
    moves = dict.fromkeys(states, none)
    for q, label, r in triples:
        entry = moves[q]
        if entry is none:
            entry = moves[q] = ([], [])
        i = index[label]
        if i is None:
            entry[0].append(r)
        else:
            entry[1].append((i, r))
    return moves


def explicit_nfa(alphabet: tuple[str, ...], states: Iterable[State], triples: Iterable[tuple], initial: State,
                 accepting_sets: dict) -> ExplicitNfa:
    """The automaton given by its transitions, triples (source, label,
    target), each label in ``alphabet`` or SILENT."""
    return ExplicitNfa(alphabet, initial, accepting_sets, move_map(alphabet, frozenset(states), triples))


def determinized(nfa: ExplicitNfa, alpha: PartitionedAlphabet) -> Lts:
    """:func:`opaqcheck.automata.determinize` of an explicit automaton, on
    frozensets: a subset is accepting when it meets ``nfa``'s set ``F``."""
    return determinize(nfa, nfa.accepting_sets["F"].__and__, alpha)


def image_automaton(a: Lts) -> CondensedImage:
    """:func:`opaqcheck.observation.condensed_image` of ``a`` in the form it
    takes past :data:`opaqcheck.observation.MASK_COMPONENTS`, an automaton of
    the components, with ``a``'s accepting sets lifted onto it."""
    with mock.patch.object(observation, "MASK_COMPONENTS", 0):
        nfa, component = condensed_image(a)
    sets = {name: frozenset(component[q] for q in members) for name, members in a.accepting_sets.items()}
    return CondensedImage(ExplicitNfa(nfa.alphabet, nfa.initial, sets, nfa.moves), component)


def pattern_images(pattern: str, alpha: PartitionedAlphabet) -> tuple[ExplicitNfa, CondensedImage]:
    """The fragment automaton of ``pattern`` that
    :func:`opaqcheck.compile_regex` determinizes, with one state per
    fragment state and its stop state in set ``F``, built from the
    parser's moves as triples; and the package's condensed image of it."""
    parser = _Parser(pattern, alpha.events)
    frag = parser.parse()
    triples = [(q, SILENT, r) for q, targets in parser.hidden.items() for r in targets]
    triples += [(q, e, r) for e, targets in zip(alpha.events, parser.steps) for q, r in targets.items()]
    nfa = explicit_nfa(alpha.events, parser.hidden, triples, frag.start, {"F": frozenset({frag.stop})})
    return nfa, _image(alpha.events, frag.start, parser.hidden, parser.steps)


def lts_to_nfa(a: Lts) -> ExplicitNfa:
    triples = [(q, e, r) for (q, e), r in a.delta.items()]
    return explicit_nfa(a.alphabet.events, a.states, triples, a.initial, dict(a.accepting_sets))


def nfa_accepts(nfa: ExplicitNfa, w: Word, set_name: str = "F") -> bool:
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
    return not current.isdisjoint(nfa.accepting_sets[set_name])


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


def shortest_secret_preimage_by_words(system: Lts, observation: Word, start: State) -> Word:
    """Shortest secret word (ties lexicographic) read from ``start`` and
    observed as ``observation`` under the natural projection, with the word
    so far copied into every queue entry."""
    keep = set(system.alphabet.observable)
    secret = system.accepting("Fphi") & system.accepting("F")

    def done(q, i):
        return i == len(observation) and q in secret

    if done(start, 0):
        return ()
    seen = {(start, 0)}
    queue = deque([(start, 0, ())])
    while queue:
        q, i, path = queue.popleft()
        for e in system.alphabet.events:
            r = system.delta.get((q, e))
            if r is None:
                continue
            j = i
            if e in keep:
                if i == len(observation) or observation[i] != e:
                    continue
                j = i + 1
            if (r, j) in seen:
                continue
            w = path + (e,)
            if done(r, j):
                return w
            seen.add((r, j))
            queue.append((r, j, w))
    raise AssertionError("observation came from the secret image but has no secret preimage")


def nonsecret_partner_by_words(system: Lts, kind: ObservationKind, observation: Word) -> Word | None:
    """Shortest word of the system language outside the secret with the
    given observation, or None, with the word so far copied into every
    queue entry."""
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
    seen = {(start, 0)}
    queue: deque[tuple[State, int, Word]] = deque([(start, 0, ())])
    while queue:
        q, i, path = queue.popleft()
        for e in system.alphabet.events:
            if e in kind.downgrading:
                continue
            r = system.delta.get((q, e))
            if r is None:
                continue
            j = i
            if e in kind.observable:
                if i == len(tail) or tail[i] != e:
                    continue
                j = i + 1
            if (r, j) in seen:
                continue
            w = path + (e,)
            if done(r, j):
                return fact.prefix + w
            seen.add((r, j))
            queue.append((r, j, w))
    return None


def universal_states_by_rounds(a: Lts, keep: Iterable[State]) -> tuple[frozenset, int]:
    """The states of ``keep`` whose every observable step stays in the set,
    as a greatest fixpoint taken round by round: each round drops every
    state with an observable step out of the set.  Also the number of
    rounds that dropped a state."""
    alive = set(keep)
    rounds = 0
    while True:
        out = {q for q in alive if any(a.delta.get((q, e)) not in alive for e in a.alphabet.observable)}
        if not out:
            return frozenset(alive), rounds
        alive -= out
        rounds += 1


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


def natural_image_nfa_triples(a: Lts, observable: Iterable[str]) -> ExplicitNfa:
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


def orwellian_image_nfa_eager(a: Lts) -> ExplicitNfa:
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


def reachable_part(nfa: ExplicitNfa) -> tuple:
    """Everything that makes up the part of ``nfa`` reachable from its
    initial state, for comparing two automata as values: the alphabet, the
    reachable states, the transitions among them, the initial state and
    the accepting sets cut down to them."""
    succ: dict[State, set] = {}
    for q, _, r in nfa.transitions:
        succ.setdefault(q, set()).add(r)
    seen = {nfa.initial}
    todo = [nfa.initial]
    while todo:
        for r in succ.get(todo.pop(), ()):
            if r not in seen:
                seen.add(r)
                todo.append(r)
    return (
        nfa.alphabet,
        frozenset(seen),
        frozenset(t for t in nfa.transitions if t[0] in seen),
        nfa.initial,
        {name: frozenset(members & seen) for name, members in nfa.accepting_sets.items()},
    )


def merged_part(part: tuple, merge: Callable[[State], State]) -> tuple:
    """A part of an automaton (see :func:`reachable_part`) with each state
    read as ``merge(state)``: the quotient by ``merge``, without the silent
    moves a merged state makes to itself."""
    alphabet, states, transitions, initial, sets = part
    merged = {(merge(q), label, merge(r)) for q, label, r in transitions}
    return (
        alphabet,
        frozenset(map(merge, states)),
        frozenset(t for t in merged if t[1] is not SILENT or t[0] != t[2]),
        merge(initial),
        {name: frozenset(map(merge, members)) for name, members in sets.items()},
    )


def shortest_words(a: Lts) -> dict[State, Word]:
    """For every reachable state the shortest word reaching it, ties broken
    lexicographically by event declaration order, in breadth-first
    discovery order; each word is kept whole."""
    paths: dict[State, Word] = {a.initial: ()}
    queue = [a.initial]
    for q in queue:
        for e in a.alphabet.events:
            r = a.delta.get((q, e))
            if r is not None and r not in paths:
                paths[r] = paths[q] + (e,)
                queue.append(r)
    return paths


def entry_words_by_sort_key(a: Lts) -> dict[State, Word]:
    """Per downgrade entry state, its entry word: each downgrading move
    from a reachable state offers the state's shortest word followed by
    the event, and the least offer by :func:`word_sort_key` wins; the keys
    in breadth-first discovery order."""
    paths = shortest_words(a)
    down = set(a.alphabet.downgrading)
    best: dict[State, Word] = {a.initial: ()}
    for (q, e), r in a.delta.items():
        if e not in down or q not in paths:
            continue
        cand = paths[q] + (e,)
        old = best.get(r)
        if old is None or word_sort_key(a.alphabet, cand) < word_sort_key(a.alphabet, old):
            if r != a.initial:
                best[r] = cand
    return {q: best[q] for q in paths if q in best}


class PerStateImage(CondensedImage):
    """A deciders' image in which each system state stands for itself."""

    def lift(self, states: Iterable[State]) -> frozenset:
        return frozenset(states)


def per_state_image(a: Lts) -> CondensedImage:
    """The deciders' image without condensing anything: the natural image
    of ``a`` under its observable class, built from its transitions
    (:func:`natural_image_nfa_triples`), each system state standing for
    itself."""
    return PerStateImage(natural_image_nfa_triples(a, a.alphabet.observable), {q: q for q in a.states})


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


def _subset_walk(nfa: EpsilonNfa) -> tuple[list[frozenset], dict]:
    # the reachable silent-closed subsets in breadth-first discovery order,
    # events in the automaton's alphabet order, and the steps between them
    start = nfa.epsilon_closure((nfa.initial,))
    order = [start]
    seen = {start}
    delta = {}
    for subset in order:
        for e, nxt in zip(nfa.alphabet, successor_row_by_buckets(nfa, subset)):
            delta[(subset, e)] = nxt
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return order, delta


def closed_subsets(nfa: EpsilonNfa) -> tuple[frozenset, ...]:
    """The silent-closed subsets the subset construction of ``nfa``
    reaches, in the order it discovers them: the subset that
    :func:`opaqcheck.automata.determinize` names ``k`` is the ``k``-th."""
    return tuple(_subset_walk(nfa)[0])


def determinize_by_subsets(nfa: ExplicitNfa, accepting: str, alpha: PartitionedAlphabet) -> Lts:
    """The subset construction with each state named by its silent-closed
    subset, rows rebuilt by :func:`successor_row_by_buckets`; a subset is
    in the named accepting set when it meets the source set."""
    order, delta = _subset_walk(nfa)
    marks = nfa.accepting_sets[accepting]
    return Lts(alpha, frozenset(order), delta, order[0],
               {accepting: frozenset(s for s in order if not s.isdisjoint(marks))})


def project_language(a: Lts, set_name: str, observable: Iterable[str]) -> Lts:
    """Automaton for the natural-projection image of one of ``a``'s languages.

    The subset construction of :func:`natural_image_nfa_triples` yields a
    complete deterministic automaton over the observable events whose
    language (under the same set name) is the image.
    """
    nfa = natural_image_nfa_triples(a, observable)
    return determinize_by_subsets(nfa, set_name, PartitionedAlphabet(observable=nfa.alphabet))


def _fresh_event(taken: tuple[str, ...]) -> str:
    name = "h"
    while name in taken:
        name += "h"
    return name


def layered_ni_nfa(system: Lts) -> tuple[ExplicitNfa, PartitionedAlphabet]:
    """The marked natural image that static opacity to NI determinizes,
    with both layers tagged, and the partition it is determinized under:
    the system copied as ``(q, 0)`` with hidden moves silent, and each
    secret state copied as ``(q, 1)``, entered by a fresh private event."""
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
    return nfa, PartitionedAlphabet(system.alphabet.observable, (high,))


def layered_opacity_to_ni(system: Lts) -> Lts:
    """Static opacity to NI: :func:`layered_ni_nfa`, determinized."""
    return trim(determinized(*layered_ni_nfa(system)))


def layered_ini_nfa(system: Lts) -> tuple[ExplicitNfa, PartitionedAlphabet]:
    """The marked Orwellian image that Orwellian opacity to INI
    determinizes, with every layer tagged, and the partition it is
    determinized under: the secret and non-secret states folded into the
    trimmed system as sets of their own, then the Orwellian image of that
    system (:func:`orwellian_image_nfa_eager`) with each secret image state
    copied as ``(x, 1)``, entered by a fresh private event."""
    f_states = system.accepting("F")
    secret = system.accepting("Fphi") & f_states
    trimmed = trim(with_set(with_set(system, "Fphi", secret), "_nonsecret", f_states - secret))
    base = orwellian_image_nfa_eager(trimmed)
    high = _fresh_event(system.alphabet.events)
    # the eager image's sets hold states that its initial state does not reach
    secret = base.accepting_sets["Fphi"] & base.states
    marked = {(x, 1) for x in secret}
    transitions = set(base.transitions) | {(x, high, (x, 1)) for x in secret}
    accepting = base.accepting_sets["_nonsecret"] | frozenset(marked)
    nfa = explicit_nfa(base.alphabet + (high,), base.states | marked, transitions, base.initial, {"F": accepting})
    alpha = system.alphabet
    return nfa, PartitionedAlphabet(alpha.observable, alpha.unobservable + (high,), alpha.downgrading)


def layered_opacity_to_ini(system: Lts) -> Lts:
    """Orwellian opacity to INI: :func:`layered_ini_nfa`, determinized."""
    return trim(determinized(*layered_ini_nfa(system)))


def parse_model_by_lines(text: str) -> Lts:
    """The model format of :mod:`opaqcheck.modelfile`, parsed and checked
    line by line, each fault raised as a :class:`ParseError` on the line
    that first shows it."""
    roles: dict[str, list[str]] = {"observable": [], "unobservable": [], "downgrading": []}
    declared_events: set[str] = set()
    states: set[str] = set()
    initial: str | None = None
    init_line = 0
    accepting: dict[str, tuple[int, list[str]]] = {}
    transitions: list[tuple[int, str, str, str]] = []
    lines = list(io.StringIO(text, newline=None))  # unlike str.splitlines, no break at \f, \x85, ...

    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        keyword, args = tokens[0], tokens[1:]
        if keyword == "alphabet":
            if not args or args[0] not in _ROLES:
                raise ParseError(line_no, "expected 'alphabet obs|unobs|down TOKEN...'")
            for e in args[1:]:
                if e in declared_events:
                    raise ParseError(line_no, f"event {e!r} declared twice")
                declared_events.add(e)
                roles[_ROLES[args[0]]].append(e)
        elif keyword == "states":
            for q in args:
                if q in states:
                    raise ParseError(line_no, f"state {q!r} declared twice")
                states.add(q)
        elif keyword == "init":
            if len(args) != 1:
                raise ParseError(line_no, "expected 'init TOKEN'")
            if initial is not None:
                raise ParseError(line_no, "init declared twice")
            initial, init_line = args[0], line_no
        elif keyword == "accept":
            if not args or not args[0].endswith(":"):
                raise ParseError(line_no, "expected 'accept NAME: TOKEN...'")
            name = args[0][:-1]
            if name not in _SET_NAMES:
                raise ParseError(line_no, f"accepting set must be one of {', '.join(_SET_NAMES)}")
            if name in accepting:
                raise ParseError(line_no, f"accepting set {name} declared twice")
            accepting[name] = (line_no, args[1:])
        elif keyword == "trans":
            if len(args) != 3:
                raise ParseError(line_no, "expected 'trans SRC EVENT DST'")
            transitions.append((line_no, *args))
        else:
            raise ParseError(line_no, f"unknown directive {keyword!r}")

    if initial is None:
        raise ParseError(len(lines) + 1, "missing init")
    if initial not in states:
        raise ParseError(init_line, f"init state {initial!r} not declared")
    if not accepting:
        raise ParseError(len(lines) + 1, "missing accept line")
    for name, (line_no, members) in accepting.items():
        for q in members:
            if q not in states:
                raise ParseError(line_no, f"accepting set {name} uses undeclared state {q!r}")

    alpha = PartitionedAlphabet(
        tuple(roles["observable"]), tuple(roles["unobservable"]), tuple(roles["downgrading"])
    )
    # one map per event, in alphabet order, each in the order of its lines
    steps: dict[str, dict[str, str]] = {e: {} for e in alpha.events}
    for line_no, src, event, dst in transitions:
        if src not in states:
            raise ParseError(line_no, f"undeclared state {src!r}")
        if dst not in states:
            raise ParseError(line_no, f"undeclared state {dst!r}")
        if event not in declared_events:
            raise ParseError(line_no, f"undeclared event {event!r}")
        if src in steps[event]:
            raise ParseError(line_no, f"duplicate transition source ({src}, {event}) breaks determinism")
        steps[event][src] = dst

    sets = {name: frozenset(members) for name, (_, members) in accepting.items()}
    return Lts.derived(alpha, frozenset(states), tuple(steps.values()), initial, sets)


def random_nfa(
    rng: random.Random,
    *,
    max_states: int = 8,
    events: tuple[str, ...] = ("a", "b"),
    density: float = 0.3,
    silent_density: float = 0.15,
) -> ExplicitNfa:
    """A random automaton with silent moves and accepting set ``F``."""
    n = rng.randint(1, max_states)
    states = [f"n{i}" for i in range(n)]
    transitions = set()
    for q in states:
        for e in events:
            if rng.random() < density:
                transitions.add((q, e, states[rng.randrange(n)]))
        if rng.random() < silent_density:
            transitions.add((q, SILENT, states[rng.randrange(n)]))
    accepting = frozenset(q for q in states if rng.random() < 0.4)
    return ExplicitNfa(events, "n0", {"F": accepting}, move_map(events, states, transitions))


def random_word(rng: random.Random, events: tuple[str, ...], maxlen: int) -> Word:
    return tuple(rng.choice(events) for _ in range(rng.randint(0, maxlen)))
