"""Finite automata and the few constructions the deciders run on.

Two representations are used throughout: a deterministic labeled transition
system with a partial step function (``Lts``) and a nondeterministic
automaton with silent moves (``EpsilonNfa``), the intermediate form of
projection images and the layered reduction constructions.

Every inclusion is decided on the fly by :func:`subset_pair_search`, which
walks pairs (subset of an automaton's states, state of a deterministic
system) breadth first and stops at the first escaping word; nothing is
determinized, complemented or multiplied out for it.  :func:`determinize`
serves the constructions whose output is itself an automaton, and both read
successor subsets from one memo per automaton
(:meth:`EpsilonNfa.successor_row`).  A successor subset is the per-event
union of its members' closed successors, which the memo computes once per
state from the silent closures of the state's targets.  The memo reads
an automaton's per-state move map (:attr:`EpsilonNfa.moves`), which is
the automaton: built by :func:`move_map` from an explicit automaton's
transitions or straight off the validated source of a derived one, or
computed state by state on first lookup (:class:`MovesOnDemand`), so that
a search expands only the states it reaches; no map is checked again.
Besides these, the module holds what the deciders and translations split
and fold their inputs with: trimming, restriction to fewer events, the
downgrade entry states (:func:`entry_words`) and the fold of a secret
into a system (:func:`incorporate_secret`).

States are opaque hashable tokens.  Constructions produce structured names
(pairs for products, frozensets for subset states); :func:`render_state`
turns them into canonical whitespace-free strings for reports and
serialized models.

Nothing here modifies an automaton after construction, apart from memos of
derived data (the move map of an automaton explored on demand is one), and
every operation is a pure function of its inputs, so concurrent use needs
no coordination.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping

State = Hashable
Word = tuple[str, ...]

#: Label of silent transitions in an EpsilonNfa; distinct from every event.
SILENT = None

#: Stand-in state of a deterministic automaton once its step is undefined.
DEAD = object()


class InvalidModel(ValueError):
    """Malformed automaton, alphabet, or operation input."""


def word(text: str) -> Word:
    """Split a space-separated event string into a word."""
    return tuple(text.split())


def format_word(w: Iterable[str]) -> str:
    """Render a word as space-separated event tokens."""
    return " ".join(w)


def render_state(q: State, memo: dict | None = None) -> str:
    """Canonical whitespace-free name for a possibly structured state.

    ``memo`` maps structured states already named to their names; share
    one across calls that name states with common parts, so each part is
    rendered once.
    """
    if not isinstance(q, (tuple, frozenset)):
        return str(q)
    if memo is None:
        memo = {}
    name = memo.get(q)
    if name is None:
        if isinstance(q, tuple):
            name = "(" + ",".join([render_state(p, memo) for p in q]) + ")"
        else:
            name = "{" + ",".join(sorted([render_state(p, memo) for p in q])) + "}"
        memo[q] = name
    return name


class PartitionedAlphabet:
    """Event set split into disjoint observability roles.

    Interference checks read the same roles as Low (observable), High
    (unobservable) and Down (downgrading).  Event order is declaration
    order, observable class first; it fixes the lexicographic order used
    when counterexamples and witnesses are tie-broken.  Two alphabets are
    equal when their three roles are.
    """

    def __init__(
        self,
        observable: tuple[str, ...] = (),
        unobservable: tuple[str, ...] = (),
        downgrading: tuple[str, ...] = (),
    ) -> None:
        ordered = observable + unobservable + downgrading
        for e in ordered:
            if not isinstance(e, str) or not e or any(c.isspace() for c in e):
                raise InvalidModel(f"bad event token {e!r}")
        if len(set(ordered)) != len(ordered):
            raise InvalidModel("alphabet classes overlap or repeat an event")
        self.observable = observable
        self.unobservable = unobservable
        self.downgrading = downgrading
        self.events = ordered
        self._index = {e: i for i, e in enumerate(ordered)}

    def _roles(self) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        return self.observable, self.unobservable, self.downgrading

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._roles() == other._roles()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._roles())

    def __repr__(self) -> str:
        return "PartitionedAlphabet(observable=%r, unobservable=%r, downgrading=%r)" % self._roles()

    def __contains__(self, e: object) -> bool:
        return e in self._index

    def index(self, e: str) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise InvalidModel(f"unknown event {e!r}") from None

    def restricted(self, keep: Iterable[str]) -> "PartitionedAlphabet":
        """The sub-alphabet containing only ``keep``, roles preserved."""
        kept = set(keep)
        unknown = kept - set(self.events)
        if unknown:
            raise InvalidModel(f"unknown events {sorted(unknown)}")
        return PartitionedAlphabet(
            tuple(e for e in self.observable if e in kept),
            tuple(e for e in self.unobservable if e in kept),
            tuple(e for e in self.downgrading if e in kept),
        )


def alphabet(observable: str = "", unobservable: str = "", downgrading: str = "") -> PartitionedAlphabet:
    """Build an alphabet from space-separated event tokens."""
    return PartitionedAlphabet(tuple(observable.split()), tuple(unobservable.split()), tuple(downgrading.split()))


def word_sort_key(alpha: PartitionedAlphabet, w: Word) -> tuple[int, tuple[int, ...]]:
    """Shortest-then-lexicographic order key, event order per declaration."""
    return (len(w), tuple(alpha.index(e) for e in w))


class Lts:
    """Deterministic labeled transition system with a partial step function.

    ``accepting_sets`` maps set names to state sets so several languages
    (typically ``F`` for the system language and ``Fphi`` for a secret)
    ride the same automaton.  Construction validates the parts (see
    ``__post_init__``), except in :func:`determinize`, whose output is valid
    by construction; two automata are equal only when they are the same
    object.
    """

    def __init__(
        self,
        alphabet: PartitionedAlphabet,
        states: frozenset,
        delta: Mapping[tuple[State, str], State],
        initial: State,
        accepting_sets: Mapping[str, frozenset],
    ) -> None:
        self.alphabet = alphabet
        self.states = states
        self.delta = delta
        self.initial = initial
        self.accepting_sets = accepting_sets
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the parts; a method of its own, so that constructions
        can be counted or timed by wrapping it."""
        if self.initial not in self.states:
            raise InvalidModel(f"initial state {render_state(self.initial)} not declared")
        for (q, e), r in self.delta.items():
            if q not in self.states or r not in self.states:
                raise InvalidModel(f"transition {render_state(q)} -{e}-> {render_state(r)} uses undeclared state")
            if e not in self.alphabet:
                raise InvalidModel(f"transition on undeclared event {e!r}")
        for name, members in self.accepting_sets.items():
            if not members <= self.states:
                raise InvalidModel(f"accepting set {name} contains undeclared states")

    def accepting(self, name: str) -> frozenset:
        try:
            return self.accepting_sets[name]
        except KeyError:
            raise InvalidModel(f"automaton has no accepting set named {name!r}") from None

    def accepts(self, w: Word, set_name: str = "F") -> bool:
        q = step(self, self.initial, w)
        return q is not None and q in self.accepting(set_name)


class EpsilonNfa:
    """Nondeterministic automaton with silent (``SILENT``-labeled) moves.

    It is its move map ``moves``, one entry per state: the state's silent
    targets, then one ``(event index, target)`` pair per labeled move, the
    index into ``alphabet``.  The map is built by :func:`move_map` from an
    explicit automaton's transitions, read off a derived one's source, or
    computed on demand (:class:`MovesOnDemand`); it is not checked, since
    the package builds it from a validated source.  The ``transitions``
    are read off the map, expanding every state, only when asked for.

    Construction checks the initial state and the accepting sets (see
    ``__post_init__``); two automata are equal only when they are the same
    object.
    """

    def __init__(
        self,
        alphabet: tuple[str, ...],
        states: frozenset,
        initial: State,
        accepting_sets: Mapping[str, frozenset],
        moves: Mapping[State, tuple],
    ) -> None:
        self.alphabet = alphabet
        self.states = states
        self.initial = initial
        self.accepting_sets = accepting_sets
        self.moves = moves
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the initial state and the accepting sets; a method of its
        own, as :meth:`Lts.__post_init__`."""
        if self.initial not in self.states:
            raise InvalidModel("initial state not declared")
        for name, members in self.accepting_sets.items():
            if not members <= self.states:
                raise InvalidModel(f"accepting set {name} contains undeclared states")

    def accepting(self, name: str) -> frozenset:
        try:
            return self.accepting_sets[name]
        except KeyError:
            raise InvalidModel(f"automaton has no accepting set named {name!r}") from None

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

    def epsilon_closure(self, seed: Iterable[State]) -> frozenset:
        moves = self.moves
        todo = list(seed)
        seen = set(todo)
        while todo:
            for r in moves[todo.pop()][0]:
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        return frozenset(seen)

    @cached_property
    def _subset_memo(self) -> tuple[dict, dict, dict, dict]:
        # per state its silent closure and its closed successors (post),
        # interned subsets, successor rows
        return {}, {}, {}, {}

    def closed_state(self, q: State) -> frozenset:
        """The silent closure of ``q``, as an interned subset."""
        closures, _, interned, _ = self._subset_memo
        c = closures.get(q)
        if c is None:
            c = self.epsilon_closure((q,))
            c = closures[q] = interned.setdefault(c, c)
        return c

    def _post(self, q: State) -> tuple[frozenset, ...]:
        # q's closed successors, kept in the memo: per event, the union of
        # the closures of q's targets on it, interned
        _, posts, interned, _ = self._subset_memo
        union = [frozenset()] * len(self.alphabet)
        for i, r in self.moves[q][1]:
            c = self.closed_state(r)
            union[i] = union[i] | c if union[i] else c
        post = posts[q] = tuple(map(interned.setdefault, union, union))
        return post

    def successor_row(self, subset: frozenset) -> tuple[frozenset, ...]:
        """The silent-closed successor of ``subset`` on each event, in
        alphabet order, memoised with the closures and (interned) subsets.

        The row is the per-event union of the members' closed successors
        (per event, the union of the silent closures of the member's
        targets), which are computed once per state; a singleton's row is
        its member's closed successors."""
        _, posts, interned, rows = self._subset_memo
        row = rows.get(subset)
        if row is not None:
            return row
        post = self._post
        members = [posts[q] if q in posts else post(q) for q in subset]
        if len(members) == 1:
            row = members[0]
        else:
            union = list(map(frozenset().union, *members)) if members else [frozenset()] * len(self.alphabet)
            row = tuple(map(interned.setdefault, union, union))
        rows[subset] = row
        return row


def move_map(alphabet: tuple[str, ...], states: Iterable[State], triples: Iterable[tuple]) -> dict:
    """The move map of ``states`` (see :class:`EpsilonNfa`), read off
    ``triples`` (source, label, target), each label in ``alphabet`` or SILENT."""
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


class MovesOnDemand(dict):
    """Move map of an :class:`EpsilonNfa` explored on demand.

    The first lookup of a state calls ``expand(state)``, package code over
    a validated source, and keeps the entry it returns unchecked.  So a
    search pays only for the states it reaches, and the map's length
    counts them.
    """

    def __init__(self, expand: Callable[[State], tuple]) -> None:
        super().__init__()
        self._expand = expand

    def __missing__(self, q: State) -> tuple:
        entry = self[q] = self._expand(q)
        return entry

# ---------------------------------------------------------------------------
# walking and reachability


def step(a: Lts, q: State, s: Word) -> State | None:
    """Run the partial step function from ``q`` over ``s``.

    Returns the reached state, or None as soon as a step is undefined.
    """
    if q not in a.states:
        raise InvalidModel(f"unknown state {render_state(q)}")
    for e in s:
        if e not in a.alphabet:
            raise InvalidModel(f"unknown event {e!r}")
        q = a.delta.get((q, e))
        if q is None:
            return None
    return q


def reachable_states(a: Lts) -> set:
    seen = {a.initial}
    todo = [a.initial]
    while todo:
        q = todo.pop()
        for e in a.alphabet.events:
            r = a.delta.get((q, e))
            if r is not None and r not in seen:
                seen.add(r)
                todo.append(r)
    return seen


def state_order(a: Lts) -> tuple:
    """Canonical state order: breadth-first discovery, then leftovers by name."""
    order = tuple(lex_shortest_paths(a))
    return order + tuple(sorted(a.states - set(order), key=render_state))


def lex_shortest_paths(a: Lts) -> dict[State, Word]:
    """For every reachable state the shortest word reaching it, ties broken
    lexicographically by event declaration order."""
    paths: dict[State, Word] = {a.initial: ()}
    queue: deque[State] = deque([a.initial])
    while queue:
        q = queue.popleft()
        for e in a.alphabet.events:
            r = a.delta.get((q, e))
            if r is not None and r not in paths:
                paths[r] = paths[q] + (e,)
                queue.append(r)
    return paths


# ---------------------------------------------------------------------------
# constructions


def trim(a: Lts) -> Lts:
    """Restrict to the part reachable from the initial state."""
    keep = reachable_states(a)
    return Lts(
        a.alphabet,
        frozenset(keep),
        {(q, e): r for (q, e), r in a.delta.items() if q in keep},
        a.initial,
        {name: members & keep for name, members in a.accepting_sets.items()},
    )


def restrict(a: Lts, events: Iterable[str]) -> Lts:
    """Drop the given events from the alphabet and every transition on them."""
    dropped = set(events)
    unknown = dropped - set(a.alphabet.events)
    if unknown:
        raise InvalidModel(f"unknown events {sorted(unknown)}")
    return Lts(
        a.alphabet.restricted(set(a.alphabet.events) - dropped),
        a.states,
        {(q, e): r for (q, e), r in a.delta.items() if e not in dropped},
        a.initial,
        a.accepting_sets,
    )


def with_set(a: Lts, name: str, members: Iterable[State]) -> Lts:
    sets = dict(a.accepting_sets)
    sets[name] = frozenset(members)
    return Lts(a.alphabet, a.states, a.delta, a.initial, sets)


def determinize(nfa: EpsilonNfa, accepting: str, alpha: PartitionedAlphabet | None = None) -> Lts:
    """Silent-closure subset construction.

    The result is deterministic and complete over the automaton's alphabet;
    a subset state belongs to the named accepting set exactly when it meets
    the source set.  Only reachable subsets are materialized.
    """
    if alpha is None:
        alpha = PartitionedAlphabet(observable=nfa.alphabet)
    elif set(alpha.events) != set(nfa.alphabet):
        raise InvalidModel("partition does not cover the automaton's alphabet")
    marks = nfa.accepting(accepting)
    order = [(e, nfa.alphabet.index(e)) for e in alpha.events]
    start = nfa.closed_state(nfa.initial)
    subsets = {start}
    delta: dict[tuple[State, str], State] = {}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        row = nfa.successor_row(current)
        for e, i in order:
            nxt = delta[(current, e)] = row[i]
            if nxt not in subsets:
                subsets.add(nxt)
                queue.append(nxt)
    # valid by construction, so built without re-running Lts validation
    out = Lts.__new__(Lts)
    vars(out).update(alphabet=alpha, states=frozenset(subsets), delta=delta, initial=start,
                     accepting_sets={accepting: frozenset(s for s in subsets if s & marks)})
    return out


def subset_pair_search(
    nfa: EpsilonNfa,
    goal: Callable[[frozenset, State], bool],
    against: Lts | None = None,
    start: tuple[State, State] | None = None,
) -> Word | None:
    """Shortest word, lexicographically least among the shortest, on which
    ``goal`` holds; None when there is none.

    The search runs breadth first over pairs (S, p): S is the silent-closed
    subset of ``nfa`` states reached on the word, and p the state of
    ``against`` reached on it, or :data:`DEAD` once ``against`` has no step
    (always, when ``against`` is omitted).  Words are read from the
    ``start`` pair of states, by default the initial ones; only states
    reachable from it are visited.  Events are tried in the
    automaton's alphabet order.  Successor subsets are read from the
    automaton's :meth:`EpsilonNfa.successor_row` memo, which outlives the
    call, so searches from several starts share it; pairs with an empty
    subset are pruned, so ``goal`` must reject the empty subset.  This is
    the subset construction of the image fused with the product against
    the complement of ``against``, visited in the same order, so it returns
    the same word as a search of that product without building any of it.
    """
    events = nfa.alphabet
    delta, p0 = (against.delta, against.initial) if against is not None else ({}, DEAD)
    q0, p0 = start if start is not None else (nfa.initial, p0)
    first = (nfa.closed_state(q0), p0)
    if goal(*first):
        return ()
    seen = {first}
    queue: deque[tuple[frozenset, State, Word]] = deque([(*first, ())])
    while queue:
        subset, p, path = queue.popleft()
        for e, nxt in zip(events, nfa.successor_row(subset)):
            if not nxt:
                continue
            r = delta.get((p, e), DEAD)
            pair = (nxt, r)
            if pair in seen:
                continue
            w = path + (e,)
            if goal(nxt, r):
                return w
            seen.add(pair)
            queue.append((nxt, r, w))
    return None


def incorporate_secret(g: Lts, f: str, g_phi: Lts, f_phi: str) -> Lts:
    """Fold a secret automaton into the system as a second accepting set.

    The result is the synchronous product over pairs (system state, secret
    state) reachable from the initial pair, explored breadth first in the
    system's event order.  It carries ``F`` (the system language) and
    ``Fphi`` (system language intersect secret language, which forces the
    secret inside the system language).  A pair steps exactly when the
    system does; where the secret has no step, its side moves to a fresh
    non-accepting sink (``sink``, with ``_`` appended while that name is
    taken), which keeps every later step.
    """
    if set(g.alphabet.events) != set(g_phi.alphabet.events):
        raise InvalidModel("secret automaton must share the system alphabet")
    f_states = g.accepting(f)
    phi_states = g_phi.accepting(f_phi)
    sink = "sink"
    while sink in g_phi.states:
        sink += "_"
    start = (g.initial, g_phi.initial)
    seen = {start}
    delta: dict[tuple[State, str], State] = {}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        p, q = pair
        for e in g.alphabet.events:
            r = g.delta.get((p, e))
            if r is None:
                continue
            nxt = delta[(pair, e)] = (r, g_phi.delta.get((q, e), sink))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    states = frozenset(seen)
    return Lts(
        g.alphabet,
        states,
        delta,
        start,
        {
            "F": frozenset(s for s in states if s[0] in f_states),
            "Fphi": frozenset(s for s in states if s[0] in f_states and s[1] in phi_states),
        },
    )


def entry_words(a: Lts) -> dict[State, Word]:
    """Per downgrade entry state, the shortest word reaching it that is
    empty or ends with a downgrading event (ties broken lexicographically).

    The keys are the initial state plus every reachable target of a
    downgrading transition, in breadth-first discovery order: on a trimmed
    system, :func:`state_order`.
    """
    paths = lex_shortest_paths(a)
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
