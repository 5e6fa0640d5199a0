"""Finite automata and the few constructions the deciders run on.

Two representations are used throughout: a deterministic labeled transition
system with a partial step function (``Lts``) and a nondeterministic
automaton with silent moves (``EpsilonNfa``), the form of an image too
wide for bit masks.

Every inclusion is decided on the fly by :func:`subset_pair_search`, which
walks pairs (subset of an automaton's states, state of a deterministic
system) breadth first and stops at the first escaping word; nothing is
determinized, complemented or multiplied out for it.  It does not expand a
pair that its caller marks as a dead end, one from which no escaping word
can follow; the deciders mark them with :func:`universal_states`, the
system states whose every observable step stays inside a set, computed
once per system before any image, so that a start state in the set is
answered without a search and without the image.  It reads the kept set
and the step maps in place, and copies the kept set and builds reverse
steps only when a removal cascades.  Searches from several starts of one
check share the pairs each exhausted search proved, which are dead ends
for the searches after it.
:func:`determinize` is the one subset construction, which the
translations and the compiled patterns (:func:`.regexlang.compile_regex`)
alike build their automata with; it names the subsets it reaches
``0..n-1`` in the order it discovers them.  It reads a view, as the
searches do: an initial state's closed subset and a row function.  Every
automaton it walks but one is a condensed image, each strongly connected
component of its silent moves one state, made by the searches' one image
builder (:func:`.observation._image`): the natural image of the system
that the translation to NI marks, and a pattern's fragment automaton.
The translation to INI walks the Orwellian image as a view of the
searches' components.  An image of at most
:data:`~.observation.MASK_COMPONENTS` components holds subsets as bit
masks over the component numbers, read through the one
:class:`MaskView`, whose rows are ors of byte-table entries;
:func:`determinize` walks its tables in a loop of its own
(:func:`_mask_walk`).  A wider image is an :class:`EpsilonNfa` of the
components, whose subsets are frozensets.  Its rows are computed when
read: it memoises per-state data only, each state's silent closure
(:meth:`EpsilonNfa.closed_state`) and its closed successors (per event,
the union of the closures of its targets), and
:meth:`EpsilonNfa.successor_row` unites its members' closed successors
anew at each call.  A search's parent map and :func:`determinize`'s
subset list hold the subsets they reach.  The per-state memos read an
automaton's per-state move map (:attr:`EpsilonNfa.moves`), which is the
automaton, built in full from a validated source; no map is checked
again.  An automaton declares nothing besides its alphabet, its map and
its initial state.
Besides these, the module holds what the inputs are split and folded
with: trimming, which no decider or translation needs, the
downgrade-free system that the observer sees after each downgrade
(:func:`restrict`), the downgrade entry states (:func:`entry_words`),
which of the deciders only :func:`.observation.per_entry` reads, and the
fold of a secret into a system (:func:`incorporate_secret`).

States are opaque hashable tokens.  The fold of a secret names its states
by pairs, and the subset construction, a compiled pattern's too, numbers
its states.  :func:`render_state`
turns them into canonical whitespace-free strings for breakdowns and error
messages.  A serialized model names its states by their position in
:func:`state_order` instead.

A system stores its step function once, as one map ``{state: target}``
per event of its alphabet, in alphabet order (:attr:`Lts.steps`), so that
the subset construction writes each event's targets as one map, with no
(state, event) key per step, and a row of one event, such as the dead-end
fixpoint reads, is a pass over one map.  Constructions that keep a map
whole share it (:func:`restrict` shares the maps of the non-downgrading
events), and no map is mutated once an automaton holds it.
:attr:`Lts.delta`, the function keyed by (state, event), is a read-only
view built on first read, for callers outside the package; nothing here
reads it outside the class.

A model is validated once, where it enters: by the public constructor
``Lts(...)`` (its ``__post_init__``), or by the parser, which checks what
it reads; :func:`with_set` checks only the set it adds to a valid model.
The constructor takes the step function keyed by (state, event),
validates it and converts it once to the per-event maps.  What the
package derives from a valid model is built from per-event maps with
:meth:`Lts.derived` and not checked again.

Nothing here modifies an automaton after construction, apart from memos of
derived data, and every operation is a pure function of its inputs, so
concurrent use needs no coordination.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import compress, filterfalse
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping

State = Hashable
Word = tuple[str, ...]

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


def render_state(q: State) -> str:
    """Canonical whitespace-free name for a possibly structured state, for
    breakdown lines and error messages (``q=(1,0)``, ``{p,q}``)."""
    if isinstance(q, tuple):
        return "(" + ",".join([render_state(p) for p in q]) + ")"
    if isinstance(q, frozenset):
        return "{" + ",".join(sorted([render_state(p) for p in q])) + "}"
    return str(q)


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
            if not isinstance(e, str) or not e or "#" in e or any(c.isspace() for c in e):
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


def alphabet(observable: str = "", unobservable: str = "", downgrading: str = "") -> PartitionedAlphabet:
    """Build an alphabet from space-separated event tokens."""
    return PartitionedAlphabet(tuple(observable.split()), tuple(unobservable.split()), tuple(downgrading.split()))


def word_sort_key(alpha: PartitionedAlphabet, w: Word) -> tuple[int, tuple[int, ...]]:
    """Shortest-then-lexicographic order key, event order per declaration."""
    return (len(w), tuple(alpha.index(e) for e in w))


class Lts:
    """Deterministic labeled transition system with a partial step function.

    The step function is stored once, as ``steps``: one map
    ``{state: target}`` per event of the alphabet, in alphabet order, so a
    step is a lookup in its event's map and a row of one event is a pass
    over one map.  Constructions share a source's maps where they keep them
    whole (:func:`restrict` shares those of the non-downgrading events), so
    no map is mutated once it belongs to an automaton.  ``delta``, the same
    function keyed by (state, event), is a read-only view built on first
    read, for callers outside the package; nothing in the package reads it.

    ``accepting_sets`` maps set names to state sets so several languages
    (typically ``F`` for the system language and ``Fphi`` for a secret)
    ride the same automaton.  The public constructor takes the step
    function keyed by (state, event), validates the parts (see
    ``__post_init__``) and converts it once; what the package derives from
    validated input is built from per-event maps with :meth:`derived`,
    which checks nothing again.  Two automata are equal only when they are
    the same object.
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
        self.delta = delta  # read by the validation, then left to the view
        self.initial = initial
        self.accepting_sets = accepting_sets
        self.__post_init__()
        steps: tuple[dict, ...] = tuple({} for _ in alphabet.events)
        by_event = dict(zip(alphabet.events, steps))
        for (q, e), r in delta.items():
            by_event[e][q] = r
        self.steps = steps
        del self.delta

    @classmethod
    def derived(cls, alphabet: PartitionedAlphabet, states: frozenset, steps: tuple[Mapping[State, State], ...],
                initial: State, accepting_sets: Mapping[str, frozenset]) -> Lts:
        """An automaton of parts derived from validated input, unvalidated:
        ``steps`` holds one map ``{state: target}`` per alphabet event, in
        alphabet order, which the automaton may share and never mutates."""
        out = cls.__new__(cls)
        vars(out).update(alphabet=alphabet, states=states, steps=steps, initial=initial, accepting_sets=accepting_sets)
        return out

    @cached_property
    def delta(self) -> Mapping[tuple[State, str], State]:
        """The step function keyed by (state, event), event by event in
        alphabet order: a read-only view of ``steps``, built on first read."""
        events = self.alphabet.events
        return MappingProxyType({(q, e): r for e, targets in zip(events, self.steps) for q, r in targets.items()})

    def __post_init__(self) -> None:
        """Validate the parts, for the public constructor only; a method of
        its own, so that validations can be counted or timed by wrapping
        it."""
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
    """Nondeterministic automaton with silent moves.

    It is its move map ``moves``, one entry per state: the state's silent
    targets, then one ``(event index, target)`` pair per labeled move, the
    index into ``alphabet``.  The package builds one only for a condensed
    image too wide for a :class:`MaskView` (:func:`.observation._image`),
    in full, with states ``0..n-1``, so the map is a list; it has no
    accepting set, since its readers lift the sets they read, and it is not
    checked, since its source is validated.  Its memos are per state (see
    the module docstring); a :class:`MaskView`'s tables belong to the view,
    not to the automaton.
    Two automata are equal only when they are the same object.
    """

    def __init__(self, alphabet: tuple[str, ...], initial: State, moves: Mapping[State, tuple] | list) -> None:
        self.alphabet = alphabet
        self.initial = initial
        self.moves = moves
        # per state its silent closure and its closed successors (post)
        self._closures: dict = {}
        self._posts: dict = {}
        self.__post_init__()

    def __post_init__(self) -> None:
        """Construction hook, so that constructions can be counted or timed
        by wrapping it; it checks nothing, since every automaton is built
        from a validated source."""

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

    def closed_state(self, q: State) -> frozenset:
        """The silent closure of ``q``, memoised (see the module docstring)."""
        closures = self._closures
        c = closures.get(q)
        if c is None:
            c = closures[q] = self.epsilon_closure((q,))
        return c

    def _post(self, q: State) -> tuple[frozenset, ...]:
        # q's closed successors, kept in the memo: per event, the union of
        # the closures of q's targets on it
        union = [frozenset()] * len(self.alphabet)
        for i, r in self.moves[q][1]:
            c = self.closed_state(r)
            union[i] = union[i] | c if union[i] else c
        post = self._posts[q] = tuple(union)
        return post

    def successor_row(self, subset: Iterable[State]) -> tuple[frozenset, ...]:
        """The silent-closed successor of ``subset`` on each event, in
        alphabet order, computed when read (see the module docstring): the
        per-event union of the members' closed successors, a singleton's
        own, and an empty set per event for the empty subset.  Every row of
        a search or a subset construction of a wide image is read here."""
        posts = self._posts
        post = self._post
        members = [posts[q] if q in posts else post(q) for q in subset]
        if len(members) == 1:
            return members[0]
        if not members:
            return (frozenset(),) * len(self.alphabet)
        return tuple(map(frozenset().union, *members))


# ---------------------------------------------------------------------------
# walking and reachability


def step(a: Lts, q: State, s: Word) -> State | None:
    """Run the partial step function from ``q`` over ``s``.

    Returns the reached state, or None as soon as a step is undefined.
    """
    if q not in a.states:
        raise InvalidModel(f"unknown state {render_state(q)}")
    for e in s:
        q = a.steps[a.alphabet.index(e)].get(q)
        if q is None:
            return None
    return q


def _structure_key(q: State) -> tuple:
    # orders states by their structure, so that states rendered alike
    # (frozenset({"p", "q"}) and frozenset({"p,q"})) still compare apart
    if isinstance(q, tuple):
        return 1, tuple(map(_structure_key, q))
    if isinstance(q, frozenset):
        return 2, tuple(sorted(map(_structure_key, q)))
    return 0, type(q).__name__, str(q)


def state_order(a: Lts) -> tuple:
    """Canonical state order: breadth-first discovery, then the leftovers
    by structure (plain states by name, tuples by their members in order,
    frozensets by their sorted members)."""
    order = tuple(discovery_tree(a))
    return order + tuple(sorted(a.states - set(order), key=_structure_key))


def discovery_tree(a: Lts) -> dict[State, tuple[State, str] | None]:
    """Every reachable state in breadth-first discovery order, events tried
    in declaration order, with the state and event it was first reached
    from (None for the initial state).  Following those back from a state
    spells its shortest word, ties broken lexicographically."""
    tree: dict[State, tuple[State, str] | None] = {a.initial: None}
    order = [a.initial]
    steps = list(zip(a.alphabet.events, a.steps))
    # the list grows while it is walked, so it is the breadth-first queue
    for q in order:
        for e, targets in steps:
            r = targets.get(q)
            if r is not None and r not in tree:
                tree[r] = (q, e)
                order.append(r)
    return tree


# ---------------------------------------------------------------------------
# constructions


def trim(a: Lts) -> Lts:
    """Restrict to the part reachable from the initial state, as :func:`discovery_tree` walks it."""
    keep = frozenset(discovery_tree(a))
    return Lts.derived(
        a.alphabet,
        keep,
        tuple({q: r for q, r in targets.items() if q in keep} for targets in a.steps),
        a.initial,
        {name: members & keep for name, members in a.accepting_sets.items()},
    )


def restrict(a: Lts) -> Lts:
    """``a`` without its downgrading events: the downgrade-free system that
    each downgrade entry state continues in.  The downgrading events end
    the alphabet, so it shares the maps of the others."""
    alpha = a.alphabet
    return Lts.derived(
        PartitionedAlphabet(alpha.observable, alpha.unobservable),
        a.states,
        a.steps[:len(alpha.observable) + len(alpha.unobservable)],
        a.initial,
        a.accepting_sets,
    )


def with_set(a: Lts, name: str, members: Iterable[State]) -> Lts:
    """``a`` with the accepting set ``name`` set to ``members``, which are
    checked as the public constructor checks a set; the rest of ``a`` is
    valid already, and its maps are shared."""
    added = frozenset(members)
    if not added <= a.states:
        raise InvalidModel(f"accepting set {name} contains undeclared states")
    sets = dict(a.accepting_sets)
    sets[name] = added
    return Lts.derived(a.alphabet, a.states, a.steps, a.initial, sets)


class MaskView:
    """An automaton of states ``0..n-1``, given by each state's labeled
    moves (event index, target) and closure mask and by its initial state,
    as :func:`subset_pair_search` and :func:`determinize` read it, with bit
    ``c`` of a subset for state ``c``; :func:`.observation._image` builds
    it.  A state's closed successors are packed into one ``int``,
    event ``i``'s mask shifted by ``i`` times the state count.  Each byte of
    a subset has a table from its value to the or of its members' packed
    successors, each entry filled on first use (:meth:`fill`), so a packed
    row is the or of one entry per nonzero byte (the "method of Four
    Russians": Arlazarov, Dinic, Kronrod and Faradzev, 1970)."""

    def __init__(self, alphabet: tuple[str, ...], labeled: list, closures: list[int], initial: int) -> None:
        self.alphabet = alphabet
        self.initial = initial
        self.width = width = len(closures)
        self._labeled = labeled
        self._closures = closures
        self._posts: list[int | None] = [None] * width
        self.tables = [[None] * 256 for _ in range(-(-width // 8))]
        self._full = (1 << width) - 1
        self._shifts = range(0, width * len(alphabet), width)

    def closed_state(self, c: int) -> int:
        """The silent closure of ``c``."""
        return self._closures[c]

    def _post(self, c: int) -> int:
        # c's closed successors, packed
        closures = self._closures
        post = 0
        for i, r in self._labeled[c]:
            post |= closures[r] << i * self.width
        self._posts[c] = post
        return post

    def fill(self, chunk: int, value: int) -> int:
        """The entry of byte ``chunk``'s table for ``value``, filled."""
        posts = self._posts
        entry = 0
        for j in range(8):
            if value >> j & 1:
                c = chunk * 8 + j
                post = posts[c]
                entry |= self._post(c) if post is None else post
        self.tables[chunk][value] = entry
        return entry

    def successor_row(self, subset: int) -> tuple[int, ...]:
        """The silent-closed successor of ``subset`` on each event, in
        alphabet order."""
        tables = self.tables
        data = subset.to_bytes(len(tables), "little")
        packed = 0
        # compress skips the zero bytes without a step of Python per byte
        for chunk in compress(range(len(data)), data):
            value = data[chunk]
            entry = tables[chunk][value]
            packed |= self.fill(chunk, value) if entry is None else entry
        full = self._full
        return tuple([packed >> shift & full for shift in self._shifts])


def determinize(view, accepts: Callable[[Hashable], object], alpha: PartitionedAlphabet) -> Lts:
    """Silent-closure subset construction of ``view``, read as the searches
    read an automaton: through its ``initial`` state's ``closed_state`` and
    its ``successor_row``.

    The result is deterministic and complete over the view's alphabet,
    partitioned as ``alpha``, which the callers build from those events; it
    is valid by construction.  Only reachable subsets are materialized,
    and they are named ``0..n-1`` in breadth-first discovery order, events
    tried in the view's alphabet order, so the initial state is ``0``; a
    state belongs to the accepting set ``F`` exactly when ``accepts``
    holds on its subset.  Each subset's row is read once.

    A :class:`MaskView`, a condensed image of at most
    :data:`~.observation.MASK_COMPONENTS` components, is walked on its
    masks (:func:`_mask_walk`); any other view on its own subsets
    (:func:`_subset_walk`): a wider condensed image, an
    :class:`EpsilonNfa` walked on frozensets, or the Orwellian image of the
    translation to INI (:class:`.reductions._OrwellianCopies`).  Since
    the walks compare subsets only for equality, every form of one image
    reaches the same subsets in the same order and builds the same
    automaton.
    """
    subsets, number, targets = (_mask_walk if isinstance(view, MaskView) else _subset_walk)(view)
    # the numbers in order, the same int objects as the targets hold
    names = list(number.values())
    accepted = frozenset(compress(names, map(accepts, subsets)))
    # freed before the step maps are built, which lowers the peak
    del subsets, number
    # the targets come state by state, each row in the view's event order,
    # so event i's targets are every k-th from the i-th; the maps then go
    # in the order of alpha, which may list the events otherwise
    k = len(view.alphabet)
    by_event = {e: dict(zip(names, targets[i::k])) for i, e in enumerate(view.alphabet)}
    return Lts.derived(alpha, frozenset(names), tuple(map(by_event.pop, alpha.events)), 0, {"F": accepted})


def _subset_walk(view) -> tuple[list, dict, list[int]]:
    """The subset construction of ``view``, read through its ``initial``
    state's ``closed_state`` and its ``successor_row`` only: the closed
    subsets reached, in breadth-first discovery order, their numbers, and
    each subset's successors' numbers in event order."""
    first = view.closed_state(view.initial)
    subsets = [first]
    number = {first: 0}
    targets = []
    add = targets.append
    # the list grows while it is walked, so it is the breadth-first queue
    for subset in subsets:
        for nxt in view.successor_row(subset):
            r = number.get(nxt)
            if r is None:
                r = number[nxt] = len(subsets)
                subsets.append(nxt)
            add(r)
    return subsets, number, targets


def _mask_walk(view: MaskView) -> tuple[list[int], dict[int, int], list[int]]:
    """:func:`_subset_walk` on ``view``'s masks, in a loop that reads the
    view's tables itself, a fifth faster on the blowup translations than a
    :meth:`MaskView.successor_row` call per subset."""
    tables = view.tables
    fill = view.fill
    width = view.width
    full = (1 << width) - 1
    events = range(len(view.alphabet))
    first = view.closed_state(view.initial)
    subsets = [first]
    number = {first: 0}
    targets = []
    add = targets.append
    for subset in subsets:
        packed = 0
        chunk = 0
        while subset:
            value = subset & 255
            if value:
                entry = tables[chunk][value]
                packed |= fill(chunk, value) if entry is None else entry
            subset >>= 8
            chunk += 1
        for _ in events:
            nxt = packed & full
            packed >>= width
            r = number.get(nxt)
            if r is None:
                r = number[nxt] = len(subsets)
                subsets.append(nxt)
            add(r)
    return subsets, number, targets


def universal_states(a: Lts, keep: Iterable[State]) -> frozenset:
    """The largest set of states in ``keep`` in which every state steps, on
    every observable event, back into the set.

    From such a state every observable word steps through the set only,
    so a subset of the natural image holding one meets the set after every
    continuation.  Hidden steps are ignored, which can only make the set
    smaller.  A greatest fixpoint: the system is deterministic, so a state
    leaves as soon as one of its targets does.  The states that leave at
    once are read off ``keep`` and each observable step map in place: the
    sources of the steps into states outside ``keep``, and the kept states
    a map has no step for, which a map that holds every state of the
    system, as each of :func:`determinize`'s does, needs no pass to find.
    When no state leaves, the result is ``keep`` itself (as a frozenset);
    when no observable step leads into a leaving state, it is the rest of
    ``keep``, built once at its final size.  Only otherwise is the kept
    set copied: the removals cascade back along reverse steps, each state
    removed once.
    """
    # a frozenset argument is itself, not a copy
    keep = frozenset(keep)
    # the observable events lead the alphabet
    maps = a.steps[:len(a.alphabet.observable)]
    states = a.states
    outside = states - keep
    removed: set = set()
    for targets in maps:
        if len(targets) < len(states):
            # the kept states with no step
            removed.update(keep.difference(targets))
        removed.update(filter(keep.__contains__, compress(targets, map(outside.__contains__, targets.values()))))
    if not removed:
        return keep
    if all(removed.isdisjoint(targets.values()) for targets in maps):
        return frozenset(filterfalse(removed.__contains__, keep))
    alive = set(filterfalse(removed.__contains__, keep))
    # the reverse steps of the states left, each of which steps on every
    # observable event
    into: dict[State, list[State]] = {}
    for targets in maps:
        for q in alive:
            into.setdefault(targets[q], []).append(q)
    removed = list(removed)
    while removed:
        for q in into.get(removed.pop(), ()):
            if q in alive:
                alive.remove(q)
                removed.append(q)
    return frozenset(alive)


def subset_pair_search(
    nfa: EpsilonNfa,
    goal: Callable[[frozenset, State], bool],
    against: Lts | None = None,
    start: tuple[State, State] | None = None,
    dead_end: Callable[[frozenset, State], bool] | None = None,
    proven: set | None = None,
) -> Word | None:
    """Shortest word, lexicographically least among the shortest, on which
    ``goal`` holds; None when there is none.

    The search runs breadth first over pairs (S, p): S is the silent-closed
    subset of ``nfa`` states reached on the word, and p the state of
    ``against`` reached on it, or :data:`DEAD` once ``against`` has no step
    (always, when ``against`` is omitted), read off ``against``'s step map
    of the same event, by name.  Words are read from the
    ``start`` pair of states, by default the initial ones; only states
    reachable from it are visited.  Events are tried in the
    automaton's alphabet order.  Subsets are read through ``nfa``'s
    ``closed_state`` and ``successor_row`` only, so it may also be a
    :class:`MaskView` or an :class:`.observation.OrwellianImage`; pairs with
    an empty subset are pruned, so ``goal`` must reject the empty subset.  A pair
    on which ``dead_end`` holds is not expanded either; the caller
    promises that no goal pair can be reached from it (typically a subset
    or state that :func:`universal_states` keeps inside a set), so the
    search still meets the same goals in the same order.  Each pair keeps
    the pair and event it was first reached from, and only the word found
    is spelled from them, so the time is linear in the pairs visited, not
    in their depth.  A search that exhausts has proved that no goal
    follows any pair it visited, and adds those pairs to ``proven``.  A
    later search from another start, with the same automaton, ``against``,
    goal and dead ends, treats the pairs already there as dead ends that
    are no goals, its start pair too, which then gives None at once.  This is
    the subset construction of the image fused with the product against
    the complement of ``against``, visited in the same order, so it returns
    the same word as a search of that product without building any of it.
    """
    events = nfa.alphabet
    if against is None:
        rows, p0 = ({},) * len(events), DEAD
    else:
        # against's step map of each event of the automaton, in its order
        by_event = dict(zip(against.alphabet.events, against.steps))
        rows, p0 = [by_event.get(e, {}) for e in events], against.initial
    q0, p0 = start if start is not None else (nfa.initial, p0)
    first = (nfa.closed_state(q0), p0)
    if goal(*first):
        return ()
    known = () if proven is None else proven
    if first in known or dead_end is not None and dead_end(*first):
        return None
    # each pair reached, with the pair and event it was first reached from
    parent: dict[tuple[frozenset, State], tuple[tuple[frozenset, State], str] | None] = {first: None}
    queue = deque([first])
    while queue:
        pair = queue.popleft()
        subset, p = pair
        for e, nxt, targets in zip(events, nfa.successor_row(subset), rows):
            if not nxt:
                continue
            r = targets.get(p, DEAD)
            reached = (nxt, r)
            if reached in parent:
                continue
            parent[reached] = (pair, e)
            if reached in known:
                continue
            if goal(nxt, r):
                return _spelled(parent, (pair, e))
            if dead_end is None or not dead_end(nxt, r):
                queue.append(reached)
    if proven is not None:
        # in place: the caller's set is the one later searches read
        proven.update(parent)
    return None


def _spelled(tree: Mapping, step: tuple | None) -> Word:
    """The word of a walk's tree path to ``step``'s source, then its event:
    ``tree`` maps what a walk reached to the (source, event) step it was
    first reached by, None at the root."""
    w = []
    while step is not None:
        w.append(step[1])
        step = tree[step[0]]
    return tuple(reversed(w))


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
    steps: tuple[dict, ...] = tuple({} for _ in g.alphabet.events)
    # per event of the system, in its order: its steps, the secret's, the product's
    phi_steps = dict(zip(g_phi.alphabet.events, g_phi.steps))
    rows = list(zip(g.steps, map(phi_steps.__getitem__, g.alphabet.events), steps))
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        p, q = pair
        for targets, phi_targets, out in rows:
            r = targets.get(p)
            if r is None:
                continue
            nxt = out[pair] = (r, phi_targets.get(q, sink))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    states = frozenset(seen)
    return Lts.derived(
        g.alphabet,
        states,
        steps,
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
    alpha = a.alphabet
    # the downgrading events end the alphabet
    down = list(zip(alpha.downgrading, a.steps[len(alpha.observable) + len(alpha.unobservable):]))
    tree = discovery_tree(a)
    last: dict[State, tuple[State, str] | None] = {a.initial: None}
    # the states come shortest word first, ties in lexicographic order, and
    # the downgrading events in declaration order, so the candidates do too
    # and the first one found for a state ends its entry word
    for q in tree:
        for e, targets in down:
            r = targets.get(q)
            if r is not None and r not in last:
                last[r] = (q, e)

    return {q: _spelled(tree, last[q]) for q in tree if q in last}
