"""Observation functions: what an attacker sees of a run.

A static observer sees the observable events only (natural projection).  An
Orwellian observer additionally learns, retroactively, everything up to the
last downgrading event: the prefix up to that event is reported verbatim
and only the remainder is filtered through the natural projection.

The images here turn one observer into one automaton whose words are the
observations.  There is one natural image, :func:`condensed_image`: the
system with hidden moves made silent and each strongly connected
component of the hidden steps one state, so a silent closure walks
components, not states, and the words read are those of the system's
natural projection.  The deciders search it, and the translation of
static opacity determinizes it, taken of the system with a marked layer.

Every image comes from one builder, :func:`_image`, given each node's
hidden targets and one labeled step map per event: it runs Tarjan's
algorithm over the hidden steps and collects each component's labeled
steps.  A system's image reads these off its step maps
(:func:`condensed_image`), and a compiled pattern's off its fragment
automaton (:func:`.regexlang.compile_regex`).  An image of at most
:data:`MASK_COMPONENTS` components is the package's one
:class:`~.automata.MaskView`, with subsets held as bit masks over the
component numbers; a wider one is an :class:`~.automata.EpsilonNfa` of
the components, with subsets held as frozensets.  An image's readers
lift the sets they read (:meth:`CondensedImage.lift`), the empty one too,
so the goals, dead ends, accepting subsets and empty rows are written
once for both forms.

The deciders' search from each start state is written once, in
:func:`searches`, and static opacity and NI supply only the view it
walks, its start map, its goal and its dead ends: a start state in the
dead-end set holds at once, the first one that needs a search condenses
the system, and a search that exhausts leaves the states it proved to the
ones after it.  :func:`per_entry` runs it from each reachable downgrade
entry state of the downgrade-free system; the static opacity and NI
checks run it from the initial state.

The Orwellian image puts a verbatim prefix layer in front of the
condensed image of the downgrade-free system, entered after each
downgrade.  It is read in one form, :class:`OrwellianImage`: pairs of a
prefix state and a subset of that image's components, read through the
same view as the opacity searches.  Direct INI searches it, NI that of
the system with its downgrades made private, over the image that
:func:`searches` condenses, and the translation to INI walks it with each
entry state's continuation copy kept apart
(:class:`~.reductions._OrwellianCopies`).  No image trims its system.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple

from .automata import (
    DEAD,
    EpsilonNfa,
    Lts,
    MaskView,
    State,
    Word,
    entry_words,
    restrict,
    subset_pair_search,
    universal_states,
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


def per_entry(system: Lts, local_for: Callable[[Lts], Callable[[State], Word | None]]) -> tuple[Word | None, tuple[SubCheck, ...]]:
    """Run one downgrade-free check per downgrade entry state ``q`` of
    ``system``: ``local_for`` builds the check on ``system`` minus its
    downgrades, and the check gives its witness read from ``q`` or None.
    Returns the least global witness (the entry word of ``q`` followed by
    its local witness; None when every check holds) and one sub-check per
    entry state, in canonical state order (that of :func:`entry_words`).
    Nothing is trimmed: the entry states are the reachable ones, and each
    check explores only what its entry state reaches."""
    local = local_for(restrict(system))
    entries = entry_words(system)
    found = {q: local(q) for q in entries}
    witnesses = [entries[q] + w for q, w in found.items() if w is not None]
    witness = min(witnesses, key=lambda w: word_sort_key(system.alphabet, w), default=None)
    return witness, tuple(SubCheck(q, w is None, w) for q, w in found.items())


class CondensedImage(NamedTuple):
    """An image with each strongly connected component of the hidden steps
    one state (:func:`_image`).

    ``nfa`` is the image, a :class:`~.automata.MaskView` up to
    :data:`MASK_COMPONENTS` components and an
    :class:`~.automata.EpsilonNfa` past it, and ``component`` maps each
    node, a system state for :func:`condensed_image`, to the image state
    standing for it.  Each reader lifts the sets it reads with
    :meth:`lift`.
    """

    nfa: EpsilonNfa | MaskView
    component: Mapping[State, State]

    def lift(self, states: Iterable[State]) -> frozenset | int:
        """The image states standing for a member of ``states``: a mask on
        a mask view, a frozenset otherwise."""
        component = self.component
        if isinstance(self.nfa, MaskView):
            m = 0
            for q in states:
                m |= 1 << component[q]
            return m
        return frozenset([component[q] for q in states])


def _components(successors: Mapping[State, list]) -> tuple[dict[State, int], int]:
    # Tarjan's strongly connected components, numbered in the order they
    # close, run with an explicit stack so that no recursion limit applies;
    # also their number
    index: dict[State, int] = {}
    low: dict[State, int] = {}
    component: dict[State, int] = {}
    stack: list[State] = []
    closed = 0
    for root in successors:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            q, targets = work[-1]
            for r in targets:
                if r not in index:
                    index[r] = low[r] = len(index)
                    stack.append(r)
                    work.append((r, iter(successors[r])))
                    break
                if r not in component and index[r] < low[q]:  # r is on the stack
                    low[q] = index[r]
            else:
                work.pop()
                if low[q] == index[q]:
                    while True:
                        r = stack.pop()
                        component[r] = closed
                        if r == q:
                            break
                    closed += 1
                elif low[q] < low[work[-1][0]]:
                    low[work[-1][0]] = low[q]
    return component, closed


def condensed_image(a: Lts) -> CondensedImage:
    """The natural image of ``a``, the automaton of the natural-projection
    images of its languages under its observable class, with each strongly
    connected component of ``a``'s hidden steps one state, built by
    :func:`_image` from ``a``'s step maps.

    The alphabet is the observable events in ``a``'s declaration order.  A
    component moves on an event to the component of each target its
    members move to, and silently to the other components its members
    reach by a hidden step.  Every silent-closed set of ``a``'s states is a
    union of components, so the closed subsets of this image and of the
    image with one state per system state correspond one to one, each
    meets a set of states exactly when its image meets the lifted set
    (:meth:`CondensedImage.lift`), and searches and subset constructions
    of the two read the same words in the same order.  Tarjan's roots are
    tried from the initial state on, then in the order the per-event maps
    name the states, event by event in alphabet order, so the component
    numbers do not depend on how a set of states iterates, which
    ``PYTHONHASHSEED`` moves; states no step names go last.
    """
    observable = len(a.alphabet.observable)
    hidden: dict[State, list] = {a.initial: []}
    for targets in a.steps[:observable]:
        for q, r in targets.items():
            hidden.setdefault(q, [])
            hidden.setdefault(r, [])
    for targets in a.steps[observable:]:
        for q, r in targets.items():
            hidden.setdefault(q, []).append(r)
            hidden.setdefault(r, [])
    if len(hidden) < len(a.states):
        for q in a.states:
            hidden.setdefault(q, [])
    return _image(a.alphabet.observable, a.initial, hidden, a.steps[:observable])


#: Most components a condensed image may have to be read through a
#: :class:`~.automata.MaskView`; a wider one is an
#: :class:`~.automata.EpsilonNfa`, with subsets held as frozensets.  A view
#: builds every closure up front, a bit per component each, so its fixed
#: cost grows with the square of the width.  A random system's search,
#: whose subsets hold hundreds of components, runs many times faster on
#: masks at every width measured; a translation's, which reads a few
#: sparse rows, loses 2-7% up to about 2,000 components and 18% at 3,500,
#: and a long pattern's, whose subsets are sparse too, 40-55% at 1,272-1,518
#: fragment states.
MASK_COMPONENTS = 1536


def _image(alphabet: tuple[str, ...], initial: State, hidden: dict[State, list],
           steps: Iterable[Mapping[State, State]]) -> CondensedImage:
    """The one image builder, as the searches and
    :func:`~.automata.determinize` read it: the automaton over ``alphabet``
    started at ``initial`` given by each node's hidden targets, ``hidden``,
    and one labeled step map ``{node: target}`` per event, with each
    strongly connected component of the hidden steps one state.  The
    components are numbered as Tarjan's algorithm closes them, so after
    every component they reach, the roots tried in ``hidden``'s order, and
    each keeps its labeled steps, (event index, target component) pairs.
    Up to :data:`MASK_COMPONENTS` components the image is a
    :class:`~.automata.MaskView`, bit ``c`` for component ``c``; past that
    width an :class:`~.automata.EpsilonNfa` with one (silent targets,
    labeled steps) entry per component.

    One pass in closing order builds every closure.  It runs only once the
    width is known: past the limit, the closures of a long hidden chain
    would cost bits quadratic in its length.
    """
    component, count = _components(hidden)
    labeled: list[list] = [[] for _ in range(count)]
    for i, targets in enumerate(steps):
        for q, r in targets.items():
            labeled[component[q]].append((i, component[r]))
    start = component[initial]
    if count > MASK_COMPONENTS:
        silent: dict[int, set] = {}
        for q, targets in hidden.items():
            if targets:
                silent.setdefault(component[q], set()).update(map(component.__getitem__, targets))
        # a component with no silent target shares the one empty tuple
        moves = [(tuple(silent[c] - {c}) if c in silent else (), tuple(set(pairs)))
                 for c, pairs in enumerate(labeled)]
        return CondensedImage(EpsilonNfa(alphabet, start, moves), component)
    closures = [1 << c for c in range(count)]
    for q, c in component.items():
        for r in hidden[q]:
            closures[c] |= closures[component[r]]
    return CondensedImage(MaskView(alphabet, labeled, closures, start), component)


def searches(system: Lts, keep: Iterable[State],
             search_for: Callable[[CondensedImage, frozenset], tuple]) -> Callable[[State], Word | None]:
    """The deciders' search of ``system`` from any start state ``q``: the
    word it finds, or None.

    The dead-end set, :func:`~.automata.universal_states` of ``system``
    over ``keep``, comes first: a start state in it gives None at once.
    The first start state that needs a search builds the condensed image
    of ``system`` (:func:`condensed_image`: subsets as bit masks when it has
    at most :data:`MASK_COMPONENTS` components, as frozensets otherwise),
    and asks ``search_for(image, dead_end_set)``, once, for the view to
    search, the map from a system state to the view state to start from,
    and the goal and dead-end predicate (or None) of a
    :func:`~.automata.subset_pair_search`.  The searches share one set of
    proven states, so a start that an earlier search proved gives None
    without a row."""
    covered = universal_states(system, keep)
    proven: set = set()
    made = None

    def search(q: State) -> Word | None:
        nonlocal made
        if q in covered:
            return None
        if made is None:
            made = search_for(condensed_image(system), covered)
        view, enter, goal, dead_end = made
        return subset_pair_search(view, goal, enter(q), dead_end, proven)

    return search


class OrwellianImage:
    """The Orwellian image of ``system`` as
    :func:`~.automata.subset_pair_search` reads it from a system state: the
    initial one for direct INI, any for NI, of a system with no downgrade.

    An image word is a verbatim prefix ending at a downgrading event (or
    empty) followed by the natural projection of a downgrade-free
    continuation; the alphabet is the source's, since prefixes keep their
    unobservable events.  The image is a prefix layer copying the system,
    and copies of ``continuation``, the condensed image of the
    downgrade-free system (:func:`condensed_image`, of the system itself
    when it has no downgrading event), entered at the start state and by
    each downgrade at its target.  A closed subset holds at most one prefix
    state, since the system is deterministic, and continuation states.  Here
    it is a pair ``(p, C)``: ``p`` the system state of its prefix state, or
    :data:`~.automata.DEAD` without one, and ``C`` the components its
    continuation states stand for, with the copies merged, a subset of
    ``continuation`` (a mask on a mask view, a frozenset past
    :data:`MASK_COMPONENTS`).  The empty subset is ``()``.  With no
    downgrading event a pair ``(p, C)`` is the subset ``C`` of the natural
    image together with the system's state ``p`` on the word read, and a
    private event leads to a pair with no component.  A copy's moves and
    accepting sets depend on its component alone, so merging the copies is a
    quotient that keeps every successor and every goal; each word still
    leads to one subset, so the search meets the same goal words in the same
    order and returns the same shortest-lex word as one over the image with
    its copies apart.  The prefix state is the system's state on the word
    read, so a goal reads it there, and the search needs no system to search
    against.

    The row on event ``e`` takes ``p``'s step on ``e``, ``C``'s component
    row for an observable ``e``, and, for a downgrading step ``p -e-> r``,
    the closure of ``r``'s component, the jump into the continuation.
    """

    def __init__(self, system: Lts, continuation: CondensedImage) -> None:
        self.alphabet = events = system.alphabet.events
        self.initial = system.initial
        self.continuation = continuation
        nfa = continuation.nfa
        self._row = nfa.successor_row
        self._closed = nfa.closed_state
        self._component = continuation.component
        self._steps = system.steps
        down = set(system.alphabet.downgrading)
        # per event, in alphabet order, whether it downgrades
        self.down = [e in down for e in events]
        # the continuation moves on observable events only, which lead the alphabet
        self._silent = (continuation.lift(()),) * (len(events) - len(nfa.alphabet))

    def closed_state(self, q: State) -> tuple:
        """The closed subset of the image entered at system state ``q``:
        its prefix state and its continuation copy."""
        return q, self._closed(self._component[q])

    def successor_row(self, subset: tuple) -> list:
        """The closed successor of ``subset`` on each event, in alphabet
        order."""
        p, components = subset
        closed = self._closed
        component = self._component
        row = []
        for targets, down, c in zip(self._steps, self.down, self._row(components) + self._silent):
            r = targets.get(p)
            if r is None:
                row.append((DEAD, c) if c else ())
            elif down:
                row.append((r, c | closed(component[r])))
            else:
                row.append((r, c))
        return row
