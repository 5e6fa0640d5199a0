"""Observation functions: what an attacker sees of a run.

A static observer sees the observable events only (natural projection).  An
Orwellian observer additionally learns, retroactively, everything up to the
last downgrading event: the prefix up to that event is reported verbatim
and only the remainder is filtered through the natural projection.

The image automata here turn one observer into one :class:`EpsilonNfa`
whose words are the observations.  There is one natural image,
:func:`condensed_image`: the system with hidden moves made silent and each
strongly connected component of the hidden steps one state, so a silent
closure walks components, not states, and the words read are those of the
system's natural projection.  The deciders search it, and the translation
of static opacity marks it.

Every condensed image comes from one pass over the system's step map
(:func:`_condense`): Tarjan's algorithm numbers the components, and each
component keeps its labeled steps.  The deciders' search from each start
state is written once, in :func:`searches`, and static opacity and NI
supply only its goal and dead ends: a start state in the dead-end set
holds at once, the first one that needs a search condenses the system,
and a search that exhausts leaves the pairs it proved to the ones after
it.  An image of at most :data:`~.automata.MASK_COMPONENTS` components is
searched through the package's one :class:`~.automata.MaskView`, built
straight from the pass with no automaton in between, with subsets held as
bit masks over the component numbers, and a wider one as
:func:`condensed_image`'s automaton, with subsets held as frozensets; the
goals and dead ends are written once for both, as ``&`` tests against
lifted sets.  :func:`per_entry`
runs it from each reachable downgrade entry state of the downgrade-free
system; the static opacity and NI checks run it from the initial state.

The Orwellian image puts a verbatim prefix layer in front of one copy of
the condensed image per entry state, so it is explored on demand and
declares nothing up front: a state's moves are computed only when a search
first reaches it, and a continuation state enters the accepting sets when
it is expanded.  No image trims its system, since a search expands
reachable states only.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple

from .automata import (
    DEAD,
    MASK_COMPONENTS,
    EpsilonNfa,
    Lts,
    MaskView,
    MovesOnDemand,
    State,
    Word,
    _mask,
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
    """A natural image with each strongly connected component of the
    system's hidden steps one state (:func:`condensed_image`).

    ``component`` maps each system state to the image state standing for
    it.  The searches of the deciders read only this image, through a
    :class:`~.automata.MaskView` of it when :func:`searches` gives them
    one; each lifts the system sets it reads with :meth:`lift`.
    """

    nfa: EpsilonNfa | MaskView
    component: Mapping[State, State]

    def lift(self, states: Iterable[State]) -> frozenset | int:
        """The image states standing for a member of ``states``, as a
        mask on a mask view."""
        component = self.component
        if isinstance(self.nfa, MaskView):
            return _mask(component, states)
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


#: What :func:`_condense` gives: each state's component, each state's
#: hidden targets, and each component's labeled steps.
_Condensation = tuple[dict[State, int], dict[State, list], list[list[tuple[int, int]]]]


def _condense(a: Lts) -> _Condensation:
    """One pass over ``a``'s step map: each state's strongly connected
    component of the hidden steps, numbered as Tarjan's algorithm closes
    it, so after every component it reaches; each state's hidden targets;
    and each component's labeled steps, (observable event index, target
    component) pairs, duplicates kept.  The roots are tried in the order
    the step map names the states, so the numbers do not depend on how a
    set of states iterates."""
    index = {e: i for i, e in enumerate(a.alphabet.observable)}
    # states in the order the step function lists them, so that the
    # numbering does not change with the iteration order of a set of
    # strings, which PYTHONHASHSEED moves; states no step names go last
    hidden: dict[State, list] = {a.initial: []}
    steps = []
    for (q, e), r in a.delta.items():
        targets = hidden.setdefault(q, [])
        hidden.setdefault(r, [])
        i = index.get(e)
        if i is None:
            targets.append(r)
        else:
            steps.append((q, i, r))
    if len(hidden) < len(a.states):
        for q in a.states:
            hidden.setdefault(q, [])
    component, count = _components(hidden)
    labeled: list[list] = [[] for _ in range(count)]
    for q, i, r in steps:
        labeled[component[q]].append((i, component[r]))
    return component, hidden, labeled


def condensed_image(a: Lts) -> CondensedImage:
    """The natural image of ``a``, the automaton of the natural-projection
    images of its languages under its observable class, one accepting set
    per source set, with each strongly connected component of ``a``'s
    hidden steps one state, its number (:func:`_condense`).

    The alphabet is the observable events in ``a``'s declaration order.  A
    component moves on an event to the component of each target its
    members move to, silently to the other components its members reach by
    a hidden step, and belongs to an accepting set when a member does.
    Every silent-closed set of ``a``'s states is a union of components, so
    the closed subsets of this image and of the image with one state per
    system state correspond one to one, each meets a set of states exactly
    when its image meets the lifted set, and searches and subset
    constructions of the two read the same words in the same order.
    """
    return _image_nfa(a, _condense(a))


def _image_nfa(a: Lts, condensation: _Condensation) -> CondensedImage:
    # the condensed image of a as an automaton with silent moves, built
    # from the pass: the searches on frozensets read nearly all of it
    component, hidden, labeled = condensation
    silent: dict[int, set] = {}
    for q, targets in hidden.items():
        if targets:
            silent.setdefault(component[q], set()).update(map(component.__getitem__, targets))
    moves = {c: (tuple(silent[c] - {c}) if c in silent else (), tuple(set(steps))) for c, steps in enumerate(labeled)}
    sets = {name: frozenset(map(component.__getitem__, members)) for name, members in a.accepting_sets.items()}
    return CondensedImage(EpsilonNfa(a.alphabet.observable, component[a.initial], sets, moves), component)


def _searched_image(a: Lts) -> CondensedImage:
    """The condensed image of ``a`` as :func:`searches` reads it: through a
    :class:`~.automata.MaskView` built straight from the pass, bit ``c``
    for component ``c``, when it has at most
    :data:`~.automata.MASK_COMPONENTS` components, and as
    :func:`condensed_image`'s automaton otherwise.

    A component closes after every component it reaches, so one pass in
    closing order builds every closure.  It runs only once the width is
    known: past the limit, the closures of a long hidden chain would cost
    bits quadratic in its length.
    """
    condensation = component, hidden, labeled = _condense(a)
    if len(labeled) > MASK_COMPONENTS:
        return _image_nfa(a, condensation)
    closures = [1 << c for c in range(len(labeled))]
    for q, c in component.items():
        for r in hidden[q]:
            closures[c] |= closures[component[r]]
    return CondensedImage(MaskView(a.alphabet.observable, labeled, closures), component)


def searches(system: Lts, keep: Iterable[State],
             search_for: Callable[[CondensedImage, frozenset], tuple]) -> Callable[[State], Word | None]:
    """The deciders' search of ``system``'s condensed image from any start
    state ``q``: the word it finds, or None.

    The dead-end set, :func:`~.automata.universal_states` of ``system``
    over ``keep``, comes first: a start state in it gives None at once.
    The first start state that needs a search builds the condensed image
    (:func:`_searched_image`: subsets as bit masks when it has at most
    :data:`~.automata.MASK_COMPONENTS` components, as frozensets
    otherwise), and asks ``search_for(image, dead_end_set)``, once, for the
    goal, the system searched against (or None) and the dead-end predicate of a
    :func:`~.automata.subset_pair_search`, from ``q``'s image state and
    from ``q`` in that system (:data:`~.automata.DEAD` without one).  The
    searches share one set of proven pairs, so a start whose pair an
    earlier search proved gives None without a row."""
    covered = universal_states(system, keep)
    proven: set = set()
    made = None

    def search(q: State) -> Word | None:
        nonlocal made
        if q in covered:
            return None
        if made is None:
            image = _searched_image(system)
            goal, against, dead_end = search_for(image, covered)
            # no predicate to call on every pair when there is nothing to stop at
            made = image, goal, against, (dead_end if covered else None)
        (nfa, component), goal, against, dead_end = made
        start = component[q], DEAD if against is None else q
        return subset_pair_search(nfa, goal, against, start, dead_end, proven)

    return search


def orwellian_image_nfa(a: Lts) -> EpsilonNfa:
    """Nondeterministic automaton for the Orwellian-projection images of
    ``a``'s languages, one accepting set per source set.

    An image word is a verbatim prefix ending at a downgrading event (or
    empty) followed by the natural projection of a downgrade-free
    continuation.  The automaton has a verbatim prefix layer copying the
    system (``("pre", q)``); every downgrading move into a state ``q``
    additionally jumps into a continuation copy entered at ``q``, a copy of
    the condensed natural image of the downgrade-free system
    (:func:`condensed_image`, the image :func:`per_entry` searches), whose
    states are ``("post", q, c)`` for the components ``c`` of that image,
    entered at the component of ``q``.  A fresh start state ``("in",)``
    also enters the initial state's copy silently, covering runs with no
    downgrade.  The copies a search can reach are those of the reachable
    downgrade entry states.

    The automaton is explored on demand and declares nothing up front: a
    state's moves are computed when a search first reaches it, a prefix
    state's from ``a``'s step function, a continuation state's from the
    condensed image's moves (observable events lead the alphabet, so their
    indices carry over).  Expanding a continuation state ``("post", q, c)``
    adds it to the accepting sets whose lifted form holds ``c``.  A search
    that stops early never builds the copies it does not enter, and nothing
    is trimmed, since only reachable states are ever expanded.

    Note the image alphabet is the full source alphabet: prefixes keep
    their unobservable events.
    """
    events = a.alphabet.events
    down = set(a.alphabet.downgrading)
    delta = a.delta
    continuation, component = condensed_image(restrict(a))
    start: State = ("in",)
    accepting: dict[str, set] = {name: set() for name in a.accepting_sets}
    holders = [(continuation.accepting_sets[name], found) for name, found in accepting.items()]

    def expand(x: State) -> tuple:
        if x == start:
            return (("pre", a.initial), ("post", a.initial, component[a.initial])), ()
        if x[0] == "pre":
            labeled = []
            for i, e in enumerate(events):
                r = delta.get((x[1], e))
                if r is not None:
                    labeled.append((i, ("pre", r)))
                    if e in down:  # a reachable downgrade target is an entry state
                        labeled.append((i, ("post", r, component[r])))
            return (), labeled
        _, q, c = x
        for members, found in holders:
            if c in members:
                found.add(x)
        silent, labeled = continuation.moves[c]
        return [("post", q, c2) for c2 in silent], [(i, ("post", q, c2)) for i, c2 in labeled]

    return EpsilonNfa(events, start, accepting, MovesOnDemand(expand))
