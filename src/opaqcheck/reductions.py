"""Constructions translating each property into the others.

A translation of opacity is the observer's image of the system plus a
marked layer, determinized.  A fresh private event leads from each secret
state into a mark of its own, so the translation accepts the non-secret
image together with the secret image followed by the fresh event.  For
static opacity the marks join the system, and its natural image,
condensed by the hidden steps, comes from the searches' one image
builder.  For Orwellian opacity the image is the Orwellian one (a
verbatim prefix layer over copies of that condensed image, one per
downgrade entry state), walked as a view of the searches' components
with marked copies of its secret components, not built as an automaton.
Both images lift the secret states and the non-secret accepting states as
two sets, so one image state may stand for both.  Images are projection
fixed points, so the projection of a marked word is the bare secret
image, and it stays inside the language exactly when the non-secret image
covers it, which is opacity.  The Orwellian image keeps private prefixes
before downgrades verbatim, which is essential, since erasing them would
merge observations the Orwellian observer can tell apart.  Conversely,
INI becomes Orwellian opacity by taking as secret exactly the runs the
Orwellian projection changes.
"""

from __future__ import annotations

from typing import NamedTuple

from .automata import (
    DEAD,
    Lts,
    PartitionedAlphabet,
    State,
    determinize,
    incorporate_secret,
)
from .observation import OrwellianImage, condensed_image


class ReductionOutput(NamedTuple):
    """A translated problem instance.

    ``lts`` is ready for the target decider, with the target Low/High/Down
    roles in its alphabet; a translation of opacity adds one fresh private
    event, the last of its High class.
    """

    lts: Lts


def _fresh_event(taken: tuple[str, ...]) -> str:
    name = "h"
    while name in taken:
        name += "h"
    return name


#: Tags the marks of the translation to NI: a pair holding it is no state
#: of any system a caller builds
_MARK = object()


def opacity_to_ni(system: Lts) -> ReductionOutput:
    """Turn a static-opacity instance into an NI instance.

    The fresh event, observable here, steps from each secret state ``q``
    to a mark of its own, ``(_MARK, q)``, which has no moves.  The natural
    image of that system, condensed by the hidden steps
    (:func:`~.observation.condensed_image`), keeps the source observable
    class and the fresh event, and every other source event goes silent;
    it is determinized with the non-secret accepting states and the marks
    accepting, so the two languages stay apart, and a component standing
    for both kinds is accepting and leads to marks.  Low is the source
    observable class, High is the single fresh event.  The source secret is
    opaque exactly when the produced system satisfies NI.
    """
    alpha = system.alphabet
    high = _fresh_event(alpha.events)
    f_states = system.accepting("F")
    secret = f_states & system.accepting("Fphi")
    marks = {q: (_MARK, q) for q in secret}
    observable = len(alpha.observable)
    marked = Lts.derived(PartitionedAlphabet(alpha.observable + (high,), alpha.unobservable + alpha.downgrading),
                         system.states.union(marks.values()),
                         (*system.steps[:observable], marks, *system.steps[observable:]), system.initial, {})
    image = condensed_image(marked)
    accepts = image.lift((f_states - secret).union(marks.values())).__and__
    return ReductionOutput(determinize(image.nfa, accepts, PartitionedAlphabet(alpha.observable, (high,))))


#: Tags of :class:`_OrwellianCopies`' subsets: the initial one, the other
#: subsets of the image, and the marked ones
_START, _PLAIN, _MARKED = range(3)


class _OrwellianCopies:
    """The Orwellian image of a system, its marked layer added, as
    :func:`~.automata.determinize` reads it: the image of
    :class:`~.observation.OrwellianImage` with one continuation copy per
    downgrade entry state, entered at that state, and a fresh start state
    that enters the prefix layer and the initial state's copy.  The fresh
    event leads from each secret continuation state to a marked copy of it,
    which has no moves.

    A closed subset is ``(tag, q, pair)``: ``pair`` as
    :class:`~.observation.OrwellianImage` reads it (``()`` when empty), and
    ``q`` the entry state of the copy its components lie in, or None
    without components.  A subset holds at most one copy, since a copy
    moves on observable events only and a downgrade enters a new one.  The
    tag sets apart the initial subset, which alone holds the start state,
    and the marked subsets, whose components are the secret ones of their
    source's copy.  So the subsets, and the order the walk reaches them in,
    are those of the image automaton, which fixes the states the
    translation writes.
    """

    def __init__(self, system: Lts, fresh: str) -> None:
        self._image = image = OrwellianImage(system)
        self.alphabet = image.alphabet + (fresh,)
        self.initial = image.initial
        lift = image.continuation.lift
        # one component may stand for a secret and a non-secret state
        f_states = system.accepting("F")
        secret = f_states & system.accepting("Fphi")
        self._secret = lift(secret)
        self._nonsecret = lift(f_states - secret)
        self._empty = empty = (_PLAIN, None, ())
        self._to_empty = (empty,) * len(self.alphabet)

    def closed_state(self, q: State) -> tuple:
        """The initial subset, entered at the system's initial state ``q``."""
        return _START, q, self._image.closed_state(q)

    def successor_row(self, subset: tuple) -> list:
        """The closed successor of ``subset`` on each event, in alphabet
        order, the fresh event last."""
        tag, q, pair = subset
        if tag == _MARKED or not pair:
            return self._to_empty
        image = self._image
        empty = self._empty
        # a downgrade enters the copy of its target, the prefix state reached
        row = [empty if not nxt else (_PLAIN, nxt[0], nxt) if down else (_PLAIN, q if nxt[1] else None, nxt)
               for down, nxt in zip(image.down, image.successor_row(pair))]
        secret = pair[1] & self._secret
        row.append((_MARKED, q, (DEAD, secret)) if secret else empty)
        return row

    def accepts(self, subset: tuple) -> bool:
        """Whether ``subset`` meets the non-secret states or is marked."""
        tag, _, pair = subset
        return tag == _MARKED or bool(pair and pair[1] & self._nonsecret)


def opacity_to_ini(system: Lts) -> ReductionOutput:
    """Turn an Orwellian-opacity instance into an INI instance.

    The image is the Orwellian image of the system, one continuation copy
    per downgrade entry state (:class:`_OrwellianCopies`), determinized.
    Down carries over; High is the source private class plus the fresh
    event, because image prefixes keep private events verbatim up to the
    last downgrade.  The source secret is opaque exactly when the produced
    system satisfies INI.
    """
    alpha = system.alphabet
    high = _fresh_event(alpha.events)
    partition = PartitionedAlphabet(alpha.observable, alpha.unobservable + (high,), alpha.downgrading)
    copies = _OrwellianCopies(system, high)
    return ReductionOutput(determinize(copies, copies.accepts, partition))


def ini_to_opacity(system: Lts) -> ReductionOutput:
    """Turn an INI instance into an Orwellian-opacity instance.

    The secret is the set of runs the Orwellian projection changes: those
    with a private event after their last downgrade.  A two-state marker
    automaton tracks exactly that and is folded into the system; INI holds
    for the source exactly when the secret is opaque for the product.
    """
    alpha = system.alphabet
    clean: State = "low_tail"
    dirty: State = "high_tail"
    # one map per role, shared by its events: a downgrade cleans, a private
    # event dirties, an observable one keeps the state
    keeps, dirties, cleans = {clean: clean, dirty: dirty}, {clean: dirty, dirty: dirty}, {clean: clean, dirty: clean}
    steps = ((keeps,) * len(alpha.observable) + (dirties,) * len(alpha.unobservable)
             + (cleans,) * len(alpha.downgrading))
    marker = Lts.derived(alpha, frozenset({clean, dirty}), steps, clean, {"Fphi": frozenset({dirty})})
    return ReductionOutput(incorporate_secret(system, "F", marker, "Fphi"))
