"""Hypothesis strategies for the property-based cross-checks.

:func:`systems` draws small systems whose shrinking goes toward fewer
states, fewer steps and smaller accepting sets, so that a failing property
reports a small model.  A property notes the model it checks with
``note(render_model(system))``, which prints a failure as a file that
``opaq check`` reads.  :func:`known_systems` draws members of the
``(d, h)`` family of :mod:`known_verdicts`, whose verdicts are known by
construction, and shrinks toward fewer DFA states and hidden values.
"""

from hypothesis import reject
from hypothesis import strategies as st

from known_verdicts import dh_system
from opaqcheck import Lts, PartitionedAlphabet

#: Observable ``a b``, unobservable ``u v`` and two downgrading events, so
#: that a drawn system has about one downgrading step per state and, with
#: them, many downgrade entry states.
ALPHABET = PartitionedAlphabet(("a", "b"), ("u", "v"), ("d", "e"))


@st.composite
def systems(draw, max_states: int = 8) -> Lts:
    """A system over :data:`ALPHABET` with initial state ``q0`` and states
    among ``q0..q{n-1}``, ``n`` at most ``max_states``: each state steps on
    each event with even odds, to a drawn state, and ``Fphi`` is a drawn
    subset of a drawn ``F``.  A state other than ``q0`` that no step names
    is left out.  Nothing is trimmed, so a system may hold states and
    downgrades out of reach."""
    n = draw(st.integers(1, max_states))
    states = [f"q{i}" for i in range(n)]
    # a step drawn as k in 0..2n-1: none below n, which it shrinks toward,
    # and the step to state k - n from n on
    steps = st.integers(0, 2 * n - 1)
    delta = {}
    for q in states:
        for e in ALPHABET.events:
            k = draw(steps)
            if k >= n:
                delta[(q, e)] = states[k - n]
    # a state no step names adds nothing but a line to a printed failure
    named = {"q0", *(q for q, _ in delta), *delta.values()}
    states = [q for q in states if q in named]
    accepting = draw(st.frozensets(st.sampled_from(states)))
    secret = draw(st.frozensets(st.sampled_from(sorted(accepting)))) if accepting else frozenset()
    return Lts(ALPHABET, frozenset(states), delta, "q0", {"F": accepting, "Fphi": secret})


@st.composite
def known_systems(draw) -> tuple[Lts, bool]:
    """A member of the ``(d, h)`` family of 3 to 9 DFA states and 2 to 12
    hidden values, from a drawn seed, and whether a leak was planted in
    it.  A draw the builder refuses (no leak can be planted) is rejected."""
    seed, m, k, leak = draw(st.integers(0, 2**16)), draw(st.integers(3, 9)), draw(st.integers(2, 12)), draw(st.booleans())
    try:
        return dh_system(seed, m, k, leak), leak
    except ValueError:
        reject()
