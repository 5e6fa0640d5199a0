"""The package's one bit-mask view of an automaton, and its two users.

Up to ``automata.MASK_COMPONENTS`` components, a search holds each subset
of the condensed image as an ``int``, bit ``c`` for component ``c``
(:class:`~opaqcheck.automata.MaskView`, built straight from the
condensation pass); past it, as a frozenset.  A
mask row must be the frozenset row read through the component map, at
every width a byte boundary can cut, and every verdict, witness and
breakdown must be the one the frozensets give.  A wide translation, whose
image searches read few rows, stays on frozensets.  ``determinize`` builds
the same view over the discovery numbers of at most
``automata.MASK_LIMIT`` reachable states, with closures taken through
silent cycles; its rows must be the frozenset rows read through that
numbering.
"""

import random

from opaqcheck import (
    Lts,
    alphabet,
    check_ini,
    check_ini_decomposed,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    opacity_to_ini,
)
from opaqcheck import automata, observation
from opaqcheck.automata import MASK_LIMIT, SILENT, EpsilonNfa, MaskView, PartitionedAlphabet, determinize, restrict
from opaqcheck.generate import random_system
from opaqcheck.observation import condensed_image
from reference import explicit_nfa, natural_image_nfa_triples, successor_row_by_buckets


def system_of_width(rng, width):
    """A seeded system whose hidden steps have exactly ``width`` strongly
    connected components: a state ``s{c}`` per component, about a third of
    them on a hidden cycle with a partner ``t{c}``, hidden steps between
    components only from a higher to a lower ``c``, and random observable
    steps on three events."""
    alpha = alphabet("a b c", "u v")
    states = [f"s{c}" for c in range(width)]
    delta = {}
    for c in range(width):
        if rng.random() < 0.35:
            states.append(f"t{c}")
            delta[(f"s{c}", "u")] = f"t{c}"
            delta[(f"t{c}", "u")] = f"s{c}"
        if c and rng.random() < 0.5:
            delta[(f"s{c}", "v")] = f"s{rng.randrange(c)}"
    for q in states:
        for e in alpha.observable:
            if rng.random() < 0.6:
                delta[(q, e)] = rng.choice(states)
    accepted = frozenset(q for q in states if rng.random() < 0.6)
    return Lts(alpha, frozenset(states), delta, "s0", {"F": accepted})


def test_mask_rows_are_the_frozenset_rows_through_the_component_map():
    rng = random.Random(61)
    for width in (1, 7, 8, 9, 16, 17, 63, 64, 65, observation.MASK_COMPONENTS):
        system = system_of_width(rng, width)
        image, component = condensed_image(system)
        assert len(image.moves) == width
        # the one-pass closures need each silent target numbered below its source
        assert all(s < c for c, (silent, _) in image.moves.items() for s in silent)
        view, searched_component = observation._searched_image(system)
        assert view.width == width and searched_component == component
        natural = natural_image_nfa_triples(system, system.alphabet.observable)
        members = {}
        for q in system.states:
            members.setdefault(component[q], []).append(q)

        def components(states):
            return {component[q] for q in states}

        def bits(mask):
            return {c for c in range(width) if mask >> c & 1}

        for c in range(width):
            assert bits(view.closed_state(c)) == components(natural.epsilon_closure(members[c]))
        subsets = [[c] for c in rng.sample(range(width), min(width, 20))]
        subsets += [rng.sample(range(width), rng.randint(0, width)) for _ in range(20)]
        for subset in subsets:
            mask = sum(1 << c for c in subset)
            expected = successor_row_by_buckets(natural, [q for c in subset for q in members[c]])
            assert [bits(m) for m in view.successor_row(mask)] == [components(s) for s in expected]


def cyclic_nfa(rng, reachable):
    """An automaton of ``reachable`` states reached along a chain of ``a``
    steps, with a silent cycle between its middle and last states (a
    silent loop on one state), silent moves to random states, many of them
    back along the chain, and random ``b`` and ``c`` steps."""
    states = [f"n{i}" for i in range(reachable)]
    triples = {(states[i], "a", states[i + 1]) for i in range(reachable - 1)}
    triples |= {(states[-1], SILENT, states[reachable // 2]), (states[reachable // 2], SILENT, states[-1])}
    for q in states:
        for label in (SILENT, SILENT, "b", "c"):
            if rng.random() < 0.3:
                triples.add((q, label, rng.choice(states)))
    return explicit_nfa(("a", "b", "c"), states, triples, "n0", {"F": frozenset(states[::3])})


def test_determinize_views_give_the_frozenset_rows_through_the_discovery_numbers(monkeypatch):
    views = []
    mask_walk = automata._mask_walk
    monkeypatch.setattr(automata, "_mask_walk", lambda view: views.append(view) or mask_walk(view))
    rng = random.Random(71)
    for width in (1, 7, 8, 9, 16, 17, 63, MASK_LIMIT):
        nfa = cyclic_nfa(rng, width)
        views.clear()
        determinize(nfa, "F", PartitionedAlphabet(observable=nfa.alphabet))
        (view,) = views
        index = automata._numbered(nfa, MASK_LIMIT)
        assert view.width == len(index) == width
        numbered = list(index)
        assert any(q in nfa.epsilon_closure(nfa.moves[q][0]) for q in numbered)

        def states(mask):
            return {q for q in numbered if mask >> index[q] & 1}

        for q in numbered:
            assert states(view.closed_state(index[q])) == nfa.epsilon_closure((q,))
        subsets = [[q] for q in rng.sample(numbered, min(width, 20))]
        subsets += [rng.sample(numbered, rng.randint(0, width)) for _ in range(20)]
        for subset in subsets:
            mask = sum(1 << index[q] for q in subset)
            assert [states(m) for m in view.successor_row(mask)] == list(successor_row_by_buckets(nfa, subset))


def outcome(verdict):
    return verdict.holds, verdict.witness, [(s.state, s.holds, s.witness) for s in verdict.breakdown]


CHECKS = (check_opacity_static, check_opacity_orwellian, check_ni, lambda system: check_ini(system, "both"))


def test_masks_and_frozensets_give_the_same_outcomes(monkeypatch):
    rng = random.Random(67)
    systems = [random_system(rng, max_states=(8, 16, 30, 45)[k % 4], density=(0.35, 0.5, 0.65)[k % 3])
               for k in range(400)]
    masked = [[outcome(check(system)) for check in CHECKS] for system in systems]
    monkeypatch.setattr(observation, "MASK_COMPONENTS", 0)
    assert [[outcome(check(system)) for check in CHECKS] for system in systems] == masked
    # not vacuous: both verdicts, witnesses, and breakdowns of many entry states
    assert {o[0] for checks in masked for o in checks} == {True, False}
    assert max(len(checks[1][2]) for checks in masked) >= 10


def searched(monkeypatch, check, system):
    """The types of the automata the searches of ``check`` read."""
    seen = set()
    search = observation.subset_pair_search

    def spying(nfa, *args):
        seen.add(type(nfa))
        return search(nfa, *args)

    monkeypatch.setattr(observation, "subset_pair_search", spying)
    check(system)
    monkeypatch.setattr(observation, "subset_pair_search", search)
    return seen


def test_masks_up_to_the_limit_and_frozensets_past_it(monkeypatch):
    system = random_system(random.Random(5), max_states=100, density=0.6)
    width = len(condensed_image(restrict(system)).nfa.moves)
    monkeypatch.setattr(observation, "MASK_COMPONENTS", width)
    assert searched(monkeypatch, check_opacity_orwellian, system) == {MaskView}
    monkeypatch.setattr(observation, "MASK_COMPONENTS", width - 1)
    assert searched(monkeypatch, check_opacity_orwellian, system) == {EpsilonNfa}


def test_a_wide_translation_stays_on_frozensets(monkeypatch):
    system = random_system(random.Random(50), max_states=130, density=0.6)
    translated = opacity_to_ini(system).lts
    assert len(translated.states) == 2124
    assert len(condensed_image(translated).nfa.moves) > observation.MASK_COMPONENTS
    for check in (check_ni, check_ini_decomposed):
        assert searched(monkeypatch, check, translated) == {EpsilonNfa}
