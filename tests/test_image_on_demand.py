"""Image automata whose move maps are derived, not read off transitions.

``orwellian_image_nfa`` computes a state's moves from the system's step
function on the first lookup.  Read in full, it must be the automaton the
eager reference builds, on trimmed and untrimmed systems alike, and a
search that stops early must expand only part of it.  ``natural_image_nfa``
builds its move map straight from the system's step function; it must be
the automaton the triple-set reference builds, and neither the deciders
nor the translation to NI may read its transitions.
"""

import random

from opaqcheck import (
    Lts,
    alphabet,
    check_ini_direct,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    opacity_to_ini,
    opacity_to_ni,
    render_model,
    word,
)
from opaqcheck import interference, opacity, reductions
from opaqcheck.automata import SILENT, EpsilonNfa, MovesOnDemand, determinize, entry_words, move_map
from opaqcheck.generate import random_system
from opaqcheck.observation import natural_image_nfa, orwellian_image_nfa
from reference import natural_image_nfa_triples, nfa_accepts, orwellian_image_nfa_eager
from test_reductions import differential_instances


def with_unreachable_part(system, rng, extra):
    """``system`` plus ``extra`` states that nothing reachable moves to,
    with random moves (downgrades among them) into the whole system."""
    added = [f"x{i}" for i in range(extra)]
    targets = sorted(system.states, key=str) + added
    delta = dict(system.delta)
    for q in added:
        for e in system.alphabet.events:
            if rng.random() < 0.5:
                delta[(q, e)] = rng.choice(targets)
    return Lts(system.alphabet, system.states | frozenset(added), delta, system.initial, system.accepting_sets)


def parts(nfa):
    return nfa.alphabet, nfa.states, nfa.transitions, nfa.initial, nfa.accepting_sets


def test_on_demand_image_equals_the_eager_one():
    rng = random.Random(7)
    jumps_out_of_reach = 0
    for round_no in range(600):
        system = random_system(rng, max_states=12, density=0.45)
        if round_no % 2:
            system = with_unreachable_part(system, rng, rng.randint(1, 4))
            entries = entry_words(system)
            down = set(system.alphabet.downgrading)
            jumps_out_of_reach += any(e in down and r not in entries for (_, e), r in system.delta.items())
        assert parts(orwellian_image_nfa(system)) == parts(orwellian_image_nfa_eager(system))
    # many untrimmed systems downgrade into a state that is no entry state
    assert jumps_out_of_reach >= 50


def move_sets(nfa):
    return {q: (set(nfa.moves[q][0]), set(nfa.moves[q][1])) for q in nfa.states}


def test_natural_image_equals_the_triple_set_one():
    rng = random.Random(3)
    for system in differential_instances():
        events = system.alphabet.events
        for observable in (system.alphabet.observable, tuple(e for e in events if rng.random() < 0.5)):
            image = natural_image_nfa(system, observable)
            reference = natural_image_nfa_triples(system, observable)
            assert move_sets(image) == move_sets(reference)
            assert parts(image) == parts(reference)


def test_natural_image_transitions_are_never_built(monkeypatch, downgrade_loop):
    images = []

    def capture(system, observable):
        images.append(natural_image_nfa(system, observable))
        return images[-1]

    for module in (interference, opacity, reductions):
        monkeypatch.setattr(module, "natural_image_nfa", capture)
    rng = random.Random(13)
    systems = [downgrade_loop] + [random_system(rng, max_states=30, density=0.4) for _ in range(20)]
    for system in systems:
        check_ni(system)
        check_opacity_static(system)
        check_opacity_orwellian(system)
        opacity_to_ni(system)
    assert len(images) == 4 * len(systems)
    assert all("transitions" not in image.__dict__ for image in images)


def test_reduction_to_ini_writes_the_same_model_on_both_routes(monkeypatch):
    rng = random.Random(11)
    for _ in range(150):
        system = random_system(rng, max_states=10, density=0.45)
        on_demand = render_model(opacity_to_ini(system).lts)
        monkeypatch.setattr(reductions, "orwellian_image_nfa", orwellian_image_nfa_eager)
        eager = render_model(opacity_to_ini(system).lts)
        monkeypatch.undo()
        assert on_demand == eager


def test_direct_ini_expands_only_what_its_search_reaches(monkeypatch):
    images = []

    def capture(system):
        images.append(orwellian_image_nfa(system))
        return images[-1]

    monkeypatch.setattr(interference, "orwellian_image_nfa", capture)
    system = random_system(random.Random(5), max_states=100, density=0.6)
    verdict = check_ini_direct(system)
    (image,) = images
    assert verdict.witness == word("a")
    assert len(image.states) == 2965
    assert len(image.moves) == 14
    # reading the transitions expands the rest
    assert len(image.transitions) > 0 and len(image.moves) == len(image.states)


def test_untrimmed_system_with_a_downgrade_out_of_reach():
    # x -d-> y is unreachable, and y is no downgrade entry state
    lts = Lts(alphabet("l", "", "d"), frozenset({"0", "x", "y"}), {("0", "l"): "0", ("x", "d"): "y"}, "0",
              {"F": frozenset({"0", "x", "y"})})
    image = orwellian_image_nfa(lts)
    assert ("pre", "x") in image.states and ("post", "y", "y") not in image.states
    assert (("pre", "x"), "d", ("pre", "y")) in image.transitions
    trimmed = orwellian_image_nfa(Lts(lts.alphabet, frozenset({"0"}), {("0", "l"): "0"}, "0",
                                      {"F": frozenset({"0"})}))
    for w in ("", "l", "l l", "d", "l d", "d l"):
        assert nfa_accepts(image, word(w)) == nfa_accepts(trimmed, word(w))
    assert check_ini_direct(lts).holds


def test_on_demand_moves_are_expanded_once_on_first_lookup():
    # p -silent-> r, p -a-> q, q -a-> p, r -b-> r; nothing reaches s
    table = {"p": (("r",), [(0, "q")]), "q": ((), [(0, "p")]), "r": ((), [(1, "r")]), "s": ((), [(0, "p")])}
    calls = []

    def expand(x):
        calls.append(x)
        return table[x]

    nfa = EpsilonNfa(("a", "b"), frozenset(table), "p", {"F": frozenset({"q"})}, MovesOnDemand(expand))
    assert calls == []
    start = nfa.closed_state("p")
    assert start == {"p", "r"} and calls == ["p", "r"]
    assert nfa.successor_row(start) == ({"q"}, {"r"}) and calls == ["p", "r", "q"]
    # the determinization reads the same map, and expands nothing again
    assert len(determinize(nfa, "F").states) == 4
    assert calls == ["p", "r", "q"] and list(nfa.moves) == calls


def test_explicit_move_map_lists_every_state():
    moves = move_map(("a", "b"), frozenset({0, 1, 2}), [(0, "b", 1), (0, SILENT, 2), (0, "b", 2)])
    moves = {q: (set(silent), set(labeled)) for q, (silent, labeled) in moves.items()}
    assert moves == {0: ({2}, {(1, 1), (1, 2)}), 1: (set(), set()), 2: (set(), set())}
