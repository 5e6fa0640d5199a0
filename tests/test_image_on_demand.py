"""Image automata whose move maps are derived, not read off transitions.

``orwellian_image_nfa`` declares nothing up front: it computes a state's
moves on the first lookup, and enters a continuation state in its
accepting sets when it expands it.  Its continuation copies are copies of
the condensed natural image, one state per component of the hidden steps,
so it is compared with the eager reference, which has one continuation
state per system state, through the component map: read in full, it must
be the reachable part of the reference built on the trimmed system, with
each continuation state merged into its component, whether or not the
system passed in was trimmed, and the two must determinize alike.  A
search that stops early must expand only part of it, and its accepting
sets must then hold exactly the expanded states standing for states the
reference accepts.  Past the oracle's sizes, direct INI over it must agree
with decomposed INI and with direct INI over the eager reference.
``condensed_image`` builds its move map straight from the system's step
function; merged by components, the triple-set reference must give the
same automaton, and neither the deciders nor the translation to NI may read
the transitions of the condensed image they search or mark
(``test_condensed_image.py``).  The deciders build that at most once per
check, and not at all when the dead-end set holds every start state
(``test_dead_ends.py``).
"""

import random

from opaqcheck import (
    Lts,
    PartitionedAlphabet,
    alphabet,
    check_ini_decomposed,
    check_ini_direct,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    opacity_to_ini,
    opacity_to_ni,
    render_model,
    word,
)
from opaqcheck import interference, observation, reductions
from opaqcheck.automata import SILENT, EpsilonNfa, MovesOnDemand, determinize, entry_words, move_map, restrict, trim
from opaqcheck.generate import random_system
from opaqcheck.observation import condensed_image, orwellian_image_nfa
from reference import (
    find_isomorphism,
    merged_part,
    natural_image_nfa_triples,
    orwellian_image_nfa_eager,
    reachable_part,
    with_observable,
)
from test_reductions import differential_instances, indexed


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


def by_component(system):
    """Reads a state of the eager Orwellian image of ``system`` as the state
    of ``orwellian_image_nfa(system)`` standing for it: a continuation state
    ``("post", q, r)`` as ``("post", q, c)``, ``c`` the component of ``r``
    in the condensed image of the downgrade-free system."""
    component = condensed_image(restrict(system)).component
    return lambda x: ("post", x[1], component[x[2]]) if x[0] == "post" else x


def eager_part(system):
    """The reachable part of the eager Orwellian image of the trimmed
    system, merged by the components of ``system``'s hidden steps."""
    return merged_part(reachable_part(orwellian_image_nfa_eager(trim(system))), by_component(system))


def determinized(nfa, accepting="F"):
    return determinize(nfa, accepting, PartitionedAlphabet(observable=nfa.alphabet))


def test_on_demand_image_equals_the_eager_one():
    rng = random.Random(7)
    jumps_out_of_reach = merged = 0
    for round_no in range(600):
        system = random_system(rng, max_states=12, density=0.45)
        if round_no % 2:
            system = with_unreachable_part(system, rng, rng.randint(1, 4))
            entries = entry_words(system)
            down = set(system.alphabet.downgrading)
            jumps_out_of_reach += any(e in down and r not in entries for (_, e), r in system.delta.items())
        image = orwellian_image_nfa(system)
        eager = orwellian_image_nfa_eager(trim(system))
        assert reachable_part(image) == eager_part(system)
        # read in full, the image declares its reachable part and nothing else
        assert parts(image) == reachable_part(image)
        # and it determinizes as the eager one does, subset for subset
        for name in system.accepting_sets:
            assert find_isomorphism(determinized(image, name), determinized(eager, name)) is not None
        merged += len(image.states) < len(reachable_part(eager)[1])
    # many untrimmed systems downgrade into a state that is no entry state,
    # and many images merge a hidden cycle
    assert jumps_out_of_reach >= 50 and merged >= 100


def test_natural_image_equals_the_triple_set_one():
    rng = random.Random(3)
    merged = 0
    for system in differential_instances():
        events = system.alphabet.events
        for observable in (system.alphabet.observable, tuple(e for e in events if rng.random() < 0.5)):
            image, component = condensed_image(with_observable(system, observable))
            reference = natural_image_nfa_triples(system, observable)
            assert parts(image) == merged_part(parts(reference), component.get)
            merged += len(image.moves) < len(system.states)
    assert merged >= 100


def test_natural_image_transitions_are_never_built(monkeypatch, downgrade_loop):
    images = []

    def capture(build):
        def capturing(system):
            images.append(build(system))
            return images[-1]
        return capturing

    # the images the searches read, and the one the translation marks
    monkeypatch.setattr(observation, "_searched_image", capture(observation._searched_image))
    monkeypatch.setattr(reductions, "condensed_image", capture(condensed_image))
    rng = random.Random(13)
    systems = [downgrade_loop] + [random_system(rng, max_states=30, density=0.4) for _ in range(20)]
    for system in systems:
        check_ni(system)
        check_opacity_static(system)
        check_opacity_orwellian(system)
        opacity_to_ni(system)
    assert len(images) == 4 * len(systems)
    assert all("transitions" not in image.nfa.__dict__ for image in images)


def test_reduction_to_ini_writes_the_same_model_on_both_routes(monkeypatch):
    rng = random.Random(11)
    for _ in range(150):
        system = random_system(rng, max_states=10, density=0.45)
        on_demand = opacity_to_ini(system).lts
        monkeypatch.setattr(reductions, "orwellian_image_nfa", lambda system: orwellian_image_nfa_eager(trim(system)))
        eager = opacity_to_ini(system).lts
        monkeypatch.undo()
        assert indexed(on_demand) == indexed(eager)
        assert render_model(on_demand) == render_model(eager)


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
    assert len(image.moves) == 9
    # reading the states expands the rest of the reachable part
    assert len(image.states) == 2053 and len(image.moves) == len(image.states)


def test_accepting_sets_hold_exactly_the_expanded_states_the_reference_accepts(monkeypatch):
    images = []

    def capture(system):
        images.append(orwellian_image_nfa(system))
        return images[-1]

    monkeypatch.setattr(interference, "orwellian_image_nfa", capture)
    rng = random.Random(19)
    stopped_early = accepted = 0
    for _ in range(300):
        system = random_system(rng, max_states=20, density=0.45)
        check_ini_direct(system)
        (image,) = images
        images.clear()
        eager = eager_part(system)
        expanded = set(image.moves)
        assert image.accepting_sets == {name: members & expanded for name, members in eager[4].items()}
        accepted += bool(image.accepting_sets["F"])
        # fully expanded, it is the reference's reachable part, merged
        assert parts(image) == eager
        stopped_early += len(expanded) < len(image.moves)
    # the sets were read while the search had expanded only part of the image
    assert stopped_early >= 150 and accepted >= 150


def test_direct_ini_agrees_past_the_oracle_sizes(monkeypatch):
    rng = random.Random(61)
    systems = []
    while len(systems) < 30:
        # every third system has no hidden event, so INI holds and the
        # search reads the whole reachable image
        hidden = {"unobservable": ()} if len(systems) % 3 == 2 else {}
        system = random_system(rng, max_states=100, density=rng.choice((0.3, 0.45, 0.6)), **hidden)
        if 50 <= len(system.states) <= 100:
            systems.append(with_unreachable_part(system, rng, rng.randint(1, 5)) if len(systems) % 2 else system)
    verdicts = set()
    for system in systems:
        direct = check_ini_direct(system)
        decomposed = check_ini_decomposed(system)
        monkeypatch.setattr(interference, "orwellian_image_nfa", lambda a: orwellian_image_nfa_eager(trim(a)))
        eager = check_ini_direct(system)
        monkeypatch.undo()
        assert (direct.holds, direct.witness) == (decomposed.holds, decomposed.witness)
        assert (direct.holds, direct.witness) == (eager.holds, eager.witness)
        verdicts.add(direct.holds)
    assert verdicts == {True, False}


def test_untrimmed_system_with_a_downgrade_out_of_reach():
    # x -d-> y is unreachable, and y is no downgrade entry state
    lts = Lts(alphabet("l", "", "d"), frozenset({"0", "x", "y"}), {("0", "l"): "0", ("x", "d"): "y"}, "0",
              {"F": frozenset({"0", "x", "y"})})
    trimmed = Lts(lts.alphabet, frozenset({"0"}), {("0", "l"): "0"}, "0", {"F": frozenset({"0"})})
    assert reachable_part(orwellian_image_nfa(lts)) == eager_part(lts)
    assert reachable_part(orwellian_image_nfa(trimmed)) == eager_part(trimmed)
    assert find_isomorphism(determinized(orwellian_image_nfa(lts)), determinized(orwellian_image_nfa(trimmed)))
    assert check_ini_direct(lts).holds


def test_on_demand_moves_are_expanded_once_on_first_lookup():
    # p -silent-> r, p -a-> q, q -a-> p, r -b-> r; nothing reaches s
    table = {"p": (("r",), [(0, "q")]), "q": ((), [(0, "p")]), "r": ((), [(1, "r")]), "s": ((), [(0, "p")])}
    calls = []

    def expand(x):
        calls.append(x)
        return table[x]

    nfa = EpsilonNfa(("a", "b"), "p", {"F": frozenset({"q"})}, MovesOnDemand(expand))
    assert calls == []
    start = nfa.closed_state("p")
    assert start == {"p", "r"} and calls == ["p", "r"]
    assert nfa.successor_row(start) == ({"q"}, {"r"}) and calls == ["p", "r", "q"]
    # the determinization reads the same map, and expands nothing again
    assert len(determinize(nfa, "F", PartitionedAlphabet(observable=nfa.alphabet)).states) == 4
    assert calls == ["p", "r", "q"] and list(nfa.moves) == calls


def test_explicit_move_map_lists_every_state():
    moves = move_map(("a", "b"), frozenset({0, 1, 2}), [(0, "b", 1), (0, SILENT, 2), (0, "b", 2)])
    moves = {q: (set(silent), set(labeled)) for q, (silent, labeled) in moves.items()}
    assert moves == {0: ({2}, {(1, 1), (1, 2)}), 1: (set(), set()), 2: (set(), set())}
