"""Image automata whose move maps are derived, not read off transitions,
and the views of images that hold no automaton.

The translation to INI walks the Orwellian image as a view with one
continuation copy per entry state, each copy a subset of the components
of the condensed natural image of the downgrade-free system
(``reductions._OrwellianCopies``).  It is compared with the eager
reference, which has one continuation state per system state and per
entry state, and tags every layer: walked in full, the view must reach the
closed subsets of the reference built on the trimmed system, one for one
and in the same order, and accept the same ones, whether or not the
system passed in was trimmed, with subsets held as component masks or as
frozensets.  Direct INI searches the same image read as (prefix state,
continuation subset) pairs with the copies merged
(``observation.OrwellianImage``): it must find the word a search over the
eager reference finds, on both width routes, read only the rows its
search reaches, and past the oracle's sizes agree with decomposed INI.
``condensed_image`` builds its move map straight from the system's step
function when it is too wide for a mask view; merged by components, the
triple-set reference must give the same automaton, and the image the
deciders and the translation to NI search or determinize past that width
is the package's plain automaton, which has no transition set to build
(the tests read transitions off ``reference.ExplicitNfa``; see also
``test_condensed_image.py``).  The deciders build that image at most once per
check, and not at all when the dead-end set holds every start state
(``test_dead_ends.py``).
"""

import random

from opaqcheck import (
    Lts,
    alphabet,
    check_ini_decomposed,
    check_ini_direct,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    opacity_to_ini,
    opacity_to_ni,
    render_model,
    with_set,
    word,
)
from opaqcheck import observation, reductions
from opaqcheck.automata import (
    EpsilonNfa,
    MaskView,
    entry_words,
    subset_pair_search,
    trim,
)
from opaqcheck.generate import random_system
from opaqcheck.observation import OrwellianImage, condensed_image
from reference import (
    SILENT,
    closed_subsets,
    image_automaton,
    layered_ini_nfa,
    layered_opacity_to_ini,
    merged_part,
    move_map,
    natural_image_nfa_triples,
    orwellian_image_nfa_eager,
    with_observable,
)
from test_reductions import assert_walks_the_tagged_layer, differential_instances, indexed, per_copy_view


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


def with_random_secret(system, rng):
    """``system`` with a secret of arbitrary states, accepting or not."""
    return with_set(system, "Fphi", [q for q in sorted(system.states, key=str) if rng.random() < 0.4])


def test_per_copy_view_walks_the_subsets_of_the_eager_image(monkeypatch):
    rng = random.Random(7)
    jumps_out_of_reach = merged = 0
    routes = set()
    for round_no in range(600):
        system = random_system(rng, max_states=12, density=0.45)
        if round_no % 2:
            system = with_random_secret(with_unreachable_part(system, rng, rng.randint(1, 4)), rng)
            entries = entry_words(system)
            down = set(system.alphabet.downgrading)
            jumps_out_of_reach += any(e in down and r not in entries for (_, e), r in system.delta.items())
        if round_no % 4 > 1:
            monkeypatch.setattr(observation, "MASK_COMPONENTS", 0)
        view = per_copy_view(system)
        routes.add(type(view._image.continuation.nfa))
        assert_walks_the_tagged_layer(view, system)
        monkeypatch.undo()
        merged += len(set(view._image.continuation.component.values())) < len(system.states)
    # many untrimmed systems downgrade into a state that is no entry state,
    # and many images merge a hidden cycle
    assert jumps_out_of_reach >= 50 and merged >= 100
    assert routes == {MaskView, EpsilonNfa}


def test_natural_image_equals_the_triple_set_one():
    rng = random.Random(3)
    merged = 0
    for system in differential_instances():
        events = system.alphabet.events
        for observable in (system.alphabet.observable, tuple(e for e in events if rng.random() < 0.5)):
            image, component = image_automaton(with_observable(system, observable))
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

    # the images the searches read, and the one the translation marks, as
    # the automata they are past the mask width
    monkeypatch.setattr(observation, "condensed_image", capture(condensed_image))
    monkeypatch.setattr(reductions, "condensed_image", capture(condensed_image))
    monkeypatch.setattr(observation, "MASK_COMPONENTS", 0)
    rng = random.Random(13)
    systems = [downgrade_loop] + [random_system(rng, max_states=30, density=0.4) for _ in range(20)]
    for system in systems:
        check_ni(system)
        check_opacity_static(system)
        check_opacity_orwellian(system)
        check_ini_direct(system)
        opacity_to_ni(system)
    assert len(images) == 5 * len(systems)
    # the package's automaton has no transition set to build
    assert all(type(image.nfa) is EpsilonNfa and not hasattr(image.nfa, "transitions") for image in images)


def test_reduction_to_ini_writes_the_same_model_on_both_routes(monkeypatch):
    # continuation subsets as component masks, and as frozensets past
    # MASK_COMPONENTS, patched to 0; the eager reference is the tagged route
    rng = random.Random(11)
    for _ in range(150):
        system = random_system(rng, max_states=10, density=0.45)
        on_masks = opacity_to_ini(system).lts
        monkeypatch.setattr(observation, "MASK_COMPONENTS", 0)
        on_frozensets = opacity_to_ini(system).lts
        monkeypatch.undo()
        eager = layered_opacity_to_ini(system)
        assert indexed(on_masks) == indexed(on_frozensets) == indexed(eager)
        assert render_model(on_masks) == render_model(on_frozensets) == render_model(eager)


def image_escape(image, system):
    """Direct INI's search over ``image``, an automaton of the Orwellian
    image of ``system``: the shortest-lex word it accepts that the system
    does not, searched against the system, or None."""
    kept = system.accepting("F")
    marks = image.accepting_sets["F"]
    return subset_pair_search(image, lambda s, p: s & marks and p not in kept, system)


def test_direct_ini_expands_only_what_its_search_reaches(monkeypatch):
    system = random_system(random.Random(5), max_states=100, density=0.6)
    assert image_escape(orwellian_image_nfa_eager(trim(system)), system) == word("a")
    rows = []
    row = OrwellianImage.successor_row
    monkeypatch.setattr(OrwellianImage, "successor_row", lambda self, subset: rows.append(subset) or row(self, subset))
    assert check_ini_direct(system).witness == word("a")
    assert len(rows) == 1
    # the translation walks the whole image, its copies kept apart
    rows.clear()
    assert len(opacity_to_ini(system).lts.states) == 1195
    assert len(rows) == 902


def test_accepting_sets_hold_exactly_the_expanded_states_the_reference_accepts():
    # the translation accepts the subsets that meet the tagged layer's
    # accepting set: the non-secret continuation states and the marked ones
    rng = random.Random(19)
    accepted = marked = 0
    for round_no in range(300):
        system = random_system(rng, max_states=20, density=0.45)
        if round_no % 2:
            system = with_random_secret(system, rng)
        nfa, _ = layered_ini_nfa(system)
        marks = nfa.accepting_sets["F"]
        subsets = closed_subsets(nfa)
        out = opacity_to_ini(system).lts
        assert out.states == frozenset(range(len(subsets)))
        assert out.accepting("F") == {k for k, s in enumerate(subsets) if not s.isdisjoint(marks)}
        accepted += bool(out.accepting("F"))
        marked += any(isinstance(x[0], tuple) for s in subsets for x in s)
    assert accepted >= 250 and marked >= 150


def test_direct_ini_agrees_past_the_oracle_sizes():
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
        assert (direct.holds, direct.witness) == (decomposed.holds, decomposed.witness)
        assert direct.witness == image_escape(orwellian_image_nfa_eager(trim(system)), system)
        verdicts.add(direct.holds)
    assert verdicts == {True, False}


def test_direct_ini_over_pairs_matches_a_search_of_the_eager_image(monkeypatch):
    # half the systems on each route: component masks, and frozensets of
    # components past MASK_COMPONENTS, patched to 0
    rng = random.Random(71)
    routes = set()
    verdicts = set()
    jumped = 0
    for round_no in range(400):
        system = random_system(rng, max_states=rng.randint(4, 30), density=rng.choice((0.3, 0.45, 0.6)))
        if round_no % 4 == 3:
            system = with_unreachable_part(system, rng, rng.randint(1, 4))
        if round_no % 2:
            monkeypatch.setattr(observation, "MASK_COMPONENTS", 0)
        direct = check_ini_direct(system)
        routes.add(type(OrwellianImage(system).continuation.nfa))
        monkeypatch.undo()
        found = image_escape(orwellian_image_nfa_eager(trim(system)), system)
        assert (direct.holds, direct.witness) == (found is None, found)
        verdicts.add(direct.holds)
        down = system.alphabet.downgrading
        jumped += found is not None and any(e in down for e in found)
    # both routes, both verdicts, and many witnesses that read a downgrade
    assert routes == {MaskView, EpsilonNfa} and verdicts == {True, False} and jumped >= 30


def test_untrimmed_system_with_a_downgrade_out_of_reach():
    # x -d-> y is unreachable, and y is no downgrade entry state
    sets = {"F": frozenset({"0", "x", "y"}), "Fphi": frozenset({"0", "y"})}
    lts = Lts(alphabet("l", "", "d"), frozenset({"0", "x", "y"}), {("0", "l"): "0", ("x", "d"): "y"}, "0", sets)
    trimmed = Lts(lts.alphabet, frozenset({"0"}), {("0", "l"): "0"}, "0",
                  {name: frozenset({"0"}) for name in sets})
    for system in (lts, trimmed):
        assert len(assert_walks_the_tagged_layer(per_copy_view(system), system)) == 4
    assert render_model(opacity_to_ini(lts).lts) == render_model(opacity_to_ini(trimmed).lts)
    assert check_ini_direct(lts).holds


def test_explicit_move_map_lists_every_state():
    moves = move_map(("a", "b"), frozenset({0, 1, 2}), [(0, "b", 1), (0, SILENT, 2), (0, "b", 2)])
    moves = {q: (set(silent), set(labeled)) for q, (silent, labeled) in moves.items()}
    assert moves == {0: ({2}, {(1, 1), (1, 2)}), 1: (set(), set()), 2: (set(), set())}
