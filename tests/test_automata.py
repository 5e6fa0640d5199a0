import itertools
import random
import tracemalloc

import pytest

from opaqcheck import (
    InvalidModel,
    Lts,
    PartitionedAlphabet,
    alphabet,
    compile_regex,
    incorporate_secret,
    opacity_to_ini,
    opacity_to_ni,
    render_model,
    with_set,
    word,
)
from opaqcheck import automata, observation, reductions
from opaqcheck.automata import (
    DEAD,
    determinize,
    discovery_tree,
    entry_words,
    render_state,
    restrict,
    state_order,
    step,
    subset_pair_search,
    trim,
    word_sort_key,
)
from opaqcheck.generate import random_system
from opaqcheck.interference import check_ini_direct, check_ni
from opaqcheck.observation import ObservationKind, condensed_image
from opaqcheck.opacity import _shortest_secret_preimage, check_opacity_static
from opaqcheck.oracle import nonsecret_partner
from reference import (
    SILENT,
    ExplicitNfa,
    Inclusion,
    closed_subsets,
    complement,
    complete,
    determinize_by_subsets,
    determinized,
    entry_words_by_sort_key,
    explicit_nfa,
    find_isomorphism,
    image_automaton,
    includes,
    incorporate_secret_by_product,
    is_complete,
    layered_ini_nfa,
    layered_ni_nfa,
    lts_parts,
    lts_to_nfa,
    natural_image_nfa_triples,
    nfa_accepts,
    nonsecret_partner_by_words,
    orwellian_image_nfa_eager,
    product,
    project_language,
    random_nfa,
    random_word,
    rebase,
    shortest_accepted,
    shortest_secret_preimage_by_words,
    shortest_words,
    successor_row_by_buckets,
    with_alphabet,
    with_observable,
)
from test_reductions import assert_walks_the_tagged_layer, tagged_subset


def same_structure(a, b):
    return (
        a.alphabet == b.alphabet
        and a.states == b.states
        and dict(a.delta) == dict(b.delta)
        and a.initial == b.initial
        and dict(a.accepting_sets) == dict(b.accepting_sets)
    )


def all_words(events, maxlen):
    for n in range(maxlen + 1):
        yield from itertools.product(events, repeat=n)


# ---------------------------------------------------------------------------
# alphabet


@pytest.mark.parametrize("observable, unobservable, downgrading", [
    (("",), (), ()),
    (("a b",), (), ()),
    ((), ("h\t",), ()),
    ((), (), ("\n",)),
    ((1,), (), ()),
    ((None,), (), ()),
    ((), (b"h",), ()),
    (("a", "a"), (), ()),
    (("a",), ("a",), ()),
    (("a",), ("h",), ("h",)),
    (("d",), (), ("d",)),
    # "#" starts a comment, so a written model could not declare these
    (("a#b", "c"), ("h",), ()),
    (("#",), (), ()),
    ((), (), ("d#",)),
])
def test_alphabet_rejects_bad_and_repeated_tokens(observable, unobservable, downgrading):
    # a public constructor, so it checks what a library user hands it
    with pytest.raises(InvalidModel):
        PartitionedAlphabet(observable, unobservable, downgrading)


def test_equal_alphabets_hash_alike():
    one = alphabet("a b", "h", "d")
    other = PartitionedAlphabet(("a", "b"), ("h",), ("d",))
    assert one == other and hash(one) == hash(other)
    assert len({one, other}) == 1
    assert one != alphabet("b a", "h", "d") and one != alphabet("a b", "", "h d")


def test_alphabet_index_rejects_an_unknown_event():
    alpha = alphabet("a b", "h", "d")
    assert [alpha.index(e) for e in ("a", "b", "h", "d")] == [0, 1, 2, 3]
    with pytest.raises(InvalidModel, match="unknown event 'z'"):
        alpha.index("z")


# ---------------------------------------------------------------------------
# step


def test_step_walks_the_fixture(downgrade_loop):
    assert step(downgrade_loop, "1", word("h l")) == "3"


def test_step_empty_word_stays_put(downgrade_loop):
    for q in downgrade_loop.states:
        assert step(downgrade_loop, q, ()) == q


def test_step_undefined_transition(downgrade_loop):
    assert step(downgrade_loop, "1", word("l")) is None


def test_step_rejects_unknown_state_and_event(downgrade_loop):
    with pytest.raises(InvalidModel):
        step(downgrade_loop, "99", ())
    with pytest.raises(InvalidModel):
        step(downgrade_loop, "1", ("zz",))


@pytest.mark.parametrize("initial, delta, accepting, message", [
    ("9", {}, {"0"}, "initial state 9 not declared"),
    ("0", {("0", "l"): "9"}, {"0"}, "uses undeclared state"),
    ("0", {("0", "zz"): "1"}, {"0"}, "undeclared event 'zz'"),
    ("0", {}, {"0", "9"}, "accepting set F contains undeclared states"),
])
def test_lts_constructor_rejects_undeclared_parts(initial, delta, accepting, message):
    # the deciders read every system through this boundary and check nothing again
    with pytest.raises(InvalidModel, match=message):
        Lts(alphabet("l"), frozenset({"0", "1"}), delta, initial, {"F": frozenset(accepting)})


# ---------------------------------------------------------------------------
# product


def test_product_language_is_intersection():
    rng = random.Random(1)
    for _ in range(20):
        a = random_system(rng, max_states=4)
        b = random_system(rng, max_states=4)
        b = Lts(a.alphabet, b.states, b.delta, b.initial, b.accepting_sets)
        p = product(a, b)
        p = with_set(p, "F", {s for s in p.states if s[0] in a.accepting("F") and s[1] in b.accepting("F")})
        for w in itertools.chain(all_words(a.alphabet.events, 4), (random_word(rng, a.alphabet.events, 8) for _ in range(100))):
            assert p.accepts(w) == (a.accepts(w) and b.accepts(w))


def test_product_with_complete_one_state_automaton_is_identity(downgrade_loop):
    alpha = downgrade_loop.alphabet
    one = Lts(alpha, frozenset({"*"}), {(("*"), e): "*" for e in alpha.events}, "*", {})
    p = product(downgrade_loop, one)
    assert find_isomorphism(p, trim(downgrade_loop), check_sets=False)


def test_product_of_fixture_with_its_own_completed_secret_collapses(downgrade_loop):
    # a completed copy of the system recognizing the secret by {3, 7}
    skeleton = Lts(
        downgrade_loop.alphabet,
        downgrade_loop.states,
        downgrade_loop.delta,
        "1",
        {"Fphi": frozenset({"3", "7"})},
    )
    folded = incorporate_secret(downgrade_loop, "F", skeleton, "Fphi")
    iso = find_isomorphism(folded, downgrade_loop, check_sets=False)
    assert iso is not None
    assert {iso[s] for s in folded.accepting("F")} == set(downgrade_loop.states)
    assert {iso[s] for s in folded.accepting("Fphi")} == {"3", "7"}


def test_product_rejects_alphabet_mismatch(downgrade_loop, projection_leak):
    with pytest.raises(InvalidModel):
        product(downgrade_loop, projection_leak)


# ---------------------------------------------------------------------------
# restrict / rebase


def test_restrict_nothing_is_identity(projection_leak):
    # the fixture has no downgrading events, so nothing is dropped
    assert same_structure(restrict(projection_leak), projection_leak)


def test_restricting_the_downgrade_cuts_the_fixture(downgrade_loop):
    cut = trim(restrict(downgrade_loop))
    assert cut.alphabet == alphabet("l", "h")
    assert cut.states == frozenset({"1", "2", "3"})
    accepted = {w for w in all_words(("l", "h"), 4) if cut.accepts(w)}
    assert accepted == {(), ("h",), ("h", "l")}


def test_rebase_at_initial_is_identity(downgrade_loop):
    assert same_structure(rebase(downgrade_loop, "1"), downgrade_loop)


def test_rebase_after_downgrade_in_fixture(downgrade_loop):
    sub = trim(restrict(rebase(downgrade_loop, "4")))
    accepted = {w for w in all_words(("l", "h"), 5) if sub.accepts(w)}
    assert accepted == {(), ("l",), ("h",)} | {("h", "l") + ("l",) * n for n in range(4)}


def test_rebase_language_is_left_quotient():
    rng = random.Random(2)
    for _ in range(20):
        a = random_system(rng, max_states=5)
        paths = shortest_words(a)
        q, s = rng.choice(sorted(paths.items(), key=str))
        moved = rebase(a, q)
        for _ in range(100):
            t = random_word(rng, a.alphabet.events, 6)
            assert moved.accepts(t) == a.accepts(s + t)


def test_rebase_rejects_unknown_state(downgrade_loop):
    with pytest.raises(InvalidModel):
        rebase(downgrade_loop, "nope")


def test_restrict_and_rebase_commute(downgrade_loop):
    one = restrict(rebase(downgrade_loop, "4"))
    other = rebase(restrict(downgrade_loop), "4")
    assert same_structure(one, other)


# ---------------------------------------------------------------------------
# complete / complement


def test_complete_makes_the_step_function_total(downgrade_loop):
    done = complete(downgrade_loop)
    assert is_complete(done)
    for w in all_words(downgrade_loop.alphabet.events, 5):
        assert done.accepts(w) == downgrade_loop.accepts(w)


def test_complete_of_complete_adds_unreachable_sink():
    alpha = alphabet("a")
    one = Lts(alpha, frozenset({"*"}), {("*", "a"): "*"}, "*", {"F": frozenset({"*"})})
    again = complete(one)
    assert len(again.states) == 2
    assert len(trim(again).states) == 1


def test_complement_swaps_membership():
    rng = random.Random(3)
    for _ in range(10):
        a = random_system(rng, max_states=5)
        comp = complement(a, "F")
        twice = complement(comp, "F")
        for w in all_words(a.alphabet.events, 4):
            assert comp.accepts(w) == (not a.accepts(w))
            assert twice.accepts(w) == a.accepts(w)


def test_complement_empty_word_membership():
    alpha = alphabet("a")
    accepting = Lts(alpha, frozenset({"0"}), {}, "0", {"F": frozenset({"0"})})
    rejecting = Lts(alpha, frozenset({"0"}), {}, "0", {"F": frozenset()})
    assert not complement(accepting, "F").accepts(())
    assert complement(rejecting, "F").accepts(())


# ---------------------------------------------------------------------------
# determinize


def test_determinize_deterministic_input_is_isomorphic_plus_sink(downgrade_loop):
    nfa = lts_to_nfa(downgrade_loop)
    det = determinized(nfa, PartitionedAlphabet(observable=nfa.alphabet))
    # the subset construction completes: one extra dead subset
    assert len(det.states) == len(downgrade_loop.states) + 1
    for w in all_words(downgrade_loop.alphabet.events, 5):
        assert det.accepts(w) == downgrade_loop.accepts(w)


def test_determinize_agrees_with_direct_simulation():
    rng = random.Random(4)
    for _ in range(10):
        nfa = random_nfa(rng)
        det = determinized(nfa, PartitionedAlphabet(observable=nfa.alphabet))
        assert is_complete(det)
        for _ in range(500):
            w = random_word(rng, nfa.alphabet, 8)
            assert det.accepts(w) == nfa_accepts(nfa, w)
    # closed successors memoised by a search are read back in another
    # partition's event order
    for _ in range(10):
        nfa = random_nfa(rng, events=("a", "b", "c"), silent_density=0.4)
        subset_pair_search(nfa, lambda s, _: False)
        det = determinized(nfa, alphabet("c", "a", "b"))
        for _ in range(500):
            w = random_word(rng, nfa.alphabet, 8)
            assert det.accepts(w) == nfa_accepts(nfa, w)


def test_determinize_builds_only_reachable_subsets():
    # which is why the translations of opacity do not trim its output
    rng = random.Random(9)
    for round_no in range(300):
        nfa = random_nfa(rng, max_states=10, events=("a", "b", "c"), silent_density=0.3)
        partition = alphabet("c", "a", "b") if round_no % 2 else PartitionedAlphabet(observable=nfa.alphabet)
        det = determinized(nfa, partition)
        assert set(shortest_words(det)) == det.states
        assert same_structure(trim(det), det)


def assert_determinized_like_the_subset_reference(nfa, partition, det=None):
    """``det``, by default ``determinize`` of ``nfa``, numbers the subsets
    the reference names, ``0`` first, in the order the reference discovers
    them, and accepts exactly the numbers of the subsets that meet
    ``nfa``'s set ``F``; returns the subsets."""
    det = determinized(nfa, partition) if det is None else det
    subsets = closed_subsets(nfa)
    ref = determinize_by_subsets(nfa, "F", partition)
    assert find_isomorphism(det, ref) is not None
    assert det.states == frozenset(range(len(subsets))) and det.initial == 0
    assert {(subsets[q], e): subsets[r] for (q, e), r in det.delta.items()} == ref.delta
    marks = nfa.accepting_sets["F"]
    assert det.accepting("F") == {q for q, s in enumerate(subsets) if not s.isdisjoint(marks)}
    return subsets


def assert_image_determinized_like_the_subset_reference(system):
    """``determinize`` of ``system``'s condensed image, with its set ``F``
    lifted, numbers the subsets of the natural image with one state per
    system state as the reference does; returns those subsets."""
    image = condensed_image(system)
    partition = PartitionedAlphabet(observable=system.alphabet.observable)
    det = determinize(image.nfa, image.lift(system.accepting("F")).__and__, partition)
    natural = natural_image_nfa_triples(system, system.alphabet.observable)
    return assert_determinized_like_the_subset_reference(natural, partition, det)


def test_determinize_numbers_the_subsets_of_the_reference_construction():
    rng = random.Random(53)
    empty = 0
    for round_no in range(200):
        nfa = branching_nfa(rng) if round_no % 2 else random_nfa(rng, events=("a", "b", "c"), silent_density=0.3)
        partition = alphabet("c", "a", "b") if round_no % 4 < 2 else PartitionedAlphabet(observable=nfa.alphabet)
        empty += frozenset() in assert_determinized_like_the_subset_reference(nfa, partition)
    assert empty > 100  # the empty subset is reached often, not rarely
    layers = []
    for _ in range(40):
        system = random_system(rng, max_states=8, density=0.5)
        # the condensed image as a mask view and as an automaton
        assert_image_determinized_like_the_subset_reference(system)
        image = image_automaton(system).nfa
        assert_determinized_like_the_subset_reference(image, PartitionedAlphabet(observable=image.alphabet))
        orwellian = orwellian_image_nfa_eager(trim(system))
        assert_determinized_like_the_subset_reference(orwellian, PartitionedAlphabet(observable=orwellian.alphabet))
        # the tagged forms of the layers the translations walk
        layers += [layered_ni_nfa(system), layered_ini_nfa(system)]
    # tagged Orwellian layers of systems of 20-30 states
    large = 0
    while large < 12:
        system = random_system(rng, max_states=30, density=0.6)
        if len(system.states) >= 20:
            layers.append(layered_ini_nfa(system))
            large += 1
    for nfa, partition in layers:
        assert_determinized_like_the_subset_reference(nfa, partition)
    assert len(layers) == 92


def system_of_components(rng, width):
    """A seeded system whose hidden steps have exactly ``width`` strongly
    connected components, one per state ``s{i}``: a chain of ``a`` steps,
    ``b`` steps back to the start, hidden ``v`` steps three states ahead
    and a few random ``c`` steps, so its subsets stay few; about a fifth of
    the states are on a hidden ``u`` cycle with a partner ``t{i}``."""
    alpha = alphabet("a b c", "u v")
    states = [f"s{i}" for i in range(width)]
    delta = {}
    for i in range(width):
        q = states[i]
        if i + 1 < width:
            delta[(q, "a")] = states[i + 1]
        delta[(q, "b")] = states[0]
        if rng.random() < 0.25:
            delta[(q, "v")] = states[min(i + 3, width - 1)]
        if rng.random() < 0.1:
            delta[(q, "c")] = states[rng.randrange(width)]
        if rng.random() < 0.2:
            states.append(f"t{i}")
            delta[(q, "u")] = f"t{i}"
            delta[(f"t{i}", "u")] = q
    accepting = frozenset(q for q in states if rng.random() < 0.3)
    return Lts(alpha, frozenset(states), delta, states[0], {"F": accepting})


def spy_on_walks(monkeypatch):
    """The walks :func:`automata.determinize` runs, appended to the
    returned list as they run: the width of each mask view, None for each
    walk on the view's own subsets."""
    walked = []
    mask_walk, subset_walk = automata._mask_walk, automata._subset_walk
    monkeypatch.setattr(automata, "_mask_walk", lambda view: walked.append(view.width) or mask_walk(view))
    monkeypatch.setattr(automata, "_subset_walk", lambda view: walked.append(None) or subset_walk(view))
    return walked


def test_determinize_runs_on_masks_up_to_the_component_limit(monkeypatch):
    # the two constructions that determinize a condensed image, a pattern's
    # (with a silent cycle) and the translation to NI's, each at the limit
    # and one component past it, write the same model
    walked = spy_on_walks(monkeypatch)
    alpha = alphabet("a b", "h")
    system = Lts(alpha, frozenset("012"), {("0", "a"): "1", ("1", "h"): "2", ("2", "b"): "0"}, "0",
                 {"F": frozenset("012"), "Fphi": frozenset("2")})
    limit = observation.MASK_COMPONENTS
    for build in (lambda: compile_regex("(a b*)* + b a", alpha), lambda: opacity_to_ni(system).lts):
        walked.clear()
        expected = render_model(build())
        (width,) = walked
        for components, route in ((width, width), (width - 1, None)):
            monkeypatch.setattr(observation, "MASK_COMPONENTS", components)
            walked.clear()
            assert render_model(build()) == expected
            assert walked == [route]
        monkeypatch.setattr(observation, "MASK_COMPONENTS", limit)


def test_mask_walk_matches_the_reference_at_chunk_boundaries(monkeypatch):
    # images of one component, either side of each of the first two byte
    # boundaries of a mask, and either side of the eighth
    walked = spy_on_walks(monkeypatch)
    rng = random.Random(61)
    subsets = 0
    for width in (1, 7, 8, 9, 16, 17, 63, 64):
        for _ in range(6):
            system = system_of_components(rng, width)
            walked.clear()
            subsets += len(assert_image_determinized_like_the_subset_reference(system))
            assert walked == [width]
    assert subsets > 500


def assert_rows_match_the_bucket_route(nfa, rng, closed=()):
    """Rows of the empty subset, every singleton, random subsets and the
    given ``closed`` subsets equal the ones rebuilt from scratch; the
    states are the reachable ones of an explicit automaton, and every
    component of a package image, whose move map is a list."""
    states = sorted(nfa.states, key=render_state) if isinstance(nfa, ExplicitNfa) else range(len(nfa.moves))
    subsets = [frozenset(), *(frozenset({q}) for q in states), *closed]
    subsets += [frozenset(rng.sample(states, rng.randint(1, len(states)))) for _ in range(10)]
    for subset in subsets:
        assert nfa.successor_row(subset) == successor_row_by_buckets(nfa, subset)
        # and a second time, from the per-state memos the first one filled
        assert nfa.successor_row(subset) == successor_row_by_buckets(nfa, subset)


def has_silent_cycle(nfa):
    return any(q in nfa.epsilon_closure(nfa.moves[q][0]) for q in nfa.states)


def branching_nfa(rng, max_states=10, events=("a", "b", "c")):
    """A random automaton with any number of targets per state and label."""
    states = [f"n{i}" for i in range(rng.randint(1, max_states))]
    labels = events + (SILENT, SILENT)
    transitions = {(rng.choice(states), rng.choice(labels), rng.choice(states)) for _ in range(4 * len(states))}
    accepting = frozenset(q for q in states if rng.random() < 0.4)
    return explicit_nfa(events, states, transitions, "n0", {"F": accepting})


def test_successor_rows_match_the_bucket_route_on_explicit_automata():
    rng = random.Random(41)
    cycles = branching = 0
    for _ in range(300):
        nfa = branching_nfa(rng)
        assert_rows_match_the_bucket_route(nfa, rng, closed_subsets(nfa))
        cycles += has_silent_cycle(nfa)
        branching += any(len({r for i, r in labeled if i == j}) > 1
                         for _, labeled in nfa.moves.values() for j in range(len(nfa.alphabet)))
    # several targets per event and silent cycles are common, not rare
    assert cycles > 200 and branching > 200


def test_successor_rows_match_the_bucket_route_on_images():
    rng = random.Random(43)
    cycles = 0
    for _ in range(100):
        system = random_system(rng, max_states=8, density=0.5)
        low = system.alphabet.observable
        for observable in (low, low + ("d",)):
            # the image with one state per system state has the silent
            # cycles that its condensed form merges
            per_state = natural_image_nfa_triples(system, observable)
            condensed = image_automaton(with_observable(system, observable)).nfa
            for nfa in (per_state, condensed):
                assert_rows_match_the_bucket_route(nfa, rng, closed_subsets(nfa))
            cycles += has_silent_cycle(per_state)
            assert not has_silent_cycle(condensed)
        image = orwellian_image_nfa_eager(trim(system))
        assert_rows_match_the_bucket_route(image, rng, closed_subsets(image))
    assert cycles > 50


def test_successor_rows_match_the_bucket_route_on_marked_layers(monkeypatch):
    layers = []

    def capture(view, accepts, partition):
        layers.append(view)
        return determinize(view, accepts, partition)

    monkeypatch.setattr(reductions, "determinize", capture)
    rng = random.Random(47)
    for _ in range(100):
        system = random_system(rng, max_states=8, density=0.5)
        # the marked image as the automaton it is past the mask width
        monkeypatch.setattr(observation, "MASK_COMPONENTS", 0)
        opacity_to_ni(system)
        monkeypatch.setattr(observation, "MASK_COMPONENTS", 1536)
        # the subsets the translation reached, then the rest of the layer
        assert_rows_match_the_bucket_route(layers[-1], rng, closed_subsets(layers[-1]))
        # the translation to INI reads its rows off a view of the layer:
        # each row stands for the row of the tagged layer
        opacity_to_ini(system)
        view, (tagged, _) = layers[-1], layered_ini_nfa(system)
        for subset in assert_walks_the_tagged_layer(view, system):
            assert tuple(tagged_subset(view, system, s) for s in view.successor_row(subset)) == \
                successor_row_by_buckets(tagged, tagged_subset(view, system, subset))
    assert len(layers) == 200


# ---------------------------------------------------------------------------
# inclusion by the subset-pair search


def searched(nfa, nfa_set, b, b_set):
    """Inclusion of one of ``nfa``'s languages in one of ``b``'s, decided by
    the subset-pair search as the deciders run it."""
    marks = nfa.accepting_sets[nfa_set]
    kept = b.accepting(b_set)
    w = subset_pair_search(nfa, lambda s, p: not s.isdisjoint(marks) and p not in kept, b)
    return Inclusion(w is None, w)


def test_subset_is_reflexive(downgrade_loop):
    assert searched(lts_to_nfa(downgrade_loop), "F", downgrade_loop, "F").holds


def test_subset_empty_word_counterexample():
    alpha = alphabet("a")
    just_empty = Lts(alpha, frozenset({"0"}), {}, "0", {"F": frozenset({"0"})})
    nothing = Lts(alpha, frozenset({"0"}), {}, "0", {"F": frozenset()})
    out = searched(lts_to_nfa(just_empty), "F", nothing, "F")
    assert not out.holds
    assert out.counterexample == ()


def test_subset_agrees_with_bounded_enumeration():
    rng = random.Random(5)
    for _ in range(30):
        a = random_system(rng, max_states=5)
        b = random_system(rng, max_states=5)
        b = Lts(a.alphabet, b.states, b.delta, b.initial, b.accepting_sets)
        out = searched(lts_to_nfa(a), "F", b, "F")
        escapes = [w for w in all_words(a.alphabet.events, 6) if a.accepts(w) and not b.accepts(w)]
        if escapes:
            assert not out.holds
            best = min(escapes, key=lambda w: word_sort_key(a.alphabet, w))
            assert out.counterexample == best
        elif out.holds is False:
            # a longer counterexample must really escape
            w = out.counterexample
            assert len(w) > 6 and a.accepts(w) and not b.accepts(w)


def test_subset_pair_search_matches_the_product_route():
    rng = random.Random(12)
    for _ in range(200):
        a = random_system(rng, max_states=8)
        b = random_system(rng, max_states=8)
        b = Lts(a.alphabet, b.states, b.delta, b.initial, b.accepting_sets)
        assert searched(lts_to_nfa(a), "F", b, "F") == includes(a, "F", b, "F")

        nfa = random_nfa(rng)
        c = random_system(rng, max_states=8, observable=nfa.alphabet, unobservable=(), downgrading=())
        assert searched(nfa, "F", c, "F") == includes(determinized(nfa, c.alphabet), "F", c, "F")

        system = random_system(rng, max_states=8)
        image = with_alphabet(project_language(system, "F", system.alphabet.observable), system.alphabet)
        ni = check_ni(system)
        assert (ni.holds, ni.witness) == includes(image, "F", system, "F")

        image = determinized(orwellian_image_nfa_eager(trim(system)), system.alphabet)
        ini = check_ini_direct(system)
        assert (ini.holds, ini.witness) == includes(image, "F", system, "F")


def test_pair_search_words_match_the_reference_walk_at_any_depth():
    # the search spells only the word it finds, from the pair and event each
    # pair was first reached by; the reference keeps every word whole
    rng = random.Random(73)
    for _ in range(100):
        nfa = branching_nfa(rng, max_states=12)
        det = determinize_by_subsets(nfa, "F", PartitionedAlphabet(observable=nfa.alphabet))
        target = rng.choice([s for s in closed_subsets(nfa) if s])
        assert subset_pair_search(nfa, lambda s, _: s == target) == shortest_accepted(det, {target})
    n = 5000
    chain = observable_chain(n)
    deepest = ("a",) * (n - 1) + ("d",)
    assert shortest_accepted(chain, {n}) == deepest
    assert subset_pair_search(lts_to_nfa(chain), lambda s, _: n in s) == deepest
    assert subset_pair_search(lts_to_nfa(chain), lambda _, p: p == n, chain) == deepest
    # an exhausted search hands every pair it reached to the proven set
    proven = set()
    assert subset_pair_search(lts_to_nfa(chain), lambda _, p: p == DEAD, chain, proven=proven) is None
    assert len(proven) == n + 1


def random_run(rng, system, start, length):
    """A random run of at most ``length`` steps from ``start``: its word and
    the state it ends in."""
    q, w = start, []
    for _ in range(length):
        steps = [(e, system.delta[q, e]) for e in system.alphabet.events if (q, e) in system.delta]
        if not steps:
            break
        e, q = rng.choice(steps)
        w.append(e)
    return tuple(w), q


def test_preimage_and_partner_words_match_the_reference_walks_at_any_depth():
    # both searches spell only the word they find, from the node and event
    # each (state, index) node was first reached by; the references keep
    # every word whole
    rng = random.Random(79)
    preimages = partners = missing = 0
    for _ in range(300):
        system = random_system(rng, max_states=10, density=0.5)
        alpha = system.alphabet
        secret = system.accepting("Fphi") & system.accepting("F")
        states = sorted(system.states, key=render_state)
        kinds = ObservationKind.natural(alpha.observable), ObservationKind.orwellian(alpha.observable, alpha.downgrading)
        for _ in range(4):
            start = rng.choice(states)
            w, q = random_run(rng, system, start, rng.randint(0, 10))
            if q in secret:
                observation = kinds[0].observe(w)
                assert (_shortest_secret_preimage(system, observation, start)
                        == shortest_secret_preimage_by_words(system, observation, start))
                preimages += 1
            w, _ = random_run(rng, system, system.initial, rng.randint(0, 10))
            for kind in kinds:
                partner = nonsecret_partner(system, kind, kind.observe(w))
                assert partner == nonsecret_partner_by_words(system, kind, kind.observe(w))
                partners += partner is not None
                missing += partner is None
    assert preimages > 300 and partners > 300 and missing > 300, (preimages, partners, missing)
    n = 5000
    states = frozenset(range(n))
    chain = Lts(alphabet("a", "h", "d"), states, {(i, "a"): i + 1 for i in range(n - 1)}, 0,
                {"F": states, "Fphi": frozenset({n - 1})})
    deepest = ("a",) * (n - 1)
    assert _shortest_secret_preimage(chain, deepest, 0) == shortest_secret_preimage_by_words(chain, deepest, 0) == deepest
    assert check_opacity_static(chain).witness == deepest
    nothing_secret = with_set(chain, "Fphi", ())
    natural = ObservationKind.natural(("a",))
    assert nonsecret_partner(nothing_secret, natural, deepest) == deepest
    assert nonsecret_partner(chain, natural, deepest) is None is nonsecret_partner_by_words(chain, natural, deepest)


def test_static_witness_matches_inclusion_of_two_images():
    rng = random.Random(13)
    for _ in range(200):
        system = random_system(rng, max_states=8)
        observable = system.alphabet.observable
        secret = system.accepting("Fphi")
        split = with_set(system, "nonsecret", system.accepting("F") - secret)
        secret_image = project_language(split, "Fphi", observable)
        nonsecret_image = project_language(split, "nonsecret", observable)
        out = searched(lts_to_nfa(secret_image), "Fphi", nonsecret_image, "nonsecret")
        assert out == includes(secret_image, "Fphi", nonsecret_image, "nonsecret")
        verdict = check_opacity_static(system)
        assert verdict.holds == out.holds
        if not out.holds:
            assert verdict.witness == _shortest_secret_preimage(system, out.counterexample, system.initial)


# ---------------------------------------------------------------------------
# incorporate_secret


def test_incorporate_empty_secret(downgrade_loop):
    alpha = downgrade_loop.alphabet
    nothing = Lts(alpha, frozenset({"0"}), {}, "0", {"Fphi": frozenset()})
    folded = incorporate_secret(downgrade_loop, "F", nothing, "Fphi")
    assert folded.accepting("Fphi") == frozenset()


def test_incorporate_preserves_the_system_language(downgrade_loop):
    rng = random.Random(6)
    secret = random_system(rng, max_states=3, observable=("l",), unobservable=("h",), downgrading=("d",))
    folded = incorporate_secret(downgrade_loop, "F", secret, "F")
    for w in all_words(downgrade_loop.alphabet.events, 8):
        assert folded.accepts(w, "F") == downgrade_loop.accepts(w, "F")
        assert folded.accepts(w, "Fphi") == (downgrade_loop.accepts(w, "F") and secret.accepts(w, "F"))


def test_incorporate_rejects_alphabet_mismatch(downgrade_loop, projection_leak):
    with pytest.raises(InvalidModel):
        incorporate_secret(downgrade_loop, "F", projection_leak, "F")


def renamed(a, names):
    """``a`` with each state ``q`` renamed to ``names.get(q, q)``."""
    def n(q):
        return names.get(q, q)

    return Lts(
        a.alphabet,
        frozenset(map(n, a.states)),
        {(n(q), e): n(r) for (q, e), r in a.delta.items()},
        n(a.initial),
        {name: frozenset(map(n, members)) for name, members in a.accepting_sets.items()},
    )


def test_incorporate_secret_matches_the_product_route():
    # the fused walk against re-housing the secret, completing it and taking the product
    rng = random.Random(61)
    patterns = ("a b* + u d a", "(a + u)* d", "()", "b v* a + d", "(a b + d)*")
    sinks = taken = 0
    for i in range(1200):
        system = random_system(rng, max_states=8)
        events = list(system.alphabet.events)
        rng.shuffle(events)
        other = alphabet(" ".join(events[:2]), " ".join(events[2:4]), " ".join(events[4:]))
        if i % 4 == 0:
            secret = compile_regex(rng.choice(patterns), rng.choice((system.alphabet, other)))
        else:
            secret = random_system(
                rng, max_states=5, observable=other.observable, unobservable=other.unobservable,
                downgrading=other.downgrading, density=rng.choice((0.2, 0.5, 0.9)),
            )
            if i % 4 == 2:
                secret = renamed(secret, {"s0": "sink", "s1": "sink_"})
        secret_set = rng.choice(sorted(secret.accepting_sets))
        fused = incorporate_secret(system, "F", secret, secret_set)
        by_product = incorporate_secret_by_product(system, "F", secret, secret_set)
        assert lts_parts(fused) == lts_parts(by_product)
        assert render_model(fused) == render_model(by_product)
        fresh = {q[1] for q in fused.states} - secret.states
        sinks += bool(fresh)
        taken += bool(fresh) and "sink" in secret.states
    assert sinks >= 300 and taken >= 50  # partial secrets, some with the sink name taken, are exercised


# ---------------------------------------------------------------------------
# downgrade entry states


def test_fixture_downgrade_entries(downgrade_loop):
    assert frozenset(entry_words(downgrade_loop)) == frozenset({"1", "4"})
    assert entry_words(downgrade_loop) == {"1": (), "4": ("h", "d")}


def test_no_downgrades_means_initial_only(projection_leak):
    assert frozenset(entry_words(projection_leak)) == frozenset({"0"})


def test_downgrade_edges_everywhere_cover_all_reachable_states():
    alpha = alphabet("", "", "d")
    states = frozenset({"0", "1"})
    delta = {("0", "d"): "1", ("1", "d"): "0"}
    a = Lts(alpha, states, delta, "0", {"F": states})
    assert frozenset(entry_words(a)) == states


def test_entry_words_lists_the_entries_in_state_order():
    # per_entry reports the entry states in this order
    rng = random.Random(17)
    several = 0
    for _ in range(100):
        a = random_system(rng, max_states=20, density=0.5)
        entries = list(entry_words(a))
        assert entries == [q for q in state_order(a) if q in entries]
        several += len(entries) >= 3
    assert several >= 30


def test_entry_words_match_the_sort_key_definition():
    # two downgrading events, so that a state entered on both compares them
    rng = random.Random(29)
    rivals = 0
    for round_no in range(300):
        a = random_system(rng, max_states=20, density=(0.3, 0.5, 0.7)[round_no % 3], downgrading=("d", "e"))
        if round_no % 2:
            a = Lts(a.alphabet, a.states | {"x"}, {**a.delta, ("x", "d"): a.initial, ("x", "e"): "x"},
                    a.initial, a.accepting_sets)
        expected = entry_words_by_sort_key(a)
        assert list(entry_words(a).items()) == list(expected.items())
        targets = [r for (q, e), r in a.delta.items() if e in "de" and q != "x"]
        rivals += len(targets) > len(set(targets))
    # many systems enter some state by more than one downgrading move
    assert rivals >= 100


def test_discovery_tree_spells_the_shortest_words_in_their_order():
    rng = random.Random(31)
    for _ in range(100):
        a = random_system(rng, max_states=20, density=0.5, downgrading=("d", "e"))
        tree = discovery_tree(a)
        spelled = {}
        for q, step in tree.items():
            spelled[q] = () if step is None else spelled[step[0]] + (step[1],)
        assert list(spelled.items()) == list(shortest_words(a).items())


def observable_chain(n):
    """States ``0..n`` of which ``0..n-1`` form a chain of ``a`` steps, and
    a downgrade ``d`` from ``n-1`` into ``n``."""
    delta = {(i, "a"): i + 1 for i in range(n - 1)}
    delta[(n - 1, "d")] = n
    states = frozenset(range(n + 1))
    return Lts(alphabet("a", "h", "d"), states, delta, 0, {"F": states})


def test_deep_systems_are_walked_in_linear_memory():
    # a word kept for every state of a chain of depth n costs about n^2 / 2
    # tuple slots: some 100 MB at n = 5,000
    n = 5000
    a = observable_chain(n)
    peaks = {}
    for walk in (state_order, trim, entry_words):
        tracemalloc.start()
        try:
            walk(a)
            peaks[walk.__name__] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(peak < 10 * 2**20 for peak in peaks.values()), peaks
    assert state_order(a) == tuple(range(n + 1)) and trim(a).states == a.states
    assert entry_words(a) == {0: (), n: ("a",) * (n - 1) + ("d",)}


# ---------------------------------------------------------------------------
# ordering helpers


def test_state_order_starts_at_initial_and_is_stable(downgrade_loop):
    order = state_order(downgrade_loop)
    assert order[0] == "1"
    assert order == state_order(downgrade_loop)
    assert set(order) == set(downgrade_loop.states)
