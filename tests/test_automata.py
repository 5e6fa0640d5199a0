import itertools
import random

import pytest

from opaqcheck import (
    InvalidModel,
    Lts,
    alphabet,
    compile_regex,
    incorporate_secret,
    opacity_to_ini,
    opacity_to_ni,
    render_model,
    with_set,
    word,
)
from opaqcheck import reductions
from opaqcheck.automata import (
    SILENT,
    determinize,
    entry_words,
    lex_shortest_paths,
    reachable_states,
    render_state,
    restrict,
    state_order,
    step,
    subset_pair_search,
    trim,
    word_sort_key,
)
from opaqcheck.generate import random_nfa, random_system, random_word
from opaqcheck.interference import check_ini_direct, check_ni
from opaqcheck.observation import natural_image_nfa, orwellian_image_nfa
from opaqcheck.opacity import _shortest_secret_preimage, check_opacity_static
from reference import (
    Inclusion,
    complement,
    complete,
    explicit_nfa,
    find_isomorphism,
    includes,
    incorporate_secret_by_product,
    is_complete,
    lts_to_nfa,
    nfa_accepts,
    product,
    project_language,
    rebase,
    successor_row_by_buckets,
    with_alphabet,
)


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


def test_restrict_nothing_is_identity(downgrade_loop):
    assert same_structure(restrict(downgrade_loop, ()), downgrade_loop)


def test_restrict_everything_leaves_only_the_empty_word(downgrade_loop):
    bare = restrict(downgrade_loop, downgrade_loop.alphabet.events)
    assert not bare.delta
    assert bare.accepts(()) == ("1" in bare.accepting("F"))


def test_restricting_the_downgrade_cuts_the_fixture(downgrade_loop):
    cut = trim(restrict(downgrade_loop, ("d",)))
    assert cut.states == frozenset({"1", "2", "3"})
    accepted = {w for w in all_words(("l", "h"), 4) if cut.accepts(w)}
    assert accepted == {(), ("h",), ("h", "l")}


def test_rebase_at_initial_is_identity(downgrade_loop):
    assert same_structure(rebase(downgrade_loop, "1"), downgrade_loop)


def test_rebase_after_downgrade_in_fixture(downgrade_loop):
    sub = trim(restrict(rebase(downgrade_loop, "4"), ("d",)))
    accepted = {w for w in all_words(("l", "h"), 5) if sub.accepts(w)}
    assert accepted == {(), ("l",), ("h",)} | {("h", "l") + ("l",) * n for n in range(4)}


def test_rebase_language_is_left_quotient():
    rng = random.Random(2)
    for _ in range(20):
        a = random_system(rng, max_states=5)
        paths = lex_shortest_paths(a)
        q, s = rng.choice(sorted(paths.items(), key=str))
        moved = rebase(a, q)
        for _ in range(100):
            t = random_word(rng, a.alphabet.events, 6)
            assert moved.accepts(t) == a.accepts(s + t)


def test_rebase_rejects_unknown_state(downgrade_loop):
    with pytest.raises(InvalidModel):
        rebase(downgrade_loop, "nope")


def test_restrict_and_rebase_commute(downgrade_loop):
    one = restrict(rebase(downgrade_loop, "4"), ("d",))
    other = rebase(restrict(downgrade_loop, ("d",)), "4")
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
    det = determinize(lts_to_nfa(downgrade_loop), "F")
    # the subset construction completes: one extra dead subset
    assert len(det.states) == len(downgrade_loop.states) + 1
    for w in all_words(downgrade_loop.alphabet.events, 5):
        assert det.accepts(w) == downgrade_loop.accepts(w)


def test_determinize_agrees_with_direct_simulation():
    rng = random.Random(4)
    for _ in range(10):
        nfa = random_nfa(rng)
        det = determinize(nfa, "F")
        assert is_complete(det)
        for _ in range(500):
            w = random_word(rng, nfa.alphabet, 8)
            assert det.accepts(w) == nfa_accepts(nfa, w)
    # rows memoised by a search are read back in another partition's event order
    for _ in range(10):
        nfa = random_nfa(rng, events=("a", "b", "c"), silent_density=0.4)
        subset_pair_search(nfa, lambda s, _: False)
        det = determinize(nfa, "F", alphabet("c", "a", "b"))
        for _ in range(500):
            w = random_word(rng, nfa.alphabet, 8)
            assert det.accepts(w) == nfa_accepts(nfa, w)


def test_determinize_builds_only_reachable_subsets():
    # which is why the translations of opacity do not trim its output
    rng = random.Random(9)
    for round_no in range(300):
        nfa = random_nfa(rng, max_states=10, events=("a", "b", "c"), silent_density=0.3)
        det = determinize(nfa, "F", alphabet("c", "a", "b") if round_no % 2 else None)
        assert reachable_states(det) == det.states
        assert same_structure(trim(det), det)


def assert_rows_match_the_bucket_route(nfa, rng, closed=()):
    """Rows of the empty subset, every singleton, random subsets and the
    given ``closed`` subsets equal the ones rebuilt from scratch."""
    states = sorted(nfa.states, key=render_state)
    subsets = [frozenset(), *(frozenset({q}) for q in states), *closed]
    subsets += [frozenset(rng.sample(states, rng.randint(1, len(states)))) for _ in range(10)]
    for subset in subsets:
        assert nfa.successor_row(subset) == successor_row_by_buckets(nfa, subset)
        # and from the memo, a second time
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
        assert_rows_match_the_bucket_route(nfa, rng, determinize(nfa, "F").states)
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
        for nfa in (natural_image_nfa(system, low), natural_image_nfa(system, low + ("d",))):
            assert_rows_match_the_bucket_route(nfa, rng, determinize(nfa, "F").states)
            cycles += has_silent_cycle(nfa)
        # on demand: the rows are read before anything else expands the image
        assert_rows_match_the_bucket_route(orwellian_image_nfa(system), rng)
    assert cycles > 50


def test_successor_rows_match_the_bucket_route_on_marked_layers(monkeypatch):
    layers = []

    def capture(nfa, accepting, partition):
        layers.append(nfa)
        return determinize(nfa, accepting, partition)

    monkeypatch.setattr(reductions, "determinize", capture)
    rng = random.Random(47)
    for _ in range(100):
        system = random_system(rng, max_states=8, density=0.5)
        for translate in (opacity_to_ni, opacity_to_ini):
            closed = translate(system).lts.states
            # the subsets the translation reached, then the rest of the layer
            assert_rows_match_the_bucket_route(layers[-1], rng, closed)
    assert len(layers) == 200


# ---------------------------------------------------------------------------
# inclusion by the subset-pair search


def searched(nfa, nfa_set, b, b_set):
    """Inclusion of one of ``nfa``'s languages in one of ``b``'s, decided by
    the subset-pair search as the deciders run it."""
    marks = nfa.accepting(nfa_set)
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
        assert searched(nfa, "F", c, "F") == includes(determinize(nfa, "F", c.alphabet), "F", c, "F")

        system = random_system(rng, max_states=8)
        image = with_alphabet(project_language(system, "F", system.alphabet.observable), system.alphabet)
        ni = check_ni(system)
        assert (ni.holds, ni.witness) == includes(image, "F", system, "F")

        image = determinize(orwellian_image_nfa(system), "F", system.alphabet)
        ini = check_ini_direct(system)
        assert (ini.holds, ini.witness) == includes(image, "F", system, "F")


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
            assert verdict.witness == _shortest_secret_preimage(system, observable, out.counterexample)


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
        assert render_model(fused) == render_model(incorporate_secret_by_product(system, "F", secret, secret_set))
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


# ---------------------------------------------------------------------------
# ordering helpers


def test_state_order_starts_at_initial_and_is_stable(downgrade_loop):
    order = state_order(downgrade_loop)
    assert order[0] == "1"
    assert order == state_order(downgrade_loop)
    assert set(order) == set(downgrade_loop.states)
