import itertools
import random

from opaqcheck import (
    Lts,
    alphabet,
    check_ini,
    check_ini_direct,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    compile_regex,
    incorporate_secret,
    opacity_to_ini,
    opacity_to_ni,
    ini_to_opacity,
    project_orwellian,
    render_model,
    with_set,
    word,
)
from opaqcheck import observation, reductions
from opaqcheck.automata import DEAD, MaskView, _subset_walk, determinize, restrict, state_order
from opaqcheck.generate import random_system
from opaqcheck.observation import condensed_image
from reference import (
    closed_subsets,
    find_isomorphism,
    includes,
    layered_ini_nfa,
    layered_opacity_to_ini,
    layered_opacity_to_ni,
    with_alphabet,
)


def all_words(events, maxlen):
    for n in range(maxlen + 1):
        yield from itertools.product(events, repeat=n)


def tricky_instance():
    # two downgrade prefixes with the same public image enter different
    # states; only one of them discloses, so prefixes must stay verbatim
    alpha = alphabet("a b", "u v", "d")
    delta = {
        ("s0", "u"): "s2", ("s0", "v"): "s0", ("s0", "d"): "s2",
        ("s2", "a"): "s2", ("s2", "u"): "s0", ("s2", "d"): "s1",
        ("s1", "a"): "s2", ("s1", "b"): "s2", ("s1", "d"): "s1",
    }
    return Lts(
        alpha,
        frozenset({"s0", "s1", "s2"}),
        delta,
        "s0",
        {"F": frozenset({"s0", "s1", "s2"}), "Fphi": frozenset({"s0", "s1"})},
    )


# ---------------------------------------------------------------------------
# opacity -> NI


def captured_layers(monkeypatch):
    """Make the marked layers visible: each automaton, or view of one, that
    a translation of opacity determinizes is appended to the returned
    list."""
    layers = []

    def capture(view, accepts, partition):
        layers.append(view)
        return determinize(view, accepts, partition)

    monkeypatch.setattr(reductions, "determinize", capture)
    return layers


def test_layering_adds_one_state_per_secret_state(monkeypatch, downgrade_loop):
    layers = captured_layers(monkeypatch)
    # the marked image as the automaton it is past the mask width
    monkeypatch.setattr(observation, "MASK_COMPONENTS", 0)
    out = opacity_to_ni(downgrade_loop)
    (layer,) = layers
    fresh = layer.alphabet.index(out.lts.alphabet.unobservable[-1])
    marks = {r for _, labeled in layer.moves for i, r in labeled if i == fresh}
    # the fixture has no hidden cycle, so each system state is an image
    # state of its own, and each secret one gains a mark
    assert len(marks) == len(downgrade_loop.accepting("Fphi"))
    assert len(layer.moves) == len(downgrade_loop.states) + len(marks)


def test_fresh_event_avoids_the_source_alphabet(downgrade_loop):
    out = opacity_to_ni(downgrade_loop)
    assert out.lts.alphabet.unobservable == ("hh",)


def test_fixture_static_verdict_carries_over(downgrade_loop):
    out = opacity_to_ni(downgrade_loop)
    assert check_opacity_static(downgrade_loop).holds == check_ni(out.lts).holds is False


def test_empty_secret_layering_has_no_private_moves(downgrade_loop):
    out = opacity_to_ni(with_set(downgrade_loop, "Fphi", ()))
    high = out.lts.alphabet.unobservable[-1]
    private = {r for (_, e), r in out.lts.delta.items() if e == high}
    # every private move leads to one sink, the empty subset: not
    # accepting, and looping on every event
    (sink,) = private
    assert sink not in out.lts.accepting("F")
    assert all(out.lts.delta[(sink, e)] == sink for e in out.lts.alphabet.events)
    assert check_ni(out.lts).holds


def test_marked_state_named_like_a_system_state_is_translated():
    # a secret state "a" beside states named as a mark of a plain tuple
    # would be, ("a", 1) and ("mark", "a"): a mark holds a private
    # sentinel, so no system state can equal one
    for named in (("a", 1), ("mark", "a")):
        states = frozenset({"a", named, "b"})
        system = Lts(alphabet("l"), states, {("a", "l"): named, (named, "l"): "b"}, "a",
                     {"F": states, "Fphi": frozenset({"a"})})
        out = opacity_to_ni(system)
        assert render_model(out.lts) == render_model(layered_opacity_to_ni(system))
        assert render_model(opacity_to_ini(system).lts) == render_model(layered_opacity_to_ini(system))
        assert check_opacity_static(system).holds == check_ni(out.lts).holds is False
        # the mark of "a" has no moves, unlike the state named like it
        assert out.lts.accepts(word("h")) and not out.lts.accepts(word("h l"))


def test_static_round_trip_on_random_instances():
    rng = random.Random(31)
    for _ in range(100):
        source = random_system(rng, downgrading=())
        assert check_opacity_static(source).holds == check_ni(opacity_to_ni(source).lts).holds


# ---------------------------------------------------------------------------
# opacity -> INI


def test_fixture_orwellian_verdict_carries_over(downgrade_loop):
    out = opacity_to_ini(downgrade_loop)
    assert check_opacity_orwellian(downgrade_loop).holds == check_ini(out.lts).holds is False


def test_verbatim_prefixes_keep_distinct_entries_apart():
    source = tricky_instance()
    assert not check_opacity_orwellian(source).holds
    assert not check_ini(opacity_to_ini(source).lts).holds


def per_copy_view(system):
    """The view of ``system``'s marked Orwellian image, one continuation
    copy per entry state, that the translation to INI walks."""
    return reductions._OrwellianCopies(system, reductions._fresh_event(system.alphabet.events))


def tagged_subset(view, system, subset):
    """The closed subset of the tagged layer (``reference.layered_ini_nfa``)
    that a subset of ``view``, the per-copy view of ``system``, stands for:
    the start state in the initial subset, the prefix state, a
    continuation state per system state of each component held, in the
    copy of its entry state, and in a marked subset only the secret ones,
    each marked."""
    tag, entry, pair = subset
    if not pair:
        return frozenset()
    p, components = pair
    image = view._image.continuation
    if isinstance(image.nfa, MaskView):
        components = {c for c in range(image.nfa.width) if components >> c & 1}
    posts = {("post", entry, r) for r, c in image.component.items() if c in components}
    if tag == reductions._MARKED:
        secret = system.accepting("Fphi") & system.accepting("F")
        return frozenset((x, 1) for x in posts if x[2] in secret)
    if p is not DEAD:
        posts.add(("pre", p))
    if tag == reductions._START:
        posts.add(("in",))
    return frozenset(posts)


def assert_walks_the_tagged_layer(view, system):
    """``view``, the per-copy view of ``system``, reaches the closed subsets
    of the tagged layer one for one and in the same order, and accepts
    exactly those that meet the layer's accepting set; returns its
    subsets."""
    subsets = _subset_walk(view)[0]
    nfa, _ = layered_ini_nfa(system)
    assert [tagged_subset(view, system, s) for s in subsets] == list(closed_subsets(nfa))
    marks = nfa.accepting_sets["F"]
    assert [bool(view.accepts(s)) for s in subsets] == [not tagged_subset(view, system, s).isdisjoint(marks)
                                                        for s in subsets]
    return subsets


def test_layered_subsets_are_the_tagged_ones_up_to_names(monkeypatch, downgrade_loop):
    layers = captured_layers(monkeypatch)
    out = opacity_to_ini(downgrade_loop)
    (view,) = layers
    assert find_isomorphism(out.lts, layered_opacity_to_ini(downgrade_loop)) is not None
    # state k of the output is the k-th subset the view reaches, the k-th
    # closed subset of the tagged layer
    assert len(assert_walks_the_tagged_layer(view, downgrade_loop)) == len(out.lts.states)


def test_without_downgrades_both_layerings_have_the_same_language(projection_leak):
    folded = incorporate_secret(projection_leak, "F", compile_regex("a* (b* + c*)", projection_leak.alphabet), "F")
    ni_form = opacity_to_ni(folded)
    ini_form = opacity_to_ini(folded)
    widened = with_alphabet(ni_form.lts, ini_form.lts.alphabet)
    assert includes(widened, "F", ini_form.lts, "F").holds
    assert includes(ini_form.lts, "F", widened, "F").holds
    assert check_ni(ni_form.lts).holds == check_ini(ini_form.lts).holds is False


def test_orwellian_round_trip_on_random_instances():
    rng = random.Random(32)
    for _ in range(100):
        source = random_system(rng)
        assert check_opacity_orwellian(source).holds == check_ini(opacity_to_ini(source).lts).holds


# ---------------------------------------------------------------------------
# both layerings against the reference routes, which tag every layer


def random_pattern(rng, events, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(events + ("()",))
    left = random_pattern(rng, events, depth - 1)
    kind = rng.choice("+.*")
    if kind == "*":
        return f"({left})*"
    return f"({left} {'+ ' if kind == '+' else ''}{random_pattern(rng, events, depth - 1)})"


def differential_instances(count=600):
    rng = random.Random(37)
    for i in range(count):
        system = random_system(rng, max_states=8)
        if i % 5 == 0:
            pattern = random_pattern(rng, system.alphabet.events)
            system = incorporate_secret(system, "F", compile_regex(pattern, system.alphabet), "F")
        if i % 2:
            # a secret of arbitrary states, accepting or not
            system = with_set(system, "Fphi", [q for q in state_order(system) if rng.random() < 0.5])
        yield system


def indexed(a):
    index = {q: i for i, q in enumerate(state_order(a))}
    delta = {(index[q], e): index[r] for (q, e), r in a.delta.items()}
    sets = {name: {index[q] for q in members} for name, members in a.accepting_sets.items()}
    return a.alphabet, len(index), index[a.initial], delta, sets


def hidden_components(system):
    """The components of the hidden steps of ``system`` and of its
    downgrade-free part, the two systems whose images the translations
    condense, each as a map from system states."""
    return [condensed_image(a).component for a in (system, restrict(system))]


def mixed(system):
    """Whether a component of the hidden steps holds a secret state and a
    non-secret accepting state."""
    f_states = system.accepting("F")
    secret = f_states & system.accepting("Fphi")
    return any({c[q] for q in secret} & {c[q] for q in f_states - secret} for c in hidden_components(system))


def larger_instances(count=20):
    """Seeded systems of 20-40 states, every third with a secret of
    arbitrary states."""
    rng = random.Random(38)
    while count:
        system = random_system(rng, max_states=40, density=rng.choice((0.45, 0.6)))
        if len(system.states) >= 20:
            if count % 3 == 0:
                system = with_set(system, "Fphi", [q for q in state_order(system) if rng.random() < 0.5])
            count -= 1
            yield system


def test_layerings_match_the_tagged_reference_routes(monkeypatch):
    outside = condensed = mixing = 0
    routes = set()
    for i, system in enumerate(itertools.chain(differential_instances(), larger_instances())):
        outside += not system.accepting("Fphi") <= system.accepting("F")
        condensed += any(len(set(c.values())) < len(system.states) for c in hidden_components(system))
        mixing += mixed(system)
        if i % 3 == 2:
            # continuation subsets as frozensets of components
            monkeypatch.setattr(observation, "MASK_COMPONENTS", 0)
        routes.add(type(condensed_image(restrict(system)).nfa))
        out, to_ni = opacity_to_ini(system).lts, opacity_to_ni(system).lts
        monkeypatch.undo()
        reference = layered_opacity_to_ini(system)
        assert indexed(out) == indexed(reference)
        assert render_model(out) == render_model(reference)
        assert indexed(to_ni) == indexed(layered_opacity_to_ni(system))
    assert outside > 100  # the marked layer must drop secret states outside F
    # the images merge hidden cycles, some of them secret and non-secret
    # at once (166 and 48 of the 600 instances)
    assert condensed > 150 and mixing > 40
    assert routes == {MaskView, observation.EpsilonNfa}


def test_translation_to_ni_and_patterns_write_the_same_model_on_both_routes(monkeypatch):
    # the two constructions that determinize a condensed image, on masks
    # and, past MASK_COMPONENTS patched to 0, on frozensets of components
    rng = random.Random(39)
    systems = list(itertools.chain(differential_instances(), larger_instances()))
    patterns = [(random_pattern(rng, system.alphabet.events, depth=rng.randint(1, 7)), system.alphabet)
                for system in systems[:200]]

    def written():
        return ([render_model(opacity_to_ni(system).lts) for system in systems],
                [render_model(compile_regex(pattern, alpha)) for pattern, alpha in patterns])

    on_masks = written()
    monkeypatch.setattr(observation, "MASK_COMPONENTS", 0)
    assert written() == on_masks
    # not vacuous: models of many sizes from both
    assert len(set(map(len, on_masks[0]))) >= 20 and len(set(map(len, on_masks[1]))) >= 20


def test_mixed_component_is_accepted_and_marked():
    # 1 -h-> 2 -h-> 1 is one component of a secret state (1) and a
    # non-secret accepting one (2), entered on a from 0 and on the
    # downgrade from 3; b leaves it for the secret state 3
    system = Lts(alphabet("a b", "h", "d"), frozenset("0123"), {
        ("0", "a"): "1", ("1", "h"): "2", ("2", "h"): "1", ("2", "b"): "3", ("3", "d"): "1", ("3", "a"): "0",
    }, "0", {"F": frozenset("123"), "Fphi": frozenset("13")})
    assert all(c["1"] == c["2"] for c in hidden_components(system)) and mixed(system)
    to_ni, to_ini = opacity_to_ni(system).lts, opacity_to_ini(system).lts
    assert render_model(to_ni) == render_model(layered_opacity_to_ni(system))
    assert render_model(to_ini) == render_model(layered_opacity_to_ini(system))
    # the static observer does not see the downgrade from 3 back into the
    # component; the Orwellian one does, and learns 3 after a h b
    assert check_opacity_static(system).holds is check_ni(to_ni).holds is True
    assert check_opacity_orwellian(system).witness == word("a h b")
    assert check_ini(to_ini).holds is False


# ---------------------------------------------------------------------------
# INI -> opacity


def test_constructed_secret_is_exactly_the_projection_changed_runs():
    rng = random.Random(33)
    for _ in range(25):
        source = random_system(rng, max_states=4)
        out = ini_to_opacity(source)
        low = set(source.alphabet.observable)
        down = set(source.alphabet.downgrading)
        for w in all_words(source.alphabet.events, 6):
            in_secret = out.lts.accepts(w, "Fphi")
            expected = source.accepts(w) and project_orwellian(w, low, down) != w
            assert in_secret == expected


def test_projection_fixed_point_word_membership(hdl_chain):
    out = ini_to_opacity(hdl_chain)
    assert not out.lts.accepts(word("h d l"), "Fphi")  # projection keeps it
    folded_loop = ini_to_opacity(
        Lts(
            hdl_chain.alphabet,
            frozenset("01"),
            {("0", "h"): "1", ("1", "l"): "0"},
            "0",
            {"F": frozenset("01")},
        )
    )
    assert folded_loop.lts.accepts(word("h l"), "Fphi")  # projection drops the private event


def test_without_private_events_the_secret_is_empty():
    rng = random.Random(34)
    for _ in range(20):
        source = random_system(rng, unobservable=())
        out = ini_to_opacity(source)
        assert out.lts.accepting("Fphi") == frozenset() or not any(
            out.lts.accepts(w, "Fphi") for w in all_words(source.alphabet.events, 5)
        )
        assert check_opacity_orwellian(out.lts).holds
        assert check_ini(source).holds


def test_fixture_verdicts_carry_back(downgrade_loop, hdl_chain):
    assert check_opacity_orwellian(ini_to_opacity(downgrade_loop).lts).holds is False
    assert check_opacity_orwellian(ini_to_opacity(hdl_chain).lts).holds is True


def test_ini_round_trip_on_random_instances():
    rng = random.Random(35)
    for _ in range(100):
        source = random_system(rng)
        assert check_ini_direct(source).holds == check_opacity_orwellian(ini_to_opacity(source).lts).holds


def test_translation_triangle_preserves_the_verdict():
    rng = random.Random(36)
    for _ in range(60):
        source = random_system(rng, max_states=5)
        direct = check_ini(source)
        via_opacity = opacity_to_ini(ini_to_opacity(source).lts)
        assert direct.holds == check_ini(via_opacity.lts).holds
