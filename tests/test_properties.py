"""Property-based cross-checks over :func:`strategies.systems`.

Each property runs a fixed number of examples with ``derandomize=True``, so
every run draws the same systems, and no example database is read or
written.  Hypothesis shrinks a failure to a small system and prints it as a
model file (``note``).  A property is run from a plain test, which then
checks that the systems it drew were not vacuous.
"""

from unittest import mock

from hypothesis import given, note, settings

from opaqcheck import (
    ObservationKind,
    check_ini,
    check_ini_decomposed,
    check_ini_direct,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    ini_to_opacity,
    observation,
    opacity_to_ini,
    opacity_to_ni,
    oracle_check_opacity,
    render_model,
)
from opaqcheck.automata import MaskView, _subset_walk, entry_words, restrict
from opaqcheck.observation import condensed_image
from reference import natural_image_nfa_triples, successor_row_by_buckets
from strategies import systems

EXAMPLES = settings(derandomize=True, max_examples=300, database=None, deadline=None)


def test_direct_and_decomposed_ini_agree():
    drawn = []

    @EXAMPLES
    @given(systems())
    def agree(system):
        note(render_model(system))
        direct = check_ini_direct(system)
        decomposed = check_ini_decomposed(system)
        assert (direct.holds, direct.witness) == (decomposed.holds, decomposed.witness)
        drawn.append((len(entry_words(system)), direct.holds))

    agree()
    # many entry states, and both verdicts
    entries = sorted(n for n, _ in drawn)
    assert entries[len(entries) // 2] >= 3 and entries[-1] >= 6
    assert {holds for _, holds in drawn} == {True, False}


def test_static_opacity_is_ni_of_its_translation():
    drawn = []

    @EXAMPLES
    @given(systems())
    def translated(system):
        note(render_model(system))
        holds = check_opacity_static(system).holds
        assert check_ni(opacity_to_ni(system).lts).holds == holds
        drawn.append(holds)

    translated()
    assert set(drawn) == {True, False}


def test_orwellian_opacity_is_ini_of_its_translation():
    drawn = []

    @EXAMPLES
    @given(systems())
    def translated(system):
        note(render_model(system))
        holds = check_opacity_orwellian(system).holds
        assert check_ini(opacity_to_ini(system).lts).holds == holds
        drawn.append(holds)

    translated()
    assert set(drawn) == {True, False}


def test_decomposed_ini_is_orwellian_opacity_of_its_translation():
    drawn = []

    @EXAMPLES
    @given(systems())
    def translated(system):
        note(render_model(system))
        holds = check_ini_decomposed(system).holds
        assert check_opacity_orwellian(ini_to_opacity(system).lts).holds == holds
        drawn.append(holds)

    translated()
    assert set(drawn) == {True, False}


def test_both_width_routes_read_the_rows_of_the_per_state_image():
    drawn = []

    @EXAMPLES
    @given(systems())
    def same_rows(system):
        note(render_model(system))
        for part in (system, restrict(system)):
            per_state = natural_image_nfa_triples(part, part.alphabet.observable)
            masks = condensed_image(part)
            with mock.patch.object(observation, "MASK_COMPONENTS", 0):
                sets = condensed_image(part)
            assert isinstance(masks.nfa, MaskView) and not isinstance(sets.nfa, MaskView)
            assert sets.component == masks.component
            members: dict = {}
            for q, c in masks.component.items():
                members.setdefault(c, set()).add(q)

            def states(subset):
                # the system states a subset of components stands for
                if isinstance(subset, int):
                    subset = [c for c in range(subset.bit_length()) if subset >> c & 1]
                return frozenset().union(*map(members.__getitem__, subset))

            walks = []
            for image in (masks, sets):
                subsets = _subset_walk(image.nfa)[0]
                for subset in subsets:
                    row = successor_row_by_buckets(per_state, states(subset))
                    assert tuple(map(states, image.nfa.successor_row(subset))) == row
                walks.append(list(map(states, subsets)))
            # both routes reach the same subsets in the same order
            assert walks[0] == walks[1]
            drawn.append(masks.nfa.width < len(part.states))

    same_rows()
    # some images merge a hidden cycle
    assert any(drawn)


def test_opacity_deciders_agree_with_the_oracle_up_to_six_states():
    drawn = []

    @settings(EXAMPLES, max_examples=150)
    @given(systems(max_states=6))
    def agree(system):
        note(render_model(system))
        alpha = system.alphabet
        for decide, kind in ((check_opacity_static, ObservationKind.natural(alpha.observable)),
                             (check_opacity_orwellian, ObservationKind.orwellian(alpha.observable, alpha.downgrading))):
            decided = decide(system)
            brute = oracle_check_opacity(system, kind, 5)
            if not decided.holds and brute.holds:
                # the witness may be longer than the bound
                brute = oracle_check_opacity(system, kind, len(decided.witness))
            assert decided.holds == brute.holds
            drawn.append(decided.holds)

    agree()
    assert set(drawn) == {True, False}
