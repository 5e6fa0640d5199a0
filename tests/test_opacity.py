import itertools
import random

import pytest

from opaqcheck import (
    InvalidModel,
    Lts,
    ObservationKind,
    alphabet,
    check_opacity_orwellian,
    check_opacity_static,
    compile_regex,
    disclosing_class,
    incorporate_secret,
    nonsecret_partner,
    oracle_check_opacity,
    project_natural,
    with_set,
    word,
)
from opaqcheck.generate import random_system

SECRET_RE = "h l + h d h l l*"


def all_words(events, maxlen):
    for n in range(maxlen + 1):
        yield from itertools.product(events, repeat=n)


# ---------------------------------------------------------------------------
# static observer


def test_static_leak_fixture_disclosed_by_unique_run(projection_leak):
    folded = incorporate_secret(projection_leak, "F", compile_regex("a* (b* + c*)", projection_leak.alphabet), "F")
    verdict = check_opacity_static(folded)
    assert not verdict.holds
    assert project_natural(verdict.witness, ("a", "b", "c")) == word("a b b")
    assert verdict.breakdown == ()


def test_empty_secret_is_opaque(downgrade_loop):
    verdict = check_opacity_static(with_set(downgrade_loop, "Fphi", ()))
    assert verdict.holds and verdict.witness is None


def test_whole_language_as_secret_is_disclosed(downgrade_loop):
    verdict = check_opacity_static(with_set(downgrade_loop, "Fphi", downgrade_loop.states))
    assert not verdict.holds
    assert verdict.witness == ()  # the shortest word of the language


def test_adding_cover_for_the_witness_changes_the_verdict():
    # secret "h l" is disclosed; adding a second, non-secret run with the
    # same observation hides it again
    alpha = alphabet("l", "h u")
    leaky = Lts(
        alpha,
        frozenset("012"),
        {("0", "h"): "1", ("1", "l"): "2"},
        "0",
        {"F": frozenset("012"), "Fphi": frozenset("2")},
    )
    before = check_opacity_static(leaky)
    assert not before.holds and before.witness == word("h l")
    covered = Lts(
        alpha,
        frozenset("01234"),
        {("0", "h"): "1", ("1", "l"): "2", ("0", "u"): "3", ("3", "l"): "4"},
        "0",
        {"F": frozenset("01234"), "Fphi": frozenset("2")},
    )
    after = check_opacity_static(covered)
    assert after.holds


def test_secret_extremes_on_random_instances():
    rng = random.Random(11)
    for _ in range(50):
        system = random_system(rng, max_states=5)
        assert check_opacity_static(with_set(system, "Fphi", ())).holds
        nonempty = system.accepting("F") and any(
            system.accepts(w) for w in all_words(system.alphabet.events, 3)
        )
        full = check_opacity_static(with_set(system, "Fphi", system.accepting("F")))
        if nonempty:
            assert not full.holds


# ---------------------------------------------------------------------------
# Orwellian observer


def test_downgrade_fixture_breakdown_and_witness(downgrade_loop):
    verdict = check_opacity_orwellian(downgrade_loop)
    assert not verdict.holds
    assert verdict.witness == word("h l")
    assert [(s.state, s.holds, s.witness) for s in verdict.breakdown] == [
        ("1", False, word("h l")),
        ("4", False, word("h l l")),
    ]


def test_downgrade_fixture_with_separate_secret_reports_product_states(downgrade_loop):
    secret = compile_regex(SECRET_RE, downgrade_loop.alphabet)
    verdict = check_opacity_orwellian(downgrade_loop, secret)
    assert not verdict.holds
    assert verdict.witness == word("h l")
    assert [s.state[0] for s in verdict.breakdown] == ["1", "4"]
    assert all(not s.holds for s in verdict.breakdown)


def test_without_downgrades_orwellian_equals_static():
    rng = random.Random(12)
    for _ in range(50):
        system = random_system(rng, downgrading=())
        orwellian = check_opacity_orwellian(system)
        static = check_opacity_static(system)
        assert orwellian.holds == static.holds
        assert len(orwellian.breakdown) == 1


def test_orwellian_requires_a_secret(hdl_chain):
    with pytest.raises(InvalidModel):
        check_opacity_orwellian(hdl_chain)


def test_orwellian_witness_discloses_on_random_instances():
    rng = random.Random(13)
    seen_violated = 0
    for _ in range(100):
        system = random_system(rng, max_states=5)
        kind = ObservationKind.orwellian(system.alphabet.observable, system.alphabet.downgrading)
        verdict = check_opacity_orwellian(system)
        if verdict.holds:
            continue
        seen_violated += 1
        w = verdict.witness
        assert system.accepts(w, "Fphi") and system.accepts(w, "F")
        assert nonsecret_partner(system, kind, kind.observe(w)) is None
        cls = disclosing_class(system, w, kind, len(w) + 4)
        assert w in cls
        assert all(system.accepts(u, "Fphi") for u in cls)
    assert seen_violated > 10


def test_orwellian_agrees_with_brute_force_spot(downgrade_loop):
    kind = ObservationKind.orwellian(("l",), ("d",))
    assert check_opacity_orwellian(downgrade_loop).holds == oracle_check_opacity(downgrade_loop, kind, 10).holds


# ---------------------------------------------------------------------------
# observation classes


def test_observation_class_after_downgrade(downgrade_loop):
    kind = ObservationKind.orwellian(("l",), ("d",))
    assert set(disclosing_class(downgrade_loop, word("h d l"), kind, 12)) == {word("h d l"), word("h d h l")}


def test_observation_class_of_the_disclosing_trace(downgrade_loop):
    kind = ObservationKind.orwellian(("l",), ("d",))
    assert set(disclosing_class(downgrade_loop, word("h l"), kind, 12)) == {word("h l")}


def test_observation_class_contains_its_word(downgrade_loop):
    kind = ObservationKind.orwellian(("l",), ("d",))
    for w in [(), word("h"), word("h d h l l")]:
        assert w in disclosing_class(downgrade_loop, w, kind, 8)


def test_observation_class_rejects_foreign_words(downgrade_loop):
    kind = ObservationKind.orwellian(("l",), ("d",))
    with pytest.raises(InvalidModel):
        disclosing_class(downgrade_loop, word("l l"), kind, 8)
