import itertools
import random

import pytest

from opaqcheck import (
    InvalidModel,
    Lts,
    ObservationKind,
    alphabet,
    check_ini,
    check_ini_decomposed,
    check_ini_direct,
    check_ni,
    nonsecret_partner,
    project_orwellian,
    with_set,
    word,
)
from opaqcheck import interference
from opaqcheck.generate import random_system
from opaqcheck.verdicts import InterferenceVerdict


def all_words(events, maxlen):
    for n in range(maxlen + 1):
        yield from itertools.product(events, repeat=n)


def preimage_exists(system, kind, observation):
    # any run with this observation, secret sets ignored
    probe = with_set(with_set(system, "F", system.accepting("F")), "Fphi", ())
    return nonsecret_partner(probe, kind, observation) is not None


# ---------------------------------------------------------------------------
# NI


def test_ni_fails_on_the_declassified_chain(hdl_chain):
    verdict = check_ni(hdl_chain)
    assert not verdict.holds
    assert verdict.witness == word("l")


def test_ni_holds_for_public_only_language():
    alpha = alphabet("l", "h")
    pub = Lts(alpha, frozenset("01"), {("0", "l"): "1"}, "0", {"F": frozenset("01")})
    assert check_ni(pub).holds


def test_ni_holds_for_empty_word_language():
    alpha = alphabet("l", "h")
    single = Lts(alpha, frozenset("0"), {}, "0", {"F": frozenset("0")})
    assert check_ni(single).holds


def test_ni_witness_is_projected_and_escaping(downgrade_loop):
    verdict = check_ni(downgrade_loop)
    assert not verdict.holds
    w = verdict.witness
    kind = ObservationKind.natural(downgrade_loop.alphabet.observable)
    assert preimage_exists(downgrade_loop, kind, w)
    assert not downgrade_loop.accepts(w)


# ---------------------------------------------------------------------------
# INI, direct


def test_ini_fails_on_the_downgrade_fixture(downgrade_loop):
    verdict = check_ini_direct(downgrade_loop)
    assert not verdict.holds
    assert verdict.witness == word("l")


def test_ini_holds_on_the_declassified_chain(hdl_chain):
    low, down = {"l"}, {"d"}
    for w in all_words(hdl_chain.alphabet.events, 4):
        if hdl_chain.accepts(w):
            assert hdl_chain.accepts(project_orwellian(w, low, down))
    assert check_ini_direct(hdl_chain).holds


def test_ini_holds_without_private_events():
    rng = random.Random(21)
    for _ in range(30):
        system = random_system(rng, unobservable=())
        assert check_ini_direct(system).holds


def test_ini_witness_is_projected_and_escaping():
    rng = random.Random(22)
    seen = 0
    for _ in range(60):
        system = random_system(rng, max_states=5)
        verdict = check_ini_direct(system)
        if verdict.holds:
            continue
        seen += 1
        kind = ObservationKind.orwellian(system.alphabet.observable, system.alphabet.downgrading)
        w = verdict.witness
        assert project_orwellian(w, kind.observable, kind.downgrading) == w
        assert preimage_exists(system, kind, w)
        assert not system.accepts(w)
    assert seen > 5


# ---------------------------------------------------------------------------
# INI, decomposed


def test_decomposed_fails_at_the_initial_state_on_the_fixture(downgrade_loop):
    verdict = check_ini_decomposed(downgrade_loop)
    assert not verdict.holds
    assert [(s.state, s.holds) for s in verdict.breakdown] == [("1", False), ("4", False)]


def test_decomposed_breakdown_on_the_declassified_chain(hdl_chain):
    verdict = check_ini_decomposed(hdl_chain)
    assert verdict.holds
    assert [(s.state, s.holds) for s in verdict.breakdown] == [("0", True), ("2", True)]


def test_no_downgrades_decomposes_into_plain_ni():
    rng = random.Random(23)
    for _ in range(40):
        system = random_system(rng, downgrading=())
        plain = check_ni(system)
        decomposed = check_ini_decomposed(system)
        assert len(decomposed.breakdown) == 1
        assert decomposed.holds == plain.holds
        assert decomposed.witness == plain.witness


def test_methods_agree_on_random_instances():
    rng = random.Random(24)
    for _ in range(150):
        system = random_system(rng)
        assert check_ini_direct(system).holds == check_ini_decomposed(system).holds


def test_both_mode_merges_direct_witness_with_breakdown(downgrade_loop):
    verdict = check_ini(downgrade_loop, "both")
    assert not verdict.holds
    assert verdict.witness == word("l")
    assert len(verdict.breakdown) == 2
    # the default, the decomposition alone, reports the same verdict
    assert check_ini(downgrade_loop) == verdict


def test_both_mode_insists_on_the_same_witness(monkeypatch, downgrade_loop):
    # the decomposition finds "l"; a direct verdict that agrees but names
    # another witness must fail the audit
    monkeypatch.setattr(interference, "check_ini_direct", lambda system: InterferenceVerdict(False, word("l l")))
    with pytest.raises(AssertionError):
        check_ini(downgrade_loop, "both")


def test_unknown_method_is_rejected(hdl_chain):
    with pytest.raises(InvalidModel):
        check_ini(hdl_chain, "fancy")


def test_ni_and_ini_separate_on_the_declassified_chain(hdl_chain):
    assert not check_ni(hdl_chain).holds
    assert check_ini(hdl_chain).holds
