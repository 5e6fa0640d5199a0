import itertools
import random

import pytest

from opaqcheck import (
    ObservationKind,
    check_opacity_static,
    compile_regex,
    enumerate_language,
    factorize,
    incorporate_secret,
    nonsecret_partner,
    oracle_check_opacity,
    parse_model,
    project_natural,
    with_set,
    word,
)
from opaqcheck.automata import restrict, step, trim
from opaqcheck.generate import random_system
from opaqcheck.oracle import exactness_bound
from reference import rebase


def all_words(events, maxlen):
    for n in range(maxlen + 1):
        yield from itertools.product(events, repeat=n)


# ---------------------------------------------------------------------------
# enumeration


def test_fixture_enumeration_is_breadth_first_then_lexicographic(downgrade_loop):
    got = enumerate_language(downgrade_loop, "F", 4).words
    assert got == ((), word("h"), word("h l"), word("h d"), word("h d l"), word("h d h"), word("h d h l"))


def test_enumeration_at_zero_length(downgrade_loop):
    assert enumerate_language(downgrade_loop, "F", 0).words == ((),)
    assert enumerate_language(with_set(downgrade_loop, "F", ()), "F", 0).words == ()


def test_enumeration_of_empty_language(downgrade_loop):
    assert enumerate_language(with_set(downgrade_loop, "F", ()), "F", 6).words == ()


def test_enumeration_is_deterministic(downgrade_loop):
    first = enumerate_language(downgrade_loop, "F", 7)
    second = enumerate_language(downgrade_loop, "F", 7)
    assert first == second


# ---------------------------------------------------------------------------
# exactness bound


def test_bound_formula():
    assert exactness_bound(1, 7) == 15
    assert exactness_bound(0, 1) == 1


def test_bound_really_bounds_shortest_partners():
    # when a same-observation non-secret word exists at all, one exists
    # within the bound; searching twice as far finds nothing new
    rng = random.Random(41)
    checked = 0
    for _ in range(200):
        system = random_system(rng, max_states=4, observable=("a",), unobservable=("u",), density=0.3)
        kind = ObservationKind.orwellian(system.alphabet.observable, system.alphabet.downgrading)
        n = len(system.states)
        for s in enumerate_language(system, "Fphi", 5).words[:4]:
            o = kind.observe(s)
            tail = factorize(o, kind.downgrading).continuation
            limit = len(o) - len(tail) + exactness_bound(len(tail), n)
            partner = nonsecret_partner(system, kind, o)
            nonsecret = [
                w
                for w in enumerate_language(system, "F", min(2 * limit, 14)).words
                if kind.observe(w) == o and not system.accepts(w, "Fphi")
            ]
            checked += 1
            if partner is None:
                assert not nonsecret
            else:
                assert len(partner) <= limit
                assert kind.observe(partner) == o
                assert system.accepts(partner, "F") and not system.accepts(partner, "Fphi")
                assert nonsecret and len(nonsecret[0]) == len(partner)
    assert checked > 100


# ---------------------------------------------------------------------------
# brute-force opacity


def test_fixture_disclosure_found_by_brute_force(downgrade_loop):
    kind = ObservationKind.orwellian(("l",), ("d",))
    verdict = oracle_check_opacity(downgrade_loop, kind, 10)
    assert not verdict.holds
    assert verdict.witness == word("h l")


def test_empty_secret_holds(downgrade_loop):
    kind = ObservationKind.orwellian(("l",), ("d",))
    verdict = oracle_check_opacity(with_set(downgrade_loop, "Fphi", ()), kind, 8)
    assert verdict.holds


def test_static_leak_found_by_brute_force(projection_leak):
    folded = incorporate_secret(projection_leak, "F", compile_regex("a* (b* + c*)", projection_leak.alphabet), "F")
    kind = ObservationKind.natural(("a", "b", "c"))
    verdict = oracle_check_opacity(folded, kind, 8)
    assert not verdict.holds
    assert project_natural(verdict.witness, ("a", "b", "c")) == word("a b b")


def test_brute_force_is_deterministic(downgrade_loop):
    kind = ObservationKind.orwellian(("l",), ("d",))
    assert oracle_check_opacity(downgrade_loop, kind, 9) == oracle_check_opacity(downgrade_loop, kind, 9)


def test_approximate_flag_reflects_the_bound(downgrade_loop):
    kind = ObservationKind.orwellian(("l",), ("d",))
    shallow = oracle_check_opacity(with_set(downgrade_loop, "Fphi", ()), kind, 2)
    assert shallow.holds and shallow.approximate
    deep = oracle_check_opacity(with_set(downgrade_loop, "Fphi", ()), kind, 20)
    assert deep.holds and not deep.approximate


def test_orwellian_check_decomposes_over_factorization_prefixes():
    # the Orwellian verdict equals the conjunction of one static check per
    # observed downgrade prefix, each run on the continuations from the
    # state that prefix reaches
    rng = random.Random(42)
    for _ in range(50):
        system = random_system(rng, max_states=5)
        kind = ObservationKind.orwellian(system.alphabet.observable, system.alphabet.downgrading)
        whole = oracle_check_opacity(system, kind, 7)

        static = ObservationKind.natural(system.alphabet.observable)
        per_prefix_ok = True
        for s in enumerate_language(system, "Fphi", 7).words:
            split = factorize(s, kind.downgrading)
            entered = step(system, system.initial, split.prefix)
            local = trim(restrict(rebase(system, entered)))
            if nonsecret_partner(local, static, static.observe(split.continuation)) is None:
                per_prefix_ok = False
                break
        assert whole.holds == per_prefix_ok


def test_negative_length_is_rejected(downgrade_loop):
    with pytest.raises(ValueError):
        enumerate_language(downgrade_loop, "F", -1)


def test_the_decider_and_the_oracle_return_different_disclosing_runs(fixtures_dir):
    # the decider returns the shortest secret run behind the shortest
    # escaping observation (the empty one); the oracle the shortest
    # disclosing secret run, whose observation is longer
    system = parse_model((fixtures_dir / "late_disclosure.lts").read_text())
    kind = ObservationKind.natural(system.alphabet.observable)
    assert check_opacity_static(system).witness == word("u u u")
    verdict = oracle_check_opacity(system, kind, 6)
    assert (verdict.holds, verdict.witness) == (False, word("a"))
    # both runs disclose: neither observation has a non-secret partner
    for w in (word("u u u"), word("a")):
        assert nonsecret_partner(system, kind, kind.observe(w)) is None


def test_the_partner_search_rejects_observations_no_run_can_give(downgrade_loop):
    kind = ObservationKind.orwellian(("l",), ("d",))
    # a hidden event after the last downgrade is never observed
    assert nonsecret_partner(downgrade_loop, kind, ("h",)) is None
    # the verbatim prefix "d" is no run of the system
    assert nonsecret_partner(downgrade_loop, kind, ("d", "l")) is None
    assert nonsecret_partner(downgrade_loop, kind, ("h", "d", "l")) == word("h d l")
