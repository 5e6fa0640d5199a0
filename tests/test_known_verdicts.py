"""Every decider on systems whose verdicts are known by construction
(:mod:`known_verdicts`), at 300-1,500 states: past the oracle's sizes and
the agreement script's, where the deciders are otherwise checked only
against each other.  Static and Orwellian opacity hold on every member,
INI holds without a leak and fails with one, and NI of the translation of
an opaque member holds; so does INI of its translation to INI, and the
translation of INI to opacity is Orwellian-opaque exactly when the member
has no leak.  In the deciders' test, half of the members run with
``observation.MASK_COMPONENTS`` patched to 0, so that their images hold
subsets as frozensets.  The dead-end sets of NI and static opacity are
checked against the round-by-round fixpoint there too, where many of them
cascade.  NI and both INI deciders hold on small parity-chain members,
whose searches must exhaust every subset they reach."""

from known_verdicts import dh_system, parity_chain
from opaqcheck import (
    check_ini_decomposed,
    check_ini_direct,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    ini_to_opacity,
    observation,
    opacity_to_ini,
    opacity_to_ni,
)
from opaqcheck.automata import restrict, universal_states
from reference import universal_states_by_rounds

#: (seed, DFA states, hidden values) of each member
MEMBERS = [(1, 8, 40), (2, 10, 60), (3, 12, 80), (4, 12, 125), (5, 10, 150), (6, 9, 100)]


def test_known_verdicts_at_hundreds_of_states(monkeypatch):
    cascaded = 0
    for i, (seed, m, k) in enumerate(MEMBERS):
        if i % 2:
            monkeypatch.setattr(observation, "MASK_COMPONENTS", 0)
        for leak in (False, True):
            system = dh_system(seed, m, k, leak)
            assert 300 <= len(system.states) <= 1500, (seed, leak, len(system.states))
            assert check_opacity_static(system).holds, (seed, leak)
            assert check_opacity_orwellian(system).holds, (seed, leak)
            assert check_ini_decomposed(system).holds is not leak, (seed, leak)
            assert check_ini_direct(system).holds is not leak, (seed, leak)
            assert check_ni(opacity_to_ni(system).lts).holds, (seed, leak)
            # the dead-end sets of NI and static opacity, of the system and
            # of its downgrade-free part, at this scale
            f_states = system.accepting("F")
            for part in (system, restrict(system)):
                for keep in (f_states, f_states - system.accepting("Fphi")):
                    expected, rounds = universal_states_by_rounds(part, keep)
                    assert universal_states(part, keep) == expected
                    cascaded += rounds > 1
        monkeypatch.undo()
    assert cascaded >= 24, cascaded


def test_translations_of_known_verdicts():
    for seed, m, k in MEMBERS:
        for leak in (False, True):
            system = dh_system(seed, m, k, leak)
            # every member is opaque, and INI holds on it exactly without the leak
            assert check_ini_decomposed(opacity_to_ini(system).lts).holds, (seed, leak)
            assert check_opacity_orwellian(ini_to_opacity(system).lts).holds is not leak, (seed, leak)


def test_parity_chains_hold_ni_and_ini():
    for n in (4, 6, 8, 10):
        system = parity_chain(n)
        assert len(system.states) == n + 3
        for check in (check_ni, check_ini_decomposed, check_ini_direct):
            assert check(system).holds, (n, check.__name__)
