"""Violations confirmed past the brute-force evaluator's sizes.

The oracle enumerates words, so it stops at small systems.  A violation
needs no enumeration to be confirmed: an opacity witness must be a secret
run that no non-secret run is observed like, and an NI or INI witness must
be a run the system rejects that its projection maps onto itself and that
some accepted run projects to.  :func:`opaqcheck.oracle.nonsecret_partner`
decides both exactly, by a search synchronised with the observation, so
the checks below hold at any size (as ``perfbench/make_expected.py``
confirms the benchmark's answers).
"""

from random import Random

from opaqcheck import (
    ObservationKind,
    check_ini,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    nonsecret_partner,
    with_set,
)
from opaqcheck.generate import random_system


def large_systems(count=40, least=50):
    """The first ``count`` seeded systems with at least ``least`` states
    (52 to 169 states)."""
    rng = Random(9)
    found = []
    while len(found) < count:
        system = random_system(rng, max_states=200, density=rng.choice((0.3, 0.45, 0.6)),
                               secret_bias=rng.choice((0.4, 0.9)))
        if len(system.states) >= least:
            found.append(system)
    return found


def test_violations_of_large_systems_are_certified():
    confirmed = dict.fromkeys(("static", "orwellian", "ni", "ini"), 0)
    for system in large_systems():
        alpha = system.alphabet
        natural = ObservationKind.natural(alpha.observable)
        orwellian = ObservationKind.orwellian(alpha.observable, alpha.downgrading)
        for name, check, kind in (("static", check_opacity_static, natural),
                                  ("orwellian", check_opacity_orwellian, orwellian)):
            verdict = check(system)
            if not verdict.holds:
                w = verdict.witness
                assert system.accepts(w, "F") and system.accepts(w, "Fphi")
                assert nonsecret_partner(system, kind, kind.observe(w)) is None
                confirmed[name] += 1
        no_secret = with_set(system, "Fphi", ())
        for name, verdict, kind in (("ni", check_ni(system), natural),
                                    ("ini", check_ini(system, "both"), orwellian)):
            if not verdict.holds:
                w = verdict.witness
                assert not system.accepts(w, "F") and kind.observe(w) == w
                assert nonsecret_partner(no_secret, kind, w) is not None
                confirmed[name] += 1
    # the counts measured when the test was written, as floors, so that it
    # cannot pass by confirming nothing
    assert confirmed["static"] >= 15
    assert confirmed["orwellian"] >= 39
    assert confirmed["ni"] >= 40
    assert confirmed["ini"] >= 40
