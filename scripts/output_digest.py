#!/usr/bin/env python3
"""Three sha256 digests of the package's outputs on 400 seeded systems.

The systems are ``random_system(Random(2022), max_states=...)`` with
``max_states`` 6, 12 and 30 in turn; every second one gets an arbitrary
``Fphi``, each state in ``state_order`` drawn with probability 0.4 from the
same generator, set by ``with_set``.  The first digest covers the
(verdict, witness, breakdown) of static opacity, Orwellian opacity, NI and
``check_ini(..., "both")``; the second the written model (``render_model``)
of ``opacity_to_ni``, ``opacity_to_ini`` and ``ini_to_opacity``.  The
third covers secret patterns: each system with the first of ``PATTERNS``
folded in as its secret (``compile_regex``, then ``incorporate_secret``),
and every second one with the second pattern folded in too.  It hashes
the (verdict, witness) of static and Orwellian opacity, each sub-check's
holds and witness but not its state, whose name holds a pattern state,
and the written ``opacity_to_ni`` and ``opacity_to_ini`` of the folded
system.  A change that must not change any output prints the same three
digests as its parent, under every ``PYTHONHASHSEED``.  It takes about two
seconds.

Example:
    PYTHONHASHSEED=0 PYTHONPATH=src python3 scripts/output_digest.py
"""

import hashlib
from random import Random

from opaqcheck import (
    check_ini,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    compile_regex,
    incorporate_secret,
    ini_to_opacity,
    opacity_to_ini,
    opacity_to_ni,
    render_model,
    with_set,
)
from opaqcheck.automata import state_order
from opaqcheck.generate import random_system

CHECKS = (check_opacity_static, check_opacity_orwellian, check_ni, lambda system: check_ini(system, "both"))
TRANSLATIONS = (opacity_to_ni, opacity_to_ini, ini_to_opacity)
PATTERNS = ("(a + u)* d b*", "u* (a b + v)* + ()")


def systems():
    rng = Random(2022)
    for k in range(400):
        system = random_system(rng, max_states=(6, 12, 30)[k % 3])
        if k % 2:
            system = with_set(system, "Fphi", [q for q in state_order(system) if rng.random() < 0.4])
        yield system


def main() -> None:
    verdicts = hashlib.sha256()
    translations = hashlib.sha256()
    patterns = hashlib.sha256()
    for k, system in enumerate(systems()):
        for check in CHECKS:
            v = check(system)
            record = (v.holds, v.witness, [(sub.state, sub.holds, sub.witness) for sub in v.breakdown])
            verdicts.update(repr(record).encode())
        for translate in TRANSLATIONS:
            translations.update(render_model(translate(system).lts).encode())
        for pattern in PATTERNS[: 1 + k % 2]:
            folded = incorporate_secret(system, "F", compile_regex(pattern, system.alphabet), "F")
            for check in (check_opacity_static, check_opacity_orwellian):
                v = check(folded)
                record = (v.holds, v.witness, [(sub.holds, sub.witness) for sub in v.breakdown])
                patterns.update(repr(record).encode())
            for translate in (opacity_to_ni, opacity_to_ini):
                patterns.update(render_model(translate(folded).lts).encode())
    print(f"verdicts {verdicts.hexdigest()}")
    print(f"translations {translations.hexdigest()}")
    print(f"patterns {patterns.hexdigest()}")


if __name__ == "__main__":
    main()
