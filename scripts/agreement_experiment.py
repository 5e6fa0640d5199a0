#!/usr/bin/env python3
"""Differential experiment on random systems, with timing and verdict mix.

Orwellian opacity is checked against the brute-force evaluator.  Two
routes through the per-entry decomposition are checked against each
other: direct INI against decomposed INI (verdict and witness), and
Orwellian opacity against decomposed INI of its translation to INI.
Every mismatch counts as a disagreement.

Example:
    python3 scripts/agreement_experiment.py --instances 1000 --seed 7
"""

import argparse
import random
import time

from opaqcheck import (
    ObservationKind,
    check_ini_decomposed,
    check_ini_direct,
    check_opacity_orwellian,
    opacity_to_ini,
    oracle_check_opacity,
)
from opaqcheck.generate import random_system


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-states", type=int, default=6)
    parser.add_argument("--oracle-len", type=int, default=8)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    disagreements = 0
    violated = 0
    decider_time = oracle_time = 0.0
    for i in range(args.instances):
        system = random_system(rng, max_states=args.max_states)
        kind = ObservationKind.orwellian(system.alphabet.observable, system.alphabet.downgrading)

        t = time.perf_counter()
        got = check_opacity_orwellian(system)
        direct = check_ini_direct(system)
        decomposed = check_ini_decomposed(system)
        translated = check_ini_decomposed(opacity_to_ini(system).lts)
        decider_time += time.perf_counter() - t

        t = time.perf_counter()
        brute = oracle_check_opacity(system, kind, args.oracle_len)
        if not got.holds and brute.holds:
            brute = oracle_check_opacity(system, kind, len(got.witness))
        oracle_time += time.perf_counter() - t

        violated += not got.holds
        if got.holds != brute.holds:
            disagreements += 1
            print(f"instance {i}: decider={got.holds} brute-force={brute.holds}")
        if (direct.holds, direct.witness) != (decomposed.holds, decomposed.witness):
            disagreements += 1
            print(f"instance {i}: INI direct={direct.holds} {direct.witness} decomposed={decomposed.holds} {decomposed.witness}")
        if got.holds != translated.holds:
            disagreements += 1
            print(f"instance {i}: Orwellian opacity={got.holds} INI of its translation={translated.holds}")

    n = args.instances
    print(f"instances: {n}  violated: {violated}  disagreements: {disagreements}")
    print(f"decider: {decider_time:.2f} s total ({1000 * decider_time / n:.2f} ms each)")
    print(f"brute force: {oracle_time:.2f} s total ({1000 * oracle_time / n:.2f} ms each)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
