#!/usr/bin/env python3
"""Differential experiment on random systems, with timing and verdict mix.

Static and Orwellian opacity are checked against the brute-force
evaluator, each under its own observer and re-run at the witness length
when the decider's witness is longer than the evaluator's bound, and
direct INI against decomposed INI (verdict and witness).  Each translation
is written out as a model file, read back, and decided by the target
decider, whose verdict must equal the source's: static opacity against NI of
``opacity_to_ni``, Orwellian opacity against decomposed INI of
``opacity_to_ini``, and decomposed INI against Orwellian opacity of
``ini_to_opacity``.  Each translation's in-process system is also rebuilt
through the public constructor ``Lts(...)``, which validates it: the
package builds derived systems without validating them, so an
``InvalidModel`` there is a fault of the translation.  Every mismatch and
every such error counts as a disagreement.  Direct INI searches without
dead ends; the other deciders run the pruned search of
:func:`opaqcheck.observation.searches`, whose docstring states its policy.
The run reports how many instances gave some search a non-empty dead-end
set, so the cross-check is seen to exercise the pruned searches, and how
many start-state checks (the initial state of a static or NI check, each
entry state of a decomposed one) were answered at their start state,
without a search: from that set, or from the pairs an earlier search of the
same check proved.  Every route reads one natural image, condensed by the
hidden steps (:func:`opaqcheck.observation.condensed_image`): the deciders
search it, direct INI searches the Orwellian image built on it, the
translation to INI walks that image with a marked layer, and the
translation to NI determinizes the image of the system with a mark added
for each secret state.  The run reports how many instances had a hidden
cycle, an image on any of these routes smaller than its system, so the
cross-check is seen to cover the condensation too.

Example:
    python3 scripts/agreement_experiment.py --instances 1000 --seed 7
"""

import argparse
import random
import time

from opaqcheck import (
    InvalidModel,
    Lts,
    ObservationKind,
    check_ini_decomposed,
    check_ini_direct,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    ini_to_opacity,
    opacity_to_ini,
    opacity_to_ni,
    oracle_check_opacity,
    parse_model,
    render_model,
)
from opaqcheck import automata, interference, observation, opacity
from opaqcheck.generate import random_system


def written(reduction):
    """The translated model as ``opaq reduce`` writes it, read back."""
    return parse_model(render_model(reduction.lts))


def invalid(reduction) -> str | None:
    """The error the public constructor raises on the translated system,
    or None when it accepts it."""
    a = reduction.lts
    try:
        Lts(a.alphabet, a.states, a.delta, a.initial, a.accepting_sets)
    except InvalidModel as error:
        return str(error)
    return None


def record_dead_end_sets() -> list:
    """Make the deciders' dead-end sets visible: each one the searches
    compute is appended to the returned list."""
    found = []

    def recording(a, keep):
        found.append(automata.universal_states(a, keep))
        return found[-1]

    observation.universal_states = recording
    return found


def record_shrunk_images() -> list:
    """Make the condensation visible: for each image the deciders, the
    Orwellian image (direct INI) and both translations of opacity build,
    whether it has fewer states than its system is appended to the
    returned list."""
    shrunk = []
    build = observation._components

    def recording(hidden):
        # the hidden targets of every node, and the number of components
        component, count = build(hidden)
        shrunk.append(count < len(hidden))
        return component, count

    observation._components = recording
    return shrunk


def count_start_checks() -> list:
    """Make the start-state checks visible: each one the deciders run
    appends True to the returned list when it was answered without a
    search, False otherwise."""
    answered = []
    searches = []
    search = observation.subset_pair_search

    def counting_search(view, goal, start, dead_end, proven):
        # a start an earlier search proved is answered without a row
        if view.closed_state(start) not in proven:
            searches.append(None)
        return search(view, goal, start, dead_end, proven)

    observation.subset_pair_search = counting_search
    for module, name in ((opacity, "_static_disclosure"), (interference, "_ni_escape")):

        def counting_local_for(system, local_for=getattr(module, name)):
            local = local_for(system)

            def at(q):
                before = len(searches)
                found = local(q)
                answered.append(len(searches) == before)
                return found

            return at

        setattr(module, name, counting_local_for)
    return answered


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-states", type=int, default=6)
    parser.add_argument("--oracle-len", type=int, default=8)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    dead_end_sets = record_dead_end_sets()
    shrunk_images = record_shrunk_images()
    start_checks = count_start_checks()
    with_dead_ends = 0
    with_hidden_cycles = 0
    disagreements = 0
    violated = 0
    static_violated = 0
    decider_time = oracle_time = 0.0
    for i in range(args.instances):
        system = random_system(rng, max_states=args.max_states)
        kind = ObservationKind.orwellian(system.alphabet.observable, system.alphabet.downgrading)
        natural = ObservationKind.natural(system.alphabet.observable)

        dead_end_sets.clear()
        shrunk_images.clear()
        t = time.perf_counter()
        got = check_opacity_orwellian(system)
        direct = check_ini_direct(system)
        decomposed = check_ini_decomposed(system)
        static = check_opacity_static(system)
        translated = {"opacity_to_ni": opacity_to_ni(system), "opacity_to_ini": opacity_to_ini(system),
                      "ini_to_opacity": ini_to_opacity(system)}
        to_ni = check_ni(written(translated["opacity_to_ni"]))
        to_ini = check_ini_decomposed(written(translated["opacity_to_ini"]))
        from_ini = check_opacity_orwellian(written(translated["ini_to_opacity"]))
        decider_time += time.perf_counter() - t
        with_dead_ends += any(dead_end_sets)
        with_hidden_cycles += any(shrunk_images)

        violated += not got.holds
        static_violated += not static.holds
        for decided, observer, name in ((got, kind, "Orwellian"), (static, natural, "static")):
            t = time.perf_counter()
            brute = oracle_check_opacity(system, observer, args.oracle_len)
            if not decided.holds and brute.holds:  # the witness may be longer than the bound
                brute = oracle_check_opacity(system, observer, len(decided.witness))
            oracle_time += time.perf_counter() - t
            if decided.holds != brute.holds:
                disagreements += 1
                print(f"instance {i}: {name} opacity decider={decided.holds} brute-force={brute.holds}")
        if (direct.holds, direct.witness) != (decomposed.holds, decomposed.witness):
            disagreements += 1
            print(f"instance {i}: INI direct={direct.holds} {direct.witness} decomposed={decomposed.holds} {decomposed.witness}")
        for source, target, name in (
            (static, to_ni, "static opacity vs NI of opacity_to_ni"),
            (got, to_ini, "Orwellian opacity vs INI of opacity_to_ini"),
            (decomposed, from_ini, "INI vs Orwellian opacity of ini_to_opacity"),
        ):
            if source.holds != target.holds:
                disagreements += 1
                print(f"instance {i}: {name}: {source.holds} != {target.holds}")
        for name, reduction in translated.items():
            error = invalid(reduction)
            if error is not None:
                disagreements += 1
                print(f"instance {i}: {name} built an invalid system: {error}")

    n = args.instances
    print(f"instances: {n}  violated: {violated}  disagreements: {disagreements}")
    print(f"instances with static opacity violated: {static_violated}")
    print(f"instances with a non-empty dead-end set: {with_dead_ends}")
    print(f"instances with a hidden cycle (an image smaller than its system): {with_hidden_cycles}")
    print(f"checks answered at their start state: {sum(start_checks)} of {len(start_checks)}")
    print(f"decider: {decider_time:.2f} s total ({1000 * decider_time / n:.2f} ms each)")
    print(f"brute force: {oracle_time:.2f} s total ({1000 * oracle_time / n:.2f} ms each)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
