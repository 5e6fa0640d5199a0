"""The inclusion search stops at pairs from which no escape can follow.

Static opacity stops at subsets that meet the non-secret states through
:func:`~opaqcheck.automata.universal_states`, NI at system states from
which every observable word stays accepted.  A stopped pair reaches no goal,
so every verdict, witness and breakdown must be that of the unpruned
search.  A start state in the dead-end set is answered before any image
is built: on the blowup family no image is built at all, and otherwise
the first start state that needs a search builds the one condensed image
the rest share.  A start state can also be answered from the pairs an
earlier search of the same check proved."""

import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

from opaqcheck import (
    Lts,
    alphabet,
    check_ini_decomposed,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    opacity_to_ni,
    parse_model,
)
from opaqcheck import interference, observation, opacity
from opaqcheck.automata import MaskView, universal_states
from opaqcheck.generate import random_system
from reference import universal_states_by_rounds

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def outcome(verdict):
    return verdict.holds, verdict.witness, [(s.state, s.holds, s.witness) for s in verdict.breakdown]


def outcomes(system):
    return [
        outcome(check_opacity_static(system)),
        outcome(check_opacity_orwellian(system)),
        outcome(check_ni(system)),
        outcome(check_ini_decomposed(system)),
        outcome(check_ni(opacity_to_ni(system).lts)),
    ]


def test_universal_states_ignore_silent_moves_and_cascade():
    system = Lts(alphabet("a b", "h"), frozenset("pqrostx"), {
        ("p", "a"): "p", ("p", "b"): "p",
        # r has no b, so q loses its only b into the set, and then o its a
        ("q", "a"): "q", ("q", "b"): "r", ("r", "a"): "r",
        ("o", "a"): "q", ("o", "b"): "p",
        # s reaches p, which has a b, only through a hidden step
        ("s", "a"): "p", ("s", "h"): "p",
        # x is universal but not kept, so t's b leaves the set
        ("t", "a"): "t", ("t", "b"): "x", ("x", "a"): "x", ("x", "b"): "x",
    }, "p", {"F": frozenset()})
    assert universal_states(system, "pqrost") == {"p"}
    assert universal_states(system, "pqrostx") == {"p", "t", "x"}
    assert universal_states(system, "qro") == frozenset()
    # with no observable events to cover, every kept state qualifies
    hidden_only = Lts(alphabet("", "h"), frozenset("pq"), {("p", "h"): "q"}, "p", {"F": frozenset()})
    assert universal_states(hidden_only, "p") == {"p"}
    # a missing step leaves the set even from a state named None
    named_none = Lts(alphabet("a"), frozenset({"p", None}), {("p", "a"): None}, "p", {"F": frozenset()})
    assert universal_states(named_none, {"p", None}) == frozenset()


def test_universal_states_match_the_round_by_round_fixpoint():
    # random systems, whose step maps are partial, and complete automata,
    # whose every observable map holds every state, so that the fixpoint
    # makes no pass for missing steps: the translations to NI of the
    # random systems, and blowup members with their translations
    rng, complete_rng = random.Random(83), random.Random(84)
    counts = Counter()

    def check(system, rng):
        states = sorted(system.states)
        observable = system.alphabet.observable
        f_states = system.accepting("F")
        kind = "complete" if all(len(targets) == len(states) for targets in system.steps[:len(observable)]) else "partial"
        counts[kind] += 1
        for keep in (f_states, system.states - f_states, rng.sample(states, rng.randint(0, len(states)))):
            expected, rounds = universal_states_by_rounds(system, keep)
            assert universal_states(system, keep) == expected
            # the early return answers when no kept state steps into a state
            # that leaves at once; the cascade runs otherwise, and is needed
            # when a second round removes more
            keep = set(keep)
            leaving = {q for q in keep if any(system.delta.get((q, e)) not in keep for e in observable)}
            stepped_into = any(system.delta.get((q, e)) in leaving for q in keep for e in observable)
            counts[kind, "early"] += bool(leaving) and not stepped_into
            counts[kind, "cascaded"] += rounds > 1

    for k in range(400):
        system = random_system(rng, max_states=12, density=(0.35, 0.6, 0.8, 0.95)[k % 4])
        check(system, rng)
        check(opacity_to_ni(system).lts, complete_rng)
    for n in range(1, 9):
        check(blowup_system(n), complete_rng)
        check(opacity_to_ni(blowup_system(n)).lts, complete_rng)
    assert counts["partial", "early"] > 100 and counts["partial", "cascaded"] > 100, counts
    assert counts["complete"] > 400 and counts["complete", "early"] > 100 and counts["complete", "cascaded"] > 20, counts


def count_answered_at_start(monkeypatch):
    """Per decider (the static disclosure and the NI escape), the start
    states it answers without a search, from the dead-end set without
    calling the inclusion search, or in that search from the pairs an
    earlier search proved: the first of each check under ``"first"`` and
    the later ones under ``"later"``."""
    searches = []
    answered = Counter()
    search = observation.subset_pair_search

    def counting_search(nfa, goal, against, start, dead_end, proven):
        if (nfa.closed_state(start[0]), start[1]) not in proven:
            searches.append(None)
        return search(nfa, goal, against, start, dead_end, proven)

    monkeypatch.setattr(observation, "subset_pair_search", counting_search)
    for module, name in ((opacity, "_static_disclosure"), (interference, "_ni_escape")):

        def counting_local_for(system, local_for=getattr(module, name), name=name):
            local = local_for(system)
            calls = []

            def at(q):
                before = len(searches)
                found = local(q)
                if len(searches) == before:
                    answered[name, "later" if calls else "first"] += 1
                calls.append(q)
                return found

            return at

        monkeypatch.setattr(module, name, counting_local_for)
    return answered


def test_pruned_search_matches_the_unpruned_one(monkeypatch):
    rng = random.Random(15)
    systems = [random_system(rng, max_states=12, density=(0.35, 0.6, 0.8, 0.95)[k % 4]) for k in range(400)]
    found = []
    rows = []
    row = MaskView.successor_row

    def counting_row(self, subset):
        rows.append(subset)
        return row(self, subset)

    def recording(a, keep):
        found.append(universal_states(a, keep))
        return found[-1]

    monkeypatch.setattr(MaskView, "successor_row", counting_row)
    answered = count_answered_at_start(monkeypatch)
    monkeypatch.setattr(observation, "universal_states", recording)
    pruned = []
    with_dead_ends = 0
    for system in systems:
        found.clear()
        pruned.append(outcomes(system))
        with_dead_ends += any(found)
    pruned_rows = len(rows)
    pruned_answered = dict(answered)

    rows.clear()
    answered.clear()
    monkeypatch.setattr(observation, "universal_states", lambda a, keep: frozenset())
    unpruned = [outcomes(system) for system in systems]
    assert pruned == unpruned
    # not vacuous: many systems stop somewhere, the stops save rows, both
    # deciders answer some first start state without a search, and both
    # verdicts and some witnesses are compared; with an empty dead-end set
    # no first start state is answered so, only later ones whose start pair
    # an earlier search proved
    assert with_dead_ends >= 100
    assert pruned_rows < len(rows)
    assert min(pruned_answered.get((name, "first"), 0) for name in ("_static_disclosure", "_ni_escape")) >= 1
    assert sum(n for (_, start), n in answered.items() if start == "first") == 0
    assert sum(answered.values()) >= 1
    verdicts = [o[0] for checks in pruned for o in checks]
    assert set(verdicts) == {True, False}


def test_searches_stop_at_dead_ends_past_their_start(monkeypatch):
    # a search from a start outside the dead-end set stops at the pairs it
    # reaches inside it: that saves rows and changes no outcome
    rng = random.Random(15)
    systems = [random_system(rng, max_states=12, density=(0.35, 0.6, 0.8, 0.95)[k % 4]) for k in range(200)]
    rows = []
    row = MaskView.successor_row
    monkeypatch.setattr(MaskView, "successor_row", lambda self, subset: rows.append(subset) or row(self, subset))
    stopping = [outcomes(system) for system in systems]
    stopping_rows = len(rows)
    rows.clear()
    search = observation.subset_pair_search

    def without_dead_ends(nfa, goal, against, start, dead_end, proven):
        return search(nfa, goal, against, start, None, proven)

    monkeypatch.setattr(observation, "subset_pair_search", without_dead_ends)
    assert [outcomes(system) for system in systems] == stopping
    assert stopping_rows < len(rows)


def images_built(monkeypatch, check, system):
    """The verdict of ``check`` on ``system`` and the number of condensed
    images it built, one condensation pass each."""
    built = []
    build = observation._components

    def counting(hidden):
        built.append(hidden)
        return build(hidden)

    monkeypatch.setattr(observation, "_components", counting)
    verdict = check(system)
    monkeypatch.undo()
    return verdict, len(built)


def test_one_image_for_a_covered_and_an_uncovered_entry_state(monkeypatch):
    # 0 loops on l and accepts every word from there; the downgrade's entry
    # state 1 reaches 2 by a hidden step, and l from 2 has no match from 1
    system = Lts(alphabet("l", "h", "d"), frozenset("0123"), {
        ("0", "l"): "0", ("0", "d"): "1", ("1", "h"): "2", ("2", "l"): "3",
    }, "0", {"F": frozenset("0123")})
    verdict, images = images_built(monkeypatch, check_ini_decomposed, system)
    assert images == 1
    assert outcome(verdict) == (False, ("d", "l"), [("0", True, None), ("1", False, ("l",))])
    monkeypatch.setattr(observation, "universal_states", lambda a, keep: frozenset())
    assert outcome(check_ini_decomposed(system)) == outcome(verdict)


def blowup_system(n):
    """``perfbench/instances.blowup_model(n, 2, "a")``, parsed; imported
    without writing bytecode under perfbench/."""
    dont_write = sys.dont_write_bytecode
    sys.path.append(PERFBENCH)
    sys.dont_write_bytecode = True
    try:
        from instances import blowup_model, render
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = dont_write
    return parse_model(render(blowup_model(n, 2, "a")))


def test_blowup_inclusions_stop_at_the_loop_state(monkeypatch):
    # the loop state p sees every word, and each search starts there, so
    # both verdicts come from the dead-end set before any image is built
    system = blowup_system(16)
    verdict, images = images_built(monkeypatch, check_opacity_static, system)
    assert verdict.holds and images == 0
    translated = opacity_to_ni(system).lts
    assert len(translated.states) == 2**16 + 2
    verdict, images = images_built(monkeypatch, check_ni, translated)
    assert verdict.holds and images == 0


def test_dead_end_set_of_the_blowup_translation_is_read_in_place():
    # NI of the translation is answered by its dead-end set alone, which
    # drops the one state outside F.  The fixpoint reads the kept set and
    # the step maps in place, so it allocates about one set of the kept
    # set's size, the one it returns, and no copies of either
    translated = opacity_to_ni(blowup_system(14)).lts
    keep = translated.accepting("F")
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        covered = universal_states(translated, keep)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(covered) == len(keep) - 1 == 2**14
    # a set that no state leaves is returned as it is, not copied
    assert universal_states(translated, covered) is covered
    assert peak <= 2 * sys.getsizeof(keep), (peak, sys.getsizeof(keep))
