"""The inclusion search stops at pairs from which no escape can follow.

Static opacity stops at subsets that meet the non-secret states through
:func:`~opaqcheck.automata.universal_states`, NI at system states from
which every observable word stays accepted.  A stopped pair reaches no goal,
so every verdict, witness and breakdown must be that of the unpruned
search, and on the blowup family the search must stop at once."""

import random
import sys
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
from opaqcheck import interference, opacity
from opaqcheck.automata import EpsilonNfa, universal_states
from opaqcheck.generate import random_system

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


def test_pruned_search_matches_the_unpruned_one(monkeypatch):
    rng = random.Random(15)
    systems = [random_system(rng, max_states=12, density=(0.35, 0.6, 0.8, 0.95)[k % 4]) for k in range(400)]
    found = []
    rows = []
    row = EpsilonNfa.successor_row

    def counting_row(self, subset):
        rows.append(subset)
        return row(self, subset)

    def recording(a, keep):
        found.append(universal_states(a, keep))
        return found[-1]

    monkeypatch.setattr(EpsilonNfa, "successor_row", counting_row)
    for module in (opacity, interference):
        monkeypatch.setattr(module, "universal_states", recording)
    pruned = []
    with_dead_ends = 0
    for system in systems:
        found.clear()
        pruned.append(outcomes(system))
        with_dead_ends += any(found)
    pruned_rows = len(rows)

    rows.clear()
    for module in (opacity, interference):
        monkeypatch.setattr(module, "universal_states", lambda a, keep: frozenset())
    unpruned = [outcomes(system) for system in systems]
    assert pruned == unpruned
    # not vacuous: many systems stop somewhere, the stops save rows, and
    # both verdicts and some witnesses are compared
    assert with_dead_ends >= 100
    assert pruned_rows < len(rows)
    verdicts = [o[0] for checks in pruned for o in checks]
    assert set(verdicts) == {True, False}


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


def rows_built(monkeypatch, module, check, system):
    """The successor rows in the memo of the image ``check`` searches."""
    images = []
    build = module.natural_image_nfa

    def capture(*args):
        images.append(build(*args))
        return images[-1]

    monkeypatch.setattr(module, "natural_image_nfa", capture)
    assert check(system).holds
    monkeypatch.undo()
    (image,) = images
    return len(image._subset_memo[3])


def test_blowup_inclusions_stop_at_the_loop_state(monkeypatch):
    # every subset holds the loop state p, which sees every word
    system = blowup_system(16)
    assert rows_built(monkeypatch, opacity, check_opacity_static, system) <= 2
    translated = opacity_to_ni(system).lts
    assert len(translated.states) == 2**16 + 2
    assert rows_built(monkeypatch, interference, check_ni, translated) <= 2
