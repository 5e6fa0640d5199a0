"""The per-entry-state engine behind Orwellian opacity and decomposed INI.

Both deciders search one image of the downgrade-free system from every
downgrade entry state.  The reference route below rebuilds the local
system per entry state instead (rebase, restrict, trim) and runs the
static check or NI on it.  Half the systems carry an unreachable part,
which the reference trims away and the engine never reaches.  A search
that exhausts leaves the pairs it proved to the searches from later entry
states; with that sharing switched off, every outcome must stay the same.
"""

import random
from collections import Counter

from opaqcheck import (
    Lts,
    check_ini_decomposed,
    check_ini_direct,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
)
from opaqcheck import observation
from opaqcheck.automata import EpsilonNfa, MaskView, entry_words, restrict, state_order, trim, word_sort_key
from opaqcheck.generate import random_system
from reference import closed_subsets, image_automaton, rebase
from test_image_on_demand import with_unreachable_part


def rebuilt_per_entry(system, local_check):
    system = trim(system)
    entries = entry_words(system)
    breakdown = []
    candidates = []
    for q in sorted(entries, key=state_order(system).index):
        sub = local_check(trim(restrict(rebase(system, q))))
        breakdown.append((q, sub.holds, sub.witness))
        if not sub.holds:
            candidates.append(entries[q] + sub.witness)
    witness = min(candidates, key=lambda w: word_sort_key(system.alphabet, w), default=None)
    return witness is None, witness, breakdown


def outcome(verdict):
    return verdict.holds, verdict.witness, [(s.state, s.holds, s.witness) for s in verdict.breakdown]


def test_engine_matches_the_rebuilt_per_entry_route():
    rng = random.Random(2024)
    entry_counts = []
    verdicts = set()
    for round_no in range(200):
        system = random_system(rng, max_states=30)
        if round_no % 2:
            system = with_unreachable_part(system, rng, rng.randint(1, 5))
        orwellian = outcome(check_opacity_orwellian(system))
        assert orwellian == rebuilt_per_entry(system, check_opacity_static)
        ini = outcome(check_ini_decomposed(system))
        assert ini == rebuilt_per_entry(system, check_ni)
        entry_counts.append(len(orwellian[2]))
        verdicts |= {orwellian[0], ini[0]}
    # the comparison is not vacuous: many entry states, both verdicts
    assert max(entry_counts) >= 5 and verdicts == {True, False}


def count_constructions(monkeypatch, check, system):
    """The systems ``check(system)`` builds, through either constructor,
    and its automata with silent moves; and its validations, which the
    public constructor alone runs."""
    counts = Counter()
    derive = Lts.derived.__func__

    def derived(cls, *parts):
        counts["derived"] += 1
        return derive(cls, *parts)

    for cls, key in ((Lts, "validated"), (EpsilonNfa, "nfa")):
        hook = cls.__post_init__

        def counting(self, key=key, hook=hook):
            counts[key] += 1
            hook(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    monkeypatch.setattr(Lts, "derived", classmethod(derived))
    check(system)
    monkeypatch.undo()
    return (counts["derived"] + counts["validated"], counts["nfa"]), counts["validated"]


def test_constructions_do_not_grow_with_the_entry_states(monkeypatch):
    system = random_system(random.Random(23), max_states=30)
    assert len(entry_words(system)) >= 10
    # one downgrade-free restriction, derived from the valid system and so
    # not validated, and no automaton with silent moves: the searches read
    # a mask view built straight from the condensation pass
    assert count_constructions(monkeypatch, check_opacity_orwellian, system) == ((1, 0), 0)
    assert count_constructions(monkeypatch, check_ini_decomposed, system) == ((1, 0), 0)
    # no trim: direct INI reads the same mask view as (prefix state,
    # continuation subset) pairs, and builds no Orwellian image automaton
    assert count_constructions(monkeypatch, check_ini_direct, system) == ((1, 0), 0)
    assert count_views(monkeypatch, check_ini_direct, system) == 1


def count_views(monkeypatch, check, system):
    """The mask views ``check`` builds: each holds the closures of every
    component of its condensed image, built in one pass."""
    views = []
    init = MaskView.__init__

    def counting(self, *parts):
        views.append(self)
        init(self, *parts)

    monkeypatch.setattr(MaskView, "__init__", counting)
    check(system)
    monkeypatch.undo()
    return len(views)


def count_posts(monkeypatch, check, system):
    """Closed-successor computations per (mask view, state) over
    ``check``; also the states they were computed for that a subset walk
    of the image its per-entry searches read reaches (that of the
    downgrade-free system, whose components the views number alike)."""
    counts = Counter()
    post = MaskView._post

    def counting(self, q):
        counts[self, q] += 1
        return post(self, q)

    monkeypatch.setattr(MaskView, "_post", counting)
    check(system)
    monkeypatch.undo()
    image = image_automaton(restrict(system)).nfa
    reached = {q for subset in closed_subsets(image) for q in subset}
    return counts, {q for _, q in counts} & reached


def test_entry_starts_share_one_closure_memo(monkeypatch):
    system = random_system(random.Random(23), max_states=30)
    for check in (check_opacity_orwellian, check_ini_decomposed):
        assert count_views(monkeypatch, check, system) == 1
        counts, shared = count_posts(monkeypatch, check, system)
        # the searches from every entry state compute each state's closed
        # successors at most once
        assert len(shared) >= 10 and max(counts.values()) == 1


def without_sharing(monkeypatch):
    """Run every search of the deciders' images with no proven pairs."""
    search = observation.subset_pair_search

    def alone(view, goal, start, dead_end, proven):
        return search(view, goal, start, dead_end)

    monkeypatch.setattr(observation, "subset_pair_search", alone)


def count_rows(monkeypatch, check, system):
    """The outcome of ``check`` on ``system`` and its successor-row lookups,
    all of them on mask views."""
    rows = []
    row = MaskView.successor_row

    def counting(self, subset):
        rows.append(subset)
        return row(self, subset)

    monkeypatch.setattr(MaskView, "successor_row", counting)
    found = outcome(check(system))
    monkeypatch.setattr(MaskView, "successor_row", row)
    return found, len(rows)


def test_sharing_proven_pairs_changes_no_outcome(monkeypatch):
    rng = random.Random(41)
    systems = [random_system(rng, max_states=40, density=(0.35, 0.5, 0.65)[k % 3]) for k in range(150)]
    checks = (check_opacity_orwellian, check_ini_decomposed)
    shared = [count_rows(monkeypatch, check, system) for system in systems for check in checks]
    without_sharing(monkeypatch)
    alone = [count_rows(monkeypatch, check, system) for system in systems for check in checks]
    assert [found for found, _ in shared] == [found for found, _ in alone]
    # not vacuous: the proven pairs save lookups on many checks, whose
    # outcomes cover both verdicts and many entry states
    assert sum(rows < rows_alone for (_, rows), (_, rows_alone) in zip(shared, alone)) >= 30
    assert {found[0] for found, _ in shared} == {True, False}
    assert max(len(found[2]) for found, _ in shared) >= 10


def test_proven_pairs_cut_the_orwellian_row_lookups(monkeypatch):
    # 78 states and 37 entry states, 11 of which disclose
    system = random_system(random.Random(5), max_states=100, density=0.6)
    found, rows = count_rows(monkeypatch, check_opacity_orwellian, system)
    assert len(found[2]) == 37 and rows == 71
    without_sharing(monkeypatch)
    assert count_rows(monkeypatch, check_opacity_orwellian, system) == (found, 424)
