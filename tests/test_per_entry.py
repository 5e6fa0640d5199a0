"""The per-entry-state engine behind Orwellian opacity and decomposed INI.

Both deciders search one image of the downgrade-free system from every
downgrade entry state.  The reference route below rebuilds the local
system per entry state instead (rebase, restrict, trim) and runs the
static check or NI on it.
"""

import random
from collections import Counter

from opaqcheck import (
    Lts,
    check_ini_decomposed,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
)
from opaqcheck import interference, opacity
from opaqcheck.automata import EpsilonNfa, determinize, entry_words, restrict, state_order, trim, word_sort_key
from opaqcheck.generate import random_system
from reference import rebase


def rebuilt_per_entry(system, local_check):
    system = trim(system)
    entries = entry_words(system)
    breakdown = []
    candidates = []
    for q in sorted(entries, key=state_order(system).index):
        sub = local_check(trim(restrict(rebase(system, q), system.alphabet.downgrading)))
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
    for _ in range(200):
        system = random_system(rng, max_states=30)
        orwellian = outcome(check_opacity_orwellian(system))
        assert orwellian == rebuilt_per_entry(system, check_opacity_static)
        ini = outcome(check_ini_decomposed(system))
        assert ini == rebuilt_per_entry(system, check_ni)
        entry_counts.append(len(orwellian[2]))
        verdicts |= {orwellian[0], ini[0]}
    # the comparison is not vacuous: many entry states, both verdicts
    assert max(entry_counts) >= 5 and verdicts == {True, False}


def count_constructions(monkeypatch, check, system):
    counts = {Lts: 0, EpsilonNfa: 0}
    for cls in counts:
        validate = cls.__post_init__

        def counting(self, cls=cls, validate=validate):
            counts[cls] += 1
            validate(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    check(system)
    monkeypatch.undo()
    return counts[Lts], counts[EpsilonNfa]


def test_constructions_do_not_grow_with_the_entry_states(monkeypatch):
    system = random_system(random.Random(23), max_states=30)
    assert len(entry_words(system)) >= 10
    # one trim and one downgrade-free restriction, one natural-image automaton
    assert count_constructions(monkeypatch, check_opacity_orwellian, system) == (2, 1)
    assert count_constructions(monkeypatch, check_ini_decomposed, system) == (2, 1)


def count_closures(monkeypatch, check, system):
    counts = Counter()
    close = EpsilonNfa.epsilon_closure

    def counting(self, seed):
        seed = frozenset(seed)
        counts[seed] += 1
        return close(self, seed)

    monkeypatch.setattr(EpsilonNfa, "epsilon_closure", counting)
    check(system)
    monkeypatch.undo()
    return counts


def count_posts(monkeypatch, check, module, system):
    """Closed-successor computations per (automaton, state), over ``check``
    and then a determinization of the image its per-entry searches read;
    also the states both of them reached."""
    images = []
    build = module.natural_image_nfa

    def capture(*args):
        images.append(build(*args))
        return images[-1]

    counts = Counter()
    post = EpsilonNfa._post

    def counting(self, q):
        counts[self, q] += 1
        return post(self, q)

    monkeypatch.setattr(module, "natural_image_nfa", capture)
    monkeypatch.setattr(EpsilonNfa, "_post", counting)
    check(system)
    searched = set(counts)
    (image,) = images
    reached = {(image, q) for subset in determinize(image, "F").states for q in subset}
    monkeypatch.undo()
    return counts, searched & reached


def test_entry_starts_share_one_closure_memo(monkeypatch):
    system = random_system(random.Random(23), max_states=30)
    for check, module in ((check_opacity_orwellian, opacity), (check_ini_decomposed, interference)):
        counts = count_closures(monkeypatch, check, system)
        assert counts and max(counts.values()) == 1
        counts, shared = count_posts(monkeypatch, check, module, system)
        # the searches from every entry state, then the determinization,
        # compute each state's closed successors at most once
        assert len(shared) >= 10 and max(counts.values()) == 1
