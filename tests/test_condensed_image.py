"""The deciders search a natural image condensed by the hidden steps.

Each strongly connected component of a system's hidden steps is one state
of the image that static opacity, Orwellian opacity, NI and decomposed INI
search.  Every silent-closed subset is a union of whole components, so
each verdict, witness and breakdown must be the one read off the natural
image with one state per system state (``reference.per_state_image``).
The systems compared have hidden cycles, so their images really shrink.
The Orwellian image and both translations of opacity read the same
condensed image (``test_image_on_demand.py``, ``test_reductions.py``).
"""

import os
import random
import subprocess
import sys
from pathlib import Path

from opaqcheck import (
    Lts,
    alphabet,
    check_ini_decomposed,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    word,
)
from opaqcheck import observation
from opaqcheck.automata import restrict, universal_states
from opaqcheck.generate import random_system
from opaqcheck.observation import condensed_image
from reference import natural_image_nfa_triples, per_state_image
from test_image_on_demand import with_unreachable_part

SRC = Path(__file__).resolve().parent.parent / "src"

COMPONENTS = """
import random
from opaqcheck.automata import restrict
from opaqcheck.generate import random_system
from opaqcheck.observation import condensed_image
rng = random.Random(41)
for _ in range(60):
    system = random_system(rng, max_states=20, density=0.5)
    for a in (system, restrict(system)):
        print(sorted(condensed_image(a).component.items()))
"""

CHECKS = (check_opacity_static, check_opacity_orwellian, check_ni, check_ini_decomposed)


def outcome(verdict):
    return verdict.holds, verdict.witness, [(s.state, s.holds, s.witness) for s in verdict.breakdown]


def outcomes(monkeypatch, system):
    """Each check's outcome on the condensed image, then on the per-state
    one, whose states are no component numbers and so are read as
    frozensets; also how many per-state images the searches read."""
    condensed = [outcome(check(system)) for check in CHECKS]
    built = []
    monkeypatch.setattr(observation, "_searched_image", lambda a: built.append(a) or per_state_image(a))
    per_state = [outcome(check(system)) for check in CHECKS]
    monkeypatch.undo()
    return condensed, per_state, len(built)


def shrinks(system):
    """Whether the hidden steps of ``system``, or of its downgrade-free
    part, close a cycle: its condensed image has fewer states."""
    return any(len(condensed_image(a).nfa.moves) < len(a.states)
               for a in (system, restrict(system)))


def test_condensed_image_reads_like_the_per_state_one(monkeypatch):
    rng = random.Random(31)
    systems = []
    while len(systems) < 150:
        system = random_system(rng, max_states=25, density=rng.choice((0.35, 0.5, 0.65)))
        if shrinks(system):
            systems.append(with_unreachable_part(system, rng, 3) if len(systems) % 2 else system)
    merged = read = 0
    verdicts = set()
    for system in systems:
        condensed, per_state, images = outcomes(monkeypatch, system)
        assert condensed == per_state
        read += images
        merged += len(system.states) - len(condensed_image(system).nfa.moves)
        verdicts |= {holds for holds, _, _ in condensed}
    # not vacuous: components of several states, both verdicts, and
    # searches of the per-state image on most systems
    assert merged >= 3 * len(systems) and verdicts == {True, False} and read >= 2 * len(systems)


def test_condensed_image_is_the_natural_image_up_to_components():
    rng = random.Random(37)
    for _ in range(200):
        system = random_system(rng, max_states=20, density=0.5)
        image, component = condensed_image(system)
        natural = natural_image_nfa_triples(system, system.alphabet.observable)
        # each component is closed under silent moves both ways, and the
        # image moves between components exactly as the members do
        for q in system.states:
            closure = natural.closed_state(q)
            assert {component[r] for r in closure} == image.closed_state(component[q])
            assert all(component[r] in image.closed_state(component[q]) for r in closure)
        for c, (silent, labeled) in image.moves.items():
            members = [q for q in system.states if component[q] == c]
            assert set(labeled) == {(i, component[r]) for q in members for i, r in natural.moves[q][1]}
            assert set(silent) == {component[r] for q in members for r in natural.moves[q][0]} - {c}
        assert image.initial == component[system.initial]
        assert image.accepting_sets == {name: {component[q] for q in members}
                                        for name, members in system.accepting_sets.items()}


def test_hidden_cycle_of_secret_non_secret_and_covered_states(monkeypatch):
    # 1 -h-> 2 -h-> 3 -h-> 1 is one component: 1 is secret, 2 non-secret
    # and covered (its loops stay non-secret and accepted), 3 not accepted.
    # a enters it from 0, and so does the downgrade from 4, which only the
    # static observer does not see; b from 0 reaches the secret state 4
    system = Lts(alphabet("a b", "h", "d"), frozenset("012345"), {
        ("0", "a"): "1", ("0", "b"): "4",
        ("1", "h"): "2", ("2", "h"): "3", ("3", "h"): "1",
        ("2", "a"): "2", ("2", "b"): "2", ("3", "b"): "5", ("4", "d"): "1",
    }, "0", {"F": frozenset("01245"), "Fphi": frozenset("145")})
    assert universal_states(system, frozenset("02")) == universal_states(system, frozenset("01245")) == {"2"}
    for a in (system, restrict(system)):
        image, component = condensed_image(a)
        assert len({component[q] for q in "123"}) == 1 and len(image.moves) == 4
    condensed, per_state, images = outcomes(monkeypatch, system)
    assert condensed == per_state and images == 4
    assert condensed == [
        (True, None, []),
        (False, word("b"), [("0", False, word("b")), ("1", True, None)]),
        (False, word("a a"), []),
        (False, word("a a"), [("0", False, word("a a")), ("1", False, word("a"))]),
    ]


def test_component_numbers_are_the_same_under_every_hash_seed():
    # the numbers name the states of every image a translation marks, so
    # the subsets it builds must not depend on the order a set of string
    # states iterates in
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", COMPONENTS], env=env, capture_output=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
