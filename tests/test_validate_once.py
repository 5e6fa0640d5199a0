"""A model is validated once, where it enters.

The public constructor ``Lts(...)`` runs the one validator,
``Lts.__post_init__``; ``generate.random_system`` goes through it, and
``with_set`` checks only the set it adds, with the validator's message,
on a system that is valid already, whose maps it shares without building
the keyed ``delta`` view.  ``parse_model`` checks what it reads, with
line numbers, and every system the package derives from a valid one is
built with ``Lts.derived``, which checks nothing again.  So skipping the validator
must lose nothing: rebuilt through the public constructor, the output of
every derived construction is accepted.  The systems carry unreachable
parts, some of whose states are accepting, which trimming must drop from
the sets too.  Inside the deciders and the translations, no validation
runs at all.
"""

import random

import pytest

from opaqcheck import (
    InvalidModel,
    Lts,
    check_ini,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    compile_regex,
    incorporate_secret,
    ini_to_opacity,
    opacity_to_ini,
    opacity_to_ni,
    parse_model,
    with_set,
)
from opaqcheck.automata import restrict, trim
from opaqcheck.generate import random_system
from test_cli import mutate
from test_image_on_demand import with_unreachable_part
from test_reductions import random_pattern

FIXTURES = ("downgrade_loop", "hdl_chain", "projection_leak")


def rebuilt(a):
    """``a`` rebuilt through the public constructor, which validates it."""
    return Lts(a.alphabet, a.states, a.delta, a.initial, a.accepting_sets)


def untrimmed_systems(rng, count):
    """Seeded systems with an unreachable part, some of whose states join
    ``F`` and, within ``F``, ``Fphi``."""
    for _ in range(count):
        system = random_system(rng, max_states=12)
        grown = with_unreachable_part(system, rng, rng.randint(1, 4))
        added = sorted(grown.states - system.states)
        f_states = system.accepting_sets["F"] | {q for q in added if rng.random() < 0.5}
        secret = system.accepting_sets["Fphi"] | {q for q in sorted(f_states - system.states) if rng.random() < 0.5}
        yield with_set(with_set(grown, "F", f_states), "Fphi", secret)


def derived_constructions(rng, system):
    """Every derived construction of the package on ``system``, by name."""
    alpha = system.alphabet
    pattern = compile_regex(random_pattern(rng, alpha.events), alpha)
    yield "compile_regex", pattern
    yield "trim", trim(system)
    yield "restrict", restrict(system)
    yield "incorporate_secret of a pattern", incorporate_secret(system, "F", pattern, "F")
    other = with_unreachable_part(random_system(rng, max_states=6), rng, rng.randint(0, 2))
    yield "incorporate_secret of a random secret", incorporate_secret(system, "F", other, "Fphi")
    yield "opacity_to_ni", opacity_to_ni(system).lts
    yield "opacity_to_ini", opacity_to_ini(system).lts
    yield "ini_to_opacity", ini_to_opacity(system).lts


def test_parsed_models_pass_the_public_constructor(fixtures_dir):
    rng = random.Random(41)
    texts = [(fixtures_dir / f"{name}.lts").read_text() for name in FIXTURES]
    parsed = rejected = 0
    for text in texts + [mutate(rng, rng.choice(texts)) for _ in range(1500)]:
        try:
            system = parse_model(text)
        except InvalidModel:
            rejected += 1
            continue
        rebuilt(system)
        parsed += 1
    # the mutations reach both sides of the parser
    assert parsed >= 500 and rejected >= 300


def test_derived_systems_pass_the_public_constructor():
    rng = random.Random(43)
    dropped = 0
    for system in untrimmed_systems(rng, 60):
        for name, derived in derived_constructions(rng, system):
            try:
                rebuilt(derived)
            except InvalidModel as error:
                pytest.fail(f"{name} built an invalid system: {error}")
        dropped += trim(system).accepting_sets["F"] != system.accepting_sets["F"]
    # not vacuous: trimming most systems drops accepting states
    assert dropped >= 30


def test_deciders_and_translations_validate_nothing(monkeypatch, fixtures_dir):
    rng = random.Random(47)
    systems = list(untrimmed_systems(rng, 30))
    systems += [parse_model((fixtures_dir / f"{name}.lts").read_text()) for name in FIXTURES]
    secrets = [compile_regex(random_pattern(rng, s.alphabet.events), s.alphabet) for s in systems]
    validated = []
    validate = Lts.__post_init__

    def counting(self):
        validated.append(self)
        validate(self)

    monkeypatch.setattr(Lts, "__post_init__", counting)
    for system, secret in zip(systems, secrets):
        check_opacity_orwellian(system, secret)
        check_ni(system)
        for method in ("direct", "decomposed", "both"):
            check_ini(system, method)
        ini_to_opacity(system)
        if "Fphi" in system.accepting_sets:
            check_opacity_static(system)
            check_opacity_orwellian(system)
            opacity_to_ni(system)
            opacity_to_ini(system)
    assert validated == []


def test_with_set_checks_only_the_set_it_adds(monkeypatch, downgrade_loop):
    validated = []
    monkeypatch.setattr(Lts, "__post_init__", lambda self: validated.append(self))
    members = sorted(downgrade_loop.states)[:2]
    out = with_set(downgrade_loop, "Fphi", members)
    assert out.accepting_sets == {**downgrade_loop.accepting_sets, "Fphi": frozenset(members)}
    assert out.steps is downgrade_loop.steps and "delta" not in vars(out)
    with pytest.raises(InvalidModel) as added:
        with_set(downgrade_loop, "Fphi", [*members, "undeclared"])
    assert validated == []
    monkeypatch.undo()
    # the message is the public constructor's
    with pytest.raises(InvalidModel) as constructed:
        Lts(out.alphabet, out.states, out.delta, out.initial, {"Fphi": frozenset([*members, "undeclared"])})
    assert str(added.value) == str(constructed.value) == "accepting set Fphi contains undeclared states"
