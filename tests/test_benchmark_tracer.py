"""The benchmark's per-layer tracer still hooks what it names.

``perfbench/tracing.py`` wraps the package's public functions at every
binding, plus three methods by name, from outside ``src/``.  A rename or a
move in the package would silently empty its spans, so one traced check
here reads them back."""

import importlib
import sys
from pathlib import Path

import opaqcheck.automata as automata
from opaqcheck import observation, opacity, regexlang

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
SECRET_RE = "h l + h d h l l*"


def import_tracing():
    """The benchmark's tracing module, imported without writing bytecode under perfbench/."""
    dont_write = sys.dont_write_bytecode
    sys.path.append(PERFBENCH)
    sys.dont_write_bytecode = True
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = dont_write
    return tracing


def package_bindings():
    modules = {name: vars(m).copy() for name, m in sys.modules.items() if name.startswith("opaqcheck")}
    methods = {(cls, attr): cls.__dict__[attr] for cls, attr in (
        (automata.EpsilonNfa, "epsilon_closure"), (automata.Lts, "__post_init__"), (automata.EpsilonNfa, "__post_init__"),
    )}
    return modules, methods


def test_traced_orwellian_check_records_the_hooked_layers(monkeypatch, downgrade_loop):
    tracing = import_tracing()
    # images as automata, as past the mask width, so that the closure and
    # construction hooks of EpsilonNfa fire
    monkeypatch.setattr(observation, "MASK_COMPONENTS", 0)
    for layer in tracing.LAYERS:
        importlib.import_module(f"opaqcheck.{layer}")
    modules, methods = package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        # the public constructor, the only construction that validates a
        # whole system; with_set checks only the set it adds
        system = automata.Lts(downgrade_loop.alphabet, downgrade_loop.states, downgrade_loop.delta,
                              downgrade_loop.initial, downgrade_loop.accepting_sets)
        system = automata.with_set(system, "Fphi", downgrade_loop.accepting_sets["Fphi"])
        secret = regexlang.compile_regex(SECRET_RE, system.alphabet)
        verdict = opacity.check_opacity_orwellian(system, secret)
        layer = tracer.aggregate(mark)
    finally:
        tracer.uninstall()
    assert not verdict.holds
    for name in ("automata.epsilon_closure", "automata.lts_validate", "automata.nfa_validate",
                 "automata.incorporate_secret"):
        assert layer.get(f"{name}.calls", 0) > 0, name
    assert layer["automata.lts_validate.calls"] == 1
    after_modules, after_methods = package_bindings()
    for name, before in modules.items():
        now = after_modules[name]
        assert all(now[attr] is value for attr, value in before.items()), name
    assert all(after_methods[key] is value for key, value in methods.items())
