"""Property-based cross-checks over :func:`strategies.systems`.

Each property runs a fixed number of examples with ``derandomize=True``, so
every run draws the same systems, and no example database is read or
written.  Hypothesis shrinks a failure to a small system and prints it as a
model file (``note``).  A property is run from a plain test, which then
checks that the systems it drew were not vacuous.
"""

from hypothesis import given, note, settings

from opaqcheck import (
    check_ini,
    check_ini_decomposed,
    check_ini_direct,
    check_ni,
    check_opacity_orwellian,
    check_opacity_static,
    ini_to_opacity,
    opacity_to_ini,
    opacity_to_ni,
    render_model,
)
from opaqcheck.automata import entry_words
from strategies import systems

EXAMPLES = settings(derandomize=True, max_examples=300, database=None, deadline=None)


def test_direct_and_decomposed_ini_agree():
    drawn = []

    @EXAMPLES
    @given(systems())
    def agree(system):
        note(render_model(system))
        direct = check_ini_direct(system)
        decomposed = check_ini_decomposed(system)
        assert (direct.holds, direct.witness) == (decomposed.holds, decomposed.witness)
        drawn.append((len(entry_words(system)), direct.holds))

    agree()
    # many entry states, and both verdicts
    entries = sorted(n for n, _ in drawn)
    assert entries[len(entries) // 2] >= 3 and entries[-1] >= 6
    assert {holds for _, holds in drawn} == {True, False}


def test_static_opacity_is_ni_of_its_translation():
    drawn = []

    @EXAMPLES
    @given(systems())
    def translated(system):
        note(render_model(system))
        holds = check_opacity_static(system).holds
        assert check_ni(opacity_to_ni(system).lts).holds == holds
        drawn.append(holds)

    translated()
    assert set(drawn) == {True, False}


def test_orwellian_opacity_is_ini_of_its_translation():
    drawn = []

    @EXAMPLES
    @given(systems())
    def translated(system):
        note(render_model(system))
        holds = check_opacity_orwellian(system).holds
        assert check_ini(opacity_to_ini(system).lts).holds == holds
        drawn.append(holds)

    translated()
    assert set(drawn) == {True, False}


def test_decomposed_ini_is_orwellian_opacity_of_its_translation():
    drawn = []

    @EXAMPLES
    @given(systems())
    def translated(system):
        note(render_model(system))
        holds = check_ini_decomposed(system).holds
        assert check_opacity_orwellian(ini_to_opacity(system).lts).holds == holds
        drawn.append(holds)

    translated()
    assert set(drawn) == {True, False}
