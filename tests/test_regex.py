import itertools

import pytest

from opaqcheck import RegexError, alphabet, compile_regex, word
from opaqcheck.automata import EpsilonNfa
from reference import closed_subsets, determinize_by_subsets, is_complete, lts_parts

ALPHA = alphabet("a b c", "h1 h2")
SMALL = alphabet("l", "h", "d")


def all_words(events, maxlen):
    for n in range(maxlen + 1):
        yield from itertools.product(events, repeat=n)


def test_union_of_stars_accepts_and_rejects():
    dfa = compile_regex("a* (b* + c*)", ALPHA)
    assert dfa.accepts(word("a b b"))
    assert not dfa.accepts(word("b c"))


def test_secret_of_the_downgrade_fixture():
    dfa = compile_regex("h l + h d h l l*", SMALL)
    assert dfa.accepts(word("h d h l l"))
    assert dfa.accepts(word("h l"))
    assert not dfa.accepts(word("h d l"))


def test_empty_group_denotes_the_empty_word():
    dfa = compile_regex("()", SMALL)
    assert dfa.accepts(())
    for w in all_words(SMALL.events, 3):
        if w:
            assert not dfa.accepts(w)


def test_denotation_of_hand_patterns():
    concat = compile_regex("a b", ALPHA)
    accepted = {w for w in all_words(("a", "b"), 4) if concat.accepts(w)}
    assert accepted == {word("a b")}

    star = compile_regex("a*", ALPHA)
    for n in range(6):
        assert star.accepts(("a",) * n)
    assert not star.accepts(word("a b"))

    grouped = compile_regex("(a + b) c", ALPHA)
    accepted = {w for w in all_words(("a", "b", "c"), 3) if grouped.accepts(w)}
    assert accepted == {word("a c"), word("b c")}


def test_result_is_complete_and_deterministic():
    dfa = compile_regex("a* (b* + c*)", ALPHA)
    assert is_complete(dfa)


@pytest.mark.parametrize("pattern, alpha", [
    ("h l + h d h l l*", SMALL),
    ("()", SMALL),
    ("a b", ALPHA),
    ("(a + b)* c", ALPHA),
    ("(() + a)* b b", ALPHA),
    ("h1* (a + h2 b)", ALPHA),
])
def test_states_are_named_by_the_closed_subsets_of_the_pattern_automaton(monkeypatch, pattern, alpha):
    automata = []
    # the pattern automaton, captured by its construction hook
    monkeypatch.setattr(EpsilonNfa, "__post_init__", lambda nfa: automata.append(nfa))
    dfa = compile_regex(pattern, alpha)
    (nfa,) = automata
    assert lts_parts(dfa) == lts_parts(determinize_by_subsets(nfa, "F", alpha))
    assert dfa.states == set(closed_subsets(nfa))
    # each pattern leaves its language on some event ("()" on every one)
    assert frozenset() in dfa.states


def test_unknown_event_reports_its_position():
    with pytest.raises(RegexError) as err:
        compile_regex("a zz", ALPHA)
    assert "zz" in str(err.value)
    assert err.value.position == 2


@pytest.mark.parametrize("pattern", ["", "a +", "(a", "a)", "* a", "()*a)("])
def test_syntax_errors_are_rejected(pattern):
    with pytest.raises(RegexError):
        compile_regex(pattern, ALPHA)


def test_repeated_star_is_harmless():
    dfa = compile_regex("a**", ALPHA)
    for n in range(5):
        assert dfa.accepts(("a",) * n)


def test_deep_nesting_is_parsed_without_the_recursion_limit():
    dfa = compile_regex("(" * 5000 + "a b" + ")" * 5000, ALPHA)
    accepted = {w for w in all_words(("a", "b"), 3) if dfa.accepts(w)}
    assert accepted == {word("a b")}
    with pytest.raises(RegexError) as err:
        compile_regex("(" * 5000 + "a", ALPHA)
    assert err.value.position == 5001
