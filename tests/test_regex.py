import itertools
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opaqcheck import RegexError, alphabet, compile_regex, word
from reference import closed_subsets, determinize_by_subsets, is_complete, pattern_images

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
def test_states_are_named_by_the_closed_subsets_of_the_pattern_automaton(pattern, alpha):
    dfa = compile_regex(pattern, alpha)
    # the pattern automaton with one state per fragment state, not condensed:
    # state k is the k-th closed subset the reference construction discovers
    nfa, _ = pattern_images(pattern, alpha)
    subsets = closed_subsets(nfa)
    ref = determinize_by_subsets(nfa, "F", alpha)
    assert dfa.alphabet == alpha and dfa.initial == 0
    assert dfa.states == frozenset(range(len(subsets)))
    assert {(subsets[q], e): subsets[r] for (q, e), r in dfa.delta.items()} == ref.delta
    assert {name: {subsets[q] for q in members} for name, members in dfa.accepting_sets.items()} == ref.accepting_sets
    # each pattern leaves its language on some event ("()" on every one),
    # into a dead state that keeps every step
    dead = subsets.index(frozenset())
    assert dead not in dfa.accepting("F")
    assert all(dfa.delta[(dead, e)] == dead for e in alpha.events)


def test_unknown_event_reports_its_position():
    with pytest.raises(RegexError) as err:
        compile_regex("a zz", ALPHA)
    assert "zz" in str(err.value)
    assert err.value.position == 2


@pytest.mark.parametrize("pattern", ["", "a +", "(a", "a)", "* a", "()*a)("])
def test_syntax_errors_are_rejected(pattern):
    with pytest.raises(RegexError):
        compile_regex(pattern, ALPHA)


GROUP = "expected an event or a group"
OPEN = "unexpected end of pattern"
CLOSE = "unexpected ')'"


@pytest.mark.parametrize("pattern, position, message", [
    ("a +", 3, GROUP), ("* a", 0, GROUP), ("+", 0, GROUP), ("(a + )", 5, GROUP), ("a ++ b", 3, GROUP),
    ("a (", 3, GROUP),
    ("(a", 2, OPEN), ("((a)", 4, OPEN), ("( a", 3, OPEN),
    ("a)", 1, CLOSE), ("()*a)(", 4, CLOSE), ("a*)", 2, CLOSE),
    ("a zz", 2, "unknown event 'zz'"),
    ("  ", 0, "empty pattern (use '()' for the empty word)"),
])
def test_syntax_errors_name_their_column(pattern, position, message):
    with pytest.raises(RegexError) as err:
        compile_regex(pattern, ALPHA)
    assert (err.value.position, str(err.value)) == (position, f"column {position + 1}: {message}")


def test_whitespace_separates_tokens_and_may_sit_inside_an_empty_group():
    def parts(dfa):
        return dfa.states, dfa.steps, dfa.accepting_sets

    assert parts(compile_regex("a ( )", ALPHA)) == parts(compile_regex("a ()", ALPHA))
    assert parts(compile_regex("a\t(\n)\x0b*", ALPHA)) == parts(compile_regex("a ()*", ALPHA))
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    assert len(spaces) == 29
    word_ab, empty = parts(compile_regex("a b", ALPHA)), parts(compile_regex("()", ALPHA))
    for c in spaces:
        assert parts(compile_regex(f"a{c}b", ALPHA)) == word_ab, repr(c)
        assert parts(compile_regex(f"({c})", ALPHA)) == empty, repr(c)
    # the scan stops before trailing whitespace: a search from each of its
    # positions would make this take minutes, not milliseconds
    assert parts(compile_regex("a" + " " * 100_000, ALPHA)) == parts(compile_regex("a", ALPHA))


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


# ---------------------------------------------------------------------------
# against Python's own matcher

EVENTS = alphabet("a b", "h", "d")


def pattern_trees():
    """Pattern syntax trees over ``EVENTS``: an event, ``("()",)``,
    ``("cat", x, y)``, ``("+", x, y)`` or ``("*", x)``."""
    leaves = st.sampled_from([(e,) for e in EVENTS.events] + [("()",)])

    def extend(trees):
        return st.one_of(
            st.tuples(st.just("cat"), trees, trees),
            st.tuples(st.just("+"), trees, trees),
            st.tuples(st.just("*"), trees),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def as_pattern(tree, outer=0):
    """The tree in this package's syntax with the fewest parentheses, so
    the parser's precedence is exercised: ``*`` binds tighter than
    concatenation, which binds tighter than ``+``."""
    kind, parts = tree[0], tree[1:]
    if kind == "*":
        text, binding = as_pattern(parts[0], 3) + "*", 3
    elif kind == "cat":
        text, binding = f"{as_pattern(parts[0], 2)} {as_pattern(parts[1], 2)}", 2
    elif kind == "+":
        text, binding = f"{as_pattern(parts[0], 1)} + {as_pattern(parts[1], 1)}", 1
    else:
        text, binding = kind, 3
    return text if binding >= outer else f"({text})"


def as_re(tree):
    """The tree in Python ``re`` syntax, every part grouped (each event is
    one character, so a word is its events joined)."""
    kind, parts = tree[0], [as_re(p) for p in tree[1:]]
    if kind == "*":
        return f"(?:{parts[0]})*"
    if kind == "cat":
        return f"(?:{parts[0]})(?:{parts[1]})"
    if kind == "+":
        return f"(?:{parts[0]}|{parts[1]})"
    return "" if kind == "()" else re.escape(kind)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(pattern_trees())
def test_compiled_patterns_accept_what_python_re_matches(tree):
    pattern = as_pattern(tree)
    dfa = compile_regex(pattern, EVENTS)
    matcher = re.compile(as_re(tree))
    for w in all_words(EVENTS.events, 4):
        assert dfa.accepts(w) == (matcher.fullmatch("".join(w)) is not None), (pattern, w)
