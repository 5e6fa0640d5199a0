import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from opaqcheck import (
    Factorization,
    ObservationKind,
    factorize,
    project_natural,
    project_orwellian,
    with_set,
    word,
)
from reference import nfa_accepts, orwellian_image_nfa_eager, project_language
from test_reductions import per_copy_view

#: Hypothesis's default number of words, the same ones on every run
EXAMPLES = settings(derandomize=True, max_examples=100, database=None, deadline=None)


def recursive_orwellian(w, observable, downgrading):
    # rightmost-event recursion, the reference the closed form must match
    if not w:
        return ()
    head, last = w[:-1], w[-1]
    if last in downgrading:
        return w
    if last in observable:
        return recursive_orwellian(head, observable, downgrading) + (last,)
    return recursive_orwellian(head, observable, downgrading)


@st.composite
def role_split_words(draw, maxlen=8):
    observable = draw(st.frozensets(st.sampled_from("abc"), max_size=3))
    unobservable = draw(st.frozensets(st.sampled_from("uv"), max_size=2))
    downgrading = draw(st.frozensets(st.sampled_from("de"), max_size=2))
    events = tuple(sorted(observable | unobservable | downgrading))
    w = tuple(draw(st.lists(st.sampled_from(events), max_size=maxlen))) if events else ()
    return observable, unobservable, downgrading, w


# ---------------------------------------------------------------------------
# word level


def test_natural_projection_examples():
    assert project_natural(word("h2 a b"), {"a", "b", "c"}) == word("a b")
    assert project_natural((), {"a"}) == ()
    assert project_natural(word("a h1 b h2 c"), {"a", "b", "c"}) == word("a b c")


def test_orwellian_projection_examples():
    assert project_orwellian(word("h d h l"), {"l"}, {"d"}) == word("h d l")
    assert project_orwellian(word("h l"), {"l"}, {"d"}) == word("l")
    assert project_orwellian((), {"l"}, {"d"}) == ()
    assert project_orwellian(word("h d h"), {"l"}, {"d"}) == word("h d")


def test_factorize_examples():
    assert factorize(word("h d h l"), {"d"}) == Factorization(word("h d"), word("h l"))
    assert factorize(word("h l"), {"d"}) == Factorization((), word("h l"))
    assert factorize(word("a d"), {"d"}) == Factorization(word("a d"), ())


@EXAMPLES
@given(role_split_words())
def test_orwellian_matches_the_recursion(data):
    observable, _, downgrading, w = data
    assert project_orwellian(w, observable, downgrading) == recursive_orwellian(w, observable, downgrading)


@EXAMPLES
@given(role_split_words())
def test_orwellian_is_idempotent(data):
    observable, _, downgrading, w = data
    once = project_orwellian(w, observable, downgrading)
    assert project_orwellian(once, observable, downgrading) == once


@EXAMPLES
@given(role_split_words())
def test_orwellian_of_a_factorized_word_keeps_the_prefix(data):
    observable, _, downgrading, w = data
    f = factorize(w, downgrading)
    assert project_orwellian(w, observable, downgrading) == f.prefix + project_natural(f.continuation, observable)


@EXAMPLES
@given(role_split_words())
def test_no_downgrades_degenerates_to_natural(data):
    observable, _, _, w = data
    assert project_orwellian(w, observable, frozenset()) == project_natural(w, observable)


@EXAMPLES
@given(role_split_words())
def test_factorization_is_the_unique_valid_split(data):
    _, _, downgrading, w = data
    f = factorize(w, downgrading)
    assert f.prefix + f.continuation == w
    assert not f.prefix or f.prefix[-1] in downgrading
    assert all(e not in downgrading for e in f.continuation)
    valid_cuts = [
        i
        for i in range(len(w) + 1)
        if (i == 0 or w[i - 1] in downgrading) and all(e not in downgrading for e in w[i:])
    ]
    assert valid_cuts == [len(f.prefix)]


def test_observation_kind_dispatch():
    w = word("h d h l")
    assert ObservationKind.natural({"l"}).observe(w) == word("l")
    assert ObservationKind.orwellian({"l"}, {"d"}).observe(w) == word("h d l")


# ---------------------------------------------------------------------------
# language level


def all_words(events, maxlen):
    for n in range(maxlen + 1):
        yield from itertools.product(events, repeat=n)


def test_image_of_fixture_language_is_all_public_repetitions(downgrade_loop):
    image = project_language(downgrade_loop, "F", ("l",))
    for n in range(8):
        assert image.accepts(("l",) * n)


def test_image_of_fixture_secret_needs_at_least_one_public_event(downgrade_loop):
    image = project_language(downgrade_loop, "Fphi", ("l",))
    assert not image.accepts((), "Fphi")
    for n in range(1, 8):
        assert image.accepts(("l",) * n, "Fphi")


def test_image_of_empty_language_is_empty(downgrade_loop):

    image = project_language(with_set(downgrade_loop, "Fphi", ()), "Fphi", ("l",))
    for w in all_words(("l",), 5):
        assert not image.accepts(w, "Fphi")


def test_projecting_onto_the_full_alphabet_is_identity(downgrade_loop):
    image = project_language(downgrade_loop, "F", downgrade_loop.alphabet.events)
    for w in all_words(downgrade_loop.alphabet.events, 5):
        assert image.accepts(w) == downgrade_loop.accepts(w)


def test_every_accepted_word_projects_into_the_image(downgrade_loop):
    observable = ("l",)
    image = project_language(downgrade_loop, "F", observable)
    for w in all_words(downgrade_loop.alphabet.events, 6):
        if downgrade_loop.accepts(w):
            assert image.accepts(project_natural(w, observable))


def test_every_image_word_has_a_bounded_preimage(downgrade_loop):
    observable = ("l",)
    image = project_language(downgrade_loop, "F", observable)
    source_words = [w for w in all_words(downgrade_loop.alphabet.events, 10) if downgrade_loop.accepts(w)]
    for o in all_words(observable, 4):
        if image.accepts(o):
            assert any(project_natural(w, observable) == o for w in source_words)


def test_orwellian_image_nfa_matches_word_level_projection(downgrade_loop):
    # the eager reference automaton, and the per-copy view the translation
    # to INI walks, of a system whose accepting states are all non-secret
    nfa = orwellian_image_nfa_eager(downgrade_loop)
    view = per_copy_view(with_set(downgrade_loop, "Fphi", ()))
    kind = ObservationKind.orwellian(("l",), ("d",))
    images = {kind.observe(w) for w in all_words(downgrade_loop.alphabet.events, 7) if downgrade_loop.accepts(w)}
    for o in all_words(downgrade_loop.alphabet.events, 5):
        assert nfa_accepts(nfa, o) == (o in images)
        subset = view.closed_state(view.initial)
        for e in o:
            subset = view.successor_row(subset)[view.alphabet.index(e)]
        assert bool(view.accepts(subset)) == (o in images)
