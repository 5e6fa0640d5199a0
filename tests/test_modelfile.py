import os
import random
import re
import string
import subprocess
import sys
from pathlib import Path

import pytest

from opaqcheck import (
    InvalidModel,
    Lts,
    ParseError,
    PartitionedAlphabet,
    alphabet,
    compile_regex,
    incorporate_secret,
    opacity_to_ini,
    opacity_to_ni,
    parse_model,
    render_model,
)
from opaqcheck.automata import entry_words, render_state, state_order, trim
from opaqcheck.generate import random_system
from reference import find_isomorphism, parse_model_by_lines, rebase

SRC = str(Path(__file__).resolve().parent.parent / "src")

SAMPLE_MODEL = """
alphabet obs l
alphabet unobs h
alphabet down d
states 1 2 3 4 5 6 7
init 1
accept F: 1 2 3 4 5 6 7
accept Fphi: 3 7
trans 1 h 2
trans 2 l 3
trans 2 d 4
trans 4 l 6
trans 4 h 5
trans 5 l 7
trans 7 l 7
"""


def test_fixture_text_parses_with_expected_entries():
    model = parse_model(SAMPLE_MODEL)
    assert len(model.states) == 7
    assert frozenset(entry_words(model)) == frozenset({"1", "4"})


def test_comments_and_blank_lines_are_ignored(fixtures_dir):
    model = parse_model((fixtures_dir / "downgrade_loop.lts").read_text())
    assert len(model.states) == 7


def test_duplicate_transition_source_is_rejected():
    text = SAMPLE_MODEL + "trans 1 h 3\n"
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert "determinism" in str(err.value)


def test_empty_file_reports_missing_init():
    with pytest.raises(ParseError) as err:
        parse_model("")
    assert "missing init" in str(err.value)


@pytest.mark.parametrize(
    "line,needle",
    [
        ("states 1 1", "twice"),
        ("alphabet obs l\nalphabet unobs l\ninit 1", "twice"),
        ("alphabet sideways x", "obs|unobs|down"),
        ("accept G: 1", "accepting set"),
        ("states 1\ninit 1\naccept F: 2", "undeclared"),
        ("states 1\ninit 1\naccept F: 1\ntrans 1 zz 1", "undeclared"),
        ("states 1\ninit 2\naccept F: 1", "not declared"),
        ("flip 1 2", "unknown directive"),
        ("states 1\ninit 1\ninit 1\naccept F: 1", "twice"),
    ],
)
def test_malformed_lines_are_rejected_with_cause(line, needle):
    with pytest.raises(ParseError) as err:
        parse_model(line)
    assert needle in str(err.value)


def test_error_carries_the_line_number():
    with pytest.raises(ParseError) as err:
        parse_model("states 1\ninit 1\naccept F: 1\ntrans 1 zz 1")
    assert err.value.line_no == 4


#: Characters at which ``str.splitlines`` ends a line but a model file does not.
NOT_LINE_ENDS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def parts(model):
    return model.alphabet, model.states, model.delta, model.initial, model.accepting_sets


def test_lines_end_only_at_a_line_end():
    plain = parts(parse_model("# ab\n" + SAMPLE_MODEL))
    last = f"# page\n{SAMPLE_MODEL}trans 1 zz 1\n".count("\n")
    for sep in NOT_LINE_ENDS:
        assert len(f"a{sep}b".splitlines()) == 2
        # inside a comment the character is part of the comment
        assert parts(parse_model(f"# a{sep}b\n" + SAMPLE_MODEL)) == plain
        # and an error after it names the line counted by line ends
        for end in ("\n", "\r\n", "\r"):
            text = f"# page{sep}\n{SAMPLE_MODEL}trans 1 zz 1\n".replace("\n", end)
            with pytest.raises(ParseError) as err:
                parse_model(text)
            assert str(err.value) == f"line {last}: undeclared event 'zz'"
        for text, missing in ((f"# a{sep}b\nstates 1\n", "line 3: missing init"),
                              (f"# a{sep}b\nstates 1\ninit 1", "line 4: missing accept line")):
            with pytest.raises(ParseError) as err:
                parse_model(text)
            assert str(err.value) == missing


def test_duplicate_state_is_rejected_on_its_line():
    states = " ".join(f"s{i}" for i in range(2000))
    text = f"states {states}\ninit s0\nstates s1999 fresh\naccept F: s0\n"
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line_no == 3 and str(err.value) == "line 3: state 's1999' declared twice"
    with pytest.raises(ParseError) as err:
        parse_model("states a b\nstates c\nstates d b\ninit a\naccept F: a\n")
    assert err.value.line_no == 3 and "'b' declared twice" in str(err.value)


def test_round_trip_on_fixtures(fixtures_dir):
    for name in ("downgrade_loop.lts", "projection_leak.lts", "hdl_chain.lts"):
        model = parse_model((fixtures_dir / name).read_text())
        again = parse_model(render_model(model))
        assert find_isomorphism(again, trim(model)) is not None


def test_round_trip_on_random_models():
    rng = random.Random(51)
    for _ in range(100):
        model = random_system(rng)
        again = parse_model(render_model(model))
        assert find_isomorphism(again, trim(model)) is not None


def test_library_systems_over_any_accepted_tokens_round_trip():
    # tokens drawn from punctuation, keywords of the format, control and
    # non-ASCII characters, "#" and whitespace; those the alphabet accepts
    # are written and read back as the same events
    rng = random.Random(67)
    pieces = [*string.ascii_letters[:6], *string.digits[:3], *string.punctuation, "#", " ", "\t", "\f", "\x85",
              "\x00", "\u200b", "é", "λ", "obs", "trans", "accept", "F:", "init", "states", "alphabet"]
    kept = rejected = 0
    for _ in range(200):
        tokens = []
        while len(tokens) < 5:
            token = "".join(rng.choices(pieces, k=rng.randint(1, 3)))
            try:
                PartitionedAlphabet((token,))
            except InvalidModel:
                rejected += 1
                continue
            if token not in tokens:
                tokens.append(token)
                kept += 1
        model = random_system(rng, max_states=8, density=0.5, observable=tuple(tokens[:2]),
                              unobservable=tuple(tokens[2:4]), downgrading=tuple(tokens[4:]))
        again = parse_model(render_model(model))
        assert again.alphabet == model.alphabet
        assert find_isomorphism(again, model) is not None
        # a set of any other name is refused, not written as a line the
        # parser rejects
        name = rng.choice([*tokens, "G", "f", "Fphi ", "F:", ""])
        renamed = dict(model.accepting_sets)
        renamed[name] = renamed.pop(rng.choice(("F", "Fphi")))
        with pytest.raises(InvalidModel, match=f"accepting set must be one of F, Fphi, not {re.escape(repr(name))}"):
            render_model(Lts(model.alphabet, model.states, model.delta, model.initial, renamed))
    assert kept == 1000 and rejected >= 200
    system = Lts(alphabet("a"), frozenset({0}), {}, 0, {"F": frozenset({0}), "G": frozenset()})
    with pytest.raises(InvalidModel, match="not 'G'"):
        render_model(system)
    with pytest.raises(InvalidModel, match="without an accepting set"):
        render_model(Lts(alphabet("a"), frozenset({0}), {}, 0, {}))


def test_structured_state_names_survive_serialization(downgrade_loop):
    from opaqcheck import compile_regex, incorporate_secret

    folded = incorporate_secret(
        downgrade_loop, "F", compile_regex("h l + h d h l l*", downgrade_loop.alphabet), "F"
    )
    again = parse_model(render_model(folded))
    assert find_isomorphism(again, trim(folded)) is not None


def reference_render(a):
    """The model format written out naively, naming each state ``q<k>`` by
    its position in the canonical state order."""
    order = state_order(a)
    name = {q: f"q{k}" for k, q in enumerate(order)}
    lines = [
        f"alphabet {keyword} {' '.join(events)}"
        for keyword, events in (("obs", a.alphabet.observable), ("unobs", a.alphabet.unobservable),
                                ("down", a.alphabet.downgrading))
        if events
    ]
    lines.append("states " + " ".join(name[q] for q in order))
    lines.append("init " + name[a.initial])
    for set_name in sorted(a.accepting_sets):
        lines.append(f"accept {set_name}: " + " ".join(name[q] for q in order if q in a.accepting_sets[set_name]))
    for (q, e), r in sorted(a.delta.items(), key=lambda it: (order.index(it[0][0]), a.alphabet.index(it[0][1]))):
        lines.append(f"trans {name[q]} {e} {name[r]}")
    return "\n".join(lines) + "\n"


def test_rendering_matches_the_naive_renderer_on_translations():
    rng = random.Random(77)
    for _ in range(100):
        system = random_system(rng)
        for reduction in (opacity_to_ni, opacity_to_ini):
            out = reduction(system).lts
            assert render_model(out) == reference_render(out)
        # translations and compiled patterns name their states by number;
        # a secret folded in names them by pairs of such states
        folded = incorporate_secret(system, "F", compile_regex("(a + u)* d b*", system.alphabet), "F")
        assert render_model(folded) == reference_render(folded)


def test_rendering_a_deeply_nested_state_matches_the_naive_renderer():
    # each level holds the one below twice, so naming it from its parts would write 2**14 leaves
    chain = ["q"]
    for _ in range(14):
        chain.append((chain[-1], frozenset({chain[-1], "x"})))
    delta = {(q, "a"): r for q, r in zip(chain, chain[1:])}
    a = Lts(alphabet("a"), frozenset(chain), delta, chain[0], {"F": frozenset(chain[-1:])})
    assert render_model(a) == reference_render(a)


RENDER_LOOKALIKES = """
from opaqcheck import Lts, alphabet, render_model
p_q, pq = frozenset({"p", "q"}), frozenset({"p,q"})
a = Lts(alphabet("a"), frozenset({"s", p_q, pq}), {(p_q, "a"): pq}, "s", {"F": frozenset({"s"})})
print(render_model(a), end="")
"""


def test_unreachable_lookalike_states_render_alike_under_every_hash_seed():
    # both unreachable states render as {p,q}; set order depends on PYTHONHASHSEED
    outputs = set()
    for seed in ("1", "3", "5"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", RENDER_LOOKALIKES], env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        outputs.add(done.stdout)
    (text,) = outputs
    assert text.splitlines()[-1] == "trans q1 a q2"


UNREACHABLE = """
from opaqcheck import Lts, alphabet, render_model
p_q, pq, pair = frozenset({"p", "q"}), frozenset({"p,q"}), ("p", "q")
states = frozenset({"s", "t", p_q, pq, pair, "u", "v"})
delta = {("s", "a"): "t", (p_q, "a"): pq, (pq, "b"): pair, (pair, "a"): "u", ("v", "b"): p_q, ("u", "a"): "u"}
a = Lts(alphabet("a b"), states, delta, "s", {"F": frozenset({"t", p_q, "u"}), "Fphi": frozenset({p_q})})
"""


def test_unreachable_states_are_written_apart_and_read_back():
    # state_order sorts the states breadth-first search does not reach by
    # their structure, so the two that render alike are still told apart
    namespace: dict = {}
    exec(UNREACHABLE, namespace)
    a = namespace["a"]
    assert render_state(namespace["p_q"]) == render_state(namespace["pq"]) == "{p,q}"
    back = parse_model(render_model(a))
    order = state_order(a)
    assert order[:2] == ("s", "t") and len(back.states) == len(a.states)
    named = {q: f"q{k}" for k, q in enumerate(order)}
    # the written model is the system renamed by state_order; every state,
    # reached or not, is checked from itself
    for q in a.states:
        image = find_isomorphism(trim(rebase(a, q)), trim(rebase(back, named[q])))
        assert image is not None and all(named[p] == r for p, r in image.items())


def test_unreachable_states_are_written_alike_under_every_hash_seed():
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", UNREACHABLE + "print(render_model(a), end='')"], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        outputs.add(done.stdout)
    (text,) = outputs
    # {p,q} from two members, in F and Fphi, before {p,q} from one
    assert "accept Fphi: q5" in text.splitlines() and "trans q5 a q6" in text.splitlines()


def parsed(parse, text):
    """What ``parse`` makes of ``text``: the system's parts, its step maps
    in alphabet order, each with its steps in the order of their lines, or
    the error's text and line number."""
    try:
        a = parse(text)
    except ParseError as err:
        return str(err), err.line_no
    return a.alphabet, a.states, a.initial, list(a.accepting_sets.items()), [list(m.items()) for m in a.steps]


def dressed(rng, text):
    """``text`` with its lines ended by ``\\n``, ``\\r\\n`` or ``\\r`` (one
    kind for the whole text, or mixed), some token separators turned into
    whitespace that ends no line, comments added on lines and between
    them, some holding a character at which ``str.splitlines`` ends a line,
    and at times no line end after the last line."""
    ends = rng.choice((("\n",), ("\r\n",), ("\r",), ("\n", "\r\n", "\r")))
    lines = []
    for line in text.split("\n"):
        if rng.random() < 0.2:
            line = line.replace(" ", rng.choice(("\f", "\x85", "\t", "\v", " \f ")), 1)
        if rng.random() < 0.15:
            line += rng.choice((" # note", "#", "# a\x85b", "\t# trans q0 a q0", "#\f"))
        if rng.random() < 0.1:
            lines.append(rng.choice(("# comment", "", "   ", "#trans x y z", "\f", "\x85")))
        lines.append(line)
    dressed = "".join(line + rng.choice(ends) for line in lines)
    return dressed.rstrip("\r\n") if rng.random() < 0.2 else dressed


#: Texts whose first fault depends on the order in which header and
#: ``trans`` lines are checked, each with the error a scan line by line
#: raises first (None where the text parses).
HEADER_AND_STEP_ORDER = {
    # a trans line of the wrong shape is a fault of its own line, so a
    # header fault after it is not reached, and one before it is
    "alphabet obs x\nstates a b\ninit a\ntrans a x\ninit b\naccept F: a\n":
        "line 4: expected 'trans SRC EVENT DST'",
    "states a b a\ninit a\ntrans a x\naccept F: a\n": "line 1: state 'a' declared twice",
    "trans a x a b\nflip\n": "line 1: expected 'trans SRC EVENT DST'",
    # a missing or undeclared init or accept comes before any step fault
    "alphabet obs x\nstates a\ninit a\ntrans a y a\n": "line 5: missing accept line",
    "alphabet obs x\nstates a\ntrans a y a\ninit b\naccept F: a\n": "line 4: init state 'b' not declared",
    "states a\ntrans a y a\ninit a\naccept F: a b\n": "line 4: accepting set F uses undeclared state 'b'",
    # a state declared twice across two states lines
    "states a b\nstates c b\ninit a\naccept F: a\n": "line 2: state 'b' declared twice",
    # header lines after the steps declare what the steps use, or are at fault
    "states a\ntrans a x a\ninit a\naccept F: a\nalphabet obs x\n": None,
    "alphabet obs x\nstates a\ntrans a x a\ntrans a x a\ninit a\naccept F: a\nstates a\n":
        "line 7: state 'a' declared twice",
    # the line after the last one, a comment, is the line of a missing init
    "states a\naccept F: a\n# end": "line 4: missing init",
    "states a\naccept F: a\n# end\n": "line 4: missing init",
}


def test_bulk_parser_matches_the_line_by_line_one(fixtures_dir):
    # parse_model, which checks header lines in file order and trans lines
    # in bulk, must give the parts of the reference parser, which checks
    # every line in file order, steps in the same order, or the same error
    # on the same line
    from test_cli import mutate  # test_cli imports this module

    fixtures = [path.read_text() for path in sorted(fixtures_dir.glob("*.lts"))]
    assert len(fixtures) == 4
    ordered = [parsed(parse_model_by_lines, text) for text in HEADER_AND_STEP_ORDER]
    assert [outcome[0] if len(outcome) == 2 else None for outcome in ordered] == list(HEADER_AND_STEP_ORDER.values())
    rng = random.Random(73)
    rendered = [render_model(random_system(rng, max_states=rng.choice((3, 8, 20)), density=0.4)) for _ in range(100)]
    texts = list(HEADER_AND_STEP_ORDER) + fixtures + rendered + [dressed(rng, text) for text in rendered]
    for _ in range(2400):
        text = mutate(rng, rng.choice(fixtures + rendered[:10]))
        texts.append(dressed(rng, text) if rng.random() < 0.6 else text)
    outcomes = [parsed(parse_model, text) for text in texts]
    assert outcomes == [parsed(parse_model_by_lines, text) for text in texts]
    # not vacuous: many systems and many errors, of many kinds
    errors = [message.split(": ", 1)[1][:20] for message, *_ in outcomes if isinstance(message, str)]
    assert len(errors) >= 600 and len(outcomes) - len(errors) >= 1000
    assert len(set(errors)) >= 10
