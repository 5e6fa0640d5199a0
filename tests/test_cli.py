import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

from opaqcheck import (
    InterferenceVerdict,
    check_ini,
    check_ini_direct,
    check_ni,
    check_opacity_orwellian,
    format_word,
    interference,
    parse_model,
    render_model,
)
from opaqcheck.cli import main
from test_dead_ends import blowup_system
from test_modelfile import NOT_LINE_ENDS
from test_reductions import random_pattern

SECRET_RE = "h l + h d h l l*"
ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def python(args, env=None, **kwargs):
    """Run a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ if env is None else env, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60, **kwargs)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orwellian_check_prints_verdict_witness_and_breakdown(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "check", "orwellian", "--system", str(fixtures_dir / "downgrade_loop.lts"), "--secret-re", SECRET_RE
    )
    lines = out.splitlines()
    assert code == 1
    assert lines[0] == "violated"
    assert lines[1] == "h l"
    assert len(lines) == 4 and all(" violated" in ln for ln in lines[2:])


def test_json_lines_report_schema(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "check", "orwellian",
        "--system", str(fixtures_dir / "downgrade_loop.lts"),
        "--secret-re", SECRET_RE,
        "--report", "json-lines",
    )
    records = [json.loads(ln) for ln in out.splitlines()]
    assert code == 1
    assert len(records) == 2
    assert all(set(r) == {"state", "holds", "witness"} for r in records)
    assert [r["holds"] for r in records] == [False, False]
    assert records[0]["witness"] == "h l"


def test_json_lines_report_carries_the_global_verdict(capsys, fixtures_dir):
    loop = str(fixtures_dir / "downgrade_loop.lts")
    for prop, witness in (("ini", "l"), ("orwellian", "h l")):
        code, text, _ = run(capsys, "check", prop, "--system", loop)
        assert code == 1 and text.splitlines()[:2] == ["violated", witness]
        code, out, err = run(capsys, "check", prop, "--system", loop, "--report", "json-lines")
        assert code == 1
        # the sub-checks on standard output, the verdict on standard error
        assert len(out.splitlines()) == 2 and all("verdict" not in json.loads(ln) for ln in out.splitlines())
        assert [json.loads(ln) for ln in err.splitlines()] == [
            {"verdict": "violated", "holds": False, "witness": witness},
        ]
    code, _, err = run(capsys, "check", "ini", "--system", str(fixtures_dir / "hdl_chain.lts"), "--report", "json-lines")
    assert code == 0 and json.loads(err) == {"verdict": "holds", "holds": True, "witness": None}


def test_ni_and_ini_verdicts_on_the_declassified_chain(capsys, fixtures_dir):
    path = str(fixtures_dir / "hdl_chain.lts")
    code, out, _ = run(capsys, "check", "ni", "--system", path)
    assert code == 1
    assert out.splitlines()[1] == "l"
    code, out, _ = run(capsys, "check", "ini", "--system", path)
    assert code == 0
    assert out.splitlines()[1] == ""


def test_empty_word_secret_is_covered(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "check", "static", "--system", str(fixtures_dir / "downgrade_loop.lts"), "--secret-re", "()"
    )
    assert code == 0
    assert out.splitlines()[0] == "holds"


def test_witness_line_is_empty_exactly_on_success(capsys, fixtures_dir):
    invocations = [
        ("check", "orwellian", "--system", str(fixtures_dir / "downgrade_loop.lts")),
        ("check", "static", "--system", str(fixtures_dir / "downgrade_loop.lts")),
        ("check", "ni", "--system", str(fixtures_dir / "hdl_chain.lts")),
        ("check", "ini", "--system", str(fixtures_dir / "hdl_chain.lts")),
        ("oracle", "--obs", "orwellian", "--max-len", "8", "--system", str(fixtures_dir / "downgrade_loop.lts")),
    ]
    for argv in invocations:
        code, out, _ = run(capsys, *argv)
        lines = out.splitlines()
        assert code in (0, 1)
        assert (lines[1] == "") == (code == 0)


def test_an_empty_witness_is_an_empty_line_and_an_empty_json_string(capsys, fixtures_dir):
    # the accepted run u u u projects to the empty word, which the system
    # does not accept: NI and INI are violated by the empty word
    system = str(fixtures_dir / "late_disclosure.lts")
    code, out, _ = run(capsys, "check", "ni", "--system", system)
    assert (code, out) == (1, "violated\n\n")
    code, out, _ = run(capsys, "check", "ini", "--system", system)
    assert (code, out) == (1, "violated\n\nq=0 violated:\n")
    code, out, err = run(capsys, "check", "ini", "--system", system, "--report", "json-lines")
    assert code == 1
    assert [json.loads(line) for line in out.splitlines()] == [{"state": "0", "holds": False, "witness": ""}]
    assert json.loads(err) == {"verdict": "violated", "holds": False, "witness": ""}
    # no witness is null
    code, out, err = run(capsys, "check", "ini", "--system", str(fixtures_dir / "hdl_chain.lts"), "--report", "json-lines")
    assert code == 0 and json.loads(err)["witness"] is None


def test_cli_matches_the_library_on_fixtures(capsys, fixtures_dir):
    system = parse_model((fixtures_dir / "downgrade_loop.lts").read_text())
    code, _, _ = run(capsys, "check", "orwellian", "--system", str(fixtures_dir / "downgrade_loop.lts"))
    assert code == (0 if check_opacity_orwellian(system).holds else 1)
    chain = parse_model((fixtures_dir / "hdl_chain.lts").read_text())
    code, _, _ = run(capsys, "check", "ni", "--system", str(fixtures_dir / "hdl_chain.lts"))
    assert code == (0 if check_ni(chain).holds else 1)
    code, _, _ = run(capsys, "check", "ini", "--system", str(fixtures_dir / "hdl_chain.lts"))
    assert code == (0 if check_ini(chain).holds else 1)


def test_direct_ini_prints_the_direct_verdict_and_witness(capsys, fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.lts")):
        verdict = check_ini_direct(parse_model(path.read_text()))
        code, out, _ = run(capsys, "check", "ini", "--system", str(path), "--method", "direct")
        # the direct decider has no breakdown, so no q= lines follow
        assert code == (0 if verdict.holds else 1), path.name
        assert out.splitlines() == ["holds" if verdict.holds else "violated", format_word(verdict.witness or ())]


def test_direct_ini_json_lines_report_one_record_for_the_initial_state(capsys, fixtures_dir):
    loop = str(fixtures_dir / "downgrade_loop.lts")
    code, out, err = run(capsys, "check", "ini", "--system", loop, "--method", "direct", "--report", "json-lines")
    assert code == 1
    assert [json.loads(ln) for ln in out.splitlines()] == [{"state": "1", "holds": False, "witness": "l"}]
    assert [json.loads(ln) for ln in err.splitlines()] == [{"verdict": "violated", "holds": False, "witness": "l"}]


def test_direct_ini_without_an_f_set_is_an_input_error(capsys, tmp_path):
    model = tmp_path / "only_fphi.lts"
    model.write_text("alphabet obs l\nalphabet unobs h\nalphabet down d\nstates 0 1\ninit 0\naccept Fphi: 1\ntrans 0 h 1\n")
    for method in ("direct", "both"):
        code, out, err = run(capsys, "check", "ini", "--system", str(model), "--method", method)
        assert (code, out, err) == (2, "", "error: automaton has no accepting set named 'F'\n"), method


def test_reduce_to_ni_produces_a_checkable_model(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "layered.lts"
    code, out, _ = run(
        capsys,
        "reduce", "to-ni",
        "--system", str(fixtures_dir / "downgrade_loop.lts"),
        "--secret-re", SECRET_RE,
        "-o", str(target),
    )
    assert code == 0 and out == ""
    code, _, _ = run(capsys, "check", "ni", "--system", str(target))
    assert code == 1  # the fixture's secret leaks already under a static observer


def test_reduce_from_ini_round_trips_through_a_file(capsys, fixtures_dir, tmp_path):
    for name, expected in (("hdl_chain.lts", 0), ("downgrade_loop.lts", 1)):
        target = tmp_path / f"folded_{name}"
        code, _, _ = run(capsys, "reduce", "from-ini", "--system", str(fixtures_dir / name), "-o", str(target))
        assert code == 0
        code, _, _ = run(capsys, "check", "orwellian", "--system", str(target))
        assert code == expected


def test_reduce_to_ini_round_trips_through_a_file(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "layered.lts"
    code, _, _ = run(
        capsys,
        "reduce", "to-ini",
        "--system", str(fixtures_dir / "downgrade_loop.lts"),
        "--secret-re", SECRET_RE,
        "-o", str(target),
    )
    assert code == 0
    code, _, _ = run(capsys, "check", "ini", "--system", str(target))
    assert code == 1


def test_oracle_subcommand_agrees_with_the_decider(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "oracle", "--obs", "orwellian", "--max-len", "10", "--system", str(fixtures_dir / "downgrade_loop.lts")
    )
    assert code == 1
    assert out.splitlines()[1] == "h l"


def test_oracle_json_lines_keep_standard_error_json(capsys, fixtures_dir):
    # the verdict record says whether the bound was below the exactness
    # bound; only the text report prints that as a note
    system = str(fixtures_dir / "downgrade_loop.lts")
    for bound, holds, witness, approximate in (("2", True, None, True), ("10", False, "h d h l l", False)):
        code, _, err = run(capsys, "oracle", "--obs", "natural", "--max-len", bound, "--system", system,
                           "--report", "json-lines")
        assert code == (0 if holds else 1)
        assert [json.loads(line) for line in err.splitlines()] == [{
            "verdict": "holds" if holds else "violated", "holds": holds, "witness": witness, "approximate": approximate,
        }]
    code, out, err = run(capsys, "oracle", "--obs", "natural", "--max-len", "2", "--system", system)
    assert code == 0 and out.splitlines()[0] == "holds"
    assert err == "note: bound below the exactness bound; a holds verdict may be approximate\n"


def test_input_errors_use_exit_code_two(capsys, fixtures_dir, tmp_path):
    bad = tmp_path / "bad.lts"
    bad.write_text("trans 1 h 2\n")
    code, _, err = run(capsys, "check", "ni", "--system", str(bad))
    assert code == 2 and "error:" in err

    code, _, _ = run(capsys, "check", "ni", "--system", str(tmp_path / "missing.lts"))
    assert code == 2

    code, _, err = run(
        capsys, "check", "static", "--system", str(fixtures_dir / "hdl_chain.lts")
    )
    assert code == 2 and "secret" in err

    code, _, err = run(
        capsys, "oracle", "--obs", "orwellian", "--max-len", "-3",
        "--system", str(fixtures_dir / "downgrade_loop.lts"),
    )
    assert code == 2


def test_usage_errors_use_exit_code_two(capsys):
    assert main(["check", "ni"]) == 2  # --system missing
    assert main(["check", "sideways", "--system", "x"]) == 2


def test_help_prints_the_text_and_exits_two(capsys):
    for argv in (["--help"], ["check", "--help"]):
        code, out, _ = run(capsys, *argv)
        assert code == 2  # 0 would read as "holds"
        assert out.startswith("usage: opaq")


def test_both_secret_flags_are_rejected(capsys, fixtures_dir, tmp_path):
    secret = tmp_path / "secret.lts"
    secret.write_text((fixtures_dir / "downgrade_loop.lts").read_text())
    code, _, err = run(
        capsys,
        "check", "static",
        "--system", str(fixtures_dir / "downgrade_loop.lts"),
        "--secret", str(secret),
        "--secret-re", "()",
    )
    assert code == 2 and "not both" in err


def test_an_empty_secret_value_counts_as_given(capsys, fixtures_dir):
    loop = str(fixtures_dir / "downgrade_loop.lts")
    # an empty pattern is a pattern, not a fall-back to the file's Fphi
    code, out, err = run(capsys, "check", "static", "--system", loop, "--secret-re", "")
    assert code == 2 and out == "" and "column 1: empty pattern" in err
    code, out, err = run(capsys, "check", "ni", "--system", str(fixtures_dir / "hdl_chain.lts"), "--secret-re", "")
    assert code == 2 and out == "" and "apply only to static and orwellian" in err
    code, out, err = run(capsys, "check", "static", "--system", loop, "--secret", "", "--secret-re", "h")
    assert code == 2 and out == "" and "not both" in err


def test_secret_automaton_file_is_accepted(capsys, fixtures_dir, tmp_path):
    secret = tmp_path / "secret.lts"
    secret.write_text(
        "alphabet obs l\nalphabet unobs h\nalphabet down d\n"
        "states p0 p1 p2\ninit p0\naccept Fphi: p2\n"
        "trans p0 h p1\ntrans p1 l p2\n"
    )
    code, out, _ = run(
        capsys, "check", "orwellian",
        "--system", str(fixtures_dir / "downgrade_loop.lts"),
        "--secret", str(secret),
    )
    assert code == 1
    assert out.splitlines()[1] == "h l"


def test_non_utf8_model_file_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "binary.lts"
    bad.write_bytes(b"states 1\ninit 1\naccept F: 1\xff\n")
    code, out, err = run(capsys, "check", "ni", "--system", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "UTF-8" in err and "Traceback" not in err


def test_a_byte_order_mark_before_a_model_is_ignored(capsys, fixtures_dir, tmp_path):
    bom = "\ufeff".encode()
    chain, loop = fixtures_dir / "hdl_chain.lts", fixtures_dir / "downgrade_loop.lts"
    marked, secret = tmp_path / "chain.lts", tmp_path / "secret.lts"
    marked.write_bytes(bom + chain.read_bytes())
    assert run(capsys, "check", "ini", "--system", str(marked)) == run(capsys, "check", "ini", "--system", str(chain))
    secret.write_bytes(bom + loop.read_bytes())
    with_marked_secret = run(capsys, "check", "static", "--system", str(loop), "--secret", str(secret))
    assert with_marked_secret == run(capsys, "check", "static", "--system", str(loop), "--secret", str(loop))
    assert with_marked_secret[0] == 1
    # a written model has none, and a bad byte is counted from the start of the file
    written = [tmp_path / "plain.out", tmp_path / "marked.out"]
    for source, target in zip((chain, marked), written):
        assert run(capsys, "reduce", "from-ini", "--system", str(source), "-o", str(target))[0] == 0
    assert written[0].read_bytes() == written[1].read_bytes() and not written[1].read_bytes().startswith(bom)
    marked.write_bytes(bom + b"states 1\xff\n")
    code, _, err = run(capsys, "check", "ni", "--system", str(marked))
    assert code == 2 and "bad byte at offset 11" in err


def test_undeclared_accepting_state_reports_its_line(capsys, tmp_path):
    bad = tmp_path / "accept.lts"
    bad.write_text("alphabet obs a\nstates s0\ninit s0\naccept F: s9\n")
    code, _, err = run(capsys, "check", "ni", "--system", str(bad))
    assert code == 2
    assert "line 4:" in err and "'s9'" in err


def test_deeply_nested_secret_pattern_gets_a_verdict_or_an_input_error(capsys, fixtures_dir):
    system = str(fixtures_dir / "downgrade_loop.lts")
    shallow = run(capsys, "check", "static", "--system", system, "--secret-re", "h l")
    deep = run(capsys, "check", "static", "--system", system, "--secret-re", "(" * 2000 + "h l" + ")" * 2000)
    assert deep == shallow
    code, out, err = run(capsys, "check", "static", "--system", system, "--secret-re", "(" * 2000 + "h l")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "column 2004" in err and "Traceback" not in err


def test_internal_error_exits_two_without_a_traceback(capsys, fixtures_dir, monkeypatch):
    # a direct INI decider that disagrees with the decomposed one trips the cross-check
    monkeypatch.setattr(interference, "check_ini_direct", lambda system: InterferenceVerdict(False, ("l",)))
    code, out, err = run(capsys, "check", "ini", "--system", str(fixtures_dir / "hdl_chain.lts"), "--method", "both")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "disagree" in err and "Traceback" not in err


def test_running_out_of_memory_exits_three_undecided(tmp_path):
    # the translation of the n=22 blowup member needs far more than the
    # 400 MB of address space the child process allows itself
    model, written = tmp_path / "blowup.lts", tmp_path / "out.lts"
    model.write_text(render_model(blowup_system(22)))
    capped = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
              "from opaqcheck.cli import main\n"
              "raise SystemExit(main(sys.argv[1:]))\n")
    done = python(["-c", capped, "reduce", "to-ni", "--system", str(model), "-o", str(written)])
    assert (done.returncode, done.stdout, done.stderr) == (3, "", "error: out of memory: undecided\n")
    assert not written.exists()


def test_options_the_property_does_not_read_are_rejected(capsys, fixtures_dir):
    chain = str(fixtures_dir / "hdl_chain.lts")
    loop = str(fixtures_dir / "downgrade_loop.lts")
    for argv in (
        ("check", "ni", "--system", chain, "--secret-re", "h"),
        ("check", "ini", "--system", chain, "--secret", loop),
        ("check", "static", "--system", loop, "--method", "direct"),
        ("check", "orwellian", "--system", loop, "--method", "both"),
        ("check", "ni", "--system", chain, "--method", "decomposed"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
    # without --method, ini runs the decomposition and prints its breakdown,
    # the same output as the audit that runs both deciders
    code, out, _ = run(capsys, "check", "ini", "--system", chain)
    assert code == 0 and len(out.splitlines()) == 4
    for path in sorted(fixtures_dir.glob("*.lts")):
        assert run(capsys, "check", "ini", "--system", str(path)) == run(
            capsys, "check", "ini", "--system", str(path), "--method", "both"
        )


def test_reduce_from_ini_rejects_a_secret(capsys, fixtures_dir, tmp_path):
    chain = str(fixtures_dir / "hdl_chain.lts")
    out_file = tmp_path / "out.lts"
    for secret in (("--secret-re", "h"), ("--secret", str(fixtures_dir / "downgrade_loop.lts"))):
        code, out, err = run(capsys, "reduce", "from-ini", "--system", chain, *secret, "-o", str(out_file))
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not out_file.exists()
    # the secret-free translation still writes its model
    assert run(capsys, "reduce", "from-ini", "--system", chain, "-o", str(out_file))[0] == 0
    assert out_file.exists()


def test_reduce_writes_states_whose_structured_names_would_collide(capsys, tmp_path):
    # per direction: the property of the source, the property of the written model
    reductions = {"to-ni": ("static", "ni"), "to-ini": ("orwellian", "ini"), "from-ini": ("ini", "orwellian")}
    # under structured names, the subset states {p,q} and {"p,q"} are both written {p,q}
    for odd in ("p,q", "p,0),(q"):
        model = tmp_path / "odd.lts"
        model.write_text(
            f"alphabet obs a b\nalphabet unobs u\nstates s x p q {odd}\ninit s\n"
            f"accept F: s x p q {odd}\naccept Fphi: q\ntrans s a p\ntrans s u x\ntrans x a q\ntrans s b {odd}\n"
        )
        target = tmp_path / "out.lts"
        for direction, (source, written) in reductions.items():
            code, out, err = run(capsys, "reduce", direction, "--system", str(model), "-o", str(target))
            assert (code, out, err) == (0, "", "")
            parse_model(target.read_text())
            expected = run(capsys, "check", source, "--system", str(model))[0]
            assert expected in (0, 1)
            assert run(capsys, "check", written, "--system", str(target))[0] == expected


def readme_examples():
    """Each ``$ opaq ...`` line in README.md, and the lines shown under it
    up to the next command or the end of its code block."""
    examples = []
    shown = None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            shown = None
        elif line.startswith("$ opaq "):
            shown = []
            examples.append((shlex.split(line)[2:], shown))
        elif shown is not None:
            shown.append(line)
    return examples


def test_readme_examples_print_exactly_what_the_readme_shows(capsys, fixtures_dir, monkeypatch):
    loop = str(fixtures_dir / "downgrade_loop.lts")
    code, out, err = run(capsys, "check", "orwellian", "--system", loop, "--secret-re", SECRET_RE)
    assert (code, err) == (1, "")
    assert out == "violated\nh l\nq=(1,0) violated: h l\nq=(4,4) violated: h l l\n"
    chain = str(fixtures_dir / "hdl_chain.lts")
    code, out, err = run(capsys, "check", "ini", "--system", chain, "--report", "json-lines")
    assert code == 0
    assert out == '{"state": "0", "holds": true, "witness": null}\n{"state": "2", "holds": true, "witness": null}\n'
    assert err == '{"verdict": "holds", "holds": true, "witness": null}\n'
    # every command shown, run where the README runs it: standard output,
    # then standard error, are the lines under it
    monkeypatch.chdir(ROOT)
    examples = readme_examples()
    assert len(examples) >= 3
    for argv, shown in examples:
        code, out, err = run(capsys, *argv)
        assert code in (0, 1) and out.splitlines() + err.splitlines() == shown, argv


def test_reduce_writes_utf8_whatever_the_locale(tmp_path):
    model = tmp_path / "accented.lts"
    model.write_text(
        "alphabet obs lé\nalphabet unobs h\nstates p q\ninit p\naccept F: p q\naccept Fphi: q\ntrans p h q\ntrans q lé q\n",
        encoding="utf-8",
    )
    target = tmp_path / "layered.lts"
    ascii_locale = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONIOENCODING"))}
    ascii_locale.update(LC_ALL="C", LANG="C")
    done = python(["-X", "utf8=0", "-m", "opaqcheck", "reduce", "to-ni", "--system", str(model), "-o", str(target)],
                  env=ascii_locale)
    assert (done.returncode, done.stderr) == (0, "")
    assert "lé" in target.read_text(encoding="utf-8")


def test_check_ni_loads_only_what_it_runs(fixtures_dir):
    """An opaq process pays for every module it imports, on every run."""
    unused = {"dataclasses", "inspect", "json", "opaqcheck.oracle", "opaqcheck.reductions", "opaqcheck.regexlang",
              "opaqcheck.opacity", "opaqcheck.generate"}
    bare = python(["-c", "import sys; print(*sys.modules)"])
    system = str(fixtures_dir / "hdl_chain.lts")
    run_ni = f"import sys\nfrom opaqcheck import cli\ncli.main(['check', 'ni', '--system', {system!r}])\nprint(*sys.modules)"
    checked = python(["-c", run_ni])
    assert bare.returncode == 0 and checked.returncode == 0
    lines = checked.stdout.splitlines()
    assert lines[:2] == ["violated", "l"]
    assert unused & set(lines[-1].split()) <= set(bare.stdout.split())


# ---------------------------------------------------------------------------
# fuzzing: mutated fixtures through every subcommand

FUZZ_COMMANDS = (
    ("check", "static"), ("check", "orwellian"), ("check", "ni"), ("check", "ini"),
    ("reduce", "to-ni"), ("reduce", "to-ini"), ("reduce", "from-ini"),
    ("oracle", "--obs", "natural"), ("oracle", "--obs", "orwellian"),
)
FUZZ_TOKENS = ("alphabet", "obs", "unobs", "down", "states", "init", "accept", "F:", "Fphi:", "trans", "#", "", "(", "+")


def mutate(rng, text):
    """One to three edits.  Most keep the file well formed (a move added,
    retargeted or deleted, a state moved in or out of an accepting set);
    one in three replaces a token or copies or deletes a line."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    for _ in range(rng.randint(1, 3)):
        states = [t for line in lines if line.startswith("states ") for t in line.split()[1:]] or ["0"]
        events = [t for line in lines if line.startswith("alphabet ") for t in line.split()[2:]] or ["l"]
        moves = [i for i, line in enumerate(lines) if line.startswith("trans ")]
        sets = [i for i, line in enumerate(lines) if line.startswith("accept ")]
        kind = rng.randrange(6)
        if kind == 0:
            lines.append(f"trans {rng.choice(states)} {rng.choice(events)} {rng.choice(states)}")
        elif kind == 1 and moves:
            i = rng.choice(moves)
            lines[i] = " ".join(lines[i].split()[:3] + [rng.choice(states)])
        elif kind == 2 and moves:
            del lines[rng.choice(moves)]
        elif kind == 3 and sets:
            i = rng.choice(sets)
            members = set(lines[i].split()[2:]) ^ {rng.choice(states)}
            lines[i] = " ".join(lines[i].split()[:2] + sorted(members))
        elif kind == 4 and lines:
            i = rng.randrange(len(lines))
            words = lines[i].split()
            words[rng.randrange(len(words))] = rng.choice(states + events + list(FUZZ_TOKENS))
            lines[i] = " ".join(words)
        elif lines:
            i = rng.randrange(len(lines))
            if rng.random() < 0.5:
                lines.insert(rng.randrange(len(lines) + 1), lines[i])
            else:
                del lines[i]
    return "\n".join(lines) + "\n"


def random_secret_pattern(rng, events):
    """A pattern over ``events``; one in four is a token soup, mostly not
    well formed."""
    if rng.random() < 0.25:
        return " ".join(rng.choice(events + ("(", ")", "+", "*", "()", "zz")) for _ in range(rng.randint(0, 6)))
    return random_pattern(rng, events)


def test_mutated_fixtures_get_a_verdict_or_an_input_error(capsys, fixtures_dir, tmp_path):
    rng = random.Random(38)
    fixtures = [(fixtures_dir / f"{name}.lts").read_text() for name in ("downgrade_loop", "hdl_chain", "projection_leak")]
    system, output = tmp_path / "system.lts", tmp_path / "out.lts"
    codes = []
    for case in range(500):
        text = mutate(rng, rng.choice(fixtures))
        system.write_text(text)
        command = FUZZ_COMMANDS[case % len(FUZZ_COMMANDS)]
        argv = [*command, "--system", str(system)]
        reads_secret = command[1] not in ("ni", "ini", "from-ini")
        if rng.random() < (0.9 if reads_secret else 0.1):
            events = tuple(t for line in text.splitlines() if line.startswith("alphabet") for t in line.split()[2:])
            argv += ["--secret-re", random_secret_pattern(rng, events)]
        if command[0] == "reduce":
            argv += ["-o", str(output)]
        elif command[0] == "oracle":
            argv += ["--max-len", str(rng.randint(0, 4))]
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2), (argv, text)
        assert "internal error" not in err and "Traceback" not in err, (argv, text, err)
        codes.append(code)
    assert codes.count(2) < 350  # enough cases must reach a decider, not stop at an input error


#: What a byte-level edit splices in besides random bytes: bytes that are
#: no UTF-8 (a stray lead byte, a lone continuation byte, an encoded
#: surrogate), a NUL, a byte-order mark, and each character at which
#: ``str.splitlines`` ends a line but a model file does not.
FUZZ_BYTES = (b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\x00", "\ufeff".encode(),
              *(c.encode() for c in NOT_LINE_ENDS))


def mutate_bytes(rng, data):
    """One to three byte-level edits: random bytes or one of
    ``FUZZ_BYTES`` spliced in anywhere, or a few bytes deleted; one file in
    ten also gets a leading byte-order mark."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(data))
        kind = rng.randrange(3)
        if kind == 0:
            data = data[:i] + rng.randbytes(rng.randint(1, 3)) + data[i:]
        elif kind == 1:
            data = data[:i] + rng.choice(FUZZ_BYTES) + data[i:]
        else:
            data = data[:i] + data[i + rng.randint(1, 3):]
    return "\ufeff".encode() + data if rng.random() < 0.1 else data


def test_fixtures_edited_byte_by_byte_get_a_verdict_or_an_input_error(capsys, fixtures_dir, tmp_path):
    rng = random.Random(39)
    names = ("downgrade_loop", "hdl_chain", "projection_leak")
    fixtures = [(fixtures_dir / f"{name}.lts").read_bytes() for name in names]
    events = ("l", "h", "d")
    system, secret, output = tmp_path / "system.lts", tmp_path / "secret.lts", tmp_path / "out.lts"
    codes = []
    for case in range(600):
        system.write_bytes(mutate_bytes(rng, rng.choice(fixtures)))
        command = FUZZ_COMMANDS[case % len(FUZZ_COMMANDS)]
        argv = [*command, "--system", str(system)]
        if command[1] not in ("ni", "ini", "from-ini"):
            source = rng.randrange(3)  # the system's own Fphi set, a pattern, or an edited secret file
            if source == 1:
                argv += ["--secret-re", random_pattern(rng, events)]
            elif source == 2:
                secret.write_bytes(mutate_bytes(rng, fixtures[0]))
                argv += ["--secret", str(secret)]
        if command[0] == "reduce":
            argv += ["-o", str(output)]
        elif command[0] == "oracle":
            argv += ["--max-len", str(rng.randint(0, 4))]
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        assert "internal error" not in err and "Traceback" not in err, (argv, err)
        codes.append(code)
    # not vacuous: some edited models still reach a decider, with either verdict
    assert codes.count(0) >= 30 and codes.count(1) >= 10, (codes.count(0), codes.count(1))
