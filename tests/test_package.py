"""The package namespace: every public name, imported from its module on
first use; and the one stored form of a step function, which every
system the package builds keeps as one map per event of its alphabet."""

import ast
import importlib
import importlib.util
import random
import re
from pathlib import Path

import pytest

import opaqcheck
from opaqcheck import Lts, PartitionedAlphabet, compile_regex, parse_model
from opaqcheck.automata import discovery_tree, incorporate_secret, restrict, trim, with_set
from opaqcheck.generate import random_system
from opaqcheck.reductions import ini_to_opacity, opacity_to_ini, opacity_to_ni
from reference import determinize_by_subsets, determinized, find_isomorphism, incorporate_secret_by_product, random_nfa
from test_image_on_demand import with_unreachable_part
from test_reductions import random_pattern

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_the_object_its_module_defines():
    for name, module in opaqcheck._EXPORTS.items():
        value = getattr(opaqcheck, name)
        assert value is getattr(importlib.import_module(f"opaqcheck.{module}"), name)
        defined_in = getattr(value, "__module__", None)  # none for a constant, not ours for a type alias
        if isinstance(defined_in, str) and defined_in.startswith("opaqcheck"):
            assert defined_in == f"opaqcheck.{module}", name


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from opaqcheck import *", namespace)
    assert set(opaqcheck.__all__) <= set(namespace)
    assert set(opaqcheck.__all__) <= set(dir(opaqcheck))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        opaqcheck.no_such_name
    assert not hasattr(opaqcheck, "check_everything")


def package_imports(source: str) -> set[str]:
    """Every name a ``from opaqcheck import ...`` statement in ``source`` imports."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "opaqcheck" and node.level == 0
        for alias in node.names
    }


def test_every_name_callers_import_from_the_package_resolves():
    # the callers outside the package that a pruned namespace could break
    files = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    sources = {str(f.relative_to(ROOT)): f.read_text(encoding="utf-8") for f in files}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        sources[f"README.md python block {i}"] = block
    checked = 0
    for where, source in sources.items():
        for name in package_imports(source):
            checked += 1
            if importlib.util.find_spec(f"opaqcheck.{name}") is not None:
                continue  # a submodule, such as cli
            assert name in opaqcheck.__all__, f"{where} imports {name} from opaqcheck"
    assert checked >= 30


def test_no_decider_imports_the_oracle():
    # the brute-force evaluator checks the deciders, so only the command
    # line, which runs it on request, may import it, by module or by a
    # name the package namespace takes from it
    names = {"oracle"} | {name for name, module in opaqcheck._EXPORTS.items() if module == "oracle"}
    importers = set()
    for path in sorted((ROOT / "src" / "opaqcheck").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                hit = any(alias.name.split(".")[-1] == "oracle" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                hit = module.split(".")[-1] == "oracle" or (
                    module in ("", "opaqcheck") and any(alias.name in names for alias in node.names))
            else:
                continue
            if hit:
                importers.add(path.name)
    assert importers == {"cli.py"}


def delta_reads(source: str) -> tuple[list[int], int]:
    """The lines of ``source`` that read an attribute named ``delta``
    outside the ``Lts`` class, and the number of such reads inside it."""
    outside: list[int] = []
    inside = 0

    def visit(node: ast.AST, in_lts: bool) -> None:
        nonlocal inside
        in_lts = in_lts or isinstance(node, ast.ClassDef) and node.name == "Lts"
        if isinstance(node, ast.Attribute) and node.attr == "delta" and isinstance(node.ctx, ast.Load):
            if in_lts:
                inside += 1
            else:
                outside.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_lts)

    visit(ast.parse(source), False)
    return outside, inside


def test_no_module_reads_the_keyed_view_of_a_step_function():
    # the package reads the per-event step maps; the (state, event)-keyed
    # view is built only for callers outside it
    reads = {}
    inside = 0
    for path in sorted((ROOT / "src" / "opaqcheck").glob("*.py")):
        lines, within = delta_reads(path.read_text(encoding="utf-8"))
        inside += within
        if lines:
            reads[path.name] = lines
    assert reads == {}
    # not vacuous: the scan sees the view's own reads, in the validation
    assert inside >= 1


def flattened(a: Lts) -> dict:
    """``a``'s step maps as one map keyed by (state, event), event by event
    in alphabet order."""
    return {(q, e): r for e, targets in zip(a.alphabet.events, a.steps) for q, r in targets.items()}


def assert_one_map_per_event(a: Lts, expected: dict | None = None) -> None:
    """``a`` stores one step map per event of its alphabet, in alphabet
    order, over its own states; flattened they give ``delta`` (and
    ``expected``, when given), and the public constructor, given them,
    stores the same maps."""
    assert isinstance(a.steps, tuple) and len(a.steps) == len(a.alphabet.events)
    flat = flattened(a)
    assert all(q in a.states and r in a.states for (q, _), r in flat.items())
    assert list(flat.items()) == list(a.delta.items())
    if expected is not None:
        assert flat == expected
    rebuilt = Lts(a.alphabet, a.states, flat, a.initial, a.accepting_sets)
    assert [dict(m) for m in rebuilt.steps] == [dict(m) for m in a.steps]


def read_steps(text: str) -> dict:
    """The ``trans`` lines of a model text, keyed by (source, event)."""
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    return {(row[1], row[2]): row[3] for row in rows if row and row[0] == "trans"}


def marker(alpha: PartitionedAlphabet) -> Lts:
    """The two-state marker ``ini_to_opacity`` folds in, built through the
    public constructor: a private event leads to ``high_tail``, a
    downgrading one back to ``low_tail``, an observable one stays put."""
    delta = {}
    for q in ("low_tail", "high_tail"):
        for e in alpha.events:
            down, high = e in alpha.downgrading, e in alpha.unobservable
            delta[(q, e)] = "low_tail" if down else "high_tail" if high else q
    return Lts(alpha, frozenset({"low_tail", "high_tail"}), delta, "low_tail", {"Fphi": frozenset({"high_tail"})})


def test_every_built_system_keeps_one_step_map_per_event(fixtures_dir):
    rng = random.Random(53)
    texts = [(fixtures_dir / f"{name}.lts").read_text() for name in ("downgrade_loop", "hdl_chain", "projection_leak")]
    systems = []
    for text in texts:
        system = parse_model(text)
        assert_one_map_per_event(system, read_steps(text))
        systems.append(system)
    for _ in range(40):
        system = random_system(rng, max_states=10)
        systems.append(with_unreachable_part(system, rng, rng.randint(1, 3)))
    for system in systems:
        alpha = system.alphabet
        flat = flattened(system)
        assert_one_map_per_event(system)
        assert_one_map_per_event(restrict(system), {k: r for k, r in flat.items() if k[1] not in alpha.downgrading})
        reachable = discovery_tree(system)
        assert_one_map_per_event(trim(system), {k: r for k, r in flat.items() if k[0] in reachable})
        assert_one_map_per_event(with_set(system, "Fphi", system.accepting("F")), flat)
        secret = compile_regex(random_pattern(rng, alpha.events), alpha)
        assert_one_map_per_event(secret)
        folded = incorporate_secret(system, "F", secret, "F")
        assert_one_map_per_event(folded)
        assert find_isomorphism(folded, incorporate_secret_by_product(system, "F", secret, "F")) is not None
        translated = ini_to_opacity(system).lts
        assert_one_map_per_event(translated)
        marked = incorporate_secret_by_product(system, "F", marker(alpha), "Fphi")
        assert find_isomorphism(translated, marked) is not None
        if "Fphi" in system.accepting_sets:
            assert_one_map_per_event(opacity_to_ni(system).lts)
            assert_one_map_per_event(opacity_to_ini(system).lts)
    # the subset construction, its partition listing the events otherwise
    # than the automaton does
    for _ in range(40):
        nfa = random_nfa(rng, max_states=8, events=("a", "b", "c"))
        partition = PartitionedAlphabet(("c",), ("a",), ("b",))
        det = determinized(nfa, partition)
        assert_one_map_per_event(det)
        assert find_isomorphism(det, determinize_by_subsets(nfa, "F", partition)) is not None
