"""The package namespace: every public name, imported from its module on
first use."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import opaqcheck

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
