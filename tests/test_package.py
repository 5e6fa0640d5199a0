"""The package namespace: every public name, imported from its module on
first use."""

import importlib

import pytest

import opaqcheck


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
