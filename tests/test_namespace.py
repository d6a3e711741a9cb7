"""The lazy package namespace: every public name resolves to its home module's object."""

import subprocess
import sys

import pytest

import fockpair as fp
from fockpair import gaussian


def test_every_public_name_is_its_home_modules_object():
    assert fp.__all__[-1] == "__version__" and "__version__" in dir(fp)
    listed = dir(fp)
    for name in fp.__all__[:-1]:
        obj = getattr(fp, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("fockpair.") and getattr(home, name) is obj, name
        assert name in listed, name
    assert len(set(fp.__all__)) == len(fp.__all__)


def test_names_resolve_on_each_access(monkeypatch):
    # nothing is stored in the package, so a rebinding in the home module shows
    assert "pair_closed" not in vars(fp)
    stand_in = object()
    monkeypatch.setattr(gaussian, "pair_closed", stand_in)
    assert fp.pair_closed is stand_in
    monkeypatch.undo()
    assert fp.pair_closed is gaussian.pair_closed and "pair_closed" not in vars(fp)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from fockpair import *", namespace)
    assert all(namespace[name] is getattr(fp, name) for name in fp.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'fockpair' has no attribute 'no_such_name'"):
        fp.no_such_name
    assert not hasattr(fp, "no_such_name")


def test_plain_import_loads_no_submodule_and_submodules_resolve():
    code = ("import sys, fockpair\n"
            "assert not [name for name in sys.modules if name.startswith('fockpair.')]\n"
            "assert fockpair.algebra is sys.modules['fockpair.algebra']\n"
            "assert fockpair.algebra.basis_size(3, 2) == 6\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
