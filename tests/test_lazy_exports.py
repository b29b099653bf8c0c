"""Package ``__init__``s export lazily and keep their public names.

Every ``repro`` package resolves the names in its ``__all__`` on first
access (:mod:`repro._lazy`).  These tests pin that each name is the
defining submodule's own object, that ``dir()`` and ``import *`` see
it, and that importing a package loads none of its submodules.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


def _mismatches(package_name):
    """Names of ``package_name.__all__`` that are not their home's object
    or are missing from ``dir()``."""
    package = importlib.import_module(package_name)
    # repro.backends is eager: its own functions use what it imports
    homes = getattr(getattr(package, "__getattr__", None), "homes", {})
    bad = []
    for name in package.__all__:
        value = getattr(package, name)
        if name in homes:
            home = homes[name]
            expected = importlib.import_module(
                f"{package_name}.{name}" if home is None else home,
                package_name)
            if home is not None:
                expected = getattr(expected, name)
            if value is not expected:
                bad.append(name)
        if name not in dir(package):
            bad.append(f"{name} (dir)")
    return bad


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_export_is_its_home_modules_object(package_name):
    assert _mismatches(package_name) == []


def test_exports_survive_direct_submodule_imports():
    """A submodule imported directly, before its package's exports are
    read, is bound on the package; an export spelled like it must not be
    shadowed (``repro.numa.numastat`` stays the function)."""
    probe = (
        "import importlib, json, pkgutil, sys\n"
        "from tests.test_lazy_exports import PACKAGES, _mismatches\n"
        "for name in PACKAGES:\n"
        "    package = importlib.import_module(name)\n"
        "    for info in pkgutil.iter_modules(package.__path__):\n"
        "        if info.name in package.__all__:\n"
        "            importlib.import_module(f'{name}.{info.name}')\n"
        "print(json.dumps({name: _mismatches(name) for name in PACKAGES}))\n")
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=SRC.parent,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, check=True)
    assert {name: bad for name, bad in json.loads(done.stdout).items()
            if bad} == {}


def test_star_import_binds_every_export():
    namespace = {}
    exec("from repro.core import *", namespace)
    import repro.core

    assert sorted(set(namespace) - {"__builtins__"}) == \
        sorted(repro.core.__all__)
    assert namespace["JobRequest"] is importlib.import_module(
        "repro.core.parallel").JobRequest


def test_unknown_name_is_an_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        repro.core.nonexistent
    with pytest.raises(ImportError):
        exec("from repro.machine import nonexistent", {})


def test_importing_a_package_loads_none_of_its_submodules():
    probe = ("import json, sys\n"
             "import repro.core, repro.machine, repro.sim\n"
             "print(json.dumps(sorted(name for name in sys.modules\n"
             "                        if name.startswith('repro'))))\n")
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, check=True)
    assert json.loads(done.stdout) == [
        "repro", "repro._lazy", "repro.core", "repro.machine", "repro.sim"]
