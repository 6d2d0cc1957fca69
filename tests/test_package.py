"""The package namespace: one {module: names} table, each export read off
its module on first access."""

import importlib
import os
import subprocess
import sys

import pytest

import jackideal


def test_each_export_is_its_defining_modules_object():
    assert len(jackideal.__all__) == len(set(jackideal.__all__))
    for module, names in jackideal._EXPORTS.items():
        mod = importlib.import_module("jackideal." + module)
        for name in names.split():
            value = getattr(jackideal, name)
            assert value is getattr(mod, name), name
            assert value.__module__ == mod.__name__, name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from jackideal import *", namespace)
    assert set(jackideal.__all__) <= set(namespace)
    assert set(jackideal.__all__) <= set(dir(jackideal))
    assert "__version__" in dir(jackideal)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        jackideal.no_such_name
    assert not hasattr(jackideal, "ratfunc_")


def test_bare_import_loads_nothing_until_asked():
    """`import jackideal` loads no submodule; an export loads its module and
    what that imports, and a submodule resolves as an attribute.  The
    suites in ideal sit on the integer core alone, and those in identities
    on the Q(beta) layer (ratfunc, symbolic)."""
    src = os.path.dirname(os.path.dirname(jackideal.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, jackideal\n"
         "def loaded():\n"
         "    return sorted(m for m in sys.modules\n"
         "                  if m.startswith('jackideal.'))\n"
         "print(loaded())\n"
         "jackideal.build_basis\n"
         "print(loaded())\n"
         "print(jackideal.ideal.__name__, jackideal.report.Report.__name__)\n"
         "print(loaded())\n"
         "jackideal.verify_pieri\n"
         "print(loaded())"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    core = ["jackideal.basis", "jackideal.jack", "jackideal.partitions",
            "jackideal.sympoly"]
    suites = core + ["jackideal.ideal", "jackideal.operators",
                     "jackideal.report"]
    assert proc.stdout.splitlines() == [
        "[]", repr(core), "jackideal.ideal Report", repr(sorted(suites)),
        repr(sorted(suites + ["jackideal.identities", "jackideal.ratfunc",
                              "jackideal.symbolic"]))]
