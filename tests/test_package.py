import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import mzi_lab

MODULES = sorted(info.name for info in pkgutil.iter_modules(mzi_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"mzi_lab.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def run_fresh(code):
    """Standard output of ``code`` run in a fresh interpreter that imports ``mzi_lab`` from this tree."""
    src = os.path.dirname(os.path.dirname(mzi_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.fft'))"


def test_default_imports_load_neither_scipy_nor_numpy_fft():
    out = run_fresh(f"import sys, mzi_lab, mzi_lab.cli, mzi_lab.fock, mzi_lab.validate; print({LOADED})")
    assert out.strip() == "[]"


def test_a_point_whose_newton_steps_need_the_safeguard_loads_no_scipy():
    # Here the double-homodyne angle search takes safeguarded Newton steps.
    argv = ["point", "--scheme", "double-hd", "--resource", "csv", "--nbar", "1416.469", "--mu", "0.509",
            "--loss", "one-arm", "--rate", "0.479"]
    out = run_fresh(f"import sys; from mzi_lab import cli; code = cli.main({argv!r}); print(code, {LOADED})")
    header, row, status = out.splitlines()
    assert status == "0 []"
    assert dict(zip(header.split(","), row.split(",")))["delta2phi"] == "6.61464216942e-04"
