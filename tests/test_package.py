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


def test_default_imports_load_neither_scipy_nor_numpy_fft():
    # scipy is only for the double-homodyne Nelder-Mead fallback, imported when it runs.
    code = (
        "import sys, mzi_lab, mzi_lab.cli, mzi_lab.fock, mzi_lab.validate; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.fft')))"
    )
    src = os.path.dirname(os.path.dirname(mzi_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
