import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

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


def test_every_exported_name_is_used():
    # A name in a module's __all__ must be used by the program or the benchmark:
    # on a line of src/mzi_lab or perfbench that is not its own def or class
    # line, not an __all__ entry, and not in the package's __init__.
    package = Path(mzi_lab.__file__).parent
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    files += sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    lines = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        skip = set()
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                skip.update(range(node.lineno, node.end_lineno + 1))
        lines += [line for number, line in enumerate(text.splitlines(), 1) if number not in skip]
    unused = []
    for name in MODULES:
        for export in getattr(importlib.import_module(f"mzi_lab.{name}"), "__all__", []):
            word = re.compile(rf"\b{re.escape(export)}\b")
            own = re.compile(rf"^\s*(def|class)\s+{re.escape(export)}\b")
            if not any(word.search(line) and not own.match(line) for line in lines):
                unused.append(f"{name}.{export}")
    assert unused == []
