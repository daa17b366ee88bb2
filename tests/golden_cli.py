"""Golden CLI table: stdout, stderr and exit code of a fixed list of ``mzi-lab`` invocations.

Each invocation's record is ``tests/golden/<name>.txt``.  Beside them,
``tests/golden/figures/<label>.csv`` holds the CSV of ``mzi-lab sweep --figure
<label>`` for each of the 24 figure presets, and ``tests/golden/thresholds.csv``
the 12-entry ``threshold`` table at n̄ = 10.  ``tests/test_golden_cli.py``
reruns every invocation and compares bytes.  A change that moves an emitted
number regenerates the files and shows the move as a diff::

    PYTHONPATH=src python tests/golden_cli.py

``COLUMNS`` is pinned, so argparse wraps ``--help`` the same on every terminal.
The presets and the threshold table, about 20 s of CPU time, are spread over two
worker processes; their output does not depend on which worker runs them.
"""

from __future__ import annotations

import contextlib
import io
import multiprocessing
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
COLUMNS = "80"

_SCHEMES = ("qfi", "parity", "single-hd", "double-hd")
_CSV = ("--resource", "csv")


def _point(*args):
    return ("point",) + args


INVOCATIONS = [
    # every (scheme, resource) cell under both loss kinds
    *(
        _point("--scheme", scheme, "--resource", resource, "--loss", loss, "--rate", "0.2")
        for loss in ("symmetric", "one-arm")
        for scheme in _SCHEMES
        for resource in ("csv", "tmsv", "coherent")
    ),
    *(_point("--scheme", scheme, *_CSV, "--rate", "0.2", "--fixed-mu") for scheme in _SCHEMES),
    *(_point("--scheme", scheme, *_CSV, "--loss", "one-arm", "--rate", "0.1", "--mu", "0.5") for scheme in _SCHEMES),
    _point("--scheme", "qfi", *_CSV, "--nbar", "3", "--loss", "one-arm", "--rate", "0.1", "--format", "jsonl"),
    # usage errors
    _point("--scheme", "qfi", "--resource", "tmsv", "--nbar", "0"),
    _point("--scheme", "qfi", "--resource", "tmsv", "--nbar", "-1"),
    _point("--scheme", "parity", *_CSV, "--nbar", "inf"),
    _point("--scheme", "single-hd", "--resource", "tmsv", "--nbar", "nan"),
    _point("--scheme", "qfi", "--resource", "tmsv", "--rate", "1.5"),
    _point("--scheme", "single-hd", *_CSV, "--mu", "1.5"),
    _point("--scheme", "sorcery", *_CSV),
    _point("--scheme", "qfi"),
    # negative numbers in exponent form and -inf, as separate arguments
    _point("--scheme", "qfi", "--resource", "tmsv", "--rate", "-1e-3"),
    _point("--scheme", "qfi", "--resource", "tmsv", "--nbar", "-inf"),
    _point("--scheme", "single-hd", *_CSV, "--mu", "-1e-3"),
    # numeric failures
    _point("--scheme", "single-hd", *_CSV, "--nbar", "1e300"),
    _point("--scheme", "qfi", *_CSV, "--nbar", "1e300"),
    _point("--scheme", "double-hd", "--resource", "tmsv", "--nbar", "1e16", "--rate", "0.2"),
    ("threshold", "--scheme", "qfi", "--resource", "tmsv"),
    ("threshold", "--scheme", "qfi", "--resource", "coherent"),
    ("threshold", "--scheme", "single-hd", "--resource", "tmsv", "--loss", "one-arm", "--format", "jsonl"),
    ("threshold", "--scheme", "qfi", "--resource", "tmsv", "--tol", "0"),
    ("threshold", "--scheme", "qfi", "--resource", "tmsv", "--tol", "-1e-3"),
    ("threshold", "--scheme", "qfi", "--resource", "tmsv", "--nbar", "1e300"),
    ("sweep", "--variable", "loss-rate", "--lo", "0", "--hi", "0.4", "--points", "3", "--scheme", "qfi", "single-hd"),
    ("sweep", "--variable", "nbar", "--lo", "1", "--hi", "5", "--points", "3", "--scheme", "parity", "--resource",
     "tmsv", "coherent", "--loss", "one-arm", "--rate", "0.1", "--format", "jsonl"),
    ("sweep", "--variable", "nbar", "--lo", "-1e-3", "--hi", "1", "--points", "2", "--scheme", "qfi", "--resource",
     "tmsv"),
    ("sweep", "--variable", "loss-rate", "--lo", "inf", "--hi", "1"),
    ("sweep",),
    ("validate",),
    ("validate", "--cutoff", "20"),
    ("validate", "--cutoff", "30"),
    ("validate", "--cutoff", "101"),
    ("--help",),
    ("point", "--help"),
    ("sweep", "--help"),
    ("threshold", "--help"),
]

#: The threshold table of acceptance criterion 3: every (scheme, loss kind, resource) cell at n̄ = 10.
THRESHOLDS = [
    ("threshold", "--scheme", scheme, "--resource", resource, "--loss", loss)
    for scheme in ("qfi", "single-hd", "double-hd")
    for loss in ("symmetric", "one-arm")
    for resource in ("tmsv", "csv")
]


def name(argv):
    """File stem of an invocation: its arguments joined by ``_``, each option without its ``--``."""
    return "_".join(re.sub(r"^--", "", arg) for arg in argv)


def record(argv):
    """The record of one in-process invocation: the command line, exit code, stdout and stderr."""
    from mzi_lab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    return f"$ mzi-lab {' '.join(argv)}\nexit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _stdout(argv):
    """Stdout of an in-process invocation that must succeed."""
    from mzi_lab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"mzi-lab {' '.join(argv)} exited {code}")
    return out.getvalue()


def _threshold_table():
    outputs = [_stdout(argv).splitlines(keepends=True) for argv in THRESHOLDS]
    return "".join(outputs[0][:1] + [row for lines in outputs for row in lines[1:]])  # one header


def tables():
    """The presets and the threshold table, as ``{path relative to GOLDEN: text}``."""
    from mzi_lab.cli import figure_presets

    labels = sorted(figure_presets())
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        thresholds = pool.submit(_threshold_table)
        figures = pool.map(_stdout, [("sweep", "--figure", label) for label in labels])
        texts = {f"figures/{label}.csv": text for label, text in zip(labels, figures)}
        texts["thresholds.csv"] = thresholds.result()
    return texts


def table_paths():
    return sorted([*GOLDEN.glob("figures/*.csv"), GOLDEN / "thresholds.csv"])


def main():
    os.environ["COLUMNS"] = COLUMNS
    (GOLDEN / "figures").mkdir(parents=True, exist_ok=True)
    stale = set(GOLDEN.glob("*.txt")) | set(table_paths())
    for argv in INVOCATIONS:
        path = GOLDEN / f"{name(argv)}.txt"
        path.write_text(record(argv), encoding="utf-8", newline="\n")
        stale.discard(path)
    for relative, text in tables().items():
        path = GOLDEN / relative
        path.write_text(text, encoding="utf-8", newline="\n")
        stale.discard(path)
    for path in stale:
        path.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
