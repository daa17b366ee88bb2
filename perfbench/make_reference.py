"""Record this program's outputs for the default seed into ``reference.json``.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=2 python3 -m perfbench.make_reference

Run it only when the benchmark's inputs change; the reference pins the
program's results, so regenerating it after a program change hides drift.
"""

from __future__ import annotations

import json
import os

from . import inputs
from .worker import REFERENCE, ROOT, Workload


def main():
    reference = {}
    workdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(workdir, exist_ok=True)
    for name in inputs.WORKLOADS:
        work = Workload(name, inputs.DEFAULT_SEED, workdir)
        try:
            outputs = [work.value(work.run(op)) for op in work.ops]
        finally:
            work.close()
        reference[name] = {"inputs": work.ops, "outputs": outputs}
        print(f"{name}: {len(outputs)} ops recorded", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
