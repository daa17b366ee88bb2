"""One workload in one fresh process: ``python3 -m perfbench.worker ...``.

Protocol on standard output: the line ``ready`` once imports, input
generation and an untimed warm-up op are done (the parent times set-up up
to that line), then with ``--setup-only`` nothing more, otherwise one JSON
line with the measurements.  ``python3 -m perfbench`` starts it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from . import checks, hostspeed, inputs, tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
MAX_PROBLEMS = 20


class Workload:
    """Inputs of one workload plus how to run, count, record and check one op."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.ops = inputs.generate(name, seed)
        self.order = inputs.round_order(name, self.ops)
        self.units = lambda out: 1
        self._close = lambda: None
        self.probe_kind = "dense" if name == "oracle" else "interpreted"
        if name == "points":
            self.run, self.warm = workloads.run_point, workloads.warm_gaussian
            self.value = lambda out: out.delta2phi
            self._check = lambda op, out, ref: [checks.check_point(op, out, ref)]
        elif name == "sweep":
            runner = workloads.SweepRunner(workdir)
            self.run, self._close = runner, runner.close
            self.warm = lambda: (workloads.warm_gaussian(), runner.warm())
            self.units = lambda out: len(workloads.sweep_rows(out))
            self.value = lambda out: [float(row["delta2phi"]) for row in workloads.sweep_rows(out)]
            self._check = lambda op, out, ref: [
                checks.check_sweep_row(row, None if ref is None else ref[i])
                for i, row in enumerate(workloads.sweep_rows(out))
            ]
        elif name == "thresholds":
            self.run, self.warm = workloads.run_threshold, workloads.warm_gaussian
            self.value = lambda out: out.loss_rate
            self._check = lambda op, out, ref: [checks.check_threshold(op, out, ref)]
        elif name == "oracle":
            self.run = workloads.run_oracle
            self.warm = lambda: workloads.warm_oracle(inputs.ORACLE_CUTOFF)
            self.value = lambda out: [gauss for _, gauss, _ in out]
            self._check = lambda op, out, ref: [checks.check_oracle(out, ref)]
        else:
            raise ValueError(f"unknown workload {name!r}")
        self.reference = None
        self._first = {}

    def load_reference(self):
        """Compare with ``reference.json``, which holds the default seed's outputs."""
        with open(REFERENCE, encoding="utf-8") as handle:
            ref = json.load(handle)[self.name]
        if ref["inputs"] != json.loads(json.dumps(self.ops)):
            raise RuntimeError(f"reference.json was made from other {self.name} inputs; regenerate it")
        self.reference = ref["outputs"]

    def check(self, i, out):
        """Problem lists, one per unit of ``out``.

        The first run of op ``i`` is checked in full.  Later runs repeat
        the same input and must agree with it to 1e-6 relative.
        """
        value = self.value(out)
        if i not in self._first:
            self._first[i] = value
            return self._check(self.ops[i], out, None if self.reference is None else self.reference[i])
        same = np.allclose(value, self._first[i], rtol=checks.SENSITIVITY_RTOL, atol=0.0)
        return [[] if same else [f"differs from its first run {self._first[i]!r}"]] * self.units(out)

    def close(self):
        self._close()


def summarize(walls, cpus, units):
    """End-to-end metrics from the timings of each distinct op.

    ``walls[i]`` and ``cpus[i]`` hold every timed run of op ``i`` and
    ``units[i]`` its unit count (rows of a sweep invocation, else 1).  An
    op's latency and CPU time are the medians over its runs, so a stretch
    of time in which the host runs slow moves them less than it moves a
    mean.  Throughput is units over the sum of those medians.  Each unit
    of op ``i`` gets latency ``walls[i] / units[i]``; the quantiles
    interpolate at rank ``1 + q * (n - 1)`` of the sorted sample, so they
    never extrapolate.
    """
    lat = [statistics.median(w) for w in walls]
    cpu = [statistics.median(c) for c in cpus]
    total = sum(units)
    per_unit = np.repeat([t / u for t, u in zip(lat, units)], units)
    p50, p90 = np.quantile(per_unit, [0.5, 0.9])
    return {
        "ops_per_s": total / sum(lat),
        "latency_p50_ms": 1e3 * float(p50),
        "latency_p90_ms": 1e3 * float(p90),
        "cpu_ms_per_op": 1e3 * sum(cpu) / total,
    }


def measure(work, seconds, rounds=None, tracer=None):
    """Run whole rounds of the workload's ops, closed loop.

    A round runs the ops in ``work.order``.  Another round starts only if
    it is expected to end within 1.1 ``seconds`` of op time (there is
    always one round), or exactly ``rounds`` rounds run when given.
    Checks and the host-speed probe run between ops, outside the timed
    intervals, with tracing paused.  The metrics are scaled by the probe;
    ``raw`` holds them unscaled.
    """
    n = len(work.ops)
    units = [1] * n
    problems = []
    busy = 0.0
    requests = attempted = failed = done = 0
    probe = hostspeed.Probe(work.probe_kind)
    runs = []
    while True:
        round_start = busy
        for i in work.order:
            probe.between_ops(busy)
            op = work.ops[i]
            if tracer is not None:
                tracer.op_id = requests
                tracer.active = True
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out, error = work.run(op), None
            except Exception as exc:  # a failed op counts; the run goes on
                out, error = None, f"{type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.active = False
            runs.append((i, busy, busy + t1 - t0, c1 - c0))
            busy += t1 - t0
            requests += 1
            if error is None:
                try:
                    found = work.check(i, out)
                except Exception:
                    found = [["check raised " + traceback.format_exc(limit=3)]]
            else:
                found = [[error]]
            units[i] = len(found)
            attempted += len(found)
            for unit_problems in found:
                if unit_problems:
                    failed += 1
                    problems.extend(f"op {i}: {p}" for p in unit_problems)
        done += 1
        if rounds is not None:
            if done == rounds:
                break
        elif busy + (busy - round_start) > 1.1 * seconds:
            break
    probe.between_ops(busy)
    walls, cpus, scaled_walls, scaled_cpus = ([[] for _ in range(n)] for _ in range(4))
    for i, start, end, cpu in runs:
        scale = probe.scale(start, end)
        walls[i].append(end - start)
        cpus[i].append(cpu)
        scaled_walls[i].append(scale * (end - start))
        scaled_cpus[i].append(scale * cpu)
    result = summarize(scaled_walls, scaled_cpus, units)
    result.update({
        "raw": summarize(walls, cpus, units),
        "probe_ms": 1e3 * statistics.median(probe.samples),
        "probe_runs": len(probe.samples),
        "op_latency_s": [statistics.median(w) for w in walls],
        "op_units": units,
        "rounds": done,
        "distinct_ops": n,
        "attempted": attempted,
        "failed": failed,
        "requests": requests,
        "busy_s": busy,
        "problems": problems[:MAX_PROBLEMS],
    })
    return result


def environment(seed):
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "mzi_lab_threads": os.environ.get("MZI_LAB_THREADS"),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = Workload(args.workload, args.seed, args.workdir)
    if args.seed == inputs.DEFAULT_SEED:
        work.load_reference()
    try:
        work.warm()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed)}
        if args.trace:
            untraced = measure(work, args.seconds, rounds=1)
            tracer = tracing.Tracer()
            tracer.install()
            traced = measure(work, args.seconds, rounds=1, tracer=tracer)
            summary = tracing.summarize(tracer)
            result.update(traced)
            result["per_layer"] = tracing.per_layer_metrics(
                summary, traced["ops_per_s"] / untraced["ops_per_s"]
            )
            result["absent"] = tracer.absent
            result["spans"] = len(tracer.layer)
            spans_path = os.path.join(args.workdir, f"spans-{args.workload}-seed{args.seed}.csv.gz")
            tracer.write(spans_path)
            result["spans_file"] = os.path.relpath(spans_path, ROOT)
        else:
            result.update(measure(work, args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        work.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
