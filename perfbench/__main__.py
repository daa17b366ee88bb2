"""Benchmark entry point.

    python3 -m perfbench --workload points --seed 0 --seconds 10 --trace 0

Runs from the repository root.  Each workload runs in a fresh worker
process (``perfbench.worker``) with the program imported from ``src``,
BLAS threads pinned and ``MZI_LAB_THREADS=1``.  Set-up is timed in
``SETUP_SAMPLES`` fresh processes and reported as their median.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``,
or with ``--trace 1`` its per-layer metrics).  ``--workload all`` runs the
four workloads one after another and ends with one combined object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from . import hostspeed
from .inputs import DEFAULT_SEED, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PROGRAM = os.path.join(ROOT, "src", "mzi_lab", "__init__.py")
WORKDIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 3
BLAS_THREADS = 1


class BenchError(Exception):
    pass


def child_env():
    """The environment every worker runs in, pinned rather than inherited."""
    threads = str(BLAS_THREADS)
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    env["MZI_LAB_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env


def _worker_cmd(args, setup_only):
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", WORKDIR]
    return cmd + ["--setup-only"] if setup_only else cmd


def _run_worker(cmd, env):
    """Run one worker to its end; returns the seconds until it printed ``ready`` and its output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(cmd[3:])} exited with {proc.returncode}")
    return setup, out


def run_workload(args, env):
    """Set-up samples plus one measured run; returns the worker's result dict."""
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [_run_worker(_worker_cmd(args, True), env)[0] for _ in range(probes)]
    setup, out = _run_worker(_worker_cmd(args, False), env)
    setups.append(setup)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def metric_values(result, spec, trace):
    """``{name: {"value", "unit"}}`` for every metric BENCHMARK.json lists."""
    source = result["per_layer"] if trace else result
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}


def report(result, metrics, trace):
    """Human-readable block: every metric with its unit and sample count."""
    w, n = result["workload"], result["requests"]
    print(f"== {w} (seed {result['env']['seed']}, trace {trace}, {result['rounds']} round(s) of "
          f"{result['distinct_ops']} distinct requests, {n} requests, {result['attempted']} ops "
          f"in {result['busy_s']:.3f} s)")
    samples = {"setup_s": len(result["setup_samples_s"]), "peak_rss_mb": 1}
    for name, m in metrics.items():
        raw = "" if trace or name not in result["raw"] else f"  raw {result['raw'][name]:.6g}"
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']:6s} (n={samples.get(name, result['attempted'])}){raw}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':48s} {frac:>16.6g} {'1':6s} (n={result['attempted']}, failed={result['failed']})")
    if trace and result["absent"]:
        print(f"  absent from the program, reported as 0: {', '.join(result['absent'])}")
    print(f"  host-speed probe: median {result['probe_ms']:.4f} ms over {result['probe_runs']} runs "
          f"(timings are scaled to {1e3 * hostspeed.NOMINAL_S:g} ms)")
    print(f"  env: {json.dumps(result['env'])}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like Ctrl-C, so running workers are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not os.path.isfile(PROGRAM):
            raise BenchError(f"program sources not found at {os.path.relpath(PROGRAM, ROOT)}")
        with open(SPEC, encoding="utf-8") as handle:
            spec = json.load(handle)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        os.makedirs(WORKDIR, exist_ok=True)
        env = child_env()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            args.workload = name
            result = run_workload(args, env)
            metrics = metric_values(result, spec, args.trace)
            report(result, metrics, args.trace)
            with open(os.path.join(WORKDIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json"), "w",
                      encoding="utf-8") as handle:
                json.dump(result, handle, indent=1)
            line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
                    "failed": result["failed"], "metrics": metrics}
            combined["correct"] &= line["correct"]
            combined["attempted"] += line["attempted"]
            combined["failed"] += line["failed"]
            combined["metrics"].update({f"{name}.{k}": v for k, v in metrics.items()})
        print(json.dumps(line if len(names) == 1 else combined))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
