"""Seeded input generators, one per workload.

Each generator takes the workload seed and returns plain data (numbers and
strings): the program under test only ever sees these generated inputs.
Draws are stratified, so every seed covers the whole parameter range and
the cost of one round of a workload moves little from seed to seed.
``DEFAULT_SEED`` reproduces the canonical inputs named in the README, for
which ``reference.json`` holds this program's outputs.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0
WORKLOADS = ("points", "sweep", "thresholds", "oracle")

SCHEMES = ("qfi", "parity", "single-hd", "double-hd")
RESOURCES = ("csv", "tmsv", "coherent")
LOSS_KINDS = ("symmetric", "one-arm")

#: Points per (scheme, resource) cell in one round of ``points``: 40 in all,
#: and a 20-s run repeats the round 3-7 times.  Sorted by cost, QFI points
#: (< 1.5 ms) fill ranks 1-6, TMSV and coherent points (5-10 ms) ranks 7-30,
#: the CSV parity and single-HD points (0.2-0.46 s) ranks 31-32 and the CSV
#: double-HD points (0.35-1.2 s) ranks 33-40.  The latency quantiles sit at
#: rank 1 + 0.5 * 39 = 20.5 and 1 + 0.9 * 39 = 36.1 (see ``perfbench.worker``):
#: p50 in the middle of the 5-10 ms class and p90 in the middle of the
#: double-HD class, never on a boundary between two classes.
POINT_COUNTS = {
    **{("qfi", r): 2 for r in RESOURCES},
    **{(s, r): 4 for s in SCHEMES[1:] for r in ("tmsv", "coherent")},
    ("parity", "csv"): 1,
    ("single-hd", "csv"): 1,
    ("double-hd", "csv"): 8,
}

#: Criterion 3's threshold table: (scheme, resource, loss kind).
THRESHOLD_TABLE = tuple(
    (scheme, resource, loss_kind)
    for scheme in ("qfi", "single-hd", "double-hd")
    for loss_kind in LOSS_KINDS
    for resource in ("tmsv", "csv")
)

ORACLE_CUTOFF = 28
ORACLE_PHI_STEP = 0.2


def _strata(rng, count, lo, hi, digits):
    """One uniform draw from each of ``count`` equal slices of [lo, hi], shuffled."""
    width = (hi - lo) / count
    values = [round(lo + width * (i + rng.random()), digits) for i in range(count)]
    rng.shuffle(values)
    return values


def points(seed: int):
    """Independent ``scheme_sensitivity`` calls with fixed per-cell counts.

    n̄ in [1, 50], loss rate in [0, 0.6], loss kind split evenly per cell.
    """
    rng = random.Random(f"points:{seed}")
    ops = []
    for (scheme, resource), count in POINT_COUNTS.items():
        kinds = [LOSS_KINDS[i % 2] for i in range(count)]
        rng.shuffle(kinds)
        nbars = _strata(rng, count, 1.0, 50.0, 4)
        rates = _strata(rng, count, 0.0, 0.6, 4)
        for nbar, rate, kind in zip(nbars, rates, kinds):
            ops.append(
                {"scheme": scheme, "resource": resource, "nbar": nbar, "loss_kind": kind, "loss_rate": rate}
            )
    rng.shuffle(ops)
    return ops


def sweep(seed: int):
    """Figure-style ``mzi-lab sweep`` invocations (argument lists without ``--out``).

    Loss sweeps (21 points over [0, 0.6]) at a fixed n̄ under symmetric and
    one-arm loss, then n̄ sweeps (15 points over [1, 50]) at a fixed loss
    rate under both loss kinds, each for every scheme and resource: 864 rows.
    The default seed uses n̄ = 7 and rate 0.2, the rows of presets ``a1``,
    ``a2``, ``2b``, ``3b``-``5b`` and the one-arm n̄ panels ``2e``,
    ``3d``-``5d``.  Each invocation holds one (scheme, resource) curve: μ
    warm starts run per (scheme, resource) within a chunk, so the rows are
    those of the presets, and the 48 invocations give 48 latency values
    instead of 10.
    """
    if seed == DEFAULT_SEED:
        nbar, rate = 7.0, 0.2
    else:
        rng = random.Random(f"sweep:{seed}")
        nbar = round(rng.uniform(6.0, 8.0), 2)
        rate = round(rng.uniform(0.15, 0.25), 3)
    invocations = []
    for loss_kind in LOSS_KINDS:
        for scheme in SCHEMES:
            for resource in RESOURCES:
                invocations.append(
                    ["sweep", "--variable", "loss-rate", "--lo", "0", "--hi", "0.6", "--points", "21",
                     "--nbar", repr(nbar), "--loss", loss_kind, "--scheme", scheme, "--resource", resource]
                )
    for scheme in SCHEMES:
        for loss_kind in LOSS_KINDS:
            for resource in RESOURCES:
                invocations.append(
                    ["sweep", "--variable", "nbar", "--lo", "1", "--hi", "50", "--points", "15",
                     "--rate", repr(rate), "--loss", loss_kind, "--scheme", scheme, "--resource", resource]
                )
    return invocations


def thresholds(seed: int):
    """The 12-entry ``snl_threshold`` table at one n̄ (10 for the default seed)."""
    nbar = 10.0 if seed == DEFAULT_SEED else round(random.Random(f"thresholds:{seed}").uniform(9.5, 10.5), 2)
    return [
        {"scheme": scheme, "resource": resource, "nbar": nbar, "loss_kind": loss_kind}
        for scheme, resource, loss_kind in THRESHOLD_TABLE
    ]


def oracle(seed: int):
    """Fock-oracle cross-checks: each resource lossless and with symmetric loss.

    n̄ in [0.3, 0.5], CSV squeezing fraction in [0.3, 0.7], transmissivity
    in [0.6, 0.95], phase in [0.1, 1.5]; cutoff 28 throughout.
    """
    rng = random.Random(f"oracle:{seed}")
    configs = []
    for resource in RESOURCES:
        for lossy in (False, True):
            configs.append(
                {
                    "resource": resource,
                    "nbar": round(rng.uniform(0.3, 0.5), 4),
                    "mu": round(rng.uniform(0.3, 0.7), 4) if resource == "csv" else None,
                    "eta": round(rng.uniform(0.6, 0.95), 4) if lossy else 1.0,
                    "phi": round(rng.uniform(0.1, 1.5), 4),
                    "cutoff": ORACLE_CUTOFF,
                    "phi_step": ORACLE_PHI_STEP,
                }
            )
    return configs


def round_order(workload: str, ops):
    """Indices of ``ops`` in the order one round runs them.

    Every op runs once, except on ``thresholds``.  There the two CSV
    double-HD entries (4-5 s each), which hold p90, run twice, and the
    eight cheap entries (QFI and TMSV, under 0.1 s), which hold p50, run
    at the start and after each CSV homodyne run, seven times in all.  So
    both quantiles rest on medians of runs spread over the whole round.
    """
    if workload != "thresholds":
        return list(range(len(ops)))
    heavy = [i for i, op in enumerate(ops) if op["resource"] == "csv" and op["scheme"] != "qfi"]
    cheap = [i for i in range(len(ops)) if i not in heavy]
    order = list(cheap)
    for i in heavy + [i for i in heavy if ops[i]["scheme"] == "double-hd"]:
        order += [i] + cheap
    return order


GENERATORS = {"points": points, "sweep": sweep, "thresholds": thresholds, "oracle": oracle}


def generate(workload: str, seed: int):
    return GENERATORS[workload](seed)
