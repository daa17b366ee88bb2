"""Output checks.  Each returns a list of problems; an empty list passes.

Every seed must hold the invariants: a finite δ²φ at or above the quantum
Cramér-Rao bound (QCRB) of the same configuration, a threshold bracket whose
low end beats the shot-noise limit (SNL) and whose high end does not, and
oracle agreement within 1e-6.  For the default seed the outputs must also
match ``reference.json``, this program's own output for that seed.
"""

from __future__ import annotations

import math

import mzi_lab

from .workloads import LOSS_KINDS, RESOURCES, SCHEMES, resource_spec

SENSITIVITY_RTOL = 1e-6
THRESHOLD_ATOL = 2e-3
ORACLE_TOL = 1e-6
QCRB_SLACK = 1e-9


def qcrb(resource: mzi_lab.ResourceSpec, loss: mzi_lab.LossModel) -> float:
    """Quantum Cramér-Rao bound 1/F_Q; the coherent state has no closed form."""
    if resource.kind is mzi_lab.ResourceKind.COHERENT:
        return 1.0 / mzi_lab.qfi_numeric(resource, 0.0, loss).qfi
    return 1.0 / mzi_lab.qfi_closed(resource, loss).qfi


def _sensitivity_problems(delta2phi, resource, loss, reference):
    if not math.isfinite(delta2phi):
        return [f"delta2phi {delta2phi} is not finite"]
    problems = []
    bound = qcrb(resource, loss)
    if delta2phi < bound * (1.0 - QCRB_SLACK):
        problems.append(f"delta2phi {delta2phi!r} below the QCRB {bound!r}")
    if reference is not None and abs(delta2phi - reference) > SENSITIVITY_RTOL * abs(reference):
        problems.append(f"delta2phi {delta2phi!r} differs from the reference {reference!r}")
    return problems


def check_point(op, point, reference=None):
    loss = LOSS_KINDS[op["loss_kind"]].model(op["loss_rate"])
    return _sensitivity_problems(point.delta2phi, point.resource, loss, reference)


def check_sweep_row(row, reference=None):
    """``row`` is one emitted CSV row as a dict of strings."""
    if row["status"] != "ok":
        return [f"status {row['status']}"]
    nbar, mu = float(row["nbar"]), float(row["mu"])
    resource = resource_spec(row["resource"], nbar, None if math.isnan(mu) else mu)
    loss = LOSS_KINDS[row["loss_kind"]].model(float(row["loss_rate"]))
    return _sensitivity_problems(float(row["delta2phi"]), resource, loss, reference)


def check_threshold(op, result, reference=None):
    if result.status != "crossed" or not math.isfinite(result.loss_rate):
        return [f"status {result.status}, loss rate {result.loss_rate}"]
    problems = []
    lo, hi = result.bracket
    target = mzi_lab.snl(op["nbar"])
    for end, rate, should_beat in (("bracket_lo", lo, True), ("bracket_hi", hi, False)):
        value = mzi_lab.scheme_sensitivity(
            SCHEMES[op["scheme"]], RESOURCES[op["resource"]], op["nbar"], LOSS_KINDS[op["loss_kind"]].model(rate)
        ).delta2phi
        if (value < target) != should_beat:
            verb = "does not beat" if should_beat else "beats"
            problems.append(f"{end} {rate!r}: delta2phi {value!r} {verb} the SNL {target!r}")
    if not lo <= result.loss_rate <= hi:
        problems.append(f"loss rate {result.loss_rate!r} outside its bracket {result.bracket}")
    if reference is not None and abs(result.loss_rate - reference) > THRESHOLD_ATOL:
        problems.append(f"loss rate {result.loss_rate!r} differs from the reference {reference!r}")
    return problems


def check_oracle(rows, reference=None):
    """``rows`` are ``(label, gaussian, oracle)``; ``reference`` the gaussian values."""
    problems = []
    for i, (label, gauss, oracle) in enumerate(rows):
        if not (math.isfinite(gauss) and math.isfinite(oracle)):
            problems.append(f"{label}: non-finite {gauss} / {oracle}")
        elif abs(gauss - oracle) > ORACLE_TOL * max(1.0, abs(gauss)):
            problems.append(f"{label}: gaussian {gauss!r} vs oracle {oracle!r}")
        if reference is not None and abs(gauss - reference[i]) > SENSITIVITY_RTOL * max(1.0, abs(reference[i])):
            problems.append(f"{label}: {gauss!r} differs from the reference {reference[i]!r}")
    return problems
