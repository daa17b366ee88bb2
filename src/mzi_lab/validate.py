"""Fock-oracle cross-check table behind ``mzi-lab validate``.

Rebuilds a set of small-photon-number configurations in the truncated
number basis and compares parities, quadrature moments, fidelities and
Fisher information against the Gaussian pipeline.  Kept out of the default
command paths: it is a check on them, not a result.
"""

from __future__ import annotations

from . import fock
from .interferometer import InterferometerConfig, LossModel, output_state
from .measurements import parity_expectation
from .qfi import bures_fidelity, qfi_numeric
from .states import Mode, ResourceKind, ResourceSpec, reduce_to_mode, symmetric_moment

_TOL = 1e-6
_PHI = 0.7

_MOMENTS = {
    "x_a": (0,),
    "p_a": (1,),
    "x2_a": (0, 0),
    "p2_a": (1, 1),
    "xx_ab": (0, 2),
    "x4_a": (0, 0, 0, 0),
}


def _configs():
    return [
        ("csv", ResourceSpec.from_energy(ResourceKind.CSV, 1.0, 0.5)),
        ("tmsv", ResourceSpec.from_energy(ResourceKind.TMSV, 1.0)),
        ("coherent", ResourceSpec.from_energy(ResourceKind.COHERENT, 1.0)),
    ]


def run_cross_checks(cutoff):
    """Print the cross-check table; returns the list of failed check labels."""
    losses = [("lossless", LossModel.lossless()), ("eta=0.8", LossModel.symmetric(0.8))]
    rows = []
    for rname, resource in _configs():
        for lname, loss in losses:
            gauss = output_state(InterferometerConfig(resource, _PHI, loss))
            oracle_state = fock.fock_output_state(resource, _PHI, loss, cutoff)
            label = f"{rname} {lname}"
            rows.append(
                (
                    f"parity  {label}",
                    parity_expectation(reduce_to_mode(gauss, Mode.A)),
                    fock.oracle_expectation(oracle_state, "parity_a"),
                )
            )
            for opname, indices in _MOMENTS.items():
                rows.append(
                    (
                        f"{opname:7s} {label}",
                        symmetric_moment(gauss, indices),
                        fock.oracle_expectation(oracle_state, opname),
                    )
                )
    for lname, loss in losses:
        resource = ResourceSpec.from_energy(ResourceKind.TMSV, 1.0)
        s1 = output_state(InterferometerConfig(resource, _PHI, loss))
        s2 = output_state(InterferometerConfig(resource, _PHI + 0.2, loss))
        rows.append(
            (
                f"fidelity tmsv {lname}",
                bures_fidelity(s1, s2),
                fock.uhlmann_fidelity(
                    fock.fock_output_state(resource, _PHI, loss, cutoff),
                    fock.fock_output_state(resource, _PHI + 0.2, loss, cutoff),
                ),
            )
        )
        rows.append(
            (
                f"qfi      tmsv {lname}",
                qfi_numeric(resource, _PHI, loss).qfi,
                fock.oracle_qfi(resource, _PHI, loss, cutoff),
            )
        )

    failures = []
    print(f"{'check':32s} {'gaussian':>18s} {'oracle':>18s} {'|diff|':>10s}  result")
    for name, gauss_value, oracle_value in rows:
        diff = abs(gauss_value - oracle_value)
        ok = diff <= _TOL * max(1.0, abs(oracle_value))
        if not ok:
            failures.append(name)
        # |diff| is printed to the 12 decimals of the value columns: the digits below
        # them move with the BLAS thread count.
        result = "PASS" if ok else "FAIL"
        print(f"{name:32s} {gauss_value:18.12f} {oracle_value:18.12f} {round(diff, 12):10.2e}  {result}")
    print(f"{len(rows) - len(failures)}/{len(rows)} checks passed (tolerance {_TOL:g}, cutoff {cutoff})")
    return failures
