"""How one op of each workload calls mzi-lab, and the untimed warm-ups.

The runners take one generated input and return the program's raw output;
``perfbench.worker`` times them and ``perfbench.checks`` checks them.
"""

from __future__ import annotations

import os
import tempfile

import mzi_lab
from mzi_lab import cli, fock

CSV = mzi_lab.ResourceKind.CSV
SCHEMES = {s.value: s for s in mzi_lab.Scheme}
RESOURCES = {k.value: k for k in mzi_lab.ResourceKind}
LOSS_KINDS = {k.value: k for k in mzi_lab.LossKind}

#: Moments compared between the Fock oracle and the Gaussian pipeline.
MOMENTS = {"x_a": (0,), "p_a": (1,), "x2_a": (0, 0), "xx_ab": (0, 2), "x4_a": (0, 0, 0, 0)}


def resource_spec(kind: str, nbar: float, mu=None):
    return mzi_lab.ResourceSpec.from_energy(RESOURCES[kind], nbar, mu)


# -- points -------------------------------------------------------------------


def run_point(op):
    return mzi_lab.scheme_sensitivity(
        SCHEMES[op["scheme"]],
        RESOURCES[op["resource"]],
        op["nbar"],
        LOSS_KINDS[op["loss_kind"]].model(op["loss_rate"]),
    )


def warm_gaussian():
    # A fixed-mu CSV double-homodyne point imports scipy.optimize lazily
    # (Nelder-Mead) and exercises every pipeline stage once.
    mzi_lab.scheme_sensitivity(
        SCHEMES["double-hd"], CSV, 5.0, mzi_lab.LossModel.symmetric(0.9), mu=0.5
    )


# -- sweep --------------------------------------------------------------------


class SweepRunner:
    """Runs ``mzi-lab sweep`` in-process, writing to a scratch file it owns."""

    def __init__(self, workdir):
        self._dir = tempfile.mkdtemp(prefix="sweep-", dir=workdir)
        self.path = os.path.join(self._dir, "rows.csv")

    def __call__(self, argv):
        code = cli.main(list(argv) + ["--out", self.path])
        if code != 0:
            raise RuntimeError(f"mzi-lab {' '.join(argv)} exited with {code}")
        with open(self.path, encoding="utf-8") as handle:
            return handle.read()

    def warm(self):
        self(["sweep", "--variable", "loss-rate", "--lo", "0", "--hi", "0.1", "--points", "2", "--nbar", "2.0"])

    def close(self):
        if os.path.exists(self.path):
            os.remove(self.path)
        os.rmdir(self._dir)


def sweep_rows(text):
    """Parse emitted CSV text into dicts of strings."""
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# -- thresholds ---------------------------------------------------------------


def run_threshold(op):
    return mzi_lab.snl_threshold(
        SCHEMES[op["scheme"]], RESOURCES[op["resource"]], op["nbar"], LOSS_KINDS[op["loss_kind"]]
    )


# -- oracle -------------------------------------------------------------------


def run_oracle(op):
    """One Fock-oracle cross-check; returns ``(label, gaussian, oracle)`` triples."""
    resource = resource_spec(op["resource"], op["nbar"], op["mu"])
    loss = mzi_lab.LossModel.symmetric(op["eta"])
    phi, phi2, cutoff = op["phi"], op["phi"] + op["phi_step"], op["cutoff"]
    cfg = mzi_lab.InterferometerConfig(resource, phi, loss)
    gauss = mzi_lab.output_state(cfg)
    state = fock.fock_output_state(resource, phi, loss, cutoff)
    rows = [
        (
            "parity_a",
            mzi_lab.parity_expectation(mzi_lab.output_mode_a(cfg)),
            fock.oracle_expectation(state, "parity_a"),
        )
    ]
    for name, indices in MOMENTS.items():
        rows.append((name, mzi_lab.symmetric_moment(gauss, indices), fock.oracle_expectation(state, name)))
    rows.append(
        ("qfi", mzi_lab.qfi_numeric(resource, phi, loss).qfi, fock.oracle_qfi(resource, phi, loss, cutoff))
    )
    rows.append(
        (
            "fidelity",
            mzi_lab.bures_fidelity(gauss, mzi_lab.output_state(mzi_lab.InterferometerConfig(resource, phi2, loss))),
            fock.uhlmann_fidelity(state, fock.fock_output_state(resource, phi2, loss, cutoff)),
        )
    )
    return rows


def warm_oracle(cutoff):
    # Fills the beam-splitter unitary cache for this cutoff.
    resource = resource_spec("coherent", 0.3)
    state = fock.fock_output_state(resource, 0.5, mzi_lab.LossModel.lossless(), cutoff)
    fock.oracle_expectation(state, "parity_a")
