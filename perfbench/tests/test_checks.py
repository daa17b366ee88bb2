import dataclasses

import mzi_lab

from perfbench import checks, workloads

TMSV_QFI = {"scheme": "qfi", "resource": "tmsv", "nbar": 10.0, "loss_kind": "symmetric"}


def test_point_below_the_qcrb_is_rejected():
    op = {"scheme": "parity", "resource": "tmsv", "nbar": 5.0, "loss_kind": "one-arm", "loss_rate": 0.2}
    point = workloads.run_point(op)
    assert checks.check_point(op, point) == []
    assert checks.check_point(op, point, reference=point.delta2phi) == []
    loss = mzi_lab.LossKind.ONE_ARM.model(0.2)
    below = dataclasses.replace(point, delta2phi=0.99 * checks.qcrb(point.resource, loss))
    assert any("below the QCRB" in p for p in checks.check_point(op, below))


def test_sweep_row_below_the_qcrb_is_rejected(tmp_path):
    runner = workloads.SweepRunner(str(tmp_path))
    try:
        text = runner(["sweep", "--variable", "nbar", "--lo", "1", "--hi", "5", "--points", "2",
                       "--rate", "0.3", "--scheme", "single-hd", "--resource", "tmsv", "coherent"])
    finally:
        runner.close()
    rows = workloads.sweep_rows(text)
    assert len(rows) == 4
    for row in rows:
        assert checks.check_sweep_row(row, reference=float(row["delta2phi"])) == []
        resource = workloads.resource_spec(row["resource"], float(row["nbar"]))
        bound = checks.qcrb(resource, mzi_lab.LossKind.SYMMETRIC.model(0.3))
        perturbed = dict(row, delta2phi=repr(bound * (1.0 - 1e-6)))
        assert any("below the QCRB" in p for p in checks.check_sweep_row(perturbed))
    assert checks.check_sweep_row(dict(rows[0], status="NoOptimum")) == ["status NoOptimum"]


def test_threshold_shifted_by_a_hundredth_is_rejected():
    result = workloads.run_threshold(TMSV_QFI)
    assert checks.check_threshold(TMSV_QFI, result, reference=result.loss_rate) == []
    # Against the reference alone.
    moved = dataclasses.replace(result, loss_rate=result.loss_rate + 0.01)
    assert any("reference" in p for p in checks.check_threshold(TMSV_QFI, moved, reference=result.loss_rate))
    # Against the SNL invariant alone (no reference, as for any other seed).
    lo, hi = result.bracket
    shifted = dataclasses.replace(result, loss_rate=result.loss_rate + 0.01, bracket=(lo + 0.01, hi + 0.01))
    problems = checks.check_threshold(TMSV_QFI, shifted)
    assert any(p.startswith("bracket_lo") for p in problems)


def test_oracle_disagreement_is_rejected():
    rows = [("qfi", 2.0, 2.0 + 1e-7), ("x_a", 0.5, 0.5)]
    assert checks.check_oracle(rows, reference=[2.0, 0.5]) == []
    assert checks.check_oracle([("qfi", 2.0, 2.0 + 1e-5)]) != []
    assert checks.check_oracle(rows, reference=[2.001, 0.5]) != []
