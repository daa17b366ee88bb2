import json
import os
from collections import Counter

from perfbench import inputs

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_generators_are_deterministic_per_seed():
    for name in inputs.WORKLOADS:
        assert inputs.generate(name, 7) == inputs.generate(name, 7)
        assert inputs.generate(name, 7) != inputs.generate(name, 8)


def test_points_cell_counts_and_ranges():
    ops = inputs.points(3)
    assert len(ops) == 40
    assert Counter((op["scheme"], op["resource"]) for op in ops) == Counter(inputs.POINT_COUNTS)
    assert all(1.0 <= op["nbar"] <= 50.0 and 0.0 <= op["loss_rate"] <= 0.6 for op in ops)
    kinds = Counter(op["loss_kind"] for op in ops if (op["scheme"], op["resource"]) == ("double-hd", "csv"))
    assert kinds == Counter({"symmetric": 4, "one-arm": 4})


def test_default_seed_uses_canonical_inputs():
    sweep = inputs.sweep(inputs.DEFAULT_SEED)
    assert len(sweep) == 48
    assert all(argv[argv.index("--nbar") + 1] == "7.0" for argv in sweep[:24])
    assert all(argv[argv.index("--rate") + 1] == "0.2" for argv in sweep[24:])
    rows = sum(int(argv[argv.index("--points") + 1]) for argv in sweep)
    assert rows == 864
    assert {op["nbar"] for op in inputs.thresholds(inputs.DEFAULT_SEED)} == {10.0}
    assert len(inputs.THRESHOLD_TABLE) == 12


def test_round_order_repeats_threshold_entries_that_hold_a_quantile():
    assert inputs.round_order("points", inputs.points(3)) == list(range(40))
    ops = inputs.thresholds(3)
    counts = Counter(inputs.round_order("thresholds", ops))
    runs = {i: 7 for i, op in enumerate(ops) if op["resource"] != "csv" or op["scheme"] == "qfi"}
    runs.update({i: 1 + (op["scheme"] == "double-hd") for i, op in enumerate(ops) if i not in runs})
    assert sorted(runs.values()) == [1, 1, 2, 2] + [7] * 8
    assert counts == runs


def test_reference_was_made_from_the_default_seed_inputs():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    for name in inputs.WORKLOADS:
        ops = json.loads(json.dumps(inputs.generate(name, inputs.DEFAULT_SEED)))
        assert reference[name]["inputs"] == ops
        assert len(reference[name]["outputs"]) == len(ops)
