"""Seeded end-to-end and per-layer benchmark for mzi-lab.

Run ``python3 -m perfbench --workload <points|sweep|thresholds|oracle|all>``
from the repository root; see ``perfbench/README.md``.
"""
