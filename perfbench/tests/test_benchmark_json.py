"""BENCHMARK.json names exactly the metrics the code emits."""

import json
from pathlib import Path

from layers import PER_LAYER
from run import END_TO_END
from workloads import PROFILES

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(PROFILES)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(SPEC["end_to_end"], key=lambda m: m["bound"])["bound"] == \
        next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def test_per_layer_metrics_match():
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["per_layer"]} == PER_LAYER
