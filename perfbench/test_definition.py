"""BENCHMARK.json must describe what perfbench/run.py measures.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFINITION = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [(w["name"], w["why"]) for w in DEFINITION["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in DEFINITION["end_to_end"]} == \
        run.END_TO_END


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"], m["better"])
            for m in DEFINITION["per_layer"]] == \
        [(name, spec[0], spec[1])
         for name, spec in spans.LAYER_METRICS.items()]


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(99))) is None
    assert run.tail_percentile(list(range(100))) == (90, 89)
    assert run.tail_percentile(list(range(1000)))[0] == 99
