"""Tests of the benchmark itself.

Run from the repository root (not part of the tier-1 suite, which
collects only ``tests/``)::

    python3 -m pytest perfbench/test_harness.py -q
"""

import json
import os
import re
import sys
import threading
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from repro import backends  # noqa: E402
from repro.backends import FusedBackend  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_valid():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert BENCHMARK["command"][1] == "perfbench/harness.py"
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60

    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert 2 <= len(names) <= 8
    assert names == list(workloads.WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]

    end_to_end = BENCHMARK["end_to_end"]
    per_layer = BENCHMARK["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    every = names + [m["name"] for m in end_to_end + per_layer]
    assert len(every) == len(set(every)), "names must be unique"
    for name in every:
        assert NAME.match(name), name

    bounds = {m["name"]: m["bound"] for m in end_to_end}
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"])
        assert (metric["unit"], metric["better"]) == \
            workloads.END_TO_END[metric["name"]]
        assert 0 < metric["bound"] <= 0.25
    assert [m["name"] for m in end_to_end] == list(workloads.END_TO_END)
    assert bounds["setup_s"] == max(bounds.values())

    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"])
        unit, better, moves = workloads.PER_LAYER[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
        assert moves in bounds, f"{metric['name']} must move a gated metric"
    assert [m["name"] for m in per_layer] == list(workloads.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name):
    """A traced run yields both the end-to-end and the per-layer line."""
    outcome = workloads.run(name, seed=0, seconds=0.1, tracer=layers.Tracer())
    assert outcome.correct, outcome.problems
    assert outcome.attempted > 0 and outcome.failed == 0
    for traced, declared in ((False, "end_to_end"), (True, "per_layer")):
        line = harness.result_json([outcome], workloads, traced)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        expected = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        for metric, entry in line["metrics"].items():
            assert np.isfinite(entry["value"]) and entry["value"] > 0, metric
    assert outcome.layer_rows, "the per-layer table has rows"


class _BitFlip(FusedBackend):
    """Fused inference with the lowest bit of one logit flipped."""

    def run(self, pipeline, x):
        out = super().run(pipeline, x)
        out.view(np.uint32)[0, 0] ^= 1
        return out


def test_bit_flipping_backend_counts_failed_ops():
    backends.register("perfbench-bitflip", _BitFlip)
    outcome = workloads.run("infer", seed=0, seconds=0.1,
                            backend="perfbench-bitflip")
    assert outcome.attempted > 0
    assert outcome.failed == outcome.attempted
    assert not outcome.correct


class _Done:
    def result(self, timeout=None):
        return "ok"


class _StallingServer:
    """Answers at once, except one ``submit`` that blocks for 200 ms."""

    def __init__(self, stall_on: int):
        self.calls = 0
        self.stall_on = stall_on
        self.lock = threading.Lock()

    def submit(self, image, network, precision):
        with self.lock:
            self.calls += 1
            stall = self.calls == self.stall_on + 1
        if stall:
            time.sleep(0.2)
        return _Done()


def test_open_loop_times_requests_from_their_due_time():
    due = np.arange(200) * 0.002          # 500 req/s for 0.4 s
    images = np.zeros((200, 1, 2, 2), np.float32)
    keys = [("net", "fixed8")] * 200
    records = workloads.open_loop(_StallingServer(stall_on=20), due, images,
                                  keys)
    latency_ms = np.array([(r.observed - r.due) * 1e3 for r in records])
    stall_start = records[20].due
    before = latency_ms[[r.due < stall_start for r in records]]
    during = latency_ms[[stall_start < r.due < stall_start + 0.18
                         for r in records]]
    assert np.median(before) < 20.0
    # due during the stall, so sent late: measured from due, not from send
    assert np.median(during) > 50.0
    assert during.max() > 150.0
