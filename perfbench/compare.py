"""Regression gate over harness output; bounds come from BENCHMARK.json.

Usage::

    python3 perfbench/compare.py                    # run, write, compare
    python3 perfbench/compare.py --update-baseline  # run, record baseline
    python3 perfbench/compare.py --skip-run         # compare existing --output
    python3 perfbench/compare.py --self-test        # prove the gate trips

A workload fails the gate when any end-to-end metric is worse than the
baseline by more than its ``bound`` (a share of the baseline value, in
the metric's ``better`` direction), when its share of failed operations
rises, or when a correctness check failed.  One run against a baseline
recorded on the same host is the quick check; a gain or a regression is
only established by interleaved runs of both commits (see README.md).

Exit status 0 on pass, 1 on regression or a failed run.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
BASELINE_PATH = os.path.join(HERE, "baseline.json")
OUTPUT_PATH = os.path.join(HERE, "results", "current.json")

#: Absolute rise in the failed-operations share the gate tolerates.
FAILED_SLACK = 0.001

Gates = Dict[str, Tuple[str, float]]


def load_gates(path: str = BENCHMARK_PATH) -> Gates:
    """End-to-end metric -> (better, bound) from BENCHMARK.json."""
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: (m["better"], float(m["bound"]))
            for m in spec["end_to_end"]}


def worsening(better: str, base: float, current: float) -> float:
    """How much worse ``current`` is than ``base``, as a share of base."""
    change = (current - base) / base
    return change if better == "lower" else -change


def _failed_share(result: dict) -> float:
    return result["failed"] / max(result["attempted"], 1)


def compare(current: dict, baseline: dict, gates: Gates) -> List[str]:
    """Human-readable regressions of ``current`` against ``baseline``."""
    failures = []
    for name, base in sorted(baseline["workloads"].items()):
        result = current["workloads"].get(name)
        if result is None:
            failures.append(f"{name}: missing from current run")
            continue
        if not result["correct"]:
            failures.append(f"{name}: correctness check failed: "
                            f"{'; '.join(result['problems']) or 'unknown'}")
        share, base_share = _failed_share(result), _failed_share(base)
        if share > base_share + FAILED_SLACK:
            failures.append(f"{name}: failed ops {100 * base_share:.2f}% -> "
                            f"{100 * share:.2f}%")
        for metric, (better, bound) in sorted(gates.items()):
            base_value = base["metrics"]["untraced"][metric]["value"]
            value = result["metrics"]["untraced"][metric]["value"]
            worse = worsening(better, base_value, value)
            if worse > bound:
                failures.append(
                    f"{name}.{metric}: {base_value:.6g} -> {value:.6g} "
                    f"({100 * worse:.1f}% worse, bound {100 * bound:.0f}%)")
    return failures


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def self_test(baseline: dict, gates: Gates) -> None:
    """Trip every metric on every workload, plus failures and correctness."""
    _expect(compare(baseline, baseline, gates) == [],
            "the baseline must pass against itself")
    caught = 0
    for name, base in sorted(baseline["workloads"].items()):
        for metric, (better, bound) in sorted(gates.items()):
            value = base["metrics"]["untraced"][metric]["value"]
            for share, must_fail in ((bound + 0.01, True), (bound / 2, False)):
                perturbed = copy.deepcopy(baseline)
                worse = value * (1 + share if better == "lower" else 1 - share)
                perturbed["workloads"][name]["metrics"]["untraced"][metric][
                    "value"] = worse
                failures = compare(perturbed, baseline, gates)
                hit = any(f.startswith(f"{name}.{metric}:") for f in failures)
                _expect(hit == must_fail and (hit or not failures),
                        f"{name}.{metric} moved {100 * share:.1f}% the bad "
                        f"way: expected {'a' if must_fail else 'no'} "
                        f"failure, got {failures}")
                caught += must_fail

        failing = copy.deepcopy(baseline)
        result = failing["workloads"][name]
        result["failed"] = int(result["failed"] + 0.01 * result["attempted"]) + 1
        _expect(any("failed ops" in f
                    for f in compare(failing, baseline, gates)),
                f"{name}: a rise in failed operations must fail the gate")

        wrong = copy.deepcopy(baseline)
        wrong["workloads"][name]["correct"] = False
        wrong["workloads"][name]["problems"] = ["injected mismatch"]
        _expect(any("correctness" in f
                    for f in compare(wrong, baseline, gates)),
                f"{name}: a correctness mismatch must fail the gate")
        caught += 2
    print(f"[perfbench] self-test passed: {caught} injected regressions caught "
          f"across {len(baseline['workloads'])} workloads, and every "
          "within-bound perturbation passed")


def run_harness(output: str) -> int:
    command = [sys.executable, os.path.join(HERE, "harness.py"), "--seed", "0",
               "--out", output]
    print(f"[perfbench] running {' '.join(command)}", flush=True)
    if os.path.exists(output):
        os.remove(output)  # never compare a stale result
    return subprocess.run(command, cwd=ROOT).returncode


def _write(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=BASELINE_PATH)
    parser.add_argument("--output", default=OUTPUT_PATH)
    parser.add_argument("--skip-run", action="store_true",
                        help="compare an existing --output instead of running")
    parser.add_argument("--update-baseline", action="store_true",
                        help="record the current run as the baseline")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate trips on injected regressions")
    args = parser.parse_args(argv)
    gates = load_gates()

    if args.self_test:
        with open(args.baseline, encoding="utf-8") as handle:
            self_test(json.load(handle), gates)
        return 0

    if not args.skip_run:
        code = run_harness(args.output)
        if code not in (0, 1) or not os.path.exists(args.output):
            print(f"[perfbench] harness failed (exit {code})")
            return 1
    with open(args.output, encoding="utf-8") as handle:
        current = json.load(handle)

    if args.update_baseline:
        broken = [n for n, w in current["workloads"].items() if not w["correct"]]
        if broken:
            print(f"[perfbench] not recording a baseline: {broken} failed "
                  "their correctness checks")
            return 1
        _write(args.baseline, current)
        print(f"[perfbench] baseline updated: {args.baseline}")
        return 0

    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures = compare(current, baseline, gates)
    if failures:
        print("[perfbench] REGRESSIONS DETECTED:")
        for line in failures:
            print(f"[perfbench]   {line}")
        return 1
    print(f"[perfbench] {len(baseline['workloads'])} workloads x "
          f"{len(gates)} metrics within their bounds of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
