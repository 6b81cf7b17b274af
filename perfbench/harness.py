"""In-process benchmark of the repro package: named workloads, one gate.

Run every workload, or one::

    python3 perfbench/harness.py --seed 0
    python3 perfbench/harness.py --workload infer --seed 3 --seconds 20
    python3 perfbench/harness.py --workload serve_inproc --trace 1

It imports the package from ``src/`` of the checkout it sits in, prints
each end-to-end metric with its unit, median, quartiles and sample
count, the operations attempted and failed, and the correctness checks.
``--trace`` instead reports per-layer metrics, a per-layer table and
the tracing overhead, and writes every span to
``perfbench/results/trace.jsonl``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_PATH = os.path.join(HERE, "results", "trace.jsonl")
DEFAULT_SECONDS = 20


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per workload, after set-up")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run: per-layer metrics and overhead")
    parser.add_argument("--out", help="write the full result JSON here")
    return parser.parse_args(argv)


def _row(name: str, unit: str, summary) -> str:
    tail = ""
    if summary.tail is not None:
        tail = f"  p{summary.tail[0]:g}={summary.tail[1]:.4g}"
    return (f"  {name:32s} {summary.value:12.4f} {unit:9s} "
            f"median={summary.median:.4g} q1={summary.q1:.4g} "
            f"q3={summary.q3:.4g} n={summary.n}{tail}")


def report(outcome, workloads, traced: bool) -> None:
    print(f"== {outcome.name} ==")
    bucket = "untraced"
    print("end-to-end (setup_s: median; others: the better quartile"
          f"{', untraced rounds' if traced else ''}):")
    for name, (unit, _better) in workloads.END_TO_END.items():
        print(_row(name, unit, outcome.metrics[bucket][name]))
    print("diagnostics (not gated):")
    for name, summary in outcome.diagnostics[bucket].items():
        print(_row(name, workloads.DIAGNOSTIC_UNITS[name], summary))
    if traced:
        print("tracing overhead (traced - untraced):")
        for name, (unit, _better) in workloads.END_TO_END.items():
            off = outcome.metrics["untraced"][name].value
            on = outcome.metrics["traced"][name].value
            print(f"  {name:32s} {on - off:+12.4f} {unit:9s} "
                  f"({100 * (on - off) / off:+.1f}%)")
        print("per-layer:")
        for name, value in outcome.per_layer.items():
            print(f"  {name:32s} {value:12.4f} {workloads.PER_LAYER[name][0]}")
        for name, value in outcome.layer_diagnostics.items():
            print(f"  {name:32s} {value:12.4f} "
                  f"{workloads.DIAGNOSTIC_UNITS[name]}  (diagnostic)")
        print("self time by span (traced phases):")
        for name, (calls, total, own) in sorted(
                outcome.self_ms.items(), key=lambda item: -item[1][2]):
            print(f"  {name:32s} calls={calls:<7d} total={total:10.1f} ms "
                  f"self={own:10.1f} ms")
        print("per-layer table (fixed8):")
        print(workloads.layers.format_table(outcome.layer_rows))
    status = "all passed" if outcome.correct else "; ".join(outcome.problems)
    print(f"ops: attempted={outcome.attempted} failed={outcome.failed}; "
          f"checks: {status}")


def result_json(outcomes, workloads, traced: bool) -> dict:
    """The last output line: `correct`, `attempted`, `failed`, `metrics`."""
    single = len(outcomes) == 1
    metrics = {}
    for outcome in outcomes:
        prefix = "" if single else f"{outcome.name}."
        if traced:
            values = {name: (outcome.per_layer[name], spec[0])
                      for name, spec in workloads.PER_LAYER.items()}
        else:
            values = {name: (outcome.metrics["untraced"][name].value, spec[0])
                      for name, spec in workloads.END_TO_END.items()}
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(o.correct for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }


def full_json(outcomes, args) -> dict:
    """Everything measured, for ``--out`` and the comparison gate."""
    return {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "cpu_count": os.cpu_count() or 1,
        "workloads": {
            o.name: {
                "correct": o.correct,
                "problems": o.problems,
                "attempted": o.attempted,
                "failed": o.failed,
                "metrics": {b: {n: s.as_dict() for n, s in m.items()}
                            for b, m in o.metrics.items()},
                "diagnostics": {b: {n: s.as_dict() for n, s in m.items()}
                                for b, m in o.diagnostics.items()},
                "per_layer": {**o.per_layer, **o.layer_diagnostics},
                "layer_table": o.layer_rows,
            }
            for o in outcomes
        },
    }


def _stop_resource_tracker() -> None:
    """The fleet's shared memory starts multiprocessing's tracker process;
    end it here so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = layers.Tracer() if args.trace else None
    outcomes = []
    try:
        for name in names:
            outcome = workloads.run(name, args.seed, args.seconds, tracer)
            report(outcome, workloads, bool(args.trace))
            outcomes.append(outcome)
    finally:
        _stop_resource_tracker()
    if tracer is not None:
        tracer.write_jsonl(TRACE_PATH)
        print(f"trace: {len(tracer.spans)} spans -> {TRACE_PATH}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(full_json(outcomes, args), handle, indent=1)
            handle.write("\n")
    summary = result_json(outcomes, workloads, bool(args.trace))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
