"""Command-line experiment runner.

Usage::

    python -m repro.experiments table3
    python -m repro.experiments fig3
    python -m repro.experiments memory
    python -m repro.experiments table4          # trains (minutes)
    python -m repro.experiments table4 --workers 4   # parallel + cached
    python -m repro.experiments table5 --full   # paper budgets (hours)
    python -m repro.experiments fig4
    python -m repro.experiments fig4 --registry models/   # + publish frontier
    python -m repro.experiments all
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import fig3, fig4, memory, table3, table4, table5
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SweepRunner
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

HARDWARE_ONLY = {
    "table3": lambda runner: table3.format_results(table3.run()),
    "fig3": lambda runner: fig3.format_results(fig3.run()),
    "memory": lambda runner: memory.format_results(memory.run()),
}
TRAINED = {
    "table4": lambda runner: table4.format_results(table4.run(runner=runner)),
    "table5": lambda runner: table5.format_results(table5.run(runner=runner)),
    "fig4": lambda runner: fig4.format_results(fig4.run(runner=runner)),
}
ALL = {**HARDWARE_ONLY, **TRAINED}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=sorted(ALL) + ["all"])
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's exact architectures and long training budgets",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes per accuracy sweep (results are bitwise "
             "identical to --workers 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk sweep result cache",
    )
    parser.add_argument(
        "--refresh", action="store_true",
        help="retrain every point, overwriting cached results",
    )
    parser.add_argument(
        "--cache-dir", default="", metavar="PATH",
        help="sweep cache directory (default: $REPRO_SWEEP_CACHE or "
             "~/.cache/repro-sweeps)",
    )
    parser.add_argument(
        "--registry", default="", metavar="ROOT",
        help="fig4 only: publish every trained design point into the "
             "model registry at ROOT and promote the Pareto frontier "
             "through the 'fig4' channel",
    )
    args = parser.parse_args(argv)

    config = ExperimentConfig.full() if args.full else ExperimentConfig.from_environment()
    cache = False if args.no_cache else (args.cache_dir or True)
    if args.registry:
        # Publishing needs the trained weights in memory, which the
        # on-disk result cache does not carry — retrain and keep them.
        cache = False
    runner = SweepRunner(
        config, workers=args.workers, cache=cache, refresh=args.refresh,
        keep_states=bool(args.registry),
    )

    names = sorted(ALL) if args.experiment == "all" else [args.experiment]
    metrics = get_metrics()
    for name in names:
        if name in TRAINED:
            print(f"[{name}] training sweeps ({config.mode} mode)...",
                  file=sys.stderr)
        started = time.perf_counter()
        with get_tracer().span("experiment", table=name):
            if name == "fig4" and args.registry:
                result = fig4.run(runner=runner)
                output = fig4.format_results(result)
                published = fig4.publish_registry(
                    result, runner, args.registry
                )
                output += "\n\n" + fig4.format_registry(published)
            else:
                output = ALL[name](runner)
        elapsed = time.perf_counter() - started
        metrics.gauge(f"experiments.{name}.elapsed_s").set(elapsed)
        metrics.histogram("experiments.table_s").observe(elapsed)
        print(output)
        print()
        print(f"[{name}] done in {elapsed:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
