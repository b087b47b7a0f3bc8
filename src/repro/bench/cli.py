"""Command-line experiment runner.

``python -m repro.bench.cli <experiment>`` regenerates one of the
paper's tables/figures (or an ablation) and prints it, without going
through pytest.  Every experiment is a record in the figure registry
(:mod:`repro.bench.figures`); scale is controlled by the same
``REPRO_BENCH_*`` environment variables the benchmarks use, or pinned
with ``--smoke``.

Every figure also writes a versioned ``BENCH_<figure>.json`` artifact
(see :mod:`repro.obs.artifact`) into ``--out-dir``: the simulated
numbers, the figure's named gate verdicts, a metrics-registry snapshot
collected during the run, the seeds, the parameters, the git SHA and
the wall clock.  Any failed gate makes the exit status 1.  CI's
``bench-smoke`` job regenerates every committed
``benchmarks/baselines/BENCH_*.json`` at ``--smoke`` scale and diffs
them with :mod:`repro.obs.compare` (plus a byte-diff of the exported
``TRACE_fig6path.json`` Perfetto trace); ``--refresh-baselines``
rewrites exactly those files.

Examples::

    python -m repro.bench.cli table1
    python -m repro.bench.cli fig9 fig10
    REPRO_BENCH_MEASURE_MS=300 python -m repro.bench.cli fig5
    python -m repro.bench.cli throughput --system sift-ec --workload mixed
    python -m repro.bench.cli fig5 fig6 fig11 --smoke --out-dir bench_artifacts
    python -m repro.bench.cli fig5 --jobs 4   # fan points across processes
    python -m repro.bench.cli --refresh-baselines

Figures made of independent points accept ``--jobs N`` to fan the
points across worker processes via :mod:`repro.bench.parallel`;
per-point metric registries are merged in declared point order, so the
artifact is byte-identical at any job count.
"""

from __future__ import annotations

import os
import argparse
import sys
import time

from repro.bench.figures import BASELINE_FIGURES, FIGURES, run_figure
from repro.obs.artifact import write_artifact
from repro.obs.registry import MetricsRegistry, collecting
from repro.workloads import WORKLOADS

__all__ = ["main"]


def _progress(key: str) -> None:
    print(f"  [{key}] done", file=sys.stderr)


def _baselines_dir() -> str:
    """``benchmarks/baselines/`` at the repo root, found from this file."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "benchmarks", "baselines")


def _run_one(name: str, args) -> bool:
    """Run one experiment under a fresh registry; write its artifact.

    Returns True when every gate passed.
    """
    figure = FIGURES[name]
    overrides = {
        option: getattr(args, option)
        for option in figure.options
        if getattr(args, option) is not None
    }
    registry = MetricsRegistry()
    started = time.monotonic()
    with collecting(registry):
        run = run_figure(
            figure,
            smoke=args.smoke,
            seed=args.seed,
            jobs=args.jobs,
            overrides=overrides,
            out_dir=None if args.no_artifact else args.out_dir,
            progress=_progress,
        )
    wall_clock_s = time.monotonic() - started
    print(figure.render(run.simulated, run.params))
    failed = {gate: result for gate, result in run.gates.items() if not result["pass"]}
    for gate, result in failed.items():
        print(f"GATE FAILED {name}.{gate}: observed {result['observed']!r}, "
              f"bound {result['bound']!r}", file=sys.stderr)
    if run.simulated is not None and not args.no_artifact:
        path = write_artifact(
            args.out_dir,
            name,
            run.simulated,
            seeds=[args.seed],
            params=run.params,
            gates=run.gates,
            registry=registry,
            wall_clock_s=wall_clock_s,
        )
        print(f"  wrote {path}", file=sys.stderr)
    return not failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.cli",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"one or more of: {', '.join(FIGURES)} "
             "(fig7/fig12 run via pytest benchmarks/)",
    )
    parser.add_argument("--system", default="sift",
                        choices=["sift", "sift-ec", "raft-r", "epaxos", "sharded"])
    parser.add_argument(
        "--shards", type=int, nargs="+", default=None, metavar="G",
        help="shard counts swept by fig8live (default: per-scale preset)",
    )
    parser.add_argument("--workload", default="read-heavy", choices=list(WORKLOADS))
    parser.add_argument("--cores", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1,
                        help="experiment seed recorded in the artifact")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent figure points "
             "(artifacts are byte-identical at any job count)",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="pinned CI scale (ignores REPRO_BENCH_* env)")
    parser.add_argument("--out-dir", default="bench_artifacts",
                        help="directory for BENCH_<figure>.json artifacts")
    parser.add_argument("--no-artifact", action="store_true",
                        help="print figures only, write nothing")
    parser.add_argument(
        "--refresh-baselines", action="store_true",
        help="regenerate benchmarks/baselines/ (all gated figures, smoke scale)",
    )
    args = parser.parse_args(argv)

    if args.refresh_baselines:
        args.smoke = True
        args.no_artifact = False
        args.out_dir = _baselines_dir()
        experiments = list(BASELINE_FIGURES)
    else:
        experiments = args.experiments
        if not experiments:
            parser.error("no experiments given")

    for experiment in experiments:
        if experiment not in FIGURES:
            parser.error(f"unknown experiment: {experiment}")
    passed = True
    for experiment in experiments:
        passed = _run_one(experiment, args) and passed
        print()
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
