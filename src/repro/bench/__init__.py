"""Benchmark harness.

One module per concern:

* :mod:`~repro.bench.calibration` — the scale knobs and the calibrated
  per-system configurations used by every experiment.
* :mod:`~repro.bench.systems` — system-under-test factories with a
  uniform build / wait-ready / preload interface.
* :mod:`~repro.bench.runner` — throughput, latency, and timeline
  experiment drivers.
* :mod:`~repro.bench.metrics` — completion recording, percentiles,
  100 ms throughput windows.
* :mod:`~repro.bench.report` — paper-style table and series rendering.
* :mod:`~repro.bench.points` — picklable per-point experiment functions.
* :mod:`~repro.bench.figures` — the figure registry: one ``Figure``
  record per table/figure (params preset, point list, render, named
  gates) and ``run_figure``, the one driver behind the CLI
  (:mod:`~repro.bench.cli`), the committed baselines and CI.  Not
  imported here: it pulls in every system.

The ``benchmarks/`` directory contains one pytest-benchmark module per
table/figure and prints the rows the paper reports; fig5, fig6 and
fig11 take their results from the figure registry.
"""

from repro.bench.calibration import BenchScale
from repro.bench.metrics import Metrics, percentile
from repro.bench.runner import LatencyResult, ThroughputResult, run_latency, run_throughput, run_timeline
from repro.bench.systems import SystemSpec, epaxos_spec, raft_spec, sift_spec

__all__ = [
    "BenchScale",
    "LatencyResult",
    "Metrics",
    "SystemSpec",
    "ThroughputResult",
    "epaxos_spec",
    "percentile",
    "raft_spec",
    "run_latency",
    "run_throughput",
    "run_timeline",
    "sift_spec",
]
