"""Wall-clock performance harness for the simulator itself.

Everything else in :mod:`repro.bench` measures *simulated* time, which
is deterministic and host-independent.  This module measures the other
axis — how fast the host chews through simulated events — so engine
changes can be justified (or caught regressing) with numbers:

* **Engine microbenchmarks** (events/sec) run the same workload on the
  current engine and on :mod:`repro.sim.reference` (the verbatim
  pre-fast-path engine): pure heap churn, zero-delay callback cascades
  (the ready-deque path), and cancelled-timer churn (the lazy
  cancellation path that heartbeat/election/RPC-guard timers hit).
* **RDMA loopback** drives read/write verbs through a queue pair
  between two hosts and reports verbs/sec.
* **fig5 smoke driver** times one (sift, read-heavy) Figure 5 point at
  ``--smoke`` scale on both engines via
  :data:`repro.bench.runner.SIMULATOR_FACTORY`, checks the simulated
  numbers are identical, and reports the engine speedup.
* **Parallel sweep scaling** times a two-point sweep at ``--jobs 1``
  and ``--jobs 2``; the ratio only exceeds ~1.0 on multi-core hosts,
  which is why the artifact records ``host.cpu_count``.

Results go to ``PERF_perfbench.json`` (:func:`repro.obs.artifact.
write_perf_artifact`).  Absolute rates are host properties and never
strictly compared, but the fast-vs-reference *ratios* are host
independent enough to gate on: ``--gate`` loads the committed floors
(``benchmarks/perf/perf_floors.json``), checks every floored metric,
and exits non-zero if any ratio regressed below its floor.  Floors are
set well under the measured ratios to absorb CI-host noise; a genuine
engine regression (e.g. losing lazy cancellation) undershoots them by
integer factors.

Example::

    PYTHONPATH=src python -m repro.bench.perfbench --out-dir bench_artifacts
    PYTHONPATH=src python -m repro.bench.perfbench --quick --gate  # CI lane
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.bench import runner
from repro.bench.calibration import SMOKE_SCALE
from repro.bench.figures import FIGURES
from repro.bench.parallel import run_points
from repro.bench.points import ablate_point, throughput_point
from repro.bench.report import kv_table
from repro.net.fabric import Fabric
from repro.obs.artifact import write_perf_artifact
from repro.rdma.listener import RdmaListener
from repro.rdma.memory import MemoryRegion
from repro.rdma.nic import Rnic
from repro.rdma.qp import QueuePair
from repro.sim import engine, reference
from repro.sim.rng import RngStreams
from repro.workloads import WORKLOADS

__all__ = ["main", "run_perfbench", "load_floors", "check_floors"]

ENGINES = {"fast": engine.Simulator, "reference": reference.Simulator}


def _interleaved(runs: Dict[Any, Callable[[], Any]], repeat: int):
    """Best-of-*repeat* wall time of every run, interleaved within each
    repetition (A/B/A/B...) so slow drift in host load biases no side.

    Returns ``({key: result of the last run}, {key: best wall seconds})``.
    """
    results: Dict[Any, Any] = {}
    walls = {key: float("inf") for key in runs}
    for _ in range(repeat):
        for key, fn in runs.items():
            gc.collect()
            started = time.perf_counter()
            results[key] = fn()
            walls[key] = min(walls[key], time.perf_counter() - started)
    return results, walls


def _engines_agree(fast: dict, ref: dict, what: str) -> None:
    """The A/B guarantee: both engines simulate identical numbers."""
    keys = ("ops_per_sec", "completed", "errors")
    if [fast[k] for k in keys] != [ref[k] for k in keys]:
        raise AssertionError(
            f"engines disagree on simulated numbers{what}: fast={fast} reference={ref}"
        )


def _timed(fn: Callable[[], int], repeat: int) -> Dict[str, float]:
    """Best-of-*repeat* wall time for *fn*; returns work count and rates."""
    counts, walls = _interleaved({"fn": fn}, repeat)
    return {"count": counts["fn"], "wall_s": walls["fn"], "per_s": counts["fn"] / walls["fn"]}


# -- engine microbenchmarks --------------------------------------------------


def _noop():
    return None


def _heap_churn(sim_factory: Callable, n: int) -> int:
    """Pure timestamped scheduling: n events through the heap."""
    sim = sim_factory()
    fired = [0]

    def tick():
        fired[0] += 1

    for i in range(n):
        sim.schedule(1.0 + (i * 7919) % 997, tick)
    sim.run()
    assert fired[0] == n
    return n


def _cascade(sim_factory: Callable, n: int) -> int:
    """Zero-delay callback chains: the ready-deque fast path.

    The heap is preloaded with pending far-future timers first — a
    steady-state run keeps thousands queued (heartbeats, retransmit
    guards), and that depth is what a zero-delay heappush/heappop pays
    on the all-heap engine.  The run stops before the background timers
    fire, so both engines do identical non-cascade work.
    """
    sim = sim_factory()
    noop = _noop
    for i in range(10_000):
        sim.schedule(1e9 + i, noop)
    left = [n]

    def tick():
        if left[0]:
            left[0] -= 1
            sim.schedule(0.0, tick)

    sim.schedule(0.0, tick)
    sim.run(until=1_000_000.0)
    assert left[0] == 0
    return n


def _timer_churn(sim_factory: Callable, n: int) -> int:
    """Guard-timer traffic: most timeouts are cancelled before firing.

    This is the shape RPC guards, heartbeats and election timers
    produce.  The reference engine cannot cancel (``cancel`` is a
    no-op there, as pre-fast-path code never removed entries), so it
    pays full heap churn for every dead timer — exactly the cost the
    lazy-cancellation path removes.
    """
    sim = sim_factory()
    fired = [0]
    for i in range(n):
        timer = sim.timeout(50.0 + (i % 13))
        timer.add_callback(lambda _ev: fired.__setitem__(0, fired[0] + 1))
        if i % 10:
            timer.cancel()
    sim.run()
    # The reference engine cannot cancel, so every timer fires there;
    # the fast engine fires only the kept 10%.
    assert fired[0] >= (n + 9) // 10
    return n


def _wheel_churn(sim_factory: Callable, n: int) -> int:
    """Cross-level wheel traffic.

    Delays span level-0, level-1 and level-2 slots (~1.7 simulated
    seconds); a quarter of the timers are cancelled and replaced by
    refires past the 2^24us horizon, so the overflow heap cascades back
    down through every level.  On the fast engine this exercises slot
    appends, cascades, lazy cancellation inside buckets and overflow
    refills; the reference engine pays plain heap churn for the same
    schedule.  The fired count is engine-independent: cancelled timers
    never carried a callback.
    """
    sim = sim_factory()
    fired = [0]

    def tick(_ev):
        fired[0] += 1

    doomed = []
    for i in range(n):
        delay = 1.0 + (i % 509) * 3301.0
        timer = sim.timeout(delay)
        if i % 4:
            timer.add_callback(tick)
        else:
            doomed.append(timer)
            refire = sim.timeout(delay + 16_777_216.0)
            refire.add_callback(tick)
    for timer in doomed:
        timer.cancel()
    sim.run()
    assert fired[0] == n
    return n


ENGINE_BENCHES = {
    "heap_churn": _heap_churn,
    "cascade": _cascade,
    "timer_churn": _timer_churn,
    "wheel_churn": _wheel_churn,
}


def _engine_section(n: int, repeat: int, log) -> Dict[str, Dict[str, float]]:
    section: Dict[str, Dict[str, float]] = {}
    for name, bench in ENGINE_BENCHES.items():
        _, best = _interleaved(
            {label: partial(bench, factory, n) for label, factory in ENGINES.items()},
            repeat,
        )
        row: Dict[str, float] = {"events": n}
        for label in ENGINES:
            row[f"{label}_wall_s"] = best[label]
            row[f"{label}_events_per_s"] = n / best[label]
        row["speedup"] = row["reference_wall_s"] / row["fast_wall_s"]
        section[name] = row
        log(f"engine/{name}: {row['fast_events_per_s']:,.0f} ev/s "
            f"({row['speedup']:.2f}x vs reference)")
    return section


# -- RDMA loopback -----------------------------------------------------------


def _rdma_loopback(n: int) -> int:
    """n write+read verb pairs across a queue pair; returns verb count."""
    sim = engine.Simulator()
    fabric = Fabric(sim, rng=RngStreams(seed=1))
    target = fabric.add_host("target", cores=1)
    requester = fabric.add_host("requester", cores=2)
    listener = RdmaListener(target)
    region = MemoryRegion("data", 4096)
    listener.export(region)
    qp = QueuePair(Rnic(requester, fabric), listener)
    payload = b"x" * 64

    def proc():
        yield requester.spawn(qp.connect(["data"]))
        for _ in range(n):
            yield qp.write("data", 0, payload)
            yield qp.read("data", 0, 64)

    done = sim.spawn(proc(), name="rdma-loopback")
    sim.run()
    assert done.ok, done.exception
    return 2 * n


# -- fig5 smoke driver A/B ---------------------------------------------------


def _on_engine(engine_name: str, point: Callable[..., dict], **kwargs) -> dict:
    """Run one smoke-scale point function on the given engine."""
    previous = runner.SIMULATOR_FACTORY
    runner.SIMULATOR_FACTORY = ENGINES[engine_name]
    try:
        return point(scale=SMOKE_SCALE, seed=1, **kwargs)
    finally:
        runner.SIMULATOR_FACTORY = previous


def _fig5_smoke(engine_name: str) -> dict:
    """One (sift, read-heavy) Figure 5 point on the given engine."""
    return _on_engine(
        engine_name, throughput_point, system="sift", workload="read-heavy",
        clients=SMOKE_SCALE.clients, cores=12,
    )


def _fig5_section(repeat: int, log) -> Dict[str, object]:
    results, walls = _interleaved({name: partial(_fig5_smoke, name) for name in ENGINES}, repeat)
    fast = results["fast"]
    _engines_agree(fast, results["reference"], "")
    section = {
        "system": "sift",
        "workload": "read-heavy",
        "simulated_ops_per_sec": fast["ops_per_sec"],
        "completed": fast["completed"],
        "fast_wall_s": walls["fast"],
        "reference_wall_s": walls["reference"],
        "fast_driver_ops_per_s": fast["completed"] / walls["fast"],
        "reference_driver_ops_per_s": fast["completed"] / walls["reference"],
        "speedup": walls["reference"] / walls["fast"],
        "simulated_identical": True,
    }
    log(f"fig5-smoke: {section['fast_driver_ops_per_s']:,.0f} ops/s driven "
        f"({section['speedup']:.2f}x vs reference engine)")
    return section


# -- coalesced fig5 driver (the doorbell/coalescing payoff) ------------------

COALESCED_WORKLOAD = "write-only"
COALESCED_CLIENTS = 24


def _coalesced_point(engine_name: str, coalesced: bool) -> dict:
    """One write-only Figure 5 point; *coalesced* turns on the batching
    stack (doorbell verb flushes + WAL-append coalescing)."""
    return _on_engine(
        engine_name, ablate_point, coalesce=coalesced, doorbell=coalesced,
        workload=COALESCED_WORKLOAD, clients=COALESCED_CLIENTS,
    )


def _coalesced_fig5_section(repeat: int, log) -> Dict[str, object]:
    """Four-way grid: {fast, reference} engine x {plain, coalesced} stack.

    Within each stack the two engines must agree on the simulated
    numbers bit-for-bit (the A/B guarantee); across stacks the simulated
    numbers legitimately differ — that is the modelled amortization.
    ``driven_speedup`` is the headline: the pre-batching stack
    (reference engine, per-record appends, per-verb doorbells) against
    the full stack (timer wheel + doorbell batching + append coalescing)
    driving the same workload.
    """
    grid = [(name, mode) for name in ENGINES for mode in (False, True)]
    results, walls = _interleaved({key: partial(_coalesced_point, *key) for key in grid}, repeat)
    for mode in (False, True):
        _engines_agree(
            results[("fast", mode)], results[("reference", mode)], f" (coalesced={mode})"
        )
    plain = results[("fast", False)]
    coal = results[("fast", True)]
    section = {
        "system": "sift",
        "workload": COALESCED_WORKLOAD,
        "clients": COALESCED_CLIENTS,
        "plain_ops_per_sec": plain["ops_per_sec"],
        "coalesced_ops_per_sec": coal["ops_per_sec"],
        "simulated_speedup": coal["ops_per_sec"] / plain["ops_per_sec"],
        "fast_plain_wall_s": walls[("fast", False)],
        "fast_coalesced_wall_s": walls[("fast", True)],
        "reference_plain_wall_s": walls[("reference", False)],
        "reference_coalesced_wall_s": walls[("reference", True)],
        "engine_speedup": walls[("reference", False)] / walls[("fast", False)],
        "amortization_speedup": walls[("fast", False)] / walls[("fast", True)],
        "driven_speedup": walls[("reference", False)] / walls[("fast", True)],
        "simulated_identical": True,
    }
    log(
        f"coalesced-fig5: {section['coalesced_ops_per_sec']:,.0f} ops/s simulated "
        f"({section['simulated_speedup']:.2f}x vs plain), driven "
        f"{section['driven_speedup']:.2f}x vs pre-batching stack"
    )
    return section


# -- open-loop arrival generation vs per-client scalar loop ------------------

OPENLOOP_SHARDS = 2
OPENLOOP_WINDOW = 4_096
OPENLOOP_POPULATION = 1_000_000


def _openloop_generators():
    """Two :class:`ArrivalGenerator` instances on identical seeds.

    Both draw from the same named RNG streams, so the vectorized batch
    path and the scalar per-op path (what a closed-loop client pool
    performs per operation: one Zipf CDF inversion, one coin flip, one
    client draw, one key render + SHA-1 ring walk) must produce
    identical columns — "equal simulated results".
    """
    from repro.shard.hashing import HashRing
    from repro.workloads.generator import StripedZipfSampler
    from repro.workloads.openloop import ArrivalGenerator

    def build():
        sim = engine.Simulator()
        fabric = Fabric(sim, rng=RngStreams(seed=1))
        ring = HashRing([f"shard{i}" for i in range(OPENLOOP_SHARDS)])
        sampler = StripedZipfSampler(SMOKE_SCALE.keys, ring)
        generator = ArrivalGenerator(
            fabric,
            WORKLOADS["read-heavy"],
            sampler,
            n_clients=OPENLOOP_POPULATION,
            n_shards=OPENLOOP_SHARDS,
        )
        return generator, ring

    return build


def _openloop_generator_section(arrivals: int, repeat: int, log) -> Dict[str, object]:
    """Arrival-generation throughput: vectorized batches vs scalar loop.

    The scalar side charges exactly the per-op work of today's
    closed-loop pool inner loop (``ZipfSampler.sample`` + coin + ring
    walk); the vectorized side is the open-loop engine's per-window
    batch.  Column equality is asserted outside the timed region, so
    the ratio compares equal work, not approximately-similar work.
    """
    import numpy as np

    build = _openloop_generators()
    windows = max(1, arrivals // OPENLOOP_WINDOW)
    count = windows * OPENLOOP_WINDOW

    # Equality check (untimed): the two paths draw identical columns.
    vector_gen, _ = build()
    scalar_gen, ring = build()
    probe = min(OPENLOOP_WINDOW, count)
    vector_batch = vector_gen.batch(probe)
    scalar_batch = scalar_gen.scalar_batch(probe, ring=ring)
    identical = all(
        np.array_equal(a, b) for a, b in zip(vector_batch, scalar_batch)
    )
    if not identical:
        raise AssertionError(
            "vectorized and scalar arrival columns disagree on equal seeds"
        )

    # Timed region: generation only.  The generators are built once —
    # consuming further along the same streams costs the same per draw,
    # and sampler construction is figure *setup*, not arrival throughput.
    def vector_run() -> int:
        for _ in range(windows):
            vector_gen.batch(OPENLOOP_WINDOW)
        return count

    def scalar_run() -> int:
        for _ in range(windows):
            scalar_gen.scalar_batch(OPENLOOP_WINDOW, ring=ring)
        return count

    vector = _timed(vector_run, repeat)
    scalar = _timed(scalar_run, repeat)
    section = {
        "arrivals": count,
        "window": OPENLOOP_WINDOW,
        "shards": OPENLOOP_SHARDS,
        "clients_population": OPENLOOP_POPULATION,
        "vector_wall_s": vector["wall_s"],
        "scalar_wall_s": scalar["wall_s"],
        "vector_arrivals_per_s": vector["per_s"],
        "scalar_arrivals_per_s": scalar["per_s"],
        "generation_speedup": scalar["wall_s"] / vector["wall_s"],
        "columns_identical": identical,
    }
    log(
        f"openloop generator: {vector['per_s']:,.0f} arrivals/s vectorized "
        f"({section['generation_speedup']:.1f}x the scalar per-client loop)"
    )
    return section


# -- parallel sweep scaling --------------------------------------------------


def _sweep_points():
    """fig5's (sift, read-heavy) and (raft-r, read-heavy) smoke points."""
    points = FIGURES["fig5"].points({"cores": 12, "workloads": ["read-heavy"]}, SMOKE_SCALE, 1)
    return [p for p in points if p.key in ("sift/read-heavy", "raft-r/read-heavy")]


def _parallel_section(log) -> Dict[str, float]:
    values, walls = _interleaved(
        {jobs: partial(run_points, _sweep_points(), jobs=jobs) for jobs in (1, 2)}, 1
    )
    if values[1] != values[2]:
        raise AssertionError(
            f"job counts disagree: jobs1={values[1]} jobs2={values[2]}"
        )
    section = {
        "points": 2,
        "jobs1_wall_s": walls[1],
        "jobs2_wall_s": walls[2],
        "scaling": walls[1] / walls[2],
        "results_identical": True,
    }
    log(f"parallel sweep: jobs=2 is {section['scaling']:.2f}x jobs=1 "
        "(expect ~1.0 on a single-core host)")
    return section


# -- perf-regression gate ----------------------------------------------------

FLOORS_PATH = Path(__file__).resolve().parents[3] / "benchmarks" / "perf" / "perf_floors.json"


def load_floors(path: Optional[Path] = None) -> Dict[str, float]:
    """Load the committed ratio floors (``{"floors": {dotted.path: min}}``)."""
    with open(path or FLOORS_PATH) as fh:
        data = json.load(fh)
    return {str(key): float(value) for key, value in data["floors"].items()}


def check_floors(
    results: Dict[str, object], floors: Dict[str, float]
) -> List[str]:
    """Check every floored metric; returns human-readable violations.

    Keys are dotted paths into the results dict
    (``engine.heap_churn.speedup``).  A missing path is itself a
    violation — a renamed or dropped scenario must not silently pass.
    """
    violations: List[str] = []
    for dotted, floor in sorted(floors.items()):
        node: object = results
        for part in dotted.split("."):
            if not isinstance(node, dict) or part not in node:
                violations.append(f"{dotted}: metric missing from results")
                node = None
                break
            node = node[part]
        if node is None:
            continue
        value = float(node)  # type: ignore[arg-type]
        if value < floor:
            violations.append(f"{dotted}: {value:.2f} < floor {floor:.2f}")
    return violations


# -- harness -----------------------------------------------------------------


def run_perfbench(
    events: int = 200_000,
    rdma_verbs: int = 5_000,
    repeat: int = 3,
    arrivals: int = 100_000,
    log: Callable[[str], None] = lambda line: print(line, file=sys.stderr),
) -> Dict[str, object]:
    """Run every section; returns the artifact's results dict."""
    results: Dict[str, object] = {}
    results["engine"] = _engine_section(events, repeat, log)
    timing = _timed(lambda: _rdma_loopback(rdma_verbs), repeat)
    results["rdma_loopback"] = {
        "verbs": timing["count"],
        "wall_s": timing["wall_s"],
        "verbs_per_s": timing["per_s"],
    }
    log(f"rdma loopback: {timing['per_s']:,.0f} verbs/s")
    results["fig5_smoke"] = _fig5_section(repeat, log)
    results["coalesced_fig5"] = _coalesced_fig5_section(repeat, log)
    results["openloop_generator"] = _openloop_generator_section(
        arrivals, repeat, log
    )
    results["parallel_sweep"] = _parallel_section(log)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perfbench",
        description="Measure host events/sec, verbs/sec and engine speedups.",
    )
    parser.add_argument("--out-dir", default="bench_artifacts",
                        help="directory for the PERF_perfbench.json artifact")
    parser.add_argument("--events", type=int, default=200_000,
                        help="events per engine microbenchmark")
    parser.add_argument("--rdma-verbs", type=int, default=5_000,
                        help="verb pairs for the RDMA loopback benchmark")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per measurement (best-of)")
    parser.add_argument("--arrivals", type=int, default=100_000,
                        help="arrivals for the open-loop generator benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="CI sizing: fewer events, single repetition")
    parser.add_argument("--gate", action="store_true",
                        help="check fast-vs-reference ratios against the "
                             "committed floors and exit non-zero on any miss")
    parser.add_argument("--floors", default=None,
                        help="override the floors file "
                             f"(default: {FLOORS_PATH})")
    args = parser.parse_args(argv)
    if args.quick:
        args.events = min(args.events, 50_000)
        args.rdma_verbs = min(args.rdma_verbs, 2_000)
        args.arrivals = min(args.arrivals, 32_768)
        args.repeat = 1
    if args.gate:
        # Ratios from a single repetition are too noisy to gate on
        # (best-of-1 conflates engine speed with scheduler jitter).
        args.repeat = max(args.repeat, 2)
        floors = load_floors(Path(args.floors) if args.floors else None)

    results = run_perfbench(
        events=args.events, rdma_verbs=args.rdma_verbs, repeat=args.repeat,
        arrivals=args.arrivals,
    )
    engine_rows = [
        (f"engine/{name}",
         f"{row['fast_events_per_s']:,.0f} ev/s, {row['speedup']:.2f}x")
        for name, row in results["engine"].items()
    ]
    fig5 = results["fig5_smoke"]
    coalesced = results["coalesced_fig5"]
    openloop = results["openloop_generator"]
    sweep = results["parallel_sweep"]
    print(kv_table(
        "perfbench: wall-clock rates (fast engine, speedup vs reference)",
        engine_rows + [
            ("rdma loopback",
             f"{results['rdma_loopback']['verbs_per_s']:,.0f} verbs/s"),
            ("fig5 smoke point",
             f"{fig5['fast_driver_ops_per_s']:,.0f} ops/s, "
             f"{fig5['speedup']:.2f}x"),
            ("coalesced fig5 point",
             f"{coalesced['simulated_speedup']:.2f}x simulated, "
             f"{coalesced['driven_speedup']:.2f}x driven"),
            ("openloop generator",
             f"{openloop['vector_arrivals_per_s']:,.0f} arrivals/s, "
             f"{openloop['generation_speedup']:.1f}x scalar loop"),
            ("sweep jobs=2 vs jobs=1", f"{sweep['scaling']:.2f}x"),
        ],
    ))
    path = write_perf_artifact(
        args.out_dir,
        "perfbench",
        results,
        params={
            "events": args.events,
            "rdma_verbs": args.rdma_verbs,
            "repeat": args.repeat,
            "arrivals": args.arrivals,
            "scale": "smoke",
        },
    )
    print(f"  wrote {path}", file=sys.stderr)
    if args.gate:
        violations = check_floors(results, floors)
        if violations:
            for violation in violations:
                print(f"PERF-GATE FAIL {violation}", file=sys.stderr)
            return 1
        print(f"PERF-GATE OK ({len(floors)} floors held)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
