"""Top-level point functions for the bench figures.

Each function here runs one independent experiment — one (system,
workload) throughput cell, one (system, load) latency cell, one
fault-injection timeline — and returns a plain JSON-shaped fragment.
They are module-level and take only picklable keyword arguments so
:mod:`repro.bench.parallel` can ship them to worker processes; the
figure registry (:mod:`repro.bench.figures`) declares which points
each figure runs, and in which order.
"""

from __future__ import annotations

from typing import List

from repro.api import system_spec
from repro.bench.calibration import BenchScale
from repro.bench.runner import (
    run_latency,
    run_openloop,
    run_throughput,
    run_timeline,
)
from repro.bench.systems import sift_spec
from repro.chaos import FaultSchedule
from repro.obs.critpath import critical_path_section
from repro.obs.trace import Tracer
from repro.sim.units import MS, SEC
from repro.workloads import WORKLOADS

__all__ = [
    "ablate_point",
    "critpath_point",
    "hotspot_point",
    "latency_point",
    "live_pool_point",
    "memnode_failure_point",
    "openloop_point",
    "recovery_sweep_point",
    "throughput_point",
    "RECOVERY_SWEEP_PARTITIONS",
]


# -- point functions (top-level, picklable) ---------------------------------


def _cell(result, drop=("system",)) -> dict:
    """A runner result as a JSON cell, minus what the point key names."""
    return {k: v for k, v in result._asdict().items() if k not in drop}


def throughput_point(
    system: str, workload: str, clients: int, cores: int, scale: BenchScale, seed: int
) -> dict:
    """One Figure 5 cell: peak throughput of (system, workload)."""
    spec = system_spec(system, scale=scale, cores=cores)
    result = run_throughput(
        spec, WORKLOADS[workload], n_clients=clients, scale=scale, seed=seed
    )
    return _cell(result, drop=("system", "workload"))


def latency_point(
    system: str, workload: str, clients: int, cores: int, scale: BenchScale, seed: int
) -> dict:
    """One Figure 6 cell: latency percentiles at a fixed client count."""
    spec = system_spec(system, scale=scale, cores=cores)
    return _cell(run_latency(spec, WORKLOADS[workload], clients, scale=scale, seed=seed))


def critpath_point(
    system: str,
    workload: str,
    clients: int,
    cores: int,
    scale: BenchScale,
    seed: int,
    sample_ops: int = 8,
    export_spans: int = 0,
) -> dict:
    """One fig6path cell: the fig6 latency run, traced, with its
    critical-path attribution digest.

    The tracer only covers the measurement window (see
    :func:`repro.bench.runner._drive`), draws no randomness and never
    schedules, so ``ops_per_sec`` matches the untraced fig6 cell and
    the digest is deterministic in *seed*.  With ``export_spans > 0``
    the first that-many raw span dicts ride along for the Perfetto
    export.
    """
    spec = system_spec(system, scale=scale, cores=cores)
    tracer = Tracer()
    r = run_latency(
        spec, WORKLOADS[workload], clients, scale=scale, seed=seed, tracer=tracer
    )
    out = {
        "clients": clients,
        "ops_per_sec": r.ops_per_sec,
        "spans_recorded": len(tracer.spans),
        "critical_path": critical_path_section(tracer, sample_ops=sample_ops),
    }
    if export_spans:
        out["spans"] = [s.to_dict() for s in tracer.spans[:export_spans]]
    return out


def ablate_point(
    coalesce: bool,
    doorbell: bool,
    workload: str,
    clients: int,
    scale: BenchScale,
    seed: int,
) -> dict:
    """One fig5ablate cell: write-only sift throughput with the WAL
    append-coalescing and doorbell-batching layers toggled
    independently (perfbench's ``coalesced_fig5`` scenario, promoted to
    a committed 2x2 grid)."""
    spec = sift_spec(
        cores=12,
        scale=scale,
        kv_overrides={"coalesce_appends": True} if coalesce else None,
        sift_overrides={"doorbell_batching": True} if doorbell else None,
    )
    result = run_throughput(
        spec, WORKLOADS[workload], n_clients=clients, scale=scale, seed=seed
    )
    return dict(
        _cell(result, drop=("system", "workload")),
        coalesce_appends=coalesce,
        doorbell_batching=doorbell,
    )


def _memnode_failure_run(
    timings,
    scale: BenchScale,
    seed: int,
    f: int = 1,
    recovery_partitions: int = 1,
) -> dict:
    """One Figure-11-style timeline: kill memory node 2, restart it,
    watch the copy-back finish.

    *timings* is the ``(kill_at, restart_at, duration, clients)``
    schedule.  Shared by the fig11 point (``f=1``, single-stream
    recovery — the schedule must stay byte-identical to the
    pre-partitioning runs) and the fig11sweep points (``f=2`` so four
    source links exist, sweeping ``recovery_partitions``).
    """
    kill_at, restart_at, duration, clients = timings
    spec = sift_spec(
        f=f, cores=12, scale=scale, recovery_partitions=recovery_partitions
    )
    recovered_at: List[float] = []
    copy_stats: List[dict] = []

    def watch_recovery(group):
        def watch():
            coordinator = group.serving_coordinator()
            while coordinator.repmem.states[2] != "live":
                yield group.fabric.sim.timeout(10 * MS)
            recovered_at.append(group.fabric.sim.now)
            manager = coordinator.recovery_manager
            if manager is not None and 2 in manager.copy_stats:
                copy_stats.append(dict(manager.copy_stats[2]))

        group.fabric.sim.spawn(watch(), name="watch-recovery")

    schedule = (
        FaultSchedule()
        .crash_memory_node(kill_at, 2)
        .restart_memory_node(restart_at, 2)
        .probe(restart_at, watch_recovery, "watch recovery")
    )
    result = run_timeline(
        spec,
        WORKLOADS["read-heavy"],
        clients,
        duration,
        events=schedule,
        scale=scale,
        seed=seed,
    )
    recovery_s = (
        (recovered_at[0] - result.base_us) / 1e6 if recovered_at else None
    )
    # The poll-based recovery_s above is quantised at the watcher's
    # 10 ms tick (and is part of the fig11 artifact contract); the copy
    # stats carry an exact completion stamp for the sweep to gate on.
    copy = copy_stats[0] if copy_stats else None
    precise_s = (
        (copy["finished_at_us"] - result.base_us) / 1e6
        if copy and copy.get("finished_at_us") is not None
        else None
    )
    return {
        "series": [[t, ops] for t, ops in result.series],
        "events": [[t, label] for t, label in result.events],
        "recovery_s": recovery_s,
        "recovery_precise_s": precise_s,
        "copy": copy,
    }


def memnode_failure_point(timings, scale: BenchScale, seed: int) -> dict:
    """The Figure 11 timeline: kill memory node 2, restart it, watch
    the copy-back finish.  One point — the timeline is a single run."""
    run = _memnode_failure_run(timings, scale, seed)
    return {
        "series": run["series"],
        "events": run["events"],
        "recovery_s": run["recovery_s"],
    }


#: Partition counts swept by fig11sweep.  The sweep runs at Fm = 2
#: (five memory nodes, four live sources once one fails) so each
#: doubling genuinely doubles the source links feeding the rejoining
#: node — with fig11's Fm = 1 only two sources exist and the curve
#: would flatten at two partitions.
RECOVERY_SWEEP_PARTITIONS = (1, 2, 4)


def recovery_sweep_point(
    timings, scale: BenchScale, seed: int, partitions: int
) -> dict:
    """One fig11sweep cell: the fig11 timeline at Fm = 2 with
    ``recovery_partitions=partitions``, plus the copy-phase stats the
    partition count actually moves."""
    run = _memnode_failure_run(
        timings, scale, seed, f=2, recovery_partitions=partitions
    )
    copy = run["copy"] or {}
    return {
        "partitions": partitions,
        "recovery_s": run["recovery_precise_s"],
        "recovery_poll_s": run["recovery_s"],
        "copy_us": copy.get("copy_us"),
        "copy_bytes": copy.get("bytes"),
        "sources": copy.get("sources"),
        "series": run["series"],
        "events": run["events"],
    }


def _live_pool_run(
    shards: int,
    backups: int,
    provisioning_delay_us: float,
    faults: int,
    fault_gap_us: float,
    scale: BenchScale,
    seed: int,
) -> dict:
    """One live-pool repetition: staggered coordinator crashes, measured
    promotion waits, and the :class:`PoolAccountant` replay of the same
    fault times.  Everything returned is deterministic in *seed*."""
    from repro.api import Cluster
    from repro.cluster.backups import PoolAccountant

    cluster = Cluster.build(
        "sharded",
        seed=seed,
        scale=scale,
        shards=shards,
        backups=backups,
        provisioning_delay_us=provisioning_delay_us,
        name=f"live{shards}-g",
    )
    service = cluster.inner
    sim = cluster.sim
    router = cluster.client()
    crash_times_us: List[float] = []

    def driver():
        yield from service.wait_until_serving(20 * SEC)
        for index in range(8):
            yield from router.put(b"live:%d" % index, b"v%d" % index)
        base = sim.now
        for fault in range(faults):
            due = base + (fault + 1) * fault_gap_us
            if due > sim.now:
                yield sim.timeout(due - sim.now)
            # Round-robin over shards; make sure the crash hits a live
            # coordinator so every scheduled fault charges the pool.
            target = service.groups[fault % shards]
            yield from target.wait_until_serving(
                faults * provisioning_delay_us + 20 * SEC
            )
            target.crash_coordinator()
            crash_times_us.append(sim.now)
        while service.pool.promotions < faults:
            yield sim.timeout(50 * MS)
        yield from service.wait_until_serving(
            faults * provisioning_delay_us + 20 * SEC
        )
        for index in range(8):
            value = yield from router.get(b"live:%d" % index)
            if value != b"v%d" % index:
                raise AssertionError(f"lost live:{index} across promotions")

    cluster.run(driver(), deadline_us=(faults + 2) * (provisioning_delay_us + 20 * SEC))
    service.stop()

    pool = service.pool
    model = PoolAccountant(backups, provision_s=provisioning_delay_us / 1e6)
    for crash_us in crash_times_us:
        model.fault(crash_us / 1e6)
    detections = [
        record.request_us - crash_us
        for record, crash_us in zip(pool.promotion_log, crash_times_us)
    ]
    return {
        "live_per_fault_us": pool.recovery_wait_us_per_fault(),
        "model_per_fault_us": model.per_fault_s() * 1e6,
        "live_waits": pool.waits,
        "model_waits": model.waits,
        "promotions": pool.promotions,
        "detection_mean_us": sum(detections) / len(detections) if detections else 0.0,
        "crash_times_us": crash_times_us,
        "promotion_waits_us": [record.wait_us for record in pool.promotion_log],
    }


def live_pool_point(
    shards: int,
    backups: int,
    provisioning_delay_us: float,
    faults: int,
    fault_gap_us: float,
    repetitions: int,
    scale: BenchScale,
    seed: int,
) -> dict:
    """One fig8live cell: the live shared pool vs the Figure 8 trace
    model at one shard count.

    The model replays the *live run's own* fault times through
    :class:`~repro.cluster.backups.PoolAccountant`, so the only gap
    between the two numbers is failure detection (watchdog heartbeat
    reads), which the live measurement excludes by charging waits from
    promotion request time.  ``agrees`` demands the means match within
    the seeded repetition band plus twice the mean detection latency.
    """
    reps = [
        _live_pool_run(
            shards, backups, provisioning_delay_us, faults, fault_gap_us,
            scale, seed + repetition,
        )
        for repetition in range(repetitions)
    ]
    live = [r["live_per_fault_us"] for r in reps]
    model = [r["model_per_fault_us"] for r in reps]
    live_mean = sum(live) / len(live)
    model_mean = sum(model) / len(model)
    band_us = max(live) - min(live)
    detection_us = max(r["detection_mean_us"] for r in reps)
    tolerance_us = band_us + 2.0 * detection_us
    return {
        "live_per_fault_us": live_mean,
        "model_per_fault_us": model_mean,
        "band_us": band_us,
        "tolerance_us": tolerance_us,
        "agrees": abs(live_mean - model_mean) <= tolerance_us,
        "repetitions": reps,
    }


def openloop_point(
    shards: int,
    workload: str,
    offered_ops_per_sec: float,
    n_clients: int,
    max_inflight: int,
    queue_limit: int,
    rate_ops_per_sec,
    window_us: float,
    scale: BenchScale,
    seed: int,
) -> dict:
    """One figMclients cell: open-loop arrivals at one offered rate.

    Runs the sharded spec under the vectorized
    :class:`~repro.workloads.openloop.OpenLoopEngine` — an
    *n_clients*-strong simulated population whose aggregate arrivals
    form a Poisson process at *offered_ops_per_sec* — and returns the
    offered-vs-achieved accounting plus the per-shard p50/p99/p99.9
    SLO summaries.
    """
    from repro.workloads.openloop import AdmissionControl

    spec = system_spec("sharded", scale=scale, cores=12, shards=shards)
    result = run_openloop(
        spec,
        WORKLOADS[workload],
        offered_ops_per_sec=offered_ops_per_sec,
        n_clients=n_clients,
        scale=scale,
        seed=seed,
        window_us=window_us,
        admission=AdmissionControl(
            max_inflight=max_inflight,
            queue_limit=queue_limit,
            rate_ops_per_sec=rate_ops_per_sec,
        ),
    )
    return _cell(result)


def hotspot_point(
    autoscale: bool,
    shards: int,
    workload: str,
    offered_ops_per_sec: float,
    n_clients: int,
    hot_span: int,
    max_inflight: int,
    queue_limit: int,
    window_us: float,
    warmup_us: float,
    before_us: float,
    settle_us: float,
    after_us: float,
    static_backups: int,
    provisioning_delay_us: float,
    fault_at_us,
    reconciler_interval_us: float,
    imbalance_factor: float,
    min_split_ops: int,
    forward_window_us: float,
    pool_max: int,
    scale: BenchScale,
    seed: int,
) -> dict:
    """One figHotspot cell: a mid-run hotspot shift, elastic or static.

    Both cells run the same seed, the same open-loop offered load, the
    same warmup fault burst (two coordinator crashes on the cold shard,
    closer together than the pool's provisioning delay), and the same
    :meth:`HotspotZipfSampler.retarget` onto shard 0 between the
    ``before`` and ``after`` measurement windows.  The only difference
    is the control plane: the *static* cell keeps a peak-provisioned
    pool (*static_backups*) and a fixed topology, while the *autoscale*
    cell starts with a one-spare pool and a :class:`Reconciler` that
    must resize it from the observed burst and split the hot shard out
    from under the live load.

    A closed-loop probe client records a linearizability history across
    the whole run (its keys migrate with everyone else's), and the
    epilogue reads back every acked probe write plus the hottest data
    keys — the zero-acked-write-loss gate.
    """
    from repro.bench.lincheck import History, Op, check_history
    from repro.bench.runner import _setup
    from repro.control import Reconciler, ReconcilerConfig
    from repro.kv.client import KvRequestFailed
    from repro.workloads.generator import HotspotZipfSampler
    from repro.workloads.openloop import AdmissionControl, OpenLoopEngine

    spec = system_spec(
        "sharded",
        scale=scale,
        cores=12,
        shards=shards,
        backups=static_backups if not autoscale else 1,
        provisioning_delay_us=provisioning_delay_us,
    )
    sim, fabric, service = _setup(spec, scale, seed)
    sampler = HotspotZipfSampler(scale.keys, service.ring, scale.zipf_theta)
    engine = OpenLoopEngine(
        fabric,
        service,
        WORKLOADS[workload],
        sampler,
        offered_ops_per_sec=offered_ops_per_sec,
        n_clients=n_clients,
        window_us=window_us,
        admission=AdmissionControl(
            max_inflight=max_inflight, queue_limit=queue_limit
        ),
        value_bytes=scale.value_bytes,
        name="hotspot-auto" if autoscale else "hotspot-static",
        elastic=autoscale,
    )

    ready = sim.spawn(spec.wait_ready(service), name="wait-ready")
    sim.run_until_settled(ready, deadline=10 * SEC)
    if not ready.ok:
        raise RuntimeError(f"{spec.name} never became ready: {ready.exception}")
    value = b"v" * scale.value_bytes
    spec.preload(service, ((sampler.key(i), value) for i in range(scale.keys)))

    # Closed-loop probe client: serialized puts/gets over a small key
    # set, every outcome recorded for the Wing-Gong checker.  Failed
    # calls are recorded as never-responded (they may or may not have
    # taken effect), which the checker treats as optional.
    probe_host = fabric.add_host("hotspot-probe", cores=2)
    router = spec.client_factory(probe_host, fabric, service)
    history = History()
    acked: dict = {}
    probe_stats = {"ops": 0, "failures": 0, "running": True}
    PROBE_KEYS = [b"probe%02d" % i for i in range(16)]

    def probe_loop():
        count = 0
        while probe_stats["running"]:
            key = PROBE_KEYS[count % len(PROBE_KEYS)]
            read = count % 4 == 3
            payload = None if read else b"p%08d" % count
            invoked = sim.now
            try:
                if read:
                    result = yield from router.get(key)
                    history.record(Op(key, "get", result, invoked, sim.now))
                else:
                    yield from router.put(key, payload)
                    history.record(Op(key, "put", payload, invoked, sim.now))
                    acked[key] = payload
                probe_stats["ops"] += 1
            except KvRequestFailed:
                kind = "get" if read else "put"
                history.record(Op(key, kind, payload, invoked, None))
                probe_stats["failures"] += 1
            count += 1
            yield sim.timeout(2 * MS)

    engine.start()
    probe_host.spawn(probe_loop(), name="hotspot-probe")
    reconciler = None
    if autoscale:
        reconciler = Reconciler(
            fabric,
            service,
            ReconcilerConfig(
                interval_us=reconciler_interval_us,
                imbalance_factor=imbalance_factor,
                min_split_ops=min_split_ops,
                max_shards=shards + 2,
                pool_min=1,
                pool_max=pool_max,
                forward_window_us=forward_window_us,
            ),
        )
        reconciler.start()

    # Warmup carries the fault burst: back-to-back crashes of the
    # *cold* shard's coordinator, each landing as soon as the shard is
    # serving again, so the requests space by detection + recovery —
    # closer than the provisioning delay — and a one-spare pool
    # demonstrably queues where the Fig. 8 replay asks for more.  Both
    # cells take the same burst; crash-when-serving (rather than fixed
    # times) keeps the second crash from whiffing on a cell whose first
    # promotion is a few milliseconds slower.
    base = sim.now
    cold_shard = service.ring.shards[-1]

    def fault_burst():
        for at_us in sorted(fault_at_us):
            if sim.now < base + at_us:
                yield sim.timeout(base + at_us - sim.now)
            while service.coordinators().get(cold_shard) is None:
                yield sim.timeout(5 * MS)
            service.crash_coordinator(shard=cold_shard)

    probe_host.spawn(fault_burst(), name="hotspot-faults")
    sim.run(until=base + warmup_us)

    engine.begin_measurement(phase="before")
    sim.run(until=sim.now + before_us)
    engine.end_measurement()
    before_slo = engine.slo_summary()

    # The shift: re-aim the hot ranks at shard 0's keys.  No RNG is
    # consumed, so the arrival stream is byte-identical to the static
    # cell's; only where the mass lands changes.
    sampler.retarget(0, hot_span)
    shift_at_us = sim.now - base
    sim.run(until=sim.now + settle_us)

    engine.begin_measurement(phase="after")
    sim.run(until=sim.now + after_us)
    engine.end_measurement()
    after_slo = engine.slo_summary()
    engine.stop()
    if reconciler is not None:
        reconciler.stop()
    probe_stats["running"] = False
    sim.run(until=sim.now + 20 * MS)  # drain in-flight ops

    # Epilogue: zero-acked-write-loss.  Every acked probe write must
    # read back as its last acked value, and the hottest data keys must
    # still hold the preloaded/engine value after split + migration.
    readback = {"checked": 0, "lost": 0, "missing": 0}

    def readback_loop():
        for key, expect in sorted(acked.items()):
            result = yield from router.get(key)
            readback["checked"] += 1
            if result != expect:
                readback["lost"] += 1
        for index in range(min(64, scale.keys)):
            result = yield from router.get(sampler.key(index))
            if result != value:
                readback["missing"] += 1

    check = probe_host.spawn(readback_loop(), name="hotspot-readback")
    sim.run_until_settled(check, deadline=30 * SEC)
    if not check.ok:
        raise RuntimeError(f"figHotspot readback failed: {check.exception}")
    lincheck_ok, offending = check_history(history)

    def tail(slo: dict, label: str) -> float:
        worst = 0.0
        for ops in slo.values():
            for summary in ops.values():
                worst = max(worst, float(summary.get(label, 0.0)))
        return worst

    pool = service.pool
    out = {
        "autoscale": bool(autoscale),
        "offered_ops_per_sec": offered_ops_per_sec,
        "achieved_ops_per_sec": engine.achieved_ops_per_sec(),
        "completed": engine.counts["completed"],
        "errors": engine.counts["errors"],
        "shift_at_us": shift_at_us,
        "slo": {"before": before_slo, "after": after_slo},
        "tails": {
            phase: {label: tail(slo, label) for label in ("p99", "p99.9")}
            for phase, slo in (("before", before_slo), ("after", after_slo))
        },
        "pool": {
            "capacity": pool.capacity,
            "vm_seconds": pool.vm_seconds(),
            "promotions": len(pool.promotion_log),
            "max_wait_us": max(
                (p.wait_us for p in pool.promotion_log), default=0.0
            ),
        },
        "control": {
            "shards": len(service.ring.shards),
            "ring_version": service.ring.version,
            "splits": reconciler.splits if reconciler else 0,
            "merges": reconciler.merges if reconciler else 0,
            "pool_resizes": reconciler.pool_resizes if reconciler else 0,
        },
        "probe": {
            "ops": probe_stats["ops"],
            "failures": probe_stats["failures"],
            "lincheck_ok": bool(lincheck_ok),
            "offending_key": (
                offending.decode("ascii", "replace") if offending else None
            ),
            **readback,
        },
    }
    return out
