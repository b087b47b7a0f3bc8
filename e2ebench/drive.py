"""Workload definitions and the single-repetition driver.

A repetition is one complete, seeded experiment: a fresh simulator,
build, wait until serving, preload, warm up, and one measured window.
It composes the same public layer calls as
:func:`repro.bench.runner._drive` (closed loop) and
:func:`repro.bench.runner.run_openloop` (open loop), so every phase can
be timed from outside the program.  Two repetitions of one workload at
one seed simulate exactly the same schedule; only host times differ.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.bench.calibration import SMOKE_SCALE, BenchScale
from repro.bench.metrics import Metrics
from repro.bench.systems import sharded_spec, sift_spec
from repro.chaos import FaultSchedule
from repro.kv.client import KvClient
from repro.net.fabric import Fabric
from repro.obs.registry import MetricsRegistry, collecting
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS, SEC
from repro.workloads import WORKLOADS
from repro.workloads.clients import ClientPool
from repro.workloads.generator import KeySampler, StripedZipfSampler, ZipfSampler
from repro.workloads.openloop import AdmissionControl, OpenLoopEngine

#: Cores on every CPU node: the fig5 / figMclients smoke points use 12.
CORES = 12

#: Open-loop population and in-flight window per shard (figMclients').
POPULATION = 1_000_000
MAX_INFLIGHT = 16

#: The measured window runs in steps of this much simulated time, each
#: followed by one calibration loop (outside the timed steps).
STEP_US = 1 * MS

#: Calibration loops per second on the reference host (one core of the
#: 2-vCPU x86-64 machine the benchmark was tuned on, unloaded).  Host
#: times are scaled to that speed.
CALIBRATION_REF_PER_S = 600.0


def _calibration_loop(n: int = 10_000) -> int:
    """A fixed slice of interpreter work: dict stores, lookups, adds."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(n):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return total


class HostClock:
    """Host seconds of simulator work, with a speed from a calibration loop.

    The host is shared, and its speed drifts by a third within seconds.
    Timing a fixed calibration loop between the simulator's steps tracks
    that drift; dividing by the reference speed turns raw seconds into
    seconds on the reference host.
    """

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self.work_s = 0.0
        self._cal_s = 0.0
        self._cal_n = 0

    def run(self, sim: Simulator, until: float) -> None:
        """Advance *sim* to *until*, timing the steps."""
        while sim.now < until:
            t0 = time.perf_counter()
            sim.run(until=min(until, sim.now + STEP_US))
            self.work_s += time.perf_counter() - t0
            if self.calibrate:
                self.measure_speed(1)

    def measure_speed(self, loops: int) -> None:
        t0 = time.perf_counter()
        for _ in range(loops):
            _calibration_loop()
        self._cal_s += time.perf_counter() - t0
        self._cal_n += loops

    @property
    def speed(self) -> float:
        """Host speed relative to the reference (1.0 without calibration)."""
        if not self._cal_n:
            return 1.0
        return self._cal_n / self._cal_s / CALIBRATION_REF_PER_S


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: system, traffic and measured window."""

    name: str
    system: str  #: "sift" (one group) or "sharded" (2 groups + backup pool)
    mix: str  #: a :data:`repro.workloads.WORKLOADS` name
    warmup_us: float
    measure_us: float
    clients: int = 0  #: closed-loop clients
    probe_readers: int = 0  #: closed-loop read-only clients beside them
    offered_ops_per_sec: float = 0.0  #: open-loop rate (0 = closed loop)
    queue_limit: int = 512  #: open-loop backlog bound per shard
    throttle_ops_per_sec: Optional[float] = None
    crash_leader_at_us: Optional[float] = None  #: from the window start
    history_keys: int = 0  #: probe-client keys checked for linearizability

    @property
    def open_loop(self) -> bool:
        return self.offered_ops_per_sec > 0

    def scale(self) -> BenchScale:
        """The smoke geometry (4,096 keys, 992-B values) with our windows."""
        return replace(
            SMOKE_SCALE,
            warmup_us=self.warmup_us,
            measure_us=self.measure_us,
            clients=self.clients,
        )


WORKLOAD_LIST = [
    Workload(
        name="sift-read-closed",
        system="sift",
        mix="read-heavy",
        clients=12,
        warmup_us=20 * MS,
        measure_us=100 * MS,
    ),
    Workload(
        name="sift-write-closed",
        system="sift",
        mix="write-only",
        clients=24,
        probe_readers=4,
        warmup_us=50 * MS,
        measure_us=60 * MS,
    ),
    Workload(
        name="sharded-open",
        system="sharded",
        mix="read-heavy",
        offered_ops_per_sec=450_000.0,
        throttle_ops_per_sec=720_000.0,
        warmup_us=20 * MS,
        measure_us=60 * MS,
    ),
    Workload(
        name="sift-failover-open",
        system="sift",
        mix="read-heavy",
        offered_ops_per_sec=100_000.0,
        queue_limit=16_384,
        crash_leader_at_us=50 * MS,
        history_keys=4,
        warmup_us=20 * MS,
        measure_us=500 * MS,
    ),
]
WORKLOADS_BY_NAME = {w.name: w for w in WORKLOAD_LIST}

#: The fig5 smoke point the parity anchor re-runs (BENCH_fig5.json cell
#: sift/read-heavy at seed 1).
FIG5_ANCHOR = Workload(
    name="fig5-anchor",
    system="sift",
    mix="read-heavy",
    clients=SMOKE_SCALE.clients,
    warmup_us=SMOKE_SCALE.warmup_us,
    measure_us=SMOKE_SCALE.measure_us,
)


class CompletionMetrics(Metrics):
    """:class:`Metrics` that also keeps every completion time in the window.

    The reservoir stays the source of the latency samples (exact below
    its 200k cap); the completion times give the longest interval in
    which no client op completed.
    """

    def __init__(self, seed: int):
        super().__init__(seed=seed)
        self.done_at: List[float] = []

    def record(self, op: str, start_us: float, end_us: float) -> None:
        super().record(op, start_us, end_us)
        if self.measuring:
            self.done_at.append(end_us)


class _CapturedSlo:
    """Forwards to an :class:`SloHistogram`, keeping each exact sample."""

    def __init__(self, histogram, sink: List[float], done_at: List[float], sim):
        self._histogram = histogram
        self._sink = sink
        self._done_at = done_at
        self._sim = sim

    def observe(self, value: float) -> None:
        self._sink.append(value)
        self._done_at.append(self._sim.now)
        self._histogram.observe(value)

    def __getattr__(self, name):
        return getattr(self._histogram, name)


class CapturingRegistry(MetricsRegistry):
    """A registry whose ``slo()`` hook also hands out exact samples.

    The open-loop engine records each completion, timed from the
    arrival window it was due in, into an ``openloop.latency_us`` SLO
    histogram.  Its sqrt(2)-spaced buckets are too coarse for tail
    percentiles, so the samples are captured here on their way in.
    """

    def __init__(self, sim: Simulator):
        super().__init__()
        self.sim = sim
        self.latencies: Dict[str, List[float]] = {"read": [], "write": []}
        self.done_at: List[float] = []

    def slo(self, name: str, **labels):
        histogram = super().slo(name, **labels)
        if name != "openloop.latency_us":
            return histogram
        return _CapturedSlo(
            histogram, self.latencies[labels["op"]], self.done_at, self.sim
        )


@dataclass
class Rep:
    """What one repetition measured."""

    setup: Dict[str, float]  #: reference-host seconds per set-up phase
    window_host_s: float  #: raw host seconds spent simulating the window
    host_speed: float  #: host speed relative to the reference, in the window
    window_sim_us: float
    window_start_us: float
    completed: int
    attempted: int
    failed: int
    latencies: Dict[str, List[float]]  #: sim microseconds per op type
    done_at: List[float]  #: completion times in the window (sim us)
    crash_at_us: Optional[float]
    counters: Dict[str, float]  #: registry counters, window delta
    sim_facts: Dict[str, float]  #: further exact outcomes for the checks
    history: Optional[object] = None


def _spec(workload: Workload):
    scale = workload.scale()
    if workload.system == "sharded":
        return sharded_spec(shards=2, cores=CORES, scale=scale)
    return sift_spec(cores=CORES, scale=scale)


def _counters(registry: MetricsRegistry) -> Dict[str, float]:
    return dict(registry.snapshot()["counters"])


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items() if v != before.get(k, 0.0)}


def coordinators(cluster) -> list:
    """The serving coordinator of each group (one for a single group)."""
    groups = getattr(cluster, "groups", None) or [cluster]
    return [g.serving_coordinator() for g in groups if g.serving_coordinator()]


def _history_probe(sim, fabric, cluster, keys: List[bytes], rounds: int, gap_us: float):
    """Process: alternate put/get on *keys*; returns the recorded history.

    Ops that raise carry no response time, so the linearizability check
    treats them as possibly applied.
    """
    from repro.bench.lincheck import GET, PUT, History, Op
    from repro.errors import ReproError

    host = fabric.add_host("history-probe", cores=2)
    client = KvClient(host, fabric, cluster)
    history = History()

    def run():
        for index in range(rounds):
            key = keys[index % len(keys)]
            value = b"h%06d" % index
            start = sim.now
            try:
                yield from client.put(key, value)
                history.record(Op(key, PUT, value, start, sim.now))
            except ReproError:
                history.record(Op(key, PUT, value, start, None))
            start = sim.now
            try:
                got = yield from client.get(key)
                history.record(Op(key, GET, got, start, sim.now))
            except ReproError:
                pass
            yield sim.timeout(gap_us)

    host.spawn(run(), name="history-probe")
    return history


class Hooks:
    """Callbacks around the measured window (the traced run overrides)."""

    def window_begin(self, sim, cluster, engine) -> None:
        pass

    def window_end(self, sim, cluster, engine) -> None:
        pass


def _set_up(workload: Workload, seed: int, spec, t0: float, sim: Simulator):
    """Build, wait until serving, make the key sampler and preload.

    Returns the fabric, cluster, sampler and the seconds of each phase
    on the reference host; *t0* is when the fresh simulator was created.
    """
    scale = workload.scale()
    fabric = Fabric(sim, rng=RngStreams(seed=seed))
    cluster = spec.build(fabric)
    t1 = time.perf_counter()
    ready = sim.spawn(spec.wait_ready(cluster), name="wait-ready")
    ready.add_callback(lambda _ev: None)  # inspected below
    sim.run_until_settled(ready, deadline=5 * SEC)
    if not ready.ok:
        raise RuntimeError(f"{spec.name} never became ready: {ready.exception}")
    t2 = time.perf_counter()
    ring = getattr(cluster, "ring", None)
    if workload.open_loop and ring is not None:
        sampler = StripedZipfSampler(scale.keys, ring, scale.zipf_theta)
    else:
        sampler = ZipfSampler(scale.keys, scale.zipf_theta)
    t3 = time.perf_counter()
    value = b"v" * scale.value_bytes
    if workload.open_loop:
        # A striped sampler renders other wire keys than the plain set.
        items = ((sampler.key(i), value) for i in range(scale.keys))
    else:
        plain = KeySampler(scale.keys)
        items = ((plain.key(i), value) for i in range(scale.keys))
    spec.preload(cluster, items)
    t4 = time.perf_counter()
    clock = HostClock()
    clock.measure_speed(8)
    raw = dict(build_s=t1 - t0, ready_s=t2 - t1, sampler_s=t3 - t2, preload_s=t4 - t3)
    setup = {phase: seconds * clock.speed for phase, seconds in raw.items()}
    return fabric, cluster, sampler, setup


def run_setup(workload: Workload, seed: int) -> Dict[str, float]:
    """Only set up *workload* (fresh simulator to preloaded cluster)."""
    spec = _spec(workload)
    t0 = time.perf_counter()
    sim = Simulator()
    with collecting(CapturingRegistry(sim)):
        return _set_up(workload, seed, spec, t0, sim)[3]


def run_rep(
    workload: Workload, seed: int, hooks: Optional[Hooks] = None, calibrate: bool = True
) -> Rep:
    """Run one seeded repetition of *workload* and measure it.

    A metrics registry is installed for the whole repetition, the way
    figure points run under :func:`repro.obs.registry.collecting`; no
    tracer is installed.
    """
    spec = _spec(workload)
    t0 = time.perf_counter()
    sim = Simulator()
    registry = CapturingRegistry(sim)
    with collecting(registry):
        fabric, cluster, sampler, setup = _set_up(workload, seed, spec, t0, sim)
        return _measure(workload, seed, hooks or Hooks(), HostClock(calibrate), spec,
                        fabric, cluster, sampler, setup, registry)


def _measure(workload, seed, hooks, clock, spec, fabric, cluster, sampler, setup,
             registry) -> Rep:
    sim = fabric.sim
    scale = workload.scale()
    mix = WORKLOADS[workload.mix]
    metrics = engine = None
    pools = []
    if workload.open_loop:
        engine = OpenLoopEngine(
            fabric, cluster, mix, sampler,
            offered_ops_per_sec=workload.offered_ops_per_sec,
            n_clients=POPULATION,
            window_us=1 * MS,
            admission=AdmissionControl(
                max_inflight=MAX_INFLIGHT,
                queue_limit=workload.queue_limit,
                rate_ops_per_sec=workload.throttle_ops_per_sec,
            ),
            value_bytes=scale.value_bytes,
        )
        ticks: List[float] = []
        draw = engine.generator.window_count

        def window_count(lam, _draw=draw):
            ticks.append(sim.now)
            return _draw(lam)

        engine.generator.window_count = window_count
        engine.start()
    else:
        metrics = CompletionMetrics(seed=seed)
        pools.append(ClientPool(
            fabric, cluster, workload.clients, mix, sampler, metrics,
            value_bytes=scale.value_bytes, client_factory=spec.client_factory,
        ))
        if workload.probe_readers:
            pools.append(ClientPool(
                fabric, cluster, workload.probe_readers, WORKLOADS["read-only"],
                sampler, metrics, value_bytes=scale.value_bytes,
                name="readers", client_factory=spec.client_factory,
            ))
        for pool in pools:
            pool.start()
    sim.run(until=sim.now + scale.warmup_us)

    history = None
    if workload.history_keys:
        keys = [b"history-%02d" % i for i in range(workload.history_keys)]
        # A single client's ops never overlap, so each key's history is
        # checked in linear time; the checker caps a key at 64 ops.
        gap = 3 * MS
        rounds = min(int(scale.measure_us / gap), 30 * len(keys))
        history = _history_probe(sim, fabric, cluster, keys, rounds, gap)

    events = []
    if workload.crash_leader_at_us is not None:
        events = FaultSchedule().crash_leader(workload.crash_leader_at_us).to_timeline_events()

    before = _counters(registry)
    gc.collect()
    hooks.window_begin(sim, cluster, engine)
    base = sim.now
    crash_at = None
    if engine is not None:
        backlog_start = sum(len(lane.pending) + lane.inflight for lane in engine.lanes)
        engine.begin_measurement()
    else:
        metrics.begin(base)
    for at_us, _label, inject in events:
        clock.run(sim, base + at_us)
        inject(cluster)
        crash_at = sim.now
    clock.run(sim, base + scale.measure_us)
    if engine is not None:
        engine.end_measurement()
    else:
        metrics.end(sim.now)
    hooks.window_end(sim, cluster, engine)
    counters = _delta(before, _counters(registry))

    sim_facts: Dict[str, float] = {}
    if engine is not None:
        engine.stop()
        counts = engine.counts
        completed = counts["completed"]
        shed = engine.shed["throttle"] + engine.shed["queue"]
        attempted = counts["offered"]
        failed = counts["errors"] + shed
        latencies = {op: list(v) for op, v in registry.latencies.items()}
        done_at = list(registry.done_at)
        due = [t for t in ticks if base <= t < sim.now]
        late = [b - a - engine.window_us for a, b in zip(due, due[1:])]
        sim_facts.update(
            ticks=len(due),
            tick_lag_us=max((abs(x) for x in late), default=0.0),
            offered=counts["offered"], admitted=counts["admitted"],
            throttle_shed=engine.shed["throttle"], queue_shed=engine.shed["queue"],
            errors=counts["errors"], retries=counts["retries"],
            backlog_start=backlog_start,
            backlog_end=sum(len(lane.pending) + lane.inflight for lane in engine.lanes),
        )
    else:
        for pool in pools:
            pool.stop()
        completed = metrics.completed
        attempted = metrics.completed + metrics.errors
        failed = metrics.errors
        latencies = {op: list(v) for op, v in metrics.latencies.items()}
        done_at = list(metrics.done_at)
        sim_facts.update(errors=metrics.errors, retries=sum(p.retries for p in pools))
    return Rep(
        setup=setup,
        window_host_s=clock.work_s,
        host_speed=clock.speed,
        window_sim_us=sim.now - base,
        window_start_us=base,
        completed=completed,
        attempted=attempted,
        failed=failed,
        latencies=latencies,
        done_at=done_at,
        crash_at_us=crash_at,
        counters=counters,
        sim_facts=sim_facts,
        history=history,
    )
