"""The traced run: spans and counts at layer boundaries, and a profile.

Before the cluster is built, :class:`LayerTracer` wraps public entry
points of each ``repro`` package.  While the measured window runs, each
wrapped call records a span (name, parent span, host start/end,
simulated start and, for calls that return a pending event, simulated
settle time) and bumps a count; outside the window the wrappers only
forward.  Spans stay in memory and are written out when the run ends.
Wrappers draw no randomness and schedule nothing, so the simulated
schedule is the one the untraced runs see.

:func:`fold_profile` folds a stdlib ``cProfile`` of the window by
``repro`` package into per-layer host self time.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from collections import Counter, deque
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core import cpu_node as core_cpu_node
from repro.core import recovery as core_recovery
from repro.core.replicated_memory import ReplicatedMemory
from repro.kv.cache import ValueCache
from repro.kv.store import KvServer
from repro.net.fabric import Fabric
from repro.net.latency import LinearLatency
from repro.net.rpc import RpcClient
from repro.rdma.nic import Rnic
from repro.shard.hashing import HashRing
from repro.shard.service import ShardedKvService
from repro.sim.cpu import CpuPool
from repro.sim.engine import Event, Process, Simulator
from repro.workloads.openloop import ArrivalGenerator
from repro.workloads.retry import RetryPolicy

from drive import Hooks, coordinators

#: Spans kept in memory per run; counts keep going past the cap.
SPAN_CAP = 50_000

SPAN_FIELDS = [
    "id", "name", "parent", "host_start_s", "host_end_s", "sim_start_us", "sim_settle_us",
]

#: (owner, attribute, span name) of plain calls; per-op counts are taken
#: from these names.
SYNC_TARGETS = [
    (Simulator, "schedule", "sim.schedule"),
    (Simulator, "spawn", "sim.spawn"),
    (CpuPool, "execute", "sim.cpu.execute"),
    (Fabric, "deliver", "net.deliver"),
    (RpcClient, "call", "net.rpc.call"),
    (LinearLatency, "sample", "net.latency.sample"),
    (Rnic, "transfer", "rdma.transfer"),
    (Rnic, "post_many", "rdma.post_many"),
    (ValueCache, "get", "kv.cache.get"),
    (ArrivalGenerator, "batch", "workloads.batch"),
    (HashRing, "shard_for", "shard.ring.shard_for"),
    (HashRing, "shard_index_batch", "shard.ring.shard_index_batch"),
    (ShardedKvService, "shard_for", "shard.service.shard_for"),
]
#: The same for generator functions (simulated processes).
GEN_TARGETS = [
    (ReplicatedMemory, "write", "core.repmem.write"),
    (ReplicatedMemory, "multi_write", "core.repmem.multi_write"),
    (ReplicatedMemory, "direct_write", "core.repmem.direct_write"),
    (ReplicatedMemory, "connect", "core.repmem.connect"),
    (KvServer, "start", "kv.server.start"),
    (KvServer, "handle_get", "kv.server.get"),
    (KvServer, "handle_put", "kv.server.put"),
    (RetryPolicy, "execute", "workloads.retry.execute"),
]
#: Generator spans kept apart for the failover milestones.
MILESTONES = ("core.repmem.connect", "core.recover_log", "kv.server.start")


class LayerTracer(Hooks):
    """Wraps the layer entry points; records spans and counts in the window.

    With *profile*, a ``cProfile`` profiler also runs in the window.
    """

    def __init__(self, profile: bool = False):
        self.profile = cProfile.Profile() if profile else None
        self.active = False
        self.sim: Optional[Simulator] = None
        self.spans: List[list] = []
        self.dropped = 0
        self.counts: Counter = Counter()
        self.stack: List[int] = []
        self.next_id = 0
        self.coordinator_pools: set = set()
        self.cpu_waits: List[float] = []
        self.cache = Counter()
        self.batch_arrivals = 0
        self.batch_host_s = 0.0
        self.latency_draws = 0
        self.lane_waits: List[float] = []
        self.gen_spans: Dict[str, List[list]] = {}
        self._restore: List[tuple] = []
        self._pools: List[CpuPool] = []
        self._busy_before: Dict[int, float] = {}
        self.window_start_us = 0.0
        self.coordinator_util = 0.0
        self.replayed_records = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in SYNC_TARGETS:
            self._patch(owner, attr, self._wrap_call(name, getattr(owner, attr)))
        for owner, attr, name in GEN_TARGETS:
            self._patch(owner, attr, self._wrap_gen(name, getattr(owner, attr)))
        # cpu_node resolves recover_log through its own module globals.
        wrapped = self._wrap_gen("core.recover_log", core_recovery.recover_log)
        self._patch(core_cpu_node, "recover_log", wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> list:
        self.counts[name] += 1
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        span = [self.next_id, name, parent, time.perf_counter(), None, self.sim.now, None]
        if len(self.spans) < SPAN_CAP:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def _wrap_call(self, name: str, fn: Callable) -> Callable:
        tracer = self
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            tracer.stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
            span[4] = time.perf_counter()
            if isinstance(result, Event) and not isinstance(result, Process):
                # A process's waiters decide whether its crash is handled,
                # so only plain events get the settle callback.
                if result.settled:
                    span[6] = span[5]
                else:
                    result.add_callback(
                        lambda _ev, _span=span: _span.__setitem__(6, tracer.sim.now)
                    )
            if observe is not None:
                observe(span, args, result)
            return result

        return wrapper

    def _wrap_gen(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return (yield from fn(*args, **kwargs))
            span = tracer._open(name)
            if name in MILESTONES:
                tracer.gen_spans.setdefault(name, []).append(span)
            result = yield from fn(*args, **kwargs)
            span[4] = time.perf_counter()
            span[6] = tracer.sim.now
            return result

        return wrapper

    # -- per-target observations -------------------------------------------

    def _on_sim_cpu_execute(self, span, args, done) -> None:
        pool, cost = args[0], args[1]
        if id(pool) not in self.coordinator_pools or cost <= 0.0:
            return
        start = span[5]

        def settled(_ev, waits=self.cpu_waits):
            waits.append(self.sim.now - start - cost)

        done.add_callback(settled)

    def _on_net_latency_sample(self, span, args, result) -> None:
        if args[0].jitter:
            self.latency_draws += 1

    def _on_kv_cache_get(self, span, args, result) -> None:
        self.cache["hits" if result[0] else "misses"] += 1

    def _on_workloads_batch(self, span, args, result) -> None:
        self.batch_arrivals += result.count
        self.batch_host_s += span[4] - span[3]

    # -- window hooks -------------------------------------------------------

    def window_begin(self, sim, cluster, engine) -> None:
        self.sim = sim
        self.window_start_us = sim.now
        groups = getattr(cluster, "groups", None) or [cluster]
        pools = [node.host.cpu for g in groups for node in g.cpu_nodes]
        self.coordinator_pools = {id(c.host.cpu) for c in coordinators(cluster)}
        self._busy_before = {id(p): _busy(p, sim.now) for p in pools}
        self._pools = pools
        if engine is not None:
            for lane in engine.lanes:
                lane.pending = _WaitDeque(lane.pending, self)
        self.active = True
        if self.profile is not None:
            self.profile.enable()

    def window_end(self, sim, cluster, engine) -> None:
        if self.profile is not None:
            self.profile.disable()
        self.active = False
        serving = {id(c.host.cpu) for c in coordinators(cluster)}
        busy = cores = 0.0
        window = sim.now - self.window_start_us
        for pool in self._pools:
            if id(pool) in serving:
                busy += _busy(pool, sim.now) - self._busy_before[id(pool)]
                cores += pool.cores
        self.coordinator_util = busy / (cores * window) if cores and window > 0 else 0.0
        self.replayed_records = sum(
            c.app.stats["replayed"] for c in coordinators(cluster) if c.app is not None
        )

    # -- output ------------------------------------------------------------

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [
            [s[0], s[1], s[2], s[3] - t0, None if s[4] is None else s[4] - t0, s[5], s[6]]
            for s in self.spans
        ]
        doc = dict(extra, fields=SPAN_FIELDS, spans=rows, dropped=self.dropped,
                   counts=dict(sorted(self.counts.items())))
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _busy(pool: CpuPool, now: float) -> float:
    """Core-microseconds *pool* has served since t=0, via its public ratio."""
    return pool.utilisation(now) * pool.cores * now if now > 0 else 0.0


class _WaitDeque:
    """A lane backlog that records each op's wait from due to dispatch."""

    def __init__(self, items, tracer: LayerTracer):
        self._items = deque(items)
        self._tracer = tracer

    def append(self, item) -> None:
        self._items.append(item)

    def popleft(self):
        item = self._items.popleft()
        tracer = self._tracer
        if tracer.active:
            tracer.lane_waits.append(tracer.sim.now - item[2])
        return item

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


# -- profile fold ----------------------------------------------------------------

#: Layers reported by name; other ``repro`` packages fold into "other".
LAYERS = ["sim", "sim.cpu", "net", "rdma", "core", "kv", "workloads", "shard", "obs"]


def layer_of(filename: str, bench_dir: str) -> str:
    """The layer a profiled function's source file belongs to."""
    if filename.startswith(bench_dir):
        return "tracer"
    marker = "/src/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return "stdlib"  # builtins ("~"), the standard library and numpy
    parts = filename[at + len(marker):].split("/")
    if parts[0] == "sim" and parts[-1] == "cpu.py":
        return "sim.cpu"
    if len(parts) > 1 and parts[0] in LAYERS:
        return parts[0]
    return "other"


def fold_profile(profile, bench_dir: str) -> Dict[str, float]:
    """Host self seconds per layer in *profile*, plus "total"."""
    out: Dict[str, float] = Counter()
    total = 0.0
    for (filename, _line, _func), row in pstats.Stats(profile).stats.items():
        self_s = row[2]
        out[layer_of(filename, bench_dir)] += self_s
        total += self_s
    out = dict(out)
    out["total"] = total
    return out
