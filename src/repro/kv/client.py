"""KV client.

Clients talk to whichever CPU node currently coordinates.  They do not
participate in the protocol: a client simply issues the RPC, and when the
call times out or errors (the node crashed, was deposed mid-request, or
was never the coordinator) it rotates to the next CPU node of the group
with a small back-off.  The client remembers the last node that answered
so steady-state traffic goes straight to the coordinator.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.core.group import SiftGroup
from repro.errors import ReproError
from repro.net.fabric import Fabric
from repro.net.host import Host
from repro.net.rpc import RpcClient
from repro.obs.stats import StatsSnapshot
from repro.sim.units import MS

__all__ = ["KvClient", "KvRequestFailed"]


class KvRequestFailed(ReproError):
    """The request could not complete after exhausting every CPU node."""

    retryable = True


class KvClient:
    """A closed-loop client bound to one Sift group."""

    def __init__(
        self,
        host: Host,
        fabric: Fabric,
        group: SiftGroup,
        request_timeout_us: float = 10 * MS,
        max_rounds: int = 2_000,
        retry_backoff_us: float = 5 * MS,
    ):
        self.host = host
        self.group = group
        self.rpc = RpcClient(host, fabric)
        self.request_timeout_us = request_timeout_us
        self.max_rounds = max_rounds
        self.retry_backoff_us = retry_backoff_us
        self._preferred: Optional[int] = None
        self._order_cache: dict = {}  # preferred index -> probe order tuple
        self.stats = {
            "requests": 0,
            "retries": 0,
            "failures": 0,
            "inflight": 0,
            "inflight_peak": 0,
        }

    def prefer(self, index: int) -> None:
        """Seed the preferred-CPU-node cache (modulo the group size)."""
        cpu_nodes = self.group.cpu_nodes
        self._preferred = index % max(1, len(cpu_nodes))

    def snapshot(self) -> StatsSnapshot:
        """This client's counters under the shared stats protocol."""
        stats = self.stats
        return StatsSnapshot(
            kind="kv_client",
            name=f"{self.host.name}->{self.group.name}",
            counters={
                "requests": float(stats["requests"]),
                "retries": float(stats["retries"]),
                "failures": float(stats["failures"]),
            },
            gauges={
                "inflight": float(stats["inflight"]),
                "inflight_peak": float(stats["inflight_peak"]),
            },
        )

    # -- public API (all processes) ---------------------------------------------

    def put(self, key: bytes, value: bytes):
        """Process: store *value* under *key*; returns the commit sequence."""
        status, result = yield from self._call(
            "kv.put", (bytes(key), bytes(value)), len(key) + len(value)
        )
        return result

    def get(self, key: bytes):
        """Process: fetch *key*; returns the value or None when absent."""
        status, result = yield from self._call("kv.get", bytes(key), len(key))
        return result if status == "ok" else None

    def delete(self, key: bytes):
        """Process: delete *key* (idempotent)."""
        status, result = yield from self._call("kv.delete", bytes(key), len(key))
        return result

    # -- mechanics ---------------------------------------------------------------

    def _endpoints(self):
        endpoints = []
        preferred = self._preferred
        cpu_nodes = self.group.cpu_nodes
        n = len(cpu_nodes)
        if preferred is not None and preferred < n:
            # The probe order depends only on (preferred, n); memoise it
            # instead of rebuilding the list on every request.
            order = self._order_cache.get(preferred)
            if order is None or len(order) != n:
                order = (preferred, *(i for i in range(n) if i != preferred))
                self._order_cache[preferred] = order
        else:
            order = range(n)
        for index in order:
            cpu_node = cpu_nodes[index]
            endpoint = cpu_node.host.services.get("rpc:kv")
            if endpoint is not None and cpu_node.host.alive:
                endpoints.append((index, endpoint))
        return endpoints

    def _call(self, method: str, payload: Any, payload_bytes: int):
        stats = self.stats
        stats["requests"] += 1
        # In-flight window accounting: the bounded-dispatch load engines
        # (open-loop lanes, the chaos clients) cap concurrency above this
        # layer; the counter lets tests and routers *verify* the bound at
        # the client, with no yields or randomness added to the call.
        stats["inflight"] += 1
        if stats["inflight"] > stats["inflight_peak"]:
            stats["inflight_peak"] = stats["inflight"]
        try:
            last_error: Optional[BaseException] = None
            for round_number in range(self.max_rounds):
                endpoints = self._endpoints()
                if not endpoints:
                    yield self.host.sim.timeout(self.retry_backoff_us)
                    continue
                for index, endpoint in endpoints:
                    event = self.rpc.call(
                        endpoint,
                        method,
                        payload,
                        payload_bytes=payload_bytes,
                        timeout_us=self.request_timeout_us,
                    )
                    try:
                        reply: Tuple[str, Any] = yield event
                    except Exception as exc:  # timeout, unreachable, handler error
                        last_error = exc
                        stats["retries"] += 1
                        continue
                    self._preferred = index
                    return reply
                yield self.host.sim.timeout(self.retry_backoff_us)
            stats["failures"] += 1
            raise KvRequestFailed(
                f"{method} failed after {self.max_rounds} rounds: {last_error}"
            )
        finally:
            stats["inflight"] -= 1
