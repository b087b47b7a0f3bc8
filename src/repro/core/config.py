"""Sift deployment configuration.

Defaults mirror the paper's experimental setup (§6.2) where one is
stated; timing constants that the paper leaves implicit are documented
with the sentence that constrains them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.memory_node import MemoryNodeConfig

__all__ = ["SiftConfig"]


# -- Coordinator-side CPU charges, in core-microseconds ----------------------
#
# These are the calibration constants behind Figure 7: Sift needs more
# cores than Raft-R at equal throughput because of "the larger amount of
# work being performed in the background to apply writes" (§6.3.2).

#: Posting a verb / reaping a completion.
RDMA_POST_US = 0.4

#: Base bookkeeping per client request inside the replicated-memory layer.
REQUEST_US = 4.0

#: Building a WAL slot image (header, CRC) before posting the writes.
LOG_APPEND_US = 2.0

#: Background work to apply one committed entry to replicated memory.
APPLY_ENTRY_US = 6.0

#: Cauchy RS encoding cost per KiB of block data (calibrated so the Sift
#: EC knee in Figure 7 lands ~2 cores above plain Sift's).
EC_ENCODE_US_PER_KB = 12.0

#: Decode cost per KiB when a read must rebuild from parity chunks.
EC_DECODE_US_PER_KB = 12.0

#: Acquiring/releasing one block lock.
LOCK_US = 0.5

# -- Protocol timings and sizing --------------------------------------------

#: Randomized back-off window between failed election rounds (§3.4).
ELECTION_BACKOFF_MIN_US = 200.0
ELECTION_BACKOFF_MAX_US = 4_000.0

#: Concurrent chunk copies during memory-node recovery.  The paper's
#: implementation "aggressively copies data to the new memory node to
#: bring it back into the system as quickly as possible" (§6.5) — the
#: resulting bandwidth contention is Figure 11's throughput dip.
RECOVERY_PARALLELISM = 8

#: Outstanding background apply verbs per memory node.
MAX_APPLY_INFLIGHT = 16

#: Table 2: memory nodes need a single core.
MEMORY_NODE_CORES = 1


@dataclass(frozen=True)
class SiftConfig:
    """Everything needed to deploy one Sift group."""

    fm: int = 1
    """Tolerated memory-node failures; the group runs 2*fm + 1 memory nodes."""

    fc: int = 1
    """Tolerated CPU-node failures; the group runs fc + 1 CPU nodes."""

    erasure_coding: bool = False
    """Enable Sift EC (§5.1): split blocks into fm+1 data + fm parity chunks."""

    data_bytes: int = 4 * 1024 * 1024
    """Size of the logical replicated memory exposed to applications."""

    direct_bytes: int = 0
    """Prefix of the address space writable without logging (§3.3.2).

    Stored un-encoded on every node even in EC mode, because direct
    writers (like the KV store's own WAL) manage recovery themselves.
    """

    block_bytes: int = 1024
    """Lock granularity and the erasure-coding block size B."""

    wal_entries: int = 32 * 1024
    """Replicated-memory WAL capacity (§6.2: 32k entries)."""

    wal_payload_bytes: int = 1_088
    """Maximum logged write size (a KV block plus headers fits)."""

    heartbeat_write_interval_us: float = 2_000.0
    """Coordinator lease renewal period.

    Must be at most heartbeat_read_interval / missed allowed so a deposed
    coordinator notices before the new one starts serving (§3.2).
    """

    heartbeat_read_interval_us: float = 7_000.0
    """§6.5: "a heartbeat read interval of 7ms"."""

    missed_heartbeats_allowed: int = 3
    """§6.5: "a tolerance of three missed heartbeats" (~21 ms detection)."""

    doorbell_batching: bool = False
    """Flush replication fan-out writes with one doorbell per batch.

    When set, the coordinator stages the per-node WAL/direct writes
    with :meth:`~repro.rdma.qp.QueuePair.prepare_write` and rings one
    doorbell (:meth:`~repro.rdma.nic.Rnic.post_many`) for the whole
    fan-out, paying the NIC's ``verb_overhead_us`` once instead of once
    per node.  Off by default: it changes simulated timings, so the
    committed figure baselines keep the unbatched path."""

    memnode_poll_interval_us: float = 500_000.0
    """§3.4.2: the background recovery thread polls failed nodes periodically."""

    recovery_chunk_bytes: int = 64 * 1024
    """Incremental copy unit for memory-node recovery (read-lock granularity)."""

    recovery_partitions: int = 1
    """Partition count for RAMCloud-style parallel memory-node recovery.

    ``1`` (the default) preserves the paper's single coordinator-driven
    copy stream — the §3.4.2 path, byte-for-byte.  Values above one
    split the node image into that many contiguous ranges (see
    :mod:`repro.core.partition`) and stream each range from a live
    source node *directly* to the rejoining node, so the aggregate copy
    bandwidth scales with the number of source links instead of being
    bottlenecked on the coordinator's NIC.  Erasure-coded groups always
    use the coordinator-driven stream regardless of this knob, because
    only the coordinator can decode and re-encode the target's chunks.
    """

    recovery_order: str = "sequential"
    """Memory-node recovery copy order: ``sequential`` (the paper's
    implementation) or ``popularity`` — the §6.5 proposal: "a more
    efficient recovery approach could identify the most popular memory
    blocks and copy them in order of increasing popularity to reduce the
    effective performance impact".  Popularity is tracked from the
    coordinator's remote-read counters, and the hottest chunks are copied
    *last* so the workload keeps its fast path for most of the copy."""

    cpu_node_cores: int = 10
    """Table 2: Sift CPU nodes were provisioned with 10 cores (12 for EC)."""

    # -- derived geometry ------------------------------------------------------

    @property
    def memory_node_count(self) -> int:
        """2Fm + 1 (§3.1)."""
        return 2 * self.fm + 1

    @property
    def cpu_node_count(self) -> int:
        """Fc + 1 (§3.1)."""
        return self.fc + 1

    @property
    def quorum(self) -> int:
        """Majority of memory nodes."""
        return self.fm + 1

    @property
    def data_shards(self) -> int:
        """EC data chunks per block (Fm + 1)."""
        return self.fm + 1

    @property
    def parity_shards(self) -> int:
        """EC parity chunks per block (Fm)."""
        return self.fm

    @property
    def chunk_bytes(self) -> int:
        """Stored bytes per node per block in EC mode (padded ceil(B/k))."""
        k = self.data_shards
        return (self.block_bytes + k - 1) // k

    @property
    def encoded_bytes(self) -> int:
        """Logical bytes in the encoded zone of the address space."""
        return self.data_bytes - self.direct_bytes

    @property
    def encoded_blocks(self) -> int:
        """Number of EC blocks in the encoded zone."""
        return (self.encoded_bytes + self.block_bytes - 1) // self.block_bytes

    @property
    def node_data_bytes(self) -> int:
        """Replicated-memory bytes stored per memory node."""
        if not self.erasure_coding:
            return self.data_bytes
        return self.direct_bytes + self.encoded_blocks * self.chunk_bytes

    @property
    def election_timeout_us(self) -> float:
        """Reads without a fresh heartbeat before a follower runs (§3.2)."""
        return self.heartbeat_read_interval_us * self.missed_heartbeats_allowed

    def memory_node_config(self) -> MemoryNodeConfig:
        """Geometry handed to each :class:`~repro.storage.MemoryNode`."""
        return MemoryNodeConfig(
            wal_entries=self.wal_entries,
            wal_payload_bytes=self.wal_payload_bytes,
            data_bytes=self.node_data_bytes,
        )

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if self.fm < 0 or self.fc < 0:
            raise ValueError("fm and fc must be non-negative")
        if self.direct_bytes > self.data_bytes:
            raise ValueError("direct_bytes cannot exceed data_bytes")
        if self.direct_bytes % self.block_bytes:
            raise ValueError("direct_bytes must be block-aligned")
        if self.wal_payload_bytes < self.block_bytes:
            raise ValueError("wal_payload_bytes must fit one block write")
        hb_budget = self.heartbeat_write_interval_us * 2
        if hb_budget > self.election_timeout_us:
            raise ValueError(
                "heartbeat writes too slow for the election timeout: a live "
                "coordinator would be deposed"
            )
        if self.recovery_partitions < 1:
            raise ValueError(
                f"recovery_partitions must be >= 1, got {self.recovery_partitions}"
            )
        if self.recovery_order not in ("sequential", "popularity"):
            raise ValueError(
                f"unknown recovery_order: {self.recovery_order!r} "
                "(expected 'sequential' or 'popularity')"
            )
