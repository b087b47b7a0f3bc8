"""The settable configuration surface, pinned.

Config records carry only values some caller sets; calibration costs
and protocol timings that nobody varies are module constants.  These
tests pin three things: the exact field names of every config record,
the values of the constants, and the chaos explorer's schedules (which
read some of those constants) for a few seeds.
"""

import dataclasses

import pytest

import repro.baselines.epaxos as epaxos
import repro.baselines.raft as raft
import repro.chaos.explorer as explorer
import repro.cluster.trace as trace
import repro.control.reconciler as reconciler
import repro.core.config as core_config
import repro.kv.config as kv_config
from repro.bench.calibration import BenchScale
from repro.chaos import ChaosSpace, random_schedule
from repro.core.config import SiftConfig
from repro.kv.config import KvConfig
from repro.storage.memory_node import MemoryNodeConfig
from repro.workloads.openloop import AdmissionControl

FIELDS = {
    SiftConfig: [
        "fm", "fc", "erasure_coding", "data_bytes", "direct_bytes", "block_bytes",
        "wal_entries", "wal_payload_bytes", "heartbeat_write_interval_us",
        "heartbeat_read_interval_us", "missed_heartbeats_allowed", "doorbell_batching",
        "memnode_poll_interval_us", "recovery_chunk_bytes", "recovery_partitions",
        "recovery_order", "cpu_node_cores",
    ],
    KvConfig: [
        "max_keys", "key_bytes", "value_bytes", "cache_fraction", "wal_entries",
        "watermark_interval", "apply_workers", "coalesce_appends", "coalesce_max",
    ],
    MemoryNodeConfig: ["wal_entries", "wal_payload_bytes", "data_bytes", "persistent"],
    raft.RaftConfig: ["f", "cores"],
    epaxos.EPaxosConfig: ["f", "cores", "batch_window_us", "batch_max"],
    reconciler.ReconcilerConfig: [
        "interval_us", "imbalance_factor", "min_split_ops", "max_shards",
        "merge_idle_factor", "min_shards", "pool_min", "pool_max", "forward_window_us",
    ],
    trace.TraceConfig: ["machines", "duration_days"],
    ChaosSpace: ["nodes", "memory_nodes", "horizon_us"],
    AdmissionControl: ["max_inflight", "queue_limit", "rate_ops_per_sec", "burst_ops"],
    BenchScale: [
        "keys", "warmup_us", "measure_us", "clients", "value_bytes", "zipf_theta",
        "wal_entries", "kv_wal_entries",
    ],
}

CONSTANTS = {
    core_config: {
        "RDMA_POST_US": 0.4,
        "REQUEST_US": 4.0,
        "LOG_APPEND_US": 2.0,
        "APPLY_ENTRY_US": 6.0,
        "EC_ENCODE_US_PER_KB": 12.0,
        "EC_DECODE_US_PER_KB": 12.0,
        "LOCK_US": 0.5,
        "ELECTION_BACKOFF_MIN_US": 200.0,
        "ELECTION_BACKOFF_MAX_US": 4_000.0,
        "RECOVERY_PARALLELISM": 8,
        "MAX_APPLY_INFLIGHT": 16,
        "MEMORY_NODE_CORES": 1,
    },
    kv_config: {
        "INDEX_LOAD_FACTOR": 0.125,
        "OP_CPU_US": 8.0,
        "CACHE_CPU_US": 1.2,
        "APPLY_CPU_US": 6.0,
    },
    raft: {
        "MSG_RECV_US": 1.2,
        "LOG_APPEND_US": 1.0,
        "APPLY_US": 2.0,
        "MAP_READ_US": 2.0,
        "OP_US": 4.0,
        "WRITE_OP_US": 12.0,
        "HEARTBEAT_US": 2_000.0,
        "ELECTION_TIMEOUT_MIN_US": 12_000.0,
        "ELECTION_TIMEOUT_MAX_US": 24_000.0,
        "MAX_BATCH": 64,
    },
    epaxos: {
        "MSG_RECV_US": 1.2,
        "OP_US": 4.0,
        "PREACCEPT_US": 1.5,
        "EXECUTE_US": 2.0,
    },
    reconciler: {
        "POOL_WINDOW_US": 5_000_000.0,
        "POOL_TARGET_EXTRA_S": 0.0,
    },
    trace: {
        "BACKGROUND_PER_HOUR": 2.0,
        "BURST_PER_HOUR": 0.15,
        "BURST_MEDIAN": 10.0,
        "BURST_SIGMA": 0.95,
        "BURST_MAX": 85,
        "BURST_SPREAD_S": 45.0,
    },
    explorer: {
        "MIN_ACTIONS": 2,
        "MAX_ACTIONS": 5,
        "MAX_CONCURRENT_CRASHES": 1,
    },
}

#: Action labels of random_schedule(seed, ChaosSpace(nodes=3, memory_nodes=3)).
#: A failing explorer seed is replayed by number, so the draws must not drift.
SCHEDULE_GOLDENS = {
    0: [
        "drop_messages(0.29194999873004285, None)",
        "duplicate_messages(0.19584550986375782, ('rdma',))",
        "isolate('leader')",
        "drop_messages(0.08493644624166972, None)",
        "clear_message_faults()",
        "heal()",
    ],
    1: [
        "partition(('follower',), ())",
        "crash_memory_node(1)",
        "delay_messages(1598.574367157475, 0.5, ('net', 'rpc'))",
        "clear_message_faults()",
        "heal()",
        "restart_crashed()",
    ],
    2: [
        "partition_oneway('follower', ())",
        "drop_messages(0.20148604141961562, None)",
        "clear_message_faults()",
        "heal()",
    ],
    3: [
        "crash_memory_node(2)",
        "partition(('leader',), ())",
        "heal()",
        "restart_crashed()",
    ],
}


def _field_names(record) -> list:
    if dataclasses.is_dataclass(record):
        return [f.name for f in dataclasses.fields(record)]
    return list(record._fields)


@pytest.mark.parametrize("record", list(FIELDS), ids=lambda r: r.__name__)
def test_record_fields(record):
    assert _field_names(record) == FIELDS[record]


def test_settable_value_count():
    assert sum(len(names) for names in FIELDS.values()) == 62


@pytest.mark.parametrize(
    "module, name",
    [(core_config, "CpuCosts"), (raft, "RaftCosts"), (epaxos, "EPaxosCosts")],
)
def test_cost_records_are_gone(module, name):
    assert not hasattr(module, name)


@pytest.mark.parametrize(
    "module, name, value",
    [
        pytest.param(m, n, v, id=f"{m.__name__}.{n}")
        for m, consts in CONSTANTS.items()
        for n, v in consts.items()
    ],
)
def test_constant_values(module, name, value):
    got = getattr(module, name)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("seed", sorted(SCHEDULE_GOLDENS))
def test_explorer_schedules_unchanged(seed):
    schedule = random_schedule(seed, ChaosSpace(nodes=3, memory_nodes=3))
    labels = [action.label for action in schedule.sorted_actions()]
    assert labels == SCHEDULE_GOLDENS[seed]
