"""The Sift consensus protocol (the paper's primary contribution).

Layering follows §3 of the paper:

* :class:`~repro.core.config.SiftConfig` — deployment geometry
  (``2Fm + 1`` memory nodes, ``Fc + 1`` CPU nodes) and protocol timing.
* :class:`~repro.core.cpu_node.CpuNode` — the follower / candidate /
  coordinator state machine driven purely by reads and CAS writes to the
  memory nodes' admin words (no CPU-node-to-CPU-node communication).
* :class:`~repro.core.replicated_memory.ReplicatedMemory` — the
  coordinator-side replicated memory layer: logged writes with majority
  commit, background apply, block locks, direct (unlogged) windows, and
  optional erasure coding (§5.1).
* :mod:`~repro.core.recovery` — coordinator log recovery (§3.4.1) and
  incremental memory-node recovery (§3.4.2).
* :class:`~repro.core.group.SiftGroup` — wiring: builds the nodes,
  starts the election, exposes fault injection.
* :class:`~repro.core.backups.BackupPool` — shared backup CPU nodes
  monitoring many groups (§5.2).
"""

from repro.core.config import SiftConfig
from repro.core.cpu_node import CpuNode, Role
from repro.core.group import SiftGroup
from repro.core.locks import BlockLockTable, LockMode
from repro.core.partition import RecoveryPartition, plan_fragments, plan_partitions
from repro.core.replicated_memory import ReplicatedMemory
from repro.core.backups import BackupPool

__all__ = [
    "BackupPool",
    "BlockLockTable",
    "CpuNode",
    "LockMode",
    "RecoveryPartition",
    "ReplicatedMemory",
    "Role",
    "SiftConfig",
    "SiftGroup",
    "plan_fragments",
    "plan_partitions",
]
