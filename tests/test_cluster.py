"""Tests for the cloud-modelling package: pricing, costs, trace, pool sim."""

import random

import pytest

from repro.cluster import (
    PRICING,
    MachineSpec,
    TraceConfig,
    generate_trace,
    group_cost_per_hour,
    machine_cost_per_hour,
    machine_table,
    relative_costs,
    simulate_backup_pool,
)
from repro.cluster.backups import sweep_backup_pool
from repro.cluster.trace import BURST_SPREAD_S
from repro.cluster.provision import TABLE2, deployment_machines


class TestPricing:
    def test_paper_constants(self):
        """§6.4.3's published marginal prices."""
        assert PRICING["aws"].per_core == 0.033
        assert PRICING["aws"].per_gb == 0.00275
        assert PRICING["gcp"].per_core == 0.033
        assert PRICING["gcp"].per_gb == 0.00445

    def test_machine_cost(self):
        spec = MachineSpec(cores=8, memory_gb=64)
        assert machine_cost_per_hour("aws", spec) == pytest.approx(8 * 0.033 + 64 * 0.00275)


class TestProvisioning:
    def test_table2_values(self):
        """Table 2 of the paper, verbatim."""
        assert TABLE2[("raft", 1)]["node"] == MachineSpec(8, 64)
        assert TABLE2[("sift", 1)]["cpu"] == MachineSpec(10, 32)
        assert TABLE2[("sift", 1)]["memory"] == MachineSpec(1, 64)
        assert TABLE2[("sift-ec", 1)]["cpu"] == MachineSpec(12, 32)
        assert TABLE2[("sift-ec", 1)]["memory"] == MachineSpec(1, 32)
        assert TABLE2[("sift-ec", 2)]["memory"] == MachineSpec(1, 22)

    def test_machine_table_rows(self):
        rows = machine_table(1)
        assert len(rows) == 5
        assert rows[0][0] == "Raft-R Node"

    def test_raft_deployment_counts(self):
        machines = deployment_machines("raft", 1)
        assert machines == [(MachineSpec(8, 64), 3)]
        assert deployment_machines("raft", 2)[0][1] == 5

    def test_sift_deployment_counts(self):
        machines = dict(
            (spec, count) for spec, count in deployment_machines("sift", 1)
        )
        assert machines[MachineSpec(10, 32)] == 2  # Fc + 1 CPU nodes
        assert machines[MachineSpec(1, 64)] == 3  # 2Fm + 1 memory nodes

    def test_shared_backups_amortise_cpu(self):
        machines = dict(deployment_machines("sift", 1, shared_backups=True, groups=100, backup_pool=2))
        assert machines[MachineSpec(10, 32)] == pytest.approx(1.02)


class TestCostAnalysis:
    def test_paper_headline_f1(self):
        """§6.4.3 / Fig 9: ~35% savings for Sift EC + shared backups, F=1."""
        costs = relative_costs("aws", 1)
        assert costs["sift-ec + shared backups"] == pytest.approx(-35.1, abs=0.5)
        assert costs["sift"] > 0  # plain Sift is marginally more expensive

    def test_paper_headline_f2(self):
        """§6.4.3 / Fig 10: 56% savings at F=2; EC alone ~13% cheaper."""
        costs = relative_costs("aws", 2)
        assert costs["sift-ec + shared backups"] == pytest.approx(-56.3, abs=0.5)
        assert costs["sift-ec"] == pytest.approx(-12.8, abs=0.5)

    def test_savings_improve_with_f(self):
        """§7: "Cost savings improve with higher values of F"."""
        for provider in ("aws", "gcp"):
            f1 = relative_costs(provider, 1)
            f2 = relative_costs(provider, 2)
            for config in f1:
                assert f2[config] < f1[config]

    def test_gcp_close_to_aws_for_ec(self):
        aws = relative_costs("aws", 1)["sift-ec + shared backups"]
        gcp = relative_costs("gcp", 1)["sift-ec + shared backups"]
        assert abs(aws - gcp) < 2.0

    def test_group_cost_positive(self):
        assert group_cost_per_hour("aws", "raft", 1) > 0


class TestTrace:
    def test_deterministic_for_seed(self):
        a = generate_trace(TraceConfig(), seed=4)
        b = generate_trace(TraceConfig(), seed=4)
        assert a == b
        assert a != generate_trace(TraceConfig(), seed=5)

    def test_time_sorted_and_in_range(self):
        config = TraceConfig(duration_days=2.0)
        events = generate_trace(config, seed=0)
        times = [event.time_s for event in events]
        assert times == sorted(times)
        assert all(0 <= t <= config.duration_s + BURST_SPREAD_S for t in times)
        assert all(0 <= event.machine < config.machines for event in events)

    def test_event_volume_plausible(self):
        events = generate_trace(TraceConfig(), seed=1)
        # 29 days of a ~12.5k machine cluster: thousands, not millions.
        assert 1_000 < len(events) < 20_000

    def test_bursts_create_concentrations(self):
        """Some 60-second windows must contain many failures (rack events)."""
        events = generate_trace(TraceConfig(), seed=2)
        best = 0
        window = []
        for event in events:
            window.append(event.time_s)
            while window and window[0] < event.time_s - 60:
                window.pop(0)
            best = max(best, len(window))
        assert best >= 20


class TestBackupPoolSim:
    def test_zero_backups_charges_full_provisioning(self):
        events = generate_trace(TraceConfig(duration_days=5), seed=0)
        result = simulate_backup_pool(events, 12_500, groups=100, backups=0, rng=random.Random(0))
        if result.coordinator_faults:
            assert result.recovery_time_per_fault_s > 0

    def test_more_backups_never_hurt(self):
        results = sweep_backup_pool([500], [0, 2, 6, 12], repetitions=3)
        times = [cell.recovery_time_per_fault_s for cell in results[500]]
        assert times == sorted(times, reverse=True)

    def test_more_groups_need_more_backups(self):
        results = sweep_backup_pool([100, 3000], [2], repetitions=3)
        assert (
            results[3000][0].recovery_time_per_fault_s
            >= results[100][0].recovery_time_per_fault_s
        )

    def test_paper_pool_sizes(self):
        """Fig 8: ~6 backups suffice for 1000 groups, ~20 for 3000."""
        results = sweep_backup_pool([1000, 3000], [6, 20], repetitions=5)
        assert results[1000][0].recovery_time_per_fault_s < 0.25
        assert results[3000][1].recovery_time_per_fault_s < 0.25

    def test_too_many_groups_rejected(self):
        events = generate_trace(TraceConfig(duration_days=1), seed=0)
        with pytest.raises(ValueError):
            simulate_backup_pool(events, 12_500, groups=4000, backups=0, rng=random.Random(0))
