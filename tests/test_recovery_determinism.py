"""Determinism guarantees around partitioned recovery (satellite of the
fig11sweep work).

Three layers:

* the committed ``BENCH_fig11sweep`` baseline's anchor point — which ran
  through the new ``recovery_partitions`` dispatch at ``partitions=1`` —
  is byte-identical to the committed ``BENCH_fig11`` figure, proving the
  knob's default reproduces the single-path numbers exactly;
* the committed sweep itself satisfies the CI gate's shape (strictly
  decreasing recovery time, precise values within the poll-quantised
  ones);
* the run helper behind both figures is replay-deterministic: the same
  seed and geometry produce the identical timeline, twice, in-process.

The in-process runs use tiny timings so this file stays tier-1 fast.
"""

import json
import pathlib

from repro.bench.calibration import BenchScale
from repro.bench.points import (
    RECOVERY_SWEEP_PARTITIONS,
    _memnode_failure_run,
)
from repro.sim.units import MS

BASELINES = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"

# Small enough to run in seconds, long enough that the node dies, is
# detected (the recovery poller ticks every 500 ms), and the copy-back
# completes inside the window.
MINI_TIMINGS = (60 * MS, 90 * MS, 800 * MS, 3)


def _mini_scale() -> BenchScale:
    return BenchScale(
        keys=2048,
        warmup_us=10 * MS,
        measure_us=20 * MS,
        clients=6,
        wal_entries=2048,
        kv_wal_entries=4096,
    )


class TestCommittedArtifacts:
    def _load(self, name):
        with open(BASELINES / name) as fh:
            return json.load(fh)

    def test_sweep_anchor_is_byte_identical_to_fig11(self):
        fig11 = self._load("BENCH_fig11.json")
        sweep = self._load("BENCH_fig11sweep.json")
        anchor = sweep["simulated"]["sift/memnode-failure"]
        single = fig11["simulated"]
        assert json.dumps(anchor, sort_keys=True) == json.dumps(
            single, sort_keys=True
        ), "partitions=1 no longer reproduces the single-path fig11 numbers"

    def test_sweep_recovery_time_strictly_decreases(self):
        sweep = self._load("BENCH_fig11sweep.json")
        partitions = sweep["params"]["partitions"]
        assert partitions == sorted(partitions)
        times = [
            sweep["simulated"][f"sift/recovery-f2-p{p}"]["recovery_s"]
            for p in partitions
        ]
        assert all(a > b for a, b in zip(times, times[1:])), times

    def test_precise_recovery_within_poll_quantised(self):
        # recovery_s comes from the copy's exact finish timestamp;
        # recovery_poll_s from the 10ms bench watcher.  The poll can only
        # observe the recovery late, never early.
        sweep = self._load("BENCH_fig11sweep.json")
        for p in sweep["params"]["partitions"]:
            point = sweep["simulated"][f"sift/recovery-f2-p{p}"]
            assert point["recovery_s"] <= point["recovery_poll_s"] + 1e-9
            assert point["recovery_poll_s"] - point["recovery_s"] < 0.05

    def test_sweep_copies_the_whole_image_at_every_width(self):
        sweep = self._load("BENCH_fig11sweep.json")
        sizes = {
            sweep["simulated"][f"sift/recovery-f2-p{p}"]["copy_bytes"]
            for p in sweep["params"]["partitions"]
        }
        assert len(sizes) == 1, f"partition widths copied different images: {sizes}"


class TestRunHelperDeterminism:
    def test_same_seed_same_timeline(self):
        runs = [
            _memnode_failure_run(
                MINI_TIMINGS,
                _mini_scale(),
                seed=7,
                f=1,
                recovery_partitions=2,
            )
            for _ in range(2)
        ]
        first, second = (json.dumps(run, sort_keys=True) for run in runs)
        assert first == second
        assert runs[0]["recovery_s"] is not None  # the timeline was not degenerate

    def test_partition_widths_share_the_failure_schedule(self):
        # Different widths change HOW the copy-back runs, not WHAT the
        # failure timeline is: the kill and restart events must line up
        # exactly, and every width must complete its recovery.
        runs = {
            p: _memnode_failure_run(
                MINI_TIMINGS,
                _mini_scale(),
                seed=7,
                f=1,
                recovery_partitions=p,
            )
            for p in (1, 2)
        }
        assert runs[1]["events"] == runs[2]["events"]
        for p, run in runs.items():
            assert run["recovery_s"] is not None, f"p={p} never recovered"
            assert run["copy"]["bytes"] == runs[1]["copy"]["bytes"]
        assert runs[1]["copy"]["partitions"] == 1
        assert runs[2]["copy"]["partitions"] == 2

    def test_sweep_constant_covers_committed_baseline(self):
        with open(BASELINES / "BENCH_fig11sweep.json") as fh:
            sweep = json.load(fh)
        assert list(RECOVERY_SWEEP_PARTITIONS) == sweep["params"]["partitions"]
