"""Figure 11: throughput timeline through a memory-node failure (§6.5).

"Read-heavy workload throughput during a memory node failure": the node
is killed, later restarted, the coordinator incrementally copies state
back under read locks ("throughput drops as regions of memory are
copied over"), and the node rejoins — after which throughput returns to
its pre-failure level.  Hot keys live at low addresses, so the paper
sees near-worst-case impact immediately; our preloader lays keys out
the same way.
"""

import pytest

from repro.bench.calibration import BenchScale
from repro.bench.figures import FIGURES, run_figure
from repro.sim.units import SEC

KILL_AT = FIGURES["fig11sweep"].full["kill_at_us"]
RESTART_AT = FIGURES["fig11sweep"].full["restart_at_us"]


@pytest.fixture(scope="module")
def sweep():
    """The CLI's fig11sweep at full scale (0.6/0.9/3.0 s schedule, 10
    clients): the fig11 timeline itself plus the recovery-time-vs-
    partitions sweep behind it.

    The sweep runs at Fm = 2 so four live source links exist once one
    node fails: RAMCloud-style partitioned recovery splits the dead
    node's image across the sources, and aggregate copy bandwidth —
    hence recovery time — scales with the partition count.
    """
    return run_figure(FIGURES["fig11sweep"], scale=BenchScale(), seed=1)


def test_fig11(sweep, once):
    timeline = once(lambda: sweep.simulated["sift/memnode-failure"])
    series = timeline["series"]
    print()
    print(FIGURES["fig11"].render(timeline, sweep.params))
    recovered_at = timeline["recovery_s"] is not None

    pre = [ops for t, ops in series if 0.2 * SEC / 1e6 <= t < KILL_AT / 1e6]
    pre_mean = sum(pre) / len(pre)

    # The node must have fully rejoined within the run.
    assert recovered_at, "memory node never finished recovery"

    # Already rebased into the series' frame (seconds).
    recovery_s = timeline["recovery_s"]
    # The copy's contention straddles window boundaries: include the
    # window the restart lands in, not just windows starting after it.
    during = [
        ops
        for t, ops in series
        if RESTART_AT / 1e6 - 0.1 <= t < recovery_s
    ]
    post = [ops for t, ops in series if t >= recovery_s + 0.3]
    assert post, "no post-recovery windows measured"
    post_mean = sum(post) / len(post)

    # Throughput dips while regions are copied...
    if during:
        assert min(during) < pre_mean * 0.98
    # ...and "the system returns to its pre-failure throughput level".
    assert post_mean > 0.85 * pre_mean, (pre_mean, post_mean)
    # The group never stops serving entirely (reads keep flowing).
    between = [ops for t, ops in series if KILL_AT / 1e6 <= t < recovery_s]
    assert min(between) > 0, "memory-node failure must not halt the group"


def test_fig11_partition_sweep(sweep, once):
    runs = once(lambda: {
        p: sweep.simulated[f"sift/recovery-f2-p{p}"] for p in sweep.params["partitions"]
    })
    print()
    print(FIGURES["fig11sweep"].render(sweep.simulated, sweep.params))

    widths = sorted(runs)
    for partitions in widths:
        run = runs[partitions]
        assert run["recovery_s"] is not None, (
            f"p={partitions} never finished recovery"
        )
    # Every width rebuilds the same image...
    sizes = {runs[p]["copy_bytes"] for p in widths}
    assert len(sizes) == 1, sizes
    # ...and each doubling of source links strictly shortens recovery.
    times = [runs[p]["recovery_s"] for p in widths]
    assert all(a > b for a, b in zip(times, times[1:])), dict(zip(widths, times))
