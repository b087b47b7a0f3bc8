"""Figure 8: backup-pool sizing from the failure-trace simulation.

"Results of a simulation over a Google cluster trace of machine
failures.  Estimates how many backup nodes are needed to prevent
additional recovery time due to VM provisioning."  (§6.4.2; our trace
is the synthetic equivalent described in DESIGN.md.)

Shape targets: recovery time per fault decreases monotonically with the
pool size and increases with the number of groups; ~6 backups suffice
for 1000 groups and ~20 for 3000 (the sizes §6.4.3's cost analysis
uses).
"""

import os

import pytest

from repro.bench.figures import FIGURES, run_figure

GROUP_COUNTS = FIGURES["fig8"].full["groups"]
REPETITIONS = int(os.environ.get("REPRO_BENCH_FIG8_REPS", "10"))


@pytest.fixture(scope="module")
def run():
    return run_figure(FIGURES["fig8"], overrides={"repetitions": REPETITIONS})


def test_fig8(run, once):
    print()
    print(once(lambda: FIGURES["fig8"].render(run.simulated, run.params)))
    # {groups: [(backups, seconds per fault), ...]}, backups ascending.
    sweep = {int(name.split()[0]): rows for name, rows in run.simulated.items()}

    def value(groups, backups):
        return dict(sweep[groups])[backups]

    for groups, row in sweep.items():
        times = [seconds for _backups, seconds in row]
        for earlier, later in zip(times, times[1:]):
            assert later <= earlier + 1e-9, (groups, times)

    # Monotone in the group count at zero backups.
    zero_pool = [value(groups, 0) for groups in GROUP_COUNTS]
    assert zero_pool == sorted(zero_pool)

    # The paper's sizing: 6 backups for 1000 groups, 20 for 3000 give
    # (essentially) no additional recovery time; small fleets need ~2.
    assert value(1000, 6) < 0.25
    assert value(3000, 20) < 0.25
    assert value(100, 2) < 0.05
    # And a too-small pool clearly does not suffice for a big fleet.
    assert value(3000, 4) > value(3000, 20) + 0.25
