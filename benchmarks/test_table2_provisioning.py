"""Table 2: machine configurations normalized for performance.

"Machine configurations for each system normalized for performance.
CPU resources are measured in cores, memory resources are measured in
GB" — with the read-heavy targets of 380k ops/s (F=1) and 350k (F=2)
from §6.4.3.  The table itself is reproduced exactly; the accompanying
simulation check verifies that, with Table 2's core counts, each
system's measured read-heavy throughput is in the same band — the
property the paper used to call the provisioning "normalized".
"""


from repro.bench.calibration import BenchScale
from repro.bench.figures import FIGURES
from repro.bench.points import throughput_point
from repro.bench.report import kv_table
from repro.cluster.provision import TABLE2


def test_table2_values(once):
    print()
    print(once(lambda: FIGURES["table2"].render(None, {})))

    assert TABLE2[("raft", 1)]["node"].cores == 8
    assert TABLE2[("sift", 1)]["cpu"].cores == 10
    assert TABLE2[("sift-ec", 1)]["cpu"].cores == 12
    assert TABLE2[("sift", 1)]["memory"].memory_gb == 64
    assert TABLE2[("sift-ec", 1)]["memory"].memory_gb == 32
    assert TABLE2[("sift-ec", 2)]["memory"].memory_gb == 22


def test_table2_normalisation_holds_in_simulation(once):
    """With Table 2 cores, the three systems land in one throughput band."""
    scale = BenchScale()
    values = once(lambda: {
        name: throughput_point(name, "read-heavy", scale.clients, cores, scale, 1)["ops_per_sec"]
        for name, cores in (("raft-r", 8), ("sift", 10), ("sift-ec", 12))
    })
    print()
    print(kv_table("Read-heavy throughput at Table 2 core counts", [
        (name, f"{ops:,.0f} ops/s") for name, ops in values.items()
    ]))
    top = max(values.values())
    bottom = min(values.values())
    assert bottom > 0.6 * top, values  # one band, not wildly apart
