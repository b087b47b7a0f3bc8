"""Figure 5: throughput by workload type, F=1, same hardware.

"Performance comparison with Sift's key-value store and an RDMA-based
Raft implementation" — EPaxos, Sift EC, Sift and Raft-R across the
write-only / mixed / read-heavy / read-only mixes (Zipf 0.99).

All systems run on identical hardware here (12-core nodes, the
evaluation machines' 2x E5-2620v2), exactly as in §6.3.  Shape targets
from the paper:

* EPaxos is workload-independent, lowest for reads, best for write-only;
* Raft-R beats Sift on writes (Sift pays for background applies);
* Sift matches Raft-R on read-heavy/read-only thanks to its cache;
* Sift EC sits slightly below Sift on writes (encoding cost).
"""

from types import SimpleNamespace

import pytest

from repro.bench.calibration import BenchScale
from repro.bench.figures import FIGURES, run_figure

MIXES = ["write-only", "mixed", "read-heavy", "read-only"]


@pytest.fixture(scope="module")
def run():
    # The CLI's fig5 at full scale: 12-core nodes for every system, and
    # EPaxos driven by 3x the clients (it spreads them over all replicas).
    return run_figure(FIGURES["fig5"], scale=BenchScale(), seed=1)


def test_fig5(run, once):
    print()
    print(once(lambda: FIGURES["fig5"].render(run.simulated, run.params)))
    results = {
        name: {mix: SimpleNamespace(**cell) for mix, cell in cells.items()}
        for name, cells in run.simulated.items()
    }

    def tput(name, mix):
        return results[name][mix].ops_per_sec

    # No failed operations anywhere.
    for name in results:
        for mix in MIXES:
            assert results[name][mix].errors == 0, (name, mix)

    # EPaxos: workload-independent (reads cost the same as writes).
    epaxos = [tput("epaxos", mix) for mix in MIXES]
    assert max(epaxos) / min(epaxos) < 1.25

    # Write-only: "EPaxos performs better than the leader and RDMA-based
    # systems"; Raft-R > Sift > Sift EC.
    assert tput("epaxos", "write-only") > tput("raft-r", "write-only")
    assert tput("raft-r", "write-only") > tput("sift", "write-only")
    assert tput("sift", "write-only") > tput("sift-ec", "write-only")

    # Read-heavy / read-only: the RDMA leader-local systems dominate
    # EPaxos ("far higher than a state-of-the-art, non-RDMA consensus
    # protocol for read operations"; the paper's read-only gap is ~2.3x,
    # we assert a conservative 1.5x).
    for mix in ("read-heavy", "read-only"):
        assert tput("sift", mix) > 1.5 * tput("epaxos", mix)
        assert tput("raft-r", mix) > 1.5 * tput("epaxos", mix)
        # Sift's cache keeps it within ~20% of Raft-R.
        ratio = tput("sift", mix) / tput("raft-r", mix)
        assert 0.8 < ratio < 1.25

    # Every system speeds up as the workload gets more read-heavy,
    # except EPaxos (flat).
    for name in ("sift", "sift-ec", "raft-r"):
        assert tput(name, "read-only") > tput(name, "write-only")
