"""Figure 10: deployment cost relative to Raft-R, F=2, AWS and GCP.

Paper numbers: "A single Sift EC group now costs about 13% less than a
Raft-R group.  When both erasure codes and shared backup nodes are
used, a cost reduction of up to 56% is achieved."
"""

import pytest

from repro.bench.figures import FIGURES, run_figure
from repro.cluster import relative_costs


def test_fig10(once):
    run = once(lambda: run_figure(FIGURES["fig10"]))
    costs = run.simulated
    labels = list(costs["aws"].keys())
    print()
    print(FIGURES["fig10"].render(costs, run.params))

    for provider in ("aws", "gcp"):
        c = costs[provider]
        # "A single Sift EC group now costs about 13% less than Raft-R."
        assert c["sift-ec"] == pytest.approx(-13.0, abs=5.0)
        # "a cost reduction of up to 56% is achieved."
        assert c["sift-ec + shared backups"] == pytest.approx(-56.0, abs=1.0)
        # "Sift costs decrease relatively across all configurations when
        # F is increased to 2."
        f1 = relative_costs(provider, 1)
        for label in labels:
            assert c[label] < f1[label]
