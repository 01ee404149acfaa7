"""Show why the plain N-1 stopping rule terminates prematurely.

Replicates a 10-node scenario many times under two termination policies on
identical deployments. The N-1 rule stops as soon as a node can account for
all other nodes, even if some in-range neighbours were only heard about
through gossip and never verified; the controlled rule additionally waits for
the pending-verification list to drain.
"""

import statistics

from rendezsim import RunConfig, run_once
from rendezsim.engine import IncompleteRun
from rendezsim.experiments import derive_seed
from rendezsim.pr_activity import PrParams

RUNS = 150


def replicate(protocol, termination, runs=RUNS):
    """Records of the runs that finish; prints how many hit the safety cap."""
    records = []
    capped = 0
    for r in range(runs):
        cfg = RunConfig(
            protocol=protocol, termination=termination,
            n_nodes=10, pool_size=10, similarity=2, pr=PrParams.off(),
            seed=derive_seed(1, protocol, termination, r),
            topo_seed=derive_seed(1, "topo", r),
            chan_seed=derive_seed(1, "chan", r),
        )
        try:
            records.append(run_once(cfg))
        except IncompleteRun:
            capped += 1  # excluded from the means, like the batch harness does
    print(f"{protocol} {termination}: {capped} of {runs} runs hit the "
          f"safety cap and are left out")
    return records


def main():
    baseline = replicate("mdmca", "baseline")
    controlled = replicate("mrdmca", "controlled")

    atm = statistics.mean(r.ctm for r in baseline)
    short = sum(r.ctm < 100.0 for r in baseline)
    t_base = statistics.mean(r.node_mean("policy") for r in baseline)
    t_ctrl = statistics.mean(r.node_mean("policy") for r in controlled)

    print(f"N-1 termination over {len(baseline)} runs (same deployments):")
    print(f"  runs that froze an incomplete topology: {short} "
          f"({100 * short / len(baseline):.0f}%)")
    print(f"  accuracy ATM = {atm:.1f}% (every missing entry is an in-range")
    print("  neighbour the node heard about but never verified)\n")

    print(f"controlled termination over {len(controlled)} runs:")
    print(f"  accuracy ATM = {statistics.mean(r.ctm for r in controlled):.1f}% "
          f"(100% holds for every run that finishes; capped runs are left out)")
    print(f"  cost: mean termination time {t_ctrl:.1f} vs {t_base:.1f} slots "
          f"(+{100 * (t_ctrl - t_base) / t_base:.0f}%)")

    # the delay the N-1 rule hides: keep running until the topology is right
    full = replicate("mdmca", "run_to_full", runs=RUNS)
    ptdd = (statistics.mean(r.node_mean("full") for r in full)
            - statistics.mean(r.node_mean("n1") for r in full))
    print(f"\npost-termination discovery delay (extra slots a stopped network")
    print(f"would still have needed for a correct topology): {ptdd:.1f} slots")


if __name__ == "__main__":
    main()
