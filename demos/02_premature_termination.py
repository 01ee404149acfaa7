"""Show why the plain N-1 stopping rule terminates prematurely.

Runs a 10-node scenario many times, each run index once under each of two
policies on one shared seed. The N-1 rule (mdmca, baseline) stops as soon as
a node can account for all other nodes, even if some in-range neighbours were
only heard about through gossip and never verified; the controlled rule
(mrdmca, which validates coordinates) stops at full discovery, when every
node is known and every in-range neighbour verified.
"""

import statistics

from rendezsim import RunConfig, run_once
from rendezsim.engine import IncompleteRun
from rendezsim.experiments import derive_seed
from rendezsim.pr_activity import PrParams

RUNS = 150


def run_or_none(protocol, termination, seed):
    cfg = RunConfig(protocol=protocol, termination=termination, n_nodes=10,
                    pool_size=10, similarity=2, pr=PrParams.off(), seed=seed)
    try:
        return run_once(cfg)
    except IncompleteRun:
        return None  # left out of the means, like the batch harness does


def main():
    pairs = [(run_or_none("mdmca", "baseline", seed), run_or_none("mrdmca", "controlled", seed))
             for seed in (derive_seed(1, "run", r) for r in range(RUNS))]
    baseline = [b for b, _ in pairs if b is not None]
    paired = [(b, c) for b, c in pairs if c is not None]  # a capped baseline caps controlled too
    print(f"of {RUNS} runs, {RUNS - len(baseline)} hit the safety cap under baseline "
          f"and {RUNS - len(paired)} under controlled; they are left out\n")

    atm = statistics.mean(r.ctm for r in baseline)
    short = sum(r.ctm < 100.0 for r in baseline)
    print(f"N-1 termination over {len(baseline)} runs:")
    print(f"  runs that froze an incomplete topology: {short} "
          f"({100 * short / len(baseline):.0f}%)")
    print(f"  accuracy ATM = {atm:.1f}% (every missing entry is an in-range")
    print("  neighbour the node heard about but never verified)\n")

    t_base = statistics.mean(b.summary().policy for b, _ in paired)
    t_ctrl = statistics.mean(c.summary().policy for _, c in paired)
    print(f"controlled termination over {len(paired)} runs (same seeds):")
    print(f"  accuracy ATM = {statistics.mean(c.ctm for _, c in paired):.1f}% "
          f"(100% holds for every run that finishes; capped runs are left out)")
    print(f"  cost: mean termination time {t_ctrl:.1f} vs {t_base:.1f} slots "
          f"(+{100 * (t_ctrl - t_base) / t_base:.0f}%)")

    # a seed's handshakes do not depend on the policy: a pair is one run, read twice
    ptdd = statistics.mean(c.summary().full - b.summary().n1 for b, c in paired)
    print(f"\npost-termination discovery delay (extra slots a stopped network")
    print(f"would still have needed for a correct topology): {ptdd:.1f} slots")


if __name__ == "__main__":
    main()
