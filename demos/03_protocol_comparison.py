"""Compare rendezvous speed across channel-hopping protocols.

Runs every protocol under controlled termination on shared 20-node, 20-channel
deployments with heavy primary-radio activity and prints the mean
time-to-rendezvous table with 95% half-widths. The blind random searcher pays
for scanning the whole pool, the per-slot modular clock for dwelling, and the
dual modular clock wins by running two smaller structured searches in
parallel. MR-DMCA's cut in rendezvous time against each baseline is printed
next to the paper's figures for this cell.
"""

from rendezsim import ScenarioGrid, run_grid

GRID = ScenarioGrid(
    name="comparison",
    protocols=("rcs", "mca", "emca", "mdmca", "mrdmca"),
    terminations=("controlled",),
    n_values=(20,), c_values=(20,), m_values=(2,),
    pr_levels=("high",),
    runs=60, master_seed=3, fix_topology=True,
)
PAPER_CUTS = {"rcs": 76, "mca": 37, "emca": 17}  # MR-DMCA's ATTR cuts, from the abstract


def main():
    print("running 5 protocols x 60 replications (N=20, C=20, m=2, 85% PR)...")
    result = run_grid(GRID)
    aggs = {cfg.protocol: agg for _, cfg, agg in result.cells}
    print(f"\n{'protocol':<10}{'mean TTR ± 95% (slots)':>24}{'ATM %':>10}")
    for proto in GRID.protocols:
        agg = aggs[proto]
        attr = f"{agg.attr_policy:.1f} ± {agg.attr_ci95:.1f}"
        print(f"{proto:<10}{attr:>24}{agg.atm:>10.1f}")
    best = aggs["mrdmca"].attr_policy
    print("\nMR-DMCA's cut in mean TTR, here and in the paper:")
    for proto, paper in PAPER_CUTS.items():
        attr = aggs[proto].attr_policy
        print(f"  vs {proto:<6}{100 * (attr - best) / attr:>4.0f}%   (paper {paper}%)")
    if result.incomplete:
        print(f"({result.incomplete} capped replications excluded)")


if __name__ == "__main__":
    main()
