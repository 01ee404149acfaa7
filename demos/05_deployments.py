"""Random connected deployments and their ground-truth neighbour tables.

Draws unit-disk deployments at several network sizes and prints an ASCII map,
degree statistics and the number of pairs that need multihop discovery.
"""

from rendezsim import deploy
from rendezsim.engine import default_area_side


def ascii_map(topo, side, cells=28):
    grid = [["." for _ in range(cells)] for _ in range(cells // 2)]
    for i, (x, y) in enumerate(topo.coords):
        col = min(int(x / side * cells), cells - 1)
        row = min(int(y / side * (cells // 2)), cells // 2 - 1)
        grid[row][col] = str(i % 10)
    return "\n".join("  " + "".join(r) for r in grid)


def main():
    for n in (3, 10, 20):
        side = default_area_side(n)
        topo = deploy(n, (side, side), 100.0, rng_seed=n)
        degrees = [len(topo.dnl_star[i]) for i in range(n)]
        links = sum(degrees) // 2
        print(f"N={n}: area {side:.0f} m square, {links} links, "
              f"degrees min/mean/max = {min(degrees)}/"
              f"{sum(degrees) / n:.1f}/{max(degrees)}")
        print(ascii_map(topo, side))
        multihop = n * (n - 1) // 2 - links
        print(f"  out-of-range pairs needing multihop discovery: {multihop}\n")


if __name__ == "__main__":
    main()
