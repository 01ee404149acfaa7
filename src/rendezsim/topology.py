"""Random connected node deployments, channel assignment, ground-truth topology."""

import math
import random
from dataclasses import dataclass

DEFAULT_ATTEMPT_CAP = 10_000


class DeploymentError(RuntimeError):
    """Raised when no connected placement is found within the attempt cap."""


@dataclass(frozen=True)
class GroundTopology:
    """Node coordinates plus the unit-disk ground truth derived from them.

    dnl_star[i] holds the true direct neighbours of node i (distance <= r,
    inclusive). Deployments are always connected, so every other node is
    reachable from i through dnl_star.
    """

    coords: tuple          # tuple of (x, y) per node
    dnl_star: tuple        # tuple of frozenset per node


def _is_connected(adj):
    if not adj:
        return False
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def _build_topology(coords, r):
    """Ground truth of one placement, or None when it is not connected."""
    n = len(coords)
    adj = [set() for _ in range(n)]
    for i in range(n):
        xi, yi = coords[i]
        for j in range(i + 1, n):
            xj, yj = coords[j]
            if math.hypot(xi - xj, yi - yj) <= r:
                adj[i].add(j)
                adj[j].add(i)
    if not _is_connected(adj):
        return None
    return GroundTopology(coords=tuple(coords),
                          dnl_star=tuple(frozenset(near) for near in adj))


def deploy(n_nodes, area, r, rng_seed, max_attempts=DEFAULT_ATTEMPT_CAP):
    """Place n_nodes uniformly in area, rejection-resampled until connected.

    area is (width, height) in meters; two nodes are linked when their
    Euclidean distance is at most r (inclusive). Raises DeploymentError after
    max_attempts rejections, which signals an infeasible density.
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if r <= 0:
        raise ValueError("transmission range must be positive")
    width, height = area
    rng = random.Random(rng_seed)
    for _ in range(max_attempts):
        coords = [(rng.uniform(0.0, width), rng.uniform(0.0, height))
                  for _ in range(n_nodes)]
        topo = _build_topology(coords, r)
        if topo is not None:
            return topo
    raise DeploymentError(
        f"no connected placement of {n_nodes} nodes in {width}x{height} m "
        f"with r={r} m after {max_attempts} attempts; "
        f"density infeasible (r too small for the area?)"
    )


def assign_channels(n_nodes, pool_size, similarity, rng_seed):
    """Asymmetric channel sets with a guaranteed pairwise overlap.

    Returns one sorted tuple of channel labels per node. A fixed set of
    `similarity` channels drawn from the pool is given to every node; each
    remaining pool channel is added to each node independently with
    probability 0.5.
    """
    if not 1 <= similarity <= pool_size:
        raise ValueError("similarity must be in [1, pool_size]")
    rng = random.Random(rng_seed)
    pool = list(range(1, pool_size + 1))
    common = set(rng.sample(pool, similarity))
    extras = [c for c in pool if c not in common]
    sets = []
    for _ in range(n_nodes):
        chans = set(common)
        for c in extras:
            if rng.random() < 0.5:
                chans.add(c)
        sets.append(tuple(sorted(chans)))
    return tuple(sets)
