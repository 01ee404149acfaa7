"""Random connected node deployments, channel assignment, ground-truth topology."""

import math
import random
from collections import namedtuple

DEFAULT_ATTEMPT_CAP = 10_000


class DeploymentError(RuntimeError):
    """Raised when no connected placement is found within the attempt cap."""


class GroundTopology(namedtuple("GroundTopology", "coords dnl_star")):
    """Node coordinates plus the unit-disk ground truth derived from them.

    coords holds one (x, y) per node. dnl_star[i] is the frozenset of the
    true direct neighbours of node i (distance <= r, inclusive). Deployments
    are always connected, so every other node is reachable from i through
    dnl_star.
    """

    __slots__ = ()


def _build_topology(coords, r):
    """Ground truth of one placement, or None when it is not connected.

    Node 0's component grows first, each newly reached node measured only
    to the nodes not yet reached, so a disconnected placement is rejected
    after its first component; the edge sets are built only for a
    connected one.
    """
    dist = math.dist
    unreached, frontier = list(range(1, len(coords))), [0]
    while frontier and unreached:
        here, far = coords[frontier.pop()], []
        for j in unreached:
            (frontier if dist(here, coords[j]) <= r else far).append(j)
        unreached = far
    if unreached:
        return None
    adj = [set() for _ in coords]
    for i, here in enumerate(coords):
        for j in range(i + 1, len(coords)):
            if dist(here, coords[j]) <= r:
                adj[i].add(j)
                adj[j].add(i)
    return GroundTopology(tuple(coords), tuple(map(frozenset, adj)))


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
    rnd = random.Random(rng_seed).random
    for _ in range(max_attempts):
        # uniform(0, w) draws 0.0 + w * random(): the same floats, bit for bit
        coords = [(width * rnd(), height * rnd()) for _ in range(n_nodes)]
        topo = _build_topology(coords, r)
        if topo is not None:
            return topo
    raise DeploymentError(
        f"no connected placement of {n_nodes} nodes in {width:.1f}x{height:.1f} m "
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
        chans = common | {c for c in extras if rng.random() < 0.5}
        sets.append(tuple(sorted(chans)))
    return tuple(sets)
