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
    inclusive); inl_star[i] holds every other reachable node. Deployments are
    always connected, so dnl_star[i], inl_star[i] and {i} partition the nodes.
    """

    coords: tuple          # tuple of (x, y) per node
    range_m: float
    area: tuple            # (width, height)
    edges: frozenset       # frozenset of (i, j) with i < j
    dnl_star: tuple        # tuple of frozenset per node
    inl_star: tuple

    @property
    def n_nodes(self):
        return len(self.coords)


@dataclass(frozen=True)
class ChannelAssignment:
    """Per-node channel sets guaranteeing pairwise overlap >= similarity."""

    sets: tuple            # tuple of sorted tuples of channel labels
    pool_size: int
    similarity: int


def _distance(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _unit_disk_edges(coords, r):
    n = len(coords)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if _distance(coords[i], coords[j]) <= r:
                edges.add((i, j))
    return edges


def _adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _is_connected(n, adj):
    if n == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def _build_topology(coords, r, area):
    n = len(coords)
    edges = _unit_disk_edges(coords, r)
    adj = _adjacency(n, edges)
    if not _is_connected(n, adj):
        return None
    dnl_star = tuple(frozenset(adj[i]) for i in range(n))
    all_nodes = frozenset(range(n))
    inl_star = tuple(all_nodes - dnl_star[i] - {i} for i in range(n))
    return GroundTopology(
        coords=tuple(coords),
        range_m=r,
        area=area,
        edges=frozenset(edges),
        dnl_star=dnl_star,
        inl_star=inl_star,
    )


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
        topo = _build_topology(coords, r, (width, height))
        if topo is not None:
            return topo
    raise DeploymentError(
        f"no connected placement of {n_nodes} nodes in {width}x{height} m "
        f"with r={r} m after {max_attempts} attempts; "
        f"density infeasible (r too small for the area?)"
    )


def assign_channels(n_nodes, pool_size, similarity, rng_seed):
    """Asymmetric channel sets with a guaranteed pairwise overlap.

    A fixed set of `similarity` channels drawn from the pool is given to every
    node; each remaining pool channel is added to each node independently with
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
    return ChannelAssignment(sets=tuple(sets), pool_size=pool_size,
                             similarity=similarity)


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def split_primality(channels):
    """Split a channel set into (prime-labelled, non-prime-labelled) lists.

    Both lists are ascending; label 1 is non-prime. Deterministic.
    """
    if not channels:
        raise ValueError("channel set must be non-empty")
    ordered = sorted(channels)
    primes = [c for c in ordered if _is_prime(c)]
    non_primes = [c for c in ordered if not _is_prime(c)]
    return primes, non_primes


def export_deployment(topo):
    """Serialize node positions as `id x y` lines (6 decimal places)."""
    lines = [f"{i} {x:.6f} {y:.6f}" for i, (x, y) in enumerate(topo.coords)]
    return "\n".join(lines) + "\n"


def load_deployment(text, r, area=None):
    """Rebuild a GroundTopology from `id x y` lines; recomputes the edge set."""
    coords = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        ident, x, y = line.split()
        coords[int(ident)] = (float(x), float(y))
    n = len(coords)
    if sorted(coords) != list(range(n)):
        raise ValueError("node ids must be 0..N-1 without gaps")
    pts = [coords[i] for i in range(n)]
    if area is None:
        area = (max(x for x, _ in pts), max(y for _, y in pts))
    topo = _build_topology(pts, r, tuple(area))
    if topo is None:
        raise DeploymentError("loaded deployment is not connected at this range")
    return topo
