"""Deployment, channel-assignment and ground-truth table tests."""

import math

import pytest

from rendezsim.topology import (
    DeploymentError,
    _build_topology,
    assign_channels,
    deploy,
)


def edges_of(topo):
    """The undirected link set implied by the ground-truth neighbour sets."""
    return {(i, j) for i, near in enumerate(topo.dnl_star) for j in near if i < j}


def brute_force_edges(coords, r):
    """Independent O(N^2) pairwise-distance oracle."""
    n = len(coords)
    return frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if math.dist(coords[i], coords[j]) <= r
    )


def test_two_nodes_in_tiny_area_are_neighbours():
    topo = deploy(2, (10.0, 10.0), 100.0, rng_seed=1)
    assert edges_of(topo) == {(0, 1)}
    assert topo.dnl_star[0] == frozenset({1})
    assert topo.dnl_star[1] == frozenset({0})


def test_collinear_chain_at_exact_range_is_inclusive():
    coords = [(0.0, 0.0), (0.0, 100.0), (0.0, 200.0)]
    topo = _build_topology(coords, 100.0)
    assert topo is not None
    assert topo.dnl_star[1] == frozenset({0, 2})
    assert topo.dnl_star[0] == frozenset({1})
    assert topo.dnl_star[2] == frozenset({1})


def test_edges_match_brute_force_oracle_on_random_deployments():
    for seed in range(300):
        topo = deploy(10, (400.0, 400.0), 100.0, rng_seed=seed)
        assert edges_of(topo) == brute_force_edges(topo.coords, 100.0)


def test_dnl_star_is_irreflexive_and_symmetric():
    for seed in range(50):
        topo = deploy(10, (400.0, 400.0), 100.0, rng_seed=seed)
        for i in range(10):
            assert i not in topo.dnl_star[i]
            for j in topo.dnl_star[i]:
                assert i in topo.dnl_star[j]


def test_deployments_are_always_connected():
    for seed in range(50):
        topo = deploy(10, (450.0, 450.0), 100.0, rng_seed=seed)
        reached = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in topo.dnl_star[u]:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        assert reached == set(range(10))


def test_infeasible_density_raises_deployment_error():
    with pytest.raises(DeploymentError):
        deploy(10, (100000.0, 100000.0), 1.0, rng_seed=0, max_attempts=20)


def test_deployment_error_gives_the_area_to_a_tenth_of_a_metre_on_one_line():
    side = 100.0 * 0.99 * math.sqrt(50)  # engine.default_area_side(50), 700.0357... m
    with pytest.raises(DeploymentError) as err:
        deploy(50, (side, side), 100.0, rng_seed=0, max_attempts=20)
    message = str(err.value)
    assert "of 50 nodes in 700.0x700.0 m with r=100.0 m after 20 attempts;" in message
    assert "\n" not in message


def test_deploy_is_deterministic_in_the_seed():
    a = deploy(6, (300.0, 300.0), 100.0, rng_seed=11)
    b = deploy(6, (300.0, 300.0), 100.0, rng_seed=11)
    assert a == b


def test_full_similarity_gives_every_node_the_whole_pool():
    chans = assign_channels(4, 10, 10, rng_seed=3)
    for s in chans:
        assert s == tuple(range(1, 11))


def test_pairwise_overlap_at_least_similarity():
    for seed in range(200):
        chans = assign_channels(3, 10, 2, rng_seed=seed)
        for i in range(3):
            for j in range(i + 1, 3):
                assert len(set(chans[i]) & set(chans[j])) >= 2


def test_mean_set_size_matches_construction():
    # m guaranteed channels plus each of the other C-m with probability 0.5
    sizes = []
    for seed in range(400):
        chans = assign_channels(4, 20, 5, rng_seed=seed)
        sizes.extend(len(s) for s in chans)
    mean = sum(sizes) / len(sizes)
    assert abs(mean - 12.5) < 0.3
