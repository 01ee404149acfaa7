"""Neighbour-table state machine and N-1 termination rule tests."""

import math
import random

from rendezsim.engine import default_area_side
from rendezsim.protocol import NodeState, check_termination, process_handshake
from rendezsim.topology import _build_topology, deploy


def make_node(node_id, validate, in_range=()):
    # a node without coordinate validation can confirm no gossiped node in range
    return NodeState(node_id, frozenset(in_range) if validate else frozenset())


def views(node):
    """The paper's (DNL, INL, IDN) tables, by the protocol module's formulas."""
    inl = node.known - node.dnl - node.in_range - {node.node_id}
    idn = node.known & node.in_range - node.dnl
    return node.dnl, inl, idn


def peer_knowing(node_id, learned):
    # a handshake peer that has already heard of every node in learned
    peer = make_node(node_id, validate=False)
    peer.known |= learned
    return peer


def table_invariants(state):
    dnl, inl, idn = views(state)
    assert not dnl & inl
    assert not dnl & idn
    assert not inl & idn
    assert state.node_id not in dnl | inl | idn
    assert dnl | inl | idn | {state.node_id} == state.known


def test_a_node_stores_what_it_heard_of_and_what_it_verified():
    assert NodeState.__slots__ == ("node_id", "in_range", "known", "dnl")
    a = make_node(4, validate=True, in_range={1})
    assert a.known == {4} and a.dnl == set()
    assert views(a) == (set(), set(), set())


def test_fresh_two_node_handshake():
    a = make_node(0, validate=True, in_range={1})
    b = make_node(1, validate=True, in_range={0})
    process_handshake(a, b)
    assert views(a) == ({1}, set(), set())
    assert views(b) == ({0}, set(), set())
    table_invariants(a)
    table_invariants(b)


def test_gossiped_in_range_node_lands_in_idn_when_validating():
    a = make_node(0, validate=True, in_range={1, 2})
    process_handshake(a, peer_knowing(1, {2}))
    assert views(a) == ({1}, set(), {2})
    table_invariants(a)


def test_gossiped_out_of_range_node_lands_in_inl():
    a = make_node(0, validate=True, in_range={1})
    process_handshake(a, peer_knowing(1, {2}))
    assert views(a) == ({1}, {2}, set())


def test_boundary_distance_is_in_range():
    # node 1 sits exactly r away; the deployment's in-range set includes it
    topo = _build_topology([(0.0, 0.0), (100.0, 0.0)], 100.0)
    a = NodeState(0, topo.dnl_star[0])
    a.known.add(1)
    assert views(a) == (set(), set(), {1})


def test_without_validation_everything_learned_goes_to_inl():
    a = make_node(0, validate=False, in_range={1, 2})
    process_handshake(a, peer_knowing(1, {2, 3}))   # 2 is in range, but a cannot tell
    assert views(a) == ({1}, {2, 3}, set())


def test_dnl_membership_is_final():
    # hearing of a verified node again leaves it verified
    a = make_node(0, validate=True, in_range={2})
    b = make_node(2, validate=True, in_range={0})
    process_handshake(a, b)
    process_handshake(a, b)
    assert views(a) == ({2}, set(), set())


def test_direct_handshake_clears_pending_entries():
    a = make_node(0, validate=True, in_range={1})
    a.known.add(1)
    assert views(a) == (set(), set(), {1})
    process_handshake(a, make_node(1, validate=True, in_range={0}))
    assert views(a) == ({1}, set(), set())


def test_node_never_learns_itself():
    # the peer's reply gossips a back to a
    for validate in (True, False):
        a = make_node(0, validate=validate, in_range={1})
        b = make_node(1, validate=validate, in_range={0})
        process_handshake(a, b)
        assert 0 in b.known
        assert views(a) == ({1}, set(), set())
        table_invariants(a)


def test_handshake_propagates_tables_both_ways():
    # b already verified node 2; a should hear about it and, being in range
    # of 2, file it under IDN
    a = make_node(0, validate=True, in_range={1, 2})
    b = make_node(1, validate=True, in_range={0, 2})
    process_handshake(b, make_node(2, validate=True, in_range={0, 1}))
    process_handshake(a, b)
    assert views(a) == ({1}, set(), {2})
    assert b.dnl == {0, 2}
    table_invariants(a)
    table_invariants(b)


class ReferenceNode:
    """The coordinate/message formulation the set rule replaced.

    Every handshake leg carries the sender's tables as {node: (x, y)} maps and
    the receiver re-tests each gossiped position against its own range.
    """

    def __init__(self, node_id, coords, range_m, validate_coords):
        self.node_id = node_id
        self.coords = coords
        self.range_m = range_m
        self.validate_coords = validate_coords
        self.dnl, self.inl, self.idn = set(), set(), set()
        self.known_coords = {}

    def in_range(self, coords):
        dx = self.coords[0] - coords[0]
        dy = self.coords[1] - coords[1]
        return math.hypot(dx, dy) <= self.range_m

    def learn(self, u, u_coords):
        if u == self.node_id:
            return
        self.known_coords[u] = u_coords
        if u in self.dnl:
            return
        if self.validate_coords and self.in_range(u_coords):
            self.inl.discard(u)
            self.idn.add(u)
        elif u not in self.idn and u not in self.inl:
            self.inl.add(u)

    def add_direct(self, u, u_coords):
        self.known_coords[u] = u_coords
        self.inl.discard(u)
        self.idn.discard(u)
        self.dnl.add(u)

    def message(self):
        known = {u: self.known_coords[u] for u in self.dnl | self.inl | self.idn}
        return self.node_id, self.coords, known

    def apply(self, msg):
        sender, sender_coords, known = msg
        self.add_direct(sender, sender_coords)
        for u, u_coords in known.items():
            self.learn(u, u_coords)


def reference_handshake(a, b):
    b.apply(a.message())   # D-REQ
    a.apply(b.message())   # D-RESP; the D-ACK carries nothing new


def test_set_rule_matches_the_coordinate_message_reference():
    fired = {True: 0, False: 0}
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        side = default_area_side(n)
        topo = deploy(n, (side, side), 100.0, rng_seed=seed)
        edges = sorted((i, j) for i, near in enumerate(topo.dnl_star)
                       for j in near if i < j)
        for validate in (True, False):
            nodes = [NodeState(i, topo.dnl_star[i] if validate else frozenset())
                     for i in range(n)]
            refs = [ReferenceNode(i, topo.coords[i], 100.0, validate)
                    for i in range(n)]
            for _ in range(4 * n):
                i, j = rng.choice(edges)
                if rng.random() < 0.5:
                    i, j = j, i
                process_handshake(nodes[i], nodes[j])
                reference_handshake(refs[i], refs[j])
                for k, (node, ref) in enumerate(zip(nodes, refs)):
                    assert views(node) == (ref.dnl, ref.inl, ref.idn)
                    table_invariants(node)
                    # the one-line rule is the paper's N-1 count
                    stops = check_termination(node, n)
                    assert stops == (len(ref.dnl) + len(ref.inl) == n - 1)
                    # the engine stops every policy on this rule alone: a
                    # pending verification must already block it, and under
                    # validation it must only hold on the true neighbours
                    if stops:
                        fired[validate] += 1
                        assert not views(node)[2]
                        if validate:
                            assert node.dnl == topo.dnl_star[k]
    assert fired[True] and fired[False]


def test_a_stopped_node_still_relays_what_only_it_can_reach():
    # line A-B-C with A and C out of each other's range: A can learn C only
    # from B, and B reaches N-1 as soon as it has met both
    topo = _build_topology([(0.0, 0.0), (90.0, 0.0), (180.0, 0.0)], 100.0)
    assert topo.dnl_star == (frozenset({1}), frozenset({0, 2}), frozenset({1}))
    a, b, c = (NodeState(i, topo.dnl_star[i]) for i in range(3))
    process_handshake(a, b)
    process_handshake(b, c)
    assert check_termination(b, 3)
    assert not check_termination(a, 3) and views(a)[1] == set()
    # the engine keeps a stopped node handshaking, which is A's only way on
    process_handshake(a, b)
    assert views(a)[1] == {2} and check_termination(a, 3)


def test_termination_three_node_chain_controlled():
    a = make_node(0, validate=True, in_range={1})
    a.dnl = {1}
    a.known = {0, 1, 2}
    assert views(a) == ({1}, {2}, set())
    assert check_termination(a, 3)


def test_pending_verification_blocks_both_policies_by_disjointness():
    # a pending IDN entry does not count toward N-1, so the one rule every
    # stopping policy uses cannot hold
    a = make_node(0, validate=True, in_range={1, 2})
    a.dnl = {1}
    a.known = {0, 1, 2}
    assert views(a) == ({1}, set(), {2})
    assert not check_termination(a, 3)


def test_premature_termination_witness():
    # a non-validating node hears about its still-unverified in-range
    # neighbour 2 and files it under INL; the N-1 count fires anyway. A
    # validating node keeps 2 pending in IDN, which blocks the count until
    # the handshake happens.
    blind = make_node(0, validate=False, in_range={1, 2})
    process_handshake(blind, peer_knowing(1, {2, 3}))
    assert views(blind) == ({1}, {2, 3}, set())
    assert check_termination(blind, 4)

    careful = make_node(0, validate=True, in_range={1, 2})
    process_handshake(careful, peer_knowing(1, {2, 3}))
    assert views(careful) == ({1}, {3}, {2})
    assert not check_termination(careful, 4)
    process_handshake(careful, make_node(2, validate=True, in_range={0, 1}))
    assert check_termination(careful, 4)
