"""Neighbour-table state machine and N-1 termination rule tests."""

import math
import random

from rendezsim.engine import default_area_side
from rendezsim.protocol import NodeState, check_termination, process_handshake
from rendezsim.topology import _build_topology, deploy


def views(node, in_range):
    """The paper's (DNL, INL, IDN) tables of a node that can confirm in_range.

    in_range is the node's true neighbours under coordinate validation and
    empty without it: a node that cannot validate confirms nothing in range.
    """
    inl = node.known - node.dnl - in_range - {node.node_id}
    idn = node.known & in_range - node.dnl
    return node.dnl, inl, idn


def n1_count(node, in_range):
    """The paper's |DNL| + |INL|, which stops a node when it reaches N-1."""
    dnl, inl, _ = views(node, in_range)
    return len(dnl) + len(inl)


def peer_knowing(node_id, learned):
    # a handshake peer that has already heard of every node in learned
    peer = NodeState(node_id)
    peer.known |= learned
    return peer


def table_invariants(state, in_range):
    dnl, inl, idn = views(state, in_range)
    assert not dnl & inl
    assert not dnl & idn
    assert not inl & idn
    assert state.node_id not in dnl | inl | idn
    assert dnl | inl | idn | {state.node_id} == state.known


def test_a_node_stores_what_it_heard_of_and_what_it_verified():
    assert NodeState.__slots__ == ("node_id", "known", "dnl")
    a = NodeState(4)
    assert a.known == {4} and a.dnl == set()
    assert views(a, {1}) == (set(), set(), set())


def test_fresh_two_node_handshake():
    a, b = NodeState(0), NodeState(1)
    process_handshake(a, b)
    assert views(a, {1}) == ({1}, set(), set())
    assert views(b, {0}) == ({0}, set(), set())
    table_invariants(a, {1})
    table_invariants(b, {0})


def test_gossiped_in_range_node_lands_in_idn_when_validating():
    a = NodeState(0)
    process_handshake(a, peer_knowing(1, {2}))
    assert views(a, {1, 2}) == ({1}, set(), {2})
    table_invariants(a, {1, 2})


def test_gossiped_out_of_range_node_lands_in_inl():
    a = NodeState(0)
    process_handshake(a, peer_knowing(1, {2}))
    assert views(a, {1}) == ({1}, {2}, set())


def test_boundary_distance_is_in_range():
    # node 1 sits exactly r away; the deployment's in-range set includes it
    topo = _build_topology([(0.0, 0.0), (100.0, 0.0)], 100.0)
    a = NodeState(0)
    a.known.add(1)
    assert views(a, topo.dnl_star[0]) == (set(), set(), {1})


def test_without_validation_everything_learned_goes_to_inl():
    a = NodeState(0)
    process_handshake(a, peer_knowing(1, {2, 3}))   # 2 is in range, but a cannot tell
    assert views(a, frozenset()) == ({1}, {2, 3}, set())


def test_dnl_membership_is_final():
    # hearing of a verified node again leaves it verified
    a, b = NodeState(0), NodeState(2)
    process_handshake(a, b)
    process_handshake(a, b)
    assert views(a, {2}) == ({2}, set(), set())


def test_direct_handshake_clears_pending_entries():
    a = NodeState(0)
    a.known.add(1)
    assert views(a, {1}) == (set(), set(), {1})
    process_handshake(a, NodeState(1))
    assert views(a, {1}) == ({1}, set(), set())


def test_node_never_learns_itself():
    # the peer's reply gossips a back to a
    for in_range in ({1}, frozenset()):
        a, b = NodeState(0), NodeState(1)
        process_handshake(a, b)
        assert 0 in b.known
        assert views(a, in_range) == ({1}, set(), set())
        table_invariants(a, in_range)


def test_handshake_propagates_tables_both_ways():
    # b already verified node 2; a should hear about it and, being in range
    # of 2, file it under IDN
    a, b = NodeState(0), NodeState(1)
    process_handshake(b, NodeState(2))
    process_handshake(a, b)
    assert views(a, {1, 2}) == ({1}, set(), {2})
    assert b.dnl == {0, 2}
    table_invariants(a, {1, 2})
    table_invariants(b, {0, 2})


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
            in_range = topo.dnl_star if validate else [frozenset()] * n
            nodes = [NodeState(i) for i in range(n)]
            refs = [ReferenceNode(i, topo.coords[i], 100.0, validate)
                    for i in range(n)]
            for _ in range(4 * n):
                i, j = rng.choice(edges)
                if rng.random() < 0.5:
                    i, j = j, i
                process_handshake(nodes[i], nodes[j])
                reference_handshake(refs[i], refs[j])
                for k, (node, ref) in enumerate(zip(nodes, refs)):
                    assert views(node, in_range[k]) == (ref.dnl, ref.inl, ref.idn)
                    table_invariants(node, in_range[k])
                    # the paper's N-1 count is one of the engine's two marks:
                    # all N heard of, and under validation DNL = DNL* as well
                    count = len(ref.dnl) + len(ref.inl) == n - 1
                    assert count == (check_termination(node, n)
                                     and (not validate or node.dnl == topo.dnl_star[k]))
                    if count:
                        fired[validate] += 1
                        assert not ref.idn
    assert fired[True] and fired[False]


def test_a_stopped_node_still_relays_what_only_it_can_reach():
    # line A-B-C with A and C out of each other's range: A can learn C only
    # from B, and B reaches N-1 as soon as it has met both
    topo = _build_topology([(0.0, 0.0), (90.0, 0.0), (180.0, 0.0)], 100.0)
    assert topo.dnl_star == (frozenset({1}), frozenset({0, 2}), frozenset({1}))
    a, b, c = (NodeState(i) for i in range(3))
    process_handshake(a, b)
    process_handshake(b, c)
    assert n1_count(b, topo.dnl_star[1]) == 2 and check_termination(b, 3)
    assert n1_count(a, topo.dnl_star[0]) == 1 and not check_termination(a, 3)
    # the engine keeps a stopped node handshaking, which is A's only way on
    process_handshake(a, b)
    assert views(a, topo.dnl_star[0])[1] == {2}
    assert n1_count(a, topo.dnl_star[0]) == 2 and check_termination(a, 3)


def test_termination_three_node_chain_controlled():
    a = NodeState(0)
    a.dnl = {1}
    a.known = {0, 1, 2}
    assert views(a, {1}) == ({1}, {2}, set())
    assert n1_count(a, {1}) == 2
    assert check_termination(a, 3) and a.dnl == {1}   # heard of all, DNL = DNL*


def test_pending_verification_blocks_the_validated_count():
    # a pending IDN entry does not count toward N-1, so under validation the
    # count waits for DNL = DNL* although every node has been heard of
    a = NodeState(0)
    a.dnl = {1}
    a.known = {0, 1, 2}
    assert views(a, {1, 2}) == ({1}, set(), {2})
    assert n1_count(a, {1, 2}) == 1
    assert check_termination(a, 3) and a.dnl != {1, 2}


def test_premature_termination_witness():
    # one node, read by a node that cannot validate and by one that can: the
    # first files its still-unverified in-range neighbour 2 under INL and the
    # N-1 count fires; the second keeps 2 pending in IDN, which blocks the
    # count until the handshake happens. Both have heard of all four nodes.
    a = NodeState(0)
    process_handshake(a, peer_knowing(1, {2, 3}))
    assert check_termination(a, 4)
    assert views(a, frozenset()) == ({1}, {2, 3}, set())
    assert n1_count(a, frozenset()) == 3

    assert views(a, {1, 2}) == ({1}, {3}, {2})
    assert n1_count(a, {1, 2}) == 2
    process_handshake(a, NodeState(2))
    assert n1_count(a, {1, 2}) == 3 and a.dnl == {1, 2}
