"""Per-node rendezvous state: neighbour tables, handshake, the N-1 rule.

The three tables are plain sets of node ids, kept pairwise disjoint and never
containing the owner. DNL (verified) membership comes only from a completed
direct handshake. Everything else a node hears is gossip and is sorted by one
rule: gossiped nodes in the node's in-range set go to IDN (handshake pending)
and the rest to INL (indirect). A node without coordinate validation can
confirm nothing as in range, so its in-range set is empty and all gossip goes
to INL, which is exactly the classification that makes N-1 termination
premature.

Every stopping policy uses the same N-1 rule (`check_termination`); the
controlled policy is that rule under coordinate validation, where a pending
IDN entry already keeps the count short.

Stopping freezes only the topology a node reports. A stopped node keeps
handshaking, as its neighbours may learn a far node only through it.
"""

BASELINE = "baseline"        # stop at the first N-1 mark
CONTROLLED = "controlled"    # the same, with coordinate validation
RUN_TO_FULL = "run_to_full"  # never stop at N-1; stop at full discovery
TERMINATION_MODES = (BASELINE, CONTROLLED, RUN_TO_FULL)


class NodeState:
    """Neighbour tables of one node.

    in_range is the set of gossiped nodes the owner can confirm to be within
    transmission range. With coordinate validation it is
    `topo.dnl_star[node_id]`: the deployment computes that set with the same
    inclusive `hypot(dx, dy) <= r` test a node would apply to the true
    coordinates gossiped with each table entry, so membership in it is the
    coordinate check of the validating protocol. Without validation it is
    empty.
    """

    __slots__ = ("node_id", "in_range", "dnl", "inl", "idn")

    def __init__(self, node_id, in_range):
        self.node_id = node_id
        self.in_range = in_range
        self.dnl = set()
        self.inl = set()
        self.idn = set()

    def known(self):
        """Every node this one can report: its tables plus itself."""
        return self.dnl | self.inl | self.idn | {self.node_id}

    def learn(self, learned):
        """File gossiped nodes under INL or IDN; never demotes from DNL."""
        learned = learned - self.dnl - {self.node_id}
        near = learned & self.in_range
        self.idn |= near
        self.inl -= near
        self.inl |= learned - near

    def add_direct(self, u):
        """Record a completed handshake with u."""
        self.inl.discard(u)
        self.idn.discard(u)
        self.dnl.add(u)


def process_handshake(a, b):
    """Atomic three-way handshake between two co-channel in-range nodes.

    b learns a's tables from the request; a learns b's updated tables from
    the response; the closing acknowledgement carries nothing new.
    """
    b.add_direct(a.node_id)
    b.learn(a.known())
    a.add_direct(b.node_id)
    a.learn(b.known())


def check_termination(state, n_nodes):
    """The N-1 rule: verified plus indirectly reported nodes account for N-1.

    The tables are disjoint and never hold the owner, so |DNL| + |INL| +
    |IDN| <= N-1 and the rule can only hold with IDN empty: a pending
    verification already blocks it. A validating node files every gossiped
    in-range node under IDN, so it satisfies the rule only once each of its
    in-range neighbours has been verified directly.
    """
    return len(state.dnl) + len(state.inl) == n_nodes - 1
