"""Per-node rendezvous state: two sets, the handshake, the N-1 rule.

A node keeps two sets of node ids: `known`, every node it has heard of
(itself included), and `dnl`, the peers it verified by a completed direct
handshake. The paper's other two tables are views of these and the node's
fixed in-range set:

    IDN (handshake pending) = known & in_range - dnl
    INL (indirect)          = known - dnl - in_range - {node_id}

A node without coordinate validation can confirm nothing as in range, so its
in-range set is empty and everything it hears but has not verified is INL,
which is exactly the classification that makes N-1 termination premature.

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
    """What one node has heard of (`known`) and verified (`dnl`).

    in_range is the set of gossiped nodes the owner can confirm to be within
    transmission range. With coordinate validation it is
    `topo.dnl_star[node_id]`: the deployment computes that set with the same
    inclusive `hypot(dx, dy) <= r` test a node would apply to the true
    coordinates gossiped with each table entry, so membership in it is the
    coordinate check of the validating protocol. Without validation it is
    empty.
    """

    __slots__ = ("node_id", "in_range", "known", "dnl")

    def __init__(self, node_id, in_range):
        self.node_id = node_id
        self.in_range = in_range
        self.known = {node_id}
        self.dnl = set()


def process_handshake(a, b):
    """Atomic three-way handshake between two co-channel in-range nodes.

    b learns a's tables from the request; a learns b's updated tables from
    the response; the closing acknowledgement carries nothing new.
    """
    b.dnl.add(a.node_id)
    b.known |= a.known
    a.dnl.add(b.node_id)
    a.known |= b.known


def check_termination(state, n_nodes):
    """The N-1 rule |DNL| + |INL| = N-1, read off the two sets.

    Under validation dnl is a subset of in_range (only in-range pairs
    handshake) and INL never holds an in-range node, so the count holds
    exactly when the node has heard of all N nodes and has verified its
    whole in-range set. Without validation in_range is empty, so the rule
    fires on hearsay alone: that is the premature stop.
    """
    return len(state.known) == n_nodes and state.in_range <= state.dnl
