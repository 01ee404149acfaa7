"""Per-node rendezvous state: two sets, the handshake, the N-1 rule.

A node keeps two sets of node ids: `known`, every node it has heard of
(itself included), and `dnl`, the peers it verified by a completed direct
handshake. The paper's other two tables are views of these and of what the
node can confirm to be in range: nothing without coordinate validation, and
with it DNL*, its true neighbours, which the deployment finds by the same
inclusive `hypot(dx, dy) <= r` test a node applies to gossiped coordinates.
Unverified in-range nodes are IDN (pending) and the rest of
`known - dnl - {node_id}` is INL (indirect).

Controlled termination is "stop at full discovery". Under validation a
pending IDN entry never counts, so |DNL| + |INL| = N-1 holds exactly when
all N nodes are known and DNL = DNL*. Without validation nothing is pending,
so the same count fires on hearsay alone: the premature stop. The engine
therefore marks when a node has heard of all N (`check_termination`) and
when, besides, its DNL is right; each policy picks the mark that stops it.

Stopping freezes only the topology a node reports. A stopped node keeps
handshaking, as its neighbours may learn a far node only through it.
"""

BASELINE = "baseline"        # stop at the paper's N-1 count
CONTROLLED = "controlled"    # the same count, validated: stop at full discovery
RUN_TO_FULL = "run_to_full"  # stop at full discovery, whatever the count says
TERMINATION_MODES = (BASELINE, CONTROLLED, RUN_TO_FULL)


class NodeState:
    """What one node has heard of (`known`) and verified (`dnl`).

    Nothing here depends on the policy: whether the node validates
    coordinates changes only which of the engine's marks stops it.
    """

    __slots__ = ("node_id", "known", "dnl")

    def __init__(self, node_id):
        self.node_id = node_id
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
    """Whether the node has heard of all N nodes.

    This is the paper's |DNL| + |INL| = N-1 without validation. With it the
    count also needs DNL = DNL* (only in-range pairs handshake, so DNL is a
    subset of DNL*, and an unverified in-range node stays pending): stop at
    full discovery.
    """
    return len(state.known) == n_nodes
