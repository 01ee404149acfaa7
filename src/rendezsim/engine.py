"""Slot-synchronous simulation loop with half-slot rendezvous resolution."""

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import eq, itemgetter

from . import protocol as proto
from .hopping import make_clock, PROTOCOLS
from .metrics import ctm, ptm
from .pr_activity import PrParams, ChannelOccupancy
from .topology import deploy, assign_channels

DEFAULT_MAX_SLOTS = 50_000
DEFAULT_RANGE_M = 100.0


def default_area_side(n_nodes):
    """Square side of the deployment area for n_nodes, at DEFAULT_RANGE_M.

    Grows superlinearly for small networks (keeping a 3-node deployment dense
    enough to be mostly triangles) and switches to a square-root law past ten
    nodes so the mean unit-disk degree stays above ~3. That degree does not
    grow like log N, so rejection sampling of connected deployments gets
    steeply dearer with N: roughly 10 attempts per deploy at N=10, 100 at
    N=20 and 2 000 at N=30, and at N=50 most deploys exhaust the attempt cap.
    """
    return DEFAULT_RANGE_M * min(0.5 * n_nodes ** 0.8, 0.99 * math.sqrt(n_nodes))


@dataclass(frozen=True)
class RunConfig:
    """One cell and one replication's seeds; n_nodes sets the geometry (see _deployment)."""

    protocol: str
    termination: str
    n_nodes: int
    pool_size: int
    similarity: int
    pr: PrParams
    max_slots: int = DEFAULT_MAX_SLOTS
    seed: int = 0
    topo_seed: int = None       # None = derive from seed
    chan_seed: int = None

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.termination not in proto.TERMINATION_MODES:
            raise ValueError(f"unknown termination mode {self.termination!r}")
        if self.max_slots <= 0:
            raise ValueError("max_slots must be positive")

    @property
    def validate_coords(self):
        # coordinate validation is the MR- enhancement; it is always on for
        # mrdmca and switched on for every protocol under controlled
        # termination (the MR- variants of the controlled scenario), which is
        # what makes the shared N-1 stop safe there
        return self.protocol == "mrdmca" or self.termination == proto.CONTROLLED

    def scenario_key(self):
        return (self.protocol, self.termination, self.n_nodes, self.pool_size,
                self.similarity, self.pr.name)


@dataclass
class RunRecord:
    """Timing marks and correctness of one replication.

    Times are in slots at half-slot resolution (multiples of 0.5). t_n1 is the
    first time |DNL u INL| = N-1 held; t_full the first time that condition
    held with DNL equal to ground truth. ptm/ctm are taken on the DNL frozen
    at each node's stop mark (t_n1, or t_full under run_to_full).

    A stopped node keeps serving until the run ends (see run_once), so
    final_dnl is each DNL at the run's end, and a t_full after the stop mark
    is when the node's live tables became right, unseen by its frozen PTM;
    under baseline t_full stays None if that never happened.
    """

    scenario: tuple
    seed: int
    slots_used: int
    t_n1: list
    t_full: list
    ptm: list
    ctm: float
    final_dnl: list

    @property
    def t_term(self):
        """The policy's stop mark: t_n1, or all None under run_to_full."""
        if self.scenario[1] == proto.RUN_TO_FULL:  # see RunConfig.scenario_key
            return [None] * len(self.t_n1)
        return self.t_n1

    def node_mean(self, which):
        marks = {"n1": self.t_n1, "full": self.t_full, "policy": self.t_term}[which]
        if any(t is None for t in marks):
            return None
        return sum(marks) / len(marks)


def resolve_half_slot(meets, occupancy, half_slot_index):
    """The meeting pairs that handshake in one half-slot, by (channel, i, j).

    meets holds a (channel, i, j) tuple, i < j, for every in-range pair on a
    channel both can use. The pairs that clear handshake_pairs defer when
    their channel is PR-busy at any point in the half-slot: a handshake needs
    the whole exchange, so a primary arriving mid-way disrupts it too. PR is
    asked about the channel of each cleared pair and no other, or nothing
    with PR off; as every channel has its own ON/OFF stream, which channels
    are asked, and how often, changes no answer.
    """
    if not meets:
        return meets
    pairs = handshake_pairs(meets)
    if occupancy.params.enabled:
        pairs = [pair for pair in pairs if not occupancy.busy_during(pair[0], half_slot_index)]
    return sorted(pairs)


def handshake_pairs(meets):
    """The meeting pairs whose two ends appear in no other meeting pair.

    A pair completes its three-way handshake only when neither endpoint hears
    another co-channel node. A node sits on one channel per half-slot, so a
    third node on the pair's channel, able to use it and in range of an end,
    meets that end too: counting each node's meeting pairs finds every
    collision. Applied uniformly to every protocol.
    """
    if len(meets) < 2:
        return meets
    seen, shared = set(), set()
    for _, i, j in meets:
        shared |= seen & {i, j}
        seen |= {i, j}
    return [pair for pair in meets if pair[1] not in shared and pair[2] not in shared]


class IncompleteRun(RuntimeError):
    """Safety cap reached before the run finished."""


def _picker(indices):
    """A function taking a sequence to the tuple of its items at indices."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda seq: tuple(seq[i] for i in indices)  # itemgetter(i) gives a bare item


@lru_cache(maxsize=1)
def _deployment(n_nodes, topo_seed):
    """deploy in a default_area_side(n_nodes) square at DEFAULT_RANGE_M.

    deploy is pure and its result immutable, so runs with equal arguments
    share one; keeping only the latest keeps memory flat, and runs sorted by
    (n_nodes, topo_seed) deploy once per key (see experiments._run_configs).
    """
    side = default_area_side(n_nodes)
    return deploy(n_nodes, (side, side), DEFAULT_RANGE_M, topo_seed)


def run_once(cfg, topo=None, chans=None, trace=None):
    """Simulate one replication; deterministic given cfg and its seeds.

    topo/chans may be supplied to replay a fixed deployment; otherwise they
    are drawn from seeds derived from cfg, the deployment by _deployment, so
    consecutive runs that share one deploy it once. trace, when given, is a
    writable text stream receiving `slot half node channel event detail`
    lines: every node's selection in every half-slot, then that half-slot's
    handshakes and stop marks.

    Each half-slot takes every node's channel, then compares the two ends
    of every in-range pair at once. The pairs that meet on a channel both
    can use, as (channel, i, j) tuples, are the half-slot's one list of
    contacts: resolve_half_slot keeps those that neither collide nor defer
    to PR, and they handshake in (channel, i, j) order. The run ends after both
    halves of the slot in which the last node gets its stop mark, or raises
    IncompleteRun when max_slots slots pass first.

    A stop mark only freezes a node's PTM: the node keeps hopping,
    handshaking and relaying gossip, which a neighbour may need, until every
    node has its mark and the run ends.
    """
    master = random.Random(cfg.seed)
    topo_seed = cfg.topo_seed if cfg.topo_seed is not None else master.getrandbits(63)
    chan_seed = cfg.chan_seed if cfg.chan_seed is not None else master.getrandbits(63)
    occ_seed = master.getrandbits(63)
    clock_seed = master.getrandbits(63)

    if topo is None:
        topo = _deployment(cfg.n_nodes, topo_seed)
    if chans is None:
        chans = assign_channels(cfg.n_nodes, cfg.pool_size, cfg.similarity, chan_seed)
    n = cfg.n_nodes
    nodes = range(n)
    occupancy = ChannelOccupancy(cfg.pr, cfg.pool_size, occ_seed)
    clock_rng = random.Random(clock_seed)
    pool = list(range(1, cfg.pool_size + 1))
    selects = [make_clock(cfg.protocol, chans[i],
                          random.Random(clock_rng.getrandbits(63)), pool=pool).select
               for i in nodes]
    usable = [frozenset(chans[i]) for i in nodes]
    neighbour_sets = topo.dnl_star
    edges = [(i, j) for i in nodes for j in sorted(neighbour_sets[i]) if i < j]
    firsts = _picker([i for i, _ in edges])
    seconds = _picker([j for _, j in edges])
    in_range = neighbour_sets if cfg.validate_coords else [frozenset()] * n
    states = [proto.NodeState(i, in_range[i]) for i in range(n)]

    t_n1, t_full, ptm_values = [None] * n, [None] * n, [None] * n  # ptm set at stop marks
    run_to_full = cfg.termination == proto.RUN_TO_FULL
    pending = set(range(n))  # nodes still missing their stop mark

    def update_marks(i, tnow, slot, half):
        st = states[i]
        if not proto.check_termination(st, n):
            return
        if t_n1[i] is None:
            t_n1[i] = tnow
            if not run_to_full:
                pending.discard(i)
                ptm_values[i] = ptm(st.dnl, neighbour_sets[i])
                if trace is not None:
                    trace.write(f"{slot} {half} {i} - terminate dnl={sorted(st.dnl)}\n")
        if t_full[i] is None and st.dnl == neighbour_sets[i]:
            t_full[i] = tnow
            if run_to_full:
                pending.discard(i)
                ptm_values[i] = ptm(st.dnl, neighbour_sets[i])

    slot = half_index = 0
    while pending:
        if slot >= cfg.max_slots:
            raise IncompleteRun(
                f"safety cap of {cfg.max_slots} slots reached with "
                f"{len(pending)} node(s) unfinished (seed {cfg.seed})"
            )
        for half in (0, 1):
            selections = [select() for select in selects]
            if trace is not None:
                for i, c in enumerate(selections):
                    trace.write(f"{slot} {half} {i} {c} select -\n")
            # a node can only transact on a channel in its usable set; blind
            # searchers that tuned elsewhere listen without effect
            met = compress(edges, map(eq, firsts(selections), seconds(selections)))
            meets = [(ch, i, j) for i, j in met
                     if (ch := selections[i]) in usable[i] and ch in usable[j]]
            pairs = resolve_half_slot(meets, occupancy, half_index)
            half_index += 1
            if not pairs:
                continue
            touched = []
            for ch, i, j in pairs:
                proto.process_handshake(states[i], states[j])
                touched += (i, j)
                if trace is not None:
                    trace.write(f"{slot} {half} {i} {ch} handshake peer={j}\n")
            tnow = half_index * 0.5
            for i in sorted(touched):
                update_marks(i, tnow, slot, half)
        slot += 1

    return RunRecord(scenario=cfg.scenario_key(), seed=cfg.seed, slots_used=slot,
                     t_n1=t_n1, t_full=t_full, ptm=ptm_values, ctm=ctm(ptm_values),
                     final_dnl=[frozenset(st.dnl) for st in states])
