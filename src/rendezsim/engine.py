"""Slot-synchronous simulation loop with half-slot rendezvous resolution."""

import math
import random
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import eq, itemgetter

from . import protocol as proto
from .hopping import make_clock, PROTOCOLS
from .metrics import ctm, mean_or_none, ptm
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
        if self.n_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n_nodes}")
        if self.pool_size < 1:
            raise ValueError(f"need at least 1 channel, got {self.pool_size}")
        if not 1 <= self.similarity <= self.pool_size:
            raise ValueError(f"similarity must be in [1, {self.pool_size}], got {self.similarity}")
        if self.max_slots <= 0:
            raise ValueError(f"max_slots must be positive, got {self.max_slots}")

    @property
    def validate_coords(self):
        # coordinate validation is the MR- enhancement; it is always on for
        # mrdmca and switched on for every protocol under controlled
        # termination (the MR- variants of the controlled scenario), which is
        # what makes the shared N-1 stop safe there
        return self.protocol == "mrdmca" or self.termination == proto.CONTROLLED

    def scenario_key(self):
        """The six scenario cells of a CSV row: protocol, termination, N, C, m, PR."""
        return (self.protocol, self.termination, str(self.n_nodes),
                str(self.pool_size), str(self.similarity), self.pr.name)


@dataclass
class RunRecord:
    """Timing marks and correctness of one replication of cfg.

    Times are in slots at half-slot resolution (multiples of 0.5). t_n1 is the
    first time the N-1 rule held (`check_termination`); t_full the first time
    it held with DNL equal to ground truth. ptm/ctm are taken on the DNL frozen
    at each node's stop mark (t_n1, or t_full under run_to_full), where a
    traced run writes the node's `terminate` line.

    A stopped node keeps serving until the run ends (see run_once), so
    final_dnl is each DNL at the run's end, and a t_full after the stop mark
    is when the node's live tables became right, unseen by its frozen PTM;
    under baseline t_full stays None if that never happened. A sweep keeps
    only each run's summary() and drops the record (experiments.run_grid).
    """

    cfg: RunConfig
    slots_used: int
    t_n1: list
    t_full: list
    ptm: list
    ctm: float
    final_dnl: list

    @property
    def t_term(self):
        """The N-1 stop, t_n1; run_to_full has none (all None): its nodes stop
        at t_full, which the CSVs report as ttr_full and attr_full."""
        if self.cfg.termination == proto.RUN_TO_FULL:
            return [None] * len(self.t_n1)
        return self.t_n1

    def summary(self):
        return RunSummary(self.cfg.scenario_key(), self.ctm,
                          *map(mean_or_none, (self.t_term, self.t_n1, self.t_full)))


RunSummary = namedtuple("RunSummary", "scenario ctm policy n1 full")
RunSummary.__doc__ = """What rows and aggregates read of a run: its cfg.scenario_key(), CTM
and the node means of t_term, t_n1 and t_full (None if a node lacks its mark)."""


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
    handshakes, then a `terminate` line for each node whose stop mark (t_n1,
    or t_full under run_to_full) falls in it.

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
    stops = t_full if cfg.termination == proto.RUN_TO_FULL else t_n1

    slot = half_index = 0
    while None in stops:
        if slot >= cfg.max_slots:
            raise IncompleteRun(
                f"safety cap of {cfg.max_slots} slots reached with "
                f"{stops.count(None)} node(s) unfinished (seed {cfg.seed})"
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
                st = states[i]
                if not proto.check_termination(st, n):
                    continue
                if t_n1[i] is None:
                    t_n1[i] = tnow
                if t_full[i] is None and st.dnl == neighbour_sets[i]:
                    t_full[i] = tnow
                if stops[i] == tnow:  # the stop mark was set just now
                    ptm_values[i] = ptm(st.dnl, neighbour_sets[i])
                    if trace is not None:
                        trace.write(f"{slot} {half} {i} - terminate dnl={sorted(st.dnl)}\n")
        slot += 1

    return RunRecord(cfg=cfg, slots_used=slot, t_n1=t_n1, t_full=t_full, ptm=ptm_values,
                     ctm=ctm(ptm_values), final_dnl=[frozenset(st.dnl) for st in states])
