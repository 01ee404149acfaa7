"""Slot-synchronous simulation loop with half-slot rendezvous resolution."""

import math
import random
from collections import namedtuple
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
    steeply dearer with N: from seed 1000 on, a deploy takes about 12
    attempts on average at N=10, 180 at N=20 and 1 600 at N=30, and at N=50
    most deploys exhaust the attempt cap.
    """
    return DEFAULT_RANGE_M * min(0.5 * n_nodes ** 0.8, 0.99 * math.sqrt(n_nodes))


class RunConfig(namedtuple(
        "RunConfig", "protocol termination n_nodes pool_size similarity pr "
        "max_slots seed topo_seed chan_seed", defaults=(DEFAULT_MAX_SLOTS, 0, None, None))):
    """One cell and one replication's seeds; n_nodes sets the geometry (see _deployment).

    topo_seed and chan_seed default to None: derive them from seed. The
    fields are checked on construction; _replace skips the checks.

    Passing one value as seed, topo_seed and chan_seed makes run_once's
    master generator and assign_channels' generator (and deploy's) one
    Mersenne Twister stream, so the channel sets and the run's other seeds
    are not independent draws. Sweeps derive distinct seeds through sha256
    (experiments.derive_seed).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @property
    def validate_coords(self):
        # coordinate validation is the MR- enhancement; it is always on for
        # mrdmca and switched on for every protocol under controlled
        # termination (the MR- variants of the controlled scenario); it only
        # picks which of run_once's two marks the N-1 count is
        return self.protocol == "mrdmca" or self.termination == proto.CONTROLLED


class RunRecord(namedtuple("RunRecord", "cfg slots_used t_n1 t_full ptm ctm final_dnl")):
    """Timing marks and correctness of one replication of cfg.

    Times are in slots at half-slot resolution (multiples of 0.5). t_full is
    the first time a node had heard of all N nodes with DNL equal to ground
    truth. t_n1 is the first time the paper's N-1 count held: t_full under
    coordinate validation, else the first time the node had heard of all N.
    ptm/ctm are taken on the DNL frozen at each node's stop mark (t_n1, or
    t_full under run_to_full), where a traced run writes its `terminate` line.

    A stopped node keeps serving until the run ends (see run_once), so
    final_dnl is each DNL at the run's end, and a t_full after the stop mark
    is when the node's live tables became right, unseen by its frozen PTM;
    under baseline t_full stays None if that never happened. A sweep keeps
    only each run's summary() and drops the record (experiments.run_grid).
    """

    __slots__ = ()

    @property
    def t_term(self):
        """The N-1 stop, t_n1; run_to_full has none (all None): its nodes stop
        at t_full, which the CSVs report as ttr_full and attr_full."""
        if self.cfg.termination == proto.RUN_TO_FULL:
            return [None] * len(self.t_n1)
        return self.t_n1

    def summary(self):
        return RunSummary(self.ctm, *map(mean_or_none, (self.t_term, self.t_n1, self.t_full)))


RunSummary = namedtuple("RunSummary", "ctm policy n1 full")
RunSummary.__doc__ = """What rows and aggregates read of a run: its CTM and the node means
of t_term, t_n1 and t_full (None if a node lacks its mark); the sweep knows its cell."""


def resolve_half_slot(meets):
    """The meeting pairs that handshake in one half-slot, by (channel, i, j).

    meets holds a (channel, i, j) tuple, i < j, for every in-range pair on a
    channel both can use, and with PR on only on channels idle for the whole
    half-slot (run_once drops the rest before it looks for meets). A node
    sits on one channel per half-slot, so collisions never cross channels:
    dropping a busy channel's meets changes no other channel's pairs, and
    the pairs that clear handshake_pairs handshake.
    """
    if not meets:
        return meets
    return sorted(handshake_pairs(meets))


def handshake_pairs(meets):
    """The meeting pairs whose two ends appear in no other meeting pair; meets
    itself when no end repeats.

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
        if i in seen:
            shared.add(i)
        else:
            seen.add(i)
        if j in seen:
            shared.add(j)
        else:
            seen.add(j)
    if not shared:
        return meets
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
    share one; keeping only the latest keeps memory flat, and a sweep's runs
    that share a key run back to back (see experiments._units).
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

    A run is one forward pass. Each half-slot takes the next row of a zip
    over every node's select, so each clock is asked once, from C, when the
    row is taken; the row is released before the next is pulled, which lets
    zip refill one tuple in place. It then lists the half-slot's contacts:
    the in-range pairs that meet on a channel both can use, as (channel, i,
    j) tuples. With PR off it compares the two ends of every in-range pair
    at once; with PR on it looks only at the nodes on the channels of the
    next idle_channels() set, since a handshake on any other defers to PR;
    those sets come a block at a time from a walk over each channel's OFF
    spells (ChannelOccupancy._schedule). resolve_half_slot keeps the
    contacts that do not collide, and they handshake in (channel, i, j)
    order. The run ends after both halves of the slot in which the last node
    gets its stop mark, or raises IncompleteRun when max_slots slots pass.

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
    clock_rng = random.Random(clock_seed)
    pool = list(range(1, cfg.pool_size + 1))
    selects = [make_clock(cfg.protocol, chans[i],
                          random.Random(clock_rng.getrandbits(63)), pool=pool).select
               for i in nodes]
    usable = [frozenset(chans[i]) for i in nodes]
    neighbour_sets = topo.dnl_star
    # a node can only transact on a channel in its usable set; blind
    # searchers that tuned elsewhere listen without effect
    if cfg.pr.enabled:
        idle = ChannelOccupancy(cfg.pr, cfg.pool_size, occ_seed).idle_channels()

        def find_meets(selections):
            meets = []
            for ch in next(idle):
                count = selections.count(ch)
                if count == 2:  # the usual crowd: find both nodes in C
                    i = selections.index(ch)
                    j = selections.index(ch, i + 1)
                    if j in neighbour_sets[i] and ch in usable[i] and ch in usable[j]:
                        meets.append((ch, i, j))
                elif count > 2:
                    on = [i for i in compress(nodes, map(ch.__eq__, selections))
                          if ch in usable[i]]
                    meets += [(ch, i, j) for k, i in enumerate(on) for j in on[k + 1:]
                              if j in neighbour_sets[i]]
            return meets
    else:
        edges = [(i, j) for i in nodes for j in sorted(neighbour_sets[i]) if i < j]
        firsts = _picker([i for i, _ in edges])
        seconds = _picker([j for _, j in edges])

        def find_meets(selections):
            met = compress(edges, map(eq, firsts(selections), seconds(selections)))
            return [(ch, i, j) for i, j in met
                    if (ch := selections[i]) in usable[i] and ch in usable[j]]
    states = [proto.NodeState(i) for i in nodes]

    t_heard, t_full, ptm_values = [None] * n, [None] * n, [None] * n  # ptm set at stop marks
    t_n1 = t_full if cfg.validate_coords else t_heard  # where the paper's N-1 count holds
    stops = t_full if cfg.termination == proto.RUN_TO_FULL else t_n1

    # one row of channels per half-slot, each node's select called from C when
    # the row is taken; a row released before the next is refilled in place
    rows = zip(*[iter(select, None) for select in selects])
    for slot in range(cfg.max_slots):
        for half in (0, 1):
            selections = next(rows)
            if trace is not None:
                for i, c in enumerate(selections):
                    trace.write(f"{slot} {half} {i} {c} select -\n")
            pairs = resolve_half_slot(find_meets(selections))
            del selections
            if not pairs:
                continue
            touched = []
            for ch, i, j in pairs:
                proto.process_handshake(states[i], states[j])
                touched += (i, j)
                if trace is not None:
                    trace.write(f"{slot} {half} {i} {ch} handshake peer={j}\n")
            tnow = slot + 0.5 * (half + 1)
            for i in sorted(touched):
                st = states[i]
                if not proto.check_termination(st, n):
                    continue
                if t_heard[i] is None:
                    t_heard[i] = tnow
                if t_full[i] is None and st.dnl == neighbour_sets[i]:
                    t_full[i] = tnow
                if stops[i] == tnow:  # the stop mark was set just now
                    ptm_values[i] = ptm(st.dnl, neighbour_sets[i])
                    if trace is not None:
                        trace.write(f"{slot} {half} {i} - terminate dnl={sorted(st.dnl)}\n")
        if None not in stops:
            break
    else:
        raise IncompleteRun(
            f"safety cap of {cfg.max_slots} slots reached with "
            f"{stops.count(None)} node(s) unfinished (seed {cfg.seed})"
        )

    return RunRecord(cfg=cfg, slots_used=slot + 1, t_n1=t_n1, t_full=t_full, ptm=ptm_values,
                     ctm=ctm(ptm_values), final_dnl=[frozenset(st.dnl) for st in states])
