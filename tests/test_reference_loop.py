"""The engine against the plain per-half-slot loop it replaced.

`reference_run_once` is the former engine loop, kept here as an oracle: every
half-slot it takes one channel from every clock, keeps the attempts on usable
channels, groups them by channel in node order, asks PR about every attempted
channel (singletons included), and resolves each idle group with its own
group-based collision rule, `reference_pairs`: a pair handshakes when each
end has exactly one in-range neighbour in the group. `run_once` instead keeps
one list of the in-range pairs that meet on a channel both can use, drops
every pair with an end in another meeting pair, and asks PR only about the
channels of the pairs left, so PR hears of fewer channels; the two must agree
on every record, every trace line and every capped run.
"""

import io
import random
from itertools import combinations

import pytest

from rendezsim import protocol as proto
from rendezsim.engine import (
    IncompleteRun,
    RunConfig,
    RunRecord,
    _deployment,
    run_once,
)
from rendezsim.hopping import PROTOCOLS, make_clock
from rendezsim.metrics import ctm, ptm
from rendezsim.pr_activity import ChannelOccupancy, PrParams
from rendezsim.topology import _build_topology, assign_channels


def reference_resolve(attempts, occupancy, half_slot_index):
    """Group every attempt by channel; ask PR about each attempted channel."""
    groups = {}
    for node, ch in attempts.items():
        groups.setdefault(ch, []).append(node)
    if not occupancy.params.enabled:
        return {ch: nodes for ch, nodes in groups.items() if len(nodes) >= 2}
    busy = {ch: occupancy.busy_during(ch, half_slot_index) for ch in groups}
    return {ch: nodes for ch, nodes in groups.items() if not busy[ch] and len(nodes) >= 2}


def reference_pairs(group, neighbour_sets):
    """Pairs of one co-channel group whose ends hear no other group member."""
    members = set(group)
    degree = {i: len(neighbour_sets[i] & members) for i in group}
    return [(i, j) for i, j in combinations(group, 2)
            if degree[i] == 1 and degree[j] == 1 and j in neighbour_sets[i]]


def reference_run_once(cfg, topo=None, chans=None, trace=None):
    """The per-half-slot simulation loop: select, attempts, group, PR, pairs."""
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
    occupancy = ChannelOccupancy(cfg.pr, cfg.pool_size, occ_seed)
    clock_rng = random.Random(clock_seed)
    pool = list(range(1, cfg.pool_size + 1))
    selects = [make_clock(cfg.protocol, chans[i], random.Random(clock_rng.getrandbits(63)),
                          pool=pool).select
               for i in range(n)]
    usable = [frozenset(chans[i]) for i in range(n)]
    neighbour_sets = topo.dnl_star
    in_range = neighbour_sets if cfg.validate_coords else [frozenset()] * n
    states = [proto.NodeState(i, in_range[i]) for i in range(n)]
    t_n1, t_full, ptm_values = [None] * n, [None] * n, [None] * n
    run_to_full = cfg.termination == proto.RUN_TO_FULL
    pending = set(range(n))

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
                if trace is not None:
                    trace.write(f"{slot} {half} {i} - terminate dnl={sorted(st.dnl)}\n")

    slot = 0
    half_index = 0
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
            attempts = {i: c for i, (c, ok) in enumerate(zip(selections, usable)) if c in ok}
            groups = reference_resolve(attempts, occupancy, half_index)
            touched = set()
            for ch in sorted(groups):
                for i, j in reference_pairs(groups[ch], neighbour_sets):
                    proto.process_handshake(states[i], states[j])
                    touched.add(i)
                    touched.add(j)
                    if trace is not None:
                        trace.write(f"{slot} {half} {i} {ch} handshake peer={j}\n")
            tnow = (half_index + 1) * 0.5
            for i in sorted(touched):
                update_marks(i, tnow, slot, half)
            half_index += 1
        slot += 1

    return RunRecord(cfg=cfg, slots_used=slot,
                     t_n1=t_n1, t_full=t_full, ptm=ptm_values, ctm=ctm(ptm_values),
                     final_dnl=[frozenset(st.dnl) for st in states])


def outcome(run, cfg):
    """(record or the IncompleteRun message, full trace text) of one run."""
    buf = io.StringIO()
    try:
        result = run(cfg, trace=buf)
    except IncompleteRun as exc:
        result = f"IncompleteRun: {exc}"
    return result, buf.getvalue()


# caps: small pools finish well inside them; at C=300 the usable sets hold
# about 150 channels and most runs hit the cap, some only at N=2
CAPS = {3: 400, 10: 400, 300: 150}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_engine_matches_the_per_half_slot_loop(protocol):
    capped = finished = 0
    for termination in proto.TERMINATION_MODES:
        for pr in (PrParams.off(), PrParams.high()):
            for n_nodes in (2, 3, 10):
                for pool_size, cap in CAPS.items():
                    for seed in range(2):
                        cfg = RunConfig(protocol=protocol, termination=termination,
                                        n_nodes=n_nodes, pool_size=pool_size,
                                        similarity=2, pr=pr, max_slots=cap,
                                        seed=1000 * n_nodes + 7 * pool_size + seed)
                        expected = outcome(reference_run_once, cfg)
                        assert outcome(run_once, cfg) == expected, cfg
                        # the untraced path takes the same decisions
                        assert outcome(lambda c, trace: run_once(c), cfg)[0] == expected[0]
                        if isinstance(expected[0], str):
                            capped += 1
                        else:
                            finished += 1
    assert capped > 0 and finished > 0


def test_engine_matches_on_a_supplied_deployment():
    # a three-node chain on the whole pool, and a pool past 255 labels with
    # channel sets that use labels above 255
    topo = _build_topology([(0.0, 0.0), (90.0, 0.0), (180.0, 0.0)], 100.0)
    for protocol in PROTOCOLS:
        for chans, pool_size in ((((1, 2, 3),) * 3, 3),
                                 (((260, 300, 7), (300, 7), (7, 260)), 300)):
            for seed in range(3):
                cfg = RunConfig(protocol=protocol, termination="controlled",
                                n_nodes=3, pool_size=pool_size, similarity=1,
                                pr=PrParams.high(), max_slots=3000, seed=seed)
                expected = outcome(lambda c, trace: reference_run_once(
                    c, topo=topo, chans=chans, trace=trace), cfg)
                assert outcome(lambda c, trace: run_once(
                    c, topo=topo, chans=chans, trace=trace), cfg) == expected
