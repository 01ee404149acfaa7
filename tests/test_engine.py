"""Simulation-loop tests: meeting pairs, collisions, PR deferral, golden runs, determinism."""

import io
import random
from collections import Counter
from itertools import combinations, repeat

import pytest

from rendezsim import engine, pr_activity
from rendezsim.engine import (
    IncompleteRun,
    RunConfig,
    default_area_side,
    handshake_pairs,
    resolve_half_slot,
    run_once,
)
from rendezsim.cli import main
from rendezsim.hopping import PROTOCOLS, DualModularClock, ModularClock, RandomClock
from rendezsim.pr_activity import PrParams, idle_channels
from rendezsim.protocol import RUN_TO_FULL, TERMINATION_MODES
from rendezsim.topology import _build_topology, assign_channels, deploy


def make_cfg(**overrides):
    base = dict(protocol="mrdmca", termination="controlled", n_nodes=3,
                pool_size=10, similarity=2, pr=PrParams.off(), seed=1)
    base.update(overrides)
    return RunConfig(**base)


def chain_topology(spacing=90.0, n=3, r=100.0):
    return _build_topology([(i * spacing, 0.0) for i in range(n)], r)


def full_mesh_channels(n, pool=10):
    return tuple(tuple(range(1, pool + 1)) for _ in range(n))


# --- half-slot resolution -------------------------------------------------
# a half-slot's contacts are its meeting pairs: (channel, i, j), i < j, for
# every in-range pair sitting on a channel both can use

def test_pr_busy_channel_defers_all_attempts(monkeypatch):
    # with every channel busy in every half-slot, two nodes on one shared
    # channel meet all the time and never handshake
    monkeypatch.setattr(engine, "idle_channels", lambda *args: repeat([]))
    buf = io.StringIO()
    with pytest.raises(IncompleteRun):
        run_once(make_cfg(n_nodes=2, pr=PrParams.high(), max_slots=50),
                 topo=chain_topology(n=2), chans=((4,), (4,)), trace=buf)
    assert "handshake" not in buf.getvalue()


def test_meeting_pairs_on_idle_channels_handshake():
    assert resolve_half_slot([(4, 0, 1), (7, 2, 3)]) == [(4, 0, 1), (7, 2, 3)]


def test_mixed_busy_and_idle_channels(monkeypatch):
    # only channel 4 is ever idle: the two nodes meet on all ten channels,
    # and handshake on channel 4 alone
    monkeypatch.setattr(engine, "idle_channels", lambda *args: repeat([4]))
    buf = io.StringIO()
    run_once(make_cfg(n_nodes=2, pr=PrParams.high(), seed=3),
             topo=chain_topology(n=2), chans=full_mesh_channels(2), trace=buf)
    events = [line.split() for line in buf.getvalue().splitlines()]
    assert {int(e[3]) for e in events if e[4] == "select"} == set(range(1, 11))
    handshakes = [int(e[3]) for e in events if e[4] == "handshake"]
    assert handshakes and set(handshakes) == {4}


def test_pairs_come_back_in_channel_then_node_order():
    meets = [(9, 1, 8), (3, 5, 6), (9, 0, 7), (3, 2, 4), (1, 3, 9)]
    assert resolve_half_slot(meets) == sorted(meets)


def test_handshakes_are_the_cleared_meets_on_idle_channels():
    # 0-1 and 1-2 collide at node 1 on channel 3; the disjoint pairs on 7 and
    # 9 clear. resolve_half_slot asks no PR: run_once hands it only the
    # meets on idle channels, and a collision never crosses channels
    meets = [(3, 0, 1), (3, 1, 2), (7, 3, 4), (9, 5, 6), (7, 7, 8)]
    assert resolve_half_slot(meets) == [(7, 3, 4), (7, 7, 8), (9, 5, 6)]
    # in a run with PR on, the handshakes are exactly the meeting pairs that
    # no third co-channel neighbour collides with, on a channel that
    # idle_channels, given the run's PR seed, calls idle for the whole half-slot
    n = 10
    topo = deploy(n, (300.0, 300.0), 100.0, 5)
    chans = assign_channels(n, 10, 2, 6)
    for protocol in ("rcs", "emca", "mrdmca"):
        cfg = make_cfg(protocol=protocol, n_nodes=n, pr=PrParams.high(), seed=8)
        buf = io.StringIO()
        run_once(cfg, topo=topo, chans=chans, trace=buf)
        selected, handshakes = {}, set()
        for line in buf.getvalue().splitlines():
            slot, half, node, channel, event, detail = line.split(maxsplit=5)
            h = 2 * int(slot) + int(half)
            if event == "select":
                selected[h, int(node)] = int(channel)
            elif event == "handshake":
                handshakes.add((h, int(channel), int(node), int(detail.removeprefix("peer="))))

        def co_channel(h, i):
            c = selected[h, i]
            return {j for j in topo.dnl_star[i] if c in chans[i]
                    and selected[h, j] == c and c in chans[j]}

        cleared = {(h, selected[h, i], i, j) for (h, i) in selected for j in co_channel(h, i)
                   if i < j and co_channel(h, i) == {j} and co_channel(h, j) == {i}}
        master = random.Random(cfg.seed)  # as run_once derives its seeds
        _topo_seed, _chan_seed, occ_seed = (master.getrandbits(63) for _ in range(3))
        half_slots = range(max(h for h, _ in selected) + 1)
        idle = {(h, c) for h, cs in zip(half_slots, idle_channels(cfg.pr, cfg.pool_size, occ_seed))
                for c in cs}
        assert handshakes == {m for m in cleared if m[:2] in idle}
        assert handshakes and handshakes < cleared  # PR defers some cleared meets


def test_disabled_pr_is_never_asked(monkeypatch):
    def never(*args):
        raise AssertionError("PR asked with PR off")

    monkeypatch.setattr(engine, "idle_channels", never)
    monkeypatch.setattr(pr_activity, "_off_spells", never)  # every PR draw starts here
    record = run_once(make_cfg(n_nodes=2), topo=chain_topology(n=2),
                      chans=full_mesh_channels(2))
    assert None not in record.t_full


def test_pair_group_handshakes_when_in_range():
    assert handshake_pairs([(4, 0, 1)]) == [(4, 0, 1)]


def test_pair_group_out_of_range_does_not_handshake():
    # the ends of a 180 m chain share channels often but are never in range,
    # so they never form a meeting pair
    buf = io.StringIO()
    run_once(make_cfg(seed=11), topo=chain_topology(), chans=full_mesh_channels(3),
             trace=buf)
    selected = {}
    for line in buf.getvalue().splitlines():
        slot, half, node, channel, event, detail = line.split(maxsplit=5)
        if event == "select":
            selected.setdefault((slot, half), {})[int(node)] = channel
        assert (event, node, detail) != ("handshake", "0", "peer=2")
    assert any(s[0] == s[2] for s in selected.values())


def test_three_node_group_collides_at_the_shared_neighbour():
    # 0-1 and 1-2 in range, 0-2 not: both endpoints transmit to 1 in the same
    # half-slot, so neither three-way handshake completes
    assert handshake_pairs([(4, 0, 1), (4, 1, 2)]) == []


def test_disjoint_pairs_inside_a_group_both_handshake():
    # 0-1 and 2-3 are separate conversations on the same channel
    assert handshake_pairs([(4, 0, 1), (4, 2, 3)]) == [(4, 0, 1), (4, 2, 3)]


def test_crowded_clique_blocks_everyone():
    assert handshake_pairs([(4, 0, 1), (4, 0, 2), (4, 1, 2)]) == []


# --- whole runs -------------------------------------------------------------

def test_two_node_run_terminates_with_full_tables():
    cfg = make_cfg(n_nodes=2, seed=3)
    rec = run_once(cfg)
    assert rec.ctm == 100.0
    assert rec.final_dnl == [frozenset({1}), frozenset({0})]
    # a two-node network has no indirect information: both marks coincide
    assert rec.t_n1 == rec.t_full == rec.t_term
    assert all(t % 0.5 == 0 for t in rec.t_term)


def test_three_node_chain_golden_run():
    topo = chain_topology()
    cfg = make_cfg(seed=11)
    rec = run_once(cfg, topo=topo, chans=full_mesh_channels(3))
    assert rec.ctm == 100.0
    # end nodes verify only the middle node and know the far end indirectly
    assert rec.final_dnl[0] == frozenset({1})
    assert rec.final_dnl[2] == frozenset({1})
    assert rec.final_dnl[1] == frozenset({0, 2})


def test_run_records_are_deterministic():
    cfg = make_cfg(n_nodes=5, seed=42)
    assert run_once(cfg) == run_once(cfg)


def test_topo_and_chan_seeds_pin_the_inputs():
    cfg_a = make_cfg(n_nodes=5, seed=1, topo_seed=100, chan_seed=200)
    cfg_b = make_cfg(n_nodes=5, seed=2, topo_seed=100, chan_seed=200)
    rec_a, rec_b = run_once(cfg_a), run_once(cfg_b)
    # same ground truth, different clock/PR randomness
    assert rec_a.cfg == rec_b.cfg._replace(seed=1)
    assert rec_a.cfg.seed != rec_b.cfg.seed


def test_controlled_termination_tables_match_ground_truth():
    for seed in range(10):
        cfg = make_cfg(n_nodes=6, seed=seed)
        rec = run_once(cfg)
        assert rec.ctm == 100.0
        assert rec.t_term == rec.t_full


def test_baseline_termination_can_stop_short():
    # statistical witness: across seeds, some baseline runs freeze an
    # incomplete DNL (that is the premature-termination phenomenon)
    short = 0
    fixed_later = 0
    for seed in range(40):
        cfg = make_cfg(protocol="mdmca", termination="baseline",
                       n_nodes=10, seed=seed)
        rec = run_once(cfg)
        # every stopping policy stops at the first N-1 mark
        assert rec.t_term == rec.t_n1
        if rec.ctm < 100.0:
            short += 1
        # a node stopped short keeps serving, so its live tables may become
        # right after its stop mark (a later t_full) or not by the run's end
        for p, n1, full in zip(rec.ptm, rec.t_n1, rec.t_full):
            if p == 100.0:
                assert full == n1
            else:
                assert full is None or full > n1
                fixed_later += full is not None
    assert short > 0 and fixed_later > 0


def test_run_to_full_leaves_no_policy_mark():
    cfg = make_cfg(protocol="mdmca", termination="run_to_full",
                   n_nodes=4, seed=9)
    rec = run_once(cfg)
    summary = rec.summary()
    assert summary.policy is None
    assert summary.full is not None
    assert summary.n1 is not None
    assert rec.ctm == 100.0  # by definition of running to full discovery


@pytest.mark.parametrize("termination", TERMINATION_MODES)
def test_trace_writes_one_terminate_line_per_node_at_its_stop_mark(termination):
    cfg = make_cfg(protocol="mdmca", termination=termination, n_nodes=4, seed=9)
    buf = io.StringIO()
    rec = run_once(cfg, trace=buf)
    stops = rec.t_full if termination == "run_to_full" else rec.t_n1
    lines = [line.split(maxsplit=5) for line in buf.getvalue().splitlines()]
    # a mark set in (slot, half) reads the end of that half-slot
    stopped = {int(node): (2 * int(slot) + int(half) + 1) / 2
               for slot, half, node, _, event, _ in lines if event == "terminate"}
    assert sum(line[4] == "terminate" for line in lines) == cfg.n_nodes
    assert stopped == dict(enumerate(stops))


def test_stopped_nodes_keep_handshaking(tmp_path):
    # a stop mark freezes a node's reported topology, not its radio: in this
    # traced run node 7 stops at slot 97 and handshakes with node 5 at 123
    trace = tmp_path / "trace.txt"
    assert main(["run", "--protocol", "mdmca", "--termination", "baseline",
                 "--nodes", "10", "--channels", "10", "--similarity", "2",
                 "--pr", "high", "--seed", "3", "--runs", "1",
                 "--trace", str(trace), "--out", str(tmp_path / "agg.csv")]) == 0
    stopped = set()
    after_stop = 0
    for line in trace.read_text().splitlines():
        _, _, node, _, event, detail = line.split(maxsplit=5)
        if event == "terminate":
            stopped.add(int(node))
        elif event == "handshake":
            peer = int(detail.removeprefix("peer="))
            after_stop += bool({int(node), peer} & stopped)
    assert after_stop > 0


def test_a_run_does_not_depend_on_its_termination_policy():
    # nothing in a half-slot reads a node's tables, so a seed's handshakes,
    # and with them both marks, are the same under every policy and with or
    # without validation: a policy only picks the mark that stops a node
    def run(protocol, termination, **cell):
        try:
            return run_once(make_cfg(protocol=protocol, termination=termination,
                                     max_slots=5000, **cell))
        except IncompleteRun:
            return None

    capped = 0
    for n_nodes in (3, 5, 10):
        for pr in (PrParams.off(), PrParams.high()):
            for seed in range(25):
                cell = dict(n_nodes=n_nodes, pr=pr, seed=seed)
                full = run("mdmca", "run_to_full", **cell)
                controlled = [run("mdmca", "controlled", **cell), run("mrdmca", "controlled", **cell)]
                if full is None:
                    assert controlled == [None, None]
                    capped += 1
                    continue
                for rec in controlled:
                    assert rec.t_n1 == rec.t_full == full.t_full
                    assert rec.final_dnl == full.final_dnl
                    assert rec.slots_used == full.slots_used
                baseline = run("mdmca", "baseline", **cell)
                assert baseline.t_n1 == full.t_n1
                assert all(t in (None, f) for t, f in zip(baseline.t_full, full.t_full))
    assert capped < 5  # starved deployments cap under every policy alike


def test_time_marks_are_ordered():
    for seed in range(10):
        cfg = make_cfg(protocol="mdmca", termination="run_to_full",
                       n_nodes=6, seed=seed)
        rec = run_once(cfg)
        for a, b in zip(rec.t_n1, rec.t_full):
            assert a <= b


def test_safety_cap_raises_incomplete_run():
    cfg = make_cfg(n_nodes=6, seed=0, max_slots=1)
    with pytest.raises(IncompleteRun):
        run_once(cfg)


@pytest.mark.parametrize("pr", ["off", "high"])
@pytest.mark.parametrize("termination", TERMINATION_MODES)
def test_a_run_needs_exactly_the_slots_it_used(pr, termination):
    # a run whose last stop mark falls in slot s (counting from 1) gives the
    # same record under a cap of s slots, and cannot finish under s - 1
    cfg = make_cfg(protocol="emca", termination=termination, n_nodes=5,
                   pr=PrParams.from_name(pr), seed=4)
    record = run_once(cfg)
    s = record.slots_used
    stops = record.t_full if termination == RUN_TO_FULL else record.t_n1
    assert s - 1 < max(stops) <= s and s > 1
    capped = cfg._replace(max_slots=s)
    assert run_once(capped) == record._replace(cfg=capped)
    with pytest.raises(IncompleteRun):
        run_once(cfg._replace(max_slots=s - 1))


def _count_loop_calls(monkeypatch):
    """Counters on every clock class's select and on resolve_half_slot, wrapped as
    perfbench's tracer wraps them: a Python function set on each class and module."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (RandomClock, ModularClock, DualModularClock):
        monkeypatch.setattr(cls, "select", counting("select", cls.select))
    monkeypatch.setattr(engine, "resolve_half_slot",
                        counting("resolve", engine.resolve_half_slot))
    return counts


@pytest.mark.parametrize("pr", ["off", "high"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_each_half_slot_makes_n_selects_and_one_resolve(monkeypatch, protocol, pr):
    # perfbench's traced gate requires these counts: select calls equal to
    # N x half-slots, and resolve_half_slot calls equal to 2 x sim_slots
    counts = _count_loop_calls(monkeypatch)
    cfg = make_cfg(protocol=protocol, n_nodes=6, pool_size=8, similarity=3,
                   pr=PrParams.from_name(pr), seed=5)
    half_slots = 2 * run_once(cfg).slots_used
    assert counts == {"select": 6 * half_slots, "resolve": half_slots}


def test_a_capped_run_counts_every_half_slot_of_its_cap(monkeypatch):
    counts = _count_loop_calls(monkeypatch)
    with pytest.raises(IncompleteRun):
        run_once(make_cfg(n_nodes=6, seed=0, max_slots=3, pr=PrParams.high()))
    assert counts == {"select": 6 * 2 * 3, "resolve": 2 * 3}


def test_handshake_pairs_match_the_brute_force_definition():
    # a pair clears iff neither of its ends is in another meeting pair, on
    # random half-slots with crowds of three or more on a channel and chains
    # of pairs whose outer ends are out of range
    rng = random.Random(25)
    crowds = chains = 0
    for _ in range(3000):
        n = rng.randint(2, 9)
        channel = [rng.randint(1, 4) for _ in range(n)]
        meets = [(channel[i], i, j) for i, j in combinations(range(n), 2)
                 if channel[i] == channel[j] and rng.random() < 0.7]
        meets.sort()
        cleared = [p for p in meets
                   if not any(q != p and {p[1], p[2]} & {q[1], q[2]} for q in meets)]
        got = handshake_pairs(meets)
        assert got == cleared, meets
        if cleared == meets:
            assert got is meets
        degree = Counter(end for _, i, j in meets for end in (i, j))
        crowds += max(degree.values(), default=0) >= 2 and max(Counter(channel).values()) >= 3
        chains += any((ch, i, k) not in meets for (ch, i, j), (_, j2, k) in combinations(meets, 2)
                      if j == j2)
    assert crowds > 100 and chains > 100


def test_trace_records_selections_and_handshakes():
    buf = io.StringIO()
    cfg = make_cfg(n_nodes=2, seed=3)
    run_once(cfg, trace=buf)
    lines = buf.getvalue().splitlines()
    kinds = {line.split()[4] for line in lines}
    assert {"select", "handshake", "terminate"} <= kinds


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(protocol="bogus")
    with pytest.raises(ValueError):
        make_cfg(termination="bogus")
    for cap in (0, -5):
        with pytest.raises(ValueError, match=f"^max_slots must be positive, got {cap}$"):
            make_cfg(max_slots=cap)
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match=f"^need at least 2 nodes, got {n}$"):
            make_cfg(n_nodes=n)
    for m in (0, -1, 11):
        with pytest.raises(ValueError, match=rf"^similarity must be in \[1, 10\], got {m}$"):
            make_cfg(similarity=m)
    # a bad channel count is named, not blamed on a valid similarity
    for c in (0, -4):
        with pytest.raises(ValueError, match=f"^need at least 1 channel, got {c}$"):
            make_cfg(pool_size=c, similarity=1)


def test_validation_flag_follows_protocol_and_policy():
    assert make_cfg(protocol="mrdmca", termination="baseline").validate_coords
    assert make_cfg(protocol="rcs", termination="controlled").validate_coords
    assert not make_cfg(protocol="rcs", termination="baseline").validate_coords
    assert not make_cfg(protocol="mdmca", termination="run_to_full").validate_coords


def test_default_area_grows_with_network_size():
    sides = [default_area_side(n) for n in (2, 3, 5, 10, 20, 50)]
    assert sides == sorted(sides)
