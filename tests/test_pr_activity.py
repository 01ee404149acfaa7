"""ON/OFF primary-radio occupancy model tests against closed-form targets."""

import math
import random
from bisect import bisect_right
from itertools import islice

import pytest

from rendezsim.pr_activity import (
    BLOCK,
    HIGH_MEAN_OFF,
    HIGH_MEAN_ON,
    MAX_RATE,
    ChannelOccupancy,
    PrParams,
    _off_spells,
    idle_channels,
)


def test_an_occupancy_needs_pr_on():
    # with PR off every channel is always idle and the engine builds no
    # occupancy, so there is no PR-off process to query or schedule
    with pytest.raises(ValueError, match="PR on"):
        ChannelOccupancy(PrParams.off(), 10, rng_seed=0)
    with pytest.raises(ValueError, match="PR on"):
        idle_channels(PrParams.off(), 10, rng_seed=0)


def test_equal_rates_give_half_utilization():
    assert PrParams(lambda_x=1.0, lambda_y=1.0).utilization == 0.5


def test_high_preset_targets_85_percent():
    p = PrParams.high()
    assert abs(p.utilization - 0.85) < 1e-12
    # mean ON 8.5 slots, mean OFF 1.5 slots
    assert abs(1.0 / p.lambda_y - 8.5) < 1e-12
    assert abs(1.0 / p.lambda_x - 1.5) < 1e-12


def test_from_name_roundtrip():
    assert PrParams.from_name("off") == PrParams.off()
    assert PrParams.from_name("high") == PrParams.high()
    custom = PrParams.from_name("0.5:2")
    assert custom.lambda_x == 0.5 and custom.lambda_y == 2.0
    assert PrParams.from_name(custom.name) == custom
    with pytest.raises(ValueError):
        PrParams.from_name("medium")


def test_every_level_comes_back_from_its_name():
    # a per-run CSV records the name, and audit replays the level it reads
    assert [p.name for p in (PrParams.off(), PrParams.high(), PrParams(3.5, 2.25))] == [
        "off", "high", "3.5:2.25"]
    rng = random.Random(5)
    levels = [PrParams(3.3333337, 2.2222227), PrParams(1 / 3, 1000.0),
              PrParams(math.nextafter(1 / HIGH_MEAN_OFF, 1.0), 1 / HIGH_MEAN_ON)]
    levels += [PrParams(rng.uniform(1e-6, 10.0), rng.uniform(1e-6, MAX_RATE)) for _ in range(200)]
    for p in levels:
        assert PrParams.from_name(p.name) == p, p


def test_invalid_rates_rejected():
    with pytest.raises(ValueError):
        PrParams(lambda_x=0.0, lambda_y=1.0)
    # nan passes a `<= 0` test and inf gives a nan utilization
    for lx, ly in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            PrParams(lambda_x=lx, lambda_y=ly)
    with pytest.raises(ValueError, match="finite"):
        PrParams.from_name("nan:1")
    for name in ("1:2:3", ":", "a:b", "2"):
        with pytest.raises(ValueError, match="lambda_x:lambda_y"):
            PrParams.from_name(name)
    # past MAX_RATE a query steps through ever more sojourns: at 1e308 the
    # first one is sub-normal and the run never ends
    for lx, ly in ((1e308, 1e308), (MAX_RATE * 1.001, 1.0), (1.0, 1e4)):
        with pytest.raises(ValueError, match="at most 1000 per slot"):
            PrParams(lambda_x=lx, lambda_y=ly)
    with pytest.raises(ValueError, match="at most 1000 per slot"):
        PrParams.from_name("1e308:1e308")
    assert PrParams(MAX_RATE, MAX_RATE).utilization == 0.5


def test_empirical_busy_fraction_matches_stationary_value():
    # long-run occupancy oracle over 10^5 half-slots on a single channel
    for params in (PrParams.high(), PrParams(lambda_x=1.0, lambda_y=1.0)):
        occ = ChannelOccupancy(params, 1, rng_seed=42)
        busy = sum(occ.is_busy(1, h) for h in range(200_000))
        assert abs(busy / 200_000 - params.utilization) < 0.02


def test_empirical_sojourn_means_match_rates():
    # exact spell lengths: an OFF spell's own, and the ON sojourn between two
    params = PrParams.high()
    spells = list(islice(_off_spells(random.Random("7|1").random, params), 20_000))
    mean_off = sum(end - start for start, end in spells) / len(spells)
    mean_on = sum(b[0] - a[1] for a, b in zip(spells, spells[1:])) / (len(spells) - 1)
    assert abs(mean_on - 8.5) / 8.5 < 0.05
    assert abs(mean_off - 1.5) / 1.5 < 0.05


def test_queries_must_move_forward_per_channel():
    occ = ChannelOccupancy(PrParams.high(), 2, rng_seed=1)
    occ.is_busy(1, 10)
    with pytest.raises(ValueError):
        occ.is_busy(1, 9)
    # other channels have independent clocks
    occ.is_busy(2, 3)


def test_channel_labels_validated():
    occ = ChannelOccupancy(PrParams.high(), 3, rng_seed=1)
    with pytest.raises(ValueError):
        occ.is_busy(0, 0)
    with pytest.raises(ValueError):
        occ.is_busy(4, 0)


def test_occupancy_deterministic_in_seed():
    a = ChannelOccupancy(PrParams.high(), 5, rng_seed=9)
    b = ChannelOccupancy(PrParams.high(), 5, rng_seed=9)
    seq_a = [a.is_busy(ch, h) for h in range(500) for ch in range(1, 6)]
    seq_b = [b.is_busy(ch, h) for h in range(500) for ch in range(1, 6)]
    assert seq_a == seq_b


def test_busy_during_implies_busy_at_start_is_subset():
    occ = ChannelOccupancy(PrParams.high(), 1, rng_seed=31)
    for h in range(5000):
        at_start = occ.is_busy(1, h)
        during = occ.busy_during(1, h)
        assert during or not at_start  # start-busy always counts as during-busy


def test_busy_during_is_stable_and_does_not_advance_the_process():
    occ = ChannelOccupancy(PrParams.high(), 1, rng_seed=7)
    for h in range(2000):
        first = occ.busy_during(1, h)
        assert occ.busy_during(1, h) == first  # pure peek, idempotent


def test_busy_during_fraction_matches_residual_free_time_law():
    # P(free for a whole half-slot) = P(OFF now) * P(residual OFF > 0.5)
    #                               = (1 - u) * exp(-lambda_x / 2)
    # by stationarity plus memorylessness of the exponential OFF sojourn.
    params = PrParams.high()
    occ = ChannelOccupancy(params, 1, rng_seed=123)
    n = 400_000
    free_whole = sum(not occ.busy_during(1, h) for h in range(n))
    expected = (1 - params.utilization) * math.exp(-params.lambda_x * 0.5)
    assert abs(free_whole / n - expected) < 0.005
    assert params.idle_prob == expected and PrParams.off().idle_prob == 1.0


def expovariate_transitions(params, seed, channel, count):
    """A channel's state at time 0 and its first transition times, drawn with
    CPython's Random.expovariate from the channel's stream."""
    rng = random.Random(f"{seed}|{channel}")
    on = rng.random() < params.utilization
    times, t, now_on = [], 0.0, on
    for _ in range(count):
        t += rng.expovariate(params.lambda_y if now_on else params.lambda_x)
        times.append(t)
        now_on = not now_on
    return on, times


@pytest.mark.parametrize("level", ["high", "0.5:0.5", "0.5:300"])
def test_transition_times_are_cpythons_expovariate_draws(level):
    # _off_spells writes Random.expovariate's formula out where it draws; an
    # interpreter whose expovariate draws otherwise fails here
    params = PrParams.from_name(level)
    seed = 31
    for c in (1, 2, 3):
        on, times = expovariate_transitions(params, seed, c, 801)
        edges = ([] if on else [0.0]) + times  # OFF spells start and end here
        expected = list(zip(edges[::2], edges[1::2]))[:400]
        spells = islice(_off_spells(random.Random(f"{seed}|{c}").random, params), 400)
        assert list(spells) == expected


def reference_busy_during(transitions, half_slot_index):
    """busy_during from a state at time 0 and a list of transition times: the
    state after the transitions up to the half-slot's start, or a transition
    before its end."""
    on, times = transitions
    t = half_slot_index * 0.5
    k = bisect_right(times, t)
    return on != (k % 2 == 1) or times[k] <= t + 0.5


def test_busy_during_and_is_busy_match_an_expovariate_transition_list():
    # a random forward query sequence over several channels, with repeats at
    # one boundary, under high PR
    pool = 7
    for seed in range(5):
        occ = ChannelOccupancy(PrParams.high(), pool, rng_seed=seed)
        transitions = {c: expovariate_transitions(PrParams.high(), seed, c, 2000)
                       for c in range(1, pool + 1)}
        picks = random.Random(seed)
        h = 0
        for _ in range(4000):
            h += picks.choice((0, 0, 1, 1, 2, 5))
            ch = picks.randint(1, pool)
            on, times = transitions[ch]
            assert occ.is_busy(ch, h) == (on != (bisect_right(times, h * 0.5) % 2 == 1))
            assert occ.busy_during(ch, h) == reference_busy_during(transitions[ch], h)


def test_a_channel_answers_the_same_whatever_else_is_asked():
    # every channel has its own stream, so channel c's answers depend only on
    # the times c is asked about: not on whether other channels are asked,
    # nor when, nor in what order
    pool = 6
    for seed in range(4):
        for c in (1, 4, pool):
            alone = ChannelOccupancy(PrParams.high(), pool, rng_seed=seed)
            crowded = ChannelOccupancy(PrParams.high(), pool, rng_seed=seed)
            others = [ch for ch in range(1, pool + 1) if ch != c]
            picks = random.Random(seed)
            h = 0
            for _ in range(3000):
                h += picks.choice((0, 1, 1, 3))
                asked = picks.sample(others, picks.randint(0, len(others)))
                cut = picks.randint(0, len(asked))
                for ch in asked[:cut]:
                    crowded.busy_during(ch, h)
                assert crowded.busy_during(c, h) == alone.busy_during(c, h)
                for ch in asked[cut:]:
                    crowded.is_busy(ch, h)
                assert crowded.is_busy(c, h) == alone.is_busy(c, h)


def test_busy_during_keeps_the_is_busy_guards():
    occ = ChannelOccupancy(PrParams.high(), 3, rng_seed=1)
    for channel in (0, 4):
        with pytest.raises(ValueError, match="outside pool"):
            occ.busy_during(channel, 0)
    occ.busy_during(2, 10)
    with pytest.raises(ValueError, match="backwards"):
        occ.busy_during(2, 9)


@pytest.mark.parametrize("level, pool", [("high", 6), ("high", 1), ("0.5:0.5", 4), ("200:300", 1),
                                         ("0.5:300", 2), ("0.02:0.02", 3), ("20:20", 3)])
def test_idle_channels_match_busy_during(level, pool):
    # the schedule walks each channel's OFF spells block by block, the
    # queries one half-slot at a time; 200:300 and 0.5:300 have spells far
    # shorter than a half-slot, OFF and ON ones respectively, 20:20 switches
    # about ten times a half-slot, and 0.02:0.02's spells, 50 slots on
    # average, outlast a block
    params = PrParams.from_name(level)
    lazy = ChannelOccupancy(params, pool, rng_seed=11)
    idle_seen = 0
    for h, idle in zip(range(20_000), idle_channels(params, pool, 11)):
        assert idle == [c for c in range(1, pool + 1) if not lazy.busy_during(c, h)], h
        idle_seen += len(idle)
    assert 0 < idle_seen or level == "200:300"


def test_idle_channels_is_a_pure_function_of_its_arguments():
    # two calls give the same stream, however far either has been read, and
    # so does a call after any queries on an occupancy of the same seed
    params, pool, seed = PrParams.high(), 3, 1
    first = idle_channels(params, pool, seed)
    head = list(islice(first, BLOCK + 5))
    occ = ChannelOccupancy(params, pool, seed)
    for h in (0, 3, BLOCK - 1, 3 * BLOCK):
        occ.busy_during(2, h)
        occ.is_busy(3, h)
    again = idle_channels(params, pool, seed)
    assert list(islice(again, BLOCK + 5)) == head
    assert list(islice(first, 2 * BLOCK)) == list(islice(again, 2 * BLOCK))
    assert list(islice(idle_channels(params, pool, seed), len(head))) == head
