"""ON/OFF primary-radio occupancy model tests against closed-form targets."""

import math
import random

import pytest

from rendezsim.pr_activity import MAX_RATE, ChannelOccupancy, PrParams


def test_disabled_process_is_never_busy():
    occ = ChannelOccupancy(PrParams.off(), 10, rng_seed=0)
    for half in range(200):
        for ch in range(1, 11):
            assert not occ.is_busy(ch, half)


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
    # sample on a fine grid (0.05 slots) so short OFF spells are not missed
    params = PrParams.high()
    occ = ChannelOccupancy(params, 1, rng_seed=7)
    dt = 0.05
    states = [occ.is_busy(1, h * dt * 2) for h in range(2_000_000)]
    on_spans, off_spans = [], []
    run_len = 1
    for prev, cur in zip(states, states[1:]):
        if cur == prev:
            run_len += 1
        else:
            (on_spans if prev else off_spans).append(run_len * dt)
            run_len = 1
    mean_on = sum(on_spans) / len(on_spans)
    mean_off = sum(off_spans) / len(off_spans)
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


def test_busy_during_off_process_is_never_busy():
    occ = ChannelOccupancy(PrParams.off(), 3, rng_seed=0)
    assert not any(occ.busy_during(2, h) for h in range(100))


def reference_busy_during(occ, channel, half_slot_index):
    """The former busy_during: an is_busy advance, then a peek."""
    idx = channel - 1
    t = half_slot_index * 0.5
    assert t >= occ._last_query[idx]
    occ._last_query[idx] = t
    while occ._next[idx] <= t:
        occ._on[idx] = not occ._on[idx]
        rate = occ.params.lambda_y if occ._on[idx] else occ.params.lambda_x
        occ._next[idx] += occ._draws[idx](rate)
    if occ._on[idx]:
        return True
    return occ._next[idx] <= (half_slot_index + 1) * 0.5


def test_fused_busy_during_matches_is_busy_then_peek():
    # a random forward query sequence over several channels, with repeats at
    # one boundary, under high PR: answers and every channel's stream must
    # agree
    pool = 7
    for seed in range(5):
        fused = ChannelOccupancy(PrParams.high(), pool, rng_seed=seed)
        reference = ChannelOccupancy(PrParams.high(), pool, rng_seed=seed)
        picks = random.Random(seed)
        h = 0
        for _ in range(4000):
            h += picks.choice((0, 0, 1, 1, 2, 5))
            ch = picks.randint(1, pool)
            assert fused.busy_during(ch, h) == reference_busy_during(reference, ch, h)
        assert ([draw.__self__.getstate() for draw in fused._draws]
                == [draw.__self__.getstate() for draw in reference._draws])


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
    off = ChannelOccupancy(PrParams.off(), 3, rng_seed=1)
    with pytest.raises(ValueError, match="outside pool"):
        off.busy_during(4, 0)
