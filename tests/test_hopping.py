"""Channel-selection clock tests, including exhaustive modular-arithmetic oracles."""

import gc
import math
import random
import weakref
from collections import Counter
from itertools import combinations

import pytest

from rendezsim.hopping import (
    PROTOCOLS,
    DualModularClock,
    ModularClock,
    RandomClock,
    _randbelow,
    make_clock,
    smallest_prime_geq,
    split_primality,
)


def half_slots(clock, n):
    """The clock's first n channels, one select per half-slot."""
    return [clock.select() for _ in range(n)]


def dual_clock_oracle(channels, j1, r1, j2, r2, steps):
    """Direct modular-arithmetic prediction of the dual clock's channel pairs.

    Replays the index recurrences j += r (mod |m_i|) with the prime subset
    used in the first half-slot, the non-prime subset in the second, the full
    set as fallback, and the step-one shift when both halves would coincide.
    Rate reseeds are outside the oracle's scope, so steps must stay within one
    reseed window (|m_i| slots). Returns the pairs and the final (j1, j2), so
    windows can be chained across reseeds.
    """
    mi = sorted(channels)
    mp, np_ = split_primality(mi)
    size = len(mi)
    out = []
    for _ in range(steps):
        j1 = (j1 + r1) % size
        c1 = mp[j1 % len(mp)] if mp else mi[j1]
        j2 = (j2 + r2) % size
        c2 = np_[j2 % len(np_)] if np_ else mi[j2]
        if c2 == c1:
            j2 = (j2 + 1) % size
            c2 = mi[j2]
        out.append((c1, c2))
    return out, j1, j2


def set_dual_state(clock, j1, r1, j2, r2):
    clock.j1, clock.r1, clock.j2, clock.r2 = j1, r1, j2, r2


def pairs(window):
    return list(zip(window[0::2], window[1::2]))


def test_split_primality_examples():
    assert split_primality(range(1, 11)) == ([2, 3, 5, 7], [1, 4, 6, 8, 9, 10])
    assert split_primality({4, 6, 8}) == ([], [4, 6, 8])
    assert split_primality({2}) == ([2], [])
    with pytest.raises(ValueError):
        split_primality([])


def test_smallest_prime_geq():
    assert smallest_prime_geq(4) == 5
    assert smallest_prime_geq(5) == 5
    assert smallest_prime_geq(1) == 2
    assert smallest_prime_geq(10) == 11


def test_first_half_prime_subset_arithmetic():
    # m_i = {1..10}: prime subset [2,3,5,7]; from j1=3 a rate of 2 lands on
    # index 5, i.e. channel [2,3,5,7][5 mod 4] = 3
    clock = DualModularClock(range(1, 11), random.Random(0))
    set_dual_state(clock, j1=3, r1=2, j2=0, r2=1)
    window = clock.window()
    assert window[0] == 3
    assert window[2] == 7  # index 7 -> [2,3,5,7][7 mod 4]
    # a window of |m_i| steps brings the index back to where it started
    assert clock.j1 == 3


def test_first_half_falls_back_to_full_set_without_primes():
    clock = DualModularClock({4, 6, 8}, random.Random(0))
    set_dual_state(clock, j1=2, r1=1, j2=0, r2=1)
    window = clock.window()
    assert window[0] == 4  # j1 wraps to 0; channel m_i[0]
    assert window[0::2] == [4, 6, 8]


def test_second_half_non_prime_subset_arithmetic():
    # non-prime subset of {1..10} is [1,4,6,8,9,10]; j2=0 with rate 3 lands
    # on index 3, i.e. channel 8
    clock = DualModularClock(range(1, 11), random.Random(0))
    set_dual_state(clock, j1=0, r1=1, j2=0, r2=3)
    assert clock.window()[1] == 8


def test_second_half_shifts_off_a_first_half_collision():
    # all-prime set: the second half falls back to the full set and must not
    # repeat the first half's channel; it steps one index further instead
    clock = DualModularClock({2, 3, 5}, random.Random(0))
    set_dual_state(clock, j1=0, r1=1, j2=0, r2=1)
    window = clock.window()
    c1, c2 = window[0], window[1]
    assert c1 == 3  # j1 -> 1
    assert c2 == 5  # j2 -> 1 collides with c1, shifted to index 2
    # the shift carries over: j2 stays one ahead of j1 for the whole window
    assert pairs(window) == [(3, 5), (5, 2), (2, 3)]


def test_halves_never_collide_when_both_subsets_exist():
    # prime and non-prime subsets are disjoint, so c2 != c1 must hold for
    # every channel set and every initial state; check exhaustively
    for size in range(2, 8):
        for chans in combinations(range(1, 13), size):
            mp, np_ = split_primality(chans)
            if not mp or not np_:
                continue
            for j1 in range(size):
                for r1 in range(1, size):
                    clock = DualModularClock(chans, random.Random(0))
                    set_dual_state(clock, j1=j1, r1=r1, j2=(j1 + 1) % size, r2=r1)
                    assert all(c1 != c2 for c1, c2 in pairs(clock.window()))


def test_dual_clock_matches_modular_oracle_within_a_window():
    rng = random.Random(99)
    for chans in (tuple(range(1, 11)), (2, 3, 5, 7, 11), (1, 4, 6, 8),
                  (2, 4, 5, 9, 10, 11, 12)):
        size = len(chans)
        for _ in range(20):
            j1, j2 = rng.randrange(size), rng.randrange(size)
            r1 = rng.randrange(1, size)
            r2 = rng.randrange(1, size)
            clock = DualModularClock(chans, random.Random(0))
            set_dual_state(clock, j1, r1, j2, r2)
            expected, _, _ = dual_clock_oracle(chans, j1, r1, j2, r2, size)
            window = clock.window()  # one reseed window
            assert len(window) == 2 * size
            assert pairs(window) == expected


def dual_clock_reseed_oracle(channels, seed, windows):
    """Channel pairs of a dual clock built on random.Random(seed), reseeds included.

    Replays the clock's draws from the same stream: j1, j2, r1, r2 at
    construction; then, at the end of every window of |m_i| slots, r1 and r2,
    plus j1 and j2 every RESEED_INDEX_EVERY windows or in every window when
    the set has fewer than three channels. A rate draw is 1 for a set of one.
    """
    rng = random.Random(seed)
    size = len(channels)

    def rate():
        return rng.randrange(1, size) if size > 1 else 1

    j1 = rng.randrange(size)
    j2 = rng.randrange(size)
    r1, r2 = rate(), rate()
    out = []
    for window in range(1, windows + 1):
        pairs, j1, j2 = dual_clock_oracle(channels, j1, r1, j2, r2, size)
        out += pairs
        r1, r2 = rate(), rate()
        if size < 3 or window % DualModularClock.RESEED_INDEX_EVERY == 0:
            j1 = rng.randrange(size)
            j2 = rng.randrange(size)
    return out


def test_dual_clock_matches_oracle_across_reseeds():
    # select alone drives the clock: its windows count themselves and reseed
    # at each window end, so 40 windows cross one index redraw (window 30)
    # and, for sets of fewer than three channels, an index redraw every window
    windows = 40
    for chans in ((3, 5), (2, 3, 5), tuple(range(1, 11)), (1, 4, 6, 8),
                  (2, 4, 5, 9, 10, 11, 12), (7,), (4,), (2, 3, 5, 7, 11, 13)):
        for seed in range(5):
            clock = DualModularClock(chans, random.Random(seed))
            got = pairs(half_slots(clock, 2 * windows * len(chans)))
            assert got == dual_clock_reseed_oracle(chans, seed, windows)


def test_rates_and_indices_stay_in_range_across_reseeds():
    clock = DualModularClock(range(1, 11), random.Random(5))
    for _ in range(300):
        clock.window()
        assert 0 <= clock.j1 < 10 and 0 <= clock.j2 < 10
        assert 1 <= clock.r1 < 10 and 1 <= clock.r2 < 10


def test_reseed_breaks_index_lockstep_between_clocks():
    # The reseed window spans a multiple of the index modulus, so if the
    # indices survived a reseed the offset between two clocks would be frozen
    # at every window boundary and pairs whose only common channel sits at an
    # unreachable offset could never meet. With indices redrawn each window,
    # any two clocks sharing a channel must select it simultaneously soon.
    a = DualModularClock((3, 4, 5), random.Random(11))
    b = DualModularClock((1, 2, 5), random.Random(12))
    assert any(x == y for x, y in zip(half_slots(a, 800), half_slots(b, 800)))


def test_two_channel_set_forces_unit_rates():
    clock = DualModularClock({3, 5}, random.Random(1))
    for _ in range(50):
        clock.window()
        assert clock.r1 == 1 and clock.r2 == 1


def test_dual_clock_first_half_cycles_with_modular_period():
    # with a fixed rate the index sequence has period size/gcd(r, size)
    chans = tuple(range(1, 11))
    clock = DualModularClock(chans, random.Random(0))
    set_dual_state(clock, j1=0, r1=4, j2=0, r2=1)
    period = 10 // math.gcd(4, 10)
    seq = clock.window()[0::2]  # the first halves of one window
    assert seq[:period] == seq[period:2 * period]
    assert len(set(seq[:period])) > 1


def test_random_searcher_covers_the_whole_pool_uniformly():
    pool = range(1, 11)
    clock = RandomClock(pool, random.Random(3))
    counts = Counter(half_slots(clock, 100_000))
    assert set(counts) == set(pool)
    for c in pool:
        assert abs(counts[c] / 100_000 - 0.1) < 0.01


def test_random_searcher_single_channel():
    clock = RandomClock([4], random.Random(0))
    assert half_slots(clock, 200) == [4] * 200


def test_random_searcher_rejects_an_empty_pool():
    with pytest.raises(ValueError):
        RandomClock([], random.Random(0))


def test_modular_clock_prime_modulus_and_overflow():
    clock = ModularClock([1, 2, 3, 4], random.Random(0))
    assert clock.p == 5
    # force the overflow index: j=4 exceeds the channel list and triggers a
    # uniform random pick from the set, drawn in step order
    clock.j, clock.r = 3, 1
    rng = random.Random(0)
    ModularClock([1, 2, 3, 4], rng)  # the same construction draws
    window = clock.window()
    assert window[0] == 1 + rng.randrange(4)
    assert window[1:5] == [1, 2, 3, 4]  # indices 0..3 after the overflow


def modular_clock_oracle(channels, seed, steps):
    """Channels of a modular clock built on random.Random(seed), step by step.

    Replays the clock's draws from the same stream: j, then r, at
    construction; at every step j += r (mod p), and after 2p steps a fresh r
    and then a fresh j replace them before the channel is read; an index past
    the channel list picks uniformly from it.
    """
    rng = random.Random(seed)
    mi = sorted(channels)
    p = smallest_prime_geq(len(mi))
    j = rng.randrange(p)
    r = rng.randrange(1, p)
    out = []
    for step in range(1, steps + 1):
        j = (j + r) % p
        if step % (2 * p) == 0:
            r = rng.randrange(1, p)
            j = rng.randrange(p)
        out.append(mi[j] if j < len(mi) else mi[rng.randrange(len(mi))])
    return out


def test_modular_clock_resamples_index_and_rate_each_window():
    # after 2p steps both r and j are redrawn; a rate-only resample would
    # freeze the offset between two same-modulus clocks forever. EMCA steps
    # every half-slot and so redraws every 2p half-slots; MCA's per-slot
    # clock steps only on half 0, so it redraws every 2p slots (4p half-slots)
    for chans in (range(1, 11), (3,), (2, 9), (1, 4, 6, 8), range(1, 25, 2)):
        for seed in range(4):
            for per_slot, half_slots_per_step in ((False, 1), (True, 2)):
                clock = ModularClock(chans, random.Random(seed), per_slot=per_slot)
                p = clock.p
                states = set()
                got = []
                for _ in range(20):
                    window = clock.window()
                    assert len(window) == 2 * p * half_slots_per_step
                    got += window[::half_slots_per_step]
                    states.add(clock.j)
                # 40p steps hold 20 windows of 2p steps each
                assert got == modular_clock_oracle(chans, seed, 40 * p)
                # the index offset keeps moving across windows
                assert len(states) > p // 2


def test_per_slot_clock_dwells_for_both_halves():
    dwell = ModularClock(range(1, 11), random.Random(2), per_slot=True)
    for _ in range(10):
        window = dwell.window()
        assert window[0::2] == window[1::2]


def test_half_slot_clock_advances_every_half():
    # a window is 2p steps, one per half-slot; p = 11 > 10 channels, so
    # every step lands on a fresh index and no two neighbours repeat unless
    # an overflow pick happens to land there
    clock = ModularClock(range(1, 11), random.Random(2))
    window = clock.window()
    assert len(window) == 2 * clock.p
    assert sum(a != b for a, b in zip(window, window[1:])) >= len(window) - 5


def test_make_clock_dispatch():
    rng = random.Random(0)
    assert isinstance(make_clock("rcs", [1, 2], rng, pool=[1, 2, 3]), RandomClock)
    mca = make_clock("mca", [1, 2, 3], rng)
    emca = make_clock("emca", [1, 2, 3], rng)
    assert isinstance(mca, ModularClock) and mca.per_slot
    assert isinstance(emca, ModularClock) and not emca.per_slot
    assert isinstance(make_clock("mdmca", [1, 2, 3], rng), DualModularClock)
    assert isinstance(make_clock("mrdmca", [1, 2, 3], rng), DualModularClock)
    with pytest.raises(ValueError):
        make_clock("nope", [1], rng)


def test_rcs_clock_uses_the_pool_not_the_node_set():
    clock = make_clock("rcs", [1, 2], random.Random(1), pool=list(range(1, 11)))
    seen = set(half_slots(clock, 2000))
    assert seen == set(range(1, 11))


def test_select_passes_over_an_empty_window(monkeypatch):
    # an rcs window could, however rarely, reject every one of its draws
    windows = iter([[], [], [2, 3]])
    monkeypatch.setattr(RandomClock, "window", lambda self: next(windows))
    clock = RandomClock([1, 2, 3], random.Random(0))
    assert [clock.select(), clock.select()] == [2, 3]


def test_building_a_clock_draws_only_its_initial_state():
    # the first window is drawn at the first select: building a clock takes
    # only its initial index and rate draws, so state set before the first
    # select shapes the first window (acceptance criterion 7c relies on it)
    chans = (2, 3, 4, 6, 9)
    size, p = len(chans), smallest_prime_geq(len(chans))
    initial = {
        "rcs": lambda rng: (),
        "mca": lambda rng: (rng.randrange(p), rng.randrange(1, p)),
        "emca": lambda rng: (rng.randrange(p), rng.randrange(1, p)),
        "mrdmca": lambda rng: (rng.randrange(size), rng.randrange(size),
                               rng.randrange(1, size), rng.randrange(1, size)),
    }
    for protocol, draws in initial.items():
        rng, reference = random.Random(5), random.Random(5)
        make_clock(protocol, chans, rng, pool=list(range(1, 11)))
        draws(reference)
        assert rng.getstate() == reference.getstate(), protocol
    for protocol, first in (("mca", [3, 3, 4, 4]), ("emca", [3, 4, 6, 9])):
        clock = make_clock(protocol, chans, random.Random(5))
        clock.j, clock.r = 0, 1
        assert half_slots(clock, 4) == first
    clock = make_clock("mrdmca", chans, random.Random(5))
    set_dual_state(clock, j1=0, r1=1, j2=1, r2=2)
    expected, _, _ = dual_clock_oracle(chans, 0, 1, 1, 2, size)
    assert pairs(half_slots(clock, 2 * size)) == expected


def test_a_dropped_clock_is_freed_without_the_cyclic_collector():
    # a clock's stream reaches the clock only weakly: a cycle would keep every
    # run's clocks alive until the collector ran, and sweeps' peak RSS rose
    gc.disable()
    try:
        for protocol in PROTOCOLS:
            clock = make_clock(protocol, (2, 3, 5), random.Random(1), pool=list(range(1, 11)))
            half_slots(clock, 50)
            alive = weakref.ref(clock)
            del clock
            assert alive() is None, protocol
            # a select keeps its clock: held alone, it keeps drawing windows,
            # and the clock goes with it
            reference = make_clock(protocol, (2, 3, 5), random.Random(1), pool=list(range(1, 11)))
            clock = make_clock(protocol, (2, 3, 5), random.Random(1), pool=list(range(1, 11)))
            select, alive = clock.select, weakref.ref(clock)
            del clock
            assert [select() for _ in range(200)] == half_slots(reference, 200), protocol
            del select
            assert alive() is None, protocol
    finally:
        gc.enable()


def test_seeded_clock_sequences_are_reproducible():
    for proto in ("rcs", "mca", "emca", "mrdmca"):
        a = make_clock(proto, range(1, 11), random.Random(77), pool=list(range(1, 11)))
        b = make_clock(proto, range(1, 11), random.Random(77), pool=list(range(1, 11)))
        assert half_slots(a, 400) == half_slots(b, 400)


def test_random_clock_draws_the_randrange_stream():
    # every clock draw inlines randrange's getrandbits rejection: rcs windows,
    # rate draws randrange(1, p) and index and overflow draws randrange(L)
    # must give the same values and leave the generator in the same state,
    # draw for draw. An rcs window ends on a batch of raw draws, whose last
    # rejected ones randrange would also have drawn and rejected, so there the
    # states agree from the next draw on.
    # 255 labels take eight bits a draw; labels 0..255 take nine, and 300
    # labels run past a byte
    for size in [*range(1, 41), 255, 256, 300]:
        pool = list(range(1, size + 1)) if size != 256 else list(range(256))
        for seed in (0, 1, 7, 2**40 + 3):
            for draw in ("rcs window", "randrange(1, p)", "randrange(L)"):
                rng, reference = random.Random(seed), random.Random(seed)
                if draw == "rcs window":
                    clock = RandomClock(pool, rng)
                    got = clock.window() + clock.window()
                    expected = [pool[reference.randrange(size)] for _ in got]
                    got.append(pool[rng.randrange(size)])
                    expected.append(pool[reference.randrange(size)])
                elif draw == "randrange(1, p)":
                    p = size + 1  # rates are drawn from 1..p-1 with p >= 2
                    got = [1 + _randbelow(rng.getrandbits, p - 1) for _ in range(50)]
                    expected = [reference.randrange(1, p) for _ in range(50)]
                else:
                    got = [_randbelow(rng.getrandbits, size) for _ in range(50)]
                    expected = [reference.randrange(size) for _ in range(50)]
                assert got == expected, draw
                assert rng.getstate() == reference.getstate(), draw


@pytest.mark.parametrize("size", [1, 3, 20, 255, 256, 300])
def test_rcs_channels_do_not_depend_on_the_window_size(size, monkeypatch):
    # getrandbits(32 * n) lays out n outputs in order, so a window of DRAWS
    # draws cuts the stream without changing it; pools of up to 255 labels
    # take one byte a draw, larger ones are drawn one call at a time
    pool = list(range(1, size + 1))
    streams = []
    for draws in (64, 256):
        monkeypatch.setattr(RandomClock, "DRAWS", draws)
        clocks = [RandomClock(pool, random.Random(seed)) for seed in (0, 5, 2**40 + 3)]
        assert all(clock._bytewise == (size < 256) for clock in clocks)
        streams.append([half_slots(clock, 3000) for clock in clocks])
    assert streams[0] == streams[1]


def test_split_primality_matches_trial_division_and_hands_out_fresh_lists():
    labels = range(1, 1001)
    primes = [n for n in labels if n > 1 and all(n % f for f in range(2, n))]
    assert split_primality(labels) == (primes, [n for n in labels if n not in primes])
    # the prime test is cached per label; the lists must not be, or two
    # clocks could share a mutable mp or np_
    first, again = split_primality(labels), split_primality(labels)
    assert first == again
    assert first[0] is not again[0] and first[1] is not again[1]
    a, b = (DualModularClock(range(1, 11), random.Random(0)) for _ in range(2))
    assert a.mp is not b.mp and a.np_ is not b.np_
