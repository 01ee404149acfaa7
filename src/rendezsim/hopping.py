"""Channel-selection engines: dual modular clocks and the 2RATS baselines.

All protocols make exactly two rendezvous attempts per slot. A clock's
contract is select(): each call returns the node's channel in the next
half-slot, half 0 and half 1 of slot 0, then of slot 1, and so on. A
clock's constructor makes its initial draws and hands them to a generator
of its windows (_dual_windows, _modular_windows, _rcs_windows), which keeps
every later draw in its own locals; select() reads the windows end to end,
each drawn when it is reached. On a clock, select is partial(next, stream),
which runs in C between windows (see _Clock); the engine takes each
half-slot's channels as one row of a zip over iter(select, None), so the
calls come from C as well. A modular window spans the stretch between two
of the clock's redraws, so within it the channel indices are arithmetic,
j + k·r mod size, and the draws that follow it are taken in the order a
clock stepped one half-slot at a time takes them; an rcs window is one
batch of RandomClock.DRAWS (256) draws, and where the batch is cut does not
change the channels. Each clock draws from its own random.Random, so a node's
channel sequence is a pure function of its seed. Every draw is randrange's
own getrandbits rejection, inlined (_randbelow), so the streams match
randrange's draw for draw. A label's prime test is computed once per
process (_is_prime is cached), while split_primality hands each call lists
of its own.
"""

import math
from functools import lru_cache, partial
from itertools import chain, count, repeat


@lru_cache(maxsize=None)
def _is_prime(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _randbelow(getrandbits, n):
    # randrange(n), as CPython draws it; randrange(1, n) is 1 + _randbelow(n - 1)
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def split_primality(channels):
    """Split a channel set into (prime-labelled, non-prime-labelled) lists.

    Both lists are ascending; label 1 is non-prime. Deterministic.
    """
    if not channels:
        raise ValueError("channel set must be non-empty")
    primes, non_primes = [], []
    for c in sorted(channels):
        (primes if _is_prime(c) else non_primes).append(c)
    return primes, non_primes


def smallest_prime_geq(n):
    p = max(2, n)
    while not _is_prime(p):
        p += 1
    return p


class _Select:
    """_Clock.select's descriptor: see _Clock."""

    def __get__(self, clock, owner=None):
        if clock is None:
            return _select
        return partial(next, clock._channels)  # the stream never ends


def _select(clock):
    return next(clock._channels)


class _Clock:
    """select() over _channels, which each subclass's constructor ends by setting
    to chain.from_iterable(<its windows' generator>).

    The constructor makes the clock's initial draws; from then on its state
    lives only in the generator's locals, each window drawn when select
    reaches it. clock.select() is the node's channel in the next half-slot:
    each attribute read makes a new callable over the same stream, and a
    call runs no Python frame unless it draws a window. The stream holds no
    reference to its clock, so no clock is a reference cycle (one raised
    sweeps' peak RSS by 6-9%). On the class, type(clock).select(clock) is a
    plain function doing the same, so wrapping a class's select (perfbench's
    tracer does) sees every call the engine makes. Any window that draws
    nothing is skipped.
    """

    select = _Select()


def _rate(bits, n):
    # randrange(1, n), or 1 where n < 2 leaves no other rate
    return 1 + _randbelow(bits, n - 1) if n > 1 else 1


class DualModularClock(_Clock):
    """Two independent modular clocks over prime / non-prime channel subsets.

    The first half-slot hops over the prime-labelled channels, the second over
    the non-prime ones; an empty subset falls back to the full set. A window
    is len(channels) slots; rates are redrawn after every window, indices only
    every RESEED_INDEX_EVERY windows (see there for why they cannot be
    preserved forever).
    """

    # How many rate windows pass between index redraws. The window spans a
    # multiple of the index modulus, so a rate-only reseed leaves the offset
    # between two clocks invariant at every window boundary; a pair whose
    # common channels sit at an unreachable offset would then never meet.
    # Occasional index redraws break that lockstep while keeping the
    # characteristic slow mixing of rate-only reseeds in between.
    RESEED_INDEX_EVERY = 30

    def __init__(self, channels, rng):
        mi = sorted(channels)
        bits = rng.getrandbits
        size = len(mi)
        j1 = _randbelow(bits, size)
        j2 = _randbelow(bits, size)
        r1 = _rate(bits, size)
        r2 = _rate(bits, size)
        self._channels = chain.from_iterable(_dual_windows(mi, bits, j1, r1, j2, r2))


def _dual_windows(mi, bits, j1, r1, j2, r2):
    """A dual clock's windows over the sorted channels mi, from indices j1, j2
    and rates r1, r2; bits draws every later index and rate."""
    size = len(mi)
    mp, np_ = split_primality(mi)
    # channel at each index, per half: the subset indexed mod its length,
    # repeated so that index j + k·r, k <= size, needs no mod (r = 1 at
    # size 1 makes the extra lap)
    first, second = [([sub[j % len(sub)] for j in range(size)] if sub else mi) * (size + 1)
                     for sub in (mp, np_)]
    every = DualModularClock.RESEED_INDEX_EVERY
    for windows in count(1):
        window = [0] * (2 * size)
        # after a window of size steps both indices are back where they
        # started, so only the redraws below move them
        window[0::2] = first[j1 + r1:j1 + size * r1 + 1:r1]
        if mp and np_:
            # disjoint subsets: the halves can never coincide
            window[1::2] = second[j2 + r2:j2 + size * r2 + 1:r2]
        else:
            # both halves index the full set; a coinciding second half steps
            # one index further, and the shift carries over
            k1 = j1
            for k in range(size):
                k1 = (k1 + r1) % size
                j2 = (j2 + r2) % size
                if j2 == k1:
                    j2 = (j2 + 1) % size
                window[2 * k + 1] = mi[j2]
        yield window
        # Window end: fresh rates; indices are redrawn every
        # RESEED_INDEX_EVERY windows, and in every window when the set has
        # fewer than three channels (there every rate draw is 1, so two such
        # clocks advance in permanent lockstep and a rate reseed alone can
        # never change their relative offset).
        r1 = _rate(bits, size)
        r2 = _rate(bits, size)
        if size < 3 or windows % every == 0:
            j1 = _randbelow(bits, size)
            j2 = _randbelow(bits, size)


class RandomClock(_Clock):
    """RCS: a uniform random channel from the whole pool each half-slot.

    The blind searcher ranges over every channel label, not just the node's
    usable set, so many attempts land on channels where the node cannot
    complete a handshake (the engine drops those attempts). Its draws carry
    no state, so a window is whatever DRAWS rejection draws accept; the
    channels do not depend on DRAWS (see _rcs_windows).
    """

    DRAWS = 256

    def __init__(self, pool, rng):
        pool = sorted(pool)
        if not pool:
            # randrange would raise here; the inlined draw would loop forever
            raise ValueError("RandomClock needs a non-empty channel pool")
        self._channels = chain.from_iterable(_rcs_windows(pool, rng.getrandbits))


def _rcs_windows(pool, bits):
    """rcs windows over the sorted pool: randrange(len(pool)) per half-slot.

    Each is the same getrandbits rejection, so the same stream; one
    getrandbits(32 * DRAWS) holds the outputs of DRAWS getrandbits(32)
    calls in order, so DRAWS only sets where the stream is cut.
    """
    size = len(pool)
    k = size.bit_length()
    draws = RandomClock.DRAWS
    if k <= 8 and pool[-1] < 256:
        # getrandbits(k) is the top k bits of one 32-bit output, and
        # getrandbits(32 * n) lays n outputs out least significant first, so
        # with k <= 8 the top byte of each little-endian word holds one draw:
        # translate maps it to its label, or drops it where randrange would
        # draw again
        shift = 8 - k
        labels = b"".join(bytes((c,)) * (1 << shift) for c in pool).ljust(256, b"\0")
        rejects = bytes(range(size << shift, 256))
        while True:
            words = bits(32 * draws).to_bytes(4 * draws, "little")
            yield list(words[3::4].translate(labels, rejects))
    # labels past a byte are drawn one call at a time
    while True:
        yield [pool[r] for r in map(bits, repeat(k, draws)) if r < size]


class ModularClock(_Clock):
    """Classic single modular clock over the node's usable set (MCA, EMCA).

    The modulus is the smallest prime >= len(channels); an index overflowing
    the channel list triggers a uniform random pick. Rate and index are
    resampled every 2p steps, which is the window: 2p is a multiple of p, so
    resampling only the rate would freeze the index offset between two
    same-modulus clocks and can lock a pair out of its common channels
    permanently.

    MCA (per_slot=True) steps the clock once per slot, dwelling on one
    channel for both half-slots; EMCA's enhancement is a full-rate clock that
    visits a fresh channel every half-slot.
    """

    def __init__(self, channels, rng, per_slot=False):
        mi = sorted(channels)
        bits = rng.getrandbits
        p = smallest_prime_geq(len(mi))
        j = _randbelow(bits, p)
        r = _rate(bits, p)
        self._channels = chain.from_iterable(_modular_windows(mi, bits, p, j, r, per_slot))


def _modular_windows(mi, bits, p, j, r, per_slot):
    """A modular clock's windows over the sorted channels mi, modulus p, from
    index j and rate r; bits draws every overflow pick and later index and
    rate. A per-slot window repeats each channel for both halves of a slot."""
    size = len(mi)
    # the channel at each index mod p, None where it overflows the list,
    # repeated so that index j + k·r, k < 2p, needs no mod
    laps = (mi + [None] * (p - size)) * (2 * p)
    while True:
        # steps 1..2p-1 are j + k·r; overflow picks draw in step order
        window = laps[j + r:j + (2 * p - 1) * r + 1:r]
        if size < p:
            k = -1
            for _ in range(window.count(None)):
                k = window.index(None, k + 1)
                window[k] = mi[_randbelow(bits, size)]
        # step 2p redraws rate, then index, and lands on the fresh index
        r = _rate(bits, p)
        j = _randbelow(bits, p)
        window.append(mi[j] if j < size else mi[_randbelow(bits, size)])
        if per_slot:
            dwell = [0] * (2 * len(window))
            dwell[0::2] = dwell[1::2] = window
            window = dwell
        yield window


PROTOCOLS = ("rcs", "mca", "emca", "mdmca", "mrdmca")


def make_clock(protocol, channels, rng, pool=None):
    """Clock for a protocol tag; mdmca and mrdmca share the dual clock.

    pool is the full channel label list; it defaults to the node's own set
    and only matters for the blind random searcher.
    """
    if protocol == "rcs":
        return RandomClock(pool if pool is not None else channels, rng)
    if protocol == "mca":
        return ModularClock(channels, rng, per_slot=True)
    if protocol == "emca":
        return ModularClock(channels, rng)
    if protocol in ("mdmca", "mrdmca"):
        return DualModularClock(channels, rng)
    raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
