"""Channel-selection engines: dual modular clocks and the 2RATS baselines.

All protocols make exactly two rendezvous attempts per slot. A clock's
contract is select(): each call returns the node's channel in the next
half-slot, half 0 and half 1 of slot 0, then of slot 1, and so on. Clocks
compute their channels a window at a time (window()), and select() hands the
windows out one half-slot after another, drawing each when it is reached, so
state set before the first select shapes the first window. On a clock,
select is partial(next, stream, clock): it runs in C between windows and
keeps its clock alive (see _Clock); the engine takes each half-slot's
channels as one row of a zip over iter(select, None), so the calls come
from C as well. A modular window spans the stretch between two of the
clock's redraws, so within it the channel indices are arithmetic,
j + k·r mod size, and the draws that follow it are taken in the order a
clock stepped one half-slot at a time takes them; an rcs window is one
batch of RandomClock.DRAWS (256) draws, and where the batch is cut does not
change the channels. Each clock draws from its own generator, so a node's
channel sequence is a pure function of its seed. Every draw is randrange's
own getrandbits rejection, inlined (_randbelow), so the streams match
randrange's draw for draw. A label's prime test is computed once per
process (_is_prime is cached), while split_primality hands each clock
lists of its own.
"""

import math
import weakref
from functools import lru_cache, partial
from itertools import chain, repeat


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
        # the clock, next's default, is never returned, as the stream never
        # ends; holding it keeps alive the clock its stream reaches only
        # weakly, and no cycle forms, as the clock does not hold the partial
        return partial(next, clock._channels, clock)


def _select(clock):
    return next(clock._channels)


class _Clock:
    """select() over _channels, which each subclass's constructor ends by setting
    to _stream(): its window()s end to end, each drawn only when select reaches it.

    clock.select() is the node's channel in the next half-slot. clock.select
    keeps its clock alive, so make_clock(...).select may be all a caller
    holds; each attribute read makes a new callable over the same stream,
    and a call runs no Python frame unless it draws a window. On the class,
    type(clock).select(clock) is a plain function doing the same, so
    wrapping a class's select (perfbench's tracer does) sees every call the
    engine makes. Any window that draws nothing is skipped; a clock driven
    through select should not also be asked for windows directly.
    """

    select = _Select()

    def _stream(self):
        # a bound self.window here would make each clock a reference cycle,
        # freed only by the cyclic collector: sweeps' peak RSS rose 6-9%
        clock = weakref.ref(self)
        return chain.from_iterable(iter(lambda: clock().window(), None))


class DualModularClock(_Clock):
    """Two independent modular clocks over prime / non-prime channel subsets.

    The first half-slot hops over the prime-labelled channels, the second over
    the non-prime ones; an empty subset falls back to the full set. A window
    is len(channels) slots; rates are redrawn after every window, indices only
    every RESEED_INDEX_EVERY windows (see window for why they cannot be
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
        self.mi = sorted(channels)
        self.mp, self.np_ = split_primality(self.mi)
        size = len(self.mi)
        # channel at each index, per half: the subset indexed mod its length,
        # repeated so that index j + k·r, k <= size, needs no mod (r = 1 at
        # size 1 makes the extra lap)
        self._laps = [([sub[j % len(sub)] for j in range(size)] if sub else self.mi)
                      * (size + 1) for sub in (self.mp, self.np_)]
        self._bits = rng.getrandbits
        self.j1 = _randbelow(self._bits, size)
        self.j2 = _randbelow(self._bits, size)
        self.r1 = self._draw_rate()
        self.r2 = self._draw_rate()
        self._windows = 0
        self._channels = self._stream()

    def _draw_rate(self):
        size = len(self.mi)
        if size < 2:
            return 1
        return 1 + _randbelow(self._bits, size - 1)

    def window(self):
        size = len(self.mi)
        first, second = self._laps
        window = [0] * (2 * size)
        # after a window of size steps both indices are back where they
        # started, so only the redraws below move them
        j, r = self.j1, self.r1
        window[0::2] = first[j + r:j + size * r + 1:r]
        if self.mp and self.np_:
            # disjoint subsets: the halves can never coincide
            j, r = self.j2, self.r2
            window[1::2] = second[j + r:j + size * r + 1:r]
        else:
            # both halves index the full set; a coinciding second half steps
            # one index further, and the shift carries over
            j1, r1, j2, r2 = self.j1, self.r1, self.j2, self.r2
            for k in range(size):
                j1 = (j1 + r1) % size
                j2 = (j2 + r2) % size
                if j2 == j1:
                    j2 = (j2 + 1) % size
                window[2 * k + 1] = self.mi[j2]
            self.j2 = j2
        # Window end: fresh rates; indices are redrawn every
        # RESEED_INDEX_EVERY windows, and in every window when the set has
        # fewer than three channels (there every rate draw is 1, so two such
        # clocks advance in permanent lockstep and a rate reseed alone can
        # never change their relative offset).
        self._windows += 1
        self.r1 = self._draw_rate()
        self.r2 = self._draw_rate()
        if size < 3 or self._windows % self.RESEED_INDEX_EVERY == 0:
            self.j1 = _randbelow(self._bits, size)
            self.j2 = _randbelow(self._bits, size)
        return window


class RandomClock(_Clock):
    """RCS: a uniform random channel from the whole pool each half-slot.

    The blind searcher ranges over every channel label, not just the node's
    usable set, so many attempts land on channels where the node cannot
    complete a handshake (the engine drops those attempts). Its draws carry
    no state, so a window is whatever DRAWS rejection draws accept; the
    channels do not depend on DRAWS (see window).
    """

    DRAWS = 256

    def __init__(self, pool, rng):
        self.pool = sorted(pool)
        if not self.pool:
            # randrange would raise here; the inlined draw would loop forever
            raise ValueError("RandomClock needs a non-empty channel pool")
        self._bits = rng.getrandbits
        self._size = len(self.pool)
        self._k = self._size.bit_length()
        # getrandbits(k) is the top k bits of one 32-bit output, and
        # getrandbits(32 * n) lays n outputs out least significant first, so
        # with k <= 8 the top byte of each little-endian word holds one draw:
        # translate maps it to its label, or drops it where randrange would
        # draw again. Labels past a byte are drawn one call at a time.
        self._bytewise = self._k <= 8 and self.pool[-1] < 256
        if self._bytewise:
            shift = 8 - self._k
            self._labels = b"".join(bytes((c,)) * (1 << shift) for c in self.pool).ljust(256, b"\0")
            self._rejects = bytes(range(self._size << shift, 256))
        self._channels = self._stream()

    def window(self):
        # randrange(len(pool)) per half-slot: the same getrandbits rejection,
        # so the same stream; one getrandbits(32 * DRAWS) holds the outputs
        # of DRAWS getrandbits(32) calls in order, so DRAWS only sets where
        # the stream is cut
        if self._bytewise:
            words = self._bits(32 * self.DRAWS).to_bytes(4 * self.DRAWS, "little")
            return list(words[3::4].translate(self._labels, self._rejects))
        draws = map(self._bits, repeat(self._k, self.DRAWS))
        return [self.pool[r] for r in draws if r < self._size]


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
        self.mi = sorted(channels)
        self._bits = rng.getrandbits
        self.p = smallest_prime_geq(len(self.mi))
        self.j = _randbelow(self._bits, self.p)
        self.r = 1 + _randbelow(self._bits, self.p - 1)
        self.per_slot = per_slot
        # the channel at each index mod p, None where it overflows the list,
        # repeated so that index j + k·r, k < 2p, needs no mod
        self._laps = (self.mi + [None] * (self.p - len(self.mi))) * (2 * self.p)
        self._channels = self._stream()

    def window(self):
        mi, p, bits = self.mi, self.p, self._bits
        size = len(mi)
        # steps 1..2p-1 are j + k·r; overflow picks draw in step order
        j, r = self.j, self.r
        window = self._laps[j + r:j + (2 * p - 1) * r + 1:r]
        if size < p:
            k = -1
            for _ in range(window.count(None)):
                k = window.index(None, k + 1)
                window[k] = mi[_randbelow(bits, size)]
        # step 2p redraws rate, then index, and lands on the fresh index
        self.r = 1 + _randbelow(bits, p - 1)
        self.j = _randbelow(bits, p)
        window.append(mi[self.j] if self.j < size else mi[_randbelow(bits, size)])
        if self.per_slot:
            dwell = [0] * (2 * len(window))
            dwell[0::2] = dwell[1::2] = window
            return dwell
        return window


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
