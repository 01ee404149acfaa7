"""Channel-selection engines: dual modular clocks and the 2RATS baselines.

All protocols make exactly two rendezvous attempts per slot. A clock's whole
contract is select(half): it is asked for half 0 and then half 1 of every
slot, returns the channel for that half-slot, and advances its own slot.
"""

import math


def _is_prime(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def split_primality(channels):
    """Split a channel set into (prime-labelled, non-prime-labelled) lists.

    Both lists are ascending; label 1 is non-prime. Deterministic.
    """
    if not channels:
        raise ValueError("channel set must be non-empty")
    ordered = sorted(channels)
    primes = [c for c in ordered if _is_prime(c)]
    non_primes = [c for c in ordered if not _is_prime(c)]
    return primes, non_primes


def smallest_prime_geq(n):
    p = max(2, n)
    while not _is_prime(p):
        p += 1
    return p


class DualModularClock:
    """Two independent modular clocks over prime / non-prime channel subsets.

    The first half-slot hops over the prime-labelled channels, the second over
    the non-prime ones; an empty subset falls back to the full set. Rates are
    redrawn after every window of len(channels) slots; indices are redrawn
    only every RESEED_INDEX_EVERY windows (see select for why they cannot be
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
        self._rng = rng
        self.j1 = rng.randrange(len(self.mi))
        self.j2 = rng.randrange(len(self.mi))
        self.r1 = self._draw_rate()
        self.r2 = self._draw_rate()
        self._c1 = None  # the current slot's half-0 channel
        self._slots = 0

    def _draw_rate(self):
        size = len(self.mi)
        if size < 2:
            return 1
        return self._rng.randrange(1, size)

    def select(self, half):
        size = len(self.mi)
        if half == 0:
            self.j1 = (self.j1 + self.r1) % size
            self._c1 = self.mp[self.j1 % len(self.mp)] if self.mp else self.mi[self.j1]
            return self._c1
        self.j2 = (self.j2 + self.r2) % size
        c2 = self.np_[self.j2 % len(self.np_)] if self.np_ else self.mi[self.j2]
        if c2 == self._c1:
            # only reachable when one subset is empty
            self.j2 = (self.j2 + 1) % size
            c2 = self.mi[self.j2]
        self._slots += 1
        if self._slots % size == 0:
            # Window end: fresh rates; indices are redrawn every
            # RESEED_INDEX_EVERY windows, and in every window when the set has
            # fewer than three channels (there every rate draw is 1, so two
            # such clocks advance in permanent lockstep and a rate reseed
            # alone can never change their relative offset).
            self.r1 = self._draw_rate()
            self.r2 = self._draw_rate()
            if size < 3 or self._slots % (size * self.RESEED_INDEX_EVERY) == 0:
                self.j1 = self._rng.randrange(size)
                self.j2 = self._rng.randrange(size)
        return c2


class RandomClock:
    """RCS: a uniform random channel from the whole pool each half-slot.

    The blind searcher ranges over every channel label, not just the node's
    usable set, so many attempts land on channels where the node cannot
    complete a handshake (the engine drops those attempts).
    """

    def __init__(self, pool, rng):
        self.pool = sorted(pool)
        if not self.pool:
            # randrange would raise here; the inlined draw would loop forever
            raise ValueError("RandomClock needs a non-empty channel pool")
        self._bits = rng.getrandbits
        self._size = len(self.pool)
        self._k = self._size.bit_length()

    def select(self, half):
        # randrange(len(pool)) inlined: the same getrandbits rejection draw,
        # so the same stream, without its argument checks
        k = self._k
        r = self._bits(k)
        while r >= self._size:
            r = self._bits(k)
        return self.pool[r]


class ModularClock:
    """Classic single modular clock over the node's usable set (MCA, EMCA).

    The modulus is the smallest prime >= len(channels); an index overflowing
    the channel list triggers a uniform random pick. Rate and index are
    resampled every 2p steps: 2p is a multiple of p, so resampling only
    the rate would freeze the index offset between two same-modulus clocks and
    can lock a pair out of its common channels permanently.

    MCA (per_slot=True) advances the clock once per slot, dwelling on one
    channel for both half-slots; EMCA's enhancement is a full-rate clock that
    visits a fresh channel every half-slot.
    """

    def __init__(self, channels, rng, per_slot=False):
        self.mi = sorted(channels)
        self._rng = rng
        self.p = smallest_prime_geq(len(self.mi))
        self.j = rng.randrange(self.p)
        self.r = rng.randrange(1, self.p)
        self._steps = 0
        self.per_slot = per_slot
        self._dwell = None

    def select(self, half):
        if self.per_slot and half == 1:
            return self._dwell
        self.j = (self.j + self.r) % self.p
        self._steps += 1
        if self._steps >= 2 * self.p:
            self.r = self._rng.randrange(1, self.p)
            self.j = self._rng.randrange(self.p)
            self._steps = 0
        if self.j >= len(self.mi):
            self._dwell = self.mi[self._rng.randrange(len(self.mi))]
        else:
            self._dwell = self.mi[self.j]
        return self._dwell


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
