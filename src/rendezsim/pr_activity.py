"""Per-channel primary-radio occupancy: alternating exponential ON/OFF process."""

import math
import random
from collections import namedtuple
from itertools import chain, count

# High PR activity: mean ON sojourn 8.5 slots, mean OFF sojourn 1.5 slots,
# giving a stationary busy fraction of 0.85.
HIGH_MEAN_ON = 8.5
HIGH_MEAN_OFF = 1.5
# Largest accepted rate, per slot. The engine's schedule walks every sojourn of
# every channel, so a slot at 1000:1000 costs about 5 ms (mrdmca, N=10, C=10,
# 2 vCPU). Fast rates also leave a channel idle for a whole half-slot only
# rarely (PrParams.idle_prob, 0.5·e^-500 at 1000:1000), and the CLI refuses a
# cell that expects fewer than one idle (channel, half-slot) before its cap:
# no run of it could finish.
MAX_RATE = 1000.0


class PrParams(namedtuple("PrParams", "lambda_x lambda_y enabled", defaults=(1.0, 1.0, True))):
    """Rates of the ON/OFF renewal process, in 1/slots.

    lambda_x drives OFF->ON (mean OFF duration 1/lambda_x); lambda_y drives
    ON->OFF (mean ON duration 1/lambda_y); both must be strictly positive
    and at most MAX_RATE, so a mean sojourn is at least a thousandth of a
    slot. With enabled=False every channel is permanently idle.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # a nan or inf rate fails the comparison too
        if self.enabled and not all(0 < rate <= MAX_RATE
                                    for rate in (self.lambda_x, self.lambda_y)):
            raise ValueError(f"PR rates must be finite, strictly positive and at most "
                             f"{MAX_RATE:g} per slot, got {self.lambda_x}:{self.lambda_y}")
        return self

    @property
    def utilization(self):
        """Stationary busy fraction E[ON] / (E[ON] + E[OFF]).

        With mean ON sojourn 1/lambda_y and mean OFF sojourn 1/lambda_x this
        is lambda_x / (lambda_x + lambda_y).
        """
        if not self.enabled:
            return 0.0
        return self.lambda_x / (self.lambda_x + self.lambda_y)

    @property
    def idle_prob(self):
        """Probability that a channel is idle for a whole half-slot, the only
        way it can host a handshake: P(OFF now) times P(residual OFF > 1/2),
        (1 - u)·exp(-lambda_x / 2) by stationarity and the memoryless OFF
        sojourn. 1.0 with PR off.
        """
        if not self.enabled:
            return 1.0
        return (1.0 - self.utilization) * math.exp(-self.lambda_x / 2)

    @classmethod
    def off(cls):
        return cls(enabled=False)

    @classmethod
    def high(cls):
        return cls(lambda_x=1.0 / HIGH_MEAN_OFF, lambda_y=1.0 / HIGH_MEAN_ON)

    @classmethod
    def from_name(cls, name):
        name = name.strip().lower()
        if name == "off":
            return cls.off()
        if name == "high":
            return cls.high()
        try:
            lx, ly = map(float, name.split(":"))
        except ValueError:
            raise ValueError(f"unknown PR level {name!r}; use off, high or "
                             f"lambda_x:lambda_y with two numbers") from None
        return cls(lambda_x=lx, lambda_y=ly)

    @property
    def name(self):
        """off, high or lambda_x:lambda_y, each rate in :g unless that changes it,
        so from_name(p.name) == p for off(), high() and every pair of valid rates."""
        if not self.enabled:
            return "off"
        if self == self.high():
            return "high"
        return ":".join(f"{rate:g}" if float(f"{rate:g}") == rate else repr(rate)
                        for rate in (self.lambda_x, self.lambda_y))


# half-slots idle_channels schedules at a time
BLOCK = 64


def _off_spells(rand, params):
    """One channel's OFF spells [start, end), in time order, drawn from its
    bound random: the state at time 0 from the stationary distribution, then
    the ON and OFF sojourns in turn. Memorylessness makes the stationary
    residual sojourn another exponential, so the first is sampled from the
    same law. A sojourn at rate lambda is -log(1.0 - random()) / lambda,
    Random.expovariate's own formula, written out where it is drawn.
    """
    log = math.log
    on_rate, off_rate = params.lambda_y, params.lambda_x
    start = -log(1.0 - rand()) / on_rate if rand() < params.utilization else 0.0
    while True:
        end = start + -log(1.0 - rand()) / off_rate
        yield start, end
        start = end + -log(1.0 - rand()) / on_rate


def _channel_spells(params, n_channels, rng_seed):
    """Channels 1..n_channels' OFF spells, each on a stream seeded by rng_seed|label.
    With PR off every channel is always idle, so PrParams.off() raises ValueError."""
    if not params.enabled:
        raise ValueError("the PR process needs PR on; with PR off every channel is idle")
    return [_off_spells(random.Random(f"{rng_seed}|{label}").random, params)
            for label in range(1, n_channels + 1)]


def idle_channels(params, n_channels, rng_seed):
    """The channels idle for the whole half-slot, ascending, for half-slots
    0, 1, 2, ... in turn, with PR on.

    A pure function of its arguments: it draws its own OFF spells, those that
    ChannelOccupancy(params, n_channels, rng_seed) reads, and gives the
    channels busy_during calls free, a BLOCK of half-slots at a time, the
    blocks chained in C. An OFF spell [a, b) idles half-slots ceil(2a) ..
    ceil(2b - 1) - 1, those h with a <= h/2 and h/2 + 1/2 < b. Each channel
    keeps its current spell as those two integer bounds, starting from an
    empty (0, 0).
    """
    streams = _channel_spells(params, n_channels, rng_seed)
    spans = [(0, 0)] * n_channels
    ceil = math.ceil

    def schedule(first):
        end = first + BLOCK
        block = [[] for _ in range(BLOCK)]
        for c, spells in enumerate(streams):
            label = c + 1
            lo, hi = spans[c]
            while lo < end:
                if hi > lo:  # a spell within one half-slot idles none
                    for idle in block[lo - first:hi - first]:
                        idle.append(label)
                if hi > end:  # on into the next block, whose start it idles
                    lo = end
                    break
                start, stop = next(spells)
                lo, hi = ceil(2 * start), ceil(2 * stop - 1)
            spans[c] = lo, hi
        return block

    return chain.from_iterable(map(schedule, count(0, BLOCK)))


class ChannelOccupancy:
    """One-channel queries on the ON/OFF process with PR on, at half-slot
    boundaries: is_busy and busy_during.

    Channels are labelled 1..n_channels, and each reads its own OFF spells,
    the ones idle_channels schedules, through a cursor that only moves
    forward. So a channel's answers depend only on the times it is asked
    about: never on other channels' queries, nor on any idle_channels
    stream. The engine reads idle_channels; demo 04, acceptance criterion 6,
    tests/test_reference_loop.py and perfbench's tracer use these queries.
    With PR off every channel is always idle, so PrParams.off() raises
    ValueError.
    """

    def __init__(self, params, n_channels, rng_seed):
        self.n_channels = n_channels
        self._spells = _channel_spells(params, n_channels, rng_seed)
        self._spell = [next(spells) for spells in self._spells]
        self._last_query = [-math.inf] * n_channels

    def is_busy(self, channel, half_slot_index):
        """Process state at the start of the given half-slot (time in slots):
        busy unless an OFF spell has started and not yet ended. Moves the
        channel's cursor like busy_during, under the same checks.
        """
        return half_slot_index * 0.5 < self._spell_after(channel, half_slot_index)[0]

    def busy_during(self, channel, half_slot_index):
        """Whether the channel is occupied at any point in the half-slot.

        A handshake needs the channel for the whole half-slot, so a primary
        arrival inside the interval disrupts it just like one already present
        at the start. Later queries at the same boundary get the same answer.
        Queries per channel must move forward in time; a backwards query
        signals an engine ordering bug and is rejected, as is a channel
        outside the pool.
        """
        t = half_slot_index * 0.5
        start, end = self._spell_after(channel, half_slot_index)
        return t < start or end <= t + 0.5

    def _spell_after(self, channel, half_slot_index):
        """The channel's first OFF spell that ends after the half-slot's start."""
        if not 1 <= channel <= self.n_channels:
            raise ValueError(f"channel {channel} outside pool 1..{self.n_channels}")
        t = half_slot_index * 0.5
        idx = channel - 1
        if t < self._last_query[idx]:
            raise ValueError(f"time went backwards on channel {channel}: "
                             f"{t} < {self._last_query[idx]}")
        self._last_query[idx] = t
        spell = self._spell[idx]
        while spell[1] <= t:
            spell = next(self._spells[idx])
        self._spell[idx] = spell
        return spell
