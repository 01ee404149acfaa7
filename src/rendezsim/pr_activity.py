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


class ChannelOccupancy:
    """Per-channel ON/OFF process with PR on, queried at half-slot boundaries.

    Channels are labelled 1..n_channels. Each channel draws from its own
    stream, seeded from rng_seed and its label, so its answers depend only on
    the times it is asked about: never on whether, when or in what order
    other channels are asked. Initial states are drawn from the stationary
    distribution; sojourns are exponential, and memorylessness makes the
    stationary residual time another exponential, so the first transition is
    sampled from the same law. State is constant within a half-slot. With PR
    off every channel is always idle, so PrParams.off() raises ValueError.
    """

    # half-slots idle_channels schedules at a time
    BLOCK = 64

    def __init__(self, params, n_channels, rng_seed):
        if not params.enabled:
            raise ValueError("ChannelOccupancy needs PR on; with PR off every channel is idle")
        self.params = params
        self.n_channels = n_channels
        # per channel, the bound random of its own stream; a sojourn at rate
        # lambda is -log(1.0 - random()) / lambda, Random.expovariate's own
        # formula, written out where it is drawn
        self._randoms = [random.Random(f"{rng_seed}|{c + 1}").random
                         for c in range(n_channels)]
        self._on = [r() < params.utilization for r in self._randoms]
        self._next = [-math.log(1.0 - r()) / (params.lambda_y if on else params.lambda_x)
                      for r, on in zip(self._randoms, self._on)]
        self._last_query = [-math.inf] * n_channels

    def is_busy(self, channel, half_slot_index):
        """Process state at the start of the given half-slot (time in slots).

        Advances the channel like busy_during, under the same checks.
        """
        self.busy_during(channel, half_slot_index)
        return self._on[channel - 1]

    def busy_during(self, channel, half_slot_index):
        """Whether the channel is occupied at any point in the half-slot.

        A handshake needs the channel for the whole half-slot, so a primary
        arrival inside the interval disrupts it just like one already present
        at the start. Advances the channel to the half-slot's start, then
        peeks at its next transition without drawing, so later queries at
        the same boundary are unaffected. Queries per channel must move
        forward in time; a backwards query signals an engine ordering bug and
        is rejected, as is a channel outside the pool. The answer is a pure
        function of the channel's own stream and the half-slot, so asking
        about one channel never changes another's answers.
        """
        if not 1 <= channel <= self.n_channels:
            raise ValueError(f"channel {channel} outside pool 1..{self.n_channels}")
        t = half_slot_index * 0.5
        idx = channel - 1
        if t < self._last_query[idx]:
            raise ValueError(
                f"time went backwards on channel {channel}: "
                f"{t} < {self._last_query[idx]}"
            )
        self._last_query[idx] = t
        on, nxt = self._advance(idx, t)
        return on or nxt <= t + 0.5

    def _advance(self, idx, t):
        """Take channel idx's transitions up to and including time t; its
        (on, next transition) after them."""
        on, nxt = self._on[idx], self._next[idx]
        if nxt <= t:
            rand, log = self._randoms[idx], math.log
            on_rate, off_rate = self.params.lambda_y, self.params.lambda_x
            while nxt <= t:
                on = not on
                nxt += -log(1.0 - rand()) / (on_rate if on else off_rate)
            self._on[idx], self._next[idx] = on, nxt
        return on, nxt

    def idle_channels(self):
        """The channels idle for the whole half-slot, ascending, for half-slots
        0, 1, 2, ... in turn.

        These are the channels busy_during calls free, scheduled a BLOCK of
        half-slots at a time by advancing each channel's own stream as
        busy_during does, so the two draw the same sojourns. Each channel
        counts as queried at a scheduled block's last half-slot: busy_during
        inside it raises, as any backwards query does, and a busy_during
        ahead of the stream makes the next block raise.
        """
        return chain.from_iterable(map(self._schedule, count(0, self.BLOCK)))

    def _schedule(self, first):
        """idle_channels' answers for the BLOCK half-slots from first.

        An OFF spell [a, b) makes half-slots ceil(2a) .. ceil(2b - 1) - 1
        idle: those h with a <= h/2 and h/2 + 1/2 < b, busy_during's test.
        Each channel takes its transitions up to the block's start as
        _advance does, then walks its OFF spells to the block's end,
        drawing the OFF and the ON sojourns in turn at their own rates.
        """
        size = self.BLOCK
        t0, t_end = first * 0.5, (first + size - 1) * 0.5
        for c, last in enumerate(self._last_query):
            if t0 < last:
                raise ValueError(f"time went backwards on channel {c + 1}: {t0} < {last}")
        block = [[] for _ in range(size)]
        on_rate, off_rate = self.params.lambda_y, self.params.lambda_x
        ceil, log = math.ceil, math.log
        for c, rand in enumerate(self._randoms):
            label = c + 1
            on, nxt = self._on[c], self._next[c]
            while nxt <= t0:
                on = not on
                nxt += -log(1.0 - rand()) / (on_rate if on else off_rate)
            if not on:  # the OFF spell under way at t0, ending at nxt
                for idle in block[:ceil(2 * nxt - 1) - first]:
                    idle.append(label)
                if nxt <= t_end:
                    nxt += -log(1.0 - rand()) / on_rate
                    on = True
            # ON until nxt; then an OFF spell [start, nxt), and so on
            while on and nxt <= t_end:
                start = nxt
                nxt += -log(1.0 - rand()) / off_rate
                for idle in block[ceil(2 * start) - first:ceil(2 * nxt - 1) - first]:
                    idle.append(label)
                if nxt <= t_end:
                    nxt += -log(1.0 - rand()) / on_rate
                else:
                    on = False
            self._on[c], self._next[c], self._last_query[c] = on, nxt, t_end
        return block
