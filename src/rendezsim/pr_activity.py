"""Per-channel primary-radio occupancy: alternating exponential ON/OFF process."""

import math
import random
from dataclasses import dataclass

# High PR activity: mean ON sojourn 8.5 slots, mean OFF sojourn 1.5 slots,
# giving a stationary busy fraction of 0.85.
HIGH_MEAN_ON = 8.5
HIGH_MEAN_OFF = 1.5
# Largest accepted rate, per slot. The sampler steps through every sojourn, so
# a half-slot query grows with the rate: 0.4 ms at 1e3, 272 ms at 1e6 (2 vCPU).
MAX_RATE = 1000.0


@dataclass(frozen=True)
class PrParams:
    """Rates of the ON/OFF renewal process, in 1/slots.

    lambda_x drives OFF->ON (mean OFF duration 1/lambda_x); lambda_y drives
    ON->OFF (mean ON duration 1/lambda_y); both must be strictly positive
    and at most MAX_RATE, so a mean sojourn is at least a thousandth of a
    slot. With enabled=False every channel is permanently idle.
    """

    lambda_x: float = 1.0
    lambda_y: float = 1.0
    enabled: bool = True

    def __post_init__(self):
        # a nan or inf rate fails the comparison too
        if self.enabled and not all(0 < rate <= MAX_RATE
                                    for rate in (self.lambda_x, self.lambda_y)):
            raise ValueError(f"PR rates must be finite, strictly positive and at most "
                             f"{MAX_RATE:g} per slot, got {self.lambda_x}:{self.lambda_y}")

    @property
    def utilization(self):
        """Stationary busy fraction E[ON] / (E[ON] + E[OFF]).

        With mean ON sojourn 1/lambda_y and mean OFF sojourn 1/lambda_x this
        is lambda_x / (lambda_x + lambda_y).
        """
        if not self.enabled:
            return 0.0
        return self.lambda_x / (self.lambda_x + self.lambda_y)

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
        if not self.enabled:
            return "off"
        if (math.isclose(self.lambda_x, 1.0 / HIGH_MEAN_OFF)
                and math.isclose(self.lambda_y, 1.0 / HIGH_MEAN_ON)):
            return "high"
        return f"{self.lambda_x:g}:{self.lambda_y:g}"


class ChannelOccupancy:
    """Lazy per-channel ON/OFF sampler, queried at half-slot boundaries.

    Channels are labelled 1..n_channels. Each channel draws from its own
    stream, seeded from rng_seed and its label, so its answers depend only on
    the times it is asked about: never on whether, when or in what order
    other channels are asked. Initial states are drawn from the stationary
    distribution; sojourns are exponential, and memorylessness makes the
    stationary residual time another exponential, so the first transition is
    sampled from the same law. State is constant within a half-slot.
    """

    def __init__(self, params, n_channels, rng_seed):
        self.params = params
        self.n_channels = n_channels
        self._draws = []  # per channel, the bound expovariate of its own stream
        self._on = [False] * n_channels
        self._next = [math.inf] * n_channels
        self._last_query = [-math.inf] * n_channels
        if params.enabled:
            u = params.utilization
            for c in range(n_channels):
                rng = random.Random(f"{rng_seed}|{c + 1}")
                self._draws.append(rng.expovariate)
                on = self._on[c] = rng.random() < u
                self._next[c] = rng.expovariate(params.lambda_y if on else params.lambda_x)

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
        about one channel never changes another's answers. With PR off
        nothing is drawn.
        """
        if not 1 <= channel <= self.n_channels:
            raise ValueError(f"channel {channel} outside pool 1..{self.n_channels}")
        if not self.params.enabled:
            return False
        t = half_slot_index * 0.5
        idx = channel - 1
        if t < self._last_query[idx]:
            raise ValueError(
                f"time went backwards on channel {channel}: "
                f"{t} < {self._last_query[idx]}"
            )
        self._last_query[idx] = t
        on, nxt = self._on[idx], self._next[idx]
        if nxt <= t:
            draw = self._draws[idx]
            on_rate, off_rate = self.params.lambda_y, self.params.lambda_x
            while nxt <= t:
                on = not on
                nxt += draw(on_rate if on else off_rate)
            self._on[idx], self._next[idx] = on, nxt
        return on or nxt <= t + 0.5
