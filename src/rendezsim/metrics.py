"""PTM, CTM, ATTR, ATM and PTDD as numbers; experiments writes them as CSV cells."""

import math
from collections import namedtuple

Z95 = 1.96


class AggregationError(ValueError):
    """An aggregation over no runs."""


def ptm(discovered_dnl, ground_dnl):
    """Percentage of ground direct neighbours present in the discovered DNL.

    Defined as 100 for an empty ground list (unreachable for connected
    deployments with N >= 2).
    """
    if not ground_dnl:
        return 100.0
    hit = len(set(discovered_dnl) & set(ground_dnl))
    return 100.0 * hit / len(ground_dnl)


def ctm(ptm_values):
    """Arithmetic mean of per-node PTM values."""
    values = list(ptm_values)
    if not values:
        raise ValueError("need at least one PTM value")
    return sum(values) / len(values)


def mean_or_none(values):
    """Arithmetic mean, or None when some value is None (a missing mark)."""
    return None if None in values else sum(values) / len(values)


def _ci95(values):
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return Z95 * math.sqrt(var / n)


class AggregateMetrics(namedtuple(
        "AggregateMetrics", "runs attr_policy attr_n1 attr_full atm ptdd attr_ci95 atm_ci95")):
    """One cell's metrics; the fields are the aggregate CSV's last columns, in order.

    attr_policy is None when the policy never fired, attr_full when runs
    stopped before full discovery, and ptdd unless both n1 and full marks exist.
    """

    __slots__ = ()


def aggregate(summaries):
    """ATTR/ATM/PTDD with 95% half-widths over one scenario's run summaries.

    summaries are engine.RunSummary values, which name no scenario: the caller
    groups them by cell. An ATTR is the mean over runs of one node-mean field
    (policy stop, first N-1, first full discovery), and None when some run
    lacks the mark; PTDD is attr_full - attr_n1. The ATTR half-width is over
    the policy means, or the full-discovery means when the policy never fired.
    """
    if not summaries:
        raise AggregationError("no runs to aggregate")
    ctm_values, policy, n1, full = zip(*summaries)
    attr_policy, attr_n1, attr_full = map(mean_or_none, (policy, n1, full))
    return AggregateMetrics(
        runs=len(summaries),
        attr_policy=attr_policy,
        attr_n1=attr_n1,
        attr_full=attr_full,
        atm=sum(ctm_values) / len(ctm_values),
        ptdd=None if attr_n1 is None or attr_full is None else attr_full - attr_n1,
        attr_ci95=_ci95(full if attr_policy is None else policy),
        atm_ci95=_ci95(ctm_values),
    )
