"""Fractional relaxation: dominance elimination, concave envelopes, exact LP optimum.

The fractional problem lets every advertiser hold a convex combination of
their ads. Its optimum is reached by walking increments of the per-advertiser
concave envelopes in decreasing incremental bang-per-buck order, which also
yields the structural fact used everywhere else: at most one advertiser ends
up fractional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .model import Allocation, Instance, ReportProfile, effective_values


class AdPoint(NamedTuple):
    """One ad of a single advertiser as a (space, value) point."""

    ad_id: str
    value: Fraction
    space: Fraction


@dataclass(frozen=True)
class Removal:
    ad_id: str
    reason: str  # "dominated" or "lp-dominated"
    witnesses: tuple[str | None, ...]  # dominating ad id(s); None stands for the empty ad


def eliminate_dominated(points: Iterable[AdPoint]) -> tuple[tuple[AdPoint, ...], tuple[Removal, ...]]:
    """Drop dominated and LP-dominated ads of one advertiser.

    An ad is dominated when another one is no larger and no less valuable
    (the empty ad dominates anything with value <= 0); exact (value, space)
    ties keep the smaller ad_id. An ad is LP-dominated when a mix of its
    neighbours on the space axis matches its space with at least its value,
    which is the upper-concave-envelope test; equality pops as well.

    Survivors come back ordered by space, strictly increasing in both value
    and space, with strictly decreasing incremental bang-per-buck.
    """
    removals: list[Removal] = []
    alive: list[AdPoint] = []
    for pt in points:
        if pt.value <= 0:
            removals.append(Removal(pt.ad_id, "dominated", (None,)))
        else:
            alive.append(pt)

    # plain dominance: after sorting by (space asc, value desc, ad_id asc),
    # an ad is dominated exactly when some earlier ad has value >= its own
    alive.sort(key=lambda p: (p.space, -p.value, p.ad_id))
    survivors: list[AdPoint] = []
    best: AdPoint | None = None
    for pt in alive:
        if best is not None and best.value >= pt.value:
            removals.append(Removal(pt.ad_id, "dominated", (best.ad_id,)))
            continue
        survivors.append(pt)
        best = pt

    # upper envelope: (0, 0) sits at the bottom of the stack implicitly
    stack: list[AdPoint] = []
    for pt in survivors:
        while stack:
            prev = stack[-1]
            below = stack[-2] if len(stack) >= 2 else AdPoint("", Fraction(0), Fraction(0))
            lower = (prev.value - below.value) * (pt.space - prev.space)
            upper = (pt.value - prev.value) * (prev.space - below.space)
            if upper >= lower:
                removals.append(
                    Removal(prev.ad_id, "lp-dominated", (below.ad_id or None, pt.ad_id))
                )
                stack.pop()
            else:
                break
        stack.append(pt)
    return tuple(stack), tuple(removals)


def advertiser_points(inst: Instance, rep: ReportProfile, adv_id: str) -> list[AdPoint]:
    adv = inst.advertiser(adv_id)
    bid = rep.bids.get(adv_id, Fraction(0))
    subset = rep.subsets.get(adv_id, frozenset())
    return [
        AdPoint(ad.ad_id, bid * ad.alpha, ad.space)
        for ad in sorted(adv.ads, key=lambda a: a.ad_id)
        if ad.ad_id in subset
    ]


@dataclass(frozen=True)
class FractionalSolution:
    """Optimum of the fractional relaxation at reported values.

    `entries` maps adv_id to ((ad_id, weight), ...); every advertiser except
    possibly one holds a single ad at weight 1. `objective` is the reported
    value of the solution (welfare at true values is a separate question).
    """

    entries: dict[str, tuple[tuple[str, Fraction], ...]]
    objective: Fraction
    fractional_adv: str | None

    def used_space(self, inst: Instance) -> Fraction:
        total = Fraction(0)
        for adv_id, pairs in self.entries.items():
            adv = inst.advertiser(adv_id)
            for ad_id, weight in pairs:
                total += adv.ad(ad_id).space * weight
        return total

    def clicks(self, inst: Instance, adv_id: str) -> Fraction:
        total = Fraction(0)
        for ad_id, weight in self.entries.get(adv_id, ()):
            total += inst.advertiser(adv_id).ad(ad_id).alpha * weight
        return total


def fractional_opt(inst: Instance, rep: ReportProfile) -> FractionalSolution:
    """Exact optimum of the fractional relaxation.

    Walks envelope increments globally by (incremental bang-per-buck desc,
    adv_id asc, upper ad_id asc). Each increment replaces the advertiser's
    current holding by the next envelope point; the first increment that no
    longer fits is split fractionally and the walk stops.
    """
    chains: dict[str, tuple[AdPoint, ...]] = {}
    increments = []  # (ibpb, adv_id, lower point | None, upper point)
    for adv in inst.advertisers:
        survivors, _ = eliminate_dominated(advertiser_points(inst, rep, adv.adv_id))
        chains[adv.adv_id] = survivors
        prev: AdPoint | None = None
        for pt in survivors:
            dv = pt.value - (prev.value if prev else Fraction(0))
            dw = pt.space - (prev.space if prev else Fraction(0))
            increments.append((dv / dw, adv.adv_id, prev, pt))
            prev = pt
    increments.sort(key=lambda t: (-t[0], t[1], t[3].ad_id))

    held: dict[str, AdPoint] = {}
    remaining = inst.total_space
    entries: dict[str, tuple[tuple[str, Fraction], ...]] = {}
    objective = Fraction(0)
    fractional_adv: str | None = None
    for _ibpb, adv_id, lower, upper in increments:
        if remaining == 0:
            break
        lower_space = lower.space if lower else Fraction(0)
        lower_value = lower.value if lower else Fraction(0)
        inc = upper.space - lower_space
        if inc <= remaining:
            held[adv_id] = upper
            remaining -= inc
        else:
            # fractional stop: fill the leftover space with a mix of
            # the current holding and the next envelope point
            x_upper = remaining / inc
            x_lower = 1 - x_upper
            pairs = []
            if lower is not None:
                pairs.append((lower.ad_id, x_lower))
            pairs.append((upper.ad_id, x_upper))
            entries[adv_id] = tuple(pairs)
            objective += lower_value * x_lower + upper.value * x_upper
            fractional_adv = adv_id
            held.pop(adv_id, None)
            remaining = Fraction(0)
            break
    for adv_id, pt in held.items():
        entries[adv_id] = ((pt.ad_id, Fraction(1)),)
        objective += pt.value
    return FractionalSolution(entries=entries, objective=objective, fractional_adv=fractional_adv)


def two_approx_integral(inst: Instance, rep: ReportProfile) -> Allocation:
    """Integral allocation worth at least half the fractional optimum.

    If the fractional optimum is already integral it is returned as is.
    Otherwise exactly one advertiser holds a fractional mix; the result is
    the better (at reported values) of the other advertisers' integral
    holdings and that advertiser's single most valuable reported ad, ties
    preferring the integral holdings.
    """
    frac = fractional_opt(inst, rep)
    eff = effective_values(inst, rep)
    integral: dict[str, tuple[str, Fraction]] = {}
    integral_value = Fraction(0)
    for adv_id, pairs in frac.entries.items():
        if adv_id == frac.fractional_adv:
            continue
        ad_id, _ = pairs[0]
        integral[adv_id] = (ad_id, Fraction(1))
        integral_value += eff[(adv_id, ad_id)]
    if frac.fractional_adv is None:
        return Allocation(entries=integral)

    best_ad: str | None = None
    best_value = Fraction(0)
    split_adv = inst.advertiser(frac.fractional_adv)
    for ad in sorted(split_adv.ads, key=lambda a: a.ad_id):
        key = (split_adv.adv_id, ad.ad_id)
        if key in eff and ad.space <= inst.total_space and eff[key] > best_value:
            best_ad = ad.ad_id
            best_value = eff[key]

    if best_ad is not None and best_value > integral_value:
        return Allocation(entries={split_adv.adv_id: (best_ad, Fraction(1))})
    return Allocation(entries=integral)
