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
from math import lcm
from typing import Iterable, NamedTuple

from .kernels import ScaledView
from .model import WHOLE, Instance, ReportProfile


class AdPoint(NamedTuple):
    """One ad of a single advertiser as a (space, value) point: Fractions,
    or a view's scaled integers."""

    ad_id: str
    value: Fraction | int
    space: Fraction | int


ORIGIN = AdPoint("", 0, 0)  # the empty ad


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
    and space, with strictly decreasing incremental bang-per-buck. The test
    only compares and cross-multiplies, so scaling every value by one
    positive factor and every space by another changes nothing: it runs on
    Fractions (`--explain`) and on a view's integers (`fractional_opt`).
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
            below = stack[-2] if len(stack) >= 2 else ORIGIN
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


def fractional_opt(inst: Instance, rep: ReportProfile, view: ScaledView | None = None) -> FractionalSolution:
    """Exact optimum of the fractional relaxation, on the view's integers.

    The greedy walk over each advertiser's concave envelope that solves the
    LP relaxation of the multiple-choice knapsack (Sinha & Zoltners,
    Operations Research 1979). Each advertiser's envelope is
    `eliminate_dominated` of their rows' scaled (val, spc) points: it only
    compares and cross-multiplies, and one scale per axis keeps every
    comparison. Increments are walked by (incremental bang-per-buck desc,
    adv_id asc, upper ad_id asc), the bang-per-buck of a step of value dv
    and width dw keyed dv * (L // dw) over L, the lcm of the widths. Each
    increment replaces the advertiser's current holding by the next
    envelope point; the first increment that no longer fits is split
    fractionally and the walk stops. Fractions are made only for the
    solution's split weights and its objective. `view`, when given, is the
    view of (inst, rep).
    """
    if view is None:
        view = ScaledView(inst, rep)
    steps = []  # (dv, dw, adv_id, lower point | None, upper point)
    for adv_id in view.adv_ids:
        lo, hi = view.span(adv_id)
        survivors, _ = eliminate_dominated(
            [AdPoint(view.ad_ids[i], view.val[i], view.spc[i]) for i in range(lo, hi)]
        )
        prev: AdPoint | None = None
        for pt in survivors:
            below = prev or ORIGIN
            steps.append((pt.value - below.value, pt.space - below.space, adv_id, prev, pt))
            prev = pt
    scale = lcm(*(dw for _dv, dw, *_ in steps))
    steps.sort(key=lambda t: (-t[0] * (scale // t[1]), t[2], t[4].ad_id))

    held: dict[str, AdPoint] = {}
    remaining = view.total
    entries: dict[str, tuple[tuple[str, Fraction], ...]] = {}
    split_num, split_den = 0, 1  # the split advertiser's value over split_den
    fractional_adv: str | None = None
    for _dv, dw, adv_id, lower, upper in steps:
        if remaining == 0:
            break
        if dw <= remaining:
            held[adv_id] = upper
            remaining -= dw
        else:
            # fractional stop: fill the leftover space with a mix of
            # the current holding and the next envelope point
            pairs = []
            if lower is not None:
                pairs.append((lower.ad_id, Fraction(dw - remaining, dw)))
            pairs.append((upper.ad_id, Fraction(remaining, dw)))
            entries[adv_id] = tuple(pairs)
            split_num = (lower or ORIGIN).value * (dw - remaining) + upper.value * remaining
            split_den = dw
            fractional_adv = adv_id
            held.pop(adv_id, None)
            break
    for adv_id, pt in held.items():
        entries[adv_id] = ((pt.ad_id, WHOLE),)
    whole = sum(pt.value for pt in held.values())
    objective = Fraction(whole * split_den + split_num, split_den * view.value_scale)
    return FractionalSolution(entries=entries, objective=objective, fractional_adv=fractional_adv)
