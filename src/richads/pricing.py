"""Pricing: bid threshold curves, Myerson payments, GSP prices, VCG.

A rule's click curve for one advertiser is piecewise constant in their bid;
its breakpoints can only sit where the bid ties another ad's bang-per-buck
or value. Payments integrate that curve (Myerson), look up the lowest bid
preserving the current clicks (GSP), or charge externalities at an exact
optimum (VCG). Every payment is computed and checked in exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping

from . import exact, heuristics, kernels, monotone
from .model import (
    Allocation,
    Instance,
    InvariantViolation,
    Mixture,
    NonMonotoneClickCurveError,
    Outcome,
    ReportProfile,
    as_mixture,
    effective_values,
)

# --- allocation rule descriptors -----------------------------------------


@dataclass(frozen=True)
class AllocationRule:
    """A named allocation rule, possibly a two-branch mixture.

    `p` is the probability of the first branch for mixtures; `cardinality`
    caps how many advertisers the greedy variants may serve.
    """

    name: str
    p: Fraction | None = None
    cardinality: int | None = None


def bpb_rule() -> AllocationRule:
    return AllocationRule("bpb")


def max_value_rule() -> AllocationRule:
    return AllocationRule("max-value")


def mixture_rule(p: Fraction = monotone.TRUTHFUL_MIX_P) -> AllocationRule:
    return AllocationRule("mixture", p=Fraction(p))


def greedy_bpb_rule(cardinality: int | None = None) -> AllocationRule:
    return AllocationRule("greedy-bpb", cardinality=cardinality)


def greedy_value_rule(cardinality: int | None = None) -> AllocationRule:
    return AllocationRule("greedy-value", cardinality=cardinality)


def randomized_greedy_rule(
    p: Fraction = heuristics.RANDOMIZED_GREEDY_P, cardinality: int | None = None
) -> AllocationRule:
    return AllocationRule("randomized-greedy", p=Fraction(p), cardinality=cardinality)


def rule_branches(rule: AllocationRule) -> tuple[tuple[Fraction, str], ...]:
    """(probability, branch name) pairs; branch names key the dispatch below."""
    if rule.name == "mixture":
        return ((rule.p, "bpb"), (1 - rule.p, "max-value"))
    if rule.name == "randomized-greedy":
        return ((rule.p, "greedy-bpb"), (1 - rule.p, "max-value"))
    if rule.name in ("bpb", "max-value", "greedy-bpb", "greedy-value"):
        return ((Fraction(1), rule.name),)
    raise ValueError(f"unknown allocation rule {rule.name!r}")


def branch_allocate(
    inst: Instance,
    rep: ReportProfile,
    branch: str,
    cardinality: int | None = None,
    view: kernels.ScaledView | None = None,
) -> Allocation:
    """One branch's allocation; `view`, when given, is the view of (inst, rep)."""
    if branch == "bpb":
        return monotone.bpb_allocation(inst, rep, view)
    if branch == "max-value":
        return monotone.max_value_allocation(inst, rep, view)
    if branch == "greedy-bpb":
        return heuristics.greedy_by_bpb(inst, rep, cardinality, view)
    if branch == "greedy-value":
        return heuristics.greedy_by_value(inst, rep, cardinality, view)
    raise ValueError(f"unknown branch {branch!r}")


def rule_allocate(
    inst: Instance, rep: ReportProfile, rule: AllocationRule, view: kernels.ScaledView | None = None
) -> Outcome:
    branches = rule_branches(rule)
    if len(branches) == 1:
        return branch_allocate(inst, rep, branches[0][1], rule.cardinality, view)
    return Mixture(
        branches=tuple(
            (prob, branch_allocate(inst, rep, branch, rule.cardinality, view))
            for prob, branch in branches
        )
    )


# breakpoint kinds a branch's click curve can have: bids where the
# advertiser's bang-per-buck ties someone else's, or where values tie
_BRANCH_KINDS = {
    "bpb": ("bpb",),
    "max-value": ("value",),
    "greedy-bpb": ("bpb", "value"),
    "greedy-value": ("value",),
}

# branches whose click curve is proven nondecreasing in the bid (the two
# branches of the truthful mixture): their curves are bisected, and each
# probe is read off the bidder's `kernels.BidderProbe`. The greedy branches
# keep the exhaustive scan over rebid views, because for them a decreasing
# curve (NonMonotoneClickCurveError) is a finding the harness logs.
_MONOTONE_BRANCHES = {"bpb", "max-value"}


# --- click curves ---------------------------------------------------------


@dataclass(frozen=True)
class BidThresholds:
    """Piecewise-constant click curve of one advertiser's bid on (0, cap].

    `thresholds` starts at 0 and lists every candidate breakpoint up to the
    cap; `intervals` are the open spans between consecutive breakpoints
    (plus the final span up to the cap) and `interval_clicks[j]` is the
    advertiser's expected clicks anywhere inside `intervals[j]`. `probes`
    counts the allocations run to find those clicks.
    """

    adv_id: str
    rule_name: str
    cap: Fraction
    thresholds: tuple[Fraction, ...]
    intervals: tuple[tuple[Fraction, Fraction], ...]
    interval_clicks: tuple[Fraction, ...]
    probes: int = 0

    def steps(self) -> list[tuple[Fraction, Fraction]]:
        """(lowest bid, clicks) of each constant run of the curve, in bid order.

        A bisected curve fills each flat span with one shared clicks object,
        so neighbours that are the same object are skipped uncompared.
        """
        out: list[tuple[Fraction, Fraction]] = []
        prev = None
        for (lo, _hi), clicks in zip(self.intervals, self.interval_clicks):
            if clicks is not prev and (not out or clicks != out[-1][1]):
                out.append((lo, clicks))
            prev = clicks
        return out


def _tie_candidates(
    view: kernels.ScaledView, adv_id: str, kinds: tuple[str, ...], cap: Fraction
) -> tuple[list[int], int]:
    """Bids in (0, cap] where one of `adv_id`'s reported ads ties another
    advertiser's in bang-per-buck ("bpb") or value ("value").

    Returned as (sorted distinct numerators, their common denominator).
    The other rows' values and densities are the view's integers, shared by
    every curve of the report; per curve only the bidder's own factors are
    multiplied in. With V, S the view's value and space scales and L the
    density scale, an own ad of click rate alpha and space s ties another
    row of value `val` at val / (V alpha) and one of density numerator
    `dens` at dens * S * s / (V * L * alpha).
    """
    inst, rep = view.inst, view.rep
    cap = Fraction(cap)
    subset = rep.subsets.get(adv_id, frozenset())
    own = [ad for ad in inst.advertiser(adv_id).ads if ad.ad_id in subset and ad.alpha > 0]
    if not own:
        return [], cap.denominator
    lo, hi = view.span(adv_id)
    terms = []  # (other rows' numerators, tie multiplier, tie denominator)
    if "bpb" in kinds:
        scale, dens = view.densities()
        others = dens[:lo] + dens[hi:]
        if None in others:
            raise ZeroDivisionError(f"an ad competing with {adv_id!r} has zero space")
        for ad in own:
            alpha, space = ad.alpha, ad.space
            terms.append((
                others,
                view.space_scale * space.numerator * alpha.denominator,
                view.value_scale * scale * space.denominator * alpha.numerator,
            ))
    if "value" in kinds:
        others = view.val[:lo] + view.val[hi:]
        for ad in own:
            terms.append((others, ad.alpha.denominator, view.value_scale * ad.alpha.numerator))
    den = lcm(cap.denominator, *(d for _others, _m, d in terms))
    ties: set[int] = set()
    for others, m, d in terms:
        m *= den // d
        ties.update([x * m for x in others])
    limit = cap.numerator * (den // cap.denominator)
    # zero-space own ads (possible in unvalidated instances) tie at 0
    return sorted(t for t in ties if 0 < t <= limit), den


def _clicks_with_bid(
    inst: Instance,
    view: kernels.ScaledView,
    adv_id: str,
    num: int,
    den: int,
    branches: tuple[tuple[Fraction, str], ...],
    cardinality: int | None,
) -> Fraction:
    """`adv_id`'s expected clicks at the bid num / den, the rest of the
    report as in `view`.

    A monotone branch reads them off the bidder's `BidderProbe`; a greedy
    branch runs its rule on the view rebid. A lone branch of probability 1
    (every curve a payment builds) returns its clicks as they are.
    """
    terms = []
    rebid = None
    for prob, branch in branches:
        if branch in _MONOTONE_BRANCHES:
            clicks = view.probe(adv_id).clicks(branch, num, den)
        else:
            if rebid is None:
                rebid = view.rebid(adv_id, Fraction(num, den))
            clicks = branch_allocate(inst, rebid.rep, branch, cardinality, rebid).clicks(inst, adv_id)
        terms.append(clicks if prob == 1 else prob * clicks)
    return terms[0] if len(terms) == 1 else sum(terms, Fraction(0))


def _scan_clicks(n: int, probe: Callable[[int], Fraction]) -> list[Fraction]:
    """Clicks on each of n intervals, probing every one."""
    return [probe(j) for j in range(n)]


def _bisect_clicks(n: int, probe: Callable[[int], Fraction]) -> list[Fraction]:
    """Clicks on each of n intervals of a curve known to be nondecreasing.

    A span whose two end intervals have equal clicks is filled without
    probing its inside; otherwise it is split at its middle interval. A
    nondecreasing curve with L levels thus costs O(L log n) probes, and no
    interval is probed twice, so never more than the scan. A decrease
    between probed intervals survives into the result.
    """
    if n == 0:
        return []
    clicks = [Fraction(0)] * n
    clicks[0] = probe(0)
    clicks[-1] = probe(n - 1) if n > 1 else clicks[0]
    spans = [(0, n - 1)]
    while spans:
        i, j = spans.pop()
        if clicks[i] == clicks[j]:
            clicks[i + 1 : j] = [clicks[i]] * (j - i - 1)
        elif j - i > 1:
            m = (i + j) // 2
            clicks[m] = probe(m)
            spans += [(i, m), (m, j)]
    return clicks


def _build_curve(
    inst: Instance,
    rep: ReportProfile,
    adv_id: str,
    cap: Fraction,
    branches: tuple[tuple[Fraction, str], ...],
    cardinality: int | None,
    rule_name: str,
    view: kernels.ScaledView | None = None,
) -> BidThresholds:
    """Click curve on (0, cap], probed at interval midpoints.

    `view`, when given, is the view of (inst, rep); every probe reads it.
    """
    kinds: tuple[str, ...] = ()
    for _prob, branch in branches:
        for kind in _BRANCH_KINDS[branch]:
            if kind not in kinds:
                kinds = kinds + (kind,)
    if view is None:
        view = kernels.ScaledView(inst, rep)
    ties, den = _tie_candidates(view, adv_id, kinds, cap)
    thresholds = [Fraction(0)] + [Fraction(t, den) for t in ties]
    intervals = list(zip(thresholds, thresholds[1:]))
    points = [0] + ties  # the interval bounds as numerators over `den`
    if thresholds[-1] < cap:
        intervals.append((thresholds[-1], cap))
        points.append(cap.numerator * (den // cap.denominator))
    probed: dict[int, Fraction] = {}

    def probe(j: int) -> Fraction:
        if j not in probed:
            # the interval's midpoint
            probed[j] = _clicks_with_bid(
                inst, view, adv_id, points[j] + points[j + 1], 2 * den, branches, cardinality
            )
        return probed[j]

    if all(branch in _MONOTONE_BRANCHES for _prob, branch in branches):
        clicks = _bisect_clicks(len(intervals), probe)
    else:
        clicks = _scan_clicks(len(intervals), probe)
    # a bisected flat span is one shared object: compare only where it changes
    for j in range(1, len(clicks)):
        if clicks[j] is not clicks[j - 1] and clicks[j] < clicks[j - 1]:
            raise NonMonotoneClickCurveError(
                adv_id, rule_name, intervals[j - 1], intervals[j], clicks[j - 1], clicks[j]
            )
    return BidThresholds(
        adv_id=adv_id,
        rule_name=rule_name,
        cap=cap,
        thresholds=tuple(thresholds),
        intervals=tuple(intervals),
        interval_clicks=tuple(clicks),
        probes=len(probed),
    )


def bid_thresholds(inst: Instance, rep: ReportProfile, adv_id: str, rule: AllocationRule) -> BidThresholds:
    """The rule's click curve for `adv_id`, capped at their reported bid."""
    cap = rep.bids.get(adv_id, Fraction(0))
    if cap <= 0:
        return BidThresholds(adv_id, rule.name, cap, (Fraction(0),), (), ())
    return _build_curve(inst, rep, adv_id, cap, rule_branches(rule), rule.cardinality, rule.name)


def myerson_from_curve(curve: BidThresholds, bid: Fraction, clicks_at_bid: Fraction) -> Fraction:
    """Myerson payment b*x(b) minus the exact click-curve integral up to b."""
    paid = bid * clicks_at_bid
    steps = curve.steps()
    ends = ([lo for lo, _clicks in steps[1:]] + [curve.intervals[-1][1]]) if steps else []
    for (lo, clicks), hi in zip(steps, ends):
        if lo >= bid:
            break
        paid -= (min(hi, bid) - lo) * clicks
    return paid


def gsp_cpc_from_curve(curve: BidThresholds, bid: Fraction, clicks_at_bid: Fraction) -> Fraction:
    """Lowest bid keeping the current clicks: GSP's per-click price."""
    if clicks_at_bid == 0:
        return Fraction(0)
    # the first interval with these clicks starts a run of the curve
    for lo, clicks in curve.steps():
        if lo >= bid:
            break
        if clicks == clicks_at_bid:
            return lo
    return bid


# --- priced outcomes -------------------------------------------------------


@dataclass(frozen=True)
class PricedOutcome:
    """An allocation lottery with per-advertiser payments.

    `cpc` is payment divided by expected clicks (None when clicks are zero).
    Invariant, checked at construction sites: 0 <= payment <= bid * clicks.
    `curves` holds, per advertiser and branch, the click curve a threshold
    payment was read from (None where no curve was needed); it is empty
    for VCG.
    """

    rule_name: str  # "myerson", "gsp" or "vcg"
    mixture: Mixture
    payments: Mapping[str, Fraction]
    cpc: Mapping[str, Fraction | None]
    curves: Mapping[str, tuple[BidThresholds | None, ...]] = field(default_factory=dict)

    def total_payment(self) -> Fraction:
        return sum(self.payments.values(), Fraction(0))

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_name,
            "branches": [
                {
                    "probability": str(prob),
                    "entries": {
                        adv: {"ad": ad, "weight": str(w)} for adv, (ad, w) in sorted(alloc.entries.items())
                    },
                }
                for prob, alloc in self.mixture.branches
            ],
            "payments": {adv: str(p) for adv, p in sorted(self.payments.items())},
            "cpc": {adv: (None if c is None else str(c)) for adv, c in sorted(self.cpc.items())},
        }


def _finish_outcome(
    inst: Instance,
    rep: ReportProfile,
    mixture: Mixture,
    payments: dict[str, Fraction],
    rule_name: str,
    curves: dict[str, tuple[BidThresholds | None, ...]] | None = None,
) -> PricedOutcome:
    cpc: dict[str, Fraction | None] = {}
    for adv in inst.advertisers:
        p = payments.get(adv.adv_id, Fraction(0))
        x = mixture.clicks(inst, adv.adv_id)
        bid = rep.bids.get(adv.adv_id, Fraction(0))
        if not 0 <= p <= bid * x:
            raise InvariantViolation(
                f"{rule_name} payment {p} for {adv.adv_id} violates 0 <= p <= bid*clicks = {bid * x}"
            )
        payments[adv.adv_id] = p
        cpc[adv.adv_id] = p / x if x > 0 else None
    return PricedOutcome(
        rule_name=rule_name, mixture=mixture, payments=payments, cpc=cpc, curves=curves or {}
    )


def _threshold_prices(
    inst: Instance,
    rep: ReportProfile,
    rule: AllocationRule,
    rule_name: str,
    price: Callable[[BidThresholds, Fraction, Fraction], Fraction],
    skip_unserved: bool,
) -> PricedOutcome:
    """Sum over branches of probability times `price(curve, bid, clicks)`.

    With `skip_unserved`, a branch that gives the advertiser no clicks is
    charged nothing and builds no curve. One view of the report serves the
    allocation and the probes of every curve.
    """
    branches = rule_branches(rule)
    view = kernels.ScaledView(inst, rep)
    mixture = as_mixture(rule_allocate(inst, rep, rule, view))
    payments: dict[str, Fraction] = {}
    curves: dict[str, tuple[BidThresholds | None, ...]] = {}
    for adv in inst.advertisers:
        bid = rep.bids.get(adv.adv_id, Fraction(0))
        if bid <= 0 or not rep.subsets.get(adv.adv_id, frozenset()):
            payments[adv.adv_id] = Fraction(0)
            curves[adv.adv_id] = ()
            continue
        total = Fraction(0)
        adv_curves: list[BidThresholds | None] = []
        for (prob, branch), (_p2, alloc) in zip(branches, mixture.branches):
            x_b = alloc.clicks(inst, adv.adv_id)
            if skip_unserved and x_b == 0:
                adv_curves.append(None)
                continue
            curve = _build_curve(
                inst, rep, adv.adv_id, bid, ((Fraction(1), branch),), rule.cardinality, rule.name, view
            )
            adv_curves.append(curve)
            total += prob * price(curve, bid, x_b)
        payments[adv.adv_id] = total
        curves[adv.adv_id] = tuple(adv_curves)
    return _finish_outcome(inst, rep, mixture, payments, rule_name, curves)


def myerson_payment(inst: Instance, rep: ReportProfile, rule: AllocationRule) -> PricedOutcome:
    """Threshold payments making the (monotone) rule truthful."""
    return _threshold_prices(inst, rep, rule, "myerson", myerson_from_curve, skip_unserved=False)


def gsp_prices(inst: Instance, rep: ReportProfile, rule: AllocationRule) -> PricedOutcome:
    """Generalized second price: per branch, clicks times the lowest
    bid that would have kept them."""

    def price(curve: BidThresholds, bid: Fraction, clicks: Fraction) -> Fraction:
        return gsp_cpc_from_curve(curve, bid, clicks) * clicks

    return _threshold_prices(inst, rep, rule, "gsp", price, skip_unserved=True)


def reported_value(inst: Instance, rep: ReportProfile, alloc: Allocation) -> Fraction:
    eff = effective_values(inst, rep)
    return sum(
        (eff[(adv_id, ad_id)] * weight for adv_id, (ad_id, weight) in alloc.entries.items()),
        Fraction(0),
    )


def vcg_payments(
    inst: Instance,
    rep: ReportProfile,
    exact_solver: Callable[[Instance, ReportProfile], Allocation] | None = None,
) -> PricedOutcome:
    """Externality payments on top of the exact integral optimum.

    One view and one `exact.CapacityDP` give the optimum and, for each
    served advertiser, the optimum without them (`optima_without`): two DP
    passes, O(n·cap·m), instead of a solve per served advertiser,
    O((k+1)·n·cap·m). The view's integer scaling is valid for every
    sub-profile, so the payments stay exact. With `exact_solver`, the
    profile without each served advertiser is re-solved by it instead; the
    tests use that loop as the oracle.
    """
    if exact_solver is not None:
        return _vcg_by_resolving(inst, rep, exact_solver)
    view = kernels.ScaledView(inst, rep)
    dp = exact.CapacityDP(view, inst.cardinality_limit)
    chosen = dp.choice()
    total = sum(view.val[i] for i in chosen if i >= 0)
    without = dp.optima_without(g for g, i in enumerate(chosen) if i >= 0)
    payments = {
        view.adv_ids[g]: Fraction(opt - (total - view.val[chosen[g]]), view.value_scale)
        for g, opt in without.items()
    }
    return _finish_outcome(inst, rep, as_mixture(exact.to_allocation(view, chosen)), payments, "vcg")


def _vcg_by_resolving(
    inst: Instance, rep: ReportProfile, solver: Callable[[Instance, ReportProfile], Allocation]
) -> PricedOutcome:
    """VCG with one `solver` call per served advertiser, on the profile without them."""
    alloc = solver(inst, rep)
    eff = effective_values(inst, rep)
    total = reported_value(inst, rep, alloc)
    payments: dict[str, Fraction] = {}
    for adv in inst.advertisers:
        entry = alloc.entries.get(adv.adv_id)
        if entry is None:
            payments[adv.adv_id] = Fraction(0)
            continue
        term = eff[(adv.adv_id, entry[0])] * entry[1]
        without = rep.replace(adv.adv_id, Fraction(0), frozenset())
        sw_without = reported_value(inst, without, solver(inst, without))
        payments[adv.adv_id] = sw_without - (total - term)
    return _finish_outcome(inst, rep, as_mixture(alloc), payments, "vcg")
