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
from typing import Callable, Collection, Mapping, Sequence

from . import exact, heuristics, kernels, monotone
from .kernels import ZERO
from .model import (
    Allocation,
    Instance,
    InvariantViolation,
    Mixture,
    NonMonotoneClickCurveError,
    Outcome,
    ReportProfile,
    as_mixture,
)

# --- the rule table --------------------------------------------------------


@dataclass(frozen=True)
class Branch:
    """A deterministic rule: `allocate(view)`, which reads any cap off
    `view.inst`; the `kinds` of its click curves' breakpoints, bids where
    the bidder's bang-per-buck ("bpb") or value ("value") ties another
    row's; `probe(bidder_probe, num, den)`, the clicks at the bid num / den
    read off a `kernels.BidderProbe` without running the rule; and whether
    its curves are proven nondecreasing (`monotone`: they are bisected,
    else scanned)."""

    allocate: Callable[[kernels.ScaledView], Allocation]
    kinds: tuple[str, ...]
    probe: Callable[[kernels.BidderProbe, int, int], Fraction]
    monotone: bool


# the rules are looked up at call time, so a wrapper installed on the module
# attribute (a tracer, a test) sees every call
BRANCHES = {
    "bpb": Branch(lambda v: monotone.bpb_allocation(v.inst, v.rep, v), ("bpb",), kernels.BidderProbe.bpb, True),
    "max-value": Branch(
        lambda v: monotone.max_value_allocation(v.inst, v.rep, v), ("value",), kernels.BidderProbe.max_value, True
    ),
    "greedy-bpb": Branch(
        lambda v: heuristics.greedy_by_bpb(v.inst, v.rep, v), ("bpb", "value"), kernels.BidderProbe.greedy_bpb, False
    ),
    "greedy-value": Branch(
        lambda v: heuristics.greedy_by_value(v.inst, v.rep, v), ("value",), kernels.BidderProbe.greedy_value, True
    ),
}

# rule name -> (branch names, the first branch's default probability); a
# two-branch rule is the lottery that plays its first branch with probability
# p and its second otherwise. A lottery over monotone rules is monotone
# (Mu'alem & Nisan, GEB 2008): "mixture" is the paper's 3-approximation.
# `monotone` and `heuristics` import this module at their top for their
# public lotteries: the package imports it first, so they bind it half-built
# and use it at call time, and each imported copy of the package keeps its own.
RULES = {
    "bpb": (("bpb",), None),
    "max-value": (("max-value",), None),
    "mixture": (("bpb", "max-value"), monotone.TRUTHFUL_MIX_P),
    "greedy-bpb": (("greedy-bpb",), None),
    "greedy-value": (("greedy-value",), None),
    "randomized-greedy": (("greedy-bpb", "max-value"), heuristics.RANDOMIZED_GREEDY_P),
}


@dataclass(frozen=True)
class AllocationRule:
    """A rule of `RULES` by name.

    `p` is the probability of a lottery's first branch (None: the rule's
    default). The greedy branches serve at most the instance's
    `cardinality_limit` advertisers. An unknown name or a weight outside
    [0, 1] raises `ValueError` here, so a rule that exists is valid.
    """

    name: str
    p: Fraction | None = None

    def __post_init__(self):
        if self.name not in RULES:
            raise ValueError(f"unknown allocation rule {self.name!r}")
        p = self.p
        if p is not None and not 0 <= p.numerator <= p.denominator:  # p in [0, 1], compared as integers
            raise ValueError(f"mixture weight must lie in [0, 1], got {p}")


def mixture_rule(p: Fraction = monotone.TRUTHFUL_MIX_P) -> AllocationRule:
    return AllocationRule("mixture", p=Fraction(p))


def rule_branches(rule: AllocationRule) -> tuple[tuple[Fraction, str], ...]:
    """(probability, branch name) pairs; branch names key `BRANCHES`."""
    names, default_p = RULES[rule.name]
    if len(names) == 1:
        return ((Fraction(1), names[0]),)
    p = default_p if rule.p is None else rule.p
    return ((p, names[0]), (1 - p, names[1]))


def branch_allocate(
    inst: Instance, rep: ReportProfile, branch: str, view: kernels.ScaledView | None = None
) -> Allocation:
    """One branch's allocation; `view`, when given, is the view of (inst, rep)."""
    if branch not in BRANCHES:
        raise ValueError(f"unknown branch {branch!r}")
    if view is None:
        view = kernels.ScaledView(inst, rep)
    return BRANCHES[branch].allocate(view)


def rule_allocate(
    inst: Instance, rep: ReportProfile, rule: AllocationRule, view: kernels.ScaledView | None = None
) -> Outcome:
    """The rule's outcome: every branch runs on one view of (inst, rep)."""
    if view is None:
        view = kernels.ScaledView(inst, rep)
    allocs = tuple((p, branch_allocate(inst, rep, b, view)) for p, b in rule_branches(rule))
    return allocs[0][1] if len(allocs) == 1 else Mixture(branches=allocs)


# --- click curves ---------------------------------------------------------


@dataclass(frozen=True)
class BidThresholds:
    """Piecewise-constant click curve of one advertiser's bid on (0, cap],
    stored as its runs: `steps` holds (lowest bid, clicks) per run in bid
    order from 0, each run's clicks strictly above the last's, and the last
    run ends at `cap`. A run starts at 0 or at a candidate breakpoint, a tie
    bid `ties[i] / den` (`_tie_candidates`' integers). `probes` counts the
    kernel reads (`kernels.BidderProbe`, no allocation) that found the runs.
    """

    adv_id: str
    rule_name: str
    cap: Fraction
    steps: tuple[tuple[Fraction, Fraction], ...]
    ties: Sequence[int]
    den: int
    probes: int

    @property
    def thresholds(self) -> tuple[Fraction, ...]:
        """0 and every candidate breakpoint up to the cap, as Fractions."""
        return (Fraction(0), *(Fraction(t, self.den) for t in self.ties))


def _tie_candidates(
    view: kernels.ScaledView, adv_id: str, kinds: Collection[str], cap: Fraction
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


def _build_curve(view: kernels.ScaledView, adv_id: str, cap: Fraction, branch: str, rule_name: str) -> BidThresholds:
    """The branch's click curve of `adv_id` on (0, cap], the rest of the
    report as in `view`: read off the bidder's `kernels.BidderProbe` at
    interval midpoints, bisected if the branch is `monotone`, else scanned.
    The interval bounds stay integers over `den`; one pass folds the
    intervals into runs, making a `Fraction` per run start only, and raises
    `NonMonotoneClickCurveError` (naming `rule_name`) where clicks drop."""
    rule = BRANCHES[branch]
    ties, den = _tie_candidates(view, adv_id, rule.kinds, cap)
    points = [0, *ties]
    top = cap.numerator * (den // cap.denominator)
    if points[-1] < top:
        points.append(top)
    bidder = view.probe(adv_id)
    probed: dict[int, Fraction] = {}

    def probe(j: int) -> Fraction:
        if j not in probed:
            # the interval's midpoint
            probed[j] = rule.probe(bidder, points[j] + points[j + 1], 2 * den)
        return probed[j]

    n = len(points) - 1
    clicks = _bisect_clicks(n, probe) if rule.monotone else [probe(j) for j in range(n)]
    steps = [(Fraction(0), clicks[0])]
    for j in range(1, n):
        x, level = clicks[j], steps[-1][1]
        if x is level or x == level:  # a bisected flat span is one shared object
            continue
        if x < level:
            lo, mid, hi = (Fraction(points[i], den) for i in (j - 1, j, j + 1))
            raise NonMonotoneClickCurveError(adv_id, rule_name, (lo, mid), (mid, hi), level, x)
        steps.append((Fraction(points[j], den), x))
    return BidThresholds(adv_id, rule_name, cap, tuple(steps), ties, den, len(probed))


def bid_thresholds(inst: Instance, rep: ReportProfile, adv_id: str, rule: AllocationRule) -> BidThresholds:
    """A one-branch rule's click curve for `adv_id`, capped at their
    reported bid. A lottery has one curve per branch, so it is refused."""
    branches = rule_branches(rule)
    if len(branches) > 1:
        names = " and ".join(repr(branch) for _prob, branch in branches)
        raise ValueError(f"rule {rule.name!r} is a lottery of {names}: its click curves are per branch")
    cap = rep.bids.get(adv_id, Fraction(0))
    if cap <= 0:
        return BidThresholds(adv_id, rule.name, cap, (), (), cap.denominator, 0)
    return _build_curve(kernels.ScaledView(inst, rep), adv_id, cap, branches[0][1], rule.name)


def threshold_prices_along(
    kind: str, curve: BidThresholds, bids: Sequence[Fraction], clicks: Sequence[Fraction]
) -> list[Fraction]:
    """A branch's threshold price at each of the ascending `bids`, where the
    bidder gets `clicks[k]` at `bids[k]`: the Myerson payment for
    "myerson", the GSP per-click price for "gsp".

    Myerson is b*x(b) minus the exact click-curve integral up to b (the
    curve ends at its cap). GSP's per-click price is the lowest bid keeping
    the current clicks: the start of the first run with them below b, else
    b; no clicks cost nothing. One cursor, the runs starting below the bid,
    serves every bid: O(bids + runs). The curve is probed inside its
    intervals only, so clicks at b below the level of the last run below b
    (a drop at the bid itself) show only here: they raise
    `NonMonotoneClickCurveError` on (b, b), except under GSP at no clicks.
    """
    steps = curve.steps
    gsp = kind == "gsp"
    # GSP: clicks -> start of the first run below the bid with them; keyed
    # by the lowest-terms (numerator, denominator), which hashes faster
    first: dict[tuple[int, int], Fraction] = {}
    below = ZERO  # Myerson: the integral over the runs before the last one below the bid
    out = []
    i = 0
    for bid, x in zip(bids, clicks):
        while i < len(steps) and steps[i][0] < bid:
            lo, level = steps[i]
            if gsp:
                first.setdefault((level.numerator, level.denominator), lo)
            elif i and steps[i - 1][1]:
                area = (lo - steps[i - 1][0]) * steps[i - 1][1]
                below = below + area if below else area  # no Fraction arithmetic on a zero sum
            i += 1
        if i:
            lo, level = steps[i - 1]
            # a probe's clicks are often the very object the curve holds
            if x is not level and x < level and (x or not gsp):
                raise NonMonotoneClickCurveError(curve.adv_id, curve.rule_name, (lo, bid), (bid, bid), level, x)
        if gsp:
            out.append(first.get((x.numerator, x.denominator), bid) if x else ZERO)
            continue
        paid = bid * x - below if below else bid * x
        if i and level:
            paid -= (min(bid, curve.cap) - lo) * level
        out.append(paid)
    return out


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


def threshold_payments(
    kind: str,
    bids: Sequence[Fraction],
    branches: tuple[tuple[Fraction, str], ...],
    clicks: Sequence[Sequence[Fraction]],
    curve: Callable[[str], BidThresholds],
) -> tuple[list[Fraction], tuple[BidThresholds | None, ...]]:
    """One bidder's "myerson" or "gsp" payment at each of the ascending
    positive `bids`, and the curves read: the one pricing path, for a
    report and for a best response's grid alike.

    The bidder gets `clicks[j][k]` in branch j at `bids[k]`. The payment is
    the sum over `branches` of probability times the price read off that
    branch's click curve, `curve(branch)` (`threshold_prices_along`; GSP's
    per-click price times the clicks). GSP charges a branch that gives no
    clicks at any bid nothing and reads no curve for it (None in the
    curves). Clicks at a bid below the curve's level just under it raise
    `NonMonotoneClickCurveError` (`threshold_prices_along`).
    """
    paid = [Fraction(0)] * len(bids)
    curves: list[BidThresholds | None] = []
    for (prob, branch), xs in zip(branches, clicks):
        if kind == "gsp" and not any(xs):
            curves.append(None)
            continue
        got = curve(branch)
        curves.append(got)
        prices = threshold_prices_along(kind, got, bids, xs)
        if kind == "gsp":
            prices = [cpc * x for cpc, x in zip(prices, xs)]
        for k, price in enumerate(prices):
            paid[k] += prob * price
    return paid, tuple(curves)


def _threshold_prices(
    inst: Instance, rep: ReportProfile, rule: AllocationRule, kind: str, view: kernels.ScaledView | None
) -> PricedOutcome:
    """Every bidder's `threshold_payments` at their reported bid. A bidder
    with no positive bid or no ad pays nothing and reads no curve.

    One view of the report (`view`, when given) serves the allocation and
    the probes of every curve.
    """
    branches = rule_branches(rule)
    if view is None:
        view = kernels.ScaledView(inst, rep)
    mixture = as_mixture(rule_allocate(inst, rep, rule, view))
    payments: dict[str, Fraction] = {}
    curves: dict[str, tuple[BidThresholds | None, ...]] = {}
    for adv in inst.advertisers:
        adv_id = adv.adv_id
        bid = rep.bids.get(adv_id, Fraction(0))
        if bid <= 0 or not rep.subsets.get(adv_id):
            payments[adv_id], curves[adv_id] = Fraction(0), ()
            continue
        (payments[adv_id],), curves[adv_id] = threshold_payments(
            kind,
            (bid,),
            branches,
            [(alloc.clicks(inst, adv_id),) for _prob, alloc in mixture.branches],
            lambda branch: _build_curve(view, adv_id, bid, branch, rule.name),
        )
    return _finish_outcome(inst, rep, mixture, payments, kind, curves)


def myerson_payment(
    inst: Instance, rep: ReportProfile, rule: AllocationRule, view: kernels.ScaledView | None = None
) -> PricedOutcome:
    """Threshold payments making the (monotone) rule truthful; `view`, when
    given, is the view of (inst, rep)."""
    return _threshold_prices(inst, rep, rule, "myerson", view)


def gsp_prices(
    inst: Instance, rep: ReportProfile, rule: AllocationRule, view: kernels.ScaledView | None = None
) -> PricedOutcome:
    """Generalized second price: per branch, clicks times the lowest
    bid that would have kept them; `view`, when given, is the view of
    (inst, rep)."""
    return _threshold_prices(inst, rep, rule, "gsp", view)


def vcg_payments(
    inst: Instance,
    rep: ReportProfile,
    dp: exact.CapacityDP | None = None,
) -> PricedOutcome:
    """Externality payments on top of the exact integral optimum.

    One view and one `exact.CapacityDP` give the optimum and, for each
    served advertiser, the optimum without them (`optima_without`): two DP
    passes, O(n·cap·m), instead of a solve per served advertiser,
    O((k+1)·n·cap·m). The view's integer scaling is valid for every
    sub-profile, so the payments stay exact. `dp`, when given, is that DP
    already built over a view of (inst, rep). The tests keep the re-solve
    per served advertiser as the oracle (`tests/oracles.vcg_by_resolving`).
    """
    if dp is None:
        dp = exact.CapacityDP(kernels.ScaledView(inst, rep))
    view = dp.view
    chosen = dp.choice()
    total = sum(view.val[i] for i in chosen if i >= 0)
    without = dp.optima_without(g for g, i in enumerate(chosen) if i >= 0)
    payments = {
        view.adv_ids[g]: Fraction(opt - (total - view.val[chosen[g]]), view.value_scale)
        for g, opt in without.items()
    }
    return _finish_outcome(inst, rep, as_mixture(view.allocation(chosen)), payments, "vcg")


# --- mechanisms -------------------------------------------------------------


@dataclass(frozen=True)
class Mechanism:
    """How reports turn into an outcome and payments: a rule of the table
    priced by "myerson" or "gsp", or "vcg" on the exact optimum."""

    pricing: str  # "gsp", "myerson" or "vcg"
    rule: AllocationRule | None = None  # None only for vcg

    def describe(self) -> str:
        if self.pricing == "vcg":
            return "vcg"
        return f"{self.rule.name}(p={self.rule.p})+{self.pricing}" if self.rule.p is not None else f"{self.rule.name}+{self.pricing}"

    def price(self, inst: Instance, rep: ReportProfile, view: kernels.ScaledView | None = None) -> PricedOutcome:
        """Outcome and payments; threshold pricing reads `view`, the view of (inst, rep), if given."""
        if self.pricing == "vcg":
            return vcg_payments(inst, rep)
        if self.pricing == "myerson":
            return myerson_payment(inst, rep, self.rule, view)
        return gsp_prices(inst, rep, self.rule, view)


# the comparison's mechanisms by name, in report order; "frac-opt" is the
# fractional optimum, a welfare baseline with neither a rule nor prices
MECHANISMS: dict[str, Mechanism | None] = {
    "truthful-3approx": Mechanism("myerson", mixture_rule()),
    "gsp-half": Mechanism("gsp", mixture_rule(monotone.GSP_MIX_P)),
    "vcg": Mechanism("vcg"),
    "frac-opt": None,
    "greedy-bpb": Mechanism("myerson", AllocationRule("greedy-bpb")),
    "greedy-value": Mechanism("myerson", AllocationRule("greedy-value")),
    "randomized-greedy": Mechanism("myerson", AllocationRule("randomized-greedy", heuristics.RANDOMIZED_GREEDY_P)),
}


def mixture_mechanism(pricing: str, p: Fraction | str | None = None) -> Mechanism:
    """`pricing` ("gsp", "myerson" or "vcg") on the bpb/max-value mixture
    that plays bpb with probability p (default: 1/2 under GSP, 2/3 under
    Myerson); VCG prices the exact optimum and ignores p, but refuses one
    outside [0, 1] too. The CLI's `--rule`/`--pricing` and `--p` name a
    mechanism through this."""
    if p is None:
        p = monotone.GSP_MIX_P if pricing == "gsp" else monotone.TRUTHFUL_MIX_P
    rule = mixture_rule(p)  # raises on a weight outside [0, 1]
    return Mechanism("vcg") if pricing == "vcg" else Mechanism(pricing, rule)


def gsp_mixture_mechanism(p: Fraction = monotone.GSP_MIX_P) -> Mechanism:
    return mixture_mechanism("gsp", p)


def myerson_mixture_mechanism(p: Fraction | None = None) -> Mechanism:
    return mixture_mechanism("myerson", p)
