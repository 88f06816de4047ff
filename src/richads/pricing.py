"""Pricing: bid threshold curves, Myerson payments, GSP prices, VCG.

A rule's click curve for one advertiser is piecewise constant in their bid;
its breakpoints can only sit where the bid ties another ad's bang-per-buck
or value, and each rule reads off its probe's tables which of those ties
can move it. Payments integrate that curve (Myerson), look up the lowest bid
preserving the current clicks (GSP), or charge externalities at an exact
optimum (VCG). Every payment is computed and checked in exact rationals.

Threshold pricing runs in integers from probe to payment: a bidder's click
levels are numerators over their `kernels.BidderProbe.click_den`, a curve's
run starts numerators over its `den`, and a pass prices a whole ascending
grid of bids over one common denominator, so the callers make one
`Fraction` per payment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Sequence

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
    parse_rational,
)

ZERO = Fraction(0)

# --- the rule table --------------------------------------------------------


@dataclass(frozen=True)
class Branch:
    """A deterministic rule: `allocate(view)`, which reads any cap off
    `view.inst`; `breakpoints(bidder_probe, cap)`, the bids in (0, cap]
    where the branch's probe can change, read off the probe's tables as
    (sorted numerators, their denominator), the only places its click
    curves can step; `probe(bidder_probe, num, den)`, the clicks at the bid
    num / den read off a `kernels.BidderProbe` without running the rule, as
    an integer over the probe's `click_den`; and whether its curves are
    proven nondecreasing (`monotone`: they are bisected, else scanned)."""

    allocate: Callable[[kernels.ScaledView], Allocation]
    breakpoints: Callable[[kernels.BidderProbe, Fraction], tuple[list[int], int]]
    probe: Callable[[kernels.BidderProbe, int, int], int]
    monotone: bool


# the rules are looked up at call time, so a wrapper installed on the module
# attribute (a tracer, a test) sees every call; greedy-bpb is scanned, so its
# breakpoints are every pairwise tie of both kinds and every drop stays findable
_probe = kernels.BidderProbe
BRANCHES = {
    "bpb": Branch(lambda v: monotone.bpb_allocation(v.inst, v.rep, v), _probe.bpb_breakpoints, _probe.bpb, True),
    "max-value": Branch(
        lambda v: monotone.max_value_allocation(v.inst, v.rep, v), _probe.max_value_breakpoints, _probe.max_value, True
    ),
    "greedy-bpb": Branch(
        lambda v: heuristics.greedy_by_bpb(v.inst, v.rep, v),
        lambda probe, cap: probe.ties(("bpb", "value"), cap),
        _probe.greedy_bpb,
        False,
    ),
    "greedy-value": Branch(
        lambda v: heuristics.greedy_by_value(v.inst, v.rep, v), _probe.greedy_value_breakpoints, _probe.greedy_value, True
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
    default), an int or a `Fraction`, kept as a `Fraction`. The greedy branches
    serve at most the instance's `cardinality_limit` advertisers. Another name
    or weight raises `ValueError` here, so a rule that exists is valid.
    """

    name: str
    p: Fraction | None = None

    def __post_init__(self):
        if self.name not in RULES:
            raise ValueError(f"unknown allocation rule {self.name!r}")
        p = self.p
        if isinstance(p, int) and not isinstance(p, bool):  # a bool is an int, but not a weight
            object.__setattr__(self, "p", Fraction(p))
        elif p is not None and not isinstance(p, Fraction):
            raise ValueError(f"mixture weight must be an int or a Fraction, got {p!r}")
        if p is not None and not 0 <= p.numerator <= p.denominator:  # p in [0, 1], compared as integers
            raise ValueError(f"mixture weight must lie in [0, 1], got {p}")


def mixture_rule(p: Fraction | int | str = monotone.TRUTHFUL_MIX_P) -> AllocationRule:
    """The bpb/max-value mixture playing bpb with probability `p`, read by
    `parse_rational`: a float or a bool raises `ValueError`."""
    return AllocationRule("mixture", p=parse_rational(p))


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
    """One branch's allocation; `view`, when given, is the view of (inst,
    rep), and keeps the allocation for every later call on it."""
    if branch not in BRANCHES:
        raise ValueError(f"unknown branch {branch!r}")
    if view is None:
        view = kernels.ScaledView(inst, rep)
    return view.memo(("alloc", branch), BRANCHES[branch].allocate, view)


def rule_allocate(
    inst: Instance, rep: ReportProfile, rule: AllocationRule, view: kernels.ScaledView | None = None
) -> Outcome:
    """The rule's outcome: every branch runs on one view of (inst, rep),
    once per view (`branch_allocate`)."""
    if view is None:
        view = kernels.ScaledView(inst, rep)
    allocs = tuple((p, branch_allocate(inst, rep, b, view)) for p, b in rule_branches(rule))
    return allocs[0][1] if len(allocs) == 1 else Mixture(branches=allocs)


# --- click curves ---------------------------------------------------------


@dataclass(frozen=True)
class BidThresholds:
    """Piecewise-constant click curve of one advertiser's bid on (0, cap],
    stored as its runs in integers: `runs` holds (lowest bid, clicks) per
    run in bid order from 0, the bid a numerator over `den` and the clicks
    one over `click_den` (the bidder's `kernels.BidderProbe.click_den`),
    each run's clicks strictly above the last's; the last run ends at
    `cap`. A run starts at 0 or at a breakpoint `ties[i] / den`, one of
    the bids the curve was bisected (or scanned) over: the branch's
    `Branch.breakpoints`, the bids where its probe can change, a subset of
    the pairwise ties (`kernels.BidderProbe.ties`). `probes` counts the
    kernel reads (`kernels.BidderProbe`, no allocation) that found the
    runs. `steps` and `thresholds` give the runs and 0 with the
    breakpoints as Fractions, built on read. A curve is the bidder's and
    the branch's, not a rule's: a view keeps one for every rule priced on
    it, so an error read off it names the rule its caller passes in.
    """

    adv_id: str
    cap: Fraction
    runs: tuple[tuple[int, int], ...]
    ties: Sequence[int]
    den: int
    click_den: int
    probes: int

    @property
    def steps(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The runs as (lowest bid, clicks) Fractions."""
        return tuple((Fraction(lo, self.den), Fraction(x, self.click_den)) for lo, x in self.runs)

    @property
    def thresholds(self) -> tuple[Fraction, ...]:
        """0 and every breakpoint up to the cap, as Fractions."""
        return (Fraction(0), *(Fraction(t, self.den) for t in self.ties))


def _bisect_clicks(n: int, probe: Callable[[int], int]) -> list[int]:
    """Clicks on each of n intervals of a curve known to be nondecreasing.

    A span whose two end intervals have equal clicks is filled without
    probing its inside; otherwise it is split at its middle interval. A
    nondecreasing curve with L levels thus costs O(L log n) probes, and no
    interval is probed twice, so never more than the scan. A decrease
    between probed intervals survives into the result.
    """
    if n == 0:
        return []
    clicks = [0] * n
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
    report as in `view`, all read off the bidder's `kernels.BidderProbe`:
    the branch's `breakpoints`, the bids where its probe can change, bound
    the intervals, and its clicks at their midpoints fill them, bisected if
    the branch is `monotone`, else scanned. Bounds and clicks stay
    integers; one pass folds the intervals into runs and raises
    `NonMonotoneClickCurveError` (naming `rule_name`) where clicks drop.
    The tests keep the curve over every pairwise tie as the oracle
    (`tests/oracles.curve_over_pairwise_ties`)."""
    rule = BRANCHES[branch]
    bidder = view.probe(adv_id)
    ties, den = rule.breakpoints(bidder, cap)
    points = [0, *ties]
    top = cap.numerator * (den // cap.denominator)
    if points[-1] < top:
        points.append(top)
    probed: dict[int, int] = {}

    def probe(j: int) -> int:
        if j not in probed:
            # the interval's midpoint
            probed[j] = rule.probe(bidder, points[j] + points[j + 1], 2 * den)
        return probed[j]

    n = len(points) - 1
    clicks = _bisect_clicks(n, probe) if rule.monotone else [probe(j) for j in range(n)]
    runs = [(0, clicks[0])]
    for j in range(1, n):
        x, level = clicks[j], runs[-1][1]
        if x == level:
            continue
        if x < level:
            lo, mid, hi = (Fraction(points[i], den) for i in (j - 1, j, j + 1))
            c = bidder.click_den
            raise NonMonotoneClickCurveError(
                adv_id, rule_name, (lo, mid), (mid, hi), Fraction(level, c), Fraction(x, c)
            )
        runs.append((points[j], x))
    return BidThresholds(adv_id, cap, tuple(runs), ties, den, bidder.click_den, len(probed))


def bid_thresholds(inst: Instance, rep: ReportProfile, adv_id: str, rule: AllocationRule) -> BidThresholds:
    """A one-branch rule's click curve for `adv_id`, capped at their
    reported bid. A lottery has one curve per branch, so it is refused."""
    branches = rule_branches(rule)
    if len(branches) > 1:
        names = " and ".join(repr(branch) for _prob, branch in branches)
        raise ValueError(f"rule {rule.name!r} is a lottery of {names}: its click curves are per branch")
    cap = rep.bids.get(adv_id, Fraction(0))
    if cap <= 0:
        return BidThresholds(adv_id, cap, (), (), cap.denominator, 1, 0)
    return _build_curve(kernels.ScaledView(inst, rep), adv_id, cap, branches[0][1], rule.name)


def clicks_over(x: Fraction, den: int) -> int:
    """The clicks `x` as a numerator over `den`, a bidder's `click_den`:
    an allocation serves one of the bidder's rows whole, so x's denominator
    divides it; anything else raises `InvariantViolation`."""
    q, r = divmod(den, x.denominator)
    if r:
        raise InvariantViolation(f"clicks {x} are not a multiple of 1/{den}")
    return x.numerator * q


def threshold_prices_along(
    kind: str, curve: BidThresholds, bids: Sequence[int], bid_den: int, clicks: Sequence[int], rule_name: str
) -> tuple[list[int], int]:
    """A branch's threshold price at each of the ascending bids
    `bids[k] / bid_den`, where the bidder gets `clicks[k] / curve.click_den`
    there: the Myerson payment for "myerson", the GSP per-click price for
    "gsp". Returns (numerators, their denominator): L * click_den for
    Myerson and L for GSP, L the lcm of `bid_den` and the curve's bid
    denominators.

    Myerson is b*x(b) minus the exact click-curve integral up to b (the
    curve ends at its cap). GSP's per-click price is the lowest bid keeping
    the current clicks: the start of the first run with them below b, else
    b; no clicks cost nothing. One cursor, the runs starting below the bid,
    serves every bid: O(bids + runs), all in integers over L. The curve is
    probed inside its intervals only, so clicks at b below the level of
    the last run below b (a drop at the bid itself) show only here: they
    raise `NonMonotoneClickCurveError` on (b, b), naming `rule_name`, except
    under GSP at no clicks. The tests keep the pass in Fractions as the oracle
    (`tests/oracles.threshold_prices_along`).
    """
    scale = lcm(bid_den, curve.den, curve.cap.denominator)
    f, g = scale // bid_den, scale // curve.den
    runs = [(lo * g, level) for lo, level in curve.runs] if g > 1 else curve.runs
    if f > 1:
        bids = [b * f for b in bids]
    cap = curve.cap.numerator * (scale // curve.cap.denominator)
    gsp = kind == "gsp"
    first: dict[int, int] = {}  # GSP: clicks -> start of the first run below the bid with them
    below = 0  # Myerson: the integral over the runs before the last one below the bid
    out = []
    i = 0
    for b, x in zip(bids, clicks):
        while i < len(runs) and runs[i][0] < b:
            lo, level = runs[i]
            if gsp:
                first.setdefault(level, lo)
            elif i:
                below += (lo - runs[i - 1][0]) * runs[i - 1][1]
            i += 1
        if i:
            lo, level = runs[i - 1]
            if x < level and (x or not gsp):
                at, c = Fraction(b, scale), curve.click_den
                raise NonMonotoneClickCurveError(
                    curve.adv_id, rule_name, (Fraction(lo, scale), at), (at, at),
                    Fraction(level, c), Fraction(x, c),
                )
        if gsp:
            out.append(first.get(x, b) if x else 0)
            continue
        paid = b * x - below
        if i and level:
            paid -= (min(b, cap) - lo) * level
        out.append(paid)
    return out, scale if gsp else scale * curve.click_den


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
    rule_name: str,
    priced: Mapping[str, tuple[int, int, int, int]],
    curves: dict[str, tuple[BidThresholds | None, ...]] | None = None,
) -> PricedOutcome:
    """The priced outcome, each advertiser's payment p checked against
    0 <= p <= bid * clicks in integers. `priced[adv_id]` is (p's numerator,
    its denominator, the expected clicks' numerator, their denominator), for
    every advertiser, both denominators positive. A payment outside the
    bound raises `InvariantViolation`; otherwise it makes one `Fraction`,
    and its cost per click another. The tests keep the check in Fractions
    as the oracle (`tests/oracles.finish_outcome`)."""
    payments: dict[str, Fraction] = {}
    cpc: dict[str, Fraction | None] = {}
    for adv_id in inst.adv_ids():
        pn, pd, xn, xd = priced[adv_id]
        bid = rep.bids.get(adv_id, ZERO)
        if pn < 0 or pn * xd * bid.denominator > bid.numerator * xn * pd:
            p, x = Fraction(pn, pd), Fraction(xn, xd)
            raise InvariantViolation(
                f"{rule_name} payment {p} for {adv_id} violates 0 <= p <= bid*clicks = {bid * x}"
            )
        payments[adv_id] = Fraction(pn, pd)
        cpc[adv_id] = Fraction(pn * xd, pd * xn) if xn > 0 else None
    return PricedOutcome(
        rule_name=rule_name, mixture=mixture, payments=payments, cpc=cpc, curves=curves or {}
    )


def threshold_payments(
    kind: str,
    bids: Sequence[int],
    bid_den: int,
    branches: tuple[tuple[Fraction, str], ...],
    clicks: Sequence[Sequence[int]],
    curve: Callable[[str], BidThresholds],
    rule_name: str | None = None,
) -> tuple[list[int], int, list[int], int, tuple[BidThresholds | None, ...]]:
    """One bidder's "myerson" or "gsp" payment and expected clicks at each
    of the ascending positive bids `bids[k] / bid_den`, as (payment
    numerators, their common denominator, expected-click numerators, P,
    the curves read): the one pricing path, for a report and for a sweep of
    bids in `equilibrium` alike.

    The bidder gets `clicks[j][k]` in branch j at bid k, a numerator over
    the bidder's `click_den`; the expected clicks at bid k are the k-th
    expected-click numerator over P times that `click_den`, P the lcm of
    the probabilities' denominators. The payment is the sum over
    `branches` of probability times the price read off that branch's click
    curve, `curve(branch)` (`threshold_prices_along`; GSP's per-click price
    times the clicks), summed in integers over the lcm of the branches'
    denominators times their probabilities'. GSP charges a branch that
    gives no clicks at any bid nothing and reads no curve for it (None in
    the curves). Clicks at a bid below the curve's level just under it
    raise `NonMonotoneClickCurveError` (`threshold_prices_along`) naming
    `rule_name`, or the branch when it is None.
    """
    probs = lcm(*(prob.denominator for prob, _branch in branches))
    expected = [0] * len(bids)
    parts = []  # (probability, prices, their denominator) per branch priced
    curves: list[BidThresholds | None] = []
    for (prob, branch), xs in zip(branches, clicks):
        w = prob.numerator * (probs // prob.denominator)
        if w:
            expected = [a + w * b for a, b in zip(expected, xs)]
        if kind == "gsp" and not any(xs):
            curves.append(None)
            continue
        got = curve(branch)
        curves.append(got)
        prices, den = threshold_prices_along(kind, got, bids, bid_den, xs, rule_name or branch)
        if kind == "gsp":
            prices, den = [cpc * x for cpc, x in zip(prices, xs)], den * got.click_den
        parts.append((prob, prices, den))
    total = lcm(*(prob.denominator * den for prob, _prices, den in parts))
    paid = [0] * len(bids)
    for prob, prices, den in parts:
        w = prob.numerator * (total // (prob.denominator * den))
        if w:
            paid = [p + w * price for p, price in zip(paid, prices)]
    return paid, total, expected, probs, tuple(curves)


def _threshold_prices(
    inst: Instance, rep: ReportProfile, rule: AllocationRule, kind: str, view: kernels.ScaledView | None
) -> PricedOutcome:
    """Every bidder's `threshold_payments` at their reported bid, checked
    and made a `Fraction` by `_finish_outcome`. A bidder with no positive
    bid or no ad gets no clicks, pays nothing and reads no curve.

    One view of the report (`view`, when given) serves the allocation and
    the probes of every curve, and keeps both: the branch allocations
    (`branch_allocate`) and each bidder's curve per branch, capped at their
    bid, so every rule priced on the view shares them.
    """
    branches = rule_branches(rule)
    if view is None:
        view = kernels.ScaledView(inst, rep)
    mixture = as_mixture(rule_allocate(inst, rep, rule, view))
    priced: dict[str, tuple[int, int, int, int]] = {}
    curves: dict[str, tuple[BidThresholds | None, ...]] = {}
    for adv in inst.advertisers:
        adv_id = adv.adv_id
        bid = rep.bids.get(adv_id, ZERO)
        if bid <= 0 or not rep.subsets.get(adv_id):
            # no row in the view: no clicks (`kernels.ScaledView`)
            priced[adv_id], curves[adv_id] = (0, 1, 0, 1), ()
            continue
        scale = view.probe(adv_id).click_den
        clicks = [(clicks_over(alloc.clicks(inst, adv_id), scale),) for _prob, alloc in mixture.branches]
        (paid,), den, (x,), probs, curves[adv_id] = threshold_payments(
            kind,
            (bid.numerator,),
            bid.denominator,
            branches,
            clicks,
            # `_build_curve` is looked up here, at call time, and runs on a miss only
            lambda branch: view.memo(("curve", adv_id, branch), _build_curve, view, adv_id, bid, branch, rule.name),
            rule.name,
        )
        priced[adv_id] = (paid, den, x, probs * scale)
    return _finish_outcome(inst, rep, mixture, kind, priced, curves)


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


def vcg_payments(inst: Instance, rep: ReportProfile, view: kernels.ScaledView | None = None) -> PricedOutcome:
    """Externality payments on top of the exact integral optimum.

    The view's `exact.capacity_dp` gives the optimum and, for each served
    advertiser, the optimum without them (`optima_without`): two DP passes
    instead of a solve per served advertiser. Each pass reads only the
    advertisers' undominated ads, each row only up to its reach (see
    `exact.CapacityDP`).
    The view's integer scaling is valid for every sub-profile, so the
    payments stay exact. `view`, when given, is the view of (inst, rep), and
    a DP it already holds is read, not rebuilt. The tests keep the re-solve
    per served advertiser as the oracle (`tests/oracles.vcg_by_resolving`).
    """
    if view is None:
        view = kernels.ScaledView(inst, rep)
    dp = exact.capacity_dp(view)
    chosen = dp.choice()
    total = sum(view.val[i] for i in chosen if i >= 0)
    without = dp.optima_without(g for g, i in enumerate(chosen) if i >= 0)
    # a served row's value v is bid * alpha over value_scale, so its clicks
    # alpha are v * bid_den over value_scale * bid_num
    scale = view.value_scale
    priced = dict.fromkeys(view.adv_ids, (0, 1, 0, 1))
    for g, opt in without.items():
        adv_id, v = view.adv_ids[g], view.val[chosen[g]]
        bid = rep.bids[adv_id]
        priced[adv_id] = (opt - (total - v), scale, v * bid.denominator, scale * bid.numerator)
    return _finish_outcome(inst, rep, as_mixture(view.allocation(chosen)), "vcg", priced)


# --- mechanisms -------------------------------------------------------------


@dataclass(frozen=True)
class Mechanism:
    """How reports turn into an outcome and payments: a rule of the table
    priced by "myerson" or "gsp", or "vcg" on the exact optimum with no
    rule. Anything else raises `ValueError` here."""

    pricing: str  # "gsp", "myerson" or "vcg"
    rule: AllocationRule | None = None  # None only for vcg

    def __post_init__(self):
        if self.pricing not in ("gsp", "myerson", "vcg"):
            raise ValueError(f"unknown pricing {self.pricing!r}; choices: gsp, myerson, vcg")
        if (self.rule is None) != (self.pricing == "vcg"):
            raise ValueError(f"{self.pricing} pricing {'takes no' if self.rule else 'needs an'} allocation rule")

    def describe(self) -> str:
        if self.pricing == "vcg":
            return "vcg"
        return f"{self.rule.name}(p={self.rule.p})+{self.pricing}" if self.rule.p is not None else f"{self.rule.name}+{self.pricing}"

    def price(self, inst: Instance, rep: ReportProfile, view: kernels.ScaledView | None = None) -> PricedOutcome:
        """Outcome and payments. `view`, when given, is the view of (inst,
        rep): threshold pricing reads its probes, VCG its capacity DP."""
        if self.pricing == "vcg":
            return vcg_payments(inst, rep, view)
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
