"""Empirical equilibria: strategy grids, best responses, Nash search, PoA.

Strategies live on a no-overbidding bid grid crossed with every catalog
subset. Utilities are always at true values. `find_pure_nash` runs
sequential best-response dynamics from the truthful profile; a full pass
without a strict improvement doubles as the exhaustive verification that
the fixed point is a grid Nash equilibrium. A best response sweeps each
subset's bids up to the true value along one click curve per branch,
instead of evaluating the whole profile at every grid point. The sweep
and a single profile's payment are priced by one function,
`pricing.threshold_payments`, and read the same curves: a search builds
one view per report, and a bidder's curve is kept in the memo of the view
of the report with that bidder at the cap. A sweep stays in integers
from the probe's clicks to the utilities, and makes one `Fraction` per
table entry.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable

from . import exact, fracopt, kernels, pricing
from .model import (
    GuardExceededError,
    Instance,
    ReportProfile,
    parse_rational,
    social_welfare,
)
from .monotone import _assignment_from_view, bpb_allocation, max_value_allocation
from .monotone import space_assignment  # noqa: F401  (the benchmark's tracer wraps it here)
from .pricing import ZERO
from .pricing import Mechanism, gsp_mixture_mechanism, myerson_mixture_mechanism  # noqa: F401  (re-exported)

STRATEGY_ADS_GUARD = 4
STRATEGY_BIDS_GUARD = 10_000


@dataclass(frozen=True)
class StrategySpace:
    """One advertiser's grid: bids nonnegative and strictly ascending (else
    `ValueError` here), crossed with the subsets."""

    adv_id: str
    bids: tuple[Fraction, ...]  # ascending
    subsets: tuple[frozenset[str], ...]  # preference order: larger first

    def __post_init__(self):
        bids = self.bids
        # compared as integers, at half the cost of Fraction comparisons
        if (bids and bids[0] < 0) or any(
            a.numerator * b.denominator >= b.numerator * a.denominator for a, b in zip(bids, bids[1:])
        ):
            raise ValueError(f"grid bids of {self.adv_id!r} must be nonnegative and strictly ascending")


def strategy_spaces(inst: Instance, delta: Fraction) -> dict[str, StrategySpace]:
    """No-overbidding grids: bids {0, delta, 2*delta, ...} plus the true value,
    crossed with every subset of the catalog (the empty one included).

    Both guards, at most `STRATEGY_ADS_GUARD` ads and `STRATEGY_BIDS_GUARD`
    bids per advertiser (read at call time), are checked for every
    advertiser before any grid is built; either raises `GuardExceededError`.
    `delta` is read by `parse_rational`: a float or a bool raises `ValueError`.
    """
    delta = parse_rational(delta)
    if delta <= 0:
        raise ValueError(f"grid step must be positive, got {delta}")
    counts = []
    for adv in inst.advertisers:
        if len(adv.ads) > STRATEGY_ADS_GUARD:
            raise GuardExceededError(
                f"advertiser {adv.adv_id!r} has {len(adv.ads)} ads; subset grid guard is {STRATEGY_ADS_GUARD}"
            )
        # the grid is ceil(value / delta) multiples of delta below the value, plus the value
        value = adv.value_per_click
        count = max(0, -(-(value.numerator * delta.denominator) // (value.denominator * delta.numerator))) + 1
        if count > STRATEGY_BIDS_GUARD:
            raise GuardExceededError(
                f"advertiser {adv.adv_id!r} would have {count} grid bids "
                f"(value {value}, step {delta}); bid grid guard is {STRATEGY_BIDS_GUARD}"
            )
        counts.append(count)
    spaces = {}
    for adv, count in zip(inst.advertisers, counts):
        bids = (*(delta * j for j in range(count - 1)), adv.value_per_click)
        ids = sorted(adv.ad_ids())
        subsets = []
        for size in range(len(ids), -1, -1):
            for combo in combinations(ids, size):
                subsets.append(frozenset(combo))
        spaces[adv.adv_id] = StrategySpace(adv_id=adv.adv_id, bids=bids, subsets=tuple(subsets))
    return spaces


class _Evaluator:
    """Memoised utility evaluation across many nearby profiles.

    Each report gets one view (`_view`), built on first use and kept for
    the evaluator's life; its memo holds everything read at that report:
    the branch allocations, each bidder's probe and, at the report with a
    bidder at the cap, that bidder's click curve per branch, since an
    advertiser's own bid moves along a fixed curve while the rest of the
    profile stands still. VCG keeps its priced outcomes instead, and no
    view, which would hold its capacity DP.
    `curves_built` and `curves_cached` count the curve lookups that built a
    curve and those a view's memo served.
    """

    def __init__(self, inst: Instance, truth: ReportProfile, mechanism: Mechanism):
        self.inst = inst
        self.truth = truth
        self.mech = mechanism
        self.branches = () if mechanism.pricing == "vcg" else pricing.rule_branches(mechanism.rule)
        self._views: dict = {}
        self._vcg: dict = {}
        self.curves_built = 0
        self.curves_cached = 0

    def _view(self, rep: ReportProfile) -> kernels.ScaledView:
        """The view of (inst, rep), one per report."""
        key = rep.key()
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = kernels.ScaledView(self.inst, rep)
        return view

    def _branch_alloc(self, rep: ReportProfile) -> tuple:
        """The allocation of each of the rule's branches at `rep`."""
        view = self._view(rep)
        return tuple(pricing.branch_allocate(self.inst, rep, branch, view) for _prob, branch in self.branches)

    def _vcg_outcome(self, rep: ReportProfile) -> pricing.PricedOutcome:
        key = rep.key()
        got = self._vcg.get(key)
        if got is None:
            got = self.mech.price(self.inst, rep)
            self._vcg[key] = got
        return got

    def _curve(self, at_cap: ReportProfile, adv_id: str, branch: str):
        """The branch's click curve of `adv_id` on (0, cap], `at_cap` being
        the report with `adv_id` bidding the cap, kept in that report's view
        under the key `pricing._threshold_prices` uses."""
        view = self._view(at_cap)
        key = ("curve", adv_id, branch)
        if key in view._memo:
            self.curves_cached += 1
        else:
            self.curves_built += 1
        return view.memo(key, pricing._build_curve, view, adv_id, at_cap.bids[adv_id], branch, branch)

    def payment(self, rep: ReportProfile, adv_id: str) -> Fraction:
        """`adv_id`'s payment at `rep`, its curves read at the report with
        `adv_id` at the cap: `rep` itself when the bid is the cap."""
        if self.mech.pricing == "vcg":
            return self._vcg_outcome(rep).payments.get(adv_id, Fraction(0))
        bid = rep.bids.get(adv_id, Fraction(0))
        subset = rep.subsets.get(adv_id, frozenset())
        if bid <= 0 or not subset:
            return Fraction(0)
        cap = self.truth.bids.get(adv_id, bid)
        at_cap = rep if bid >= cap else rep.replace(adv_id, cap, subset)
        scale = self._view(rep).probe(adv_id).click_den
        (paid,), den, _curves = pricing.threshold_payments(
            self.mech.pricing,
            (bid.numerator,),
            bid.denominator,
            self.branches,
            [(pricing.clicks_over(alloc.clicks(self.inst, adv_id), scale),) for alloc in self._branch_alloc(rep)],
            lambda branch: self._curve(at_cap, adv_id, branch),
        )
        return Fraction(paid, den)

    def utility(self, rep: ReportProfile, adv_id: str) -> Fraction:
        """`adv_id`'s utility at `rep`: true value times expected clicks, less the payment."""
        if self.mech.pricing == "vcg":
            clicks = self._vcg_outcome(rep).mixture.clicks(self.inst, adv_id)
        else:
            allocs = self._branch_alloc(rep)
            clicks = sum(prob * alloc.clicks(self.inst, adv_id) for (prob, _b), alloc in zip(self.branches, allocs))
        return self.truth.bids.get(adv_id, Fraction(0)) * clicks - self.payment(rep, adv_id)

    def utility_table(self, rep: ReportProfile, adv_id: str, space: StrategySpace) -> list[list[Fraction]]:
        """`adv_id`'s utility at every strategy of `space`, the others as in
        `rep`: row si, column bi is `utility` at
        `rep.replace(adv_id, space.bids[bi], space.subsets[si])`.

        A zero bid or the empty subset reports no ad, so by the view's
        contract (`kernels.ScaledView`) it gets no clicks and pays nothing:
        its utility is 0, with no view built. For a threshold-priced rule,
        the positive bids up to the true value (the cap of every curve they
        price against) are swept per nonempty subset; the other strategies
        (bids above the cap, VCG's positive bids) are evaluated profile by
        profile.
        """
        cap = self.truth.bids.get(adv_id, Fraction(0))
        sweep = self.mech.pricing != "vcg" and cap > 0
        table = []
        for subset in space.subsets:
            row: list = [ZERO if not subset or not bid else None for bid in space.bids]
            if sweep and subset:
                self._sweep(rep.replace(adv_id, cap, subset), adv_id, space.bids, row)
            for bi, bid in enumerate(space.bids):
                if row[bi] is None:
                    row[bi] = self.utility(rep.replace(adv_id, bid, subset), adv_id)
            table.append(row)
        return table

    def _sweep(self, at_cap: ReportProfile, adv_id: str, bids: tuple[Fraction, ...], row: list) -> None:
        """Fill `row` at the bids in (0, cap], `at_cap` being the report with
        `adv_id` bidding their cap, the true value.

        The view of `at_cap` gives the bidder's probe kernel, off which each
        branch's clicks are read at every such bid, and serves the one click
        curve per branch that every such bid is priced against: the grid's
        payments come from `pricing.threshold_payments`, the path that
        prices a single bid too, in one ascending pass over each curve. The
        bids enter as numerators over their lcm, and each utility, cap times
        expected clicks less the payment, is one `Fraction` over the
        payments' denominator.
        """
        cap = at_cap.bids[adv_id]
        lo, hi = bisect_right(bids, 0), bisect_right(bids, cap)
        if lo == hi:
            return
        grid = bids[lo:hi]
        grid_den = lcm(*(bid.denominator for bid in grid))
        nums = [bid.numerator * (grid_den // bid.denominator) for bid in grid]
        probe = self._view(at_cap).probe(adv_id)
        clicks = [[pricing.BRANCHES[b].probe(probe, num, grid_den) for num in nums] for _prob, b in self.branches]
        paid, den, _curves = pricing.threshold_payments(
            self.mech.pricing, nums, grid_den, self.branches, clicks, lambda b: self._curve(at_cap, adv_id, b)
        )
        # expected clicks over click_den times the probabilities' lcm, then
        # cap * clicks and the payments over one denominator
        x, probs = pricing.expected_clicks(self.branches, clicks)
        clicks_den = cap.denominator * probe.click_den * probs
        total = lcm(den, clicks_den)
        c, d = cap.numerator * (total // clicks_den), total // den
        for k, (got, price) in enumerate(zip(x, paid), lo):
            row[k] = Fraction(c * got - d * price, total)


def utility(inst: Instance, truth: ReportProfile, rep: ReportProfile, mechanism: Mechanism) -> dict[str, Fraction]:
    """Every advertiser's utility at true values under the mechanism."""
    return _utilities(inst, truth, mechanism.price(inst, rep))


def _utilities(inst: Instance, truth: ReportProfile, priced: pricing.PricedOutcome) -> dict[str, Fraction]:
    """Each advertiser's true value times their clicks in `priced`, less their payment."""
    return {
        a: truth.bids.get(a, Fraction(0)) * priced.mixture.clicks(inst, a) - priced.payments[a]
        for a in inst.adv_ids()
    }


def best_response(
    inst: Instance,
    truth: ReportProfile,
    rep: ReportProfile,
    adv_id: str,
    mechanism: Mechanism,
    space: StrategySpace,
    _evaluator: _Evaluator | None = None,
) -> tuple[Fraction, frozenset[str], Fraction]:
    """Utility-maximal (bid, subset) for one advertiser, holding others fixed.

    Ties prefer the lowest bid index, then the lowest subset index (the
    grid's subsets run from the largest down).
    """
    ev = _evaluator if _evaluator is not None else _Evaluator(inst, truth, mechanism)
    return _best_of(ev.utility_table(rep, adv_id, space), space)


def _best_of(table: list[list[Fraction]], space: StrategySpace) -> tuple[Fraction, frozenset[str], Fraction]:
    """(bid, subset, utility) at `table`'s best entry, under `best_response`'s
    tie rule. Entries are compared as integers, n * d' against n' * d, not
    as Fractions."""
    best = None  # (bid index, subset index) of the best entry so far, of utility n / d
    n = d = 0
    for si, row in enumerate(table):
        for bi, u in enumerate(row):
            c = u.numerator * d - n * u.denominator
            if best is None or c > 0 or (c == 0 and (bi, si) < best):
                best, n, d = (bi, si), u.numerator, u.denominator
    if best is None:
        raise ValueError(f"empty strategy space for advertiser {space.adv_id!r}")
    bi, si = best
    return space.bids[bi], space.subsets[si], table[si][bi]


@dataclass(frozen=True)
class BetaCheck:
    """One evaluation of the density-vs-welfare diagnostic at a profile.

    `beta` is the reported value density of the ad covering the middle unit
    of the space assignment (0 when uncovered); the bound compares
    beta * total_space against twice the true welfare of the integral and
    max-value allocations at the same profile.
    """

    beta: Fraction
    k_star: int
    lhs: Fraction
    rhs: Fraction
    ok: bool


def beta_bound_check(inst: Instance, rep: ReportProfile) -> BetaCheck:
    """The diagnostic at `rep`: the traced space walk and both rules read one view."""
    view = kernels.ScaledView(inst, rep)
    trace = _assignment_from_view(view)[-1]
    k_star = trace.total_units // 2 + 1
    run = trace.covering(k_star)
    beta = run.density if run is not None else Fraction(0)
    lhs = beta * inst.total_space
    rhs = 2 * social_welfare(inst, bpb_allocation(inst, rep, view)) + 2 * social_welfare(
        inst, max_value_allocation(inst, rep, view)
    )
    return BetaCheck(beta=beta, k_star=k_star, lhs=lhs, rhs=rhs, ok=lhs <= rhs)


@dataclass(frozen=True)
class NashResult:
    status: str  # "converged", "cycle" or "max-rounds"
    equilibrium: ReportProfile | None
    rounds: int
    verified: bool
    cycle: tuple[ReportProfile, ...] | None = None
    beta_checks: int = 0
    beta_violations: tuple[BetaCheck, ...] = ()


def find_pure_nash(
    inst: Instance,
    truth: ReportProfile,
    mechanism: Mechanism,
    spaces: dict[str, StrategySpace],
    max_rounds: int = 50,
    beta_check: bool = False,
    explain: list[dict] | None = None,
) -> NashResult:
    """Sequential best-response dynamics from the truthful profile.

    Convergence means a full pass in which nobody strictly improves; that
    pass scans every grid deviation, so the fixed point comes back verified.
    A revisited profile is reported as a cycle rather than an error.

    With `explain`, one JSON-ready dict per round and bidder is appended
    to it: the deviations checked, the best response, its utility gain
    over the current report, and the click curves built and served by a
    kept view while finding it.
    """
    ev = _Evaluator(inst, truth, mechanism)
    current = ReportProfile(
        bids={a: truth.bids[a] for a in inst.adv_ids()},
        subsets={a: truth.subsets[a] for a in inst.adv_ids()},
    )
    history = [current]
    seen = {current.key(): 0}
    checks = 0
    violations: list[BetaCheck] = []

    def run_beta(rep: ReportProfile):
        nonlocal checks
        if beta_check:
            checks += 1
            got = beta_bound_check(inst, rep)
            if not got.ok:
                violations.append(got)

    def result(status: str, equilibrium: ReportProfile | None, rounds: int, cycle=None) -> NashResult:
        # only convergence ends on a pass that scanned every deviation
        return NashResult(
            status, equilibrium, rounds, verified=status == "converged", cycle=cycle,
            beta_checks=checks, beta_violations=tuple(violations),
        )

    run_beta(current)
    for round_no in range(1, max_rounds + 1):
        improved = False
        for adv_id in inst.adv_ids():
            space = spaces[adv_id]
            built0, cached0 = ev.curves_built, ev.curves_cached
            table = ev.utility_table(current, adv_id, space)
            bid, subset, best_u = _best_of(table, space)
            built, cached = ev.curves_built - built0, ev.curves_cached - cached0
            # a report on the grid (from `strategy_spaces`, always) is read off the table
            bid_now, subset_now = current.bids[adv_id], current.subsets[adv_id]
            if bid_now in space.bids and subset_now in space.subsets:
                now_u = table[space.subsets.index(subset_now)][space.bids.index(bid_now)]
            else:
                now_u = ev.utility(current, adv_id)
            if explain is not None:
                explain.append(
                    {
                        "round": round_no,
                        "bidder": adv_id,
                        "deviations": len(space.bids) * len(space.subsets),
                        "best_response": {"bid": str(bid), "subset": sorted(subset)},
                        "utility": str(now_u),
                        "gain": str(best_u - now_u),
                        "curves_built": built,
                        "curves_cached": cached,
                    }
                )
            if best_u > now_u:
                current = current.replace(adv_id, bid, subset)
                improved = True
                run_beta(current)
                key = current.key()
                if key in seen:
                    return result("cycle", None, round_no, tuple(history[seen[key] :]) + (current,))
                seen[key] = len(history)
                history.append(current)
        if not improved:
            return result("converged", current, round_no)
    return result("max-rounds", None, max_rounds)


def poa_report(
    inst: Instance,
    truth: ReportProfile,
    mechanism: Mechanism,
    equilibria: Iterable[ReportProfile],
) -> list[dict]:
    """Welfare ratios of equilibria against the exact and fractional optima;
    each equilibrium is priced once, by `Mechanism.price`. One view of the
    truthful report gives the exact optimum (`exact.capacity_dp`), the
    fractional optimum and every welfare, an equilibrium's matched to the
    view's rows by (advertiser, ad), all in integers; it also prices an
    equilibrium equal to that report under every pricing."""
    view = kernels.ScaledView(inst, truth)
    opt_num, opt_den = view.welfare(view.allocation(exact.capacity_dp(view).choice()))
    opt_sw = Fraction(opt_num, opt_den)
    frac_obj = fracopt.fractional_opt(inst, truth, view).objective
    rows = []
    for rep in equilibria:
        priced = mechanism.price(inst, rep, view if rep.key() == truth.key() else None)
        num, den = view.welfare(priced.mixture)
        sw = Fraction(num, den)
        rows.append(
            {
                "profile": {
                    "bids": {a: str(b) for a, b in sorted(rep.bids.items())},
                    "subsets": {a: sorted(s) for a, s in sorted(rep.subsets.items())},
                },
                "sw": str(sw),
                "int_opt_sw": str(opt_sw),
                "frac_opt_value": str(frac_obj),
                "ratio_int_opt": str(Fraction(opt_num * den, opt_den * num)) if num > 0 else None,
                "utilities": {a: str(u) for a, u in _utilities(inst, truth, priced).items()},
                "payments": {a: str(priced.payments[a]) for a in inst.adv_ids()},
            }
        )
    return rows
