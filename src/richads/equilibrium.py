"""Empirical equilibria: strategy grids, best responses, Nash search, PoA.

Strategies live on a no-overbidding bid grid crossed with every catalog
subset. Utilities are always at true values. `find_pure_nash` runs
sequential best-response dynamics from the truthful profile; a full pass
without a strict improvement doubles as the exhaustive verification that
the fixed point is a grid Nash equilibrium. A best response sweeps each
subset's bids up to the true value along one click curve per branch,
instead of evaluating the whole profile at every grid point. The sweep
and a single profile's payment are priced by one function,
`pricing.threshold_payments`, and read the same cached curves: a curve is
keyed by the report with the bidder at the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from . import exact, kernels, pricing
from .model import (
    GuardExceededError,
    Instance,
    Mixture,
    ReportProfile,
    as_mixture,
    social_welfare,
)
from .monotone import _assignment_from_view, bpb_allocation, max_value_allocation
from .monotone import space_assignment  # noqa: F401  (the benchmark's tracer wraps it here)
from .pricing import Mechanism, gsp_mixture_mechanism, myerson_mixture_mechanism  # noqa: F401  (re-exported)

STRATEGY_ADS_GUARD = 4
STRATEGY_BIDS_GUARD = 10_000


@dataclass(frozen=True)
class StrategySpace:
    adv_id: str
    bids: tuple[Fraction, ...]  # ascending
    subsets: tuple[frozenset[str], ...]  # preference order: larger first


def strategy_spaces(inst: Instance, delta: Fraction) -> dict[str, StrategySpace]:
    """No-overbidding grids: bids {0, delta, 2*delta, ...} plus the true value,
    crossed with every subset of the catalog (the empty one included).

    Both guards, at most `STRATEGY_ADS_GUARD` ads and `STRATEGY_BIDS_GUARD`
    bids per advertiser (read at call time), are checked for every
    advertiser before any grid is built; either raises `GuardExceededError`.
    """
    delta = Fraction(delta)
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
    """Memoised outcome/payment evaluation across many nearby profiles.

    A profile's branch allocations are run on one view.
    Click curves are cached per (advertiser, branch, report with the
    advertiser at the cap), since an advertiser's own bid moves along a
    fixed curve while the rest of the profile stands still.
    `curves_built` and `curves_cached` count the curve lookups that built a
    curve and those the cache served.
    """

    def __init__(self, inst: Instance, truth: ReportProfile, mechanism: Mechanism):
        self.inst = inst
        self.truth = truth
        self.mech = mechanism
        self.branches = () if mechanism.pricing == "vcg" else pricing.rule_branches(mechanism.rule)
        self._curves: dict = {}
        self._vcg: dict = {}
        self.curves_built = 0
        self.curves_cached = 0

    def _branch_alloc(self, rep: ReportProfile) -> tuple:
        """The allocation of each of the rule's branches at `rep`."""
        view = kernels.ScaledView(self.inst, rep)
        return tuple(pricing.branch_allocate(self.inst, rep, branch, view) for _prob, branch in self.branches)

    def outcome(self, rep: ReportProfile) -> Mixture:
        if self.mech.pricing == "vcg":
            return as_mixture(self._vcg_outcome(rep).mixture)
        allocs = self._branch_alloc(rep)
        return Mixture(branches=tuple((prob, alloc) for (prob, _branch), alloc in zip(self.branches, allocs)))

    def _vcg_outcome(self, rep: ReportProfile) -> pricing.PricedOutcome:
        key = rep.key()
        got = self._vcg.get(key)
        if got is None:
            got = pricing.vcg_payments(self.inst, rep)
            self._vcg[key] = got
        return got

    def _curve(self, at_cap: ReportProfile, adv_id: str, branch: str, view: kernels.ScaledView | None = None):
        """The branch's click curve of `adv_id` on (0, cap], `at_cap` being
        the report with `adv_id` bidding the cap; `view`, when given, is
        the view of (inst, at_cap) and serves its probes."""
        key = (adv_id, branch, at_cap.key())
        got = self._curves.get(key)
        if got is None:
            self.curves_built += 1
            if view is None:
                view = kernels.ScaledView(self.inst, at_cap)
            got = pricing._build_curve(view, adv_id, at_cap.bids[adv_id], branch, branch)
            self._curves[key] = got
        else:
            self.curves_cached += 1
        return got

    def payment(self, rep: ReportProfile, adv_id: str) -> Fraction:
        if self.mech.pricing == "vcg":
            return self._vcg_outcome(rep).payments.get(adv_id, Fraction(0))
        bid = rep.bids.get(adv_id, Fraction(0))
        subset = rep.subsets.get(adv_id, frozenset())
        if bid <= 0 or not subset:
            return Fraction(0)
        at_cap = rep.replace(adv_id, max(bid, self.truth.bids.get(adv_id, bid)), subset)
        (total,), _curves = pricing.threshold_payments(
            self.mech.pricing,
            (bid,),
            self.branches,
            [(alloc.clicks(self.inst, adv_id),) for alloc in self._branch_alloc(rep)],
            lambda branch: self._curve(at_cap, adv_id, branch),
        )
        return total

    def utility(self, rep: ReportProfile, adv_id: str) -> Fraction:
        value = self.truth.bids.get(adv_id, Fraction(0))
        return value * self.outcome(rep).clicks(self.inst, adv_id) - self.payment(rep, adv_id)

    def utility_table(self, rep: ReportProfile, adv_id: str, space: StrategySpace) -> list[list[Fraction]]:
        """`adv_id`'s utility at every strategy of `space`, the others as in
        `rep`: row si, column bi is `utility` at
        `rep.replace(adv_id, space.bids[bi], space.subsets[si])`.

        The empty subset reports no ad, so it is evaluated at one bid and
        holds at all. For a threshold-priced rule, the positive bids up to
        the true value (the cap of every curve they price against) are swept
        per subset; the other strategies (bid 0, bids above the cap, VCG)
        are evaluated profile by profile.
        """
        cap = self.truth.bids.get(adv_id, Fraction(0))
        sweep = self.mech.pricing != "vcg" and cap > 0
        table = []
        for subset in space.subsets:
            row: list = [None] * len(space.bids)
            if not subset and row:
                row = [self.utility(rep.replace(adv_id, space.bids[0], subset), adv_id)] * len(row)
            elif sweep:
                self._sweep(rep.replace(adv_id, cap, subset), adv_id, space.bids, row)
            for bi, bid in enumerate(space.bids):
                if row[bi] is None:
                    row[bi] = self.utility(rep.replace(adv_id, bid, subset), adv_id)
            table.append(row)
        return table

    def _sweep(self, at_cap: ReportProfile, adv_id: str, bids: tuple[Fraction, ...], row: list) -> None:
        """Fill `row` at the bids in (0, cap], `at_cap` being the report with
        `adv_id` bidding their cap, the true value.

        One view of `at_cap` gives the bidder's probe kernel, off which each
        branch's clicks are read at every such bid, and serves the one click
        curve per branch that every such bid is priced against: the grid's
        payments come from `pricing.threshold_payments`, the path that
        prices a single bid too, in one ascending pass over each curve.
        """
        cap = at_cap.bids[adv_id]
        cols = sorted((bid, bi) for bi, bid in enumerate(bids) if 0 < bid <= cap)
        if not cols:
            return
        grid = [bid for bid, _bi in cols]
        view = kernels.ScaledView(self.inst, at_cap)
        probe = view.probe(adv_id)
        clicks = [
            [pricing.BRANCHES[branch].probe(probe, bid.numerator, bid.denominator) for bid in grid]
            for _prob, branch in self.branches
        ]
        paid, _curves = pricing.threshold_payments(
            self.mech.pricing, grid, self.branches, clicks, lambda branch: self._curve(at_cap, adv_id, branch, view)
        )
        zero = Fraction(0)
        for k, ((_bid, bi), price) in enumerate(zip(cols, paid)):
            x = sum((prob * xs[k] for (prob, _branch), xs in zip(self.branches, clicks) if xs[k]), zero)
            row[bi] = cap * x - price


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
    """(bid, subset, utility) at `table`'s best entry, under `best_response`'s tie rule."""
    best = None  # (utility, bid index, subset index)
    for si, row in enumerate(table):
        for bi, u in enumerate(row):
            if best is None or u > best[0] or (u == best[0] and (bi, si) < (best[1], best[2])):
                best = (u, bi, si)
    if best is None:
        raise ValueError(f"empty strategy space for advertiser {space.adv_id!r}")
    return space.bids[best[1]], space.subsets[best[2]], best[0]


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
    over the current report, and the click curves built and served from
    the cache while finding it.
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
                    start = seen[key]
                    return NashResult(
                        status="cycle",
                        equilibrium=None,
                        rounds=round_no,
                        verified=False,
                        cycle=tuple(history[start:]) + (current,),
                        beta_checks=checks,
                        beta_violations=tuple(violations),
                    )
                seen[key] = len(history)
                history.append(current)
        if not improved:
            return NashResult(
                status="converged",
                equilibrium=current,
                rounds=round_no,
                verified=True,
                beta_checks=checks,
                beta_violations=tuple(violations),
            )
    return NashResult(
        status="max-rounds",
        equilibrium=None,
        rounds=max_rounds,
        verified=False,
        beta_checks=checks,
        beta_violations=tuple(violations),
    )


def poa_report(
    inst: Instance,
    truth: ReportProfile,
    mechanism: Mechanism,
    equilibria: Iterable[ReportProfile],
) -> list[dict]:
    """Welfare ratios of equilibria against the exact and fractional optima;
    each equilibrium is priced once, by `Mechanism.price`."""
    from .fracopt import fractional_opt  # local import to keep module deps acyclic

    opt_alloc = exact.int_opt_dp(inst, truth)
    opt_sw = social_welfare(inst, opt_alloc)
    frac_obj = fractional_opt(inst, truth).objective
    rows = []
    for rep in equilibria:
        priced = mechanism.price(inst, rep)
        sw = social_welfare(inst, priced.mixture)
        rows.append(
            {
                "profile": {
                    "bids": {a: str(b) for a, b in sorted(rep.bids.items())},
                    "subsets": {a: sorted(s) for a, s in sorted(rep.subsets.items())},
                },
                "sw": str(sw),
                "int_opt_sw": str(opt_sw),
                "frac_opt_value": str(frac_obj),
                "ratio_int_opt": str(opt_sw / sw) if sw > 0 else None,
                "utilities": {a: str(u) for a, u in _utilities(inst, truth, priced).items()},
                "payments": {a: str(priced.payments[a]) for a in inst.adv_ids()},
            }
        )
    return rows
