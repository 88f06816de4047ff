"""Empirical equilibria: strategy grids, best responses, Nash search, PoA.

Strategies live on a no-overbidding bid grid crossed with every catalog
subset. Utilities are always at true values. `find_pure_nash` runs
sequential best-response dynamics from the truthful profile; a full pass
without a strict improvement doubles as the exhaustive verification that
the fixed point is a grid Nash equilibrium. Every report a search reads is
a grid point: a truthful start off the grids is refused, and
`best_response` holds each other bidder on the one-point grid of their
report. Under threshold pricing, a best response's utilities over the
whole grid are read off one view, the bidder at their top grid bid on
their whole catalog, instead of one profile evaluation per grid point: one
bidder probe and one click curve per branch for each subset, and one pass
over each curve prices every grid bid, each run's bids at once
(`pricing.threshold_payments`). A search runs on strategy indices: it
keeps each curve in its view's memo and each bidder's integer utilities by
the others' indices, and makes `Fraction`s only for what it returns, each
grid bid's once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import lt
from typing import Iterable, Sequence

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
    """One advertiser's grid: the bids `nums[k] / den`, nonnegative and
    strictly ascending (else `ValueError` here), crossed with the subsets.
    The integers are all a search reads; `den` is kept canonical, the gcd
    of `den` and the numerators divided out, so equal grids compare equal.
    `bids` builds their `Fraction`s on each read."""

    adv_id: str
    nums: tuple[int, ...]  # ascending
    den: int
    subsets: tuple[frozenset[str], ...]  # preference order: larger first

    def __post_init__(self):
        if self.den < 1:
            raise ValueError(f"grid denominator of {self.adv_id!r} must be positive, got {self.den}")
        g = gcd(self.den, *self.nums)
        nums = tuple(n // g for n in self.nums) if g > 1 else tuple(self.nums)
        if (nums and nums[0] < 0) or not all(map(lt, nums, nums[1:])):
            raise ValueError(f"grid bids of {self.adv_id!r} must be nonnegative and strictly ascending")
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", self.den // g)

    @property
    def bids(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)


def strategy_spaces(inst: Instance, delta: Fraction) -> dict[str, StrategySpace]:
    """No-overbidding grids: bids {0, delta, 2*delta, ...} plus the true value,
    crossed with every subset of the catalog (the empty one included).

    Both guards, at most `STRATEGY_ADS_GUARD` ads and `STRATEGY_BIDS_GUARD`
    bids per advertiser (read at call time), are checked for every
    advertiser before any grid is built; either raises `GuardExceededError`.
    `delta` is read by `parse_rational`: a float or a bool raises `ValueError`.
    Each grid is built in integers: the multiples of delta by `range` over
    the lcm of delta's and the value's denominators, which `StrategySpace`
    reduces where the grid holds no positive multiple of delta.
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
        value = adv.value_per_click
        den = lcm(delta.denominator, value.denominator)
        step = delta.numerator * (den // delta.denominator)
        nums = (*range(0, step * (count - 1), step), value.numerator * (den // value.denominator))
        ids = sorted(adv.ad_ids())
        subsets = []
        for size in range(len(ids), -1, -1):
            for combo in combinations(ids, size):
                subsets.append(frozenset(combo))
        spaces[adv.adv_id] = StrategySpace(adv.adv_id, nums, den, tuple(subsets))
    return spaces


class _Evaluator:
    """Memoised utility evaluation across many nearby profiles, on strategy
    indices.

    A profile is a tuple of (bid index, subset index) per advertiser, in
    `inst.adv_ids()` order, on their grids (`_code` refuses a report off
    them), so equal reports share one profile and one view (`_view`), kept
    for the evaluator's life. `row` is a bidder's utility at every grid
    strategy against the others' indices, in integers, kept by (bidder,
    others). Under threshold pricing it is read off `_sweep`s of one view
    (`_at_cap`), the report with the bidder at their top grid bid on their
    whole catalog: it holds their probe and one click curve per branch for
    each subset (`kernels.BidderProbe`), since their own bid moves along a
    fixed curve while the others stand still. With the others truthful and
    each true value the top of its grid (`strategy_spaces`), that view is
    the truthful report, so one view serves every bidder's first row. VCG
    keeps its priced outcomes by profile instead, and no view, which would
    hold its capacity DP.
    `curves_built` and `curves_cached` count the curve lookups that built a
    curve and those a view's memo or a kept row served.
    """

    def __init__(self, inst: Instance, truth: ReportProfile, mechanism: Mechanism, spaces=None):
        self.inst = inst
        self.truth = truth
        self.mech = mechanism
        self.branches = () if mechanism.pricing == "vcg" else pricing.rule_branches(mechanism.rule)
        self.ids = inst.adv_ids()
        self.spaces: dict[str, StrategySpace] = {}
        self._bids: dict = {}
        self._views: dict = {}
        self._rows: dict = {}
        self._vcg: dict = {}
        self.curves_built = self.curves_cached = 0
        self._grids: dict = {}
        for adv_id, space in (spaces or {}).items():
            self._grid(adv_id, space)

    def _grid(self, adv_id: str, space: StrategySpace) -> None:
        """Make `space` the grid of `adv_id` (another raises `ValueError`):
        the index of its first positive bid, and the numerators from it on."""
        if adv_id not in self._grids:
            self.spaces[adv_id] = space
            lo = int(bool(space.nums) and not space.nums[0])  # bids ascend from 0 or above
            self._grids[adv_id] = lo, space.nums[lo:], space.den
        elif self.spaces[adv_id] != space:
            raise ValueError(f"advertiser {adv_id!r} already has another grid")

    def _code(self, adv_id: str, kind: int, x) -> int:
        """The index of `adv_id`'s bid (kind 0) or subset (kind 1) `x` on
        their grid, `ValueError` if it is not there: a positive bid is found
        by bisection over the grid's integer numerators, x scaled to their
        denominator, with no `Fraction` comparison."""
        grid = self._grids.get(adv_id)
        if grid is not None and kind:
            subsets = self.spaces[adv_id].subsets
            if x in subsets:
                return subsets.index(x)
        elif grid is not None:
            lo, nums, den = grid
            n, r = divmod(x.numerator * den, x.denominator)  # x * den, floored
            if not r and n > 0:
                i = bisect_left(nums, n)
                if i < len(nums) and nums[i] == n:
                    return lo + i
            elif not x.numerator and lo:
                return 0  # the grid's zero bid
        what = f"subset {sorted(x)}" if kind else f"bid {x}"
        raise ValueError(f"the {what} of advertiser {adv_id!r} is not on their grid")

    def _index(self, rep: ReportProfile, skip: str | None = None) -> tuple:
        """The profile of `rep`, without the place of `skip`; a missing
        report is bid 0 on no ad."""
        return tuple(
            (self._code(a, 0, rep.bids.get(a, ZERO)), self._code(a, 1, rep.subsets.get(a, frozenset())))
            for a in self.ids
            if a != skip
        )

    def _bid(self, adv_id: str, i: int) -> Fraction:
        """Bid `i` of `adv_id`'s grid, its `Fraction` built on first use and kept."""
        got = self._bids.get((adv_id, i))
        if got is None:
            space = self.spaces[adv_id]
            got = self._bids[adv_id, i] = Fraction(space.nums[i], space.den)
        return got

    def _report(self, profile: tuple) -> ReportProfile:
        return ReportProfile(
            bids={a: self._bid(a, bi) for a, (bi, _si) in zip(self.ids, profile)},
            subsets={a: self.spaces[a].subsets[si] for a, (_bi, si) in zip(self.ids, profile)},
        )

    def _view(self, profile: tuple) -> kernels.ScaledView:
        """The view of the report at `profile`, one per report."""
        view = self._views.get(profile)
        if view is None:
            view = self._views[profile] = kernels.ScaledView(self.inst, self._report(profile))
        return view

    def _branch_alloc(self, rep: ReportProfile) -> tuple:  # (the benchmark's tracer wraps it here)
        """The allocation of each of the rule's branches at `rep`."""
        view = self._view(self._index(rep))
        return tuple(pricing.branch_allocate(self.inst, rep, branch, view) for _prob, branch in self.branches)

    def _vcg_utility(self, profile: tuple, adv_id: str) -> Fraction:
        """`adv_id`'s utility at `profile` under VCG, its outcome kept by
        the profile: the report is built and priced on a miss only."""
        got = self._vcg.get(profile)
        if got is None:
            got = self._vcg[profile] = self.mech.price(self.inst, self._report(profile))
        clicks = got.mixture.clicks(self.inst, adv_id)
        return self.truth.bids.get(adv_id, ZERO) * clicks - got.payments.get(adv_id, ZERO)

    def _at_cap(self, g: int, others: tuple) -> kernels.ScaledView:
        """The view of the report with advertiser `ids[g]` bidding their top
        grid bid on their whole catalog, which their grid must hold
        (`ValueError`), the others at `others`."""
        adv_id = self.ids[g]
        whole = self._code(adv_id, 1, frozenset(self.inst.advertisers[g].ad_ids()))
        return self._view(others[:g] + ((len(self.spaces[adv_id].nums) - 1, whole),) + others[g:])

    def _curve(self, view: kernels.ScaledView, adv_id: str, branch: str, subset: frozenset | None = None):
        """The branch's click curve of `adv_id` on (0, cap] on `subset`'s
        rows (None: all of theirs), `view` being the view of a report with
        `adv_id` bidding the cap, kept in its memo under the key
        ("curve", adv_id, branch, subset)."""
        key = ("curve", adv_id, branch, subset)
        if key in view._memo:
            self.curves_cached += 1
        else:
            self.curves_built += 1
        return view.memo(key, pricing._build_curve, view, adv_id, view.rep.bids[adv_id], branch, branch, subset)

    def payment(self, rep: ReportProfile, adv_id: str) -> Fraction:  # (the benchmark's tracer wraps it here)
        return self.mech.price(self.inst, rep).payments[adv_id]

    def utility(self, rep: ReportProfile, adv_id: str) -> Fraction:  # (the benchmark's tracer wraps it here)
        return utility(self.inst, self.truth, rep, self.mech)[adv_id]

    def _table(self, rep: ReportProfile, adv_id: str, space: StrategySpace) -> list[tuple[list[int], int]]:
        """`row` of `adv_id` on `space` against the others' reports in `rep`,
        each on their grid (`ValueError`) or a one-point grid of it."""
        self._grid(adv_id, space)
        for a in self.ids:
            if a != adv_id and a not in self._grids:
                bid = rep.bids.get(a, ZERO)
                self._grid(a, StrategySpace(a, (bid.numerator,), bid.denominator, (rep.subsets.get(a, frozenset()),)))
        return self.row(self.ids.index(adv_id), self._index(rep, adv_id))

    def row(self, g: int, others: tuple) -> list[tuple[list[int], int]]:
        """The utility of advertiser `ids[g]` at every strategy of their
        grid against `others`, every other advertiser's indices: per subset,
        numerators at each grid bid over one denominator. Kept by (g,
        others); a kept row counts its curve lookups as served.

        A zero bid or the empty subset reports no ad, so by the view's
        contract (`kernels.ScaledView`) it gets no clicks and pays nothing:
        its utility is 0, with no view built. For a threshold-priced rule,
        the row builds one view, the others as given and the bidder at
        their top grid bid on their whole catalog (`_at_cap`), and the
        positive bids of each nonempty subset are one `_sweep` of that
        view's probe for the subset; VCG's are evaluated profile by profile,
        each outcome kept by its profile (`_vcg_utility`).
        """
        got = self._rows.get((g, others))
        if got is not None:
            self.curves_cached += got[1]
            return got[0]
        adv_id = self.ids[g]
        space = self.spaces[adv_id]
        lo, nums, den = self._grids[adv_id]
        lookups = self.curves_built + self.curves_cached
        rows = []
        view = None
        for si, subset in enumerate(space.subsets):
            us, d = [], 1  # no ad or no positive bid: all zeros
            if subset and nums and self.mech.pricing == "vcg":
                utils = [
                    self._vcg_utility(others[:g] + ((bi, si),) + others[g:], adv_id)
                    for bi in range(lo, len(space.nums))
                ]
                d = lcm(*(u.denominator for u in utils))
                us = [u.numerator * (d // u.denominator) for u in utils]
            elif subset and nums:
                if view is None:
                    view = self._at_cap(g, others)
                us, d = self._sweep(view, adv_id, subset, nums, den)
            rows.append(([0] * (len(space.nums) - len(us)) + us, d))
        self._rows[(g, others)] = rows, self.curves_built + self.curves_cached - lookups
        return rows

    def _sweep(
        self, view: kernels.ScaledView, adv_id: str, subset: frozenset, nums: Sequence[int], bid_den: int
    ) -> tuple[list[int], int]:
        """`adv_id`'s utilities at the ascending positive bids `nums[k] /
        bid_den` on `subset`, `view` being the view of a report with
        `adv_id` bidding the cap, at or above each bid, on a superset of
        `subset` (`_at_cap`: their whole catalog), as (numerators, their one
        denominator).

        The view's bidder probe for `subset` (`kernels.BidderProbe`) counts
        only that subset's rows as the bidder's, so it, and each branch's
        click curve off it, kept under `subset`, is that of the report on
        `subset`. Each branch is one ascending pass over its curve
        (`pricing.threshold_payments`): it gives every bid strictly inside
        a run the run's clicks and price at once, reads the probe only at a
        bid on one of the branch's breakpoints, where a drop still raises,
        and prices that bid. Each branch's probe is first read at the top
        bid: a branch proven nondecreasing that gives no clicks there gives
        none at any bid and costs nothing, so it reads no curve and no other
        bid, under either pricing. Neither Myerson's b*x(b) less the
        integral up to b nor GSP's lowest bid keeping x(b) depends on a cap
        at or above b. Each utility is the true value times the expected
        clicks less the payment. The tests keep the sweep that probes every
        bid as the oracle (`tests/oracles.sweep_by_fractions`,
        `profile_rows`).
        """
        value = self.truth.bids.get(adv_id, ZERO)
        probe = view.probe(adv_id, subset)
        paid, den, x, probs, _curves = pricing.threshold_payments(
            self.mech.pricing, nums, bid_den, self.branches, probe, lambda b: self._curve(view, adv_id, b, subset)
        )
        # value * clicks and the payments over one denominator
        clicks_den = value.denominator * probe.click_den * probs
        total = lcm(den, clicks_den)
        c, d = value.numerator * (total // clicks_den), total // den
        return [c * got - d * price for got, price in zip(x, paid)], total


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

    The others are held at their reports in `rep`, each on the one-point
    grid of their report (`_Evaluator._table`). Ties prefer the lowest bid
    index, then the lowest subset index (the grid's subsets run from the
    largest down).
    """
    ev = _evaluator if _evaluator is not None else _Evaluator(inst, truth, mechanism)
    bi, si, n, d = _best_of(ev._table(rep, adv_id, space), space)
    return ev._bid(adv_id, bi), space.subsets[si], Fraction(n, d)


def _best_of(rows: list[tuple[list[int], int]], space: StrategySpace) -> tuple[int, int, int, int]:
    """(bid index, subset index, utility numerator, its denominator) at the
    best entry of `rows` (`_Evaluator.row`), under `best_response`'s tie
    rule: each row's first maximum, then the rows' compared as integers,
    n * d' against n' * d."""
    best = None  # (bid index, subset index) of the best entry so far, of utility n / d
    n = d = 0
    for si, (us, den) in enumerate(rows):
        if not us:
            continue
        top = max(us)
        bi = us.index(top)
        c = top * d - n * den
        if best is None or c > 0 or (c == 0 and (bi, si) < best):
            best, n, d = (bi, si), top, den
    if best is None:
        raise ValueError(f"empty strategy space for advertiser {space.adv_id!r}")
    return (*best, n, d)


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
    A revisited profile is reported as a cycle rather than an error. The
    search runs on strategy indices (`_Evaluator`): each bidder's best
    response and current utility are read off their integer `row` against
    the others' indices, and `ReportProfile`s are built only for the result.
    A truthful report off its bidder's grid raises `ValueError` naming the
    bidder, before any view is built.

    With `explain`, one JSON-ready dict per round and bidder is appended
    to it: the deviations checked, the best response, its utility gain
    over the current report, and the click curves built and served by a
    kept view or row while finding it.
    """
    ev = _Evaluator(inst, truth, mechanism, spaces)
    current = ev._index(truth)
    history = [current]
    seen = {current: 0}
    checks = 0
    violations: list[BetaCheck] = []

    def run_beta(profile: tuple):
        nonlocal checks
        if beta_check:
            checks += 1
            got = beta_bound_check(inst, ev._report(profile))
            if not got.ok:
                violations.append(got)

    def result(status: str, rounds: int, equilibrium: tuple | None = None, cycle=None) -> NashResult:
        # only convergence ends on a pass that scanned every deviation
        return NashResult(
            status, None if equilibrium is None else ev._report(equilibrium), rounds, verified=status == "converged",
            cycle=None if cycle is None else tuple(map(ev._report, cycle)),
            beta_checks=checks, beta_violations=tuple(violations),
        )

    run_beta(current)
    for round_no in range(1, max_rounds + 1):
        improved = False
        for g, adv_id in enumerate(ev.ids):
            space = spaces[adv_id]
            built0, cached0 = ev.curves_built, ev.curves_cached
            others = current[:g] + current[g + 1 :]
            rows = ev.row(g, others)
            bi, si, n, d = _best_of(rows, space)
            built, cached = ev.curves_built - built0, ev.curves_cached - cached0
            bi_now, si_now = current[g]
            now_n, now_d = rows[si_now][0][bi_now], rows[si_now][1]
            if explain is not None:
                best_u, now_u = Fraction(n, d), Fraction(now_n, now_d)
                explain.append(
                    {
                        "round": round_no,
                        "bidder": adv_id,
                        "deviations": len(space.nums) * len(space.subsets),
                        "best_response": {"bid": str(ev._bid(adv_id, bi)), "subset": sorted(space.subsets[si])},
                        "utility": str(now_u),
                        "gain": str(best_u - now_u),
                        "curves_built": built,
                        "curves_cached": cached,
                    }
                )
            if n * now_d > now_n * d:
                current = others[:g] + ((bi, si),) + others[g:]
                improved = True
                run_beta(current)
                if current in seen:
                    return result("cycle", round_no, cycle=history[seen[current] :] + [current])
                seen[current] = len(history)
                history.append(current)
        if not improved:
            return result("converged", round_no, current)
    return result("max-rounds", max_rounds)


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
