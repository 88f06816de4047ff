"""Exact integral optimum: capacity-scaled DP and exhaustive search.

Both solvers maximize reported value and break ties toward the
lexicographically-smallest choice vector (advertisers in id order, the empty
choice before ads, ads by ad_id ascending), so their allocations must match
exactly, not just in value. Both serve at most the instance's
`cardinality_limit` advertisers, when it has one. The DP does only the
work that can change a table entry: it skips each advertiser's dominated
ads and the constant tail of each row. Size guards raise
GuardExceededError instead of grinding.
"""

from __future__ import annotations

from itertools import count
from operator import add
from typing import Iterable

from .kernels import ScaledView
from .model import Allocation, GuardExceededError, Instance, InvariantViolation, ReportProfile

DP_CAPACITY_GUARD = 10**6
DP_CELLS_GUARD = 10**7
ENUMERATION_GUARD = 10**6


def _candidates(view: ScaledView):
    """Per advertiser: [(ad_index, value, space), ...] in ad_id order."""
    per_adv: list[list[tuple[int, int, int]]] = [[] for _ in view.adv_ids]
    for i in range(len(view)):
        per_adv[view.adv[i]].append((i, view.val[i], view.spc[i]))
    return per_adv


def _undominated(view: ScaledView):
    """`_candidates` without the ads the DP can never choose, and per
    advertiser the widest ad kept (0 for none).

    An ad is dropped if it is wider than the total, or if an ad b of the same
    advertiser has s_b <= s_a and v_b >= v_a, with v_b > v_a or b before a:
    b's option is never worse than a's, and `CapacityDP.choice` checks b
    first or finds b strictly better, so no table entry and no choice
    changes (the dominance rule of multiple-choice knapsack). The rule is
    transitive, so one pass in ad_id order suffices: a new ad is dropped if
    a kept ad covers it, else it drops the kept ads it beats strictly.
    """
    per_adv: list[list[tuple[int, int, int]]] = [[] for _ in view.adv_ids]
    widest = [0] * len(per_adv)
    total = view.total
    for i, g, v, s in zip(count(), view.adv, view.val, view.spc):
        if s > total:
            continue
        kept = per_adv[g]
        if not kept:  # a single-ad advertiser ends here
            kept.append((i, v, s))
            widest[g] = s
            continue
        beaten = False
        for _k, kv, ks in kept:
            if ks <= s and kv >= v:
                break  # covered
            beaten = beaten or (s <= ks and v > kv)
        else:
            if beaten:
                kept[:] = [c for c in kept if s > c[2] or v <= c[1]]
                widest[g] = max([0, *(c[2] for c in kept)])
            kept.append((i, v, s))
            if s > widest[g]:
                widest[g] = s
    return per_adv, widest


def check_dp_guards(view: ScaledView) -> int:
    """The number of slot layers of the view's capacity DP, its `limit` + 1
    (1 without one), once its guards hold: a scaled capacity cap above
    `DP_CAPACITY_GUARD`, or more than `DP_CELLS_GUARD` table cells,
    (n + 1) · layers · (cap + 1), raises `GuardExceededError`. Both guards
    are read at call time."""
    if view.total > DP_CAPACITY_GUARD:
        raise GuardExceededError(f"scaled capacity {view.total} exceeds the DP guard {DP_CAPACITY_GUARD}")
    layers = 1 if view.limit is None else view.limit + 1
    cells = (view.n_adv() + 1) * layers * (view.total + 1)
    if cells > DP_CELLS_GUARD:
        raise GuardExceededError(f"{cells} DP table cells exceed the DP cells guard {DP_CELLS_GUARD}")
    return layers


class CapacityDP:
    """The capacity DP over one view (see `capacity_dp`): its optimum and its leave-one-out optima.

    A row holds, per slot count c (a single layer when the view's `limit`
    is None), the best scaled value within each scaled capacity w; rows are
    nondecreasing in both. `suffix[g]` is the row of advertisers g.., so
    `suffix[0]` holds the optimum and `suffix[n]` is all zeros. Only each
    advertiser's undominated ads enter (`_undominated`), and a row is computed
    only up to its reach, the sum of its advertisers' widest such ads capped
    at the total, beyond which it is constant. A pass costs
    O(layers · Σ_g m_g · reach_g) for the m_g undominated ads of advertiser g
    and the reach of its row, at most O(layers · n · m · cap) for m ads each
    and scaled capacity cap. `check_dp_guards` runs before any table is
    allocated.
    """

    def __init__(self, view: ScaledView):
        layers = check_dp_guards(view)
        n = view.n_adv()
        self.shift = 0 if view.limit is None else 1  # without a limit, taking an ad uses no slot
        self.total = view.total  # not the view, which keeps its DP
        self.per_adv, self.widest = _undominated(view)
        self.suffix = [[[0] * (view.total + 1) for _ in range(layers)]] * (n + 1)
        reach = 0
        for g in range(n - 1, -1, -1):
            self.suffix[g], reach = self._extend(self.suffix[g + 1], reach, g)

    def _extend(self, prev: list[list[int]], reach: int, g: int) -> tuple[list[list[int]], int]:
        """`prev`, constant from `reach` on, with advertiser g added:
        row[c][w] = max(prev[c][w], v + prev[c - shift][w - s]), and the new
        reach. Only w up to the new reach is computed; the rest of each layer
        repeats its value there."""
        cands = self.per_adv[g]
        if not cands:
            return prev, reach  # rows are never written once built
        reach += self.widest[g]
        tail = self.total - reach
        if tail < 0:  # the reach is capped at the total
            reach, tail = self.total, 0
        hi = reach + 1
        row = prev[: self.shift]  # layer 0 under a limit: no slot, all zeros
        for c in range(self.shift, len(prev)):
            src, out = prev[c - self.shift], prev[c][:hi]
            for _i, v, s in cands:
                out[s:] = [x if x >= (t := y + v) else t for x, y in zip(out[s:], src)]
            if tail:
                out += [out[reach]] * tail
            row.append(out)
        return row, reach

    def choice(self) -> list[int]:
        """The optimal choice vector that is lexicographically first: per
        advertiser the empty choice before ads, ads by ad_id ascending."""
        chosen = [-1] * len(self.per_adv)
        w, c = self.total, len(self.suffix[0]) - 1
        for g, cands in enumerate(self.per_adv):
            target = self.suffix[g][c][w]
            nxt = self.suffix[g + 1]
            if nxt[c][w] == target:
                continue  # the empty choice is lexicographically first
            for i, v, s in cands:
                if s <= w and c >= self.shift and v + nxt[c - self.shift][w - s] == target:
                    chosen[g] = i
                    w -= s
                    c -= self.shift
                    break
        return chosen

    def optima_without(self, advertisers: Iterable[int]) -> dict[int, int]:
        """The optimum scaled value without each of the given advertiser indices.

        Streams the prefix row of advertisers ..g-1 and joins it with
        `suffix[g + 1]`: the optimum without g is the max over w and c of
        pre[c][w] + suffix[g + 1][top - c][cap - w]. Only one prefix row is
        held at a time.
        """
        wanted = set(advertisers)
        top = len(self.suffix[0]) - 1
        pre, reach = self.suffix[-1], 0  # no advertisers: all zeros
        out = {}
        for g in range(max(wanted, default=-1) + 1):
            if g:
                pre, reach = self._extend(pre, reach, g - 1)
            if g in wanted:
                suf = self.suffix[g + 1]
                out[g] = max(max(map(add, pre[c], reversed(suf[top - c]))) for c in range(top + 1))
        return out


def capacity_dp(view: ScaledView) -> CapacityDP:
    """The view's one `CapacityDP`, kept in its memo; a `GuardExceededError` keeps nothing."""
    return view.memo("dp", CapacityDP, view)


def int_opt_dp(inst: Instance, rep: ReportProfile) -> Allocation:
    """Integral optimum by dynamic programming over scaled capacity: the
    backtrack (`CapacityDP.choice`) of a new view's `capacity_dp`, the tables
    `pricing.vcg_payments` reads its counterfactual optima from. Raises
    `GuardExceededError` when the scaled capacity exceeds `DP_CAPACITY_GUARD`
    or the tables `DP_CELLS_GUARD`."""
    view = ScaledView(inst, rep)
    return view.allocation(capacity_dp(view).choice())


def int_opt_exhaustive(
    inst: Instance,
    rep: ReportProfile,
    enum_guard: int = ENUMERATION_GUARD,
    view: ScaledView | None = None,
) -> Allocation:
    """Integral optimum by depth-first enumeration of choice vectors.

    Visits vectors in lexicographic preference order and keeps the first
    strict improvement, which reproduces the DP's tie rule exactly. `view`,
    when given, is the view of (inst, rep).
    """
    if view is None:
        view = ScaledView(inst, rep)
    per_adv = _candidates(view)
    n = view.n_adv()

    combos = 1
    for cands in per_adv:
        combos *= len(cands) + 1
        if combos > enum_guard:
            raise GuardExceededError(
                f"{combos}+ choice vectors exceed the enumeration guard {enum_guard}"
            )

    # suffix bound for pruning: most value the remaining advertisers can add
    suffix_best = [0] * (n + 1)
    for g in range(n - 1, -1, -1):
        top = max((v for _i, v, _s in per_adv[g]), default=0)
        suffix_best[g] = suffix_best[g + 1] + top

    best_value = -1
    best_chosen: list[int] | None = None
    chosen = [-1] * n

    def walk(g: int, value: int, room: int, slots: int):
        nonlocal best_value, best_chosen
        if value + suffix_best[g] <= best_value:
            return  # even the first-found optimum wins ties, so <= prunes safely
        if g == n:
            if value > best_value:
                best_value = value
                best_chosen = chosen.copy()
            return
        chosen[g] = -1
        walk(g + 1, value, room, slots)
        if slots > 0:
            for i, v, s in per_adv[g]:
                if s <= room:
                    chosen[g] = i
                    walk(g + 1, value + v, room - s, slots - 1)
            chosen[g] = -1

    walk(0, 0, view.total, view.limit or n)
    if best_chosen is None:
        raise InvariantViolation("exhaustive search found no allocation, not even the empty one")
    return view.allocation(best_chosen)


CROSS_CHECK_GUARD = 10**4


def int_opt_cross_checked(inst: Instance, rep: ReportProfile, view: ScaledView | None = None) -> Allocation:
    """The optimum of the view's `capacity_dp`, re-verified by exhaustive
    search when the instance has at most `CROSS_CHECK_GUARD` choice vectors.
    `view`, when given, is the view of (inst, rep); the search reads it too."""
    if view is None:
        view = ScaledView(inst, rep)
    alloc = view.allocation(capacity_dp(view).choice())
    try:
        other = int_opt_exhaustive(inst, rep, CROSS_CHECK_GUARD, view)
    except GuardExceededError:
        return alloc
    if alloc.entries != other.entries:
        raise InvariantViolation(f"DP optimum {alloc.entries} and exhaustive optimum {other.entries} disagree")
    return alloc
