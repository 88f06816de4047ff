"""Exact integral optimum: capacity-scaled DP and exhaustive search.

Both solvers maximize reported value and break ties toward the
lexicographically-smallest choice vector (advertisers in id order, the empty
choice before ads, ads by ad_id ascending), so their allocations must match
exactly, not just in value. Both serve at most the instance's
`cardinality_limit` advertisers, when it has one. Size guards raise
GuardExceededError instead of grinding.
"""

from __future__ import annotations

from operator import add
from typing import Iterable

from .kernels import ScaledView
from .model import Allocation, GuardExceededError, Instance, InvariantViolation, ReportProfile

DP_CAPACITY_GUARD = 10**6
ENUMERATION_GUARD = 10**6


def _candidates(view: ScaledView):
    """Per advertiser: [(ad_index, value, space), ...] in ad_id order."""
    per_adv: list[list[tuple[int, int, int]]] = [[] for _ in view.adv_ids]
    for i in range(len(view)):
        per_adv[view.adv[i]].append((i, view.val[i], view.spc[i]))
    return per_adv


class CapacityDP:
    """The capacity DP over one view (see `capacity_dp`): its optimum and its leave-one-out optima.

    A row holds, per slot count c (a single layer when the view's `limit`
    is None), the best scaled value within each scaled capacity w; rows are
    nondecreasing in both. `suffix[g]` is the row of advertisers g.., so
    `suffix[0]` holds the optimum and `suffix[n]` is all zeros. A scaled
    capacity above `DP_CAPACITY_GUARD` (read at call time) raises
    `GuardExceededError` before any table is allocated.
    """

    def __init__(self, view: ScaledView):
        if view.total > DP_CAPACITY_GUARD:
            raise GuardExceededError(
                f"scaled capacity {view.total} exceeds the DP guard {DP_CAPACITY_GUARD}"
            )
        n = view.n_adv()
        if view.limit is None:
            layers, self.shift = 1, 0  # taking an ad uses no slot
        else:
            layers, self.shift = view.limit + 1, 1
        self.total = view.total  # not the view, which keeps its DP
        self.per_adv = _candidates(view)
        self.suffix = [[[0] * (view.total + 1) for _ in range(layers)]] * (n + 1)
        for g in range(n - 1, -1, -1):
            self.suffix[g] = self._extend(self.suffix[g + 1], g)

    def _extend(self, prev: list[list[int]], g: int) -> list[list[int]]:
        """`prev` with advertiser g added: row[c][w] = max(prev[c][w], v + prev[c - shift][w - s])."""
        cands = self.per_adv[g]
        if not cands:
            return prev  # rows are never written once built
        row = [layer.copy() for layer in prev]
        for c in range(self.shift, len(prev)):
            src, out = prev[c - self.shift], row[c]
            for _i, v, s in cands:
                if s < len(out):
                    out[s:] = [x if x >= (t := y + v) else t for x, y in zip(out[s:], src)]
        return row

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
        pre = self.suffix[-1]  # no advertisers: all zeros
        out = {}
        for g in range(max(wanted, default=-1) + 1):
            if g:
                pre = self._extend(pre, g - 1)
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
    `GuardExceededError` when the scaled capacity exceeds `DP_CAPACITY_GUARD`."""
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
