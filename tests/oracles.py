"""Independent oracles the tests check library output against.

Everything here is deliberately written from the definitions, structured
differently from the library code (dicts and event lists instead of scaled
integer arrays), so an agreement between the two is evidence rather than
an identity.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from richads.fracopt import FractionalSolution, advertiser_points, eliminate_dominated, fractional_opt
from richads.kernels import ScaledView
from richads.model import (
    Allocation,
    Instance,
    ReportProfile,
    Violation,
    as_mixture,
    instance_to_dict,
)


def effective_values(inst: Instance, rep: ReportProfile) -> dict[tuple[str, str], Fraction]:
    """Reported per-ad values b_i * alpha_ij, for reported ads only: the
    Fraction form of a view's rows, once `richads.model.effective_values`."""
    out: dict[tuple[str, str], Fraction] = {}
    for adv in inst.advertisers:
        bid = rep.bids.get(adv.adv_id, Fraction(0))
        subset = rep.subsets.get(adv.adv_id, frozenset())
        for ad in adv.ads:
            if ad.ad_id in subset:
                out[(adv.adv_id, ad.ad_id)] = bid * ad.alpha
    return out


def scaled_view_by_fractions(inst: Instance, rep: ReportProfile) -> dict:
    """Every `kernels.ScaledView.FIELDS` value of (inst, rep), built in
    Fractions as the view was before it read numerators and denominators:
    rows are the reported ads of a positive bid whose effective value
    bid * alpha is positive, sorted by (adv_id, ad_id); values are scaled
    by the lcm of their denominators, spaces and the total by the lcm of
    theirs."""
    k = inst.cardinality_limit
    if k is not None and k < 1:
        raise ValueError(f"cardinality limit must be >= 1, got {k}")
    adv_ids = inst.adv_ids()
    rows = []  # (adv_idx, ad_id, effective value, space)
    for ai, advertiser in enumerate(inst.advertisers):
        bid = rep.bids.get(advertiser.adv_id, Fraction(0))
        if bid <= 0:
            continue
        subset = rep.subsets.get(advertiser.adv_id, frozenset())
        for ad in advertiser.ads:
            if ad.ad_id in subset:
                eff = bid * ad.alpha
                if eff > 0:
                    rows.append((ai, ad.ad_id, eff, ad.space))
    rows.sort(key=lambda r: (r[0], r[1]))
    space_scale = lcm(inst.total_space.denominator, *(r[3].denominator for r in rows))
    value_scale = lcm(*(r[2].denominator for r in rows))
    return {
        "inst": inst,
        "rep": rep,
        "adv_ids": adv_ids,
        "adv_index": {a: i for i, a in enumerate(adv_ids)},
        "adv": [r[0] for r in rows],
        "ad_ids": [r[1] for r in rows],
        "val": [r[2].numerator * (value_scale // r[2].denominator) for r in rows],
        "spc": [int(r[3] * space_scale) for r in rows],
        "total": int(inst.total_space * space_scale),
        "value_scale": value_scale,
        "space_scale": space_scale,
        "limit": k if k is not None and k < len(adv_ids) else None,
    }


def reported_value(inst: Instance, rep: ReportProfile, alloc: Allocation) -> Fraction:
    """The allocation's value at the reported bids: effective value times weight."""
    eff = effective_values(inst, rep)
    return sum(
        (eff[(adv_id, ad_id)] * weight for adv_id, (ad_id, weight) in alloc.entries.items()),
        Fraction(0),
    )


def vcg_by_resolving(inst: Instance, rep: ReportProfile, solver):
    """VCG with one `solver(inst, rep)` call per served advertiser, on the
    profile without them: each pays the others' optimum without them minus
    the others' value at the optimum. `pricing.vcg_payments` gets the same
    payments from two DP passes."""
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
    return finish_outcome(inst, rep, as_mixture(alloc), payments, "vcg")


class _DenseCapacityDP:

    def __init__(self, view):
        self.shift = 0 if view.limit is None else 1  # taking an ad uses a slot under a limit
        layers = 1 if view.limit is None else view.limit + 1
        self.total = view.total
        self.per_adv = [[] for _ in view.adv_ids]
        for i in range(len(view)):
            self.per_adv[view.adv[i]].append((i, view.val[i], view.spc[i]))
        n = len(self.per_adv)
        self.suffix = [[[0] * (view.total + 1) for _ in range(layers)]] * (n + 1)
        for g in range(n - 1, -1, -1):
            self.suffix[g] = self._extend(self.suffix[g + 1], g)

    def _extend(self, prev, g):
        row = [layer.copy() for layer in prev]
        for c in range(self.shift, len(prev)):
            src, out = prev[c - self.shift], row[c]
            for _i, v, s in self.per_adv[g]:
                if s < len(out):
                    out[s:] = [max(x, y + v) for x, y in zip(out[s:], src)]
        return row

    def choice(self):
        chosen = [-1] * len(self.per_adv)
        w, c = self.total, len(self.suffix[0]) - 1
        for g, cands in enumerate(self.per_adv):
            target, nxt = self.suffix[g][c][w], self.suffix[g + 1]
            if nxt[c][w] == target:
                continue
            for i, v, s in cands:
                if s <= w and c >= self.shift and v + nxt[c - self.shift][w - s] == target:
                    chosen[g], w, c = i, w - s, c - self.shift
                    break
        return chosen

    def optima_without(self, advertisers):
        top, out = len(self.suffix[0]) - 1, {}
        for g in advertisers:
            pre = self.suffix[-1]
            for h in range(g):
                pre = self._extend(pre, h)
            suf = self.suffix[g + 1]
            out[g] = max(
                pre[c][w] + suf[top - c][self.total - w] for c in range(top + 1) for w in range(self.total + 1)
            )
        return out


def capacity_dp_over_every_ad(view) -> _DenseCapacityDP:
    """The capacity DP over every ad of the view and every capacity: the
    tables (`suffix`), `choice()` and `optima_without()` that
    `exact.CapacityDP` must reproduce while it skips dominated ads and the
    constant tail of each row."""
    return _DenseCapacityDP(view)


def int_opt_by_dense_dp(inst: Instance, rep: ReportProfile) -> Allocation:
    """The integral optimum by `capacity_dp_over_every_ad`'s backtrack; a
    `solver` for `vcg_by_resolving`."""
    view = ScaledView(inst, rep)
    return view.allocation(capacity_dp_over_every_ad(view).choice())


def finish_outcome(inst: Instance, rep: ReportProfile, mixture, payments: dict, rule_name: str, curves=None):
    """`pricing._finish_outcome` in Fractions, as the library ran it before
    its integer check: each advertiser's payment (0 when absent from
    `payments`), checked against 0 <= p <= bid * clicks with the clicks
    read off `mixture`, and its cost per click."""
    from richads.model import InvariantViolation
    from richads.pricing import PricedOutcome

    cpc = {}
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
    return PricedOutcome(rule_name=rule_name, mixture=mixture, payments=payments, cpc=cpc, curves=curves or {})


def checked_like_the_fraction_oracle(inst: Instance, rep: ReportProfile) -> Counter:
    """Myerson, GSP and VCG at `rep` equal `finish_outcome` run on their
    own mixture and payments (AssertionError otherwise): the integer check
    passes where the Fraction check does, with the same costs per click.
    Counts the advertisers priced with no clicks, with a zero bid and with
    no ad reported."""
    from richads import monotone, pricing

    seen = Counter()
    for mech in (
        pricing.Mechanism("myerson", pricing.mixture_rule()),
        pricing.Mechanism("gsp", pricing.mixture_rule(monotone.GSP_MIX_P)),
        pricing.Mechanism("vcg"),
    ):
        got = mech.price(inst, rep)
        assert got == finish_outcome(inst, rep, got.mixture, dict(got.payments), got.rule_name, got.curves), mech
        for adv_id in inst.adv_ids():
            seen["no clicks"] += got.cpc[adv_id] is None
            seen["zero bid"] += rep.bids[adv_id] == 0
            seen["no ads"] += not rep.subsets[adv_id]
    return seen


def walk_space_auction(inst: Instance, rep: ReportProfile, stop_on_misfit: bool):
    """Reference space walk straight from the definition.

    Scans reported ads by bang-per-buck descending (ties: adv_id, ad_id
    ascending), charges each advertiser only the increment over what they
    already hold, and either stops fractionally on the first misfit or
    skips it. Returns (spaces, held_ad, fractional) with plain Fractions.
    """
    eff = effective_values(inst, rep)
    items = []
    for (adv_id, ad_id), value in eff.items():
        if value > 0:
            space = inst.advertiser(adv_id).ad(ad_id).space
            items.append((adv_id, ad_id, value, space))
    items.sort(key=lambda t: (-(t[2] / t[3]), t[0], t[1]))

    spaces: dict[str, Fraction] = {}
    held: dict[str, str] = {}
    remaining = inst.total_space
    fractional = None
    for adv_id, ad_id, _value, space in items:
        if remaining == 0:
            break
        have = spaces.get(adv_id, Fraction(0))
        if space <= have:
            continue
        need = space - have
        if need <= remaining:
            spaces[adv_id] = space
            held[adv_id] = ad_id
            remaining -= need
        elif stop_on_misfit:
            final = have + remaining
            spaces[adv_id] = final
            held[adv_id] = ad_id
            fractional = (adv_id, ad_id, final / space)
            remaining = Fraction(0)
            break
    return spaces, held, fractional


def greedy_walk(inst: Instance, rep: ReportProfile, order: str) -> dict[str, str]:
    """The greedy rules from their definitions: served adv_id -> ad_id.

    Reported ads of positive value are walked by bang-per-buck ("bpb",
    zero-space ads first) or value ("value") descending, ties by (adv_id,
    ad_id). At most k advertisers are served, k the cardinality limit or
    else the number of advertisers.

    bpb: a holder moves up to a larger ad whose increment fits; a newcomer
    joins if it fits and fewer than k hold, else it pushes out the holder
    of lowest value (ties: smallest adv_id) if it beats that value strictly
    and fits in the space so freed. Then each holder of positive space gets
    their most valuable ad within it (ties: smallest ad_id).

    value: each advertiser gets the first of their ads that fits, until k
    are served.
    """
    items = []  # (adv_id, ad_id, value, space)
    for (adv_id, ad_id), value in effective_values(inst, rep).items():
        if value > 0:
            items.append((adv_id, ad_id, value, inst.advertiser(adv_id).ad(ad_id).space))
    if order == "bpb":
        items.sort(key=lambda t: (t[3] != 0, -(t[2] / t[3]) if t[3] else 0, t[0], t[1]))
    else:
        items.sort(key=lambda t: (-t[2], t[0], t[1]))
    k = len(inst.advertisers) if inst.cardinality_limit is None else inst.cardinality_limit
    remaining = inst.total_space
    held: dict[str, tuple[Fraction, Fraction]] = {}  # adv_id -> (value, space) of the ad held
    served: dict[str, str] = {}
    for adv_id, ad_id, value, space in items:
        if order == "value":
            if len(served) < k and adv_id not in served and space <= remaining:
                served[adv_id] = ad_id
                remaining -= space
            continue
        if adv_id in held:
            have = held[adv_id][1]
            if have < space <= have + remaining:
                held[adv_id] = (value, space)
                remaining -= space - have
        elif len(held) < k:
            if space <= remaining:
                held[adv_id] = (value, space)
                remaining -= space
        else:
            weakest = min(held, key=lambda a: (held[a][0], a))
            if value > held[weakest][0] and space <= remaining + held[weakest][1]:
                remaining += held.pop(weakest)[1] - space
                held[adv_id] = (value, space)
    if order == "value":
        return served
    for adv_id, (_value, width) in held.items():
        fitting = [(-value, ad_id) for a, ad_id, value, space in items if a == adv_id and space <= width]
        if width > 0 and fitting:
            served[adv_id] = min(fitting)[1]
    return served


def best_fitting_ad(inst: Instance, rep: ReportProfile, adv_id: str, width: Fraction):
    """Most valuable reported ad of one advertiser fitting in `width`."""
    eff = effective_values(inst, rep)
    best = None
    for ad in sorted(inst.advertiser(adv_id).ads, key=lambda a: a.ad_id):
        value = eff.get((adv_id, ad.ad_id))
        if value is None or ad.space > width:
            continue
        if best is None or value > best[1]:
            best = (ad.ad_id, value)
    return best


def brute_force_opt(inst: Instance, rep: ReportProfile):
    """Exact integral optimum by full enumeration, with the lex tie rule,
    serving at most the instance's `cardinality_limit` advertisers.

    Candidate vectors assign each advertiser None or one reported ad; among
    value-maximal feasible vectors the lexicographically smallest wins
    (advertisers in id order, None before ads, ads by ad_id ascending).
    Returns (entries dict, value).
    """
    eff = effective_values(inst, rep)
    options = []
    order = inst.adv_ids()
    for adv_id in order:
        mine = [None] + sorted(
            ad.ad_id for ad in inst.advertiser(adv_id).ads if (adv_id, ad.ad_id) in eff
        )
        options.append(mine)

    def rank(vector):
        # None sorts before any ad id
        return tuple((0, "") if ad is None else (1, ad) for ad in vector)

    best_vec = None
    best_value = Fraction(-1)
    for vector in product(*options):
        space = Fraction(0)
        value = Fraction(0)
        served = 0
        for adv_id, ad_id in zip(order, vector):
            if ad_id is None:
                continue
            served += 1
            space += inst.advertiser(adv_id).ad(ad_id).space
            value += eff[(adv_id, ad_id)]
        if space > inst.total_space:
            continue
        if inst.cardinality_limit is not None and served > inst.cardinality_limit:
            continue
        if value > best_value or (value == best_value and rank(vector) < rank(best_vec)):
            best_value = value
            best_vec = vector
    entries = {a: ad for a, ad in zip(order, best_vec) if ad is not None}
    return entries, max(best_value, Fraction(0))


def brute_force_fractional(inst: Instance, rep: ReportProfile):
    """Float LP value of the fractional relaxation, via scipy.

    Variables are x_ij in [0,1] per reported ad; constraints are one unit
    per advertiser and the space budget. Returns the optimum as a float.
    """
    from scipy.optimize import linprog

    eff = effective_values(inst, rep)
    keys = sorted(k for k, v in eff.items() if v > 0)
    if not keys:
        return 0.0
    c = [-float(eff[k]) for k in keys]
    a_ub = []
    b_ub = []
    for adv_id in inst.adv_ids():
        row = [1.0 if k[0] == adv_id else 0.0 for k in keys]
        if any(row):
            a_ub.append(row)
            b_ub.append(1.0)
    a_ub.append([float(inst.advertiser(a).ad(j).space) for a, j in keys])
    b_ub.append(float(inst.total_space))
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * len(keys), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def fractional_opt_by_fractions(inst: Instance, rep: ReportProfile):
    """`fracopt.fractional_opt` in Fractions, as the library ran it before
    it walked the view's integers: the envelopes of the reported Fraction
    (value, space) points, increments sorted by their Fraction incremental
    bang-per-buck (desc, then adv_id and upper ad_id asc), and the first
    one that does not fit split."""
    increments = []  # (ibpb, adv_id, lower point | None, upper point)
    for adv in inst.advertisers:
        survivors, _ = eliminate_dominated(advertiser_points(inst, rep, adv.adv_id))
        prev = None
        for pt in survivors:
            dv = pt.value - (prev.value if prev else 0)
            dw = pt.space - (prev.space if prev else 0)
            increments.append((dv / dw, adv.adv_id, prev, pt))
            prev = pt
    increments.sort(key=lambda t: (-t[0], t[1], t[3].ad_id))
    held = {}
    remaining = inst.total_space
    entries = {}
    objective = Fraction(0)
    fractional_adv = None
    for _ibpb, adv_id, lower, upper in increments:
        if remaining == 0:
            break
        inc = upper.space - (lower.space if lower else 0)
        if inc <= remaining:
            held[adv_id] = upper
            remaining -= inc
            continue
        x_upper = remaining / inc
        pairs = [] if lower is None else [(lower.ad_id, 1 - x_upper)]
        entries[adv_id] = (*pairs, (upper.ad_id, x_upper))
        objective += (lower.value * (1 - x_upper) if lower else 0) + upper.value * x_upper
        fractional_adv = adv_id
        held.pop(adv_id, None)
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

    best_ad = None
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


def validate_report(inst: Instance, rep: ReportProfile) -> list:
    """The report's unknown advertisers and ads and its negative bids, as
    `model.Violation`s."""
    out = []
    known = set(inst.adv_ids())
    for adv_id, bid in rep.bids.items():
        if adv_id not in known:
            out.append(Violation("unknown-advertiser", f"report {adv_id!r}", "bid for unknown advertiser"))
        elif bid < 0:
            out.append(Violation("negative-bid", f"report {adv_id!r}", f"bid must be >= 0, got {bid}"))
    for adv_id, subset in rep.subsets.items():
        if adv_id not in known:
            out.append(Violation("unknown-advertiser", f"report {adv_id!r}", "subset for unknown advertiser"))
            continue
        catalog = set(inst.advertiser(adv_id).ad_ids())
        for ad_id in subset:
            if ad_id not in catalog:
                out.append(Violation("unknown-ad", f"report {adv_id!r}", f"subset names unknown ad {ad_id!r}"))
    return out


def save_instance(inst: Instance, path) -> None:
    """Write the instance as the JSON `model.load_instance` reads."""
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def best_value_in_width(points, width: Fraction) -> Fraction:
    """Exact one-advertiser fractional optimum in `width` of space.

    Enumerates the vertices of {x >= 0, sum x <= 1, sum w x <= width} over
    singles and pairs of ads; the LP optimum sits on one of them.
    """
    width = Fraction(width)
    best = Fraction(0)
    pts = [(Fraction(v), Fraction(w)) for v, w in points if v > 0]
    for v, w in pts:
        x = min(Fraction(1), width / w)
        best = max(best, v * x)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            (v1, w1), (v2, w2) = pts[i], pts[j]
            if w1 == w2:
                continue
            # vertex where both constraints bind
            x1 = (width - w2) / (w1 - w2)
            x2 = 1 - x1
            if 0 <= x1 <= 1 and 0 <= x2 <= 1 and w1 * x1 + w2 * x2 <= width:
                best = max(best, v1 * x1 + v2 * x2)
    return best


def riemann_myerson(inst: Instance, rep: ReportProfile, adv_id: str, rule, steps: int = 1000):
    """Numeric Myerson payment b*x(b) - sum x(t_k) * (b/steps) on a bid grid.

    Uses the library's allocation rule as the click function (the oracle
    targets the threshold enumeration, not the allocation itself). Returns
    a float; the exact payment must agree within the grid error.
    """
    from richads.pricing import rule_allocate

    bid = rep.bids[adv_id]
    if bid <= 0:
        return 0.0
    step = bid / steps
    integral = Fraction(0)
    for k in range(steps):
        probe = rep.replace(adv_id, step * k + step / 2, rep.subsets[adv_id])
        integral += step * rule_allocate(inst, probe, rule).clicks(inst, adv_id)
    clicks = rule_allocate(inst, rep, rule).clicks(inst, adv_id)
    return float(bid * clicks - integral)


def tie_candidates_pairwise(inst: Instance, rep: ReportProfile, adv_id: str, kinds, cap: Fraction):
    """Every bid in (0, cap] where one of `adv_id`'s ads ties another
    advertiser's reported ad in bang-per-buck ("bpb") or value ("value"),
    computed pair by pair in Fractions."""
    subset = rep.subsets.get(adv_id, frozenset())
    out = set()
    for (other_id, other_ad), eff in effective_values(inst, rep).items():
        if other_id == adv_id or eff <= 0:
            continue
        space = inst.advertiser(other_id).ad(other_ad).space
        for ad in inst.advertiser(adv_id).ads:
            if ad.ad_id not in subset or ad.alpha <= 0:
                continue
            ties = []
            if "bpb" in kinds and space and ad.space:  # a zero-space row ties nothing in bang-per-buck
                ties.append(eff * ad.space / (space * ad.alpha))
            if "value" in kinds:
                ties.append(eff / ad.alpha)
            out.update(t for t in ties if 0 < t <= cap)
    return sorted(out)


# each branch's tie kinds: the pairwise candidates its click curves were
# bisected (or scanned) over before each branch read its own breakpoints
PAIRWISE_KINDS = {"bpb": ("bpb",), "max-value": ("value",), "greedy-bpb": ("bpb", "value"), "greedy-value": ("value",)}


def curve_over_pairwise_ties(view, adv_id: str, cap: Fraction, branch: str, rule_name: str, subset=None):
    """`pricing._build_curve` over every pairwise tie of the branch's kinds
    (`PAIRWISE_KINDS`, `kernels.BidderProbe.ties`), as it ran before each
    branch read its breakpoints off its probe's tables: the clicks at each
    interval's midpoint, bisected for a monotone branch, else scanned, and
    folded into runs, on the bidder's rows in `subset` (None: all of them);
    a drop raises `NonMonotoneClickCurveError`."""
    from richads.model import NonMonotoneClickCurveError
    from richads.pricing import BRANCHES, BidThresholds, _bisect_clicks

    rule = BRANCHES[branch]
    bidder = view.probe(adv_id, subset)
    ties, den = bidder.ties(PAIRWISE_KINDS[branch], cap)
    points = [0, *ties]
    top = cap.numerator * (den // cap.denominator)
    if points[-1] < top:
        points.append(top)
    probed: dict[int, int] = {}

    def probe(j: int) -> int:
        if j not in probed:
            probed[j] = rule.probe(bidder, points[j] + points[j + 1], 2 * den)
        return probed[j]

    n = len(points) - 1
    clicks = _bisect_clicks(n, probe) if rule.monotone else [probe(j) for j in range(n)]
    runs = [(0, clicks[0])]
    for j in range(1, n):
        x, level = clicks[j], runs[-1][1]
        if x < level:
            lo, mid, hi = (Fraction(points[i], den) for i in (j - 1, j, j + 1))
            c = bidder.click_den
            raise NonMonotoneClickCurveError(
                adv_id, rule_name, (lo, mid), (mid, hi), Fraction(level, c), Fraction(x, c)
            )
        if x > level:
            runs.append((points[j], x))
    return BidThresholds(adv_id, cap, tuple(runs), ties, den, bidder.click_den, len(probed))


def bpb_breakpoints_uncut(probe, cap: Fraction) -> tuple[list[int], int]:
    """`kernels.BidderProbe.bpb_breakpoints` as it ran before each own row
    read only the keys at or after its position at the cap: every own
    density ties every keyed row before the walk's cut, and `_tie_bids`
    drops the bids above the cap."""
    from bisect import bisect_left

    from richads.kernels import _tie_bids

    if probe._walk is None:
        probe._walk = probe._walk_tables()
    total, keys, prefix, own, bn = probe._walk
    others = [-(k // 3) for k in keys[: bisect_left(prefix, total)]]  # a key is -3 * density (+ 2)
    return _tie_bids([(others, d) for d in {d for d, _w in own}], bn, cap)


def recording_threshold_payments(monkeypatch) -> list:
    """Every `pricing.threshold_payments` call that returns while the patch
    holds, a report's or a sweep's, as (kind, bids, bid_den, branches, the
    bidder probe, whether the clicks were given, the curves read)."""
    from richads import pricing

    calls = []
    price = pricing.threshold_payments

    def recorded(kind, bids, bid_den, branches, bidder, curve, clicks=None, rule_name=None):
        out = price(kind, bids, bid_den, branches, bidder, curve, clicks, rule_name)
        calls.append((kind, tuple(bids), bid_den, branches, bidder, clicks is not None, out[-1]))
        return out

    monkeypatch.setattr(pricing, "threshold_payments", recorded)
    return calls


def check_curveless_branches(calls) -> Counter:
    """For every branch a recorded `threshold_payments` call priced without
    a curve (None; `recording_threshold_payments`), the check that it gives
    the bidder no clicks at any bid: a branch proven nondecreasing must
    read none at the top bid, and its curve up to that bid, built anyway
    over every pairwise tie (`curve_over_pairwise_ties`) on the bidder's
    probe, must be one run of no clicks; a scanned branch, skipped under
    GSP only, must read none at each of the bids. AssertionError otherwise.
    Returns the branches checked by (kind, "report" or "sweep")."""
    from richads.pricing import BRANCHES

    checked = Counter()
    seen = set()
    for kind, bids, bid_den, branches, bidder, given, curves in calls:
        top = Fraction(bids[-1], bid_den)
        for (_prob, branch), curve in zip(branches, curves):
            key = (id(bidder), branch, bids)  # the recorded probes are alive, so their ids are distinct
            if curve is not None or key in seen:
                continue
            seen.add(key)
            rule, where = BRANCHES[branch], (kind, bidder.adv_id, sorted(bidder.subset or ()), branch, top)
            if rule.monotone:
                built = curve_over_pairwise_ties(bidder.view, bidder.adv_id, top, branch, branch, bidder.subset)
                assert built.runs == ((0, 0),) and not rule.probe(bidder, bids[-1], bid_den), where
            else:
                assert kind == "gsp" and not any(rule.probe(bidder, b, bid_den) for b in bids), where
            checked[kind, "report" if given else "sweep"] += 1
    return checked


class BpbKey:
    """Sort key comparing bang-per-buck by cross-multiplication.

    Sorting row indices by BpbKey(val[i], spc[i]) puts higher val/spc first;
    a zero-space row compares above every positive-space row and equal to
    other zero-space rows. This was the kernels' comparator before the
    integer keys of `ScaledView.bpb_order`, which must order rows the same way.
    """

    __slots__ = ("v", "w")

    def __init__(self, v, w):
        self.v = v
        self.w = w

    def __lt__(self, other):
        # descending bang-per-buck: self before other iff v/w > other.v/other.w
        return self.v * other.w > other.v * self.w


def profile_utility(ev, rep: ReportProfile, adv_id):
    """`equilibrium._Evaluator.utility` profile by profile, as it ran before
    every threshold-priced utility was read off a sweep: the clicks off the
    branch allocations at `rep`'s own view, the payment by
    `pricing.threshold_payments` at the one bid, against curves kept in the
    view of `rep` with `adv_id` at the cap (their true value, or the bid
    when it is higher). VCG is `ev.utility`."""
    from richads import pricing

    if ev.mech.pricing == "vcg":
        return ev.utility(rep, adv_id)
    view = ev._view(ev._index(rep))
    allocs = [pricing.branch_allocate(ev.inst, rep, branch, view) for _prob, branch in ev.branches]
    clicks = sum(prob * alloc.clicks(ev.inst, adv_id) for (prob, _b), alloc in zip(ev.branches, allocs))
    value = ev.truth.bids.get(adv_id, Fraction(0))
    bid = rep.bids.get(adv_id, Fraction(0))
    subset = rep.subsets.get(adv_id, frozenset())
    if bid <= 0 or not subset:
        return value * clicks
    cap = ev.truth.bids.get(adv_id, bid)
    at_cap = rep if bid >= cap else rep.replace(adv_id, cap, subset)
    bidder = view.probe(adv_id)
    (paid,), den, *_ = pricing.threshold_payments(
        ev.mech.pricing,
        (bid.numerator,),
        bid.denominator,
        ev.branches,
        bidder,
        lambda branch: ev._curve(ev._view(ev._index(at_cap)), adv_id, branch),
        [(pricing.clicks_over(alloc.clicks(ev.inst, adv_id), bidder.click_den),) for alloc in allocs],
    )
    return value * clicks - Fraction(paid, den)


def profile_table(ev, rep: ReportProfile, adv_id, space):
    """`equilibrium._Evaluator.utility_table` by one full-profile utility
    evaluation per grid point (`profile_utility`): row si, column bi is the
    utility at `rep.replace(adv_id, space.bids[bi], space.subsets[si])`."""
    return [
        [profile_utility(ev, rep.replace(adv_id, bid, subset), adv_id) for bid in space.bids]
        for subset in space.subsets
    ]


def profile_rows(ev, g, others):
    """`equilibrium._Evaluator.row` by `profile_table`: advertiser g's
    utilities against the report of the index profile `others`, per subset
    as (numerators, their lcm)."""
    adv_id = ev.ids[g]
    rows = []
    for us in profile_table(ev, ev._report(others[:g] + ((0, 0),) + others[g:]), adv_id, ev.spaces[adv_id]):
        den = lcm(*(u.denominator for u in us))
        rows.append(([u.numerator * (den // u.denominator) for u in us], den))
    return rows


def best_response_by_profiles(inst: Instance, truth: ReportProfile, rep: ReportProfile, adv_id, mechanism, space, _evaluator=None):
    """Best response as the argmax of `profile_table`.

    The loop `equilibrium.best_response` ran before its sweep over click
    curves: same tie rule (highest utility, then lowest bid index, then
    lowest subset index). Returns (bid, subset, utility).
    """
    from richads.equilibrium import _Evaluator

    ev = _evaluator if _evaluator is not None else _Evaluator(inst, truth, mechanism)
    best = None  # (utility, bid index, subset index)
    for si, row in enumerate(profile_table(ev, rep, adv_id, space)):
        for bi, u in enumerate(row):
            if best is None or u > best[0] or (u == best[0] and (bi, si) < (best[1], best[2])):
                best = (u, bi, si)
    if best is None:
        raise ValueError(f"empty strategy space for advertiser {adv_id!r}")
    return space.bids[best[1]], space.subsets[best[2]], best[0]


def rebid(view, adv_id: str, bid: Fraction):
    """`view` with `adv_id` bidding `bid` on the same subset: equal slot for
    slot to a fresh `ScaledView` of the replaced report.

    While the old and the new bid are both positive the rows do not change,
    so the row order, spaces and space scale are shared. The other rows'
    values are kept at their own scale, so a rebid scales them by one
    integer factor (none when it is 1) and computes only the bidder's own
    values. Otherwise the view is built afresh. This was the library's
    probe path before `kernels.BidderProbe` read every rule's clicks off
    integer tables.
    """
    from richads.kernels import ScaledView

    bid = Fraction(bid)
    rep = view.rep.replace(adv_id, bid, view.rep.subsets.get(adv_id, frozenset()))
    if bid <= 0 or view.rep.bids.get(adv_id, 0) <= 0:
        return ScaledView(view.inst, rep)
    _lo, _hi, alphas, others_scale, below, above = _bidder(view, adv_id)
    bn, bd = bid.numerator, bid.denominator
    own = []  # the bidder's effective values bid * alpha, in lowest terms
    for an, ad in alphas:
        n, d = bn * an, bd * ad
        g = gcd(n, d)
        own.append((n // g, d // g))
    value_scale = lcm(others_scale, *(d for _n, d in own))
    factor = value_scale // others_scale
    if factor != 1:
        below = [v * factor for v in below]
        above = [v * factor for v in above]
    new = object.__new__(ScaledView)
    for name in ScaledView.FIELDS:
        if name not in ("rep", "val", "value_scale"):
            setattr(new, name, getattr(view, name))
    new.rep = rep
    new._memo = {}  # the parent's would hand this view its probes and DP
    new.value_scale = value_scale
    new.val = below + [n * (value_scale // d) for n, d in own] + above
    return new


def _bidder(view, adv_id):
    # (own row span, own alphas as (numerator, denominator), lcm of the
    # other rows' value denominators, the other rows' values at that scale
    # before and after the span)
    lo, hi = view.span(adv_id)
    old = view.rep.bids[adv_id]
    scale = view.value_scale
    alphas = [Fraction(v, scale) / old for v in view.val[lo:hi]]
    # value v / scale has the denominator scale // gcd(v, scale)
    others_scale = lcm(*(scale // gcd(v, scale) for v in view.val[:lo] + view.val[hi:]))
    return (
        lo, hi, [(a.numerator, a.denominator) for a in alphas], others_scale,
        [v * others_scale // scale for v in view.val[:lo]],
        [v * others_scale // scale for v in view.val[hi:]],
    )


def rebid_clicks(view, adv_id: str, bid: Fraction, branches) -> Fraction:
    """`adv_id`'s expected clicks at `bid` over the (probability, branch)
    pairs `branches`: each branch's rule run on the rebid view."""
    from richads.pricing import branch_allocate

    probe = rebid(view, adv_id, bid)
    return sum(
        (prob * branch_allocate(view.inst, probe.rep, branch, probe).clicks(view.inst, adv_id) for prob, branch in branches),
        Fraction(0),
    )


def threshold_prices_along(kind, curve, bids, clicks, rule_name):
    """`pricing.threshold_prices_along` in Fractions, as the library ran it
    before its integer pass: the price at each of the ascending Fraction
    `bids` where the bidder gets the Fraction `clicks[k]`, read off the
    curve's `steps`; the Myerson payment for "myerson", the GSP per-click
    price for "gsp". Clicks below the level of the last run below a bid
    raise `NonMonotoneClickCurveError` on (b, b), naming `rule_name`,
    except under GSP at no clicks."""
    from richads.model import NonMonotoneClickCurveError

    steps = curve.steps
    gsp = kind == "gsp"
    first = {}  # GSP: clicks -> start of the first run below the bid with them
    below = Fraction(0)  # Myerson: the integral over the runs before the last one below the bid
    out = []
    i = 0
    for bid, x in zip(bids, clicks):
        while i < len(steps) and steps[i][0] < bid:
            lo, level = steps[i]
            if gsp:
                first.setdefault(level, lo)
            elif i:
                below += (lo - steps[i - 1][0]) * steps[i - 1][1]
            i += 1
        if i:
            lo, level = steps[i - 1]
            if x < level and (x or not gsp):
                raise NonMonotoneClickCurveError(curve.adv_id, rule_name, (lo, bid), (bid, bid), level, x)
        if gsp:
            out.append(first.get(x, bid) if x else Fraction(0))
            continue
        paid = bid * x - below
        if i and level:
            paid -= (min(bid, curve.cap) - lo) * level
        out.append(paid)
    return out


def integer_prices_along(kind, curve, bids, clicks, rule_name):
    """`pricing.threshold_prices_along` on Fraction bids and clicks: the
    bids as numerators over their lcm, the clicks over the curve's
    `click_den`, the prices back as Fractions."""
    from richads.pricing import clicks_over, threshold_prices_along as integer_pass

    den = lcm(*(b.denominator for b in bids))
    nums = [b.numerator * (den // b.denominator) for b in bids]
    prices, scale, _clicks = integer_pass(
        kind, curve, nums, den, [clicks_over(x, curve.click_den) for x in clicks], rule_name
    )
    return [Fraction(p, scale) for p in prices]


def priced_or_error(price, *args):
    """`price(*args)`, or the message, intervals and levels of the
    `NonMonotoneClickCurveError` it raises."""
    from richads.model import NonMonotoneClickCurveError

    try:
        return price(*args)
    except NonMonotoneClickCurveError as exc:
        return (str(exc), exc.left_interval, exc.right_interval, exc.left_clicks, exc.right_clicks)


def prices_along(kind, curve, bids, clicks, rule_name):
    """`integer_prices_along`, required to equal the Fraction oracle
    `threshold_prices_along` (AssertionError otherwise), both in its prices
    and in the drop it raises: the same message, intervals and levels."""
    got = priced_or_error(integer_prices_along, kind, curve, bids, clicks, rule_name)
    assert got == priced_or_error(threshold_prices_along, kind, curve, bids, clicks, rule_name), (kind, bids, clicks)
    return integer_prices_along(kind, curve, bids, clicks, rule_name)


def sweep_by_fractions(ev, at_cap: ReportProfile, adv_id, bids):
    """`equilibrium._Evaluator._sweep` in Fractions, as it ran before its
    integer pass: {bid: utility} at the `bids` in (0, cap], the clicks read
    off the probe, the payments summed over the branches by the Fraction
    `threshold_prices_along`, the curves those the sweep reads: kept under
    `at_cap`'s subset in the memo of `ev`'s one view of the row, `at_cap`
    with `adv_id` on their whole catalog (`_Evaluator._at_cap`)."""
    from richads import kernels, pricing

    cap = at_cap.bids[adv_id]
    profile, g = ev._index(at_cap), ev.ids.index(adv_id)
    row_view = ev._at_cap(g, profile[:g] + profile[g + 1 :], profile[g][0])
    subset = at_cap.subsets[adv_id]
    grid = [bid for bid in bids if 0 < bid <= cap]
    probe = kernels.ScaledView(ev.inst, at_cap).probe(adv_id)
    kind = ev.mech.pricing
    clicks = [
        [Fraction(pricing.BRANCHES[branch].probe(probe, b.numerator, b.denominator), probe.click_den) for b in grid]
        for _prob, branch in ev.branches
    ]
    paid = [Fraction(0)] * len(grid)
    for (prob, branch), xs in zip(ev.branches, clicks):
        if kind == "gsp" and not any(xs):
            continue
        prices = threshold_prices_along(kind, ev._curve(row_view, adv_id, branch, subset), grid, xs, branch)
        if kind == "gsp":
            prices = [cpc * x for cpc, x in zip(prices, xs)]
        paid = [p + prob * price for p, price in zip(paid, prices)]
    return {
        bid: cap * sum((prob * xs[k] for (prob, _branch), xs in zip(ev.branches, clicks)), Fraction(0)) - paid[k]
        for k, bid in enumerate(grid)
    }


def integer_pass_drops_at_tie_bids(view, curve, branch) -> int:
    """At every pairwise tie bid of the bidder of `curve` (the `branch`
    curve of a bidder of `view`; `tie_candidates_pairwise` of the branch's
    `PAIRWISE_KINDS`) and at its cap, the integer pass equals the Fraction
    oracle under both pricings (AssertionError otherwise): in one pass over
    all those bids with the probe's clicks there, and bid by bid with those
    clicks and with each of the curve's levels, which below the level under
    the bid are drops at the bid. Handed the probe instead, the pass reads
    the same clicks off the curve and gives the same prices or drop.
    Returns the number of drops raised."""
    from functools import partial

    from richads.pricing import BRANCHES, clicks_over, threshold_prices_along as integer_pass

    probe = view.probe(curve.adv_id)
    ties = tie_candidates_pairwise(view.inst, view.rep, curve.adv_id, PAIRWISE_KINDS[branch], curve.cap)
    bids = sorted({*ties, curve.cap})
    clicks = [Fraction(BRANCHES[branch].probe(probe, b.numerator, b.denominator), probe.click_den) for b in bids]
    levels = {x for _lo, x in curve.steps}
    cases = [(bids, clicks)] + [((b,), (x,)) for b, at in zip(bids, clicks) for x in sorted(levels | {at})]
    den = lcm(*(b.denominator for b in bids))
    nums = [b.numerator * (den // b.denominator) for b in bids]
    drops = 0
    for kind in ("myerson", "gsp"):
        given = [clicks_over(x, probe.click_den) for x in clicks]
        read = partial(BRANCHES[branch].probe, probe)
        got = priced_or_error(integer_pass, kind, curve, nums, den, read, branch)
        assert got == priced_or_error(integer_pass, kind, curve, nums, den, given, branch), (kind, bids)
        for at in cases:
            got = priced_or_error(integer_prices_along, kind, curve, *at, branch)
            assert got == priced_or_error(threshold_prices_along, kind, curve, *at, branch), (kind, at)
            drops += isinstance(got, tuple)
    return drops


def best_of_by_fractions(table, space):
    """`equilibrium._best_of` comparing the table's Fractions, as it ran
    before its integer comparisons: (bid, subset, utility) at the best
    entry, ties to the lowest bid index, then the lowest subset index."""
    best = None  # (utility, bid index, subset index)
    for si, row in enumerate(table):
        for bi, u in enumerate(row):
            if best is None or u > best[0] or (u == best[0] and (bi, si) < (best[1], best[2])):
                best = (u, bi, si)
    if best is None:
        raise ValueError(f"empty strategy space for advertiser {space.adv_id!r}")
    return space.bids[best[1]], space.subsets[best[2]], best[0]
