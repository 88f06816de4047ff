"""Independent oracles the tests check library output against.

Everything here is deliberately written from the definitions, structured
differently from the library code (dicts and event lists instead of scaled
integer arrays), so an agreement between the two is evidence rather than
an identity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from richads.model import Allocation, Instance, ReportProfile, as_mixture, effective_values


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
    from richads.pricing import _finish_outcome

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
            if "bpb" in kinds:
                ties.append(eff * ad.space / (space * ad.alpha))
            if "value" in kinds:
                ties.append(eff / ad.alpha)
            out.update(t for t in ties if 0 < t <= cap)
    return sorted(out)


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


def profile_table(ev, rep: ReportProfile, adv_id, space):
    """`equilibrium._Evaluator.utility_table` by one full-profile utility
    evaluation per grid point: row si, column bi is the utility at
    `rep.replace(adv_id, space.bids[bi], space.subsets[si])`."""
    return [[ev.utility(rep.replace(adv_id, bid, subset), adv_id) for bid in space.bids] for subset in space.subsets]


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
    new._densities = None
    new._orders = {}
    new._probes = {}
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
