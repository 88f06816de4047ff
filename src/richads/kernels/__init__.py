"""The scaled-integer view of a report, and the kernel walks over it.

The walks are the loops of `richads.kernels.pure`; the `run_*` entry points
feed them a view's rows. `BidderProbe` answers one bidder's click probes
under the monotone rules without a walk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm

from ..model import WHOLE, Allocation
from . import pure


class ScaledView:
    """Scaled-integer picture of (instance, report) for the kernels.

    Reported ads are sorted by (adv_id, ad_id); effective values are scaled
    by the lcm of their denominators, spaces (and the total) by the lcm of
    theirs, so every kernel comparison is an exact integer comparison. Ads
    with zero effective value (unreported advertiser, zero bid) are treated
    as unreported: no rule ever benefits from allocating them.
    """

    FIELDS = (
        "inst", "rep", "adv_ids", "adv_index", "adv", "ad_ids", "val", "spc",
        "space", "total", "value_scale", "space_scale",
    )
    # _bidders: adv_id -> what `rebid` reuses for that bidder (see `_bidder`);
    # _densities: the rows' bang-per-buck over one integer scale (see
    # `densities`); _probes: adv_id -> that bidder's `BidderProbe`. All are
    # filled on first use.
    __slots__ = FIELDS + ("_bidders", "_densities", "_probes")

    def __init__(self, inst, rep):
        self.inst = inst
        self.rep = rep
        self._bidders = {}
        self._densities = None
        self._probes = {}
        self.adv_ids = inst.adv_ids()
        self.adv_index = {a: i for i, a in enumerate(self.adv_ids)}
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
        self.adv = [r[0] for r in rows]
        self.ad_ids = [r[1] for r in rows]
        self.space = [r[3] for r in rows]
        self.spc = [int(r[3] * space_scale) for r in rows]
        self.total = int(inst.total_space * space_scale)
        self.space_scale = space_scale
        self.value_scale = value_scale = lcm(*(r[2].denominator for r in rows))
        self.val = [r[2].numerator * (value_scale // r[2].denominator) for r in rows]

    def rebid(self, adv_id: str, bid: Fraction) -> "ScaledView":
        """This view with `adv_id` bidding `bid` on the same subset.

        Equal slot for slot to a fresh `ScaledView` of the replaced report.
        While the old and the new bid are both positive the rows do not
        change, so the row order, spaces and space scale are shared. The
        other rows' values are kept per bidder at their own scale, so a
        rebid scales them by one integer factor (none when it is 1) and
        computes only the bidder's own values. Otherwise the view is built
        afresh.
        """
        bid = Fraction(bid)
        rep = self.rep.replace(adv_id, bid, self.rep.subsets.get(adv_id, frozenset()))
        if bid <= 0 or self.rep.bids.get(adv_id, 0) <= 0:
            return ScaledView(self.inst, rep)
        bidder = self._bidders.get(adv_id)
        if bidder is None:
            bidder = self._bidders[adv_id] = self._bidder(adv_id)
        lo, hi, alphas, others_scale, below, above = bidder
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
        new = object.__new__(type(self))
        for name in ("inst", "adv_ids", "adv_index", "adv", "ad_ids", "spc", "space", "total", "space_scale"):
            setattr(new, name, getattr(self, name))
        new.rep = rep
        new._bidders = {adv_id: bidder}
        new._densities = None
        new._probes = {}
        new.value_scale = value_scale
        new.val = below + [n * (value_scale // d) for n, d in own] + above
        return new

    def _bidder(self, adv_id):
        # (own row span, own alphas as (numerator, denominator), lcm of the
        # other rows' value denominators, the other rows' values at that
        # scale before and after the span)
        lo, hi = self.span(adv_id)
        old = self.rep.bids[adv_id]
        scale = self.value_scale
        alphas = [Fraction(v, scale) / old for v in self.val[lo:hi]]
        # value v / scale has the denominator scale // gcd(v, scale)
        others_scale = lcm(*(scale // gcd(v, scale) for v in self.val[:lo] + self.val[hi:]))
        return (
            lo, hi, [(a.numerator, a.denominator) for a in alphas], others_scale,
            [v * others_scale // scale for v in self.val[:lo]],
            [v * others_scale // scale for v in self.val[hi:]],
        )

    def probe(self, adv_id: str) -> "BidderProbe":
        """`adv_id`'s clicks under the monotone rules at any bid, the other
        rows fixed as in this view. Built once per bidder."""
        got = self._probes.get(adv_id)
        if got is None:
            got = self._probes[adv_id] = BidderProbe(self, adv_id)
        return got

    def span(self, adv_id: str) -> tuple[int, int]:
        """The (lo, hi) row range of `adv_id`; rows are sorted by advertiser."""
        a = self.adv_index[adv_id]
        return bisect_left(self.adv, a), bisect_right(self.adv, a)

    def densities(self) -> tuple[int, list[int | None]]:
        """(scale, numerators): row i's bang-per-buck is
        `numerators[i] * space_scale / (value_scale * scale)`.

        `scale` is the lcm of the nonzero scaled spaces; a zero-space row
        has no finite density and gets None. Built once per view.
        """
        if self._densities is None:
            self._densities = self._density_table()
        return self._densities

    def _density_table(self) -> tuple[int, list[int | None]]:
        scale = lcm(*(w for w in self.spc if w))
        return scale, [v * (scale // w) if w else None for v, w in zip(self.val, self.spc)]

    def allocation(self, chosen: list[int]) -> Allocation:
        """The allocation of a choice vector: a row index per advertiser, -1 for none."""
        return Allocation(entries={self.adv_ids[a]: (self.ad_ids[i], WHOLE) for a, i in enumerate(chosen) if i >= 0})

    def __len__(self):
        return len(self.val)

    def n_adv(self) -> int:
        return len(self.adv_ids)

    def ad_ref(self, i: int) -> tuple[str, str]:
        return self.adv_ids[self.adv[i]], self.ad_ids[i]

    def unscale_space(self, units: int) -> Fraction:
        return Fraction(units, self.space_scale)


ZERO = Fraction(0)


class BidderProbe:
    """One bidder's clicks under the bpb and max-value rules at a positive
    bid num / den, everyone else's report fixed.

    Each part is built on first use from the view; a probe then costs
    O(m log n) integer steps for the bidder's m rows against the other n
    rows, and makes no view, rebid or allocation. It equals running the
    rule on `view.rebid(adv_id, Fraction(num, den))`, which the tests keep
    as the oracle.

    bpb: in the stop-on-misfit walk a row no larger than what its
    advertiser holds is skipped, so each other advertiser's increments
    depend on their own rows alone, and the others use a fixed prefix sum
    of space along their bang-per-buck order. The bidder's rows enter that
    order at positions found by bisection and only shift the budget left.
    max-value: one comparison with the others' best fitting value.
    Equal densities or values go to the lower row index, as in the walks:
    a row before the bidder's span beats the bidder, one after it loses.
    """

    __slots__ = ("view", "adv_id", "_walk", "_max")

    def __init__(self, view: ScaledView, adv_id: str):
        rep = view.rep
        if rep.bids.get(adv_id, 0) <= 0:
            # the bidder has no rows in this view: scale them in once
            view = ScaledView(view.inst, rep.replace(adv_id, Fraction(1), rep.subsets.get(adv_id, frozenset())))
        self.view = view
        self.adv_id = adv_id
        self._walk = None
        self._max = None

    def _own(self):
        # (own row span, the view's bid as (numerator, denominator), each
        # own row's click rate)
        view = self.view
        lo, hi = view.span(self.adv_id)
        bid = view.rep.bids[self.adv_id]
        bn, bd = bid.numerator, bid.denominator
        alphas = [Fraction(v * bd, view.value_scale * bn) for v in view.val[lo:hi]]
        return lo, hi, bn, bd, alphas

    def bpb(self, num: int, den: int) -> Fraction:
        """The bidder's clicks under the bpb rule at the bid num / den > 0."""
        if self._walk is None:
            self._walk = self._walk_tables()
        total, keys, prefix, own, bn, fit_spc, fit_alpha = self._walk
        # own row at density numerator d (at the view's bid) has, at bid
        # num / den, the density numerator x = num * d / (den * bn), keyed
        # between the others' -3 * dens (before the span) and -3 * dens + 2
        # (after it); its position is the count of smaller keys
        scale = den * bn
        used = 0
        for d, w in own:
            x, r = divmod(num * d, scale)
            rem = total - used - prefix[bisect_left(keys, (r == 0) - 3 * x)]
            if rem <= 0:
                break
            if w <= used:
                continue
            if w - used <= rem:
                used = w
            else:
                used += rem
                break
        if used <= 0:
            return ZERO
        k = bisect_right(fit_spc, used)
        return fit_alpha[k - 1] if k else ZERO

    def _walk_tables(self):
        """(total, the others' keys in walk order, the space they have used
        before each key, own rows as (density numerator, space) in walk
        order, the view's bid numerator, and the best own click rate within
        each held space: spaces ascending, click rates)."""
        view = self.view
        lo, hi, bn, bd, alphas = self._own()
        _scale, dens = view.densities()
        spc = view.spc
        # rows of space <= 0 are skipped by the walk: they never move it
        others = sorted(
            (-3 * dens[i] + (0 if i < lo else 2), i)
            for i in range(len(spc))
            if spc[i] > 0 and not lo <= i < hi
        )
        held = [0] * view.n_adv()
        keys, prefix = [], [0]
        for key, i in others:
            a = view.adv[i]
            if spc[i] > held[a]:
                keys.append(key)
                prefix.append(prefix[-1] + spc[i] - held[a])
                held[a] = spc[i]
        own = sorted(
            ((dens[i] * bd, spc[i]) for i in range(lo, hi) if spc[i] > 0),
            key=lambda row: -row[0],
        )
        fit_spc, fit_alpha = [], []
        for w, j in sorted((spc[i], i - lo) for i in range(lo, hi)):
            if not fit_alpha or alphas[j] > fit_alpha[-1]:
                fit_spc.append(w)
                fit_alpha.append(alphas[j])
        return view.total, keys, prefix, own, bn, fit_spc, fit_alpha

    def max_value(self, num: int, den: int) -> Fraction:
        """The bidder's clicks under the max-value rule at the bid num / den > 0."""
        if self._max is None:
            self._max = self._max_tables()
        alpha, own_value, other_value, floor = self._max
        return alpha if num * own_value - den * other_value > floor else ZERO

    def _max_tables(self):
        """(clicks if the bidder wins, their best fitting value times the
        view's bid denominator, the others' best fitting value times its
        numerator, and the floor the difference of the two must beat: 0 to
        win strictly, -1 to win ties). Both values are 0 when the outcome
        does not depend on the bid."""
        view = self.view
        lo, hi, bn, bd, alphas = self._own()
        own = other = -1
        for i in range(len(view.val)):
            if view.spc[i] > view.total:
                continue
            if lo <= i < hi:
                if own < 0 or view.val[i] > view.val[own]:
                    own = i
            elif other < 0 or view.val[i] > view.val[other]:
                other = i
        if own < 0:
            # when no row fits at all the rule serves a reported ad outside
            # the view; the bidder's there have click rate <= 0 (validation
            # rejects them), and those of rate 0 give no clicks
            return ZERO, 0, 0, -1
        if other < 0:
            return alphas[own - lo], 0, 0, -1
        return alphas[own - lo], view.val[own] * bd, view.val[other] * bn, 0 if other < lo else -1


def run_space_auction(view: ScaledView, stop_on_misfit: bool):
    n = view.n_adv()
    if not view.val:
        return [-1] * n, [0] * n, -1, 0, 1
    return pure.space_auction(view.adv, view.val, view.spc, n, view.total, stop_on_misfit)


def run_space_auction_traced(view: ScaledView):
    """The stop-on-misfit walk plus its event list (see `pure.space_auction`)."""
    n = view.n_adv()
    events = []
    if not view.val:
        return [-1] * n, [0] * n, -1, 0, 1, events
    return (*pure.space_auction(view.adv, view.val, view.spc, n, view.total, True, events), events)


def run_best_fit(view: ScaledView, caps: list[int]):
    if not view.val:
        return [-1] * view.n_adv()
    return pure.best_fit(view.adv, view.val, view.spc, view.n_adv(), caps)


def run_value_greedy(view: ScaledView, limit: int):
    if not view.val:
        return [-1] * view.n_adv()
    return pure.value_greedy(view.adv, view.val, view.spc, view.n_adv(), view.total, limit)
