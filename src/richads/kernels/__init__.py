"""The scaled-integer view of a report, and the kernel walks over it.

The walks are the loops of `richads.kernels.pure`; the `run_*` entry points
feed them a view's rows.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm

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
    # `densities`). Both are filled on first use.
    __slots__ = FIELDS + ("_bidders", "_densities")

    def __init__(self, inst, rep):
        self.inst = inst
        self.rep = rep
        self._bidders = {}
        self._densities = None
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

    def __len__(self):
        return len(self.val)

    def n_adv(self) -> int:
        return len(self.adv_ids)

    def ad_ref(self, i: int) -> tuple[str, str]:
        return self.adv_ids[self.adv[i]], self.ad_ids[i]

    def unscale_space(self, units: int) -> Fraction:
        return Fraction(units, self.space_scale)


def run_space_auction(view: ScaledView, stop_on_misfit: bool):
    n = view.n_adv()
    if not view.val:
        return [-1] * n, [0] * n, -1, 0, 1
    return pure.space_auction(view.adv, view.val, view.spc, n, view.total, stop_on_misfit)


def run_space_auction_traced(view: ScaledView):
    n = view.n_adv()
    if not view.val:
        return [-1] * n, [0] * n, -1, 0, 1, []
    return pure.space_auction_traced(view.adv, view.val, view.spc, n, view.total)


def run_best_fit(view: ScaledView, caps: list[int]):
    if not view.val:
        return [-1] * view.n_adv()
    return pure.best_fit(view.adv, view.val, view.spc, view.n_adv(), caps)


def run_value_greedy(view: ScaledView, limit: int):
    if not view.val:
        return [-1] * view.n_adv()
    return pure.value_greedy(view.adv, view.val, view.spc, view.n_adv(), view.total, limit)
