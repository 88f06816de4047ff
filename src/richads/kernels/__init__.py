"""Kernel backends and the scaled-integer view they operate on.

The compiled extension (`richads.kernels._fast`) is preferred when it
imported cleanly and every scaled magnitude fits comfortably in int64;
otherwise the pure-Python twin runs. `RICHADS_KERNEL=pure|fast` forces a
backend at import time, `set_backend` switches at runtime.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import lcm

from . import pure

try:
    from . import _fast
except ImportError:  # extension not built; pure fallback is fully equivalent
    _fast = None

_BACKENDS = {"pure": pure}
if _fast is not None:
    _BACKENDS["fast"] = _fast

_active = "fast" if _fast is not None else "pure"
_forced = os.environ.get("RICHADS_KERNEL")
if _forced:
    if _forced not in _BACKENDS:
        raise ImportError(
            f"RICHADS_KERNEL={_forced!r} is not available; choices: {sorted(_BACKENDS)}"
        )
    _active = _forced


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def backend_name() -> str:
    return _active


def set_backend(name: str) -> None:
    global _active
    if name not in _BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r}; choices: {sorted(_BACKENDS)}")
    _active = name


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
        "eff", "space", "total", "value_scale", "space_scale", "max_magnitude",
    )
    # _bidders: adv_id -> (own row span, own alphas, lcm of the other rows'
    # value denominators), filled by `rebid` and valid for that bidder only
    __slots__ = FIELDS + ("_bidders",)

    def __init__(self, inst, rep):
        self.inst = inst
        self.rep = rep
        self._bidders = {}
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
        eff = [r[2] for r in rows]
        self._set_values(eff, lcm(*(e.denominator for e in eff)))

    def _set_values(self, eff, value_scale):
        self.eff = eff
        self.value_scale = value_scale
        self.val = [e.numerator * (value_scale // e.denominator) for e in eff]
        self.max_magnitude = max(self.val + self.spc + [self.total])

    def rebid(self, adv_id: str, bid: Fraction) -> "ScaledView":
        """This view with `adv_id` bidding `bid` on the same subset.

        Equal slot for slot to a fresh `ScaledView` of the replaced report.
        While the old and the new bid are both positive the rows do not
        change, so the row order, spaces and space scale are shared, the lcm
        of the other rows' value denominators is computed once per bidder,
        and only values are rescaled, in integers. Otherwise the view is
        built afresh.
        """
        bid = Fraction(bid)
        rep = self.rep.replace(adv_id, bid, self.rep.subsets.get(adv_id, frozenset()))
        if bid <= 0 or self.rep.bids.get(adv_id, 0) <= 0:
            return ScaledView(self.inst, rep)
        bidder = self._bidders.get(adv_id)
        if bidder is None:
            bidder = self._bidders[adv_id] = self._bidder(adv_id)
        lo, hi, alphas, others_scale = bidder
        own = [bid * alpha for alpha in alphas]
        new = object.__new__(type(self))
        for name in ("inst", "adv_ids", "adv_index", "adv", "ad_ids", "spc", "space", "total", "space_scale"):
            setattr(new, name, getattr(self, name))
        new.rep = rep
        new._bidders = {adv_id: bidder}
        new._set_values(self.eff[:lo] + own + self.eff[hi:], lcm(others_scale, *(e.denominator for e in own)))
        return new

    def _bidder(self, adv_id):
        # rows are sorted by advertiser, so one advertiser's rows are contiguous
        own = [i for i, a in enumerate(self.adv) if self.adv_ids[a] == adv_id]
        lo, hi = (own[0], own[-1] + 1) if own else (0, 0)
        old = self.rep.bids[adv_id]
        alphas = [e / old for e in self.eff[lo:hi]]
        others_scale = lcm(*(e.denominator for e in self.eff[:lo] + self.eff[hi:]))
        return lo, hi, alphas, others_scale

    def __len__(self):
        return len(self.val)

    def n_adv(self) -> int:
        return len(self.adv_ids)

    def ad_ref(self, i: int) -> tuple[str, str]:
        return self.adv_ids[self.adv[i]], self.ad_ids[i]

    def unscale_space(self, units: int) -> Fraction:
        return Fraction(units, self.space_scale)


def _pick(view: ScaledView):
    mod = _BACKENDS[_active]
    limit = getattr(mod, "MAX_MAGNITUDE", None)
    if limit is not None and view.max_magnitude >= limit:
        return pure
    return mod


def run_space_auction(view: ScaledView, stop_on_misfit: bool):
    n = view.n_adv()
    if not view.val:
        return [-1] * n, [0] * n, -1, 0, 1
    mod = _pick(view)
    return mod.space_auction(view.adv, view.val, view.spc, n, view.total, stop_on_misfit)


def run_space_auction_traced(view: ScaledView):
    # tracing is diagnostic-only and always runs the reference backend
    n = view.n_adv()
    if not view.val:
        return [-1] * n, [0] * n, -1, 0, 1, []
    return pure.space_auction_traced(view.adv, view.val, view.spc, n, view.total)


def run_best_fit(view: ScaledView, caps: list[int]):
    if not view.val:
        return [-1] * view.n_adv()
    mod = _pick(view)
    return mod.best_fit(view.adv, view.val, view.spc, view.n_adv(), caps)


def run_value_greedy(view: ScaledView, limit: int):
    if not view.val:
        return [-1] * view.n_adv()
    mod = _pick(view)
    return mod.value_greedy(view.adv, view.val, view.spc, view.n_adv(), view.total, limit)
