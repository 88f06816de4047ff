"""The scaled-integer view of a report, and the kernel walks over it.

The walks run on plain ints (arbitrary precision), so no magnitude is too
large. A view is built from the numerators and denominators of the report's
rationals, with no `Fraction` arithmetic. A view's rows are its reported ads
sorted by (adv_id, ad_id):
`adv[i]` is the advertiser index of row i, `val[i]` its scaled effective
value, `spc[i]` its scaled space. Every walk reads one of the view's two
orders, each built once per view from integer keys:

* `bpb_order`: descending bang-per-buck, compared exactly over one common
  scale; zero-space rows, of unbounded bang-per-buck, come first;
* `value_order`: descending value.

Ties go to the lower row index, which by the sort means (adv_id, ad_id)
ascending. `BidderProbe` answers one bidder's click probes under every
deterministic rule without a walk; its tables filter the same orders.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .model import WHOLE, Allocation, InvariantViolation, Mixture


class ScaledView:
    """Scaled-integer picture of (instance, report) for the kernels.

    Reported ads are sorted by (adv_id, ad_id); effective values are scaled
    by the lcm of their denominators, spaces (and the total) by the lcm of
    theirs, so every kernel comparison is an exact integer comparison. Rows
    are built from numerators and denominators: the bid bn / bd is read
    once per advertiser, an ad of click rate an / am has the effective
    value bn * an / (bd * am), reduced by their gcd, and a space sn / sd
    scales to sn * (space_scale // sd); no `Fraction` is built
    (`tests/oracles.scaled_view_by_fractions` is the Fraction construction,
    kept as the oracle). Ads of zero effective value (a zero bid, a zero
    click rate) have no row, like unreported ones. Every rule allocates rows
    only, so a report with no row (a zero bid, an empty subset) gets no
    clicks, and it pays nothing under Myerson, GSP and VCG. An instance
    whose `cardinality_limit` is below 1 has no view: it raises
    `ValueError`. `limit` is the cap that binds: the `cardinality_limit`
    when it is below the number of advertisers, else None (no advertiser
    set reaches it). What the view derives on first use (its densities,
    walk orders, row index, bidder probes, branch allocations, click curves
    and capacity DP) it keeps in one memo (`memo`), so every mechanism
    priced on one view shares them.
    """

    FIELDS = (
        "inst", "rep", "adv_ids", "adv_index", "adv", "ad_ids", "val", "spc",
        "total", "value_scale", "space_scale", "limit",
    )
    __slots__ = FIELDS + ("_memo",)  # _memo: see `memo`

    def __init__(self, inst, rep):
        k = inst.cardinality_limit
        if k is not None and k < 1:
            raise ValueError(f"cardinality limit must be >= 1, got {k}")
        self.inst = inst
        self.rep = rep
        self._memo = {}
        self.adv_ids = inst.adv_ids()
        self.limit = k if k is not None and k < len(self.adv_ids) else None
        self.adv_index = {a: i for i, a in enumerate(self.adv_ids)}
        bids, subsets = rep.bids, rep.subsets
        rows = []  # (adv_idx, ad_id, effective value in lowest terms and space, each as num, den)
        for ai, advertiser in enumerate(inst.advertisers):
            bid = bids.get(advertiser.adv_id)
            if bid is None:
                continue
            bn, bd = bid.numerator, bid.denominator
            subset = subsets.get(advertiser.adv_id)
            if bn <= 0 or not subset:
                continue
            for ad in advertiser.ads:
                if ad.ad_id in subset:
                    alpha = ad.alpha
                    n = bn * alpha.numerator
                    if n > 0:
                        d = bd * alpha.denominator
                        g = gcd(n, d)
                        space = ad.space
                        rows.append((ai, ad.ad_id, n // g, d // g, space.numerator, space.denominator))
        rows.sort(key=itemgetter(0, 1))

        total = inst.total_space
        space_scale = lcm(total.denominator, *(r[5] for r in rows))
        self.adv = [r[0] for r in rows]
        self.ad_ids = [r[1] for r in rows]
        self.spc = [r[4] * (space_scale // r[5]) for r in rows]
        self.total = total.numerator * (space_scale // total.denominator)
        self.space_scale = space_scale
        self.value_scale = value_scale = lcm(*(r[3] for r in rows))
        self.val = [r[2] * (value_scale // r[3]) for r in rows]

    def memo(self, key, build, *args):
        """`build(*args)`, built on first use and kept under `key`: "densities",
        the "bpb" and "value" orders, "rows" (the row of each (adv_id, ad_id)
        pair), ("probe", adv_id, subset) (`probe`), ("alloc", branch)
        (`pricing.branch_allocate`), ("curve", adv_id, branch, subset) (the
        branch's click curve of `adv_id` on `subset`'s rows, capped at their
        bid here, `pricing._build_curve`) and "dp" (`exact.capacity_dp`).
        Report pricing keys its probes and curves by subset None, all of the
        bidder's rows. A build that raises keeps nothing."""
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build(*args)
        return got

    def probe(self, adv_id: str, subset: frozenset[str] | None = None) -> "BidderProbe":
        """`adv_id`'s clicks under every deterministic rule at any positive
        bid, the other rows fixed as in this view, where `adv_id` must bid
        above 0: on their rows whose ad is in `subset` (None: all of them),
        as if they reported that subset. Built once per (bidder, subset),
        kept under ("probe", adv_id, subset)."""
        return self.memo(("probe", adv_id, subset), BidderProbe, self, adv_id, subset)

    def span(self, adv_id: str) -> tuple[int, int]:
        """The (lo, hi) row range of `adv_id`; rows are sorted by advertiser."""
        a = self.adv_index[adv_id]
        return bisect_left(self.adv, a), bisect_right(self.adv, a)

    def densities(self) -> list[int | None]:
        """Row i's bang-per-buck as an integer numerator, `val[i]` over
        `spc[i]` brought to one scale, the lcm of the nonzero scaled spaces:
        equal numerators mean equal bang-per-buck. A zero-space row has no
        finite density and gets None. Built once per view.
        """
        return self.memo("densities", self._density_table)

    def _density_table(self) -> list[int | None]:
        scale = lcm(*(w for w in self.spc if w))
        return [v * (scale // w) if w else None for v, w in zip(self.val, self.spc)]

    def bpb_order(self) -> list[int]:
        """Row indices by descending bang-per-buck, ties to the lower row.

        The keys are the integer `densities`, and equal keys mean equal
        bang-per-buck, so the stable sort keeps row order among them. A
        zero-space row has unbounded bang-per-buck: all of them come first,
        in row order. Built once per view.
        """
        return self.memo("bpb", self._bpb_order)

    def _bpb_order(self) -> list[int]:
        dens = self.densities()
        got = [i for i, d in enumerate(dens) if d is None]
        return got + sorted((i for i, d in enumerate(dens) if d is not None), key=dens.__getitem__, reverse=True)

    def value_order(self) -> list[int]:
        """Row indices by descending value, ties to the lower row. Built once per view."""
        return self.memo("value", self._value_order)

    def _value_order(self) -> list[int]:
        return sorted(range(len(self.val)), key=self.val.__getitem__, reverse=True)

    def allocation(self, chosen: list[int]) -> Allocation:
        """The allocation of a choice vector: a row index per advertiser, -1 for none."""
        return Allocation(entries={self.adv_ids[a]: (self.ad_ids[i], WHOLE) for a, i in enumerate(chosen) if i >= 0})

    def welfare(self, outcome) -> tuple[int, int]:
        """The outcome's value at this view's report, as a (numerator,
        denominator) pair of ints, not reduced. At the truthful report a
        row's `val` is value x alpha over `value_scale`, so this is the
        outcome's welfare, `model.social_welfare`, in integers: a branch is
        an integer sum, and a `Mixture` one sum over the lcm of its
        probability (and weight) denominators times `value_scale`. Entries
        are matched to rows by (adv_id, ad_id), so an outcome of another
        report of the same instance is valued here too; an entry that is
        not a row of the view raises `InvariantViolation`."""
        rows = self.memo("rows", self._row_index)
        branches = outcome.branches if isinstance(outcome, Mixture) else ((WHOLE, outcome),)
        num, den = 0, 1
        for prob, alloc in branches:
            for adv_id, (ad_id, weight) in alloc.entries.items():
                i = rows.get((adv_id, ad_id))
                if i is None:
                    raise InvariantViolation(f"ad {ad_id!r} of advertiser {adv_id!r} is not a row of the view")
                d = prob.denominator * weight.denominator
                if den % d:
                    m = lcm(den, d)
                    num *= m // den
                    den = m
                num += self.val[i] * prob.numerator * weight.numerator * (den // d)
        return num, den * self.value_scale

    def _row_index(self) -> dict[tuple[str, str], int]:
        return {(self.adv_ids[a], ad_id): i for i, (a, ad_id) in enumerate(zip(self.adv, self.ad_ids))}

    def __len__(self):
        return len(self.val)

    def n_adv(self) -> int:
        return len(self.adv_ids)


class BidderProbe:
    """One bidder's clicks under each deterministic rule at a positive bid
    num / den, everyone else's report fixed, as an integer numerator over
    `click_den`, the lcm of the bidder's own click-rate denominators. The
    reads scale the bidder's rows in the view, so the bidder must bid above
    0 there (else `ValueError`); at bid 0 they have no clicks to probe.

    With a `subset`, the bidder's own rows are only those whose ad is in it
    (None: all of them), and every table skips their other rows, so the
    probe equals the one on the view where the bidder reports `subset`
    (`tests/test_probe_kernel.py` checks it): every table compares rows of
    one view, so the scales the skipped rows set change no comparison.
    One view with the bidder on their whole catalog thus serves every
    subset. Below, "own rows" means those in the subset.

    Each rule's tables are built on first use from the view and hold click
    rates as those numerators; a probe then reads them in integers and makes
    no view, rebid, allocation or `Fraction`. It equals running the rule on
    the report with the bidder's bid replaced, which the tests keep as the
    oracle (`tests/oracles.rebid`).

    The tables filter the view's `bpb_order` or `value_order` into the
    bidder's rows and the others', both in walk order; none sorts again.
    The bidder's rows enter the others' walk order at positions found by
    bisection. At the view's bid b0 = bn / bd an own row's density (or
    value) numerator is n0, so at num / den it is x = num * n0 * bd /
    (den * bn), taken as quotient and remainder. It equals another row's
    numerator d at the bid d * bn / (n0 * bd): `ties` lists those bids, the
    only places a click curve can step, and each rule's breakpoint reader
    (`bpb_breakpoints`, `max_value_breakpoints`, `greedy_value_breakpoints`)
    keeps those of them, read off its tables, where its probe can change.
    Another row's numerator v is keyed -3 * v before the bidder's span and
    -3 * v + 2 after it, and the own row -3 * x + (1 if exact else 0), so v
    is -(key // 3) either way: equal densities or values go
    to the lower row index, as in the walks, so a row before the span beats
    the bidder and one after it loses. A row's position is the count of
    smaller keys.

    bpb: in the stop-on-misfit walk a row no larger than what its
    advertiser holds is skipped, so each other advertiser's increments
    depend on their own rows alone, and the others use a fixed prefix sum
    of space along their bang-per-buck order. The bidder's rows only shift
    the budget left.

    max-value: one comparison with the others' best fitting value.

    greedy-value: until the bidder is served the value walk is the
    others-only walk (an own row that does not fit changes nothing), so an
    own row at position p meets that walk's remaining space and served
    count before p, kept as prefix arrays. The bidder is served by the
    first own row, in descending value, that meets a free slot and fits.
    Its curves are nondecreasing, cap or no cap (compare Lehmann,
    O'Callaghan & Shoham, JACM 2002, on greedy for single-minded bidders):
    a higher bid moves every own row to a position no later, where the
    prefix has at least as much space left and no more advertisers served;
    the own rows keep their order, descending value, which is descending
    click rate. So a row served at the lower bid would still be served,
    and the first row served at the higher bid has a click rate at least as
    high.

    greedy-bpb: skip-and-continue lets the others react to the bidder's
    space, and no such proof exists, so its curves are scanned. Before the
    bidder's first admitted row the walk is the others-only walk, so that
    walk is recorded once (the remaining space and the held rows before
    each position), a probe finds the first admitted row from it and
    resumes the walk there in integers, the bidder's value num * n0 * bd
    compared with another's den * bn * v; the uncapped walk needs the held
    spaces only. The clicks are read off the best-fit table of the bpb
    rule.
    """

    __slots__ = (
        "view", "adv_id", "subset", "_own_rows", "_click_den", "_walk", "_fit", "_max", "_value", "_greedy",
    )

    def __init__(self, view: ScaledView, adv_id: str, subset: frozenset[str] | None = None):
        if view.rep.bids.get(adv_id, 0).numerator <= 0:  # compared as an integer
            raise ValueError(f"cannot probe {adv_id!r} at bid 0: they have no rows in the view to scale")
        self.view = view
        self.adv_id = adv_id
        self.subset = subset
        self._own_rows = self._walk = self._fit = self._max = self._value = self._greedy = None

    def _own(self):
        # (the bidder's row span, the view's bid as (numerator, denominator),
        # each row's click rate in the span as a numerator over `click_den`,
        # None for a row outside the subset: the tables skip it)
        if self._own_rows is None:
            view = self.view
            lo, hi = view.span(self.adv_id)
            bid = view.rep.bids[self.adv_id]
            bn, bd = bid.numerator, bid.denominator
            m = view.value_scale * bn
            subset = self.subset
            rates = []  # v * bd / m in lowest terms: v and m are positive
            for ad_id, v in zip(view.ad_ids[lo:hi], view.val[lo:hi]):
                if subset is not None and ad_id not in subset:
                    rates.append(None)
                    continue
                n = v * bd
                g = gcd(n, m)
                rates.append((n // g, m // g))
            self._click_den = scale = lcm(*(r[1] for r in rates if r is not None))
            self._own_rows = lo, hi, bn, bd, [None if r is None else r[0] * (scale // r[1]) for r in rates]
        return self._own_rows

    @property
    def click_den(self) -> int:
        """The denominator of every click level this probe reads: the lcm
        of the bidder's own click-rate denominators (1 with no rows)."""
        self._own()
        return self._click_den

    def ties(self, kinds: tuple[str, ...], cap: Fraction) -> tuple[list[int], int]:
        """The bids d * bn / (n0 * bd) in (0, cap] where an own row of
        numerator n0 ties another advertiser's of numerator d in bang-per-buck
        ("bpb") or value ("value"), as (sorted distinct numerators, their
        common denominator). A zero-space row ties nothing in bang-per-buck.
        These are greedy-bpb's breakpoints: its capped walk reacts to every
        tie, its uncapped one to bang-per-buck ties only (`greedy_bpb`)."""
        view = self.view
        lo, hi, bn, bd, alphas = self._own()
        terms = []  # (the others' numerators, an own row's n0 * bd)
        for kind in kinds:
            nums = view.densities() if kind == "bpb" else view.val
            others = [d for d in nums[:lo] + nums[hi:] if d is not None]
            terms += [(others, n0 * bd) for n0, a in zip(nums[lo:hi], alphas) if n0 is not None and a is not None]
        return _tie_bids(terms, bn, cap)

    def bpb_breakpoints(self, cap: Fraction) -> tuple[list[int], int]:
        """The bids in (0, cap] where the bpb probe can change, as `ties`
        gives them. A probe reads the others' prefix at each own row's
        position among the walk's keys, so it moves only where an own row
        ties the density of a keyed row, one the walk does not skip, and
        only before the first position whose prefix reaches the total:
        from there on the walk has stopped. An own row of numerator d ties
        a key's density o at the bid o * bn / d, at most the cap only where
        o <= floor(cap * d / bn), so each row reads only the keys from its
        position at the cap up to that cut. The tests keep the reader over
        every key before the cut (`tests/oracles.bpb_breakpoints_uncut`)."""
        if self._walk is None:
            self._walk = self._walk_tables()
        total, keys, prefix, own, bn = self._walk
        cut = min(bisect_left(prefix, total), len(keys))
        terms = []
        for d in {d for d, _w in own}:
            start = bisect_left(keys, -3 * (cap.numerator * d // (cap.denominator * bn)), 0, cut)
            terms.append(([-(k // 3) for k in keys[start:cut]], d))  # a key is -3 * density (+ 2)
        return _tie_bids(terms, bn, cap)

    def max_value_breakpoints(self, cap: Fraction) -> tuple[list[int], int]:
        """The bid in (0, cap], if any, where the max-value probe can change:
        its one sign test flips where the bidder's best fitting value ties
        the others'. There is none when the outcome does not depend on the
        bid (`_max_tables`)."""
        if self._max is None:
            self._max = self._max_tables()
        _alpha, own_value, other_value, _floor = self._max
        return _tie_bids([([other_value], own_value)] if own_value else [], 1, cap)

    def greedy_value_breakpoints(self, cap: Fraction) -> tuple[list[int], int]:
        """The bids in (0, cap] where the greedy-value probe can change, as
        `ties` gives them. A probe reads the others-only walk's remaining
        space and served count at each own row's position, and those change
        only after the rows that walk serves: the value ties with them."""
        if self._value is None:
            self._value = self._value_tables()
        keys, _rem_at, served_at, own, bn, _limit = self._value
        served = [-(k // 3) for k, a, b in zip(keys, served_at, served_at[1:]) if b > a]
        return _tie_bids([(served, d) for d in {d for d, _w, _alpha in own}], bn, cap)

    def _clicks_in(self, held: int) -> int:
        """The best own click rate within `held` scaled units of space, as
        the best-fit stage gives it: none when nothing is held."""
        if self._fit is None:
            self._fit = self._fit_table()
        fit_spc, fit_alpha = self._fit
        if held <= 0:
            return 0
        k = bisect_right(fit_spc, held)
        return fit_alpha[k - 1] if k else 0

    def _fit_table(self):
        """(spaces ascending, the best own click rate within each)."""
        view = self.view
        lo, hi, _bn, _bd, alphas = self._own()
        fit_spc, fit_alpha = [], []
        for w, j in sorted((view.spc[i], i - lo) for i in range(lo, hi) if alphas[i - lo] is not None):
            if not fit_alpha or alphas[j] > fit_alpha[-1]:
                fit_spc.append(w)
                fit_alpha.append(alphas[j])
        return fit_spc, fit_alpha

    def bpb(self, num: int, den: int) -> int:
        """The bidder's clicks under the bpb rule at the bid num / den > 0."""
        if self._walk is None:
            self._walk = self._walk_tables()
        total, keys, prefix, own, bn = self._walk
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
        return self._clicks_in(used)

    def _walk_tables(self):
        """(total, the others' keys in walk order, the space they have used
        before each key, own rows as (density numerator, space) in walk
        order, the view's bid numerator)."""
        view = self.view
        lo, hi, bn, bd, alphas = self._own()
        dens = view.densities()
        spc, adv = view.spc, view.adv
        held = [0] * view.n_adv()
        keys, prefix, own = [], [0], []
        for i in view.bpb_order():
            w = spc[i]
            if w <= 0:
                continue  # skipped by the walk: it never moves it
            if lo <= i < hi:
                if alphas[i - lo] is not None:
                    own.append((dens[i] * bd, w))
            elif w > held[adv[i]]:
                keys.append(-3 * dens[i] + (0 if i < lo else 2))
                prefix.append(prefix[-1] + w - held[adv[i]])
                held[adv[i]] = w
        return view.total, keys, prefix, own, bn

    def max_value(self, num: int, den: int) -> int:
        """The bidder's clicks under the max-value rule at the bid num / den > 0."""
        if self._max is None:
            self._max = self._max_tables()
        alpha, own_value, other_value, floor = self._max
        return alpha if num * own_value - den * other_value > floor else 0

    def _max_tables(self):
        """(clicks if the bidder wins, their best fitting value times the
        view's bid denominator, the others' best fitting value times its
        numerator, and the floor the difference of the two must beat: 0 to
        win strictly, -1 to win ties). Both values are 0 when the outcome
        does not depend on the bid: no own row fits, so no bid serves the
        bidder, or no other row fits, so any positive bid does."""
        view = self.view
        lo, hi, bn, bd, alphas = self._own()
        own = other = -1
        for i in range(len(view.val)):
            if view.spc[i] > view.total:
                continue
            if lo <= i < hi:
                if alphas[i - lo] is not None and (own < 0 or view.val[i] > view.val[own]):
                    own = i
            elif other < 0 or view.val[i] > view.val[other]:
                other = i
        if own < 0:
            return 0, 0, 0, -1
        if other < 0:
            return alphas[own - lo], 0, 0, -1
        return alphas[own - lo], view.val[own] * bd, view.val[other] * bn, 0 if other < lo else -1

    def greedy_value(self, num: int, den: int) -> int:
        """The bidder's clicks under the greedy-value rule at the bid num / den > 0."""
        if self._value is None:
            self._value = self._value_tables()
        keys, rem_at, served_at, own, bn, limit = self._value
        scale = den * bn
        for d, w, alpha in own:
            x, r = divmod(num * d, scale)
            p = bisect_left(keys, (r == 0) - 3 * x)
            if served_at[p] >= limit:
                break  # the walk stops here, and later own rows sit no earlier
            if w <= rem_at[p]:
                return alpha
        return 0

    def _value_tables(self):
        """(the others' keys in walk order, the remaining space and the
        served count before each, own rows as (value numerator, space,
        click rate) in walk order, the view's bid numerator, the cap)."""
        view = self.view
        limit = view.limit or view.n_adv()
        lo, hi, bn, bd, alphas = self._own()
        val, spc = view.val, view.spc
        served = [False] * view.n_adv()
        rem, count = view.total, 0
        keys, rem_at, served_at, own = [], [], [], []
        for i in view.value_order():
            if lo <= i < hi:
                if alphas[i - lo] is not None:
                    own.append((val[i] * bd, spc[i], alphas[i - lo]))
                continue
            keys.append(-3 * val[i] + (0 if i < lo else 2))
            rem_at.append(rem)
            served_at.append(count)
            a = view.adv[i]
            if count < limit and not served[a] and spc[i] <= rem:
                served[a] = True
                rem -= spc[i]
                count += 1
        rem_at.append(rem)
        served_at.append(count)
        return keys, rem_at, served_at, own, bn, limit

    def greedy_bpb(self, num: int, den: int) -> int:
        """The bidder's clicks under the greedy-bpb rule at the bid num / den > 0."""
        if self._greedy is None:
            self._greedy = self._greedy_tables()
        keys, zeros, before, rows, rem_at, snaps, own, bn, k, me = self._greedy
        scale = den * bn
        # each own row's position, in walk order
        placed = []
        for d, _v, _w in own:
            if d is None:
                placed.append(before)  # space 0: among the others' space-0 rows, by index
            else:
                x, r = divmod(num * d, scale)
                placed.append(zeros + bisect_left(keys, (r == 0) - 3 * x))
        if k is None:
            return self._clicks_in(_resume_uncapped(placed, own, rows, rem_at, snaps))
        # the first own row the others-only walk admits, and the walk on from it
        for t, p in enumerate(placed):
            held = {a: (v * scale, w) for a, (v, w) in snaps[p].items()}
            rem = greedy_step(held, rem_at[p], k, me, num * own[t][1], own[t][2])
            if me in held:
                break
        else:
            return 0
        q = p
        for p, (_d, v, w) in zip(placed[t + 1 :], own[t + 1 :]):
            for a, ov, ow in rows[q:p]:
                rem = greedy_step(held, rem, k, a, ov * scale, ow)
            q = p
            rem = greedy_step(held, rem, k, me, num * v, w)
        # after the last own row the others can still push the bidder out
        for a, ov, ow in rows[q:]:
            if me not in held:
                return 0
            rem = greedy_step(held, rem, k, a, ov * scale, ow)
        return self._clicks_in(held[me][1]) if me in held else 0

    def _greedy_tables(self):
        """The others-only greedy-bpb walk, kept for every probe: (the
        positive-space others' keys, the count of space-0 others and of
        those before the bidder's span, the others' rows as (advertiser
        index, value, space) in walk order, the remaining space and the
        walk's state before each and after the last, own rows as (density
        numerator or None for space 0, value numerator, space) in walk
        order, the view's bid numerator, the cap if it can evict (else
        None), the bidder's advertiser index).

        Uncapped, the state is the space each advertiser holds; capped, it
        maps each holder's index to their row's (value, space)."""
        view = self.view
        n, k = view.n_adv(), view.limit
        lo, hi, bn, bd, alphas = self._own()
        dens = view.densities()
        val, spc, adv = view.val, view.spc, view.adv
        keys, rows, own = [], [], []
        zeros = before = 0  # space-0 others, and those before the span
        for i in view.bpb_order():
            if lo <= i < hi:
                if alphas[i - lo] is not None:
                    own.append((None, val[i] * bd, 0) if spc[i] == 0 else (dens[i] * bd, val[i] * bd, spc[i]))
                continue
            rows.append((adv[i], val[i], spc[i]))
            if spc[i] == 0:
                zeros += 1
                before += i < lo
            else:
                keys.append(-3 * dens[i] + (0 if i < lo else 2))
        rem = view.total
        held = [0] * n if k is None else {}
        rem_at, snaps = [rem], [held.copy()]
        for a, v, w in rows:
            if k is not None:
                rem = greedy_step(held, rem, k, a, v, w)
            elif rem and held[a] < w <= held[a] + rem:
                rem -= w - held[a]
                held[a] = w
            rem_at.append(rem)
            snaps.append(held.copy())
        return keys, zeros, before, rows, rem_at, snaps, own, bn, k, view.adv_index[self.adv_id]


def _tie_bids(terms, bn: int, cap: Fraction) -> tuple[list[int], int]:
    """The bids d * bn / m in (0, cap] for each (others, m) of `terms` and
    each d of others, as (sorted distinct numerators, their common
    denominator): the lcm of the cap's denominator and every m."""
    den = lcm(cap.denominator, *(m for _others, m in terms))
    ties: set[int] = set()
    for others, m in terms:
        f = bn * (den // m)
        ties.update([d * f for d in others])
    limit = cap.numerator * (den // cap.denominator)
    return sorted(t for t in ties if t <= limit), den


def _resume_uncapped(placed, own, rows, rem_at, snaps) -> int:
    """The space the bidder holds after the uncapped greedy-bpb walk, their
    rows `own` at the positions `placed` among the others' `rows`, resumed
    from the recorded others-only walk.

    The walk stops once no space is left, and a row no larger than what its
    advertiser holds, or whose increment does not fit, is skipped."""
    for t, p in enumerate(placed):
        rem = rem_at[p]
        if not rem:
            return 0  # the walk has stopped before this row and every later one
        w = own[t][2]
        if 0 < w <= rem:
            break
    else:
        return 0
    held = snaps[p][:]
    rem -= w
    mine = w
    q = p
    for p, (_d, _v, w) in zip(placed[t + 1 :], own[t + 1 :]):
        if w <= mine:
            continue  # skipped, so the others' rows before it run on with the next
        for a, _ov, ow in rows[q:p]:
            if held[a] < ow <= held[a] + rem:
                rem -= ow - held[a]
                held[a] = ow
                if not rem:
                    return mine
        q = p
        if w - mine <= rem:
            rem -= w - mine
            mine = w
    return mine


def greedy_step(held: dict, rem: int, k: int, a: int, v: int, w: int) -> int:
    """One row of the bang-per-buck greedy walk serving at most k
    advertisers: advertiser `a`'s row of value `v` and space `w` against
    `held` (advertiser index -> (value, space)) with `rem` space left.
    Updates `held` and returns the space left.

    A holder takes a larger row that fits its increment; a newcomer is
    admitted if it fits and fewer than k advertisers hold, else it may push
    out the holder of lowest value (ties to the lowest index) when it
    strictly beats that value and fits in the space so freed. With k the
    number of advertisers nobody is ever pushed out."""
    got = held.get(a)
    if got is not None:
        if got[1] < w <= got[1] + rem:
            held[a] = (v, w)
            return rem - (w - got[1])
        return rem
    if len(held) < k:
        if w <= rem:
            held[a] = (v, w)
            return rem - w
        return rem
    e = min(held, key=lambda b: (held[b][0], b))
    ev, ew = held[e]
    if v > ev and w <= rem + ew:
        del held[e]
        held[a] = (v, w)
        return rem + ew - w
    return rem


def run_space_auction(view: ScaledView, events: list | None = None):
    """The integral rule's space walk, in `bpb_order`.

    A row no larger than what its advertiser already holds is skipped;
    otherwise the increment is charged against the remaining budget. The
    first increment that does not fit stops the walk with a fractional
    tail.

    Returns (held, held_spc, frac_adv, frac_num, frac_den) where `held[a]` is
    the row advertiser a ends up holding (-1 for none), `held_spc[a]` the
    space reserved for a, and the frac_* triple describes the fractional
    stop: advertiser index (or -1), plus numerator/denominator of the weight
    on the stopping row.

    When `events` is a list, each row that covers new units appends
    (kind, row, start, end) to it: kind is "place", "replace" or
    "fractional" and [start, end) is the scaled-unit range newly covered by
    that row. Units keep the label of the row that first covered them; the
    fractional stop labels the whole leftover range.
    """
    adv, spc, total = view.adv, view.spc, view.total
    held = [-1] * view.n_adv()
    held_spc = [0] * view.n_adv()
    rem = total
    for i in view.bpb_order():
        if rem == 0:
            break
        a = adv[i]
        if spc[i] <= held_spc[a]:
            continue
        inc = spc[i] - held_spc[a]
        if inc > rem:
            if events is not None:
                events.append(("fractional", i, total - rem, total))
            held[a] = i
            held_spc[a] += rem
            return held, held_spc, a, held_spc[a], spc[i]
        if events is not None:
            events.append(("place" if held[a] < 0 else "replace", i, total - rem, total - rem + inc))
        held[a] = i
        held_spc[a] = spc[i]
        rem -= inc
    return held, held_spc, -1, 0, 1


def run_space_auction_traced(view: ScaledView):
    """`run_space_auction` plus its event list."""
    events = []
    return (*run_space_auction(view, events), events)


def run_best_fit(view: ScaledView, caps: list[int]):
    """Per advertiser a, the row of highest value fitting in caps[a] (-1 if
    none); value ties go to the lower row."""
    adv, val, spc = view.adv, view.val, view.spc
    best = [-1] * view.n_adv()
    for i in range(len(val)):
        a = adv[i]
        if caps[a] <= 0 or spc[i] > caps[a]:
            continue
        if best[a] < 0 or val[i] > val[best[a]]:
            best[a] = i
    return best


def run_value_greedy(view: ScaledView, limit: int):
    """Walk rows in `value_order`, serving each advertiser the first row
    that fits, until `limit` advertisers are served; a row that does not
    fit leaves its advertiser eligible."""
    spc = view.spc
    held = [-1] * view.n_adv()
    rem = view.total
    placed = 0
    for i in view.value_order():
        if placed >= limit:
            break
        a = view.adv[i]
        if held[a] < 0 and spc[i] <= rem:
            held[a] = i
            rem -= spc[i]
            placed += 1
    return held
