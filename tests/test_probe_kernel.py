"""The per-bidder probe kernel against the rebid path it replaces.

The oracle runs the rule itself on `oracles.rebid(view, adv_id, bid)`: a
view with the bidder's bid replaced, then `branch_allocate` and the
allocation's clicks. The kernel must give the same clicks under every rule
of the table, capped or not, at every bid, in particular at tie bids, where
one of the bidder's densities or values equals another row's.
"""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from oracles import bpb_breakpoints_uncut, effective_values, rebid, rebid_clicks
from richads import fixtures, heuristics, kernels, pricing
from richads.model import (
    Advertiser,
    Instance,
    NonMonotoneClickCurveError,
    ReportProfile,
    RichAd,
    truthful_profile,
)

BRANCHES = sorted(pricing.BRANCHES)


def probe_bids(inst, rep, adv_id):
    """Every bid where one of the bidder's ads ties another reported row in
    density or value, the midpoints between them and a bid past the last."""
    subset = rep.subsets.get(adv_id, frozenset())
    own = [ad for ad in inst.advertiser(adv_id).ads if ad.ad_id in subset and ad.alpha > 0]
    ties = set()
    for (other_id, other_ad), value in effective_values(inst, rep).items():
        if other_id == adv_id or value <= 0:
            continue
        space = inst.advertiser(other_id).ad(other_ad).space
        for ad in own:
            ties.add(value / ad.alpha)
            if space > 0:
                ties.add(value * ad.space / (space * ad.alpha))
    ties = sorted(t for t in ties if t > 0)
    points = [Fraction(0)] + ties + [(ties[-1] if ties else Fraction(0)) + 1]
    return ties + [(lo + hi) / 2 for lo, hi in zip(points, points[1:])]


def assert_probe_matches_rebid(inst, rep, adv_id):
    view = kernels.ScaledView(inst, rep)
    probe = view.probe(adv_id)
    for bid in probe_bids(inst, rep, adv_id):
        for branch in BRANCHES:
            expected = rebid_clicks(view, adv_id, bid, ((Fraction(1), branch),))
            got = pricing.BRANCHES[branch].probe(probe, bid.numerator, bid.denominator)
            assert Fraction(got, probe.click_den) == expected, (adv_id, branch, bid)


@st.composite
def probe_cases(draw):
    """A report and one bidder, on instances validation would reject too:
    ads of space 0 or click rate 0, ads wider than the total space, zero
    bids from the others (the bidder's is positive: see
    `test_a_zero_bid_probe_is_refused`) and subsets smaller than the
    catalog; no cardinality cap or one of 1 and 2."""
    advertisers = []
    for i in range(draw(st.integers(1, 4))):
        ads = tuple(
            RichAd(
                f"a{i}x{j}",
                Fraction(draw(st.integers(0, 4)), 4),
                Fraction(draw(st.integers(0, 12)), draw(st.sampled_from((1, 2)))),
            )
            for j in range(draw(st.integers(1, 3)))
        )
        value = Fraction(draw(st.integers(1, 20)), draw(st.sampled_from((1, 3))))
        advertisers.append(Advertiser(f"a{i}", value, ads))
    inst = Instance(
        advertisers=tuple(advertisers),
        total_space=Fraction(draw(st.integers(1, 16))),
        cardinality_limit=draw(st.sampled_from((None, 1, 2))),
    )
    probed = draw(st.sampled_from(inst.adv_ids()))
    bids, subsets = {}, {}
    for adv in inst.advertisers:
        bids[adv.adv_id] = adv.value_per_click * Fraction(draw(st.integers(1 if adv.adv_id == probed else 0, 4)), 4)
        subsets[adv.adv_id] = frozenset(draw(st.sets(st.sampled_from(adv.ad_ids()))))
    return inst, ReportProfile(bids=bids, subsets=subsets), probed


@settings(deadline=None, max_examples=300)
@given(probe_cases())
def test_probe_matches_rebid(case):
    assert_probe_matches_rebid(*case)


def test_a_zero_bid_probe_is_refused():
    inst = _instance(5, ("a", 2, [("ax1", "1/2", 3)]), ("b", 3, [("bx1", 1, 1)]))
    view = kernels.ScaledView(inst, truthful_profile(inst).replace("a", Fraction(0), frozenset({"ax1"})))
    with pytest.raises(ValueError, match="cannot probe 'a' at bid 0"):
        view.probe("a")
    assert pricing.BRANCHES["max-value"].probe(view.probe("b"), 1, 1) == 1


def test_probe_matches_rebid_on_tie_corpus(tie_corpus):
    rng = random.Random(5)
    for inst in tie_corpus:
        truth = truthful_profile(inst)
        shaded = ReportProfile(
            bids={a.adv_id: a.value_per_click * Fraction(rng.randint(1, 4), 4) for a in inst.advertisers},
            subsets={a.adv_id: frozenset(x for x in a.ad_ids() if rng.random() < 0.7) for a in inst.advertisers},
        )
        for limit in (None, 1, 2):
            capped = replace(inst, cardinality_limit=limit)
            for rep in (truth, shaded):
                for adv in inst.advertisers:
                    assert_probe_matches_rebid(capped, rep, adv.adv_id)


def curve_steps(view, adv_id, subset=None):
    """Per branch, `adv_id`'s click curve on (0, their bid] in `view` for
    `subset`, as Fraction steps, or the drop it raises."""
    cap = view.rep.bids[adv_id]
    got = {}
    for branch in BRANCHES:
        try:
            got[branch] = pricing._build_curve(view, adv_id, cap, branch, branch, subset).steps
        except NonMonotoneClickCurveError as exc:
            got[branch] = str(exc)
    return got


def assert_subset_probes_match(inst, rep):
    """For every bidder of `rep` who bids above 0 on their whole catalog and
    every nonempty subset S of it: the probe for S on the view of `rep`
    equals the probe on the view where they report S, under every branch,
    in clicks at every pairwise tie bid, the midpoints between them and a
    bid past the last (`probe_bids`), in breakpoints and in curve steps, all
    compared as Fractions. Returns the number of subsets checked."""
    whole = kernels.ScaledView(inst, rep)
    checked = 0
    for adv in inst.advertisers:
        adv_id, bid = adv.adv_id, rep.bids[adv.adv_id]
        if bid <= 0:
            continue
        assert rep.subsets[adv_id] == frozenset(adv.ad_ids())
        for size in range(1, len(adv.ads) + 1):
            for subset in map(frozenset, combinations(adv.ad_ids(), size)):
                own = kernels.ScaledView(inst, rep.replace(adv_id, bid, subset))
                got, want = whole.probe(adv_id, subset), own.probe(adv_id)
                for branch in BRANCHES:
                    rule = pricing.BRANCHES[branch]
                    for b in probe_bids(inst, own.rep, adv_id):
                        clicks = [Fraction(rule.probe(p, b.numerator, b.denominator), p.click_den) for p in (got, want)]
                        assert clicks[0] == clicks[1], (adv_id, sorted(subset), branch, b)
                    points = [rule.breakpoints(p, bid) for p in (got, want)]
                    points = [[Fraction(t, den) for t in ties] for ties, den in points]
                    assert points[0] == points[1], (adv_id, sorted(subset), branch)
                assert curve_steps(whole, adv_id, subset) == curve_steps(own, adv_id), (adv_id, sorted(subset))
                checked += 1
    return checked


def test_a_subset_probe_on_the_whole_catalog_view_equals_the_subsets_own_view(tie_corpus):
    # one view with a bidder on their whole catalog serves every subset of
    # it; the edge instance has ads of space 0, of click rate 0 and wider
    # than the total space
    edge = _instance(
        8,
        ("a", 3, [("ax1", "1/4", 0), ("ax2", 0, 2), ("ax3", 1, 9), ("ax4", "1/2", 3)]),
        ("b", 2, [("bx1", 1, 0), ("bx2", "1/2", 5)]),
        ("c", 1, [("cx1", 1, 9), ("cx2", "3/4", 4)]),
    )
    checked = 0
    for inst in [fixtures.fixture(name) for name in ("fx1", "fx4", "fx6a")] + [edge, *tie_corpus]:
        for limit in (None, 1, 2):
            capped = replace(inst, cardinality_limit=limit)
            checked += assert_subset_probes_match(capped, truthful_profile(capped))
    assert checked == 834


def test_each_own_row_reads_only_the_keys_it_can_tie_below_the_cap(tie_corpus):
    # the bpb reader takes, per own density, only the keys from its
    # position at the cap up to the walk's cut; the reader over every key
    # before the cut gives the same breakpoints, for every subset probe of
    # the whole-catalog view and for caps below, at and above the bid
    checked = 0
    for inst in tie_corpus:
        for limit in (None, 1, 2):
            capped = replace(inst, cardinality_limit=limit)
            view = kernels.ScaledView(capped, truthful_profile(capped))
            for adv in capped.advertisers:
                adv_id, bid = adv.adv_id, view.rep.bids[adv.adv_id]
                if bid <= 0:
                    continue
                subsets = [None] + [
                    frozenset(combo) for size in range(1, len(adv.ads) + 1) for combo in combinations(adv.ad_ids(), size)
                ]
                for subset in subsets:
                    for cap in (bid / 3, bid, 2 * bid + Fraction(1, 3)):
                        got = view.probe(adv_id, subset).bpb_breakpoints(cap)
                        assert got == bpb_breakpoints_uncut(kernels.BidderProbe(view, adv_id, subset), cap), (
                            adv_id, subset, cap,
                        )
                        checked += 1
    assert checked == 3222


@pytest.mark.parametrize("limit", (0, -1))
def test_a_cap_below_one_raises_as_the_greedy_rules_do(limit):
    inst = replace(_instance(5, ("a", 2, [("ax1", "1/2", 3)]), ("b", 3, [("bx1", 1, 1)])), cardinality_limit=limit)
    rep = truthful_profile(inst)
    message = f"cardinality limit must be >= 1, got {limit}"
    for rule in (heuristics.greedy_by_bpb, heuristics.greedy_by_value):
        with pytest.raises(ValueError) as raised:
            rule(inst, rep)
        assert str(raised.value) == message
    for branch in ("greedy-bpb", "greedy-value"):
        with pytest.raises(ValueError) as raised:
            pricing.BRANCHES[branch].probe(kernels.ScaledView(inst, rep).probe("a"), 1, 1)
        assert str(raised.value) == message


def _instance(total, *advertisers):
    return Instance(
        advertisers=tuple(
            Advertiser(adv_id, Fraction(value), tuple(RichAd(ad_id, Fraction(a), Fraction(s)) for ad_id, a, s in ads))
            for adv_id, value, ads in advertisers
        ),
        total_space=Fraction(total),
    )


def test_bidder_without_competing_rows():
    alone = _instance(5, ("a", 2, [("ax1", "1/2", 3), ("ax2", 1, 6)]))
    # the other advertiser bids 0 and so has no rows either
    muted = _instance(5, ("a", 2, [("ax1", "1/2", 3)]), ("b", 3, [("bx1", 1, 1)]))
    for inst in (alone, muted):
        rep = truthful_profile(inst)
        if "b" in rep.bids:
            rep = rep.replace("b", Fraction(0), rep.subsets["b"])
        view = kernels.ScaledView(inst, rep)
        assert view.span("a") == (0, len(view))
        assert_probe_matches_rebid(inst, rep, "a")
        for branch in BRANCHES:
            probe = view.probe("a")
            assert Fraction(pricing.BRANCHES[branch].probe(probe, 1, 7), probe.click_den) == Fraction(1, 2)


def test_budget_used_up_exactly():
    # b's rows sit between a's and c's. In the first instance c and a fill
    # the budget before b's row comes up; in the second b's row fills it
    before = _instance(10, ("a", 6, [("ax1", 1, 6)]), ("b", 4, [("bx1", 1, 4)]), ("c", 8, [("cx1", 1, 4)]))
    own = _instance(8, ("a", 1, [("ax1", 1, 3)]), ("b", 4, [("bx1", 1, 4)]), ("c", 8, [("cx1", 1, 4)]))
    for inst, bid, clicks in ((before, Fraction(1, 2), 0), (own, Fraction(2), 1)):
        rep = truthful_profile(inst)
        view = kernels.ScaledView(inst, rep)
        _held, held_spc, frac_adv, _n, _d = kernels.run_space_auction(rebid(view, "b", bid))
        assert sum(held_spc) == view.total and frac_adv == -1
        assert view.probe("b").bpb(bid.numerator, bid.denominator) == clicks
        assert_probe_matches_rebid(inst, rep, "b")


def test_zero_space_zero_alpha_and_oversized_own_ads():
    # a's ads: one of space 0, one of click rate 0, one wider than the total
    inst = _instance(
        8,
        ("a", 3, [("ax1", "1/4", 0), ("ax2", 0, 2), ("ax3", 1, 9), ("ax4", "1/2", 3)]),
        ("b", 2, [("bx1", 1, 0), ("bx2", "1/2", 5)]),
        ("c", 1, [("cx1", 1, 9), ("cx2", "3/4", 4)]),
    )
    for subset in ({"ax1", "ax2", "ax3", "ax4"}, {"ax1", "ax3"}, {"ax2"}, {"ax3"}, set()):
        rep = truthful_profile(inst).replace("a", Fraction(3), subset)
        assert_probe_matches_rebid(inst, rep, "a")
        assert_probe_matches_rebid(inst, rep, "b")


def test_click_den_and_own_click_numerators_equal_the_fraction_rates():
    # click rates over large coprime denominators, bids with their own
    big = 10**18 + 9
    inst = _instance(
        20,
        ("a", "7/10", [("ax1", Fraction(3, big), 4), ("ax2", "1/2", 1), ("ax3", Fraction(5, 6), 2)]),
        ("b", 3, [("bx1", Fraction(2, 10**18 + 3), 5), ("bx2", 1, 3)]),
    )
    truth = truthful_profile(inst)
    for rep in (truth, truth.replace("a", Fraction(11, big), {"ax1", "ax3"}).replace("b", 2, {"bx1"})):
        view = kernels.ScaledView(inst, rep)
        for adv_id in inst.adv_ids():
            lo, hi = view.span(adv_id)
            advertiser = inst.advertiser(adv_id)
            rates = [advertiser.ad(ad_id).alpha for ad_id in view.ad_ids[lo:hi]]
            probe = view.probe(adv_id)
            den = lcm(*(r.denominator for r in rates))
            assert probe.click_den == den
            assert probe._own()[4] == [r.numerator * (den // r.denominator) for r in rates]
