"""Click curves, Myerson and GSP payments, VCG externalities."""

import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    PAIRWISE_KINDS,
    check_curveless_branches,
    checked_like_the_fraction_oracle,
    curve_over_pairwise_ties,
    finish_outcome,
    int_opt_by_dense_dp,
    integer_prices_along,
    priced_or_error,
    prices_along,
    rebid_clicks,
    recording_threshold_payments,
    riemann_myerson,
    tie_candidates_pairwise,
    vcg_by_resolving,
)
from richads import exact, fixtures, heuristics, kernels, monotone, pricing
from richads.exact import int_opt_exhaustive
from richads.model import (
    Advertiser,
    GuardExceededError,
    Instance,
    InvariantViolation,
    NonMonotoneClickCurveError,
    ReportProfile,
    RichAd,
    truthful_profile,
)
from richads.pricing import (
    AllocationRule,
    BidThresholds,
    bid_thresholds,
    gsp_prices,
    mixture_rule,
    myerson_payment,
    vcg_payments,
)

MONOTONE_RULES = [
    AllocationRule("bpb"),
    AllocationRule("max-value"),
    mixture_rule(),
    mixture_rule(Fraction(1, 2)),
    AllocationRule("greedy-bpb"),
    AllocationRule("greedy-value"),
]


def test_fx2_bpb_curve_shape():
    inst = fixtures.fx2()
    rep = truthful_profile(inst)
    curve = bid_thresholds(inst, rep, "a", AllocationRule("bpb"))
    assert curve.thresholds == (Fraction(0), Fraction(7, 4), Fraction(3))
    # 4/7 clicks on (0, 7/4) and (7/4, 3), one click on (3, 7/2]
    assert curve.steps == ((Fraction(0), Fraction(4, 7)), (Fraction(3), Fraction(1)))
    assert curve.cap == Fraction(7, 2)


def test_fx2_myerson_payments():
    inst = fixtures.fx2()
    rep = truthful_profile(inst)
    out = myerson_payment(inst, rep, mixture_rule())
    assert out.payments == {"a": Fraction(13, 7), "b": Fraction(0)}
    assert out.cpc["a"] == Fraction(13, 7)  # one expected click
    assert out.cpc["b"] is None


def test_fx2_myerson_matches_integration_oracle():
    inst = fixtures.fx2()
    rep = truthful_profile(inst)
    approx = riemann_myerson(inst, rep, "a", mixture_rule(), steps=20000)
    assert abs(approx - float(Fraction(13, 7))) <= 1e-3


def test_fx3_myerson_payments():
    inst = fixtures.fx3()
    rep = truthful_profile(inst)
    out = myerson_payment(inst, rep, mixture_rule())
    assert out.payments == {
        "a": Fraction(1001, 1500),
        "b": Fraction(2, 3),
        "c": Fraction(0),
        "d": Fraction(1000001, 3000),
    }


def test_fx2_vcg_payments():
    inst = fixtures.fx2()
    rep = truthful_profile(inst)
    out = vcg_payments(inst, rep)
    assert out.payments == {"a": Fraction(0), "b": Fraction(3, 2)}
    assert out.mixture.branches[0][1].entries == {
        "a": ("ax1", Fraction(1)),
        "b": ("bx1", Fraction(1)),
    }


def test_fx6b_vcg_charges_the_displaced_value():
    inst = fixtures.fx6b()
    rep = truthful_profile(inst)
    out = vcg_payments(inst, rep)
    assert out.payments == {"a": Fraction(0), "b": Fraction(1, 2)}


def test_vcg_with_exhaustive_solver_agrees():
    inst = fixtures.fx2()
    rep = truthful_profile(inst)
    assert vcg_by_resolving(inst, rep, int_opt_exhaustive).payments == {
        "a": Fraction(0),
        "b": Fraction(3, 2),
    }


def test_vcg_builds_one_view_and_calls_no_solver(monkeypatch):
    # the optimum and every counterfactual come from one view and one DP;
    # the re-solving oracle builds n + 1 = 3 views on fx1
    counts = Counter()
    view, solve = kernels.ScaledView, exact.int_opt_dp

    def counted_view(*args, **kwargs):
        counts["views"] += 1
        return view(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    for module in (kernels, monotone, heuristics, exact):
        monkeypatch.setattr(module, "ScaledView", counted_view)
    monkeypatch.setattr(exact, "int_opt_dp", counted_solve)
    inst = fixtures.fixture("fx1")
    rep = truthful_profile(inst)
    fast = vcg_payments(inst, rep)
    assert counts == {"views": 1}
    counts.clear()
    assert vcg_by_resolving(inst, rep, exact.int_opt_dp) == fast
    assert counts == {"views": 3, "solves": 3}


@pytest.mark.parametrize("limit", [None, 1, 2, 3])
def test_one_pass_vcg_matches_resolving_on_the_corpus(small_corpus, limit):
    for inst in small_corpus:
        inst = replace(inst, cardinality_limit=limit)
        rep = truthful_profile(inst)
        assert vcg_payments(inst, rep) == vcg_by_resolving(inst, rep, exact.int_opt_dp)


@pytest.mark.parametrize("limit", [None, 3])
def test_one_pass_vcg_matches_resolving_where_dominated_ads_abound(limit):
    # `price-large`'s shape: about half of the ads are dominated within their
    # advertiser, and the rows of the last advertisers stop short of the
    # total, which the narrow `small_corpus` instances rarely show
    for seed in range(6):
        inst = replace(_price_large_instance(seed), cardinality_limit=limit)
        rep = truthful_profile(inst)
        assert vcg_payments(inst, rep) == vcg_by_resolving(inst, rep, int_opt_by_dense_dp), seed


def test_the_vcg_mechanism_prices_off_the_view_it_is_given(monkeypatch):
    # `Mechanism.price` hands VCG the caller's view, which keeps its one
    # capacity DP: pricing twice on it builds no view and one DP
    mech = pricing.Mechanism("vcg")
    for name in fixtures.BUILDERS:
        inst = fixtures.fixture(name)
        rep = truthful_profile(inst)
        view = kernels.ScaledView(inst, rep)
        views, dps = _counting(monkeypatch), _counting(monkeypatch, exact.CapacityDP)
        if name == "fx3":  # over the DP guard: the refusal is not kept, so each call tries again
            for _ in range(2):
                with pytest.raises(GuardExceededError, match="exceeds the DP guard"):
                    mech.price(inst, rep, view)
            assert (len(views), len(dps)) == (0, 2)
            monkeypatch.undo()
            continue
        first, second = mech.price(inst, rep, view), mech.price(inst, rep, view)
        assert (len(views), len(dps)) == (0, 1), name
        monkeypatch.undo()
        assert first == second == vcg_payments(inst, rep), name


def test_vcg_guard_fires_before_any_table():
    # fx3's scaled capacity is 1999999, over the DP guard of 10**6
    inst = fixtures.fx3()
    rep = truthful_profile(inst)
    with pytest.raises(GuardExceededError, match="exceeds the DP guard"):
        vcg_payments(inst, rep)
    with pytest.raises(GuardExceededError, match="exceeds the DP guard"):
        vcg_by_resolving(inst, rep, exact.int_opt_dp)


def test_fx4_gsp_at_truth():
    inst = fixtures.fx4()
    rep = truthful_profile(inst)
    out = gsp_prices(inst, rep, mixture_rule(Fraction(1, 2)))
    # b pays the tie threshold 1 on the space branch and 1/M on the
    # max-value branch, half weight each
    assert out.payments == {"a": Fraction(0), "b": Fraction(101, 200)}


def test_fx4_gsp_underbid_clears_the_threshold():
    inst = fixtures.fx4()
    rep = truthful_profile(inst)
    rep = rep.replace("b", Fraction(1, 2), rep.subsets["b"])
    out = gsp_prices(inst, rep, mixture_rule(Fraction(1, 2)))
    # the space branch now serves b's small ad above a zero threshold;
    # only the max-value branch still charges 1/M
    assert out.payments["b"] == Fraction(1, 200)


def test_payments_individually_rational(small_corpus):
    for inst in small_corpus[:60]:
        rep = truthful_profile(inst)
        for rule in (mixture_rule(), mixture_rule(Fraction(1, 2))):
            for priced in (myerson_payment(inst, rep, rule), gsp_prices(inst, rep, rule)):
                for adv in inst.advertisers:
                    p = priced.payments[adv.adv_id]
                    x = priced.mixture.clicks(inst, adv.adv_id)
                    assert 0 <= p <= rep.bids[adv.adv_id] * x
                    if x > 0:
                        assert priced.cpc[adv.adv_id] == p / x
                    else:
                        assert priced.cpc[adv.adv_id] is None


def test_curves_nondecreasing(small_corpus):
    for inst in small_corpus[:40]:
        rep = truthful_profile(inst)
        for rule in MONOTONE_RULES:
            # a lottery's curves are its branches'
            for _prob, branch in pricing.rule_branches(rule):
                for adv in inst.advertisers:
                    curve = bid_thresholds(inst, rep, adv.adv_id, pricing.AllocationRule(branch))
                    starts = [lo for lo, _clicks in curve.steps]
                    levels = [clicks for _lo, clicks in curve.steps]
                    assert starts == sorted(set(starts)) and starts[:1] == [0] and starts[-1] < curve.cap
                    assert levels == sorted(set(levels))


def test_bid_thresholds_refuses_a_lottery_naming_its_branches():
    inst = fixtures.fx2()
    rep = truthful_profile(inst)
    with pytest.raises(ValueError, match="'bpb' and 'max-value'"):
        bid_thresholds(inst, rep, "a", mixture_rule())


def test_zero_bid_pays_nothing():
    inst = fixtures.fx2()
    rep = truthful_profile(inst)
    rep = rep.replace("a", Fraction(0), rep.subsets["a"])
    for priced in (
        myerson_payment(inst, rep, mixture_rule()),
        gsp_prices(inst, rep, mixture_rule()),
    ):
        assert priced.payments["a"] == 0
        assert priced.cpc["a"] is None
    curve = bid_thresholds(inst, rep, "a", AllocationRule("bpb"))
    assert curve.steps == () and curve.thresholds == (Fraction(0),)


def test_myerson_from_curve_arithmetic():
    curve = BidThresholds(
        adv_id="a", cap=Fraction(2), runs=((0, 1), (1, 2)), ties=[1], den=1, click_den=1, probes=0
    )
    assert curve.steps == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)))
    # the integer pass, on these Fractions, equals the Fraction oracle everywhere (`prices_along`)
    assert prices_along("myerson", curve, (Fraction(2),), (Fraction(2),), "bpb") == [1]
    assert prices_along("myerson", curve, (Fraction(1, 2),), (Fraction(1),), "bpb") == [0]
    assert prices_along("gsp", curve, (Fraction(2),), (Fraction(2),), "bpb") == [1]
    assert prices_along("gsp", curve, (Fraction(2),), (Fraction(0),), "bpb") == [0]
    assert prices_along("gsp", curve, (Fraction(1, 2),), (Fraction(1),), "bpb") == [0]
    # one ascending pass equals the interval-by-interval definition at every bid,
    # up to and past the cap (the curve ends there), on clicks the curve allows:
    # at a bid, at least the level of the last run below it
    bids = [Fraction(k, 4) for k in range(1, 11)]
    starts = [lo for lo, _c in curve.steps]
    intervals = list(zip(starts, starts[1:] + [curve.cap]))
    levels = [c for _lo, c in curve.steps]
    under = [levels[sum(lo < b for lo in starts) - 1] for b in bids]
    area = [
        sum(((min(hi, b) - lo) * c for (lo, hi), c in zip(intervals, levels) if lo < b), Fraction(0))
        for b in bids
    ]
    first = {Fraction(1): Fraction(0), Fraction(2): Fraction(1)}
    for xs in (under, [Fraction(2)] * len(bids)):
        assert prices_along("myerson", curve, bids, xs, "bpb") == [b * x - a for b, x, a in zip(bids, xs, area)]
        cpc = [first[x] if first[x] < b else b for b, x in zip(bids, xs)]
        assert prices_along("gsp", curve, bids, xs, "bpb") == cpc
    # clicks below that level are a drop at the bid itself; GSP checks none at no clicks
    for b, level in zip(bids, under):
        for x in (Fraction(0), Fraction(1)):
            if x >= level:
                continue
            with pytest.raises(NonMonotoneClickCurveError):
                prices_along("myerson", curve, (b,), (x,), "bpb")
            if x:
                with pytest.raises(NonMonotoneClickCurveError):
                    prices_along("gsp", curve, (b,), (x,), "bpb")
            else:
                assert prices_along("gsp", curve, (b,), (x,), "bpb") == [0]


def test_a_drop_at_the_bid_raises_in_the_one_pass():
    # clicks 0 below 3 and 1 from there to the cap 4; at the bid 4 the clicks
    # fall to 1/2, below the last run under 4: the pass raises on (4, 4)
    curve = BidThresholds("a", Fraction(4), ((0, 0), (3, 2)), [3], 1, 2, 0)
    bids = (Fraction(2), Fraction(4))
    for kind in ("myerson", "gsp"):
        with pytest.raises(NonMonotoneClickCurveError) as err:
            prices_along(kind, curve, bids, (Fraction(0), Fraction(1, 2)), "greedy-bpb")
        got = err.value
        assert (got.adv_id, got.rule_name, got.left_clicks, got.right_clicks) == ("a", "greedy-bpb", 1, Fraction(1, 2))
        assert got.left_interval == (3, 4) and got.right_interval == (4, 4)
    # no clicks at 4: Myerson raises, GSP charges nothing and reads no level
    with pytest.raises(NonMonotoneClickCurveError):
        prices_along("myerson", curve, bids, (Fraction(0), Fraction(0)), "greedy-bpb")
    assert prices_along("gsp", curve, bids, (Fraction(0), Fraction(0)), "greedy-bpb") == [0, 0]
    assert prices_along("gsp", curve, bids, (Fraction(0), Fraction(1)), "greedy-bpb") == [0, 3]


def test_priced_outcome_serialization():
    inst = fixtures.fx2()
    rep = truthful_profile(inst)
    out = myerson_payment(inst, rep, mixture_rule())
    doc = out.to_dict()
    assert doc["rule"] == "myerson"
    assert doc["payments"] == {"a": "13/7", "b": "0"}
    assert [b["probability"] for b in doc["branches"]] == ["2/3", "1/3"]
    assert doc["branches"][0]["entries"]["a"] == {"ad": "ax2", "weight": "1"}


def _price_large_instance(seed):
    """12 advertisers x 4 ads, integer spaces 1-30, total space 150."""
    rng = random.Random(seed)
    advertisers = []
    for a in range(1, 13):
        ads = tuple(
            RichAd(f"a{a:02d}x{j}", Fraction(rng.randint(1, 8), 8), Fraction(rng.randint(1, 30)))
            for j in range(1, 5)
        )
        advertisers.append(Advertiser(f"a{a:02d}", Fraction(rng.randint(1, 100), 10), ads))
    return Instance(advertisers=tuple(advertisers), total_space=Fraction(150))


def _myerson_work(monkeypatch, inst):
    """(curves, probes, breakpoints, full view builds) of one Myerson
    mixture payment; the probes and breakpoints are the ones its curves
    report."""
    views = []
    view = kernels.ScaledView

    def counted_view(*args, **kwargs):
        views.append(True)
        return view(*args, **kwargs)

    for module in (kernels, monotone, heuristics):
        monkeypatch.setattr(module, "ScaledView", counted_view)
    out = myerson_payment(inst, truthful_profile(inst), mixture_rule())
    monkeypatch.undo()
    curves = [curve for curves in out.curves.values() for curve in curves if curve is not None]
    return len(curves), sum(curve.probes for curve in curves), sum(len(curve.ties) for curve in curves), len(views)


def test_myerson_work_counts_are_pinned(monkeypatch):
    # one view of the report serves the allocation and every probe; each
    # curve is bisected over its branch's breakpoints only, and a branch
    # proven nondecreasing that gives the bidder no clicks builds no curve
    # (5 of fx3's 8 and 13 of the 12 x 4 instance's 24, which took 5 and
    # 13 probes over no breakpoint). Over every pairwise tie all 8 and 24
    # curves took 22 and 143 probes among 27 and 1,664 candidates, and a
    # full scan probes every pairwise interval (fx3: 31, the 12 x 4
    # instance: 1,684)
    assert _myerson_work(monkeypatch, fixtures.fx3()) == (3, 11, 14, 1)
    assert _myerson_work(monkeypatch, _price_large_instance(7)) == (11, 80, 315, 1)


# small grids, so that equal values and densities are routine
ALPHAS = tuple(Fraction(k, 4) for k in range(1, 5))
VALUES = tuple(Fraction(k, 2) for k in range(1, 9))


@st.composite
def pruning_cases(draw):
    """(instance, report, bidder) built to meet the edges of each branch's
    breakpoint reader, the instance unvalidated: others before and after
    the bidder's span, two of them copying the bidder's value and one of
    their ads (equal values and densities on both sides at the bidder's
    value), an other advertiser's smaller ad of lower density that the bpb
    walk skips, zero-space ads, own ads of equal density or equal click
    rate, totals small enough that the others fill them before the
    bidder's first row, and caps 1 and 2, which the others reach under
    greedy-value when they outbid the bidder."""

    def ad(name):
        return RichAd(name, draw(st.sampled_from(ALPHAS)), Fraction(draw(st.sampled_from((0, 1, 1, 2, 3, 4, 6)))))

    value = draw(st.sampled_from(VALUES))
    own = [ad(f"mex{j}") for j in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):  # a twin of equal density, or of equal click rate
        first = own[0]
        if draw(st.booleans()):
            own.append(RichAd("mex9", first.alpha / 2, first.space / 2))
        else:
            own.append(RichAd("mex9", first.alpha, first.space + 1))
    before, after = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    advertisers = []
    for i in range(before + after):
        name = f"a{i}" if i < before else f"z{i}"
        ads = [ad(f"{name}x{j}") for j in range(draw(st.integers(1, 3)))]
        copies = i in (0, before + after - 1) and draw(st.booleans())
        if draw(st.booleans()):  # a large dense ad, then a smaller sparser one the bpb walk skips
            ads += [RichAd(f"{name}x7", Fraction(1), Fraction(4)), RichAd(f"{name}x8", Fraction(1, 4), Fraction(2))]
        if copies:
            ads.append(replace(own[0], ad_id=f"{name}x9"))
        advertisers.append(Advertiser(name, value if copies else draw(st.sampled_from(VALUES)), tuple(ads)))
    advertisers.insert(before, Advertiser("me", value, tuple(own)))
    inst = Instance(
        advertisers=tuple(advertisers),
        total_space=Fraction(draw(st.integers(1, 16))),
        cardinality_limit=draw(st.sampled_from((None, 1, 2))),
    )
    rep = truthful_profile(inst)
    rep = rep.replace("me", value * Fraction(draw(st.integers(1, 4)), 4), rep.subsets["me"])
    return inst, rep, "me"


def _price_large_case(seed, limit):
    inst = replace(_price_large_instance(seed), cardinality_limit=limit)
    return inst, truthful_profile(inst), inst.adv_ids()[5]


def _zero_space_cap_case():
    # under greedy-value the others' zero-space rows fill the one slot while
    # leaving the space as it was: a served row is a breakpoint, though the
    # remaining space does not change there
    def advertiser(name, alpha):
        return Advertiser(name, Fraction(1, 2), (RichAd(f"{name}x0", alpha, Fraction(0)),))

    inst = Instance(
        advertisers=(advertiser("a0", Fraction(1, 4)), advertiser("me", Fraction(3, 4)), advertiser("z1", Fraction(1, 4))),
        total_space=Fraction(1),
        cardinality_limit=1,
    )
    rep = truthful_profile(inst)
    return inst, rep.replace("me", Fraction(1, 4), rep.subsets["me"]), "me"


@settings(deadline=None, max_examples=300)
@given(pruning_cases())
@example(_price_large_case(7, None))
@example(_price_large_case(7, 2))
@example(_zero_space_cap_case())
def test_breakpoints_give_the_curve_and_prices_of_every_pairwise_tie(case):
    # each branch's curve over its breakpoints equals the curve over every
    # pairwise tie, and prices every pairwise tie bid and the bid alike
    inst, rep, adv_id = case
    view = kernels.ScaledView(inst, rep)
    bid = rep.bids[adv_id]
    for branch in pricing.BRANCHES:
        try:
            want = curve_over_pairwise_ties(view, adv_id, bid, branch, branch)
        except NonMonotoneClickCurveError as exc:
            with pytest.raises(NonMonotoneClickCurveError) as got:
                pricing._build_curve(view, adv_id, bid, branch, branch)
            assert str(got.value) == str(exc)
            continue
        curve = pricing._build_curve(view, adv_id, bid, branch, branch)
        assert curve.steps == want.steps, branch
        pairwise = tie_candidates_pairwise(inst, rep, adv_id, PAIRWISE_KINDS[branch], bid)
        assert set(curve.thresholds[1:]) <= set(pairwise) == set(want.thresholds[1:])
        probe = view.probe(adv_id)
        bids = sorted({*pairwise, bid})
        clicks = [Fraction(pricing.BRANCHES[branch].probe(probe, b.numerator, b.denominator), probe.click_den) for b in bids]
        for kind in ("myerson", "gsp"):
            for at in [(bids, clicks)] + [((b,), (x,)) for b, x in zip(bids, clicks)]:
                assert priced_or_error(integer_prices_along, kind, curve, *at, branch) == priced_or_error(
                    integer_prices_along, kind, want, *at, branch
                ), (branch, kind, at)


@pytest.mark.parametrize("limit", [None, 2])
def test_greedy_bpb_breakpoints_are_bpb_ties_alone_when_uncapped(limit):
    # uncapped, the greedy-bpb probe reads only the bidder's positions among
    # the others' bang-per-buck keys, so a value tie cannot move it and its
    # breakpoints are the bpb ties; capped, the walk can evict and both
    # kinds stay. Either way the scanned curve and its prices at every
    # pairwise tie of both kinds and at the bid equal the curve over all of them
    kinds = ("bpb",) if limit is None else ("bpb", "value")
    dropped = 0
    for seed in (7, 8):
        inst = replace(_price_large_instance(seed), cardinality_limit=limit)
        rep = truthful_profile(inst)
        view = kernels.ScaledView(inst, rep)
        for adv_id in inst.adv_ids():
            bid = rep.bids[adv_id]
            probe = view.probe(adv_id)
            assert pricing.BRANCHES["greedy-bpb"].breakpoints(probe, bid) == probe.ties(kinds, bid)
            try:
                want = curve_over_pairwise_ties(view, adv_id, bid, "greedy-bpb", "greedy-bpb")
            except NonMonotoneClickCurveError as exc:
                with pytest.raises(NonMonotoneClickCurveError) as got:
                    pricing._build_curve(view, adv_id, bid, "greedy-bpb", "greedy-bpb")
                assert str(got.value) == str(exc)
                continue
            curve = pricing._build_curve(view, adv_id, bid, "greedy-bpb", "greedy-bpb")
            assert curve.steps == want.steps
            bids = sorted({*tie_candidates_pairwise(inst, rep, adv_id, PAIRWISE_KINDS["greedy-bpb"], bid), bid})
            clicks = [Fraction(probe.greedy_bpb(b.numerator, b.denominator), probe.click_den) for b in bids]
            for kind in ("myerson", "gsp"):
                got = priced_or_error(integer_prices_along, kind, curve, bids, clicks, "greedy-bpb")
                assert got == priced_or_error(integer_prices_along, kind, want, bids, clicks, "greedy-bpb"), (adv_id, kind)
            dropped += len(want.ties) - len(curve.ties)
    assert (dropped > 0) == (limit is None)


def test_curves_through_the_kernel_equal_curves_through_rebids(monkeypatch):
    # every branch, capped greedy branches too; the probe as it was before
    # the per-bidder kernel ran every branch on a rebid view
    cases = [
        (inst, adv.adv_id, branch)
        for inst in (_price_large_instance(7), replace(_price_large_instance(8), cardinality_limit=3))
        for adv in inst.advertisers[:4]
        for branch in pricing.BRANCHES
    ]

    def curves():
        views = {}
        out = []
        for inst, adv_id, branch in cases:
            rep = truthful_profile(inst)
            view = views.setdefault(id(inst), kernels.ScaledView(inst, rep))
            try:
                out.append(pricing._build_curve(view, adv_id, rep.bids[adv_id], branch, branch))
            except NonMonotoneClickCurveError as exc:
                out.append(str(exc))
        return out

    fast = curves()
    monkeypatch.setattr(
        pricing,
        "BRANCHES",
        {
            name: replace(
                branch,
                probe=lambda bidder, num, den, name=name: pricing.clicks_over(
                    rebid_clicks(bidder.view, bidder.adv_id, Fraction(num, den), ((Fraction(1), name),)),
                    bidder.click_den,
                ),
            )
            for name, branch in pricing.BRANCHES.items()
        },
    )
    for got, want in zip(fast, curves()):
        if isinstance(want, str):
            assert got == want
            continue
        assert got.thresholds == want.thresholds
        assert got.steps == want.steps
        assert got.probes == want.probes


def _counting(monkeypatch, cls=kernels.ScaledView):
    """The instances of `cls` constructed, or begun, while the test runs."""
    made = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_probes_make_no_view_or_allocation(monkeypatch):
    # under every rule, the payment's allocation branches are its only rule
    # runs, and the report's view its only view
    inst = _price_large_instance(7)
    allocations = []
    allocate = pricing.branch_allocate

    def counted(*args, **kwargs):
        allocations.append(args[2])
        return allocate(*args, **kwargs)

    monkeypatch.setattr(pricing, "branch_allocate", counted)
    views = _counting(monkeypatch)
    for name in pricing.RULES:
        rule = pricing.AllocationRule(name)
        allocations.clear()
        views.clear()
        out = myerson_payment(inst, truthful_profile(inst), rule)
        assert allocations == [branch for _p, branch in pricing.rule_branches(rule)]
        assert len(views) == 1
        # a branch priced without a curve (None) read its probe at the bid alone
        assert sum(curve.probes for curves in out.curves.values() for curve in curves if curve is not None) > 0


def test_every_branch_priced_without_a_curve_gives_no_clicks_below_the_bid(tie_corpus, monkeypatch):
    # report pricing skips the curve of a branch that gives the bidder no
    # clicks: under GSP, and for a proven-nondecreasing branch whose probe
    # reads none at the bid; each skipped curve, built anyway over every
    # pairwise tie, is all zero. Every rule under both pricings, on the tie
    # corpus (truthful and shaded, caps None, 1 and 2), the fixtures and
    # 12 x 4 auctions of the `price-large` benchmark's shape
    rng = random.Random(5)
    reports = []
    for inst in tie_corpus:
        shaded = ReportProfile(
            bids={a.adv_id: a.value_per_click * Fraction(rng.randint(1, 4), 4) for a in inst.advertisers},
            subsets={a.adv_id: frozenset(x for x in a.ad_ids() if rng.random() < 0.7) for a in inst.advertisers},
        )
        for limit in (None, 1, 2):
            capped = replace(inst, cardinality_limit=limit)
            reports += [(capped, truthful_profile(capped)), (capped, shaded)]
    auctions = [fixtures.fixture(name) for name in fixtures.BUILDERS] + [_price_large_instance(seed) for seed in range(4)]
    reports += [(inst, truthful_profile(inst)) for inst in auctions]
    calls = recording_threshold_payments(monkeypatch)
    for inst, rep in reports:
        for name in pricing.RULES:
            for price in (myerson_payment, gsp_prices):
                try:
                    price(inst, rep, AllocationRule(name))
                except NonMonotoneClickCurveError:
                    pass  # a scanned rule's drop
    assert check_curveless_branches(calls) == Counter({("myerson", "report"): 1472, ("gsp", "report"): 1858})


def test_curve_without_ties_spans_zero_to_a_fractional_cap():
    # the bidder's only ad has click rate 0: no tie bid, one interval
    inst = Instance(
        advertisers=(
            Advertiser("a", Fraction(3, 2), (RichAd("ax1", Fraction(0), Fraction(1)),)),
            Advertiser("b", Fraction(1), (RichAd("bx1", Fraction(1), Fraction(1)),)),
        ),
        total_space=Fraction(2),
    )
    rep = truthful_profile(inst)
    for branch in ("bpb", "max-value"):
        curve = pricing._build_curve(kernels.ScaledView(inst, rep), "a", Fraction(3, 2), branch, branch)
        assert curve.thresholds == (Fraction(0),) and curve.cap == Fraction(3, 2)
        assert curve.steps == ((Fraction(0), Fraction(0)),) and curve.probes == 1


def test_a_zero_space_competitor_is_priced_and_ties_nothing_in_bang_per_buck():
    # unvalidated: b's ad bx1 takes no space, so it has no finite
    # bang-per-buck and neither ties nor blocks a tie in it
    inst = Instance(
        advertisers=(
            Advertiser(
                "a", Fraction(3), (RichAd("ax1", Fraction(1, 2), Fraction(2)), RichAd("ax2", Fraction(1), Fraction(5)))
            ),
            Advertiser(
                "b", Fraction(2), (RichAd("bx1", Fraction(1), Fraction(0)), RichAd("bx2", Fraction(1, 2), Fraction(3)))
            ),
            Advertiser("c", Fraction(1), (RichAd("cx1", Fraction(3, 4), Fraction(4)),)),
        ),
        total_space=Fraction(8),
    )
    rep = truthful_profile(inst)
    view = kernels.ScaledView(inst, rep)
    out = myerson_payment(inst, rep, mixture_rule())
    for adv in inst.advertisers:
        adv_id, bid = adv.adv_id, rep.bids[adv.adv_id]
        assert 0 <= out.payments[adv_id] <= bid * out.mixture.clicks(inst, adv_id)
        for kinds in (("bpb",), ("value",), ("bpb", "value")):
            nums, den = view.probe(adv_id).ties(kinds, bid)
            assert [Fraction(n, den) for n in nums] == tie_candidates_pairwise(inst, rep, adv_id, kinds, bid)
        for (_prob, branch), curve in zip(pricing.rule_branches(mixture_rule()), out.curves[adv_id]):
            if curve is None:  # priced without a curve: built here, and all zero
                curve = pricing._build_curve(view, adv_id, bid, branch, branch)
                assert [x for _lo, x in curve.runs] == [0]
            # every pairwise interval, not only the breakpoints' intervals
            bounds = (Fraction(0), *tie_candidates_pairwise(inst, rep, adv_id, PAIRWISE_KINDS[branch], bid), curve.cap)
            for lo, hi in zip(bounds, bounds[1:]):
                mid = (lo + hi) / 2
                clicks = [x for start, x in curve.steps if start < mid][-1]
                assert clicks == rebid_clicks(view, adv_id, mid, ((Fraction(1), branch),)), (adv_id, branch, mid)


def test_one_density_table_per_threshold_payment(monkeypatch):
    # every curve of a report reads the other bidders' densities off the
    # report's one view, so a payment builds that table once
    built = []
    table = kernels.ScaledView._density_table

    def counted(view):
        built.append(view)
        return table(view)

    monkeypatch.setattr(kernels.ScaledView, "_density_table", counted)
    for inst in (fixtures.fx3(), _price_large_instance(7)):
        for price in (
            lambda: myerson_payment(inst, truthful_profile(inst), mixture_rule()),
            lambda: gsp_prices(inst, truthful_profile(inst), mixture_rule(Fraction(1, 2))),
        ):
            built.clear()
            price()
            assert len(built) == 1


def test_the_integer_check_equals_the_fraction_oracle_on_small_corpus(small_corpus):
    # the truthful report, then with the first advertiser bidding 0 and the
    # last reporting no ad
    seen = Counter()
    for inst in small_corpus[:100]:
        truth = truthful_profile(inst)
        first, last = inst.adv_ids()[0], inst.adv_ids()[-1]
        for rep in (truth, truth.replace(first, Fraction(0), truth.subsets[first]).replace(last, truth.bids[last], ())):
            seen += checked_like_the_fraction_oracle(inst, rep)
    assert seen["no clicks"] and seen["zero bid"] and seen["no ads"]


def test_the_integer_check_refuses_what_the_fraction_check_refuses(small_corpus):
    # one advertiser's payment at bid * clicks, just above it, 0 and just
    # below 0, as integer pairs and as Fractions: the same outcome or the
    # same message
    cases = Counter()
    for inst in small_corpus[:40]:
        rep = truthful_profile(inst)
        mixture = pricing.rule_allocate(inst, rep, mixture_rule())
        clicks = {a: mixture.clicks(inst, a) for a in inst.adv_ids()}
        for adv_id, x in clicks.items():
            bound = rep.bids[adv_id] * x
            for p in (bound, bound + Fraction(1, 10**9), Fraction(0), Fraction(-1, 10**9)):
                priced = {a: (0, 1, c.numerator, c.denominator) for a, c in clicks.items()}
                priced[adv_id] = (p.numerator, p.denominator, x.numerator, x.denominator)
                want = pricing_or_message(finish_outcome, inst, rep, mixture, {adv_id: p}, "myerson")
                got = pricing_or_message(pricing._finish_outcome, inst, rep, mixture, "myerson", priced)
                assert got == want, (adv_id, p)
                cases[isinstance(got, str)] += 1
    assert cases[True] and cases[False]


def pricing_or_message(finish, *args):
    """`finish(*args)`, or the message of the `InvariantViolation` it raises."""
    try:
        return finish(*args)
    except InvariantViolation as exc:
        return str(exc)


@pytest.mark.parametrize(
    "mech",
    (pricing.Mechanism("myerson", mixture_rule()), pricing.Mechanism("gsp", mixture_rule(monotone.GSP_MIX_P))),
    ids=lambda m: m.describe(),
)
def test_a_forced_negative_payment_raises_the_fraction_checks_message(monkeypatch, mech):
    # every threshold payment forced to minus (itself + 1): the first
    # advertiser raises, with the message the Fraction check gives
    inst = fixtures.fx1()
    rep = truthful_profile(inst)
    good = mech.price(inst, rep)
    first = inst.adv_ids()[0]
    want = pricing_or_message(
        finish_outcome, inst, rep, good.mixture, {first: -good.payments[first] - 1}, mech.pricing
    )
    assert want.startswith(f"{mech.pricing} payment -")
    price = pricing.threshold_payments

    def negated(*args):
        paid, den, *clicks_and_curves = price(*args)
        return [-p - den for p in paid], den, *clicks_and_curves

    monkeypatch.setattr(pricing, "threshold_payments", negated)
    with pytest.raises(InvariantViolation) as err:
        mech.price(inst, rep)
    assert str(err.value) == want


def test_ir_bound_is_checked_under_python_O():
    # the payment check must not be an assert: -O strips those
    script = textwrap.dedent(
        """
        import sys
        from richads import InvariantViolation, fixtures, pricing
        from richads.model import truthful_profile

        if __debug__:
            sys.exit("not running under -O")
        pricing.threshold_prices_along = lambda kind, curve, bids, den, clicks, rule: ([b * x + 1 for b, x in zip(bids, clicks)], 1, clicks)
        inst = fixtures.fx2()
        try:
            pricing.myerson_payment(inst, truthful_profile(inst), pricing.mixture_rule())
        except InvariantViolation as exc:
            print("raised:", exc)
        """
    )
    src = str(Path(pricing.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised: myerson payment "), done.stdout
