"""Randomized invariants, checked with hypothesis on exact arithmetic."""

from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest

from oracles import (
    PAIRWISE_KINDS,
    brute_force_opt,
    checked_like_the_fraction_oracle,
    curve_over_pairwise_ties,
    fractional_opt_by_fractions,
    integer_pass_drops_at_tie_bids,
    prices_along,
    rebid,
    reported_value,
    tie_candidates_pairwise,
    two_approx_integral,
    vcg_by_resolving,
)
from richads import exact, fracopt, harness, heuristics, kernels, monotone, pricing
from richads.model import (
    Advertiser,
    Allocation,
    Instance,
    NonMonotoneClickCurveError,
    ReportProfile,
    RichAd,
    social_welfare,
    truthful_profile,
    validate_instance,
)

# the branches whose click curves are proven nondecreasing, and so bisected
MONOTONE_BRANCHES = sorted(name for name, branch in pricing.BRANCHES.items() if branch.monotone)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 3))
    advertisers = []
    widest = 1
    for i in range(n):
        value = Fraction(draw(st.integers(1, 30)), draw(st.sampled_from((1, 2, 5))))
        ads = []
        for j in range(draw(st.integers(1, 3))):
            space = draw(st.integers(1, 10))
            widest = max(widest, space)
            ads.append(RichAd(f"a{i}x{j}", Fraction(draw(st.integers(1, 8)), 8), Fraction(space)))
        advertisers.append(Advertiser(f"a{i}", value, tuple(ads)))
    total = Fraction(draw(st.integers(widest, widest + 14)))
    return Instance(advertisers=tuple(advertisers), total_space=total)


@st.composite
def reported(draw, min_quarters=0):
    """An instance plus a no-overbid report (bids on a quarter grid of value)."""
    inst = draw(instances())
    bids = {}
    subsets = {}
    for adv in inst.advertisers:
        bids[adv.adv_id] = adv.value_per_click * Fraction(draw(st.integers(min_quarters, 4)), 4)
        ids = adv.ad_ids()
        mask = draw(st.integers(0, 2 ** len(ids) - 1))
        subsets[adv.adv_id] = frozenset(a for k, a in enumerate(ids) if mask >> k & 1)
    return inst, ReportProfile(bids=bids, subsets=subsets)


@given(instances())
def test_generated_instances_are_valid(inst):
    assert validate_instance(inst) == []


@settings(deadline=None)
@given(reported())
def test_dp_matches_enumeration(pair):
    inst, rep = pair
    entries, value = brute_force_opt(inst, rep)
    alloc = exact.int_opt_dp(inst, rep)
    assert {a: ad for a, (ad, _) in alloc.entries.items()} == entries
    assert reported_value(inst, rep, alloc) == value


@settings(deadline=None)
@given(reported(), st.integers(1, 2))
def test_dp_matches_enumeration_under_cardinality(pair, k):
    inst, rep = pair
    inst = replace(inst, cardinality_limit=k)
    entries, value = brute_force_opt(inst, rep)
    alloc = exact.int_opt_dp(inst, rep)
    assert {a: ad for a, (ad, _) in alloc.entries.items()} == entries
    assert len(alloc.entries) <= k and reported_value(inst, rep, alloc) == value


@settings(deadline=None, max_examples=60)
@given(reported())
def test_fractional_relaxation_bounds_the_chain(pair):
    inst, rep = pair
    frac = fracopt.fractional_opt(inst, rep)
    opt = reported_value(inst, rep, exact.int_opt_dp(inst, rep))
    assert frac.objective >= opt
    for alloc in (
        monotone.bpb_allocation(inst, rep),
        monotone.max_value_allocation(inst, rep),
        heuristics.greedy_by_bpb(inst, rep),
        heuristics.greedy_by_value(inst, rep),
        two_approx_integral(inst, rep),
    ):
        got = reported_value(inst, rep, alloc)
        # the zero-bid fallback of the max-value rule can serve a positive
        # true-value ad, but at reported values nothing beats the optimum
        assert got <= opt


@settings(deadline=None, max_examples=60)
@given(reported())
def test_two_approx_guarantee(pair):
    inst, rep = pair
    frac = fracopt.fractional_opt(inst, rep)
    got = reported_value(inst, rep, two_approx_integral(inst, rep))
    assert 2 * got >= frac.objective


@settings(deadline=None, max_examples=60)
@given(reported())
def test_mixture_three_approx_guarantee(pair):
    inst, rep = pair
    frac = fracopt.fractional_opt(inst, rep)
    expected = sum(
        (
            prob * reported_value(inst, rep, alloc)
            for prob, alloc in monotone.randomized_mechanism(inst, rep).branches
        ),
        Fraction(0),
    )
    assert 3 * expected >= frac.objective


@settings(deadline=None)
@given(reported())
def test_envelope_shape_and_partition(pair):
    inst, rep = pair
    for adv in inst.advertisers:
        points = fracopt.advertiser_points(inst, rep, adv.adv_id)
        survivors, removed = fracopt.eliminate_dominated(points)
        assert not {p.ad_id for p in survivors} & {r.ad_id for r in removed}
        assert {p.ad_id for p in survivors} | {r.ad_id for r in removed} == {p.ad_id for p in points}
        assert len(survivors) + len(removed) == len(points)
        last_density = None
        for prev, nxt in zip((None,) + survivors, survivors):
            base_v = prev.value if prev else Fraction(0)
            base_w = prev.space if prev else Fraction(0)
            assert nxt.value > base_v and nxt.space > base_w
            density = (nxt.value - base_v) / (nxt.space - base_w)
            if last_density is not None:
                assert density < last_density
            last_density = density


@settings(deadline=None, max_examples=40)
@given(reported())
def test_removals_never_change_the_fractional_objective(pair):
    inst, rep = pair
    base = fracopt.fractional_opt(inst, rep).objective
    for adv in inst.advertisers:
        _, removed = fracopt.eliminate_dominated(fracopt.advertiser_points(inst, rep, adv.adv_id))
        for r in removed:
            thinner = rep.replace(
                adv.adv_id, rep.bids[adv.adv_id], rep.subsets[adv.adv_id] - {r.ad_id}
            )
            assert fracopt.fractional_opt(inst, thinner).objective == base


@settings(deadline=None)
@given(reported())
def test_every_rule_is_feasible(pair):
    inst, rep = pair
    outcomes = [
        monotone.bpb_allocation(inst, rep),
        monotone.max_value_allocation(inst, rep),
        heuristics.greedy_by_bpb(inst, rep),
        heuristics.greedy_by_value(inst, rep),
        two_approx_integral(inst, rep),
        exact.int_opt_dp(inst, rep),
    ]
    for alloc in outcomes:
        assert alloc.used_space(inst) <= inst.total_space
        for adv_id, (ad_id, weight) in alloc.entries.items():
            assert weight == 1
            assert ad_id in rep.subsets[adv_id]


@settings(deadline=None, max_examples=60)
@given(reported(min_quarters=1), st.integers(0, 2))
def test_clicks_monotone_in_own_bid(pair, adv_index):
    inst, rep = pair
    adv = inst.advertisers[adv_index % len(inst.advertisers)]
    higher = rep.replace(adv.adv_id, rep.bids[adv.adv_id] * 2, rep.subsets[adv.adv_id])
    for rule in (
        monotone.bpb_allocation,
        monotone.max_value_allocation,
        monotone.randomized_mechanism,
    ):
        low = rule(inst, rep).clicks(inst, adv.adv_id)
        high = rule(inst, higher).clicks(inst, adv.adv_id)
        assert high >= low, rule.__name__


@settings(deadline=None, max_examples=60)
@given(reported(min_quarters=1), st.integers(0, 2), st.data())
def test_clicks_monotone_in_subset(pair, adv_index, data):
    inst, rep = pair
    adv = inst.advertisers[adv_index % len(inst.advertisers)]
    ids = adv.ad_ids()
    other_mask = data.draw(st.integers(0, 2 ** len(ids) - 1))
    big = rep.subsets[adv.adv_id] | {a for k, a in enumerate(ids) if other_mask >> k & 1}
    wider = rep.replace(adv.adv_id, rep.bids[adv.adv_id], big)
    for rule in (
        monotone.bpb_allocation,
        monotone.max_value_allocation,
        monotone.randomized_mechanism,
    ):
        small_clicks = rule(inst, rep).clicks(inst, adv.adv_id)
        big_clicks = rule(inst, wider).clicks(inst, adv.adv_id)
        assert big_clicks >= small_clicks, rule.__name__


@settings(deadline=None, max_examples=50)
@given(reported())
def test_payments_are_individually_rational(pair):
    inst, rep = pair
    for build in (
        lambda: pricing.myerson_payment(inst, rep, pricing.mixture_rule(monotone.TRUTHFUL_MIX_P)),
        lambda: pricing.gsp_prices(inst, rep, pricing.mixture_rule(monotone.GSP_MIX_P)),
        lambda: pricing.vcg_payments(inst, rep),
    ):
        outcome = build()
        for adv_id in inst.adv_ids():
            clicks = outcome.mixture.clicks(inst, adv_id)
            paid = outcome.payments[adv_id]
            bid = rep.bids.get(adv_id, Fraction(0))
            assert 0 <= paid <= bid * clicks
            if clicks == 0:
                assert paid == 0 and outcome.cpc[adv_id] is None
            else:
                assert outcome.cpc[adv_id] == paid / clicks


@settings(deadline=None, max_examples=60)
@given(reported())
def test_the_integer_payment_check_equals_the_fraction_oracle(pair):
    # zero bids, reports of no ad and no clicks (cost per click None) included
    checked_like_the_fraction_oracle(*pair)


@settings(deadline=None, max_examples=25)
@given(instances(), st.integers(0, 2))
def test_myerson_leaves_no_profitable_grid_deviation(inst, adv_index):
    truth = truthful_profile(inst)
    adv = inst.advertisers[adv_index % len(inst.advertisers)]
    rule = pricing.mixture_rule(monotone.TRUTHFUL_MIX_P)

    def utility(rep):
        outcome = pricing.myerson_payment(inst, rep, rule)
        clicks = outcome.mixture.clicks(inst, adv.adv_id)
        return adv.value_per_click * clicks - outcome.payments[adv.adv_id]

    honest = utility(truth)
    for k in range(5):
        shaded = truth.replace(adv.adv_id, adv.value_per_click * Fraction(k, 4), truth.subsets[adv.adv_id])
        assert utility(shaded) <= honest


def assert_bisection_matches_scan(inst, rep, adv_id, branch):
    """The curve bisected over the branch's breakpoints and the exhaustive
    scan over every pairwise tie, run on one probe function, give the same
    curve and the same Myerson and GSP payments; the breakpoints are
    pairwise ties, and the bisection probes no more than the scan."""
    bid = rep.bids[adv_id]
    view = kernels.ScaledView(inst, rep)
    curve = pricing._build_curve(view, adv_id, bid, branch, branch)
    pairwise = tie_candidates_pairwise(inst, rep, adv_id, PAIRWISE_KINDS[branch], bid)
    assert set(curve.thresholds[1:]) <= set(pairwise)
    oracle = curve_over_pairwise_ties(view, adv_id, bid, branch, branch)
    assert curve.steps == oracle.steps
    bounds = [Fraction(0), *pairwise]
    if bounds[-1] < bid:
        bounds.append(bid)
    intervals = list(zip(bounds, bounds[1:]))
    probed = []

    def probe(j):
        probed.append(j)
        lo, hi = intervals[j]
        mid = (lo + hi) / 2
        return pricing.BRANCHES[branch].probe(view.probe(adv_id), mid.numerator, mid.denominator)

    scanned = [probe(j) for j in range(len(intervals))]
    probed.clear()
    bisected = pricing._bisect_clicks(len(intervals), probe)
    assert bisected == scanned
    assert len(set(probed)) == len(probed) == oracle.probes <= len(scanned)
    assert curve.probes <= len(scanned)

    # the scan's runs, interval by interval, are the curve's
    scale = view.probe(adv_id).click_den
    assert curve.click_den == scale
    scanned = [Fraction(c, scale) for c in scanned]
    runs = []
    for (lo, _hi), c in zip(intervals, scanned):
        if not runs or c != runs[-1][1]:
            runs.append((lo, c))
    assert tuple(runs) == curve.steps
    integer_pass_drops_at_tie_bids(view, curve, branch)
    clicks = pricing.branch_allocate(inst, rep, branch).clicks(inst, adv_id)
    [myerson] = prices_along("myerson", curve, (bid,), (clicks,), branch)
    # the integral, interval by interval
    area = sum(
        ((min(hi, bid) - lo) * c for (lo, hi), c in zip(intervals, scanned) if lo < bid),
        Fraction(0),
    )
    assert myerson == bid * clicks - area
    # GSP: the lowest interval below the bid with the bid's clicks, else the bid
    gsp = next((lo for (lo, _hi), c in zip(intervals, scanned) if c == clicks and lo < bid), bid) if clicks else 0
    assert prices_along("gsp", curve, (bid,), (clicks,), branch) == [gsp]



def test_bisection_matches_scan_on_tie_corpus(tie_corpus):
    for inst in tie_corpus:
        rep = truthful_profile(inst)
        for adv in inst.advertisers:
            for branch in MONOTONE_BRANCHES:
                assert_bisection_matches_scan(inst, rep, adv.adv_id, branch)


@pytest.mark.parametrize("limit", (None, 1, 2))
def test_bisection_matches_scan_on_the_monotonicity_corpora(limit):
    # the corpora greedy-value's monotonicity was first scanned on:
    # tie-prone and the default 5 x 3 shape, seeds 0-5
    for seed in range(6):
        for cfg in (
            harness.tie_prone_config(seed=seed, instances=40),
            harness.ExperimentConfig(seed=seed, instances=20, max_advertisers=5, max_ads=3),
        ):
            for inst in harness.generate_corpus(replace(cfg, cardinality=limit)):
                rep = truthful_profile(inst)
                for adv in inst.advertisers:
                    for branch in MONOTONE_BRANCHES:
                        assert_bisection_matches_scan(inst, rep, adv.adv_id, branch)


@settings(deadline=None, max_examples=80)
@given(reported(min_quarters=1), st.integers(0, 2), st.sampled_from(MONOTONE_BRANCHES), st.sampled_from((None, 1, 2)))
def test_bisection_matches_scan(pair, adv_index, branch, limit):
    inst, rep = pair
    inst = replace(inst, cardinality_limit=limit)
    adv = inst.advertisers[adv_index % len(inst.advertisers)]
    assert_bisection_matches_scan(inst, rep, adv.adv_id, branch)


@pytest.mark.parametrize("limit", (None, 1, 2))
def test_integer_pass_equals_the_fraction_oracle_at_tie_bids_on_tie_corpus(tie_corpus, limit):
    # every branch, the greedy ones capped too; a curve that drops between
    # its intervals raises while it is built and has no bids to price
    drops = 0
    for inst in tie_corpus:
        inst = replace(inst, cardinality_limit=limit)
        rep = truthful_profile(inst)
        view = kernels.ScaledView(inst, rep)
        for adv in inst.advertisers:
            for branch in pricing.BRANCHES:
                try:
                    curve = pricing._build_curve(view, adv.adv_id, rep.bids[adv.adv_id], branch, branch)
                except NonMonotoneClickCurveError:
                    continue
                drops += integer_pass_drops_at_tie_bids(view, curve, branch)
    assert drops > 0


@settings(deadline=None, max_examples=80)
@given(reported(min_quarters=1), st.integers(0, 2), st.sampled_from(sorted(pricing.BRANCHES)), st.sampled_from((None, 1, 2)))
def test_integer_pass_equals_the_fraction_oracle_at_tie_bids(pair, adv_index, branch, limit):
    inst, rep = pair
    inst = replace(inst, cardinality_limit=limit)
    adv = inst.advertisers[adv_index % len(inst.advertisers)]
    view = kernels.ScaledView(inst, rep)
    try:
        curve = pricing._build_curve(view, adv.adv_id, rep.bids[adv.adv_id], branch, branch)
    except NonMonotoneClickCurveError:
        return
    integer_pass_drops_at_tie_bids(view, curve, branch)


def assert_ties_match_pairwise(inst, rep):
    """For every bidder of positive bid (one at bid 0 has no probe), the
    candidates read off the report's one view equal the pairwise Fraction
    ties, at the bid and at caps above it."""
    view = kernels.ScaledView(inst, rep)
    for adv in inst.advertisers:
        bid = rep.bids.get(adv.adv_id, Fraction(0))
        if bid <= 0:
            continue
        for cap in {bid, max(bid, adv.value_per_click), 2 * bid + Fraction(1, 3)}:
            for kinds in (("bpb",), ("value",), ("bpb", "value")):
                nums, den = view.probe(adv.adv_id).ties(kinds, cap)
                assert nums == sorted(set(nums))
                assert [Fraction(n, den) for n in nums] == tie_candidates_pairwise(
                    inst, rep, adv.adv_id, kinds, cap
                )


def test_shared_ties_match_pairwise_on_tie_corpus(tie_corpus):
    for inst in tie_corpus:
        assert_ties_match_pairwise(inst, truthful_profile(inst))


@settings(deadline=None, max_examples=150)
@given(reported(), st.integers(0, 2), st.integers(1, 4))
def test_shared_ties_match_pairwise(pair, adv_index, quarters):
    # one bidder bids above 0, the others anything on the grid, 0 included
    inst, rep = pair
    adv = inst.advertisers[adv_index % len(inst.advertisers)]
    rep = rep.replace(adv.adv_id, adv.value_per_click * Fraction(quarters, 4), rep.subsets[adv.adv_id])
    assert_ties_match_pairwise(inst, rep)


@settings(deadline=None)
@given(
    reported(),
    st.integers(0, 2),
    st.integers(0, 60),
    st.sampled_from((1, 3, 7, 11)),
    st.booleans(),
)
def test_rebid_view_equals_a_fresh_view(pair, adv_index, num, den, zero_alpha):
    inst, rep = pair
    adv = inst.advertisers[adv_index % len(inst.advertisers)]
    if zero_alpha:
        first, *rest = adv.ads
        muted = Advertiser(adv.adv_id, adv.value_per_click, (RichAd(first.ad_id, Fraction(0), first.space), *rest))
        others = tuple(a for a in inst.advertisers if a.adv_id != adv.adv_id)
        inst = Instance(advertisers=others + (muted,), total_space=inst.total_space)
    subset = rep.subsets[adv.adv_id]
    view = kernels.ScaledView(inst, rep)
    for bid in (Fraction(num, den), Fraction(num + 1, den + 1)):
        view = rebid(view, adv.adv_id, bid)
        fresh = kernels.ScaledView(inst, rep.replace(adv.adv_id, bid, subset))
        for name in kernels.ScaledView.FIELDS:
            assert getattr(view, name) == getattr(fresh, name), name


@st.composite
def vcg_cases(draw):
    """A report on an instance with fractional spaces, alphas and total
    space, under no cardinality limit or one of 1..n; zero bids and empty
    subsets are drawn too."""
    n = draw(st.integers(1, 5))
    advertisers = []
    for i in range(n):
        ads = tuple(
            RichAd(
                f"a{i}x{j}",
                Fraction(draw(st.integers(1, 6)), 6),
                Fraction(draw(st.integers(1, 12)), draw(st.sampled_from((1, 2, 3)))),
            )
            for j in range(draw(st.integers(1, 3)))
        )
        value = Fraction(draw(st.integers(1, 30)), draw(st.sampled_from((1, 2, 5))))
        advertisers.append(Advertiser(f"a{i}", value, ads))
    total = Fraction(draw(st.integers(1, 40)), draw(st.sampled_from((1, 2, 4))))
    limit = draw(st.sampled_from([None, *range(1, n + 1)]))
    inst = Instance(advertisers=tuple(advertisers), total_space=total, cardinality_limit=limit)
    bids = {}
    subsets = {}
    for adv in inst.advertisers:
        bids[adv.adv_id] = adv.value_per_click * Fraction(draw(st.integers(0, 4)), 4)
        subsets[adv.adv_id] = frozenset(draw(st.sets(st.sampled_from(adv.ad_ids()))))
    return inst, ReportProfile(bids=bids, subsets=subsets)


@settings(deadline=None, max_examples=300)
@given(vcg_cases())
def test_one_pass_vcg_equals_the_resolving_oracles(pair):
    inst, rep = pair
    fast = pricing.vcg_payments(inst, rep)
    # at most 4**5 choice vectors: well inside the enumeration guard
    for solver in (exact.int_opt_dp, exact.int_opt_exhaustive):
        oracle = vcg_by_resolving(inst, rep, solver)
        assert fast.mixture == oracle.mixture
        assert fast.payments == oracle.payments
        assert fast.cpc == oracle.cpc
        assert fast.to_dict() == oracle.to_dict()


@st.composite
def silent_reports(draw):
    """An instance (a lone advertiser among them), capped or not, and a
    report in which each advertiser bids above 0 on some subset, bids 0, or
    reports the empty subset; in an all-zero profile every bid is 0."""
    inst = draw(instances())
    inst = replace(inst, cardinality_limit=draw(st.sampled_from((None, 1, 2))))
    all_zero = draw(st.booleans())
    bids, subsets = {}, {}
    for adv in inst.advertisers:
        how = "zero" if all_zero else draw(st.sampled_from(("bid", "zero", "empty")))
        bids[adv.adv_id] = adv.value_per_click * Fraction(0 if how == "zero" else draw(st.integers(1, 4)), 4)
        subsets[adv.adv_id] = frozenset() if how == "empty" else frozenset(draw(st.sets(st.sampled_from(adv.ad_ids()))))
    return inst, ReportProfile(bids=bids, subsets=subsets)


@settings(deadline=None, max_examples=200)
@given(silent_reports())
def test_a_report_of_no_ad_gets_no_clicks_and_pays_nothing(pair):
    # the view's contract: an advertiser with no row in it (a zero bid, an
    # empty subset) is served by no rule and charged by no pricing
    inst, rep = pair
    silent = [a for a in inst.adv_ids() if rep.bids[a] <= 0 or not rep.subsets[a]]
    outcomes = [pricing.rule_allocate(inst, rep, pricing.AllocationRule(name)) for name in pricing.RULES]
    outcomes += [exact.int_opt_dp(inst, rep), two_approx_integral(inst, rep)]
    for outcome in outcomes:
        assert [outcome.clicks(inst, a) for a in silent] == [0] * len(silent)
    mechanisms = [pricing.Mechanism("vcg")]
    mechanisms += [pricing.Mechanism(kind, pricing.AllocationRule(name)) for kind in ("myerson", "gsp") for name in pricing.RULES]
    for mech in mechanisms:
        try:
            priced = mech.price(inst, rep)
        except NonMonotoneClickCurveError:
            continue  # a greedy-bpb curve of a bidder of positive bid drops
        assert [(priced.mixture.clicks(inst, a), priced.payments[a]) for a in silent] == [(0, 0)] * len(silent)


@st.composite
def welfare_cases(draw):
    """A report on an instance, on a coarse grid half the time, so equal
    incremental densities across advertisers are common. Advertisers may
    hold a single ad, the instance may be capped, its total may fit every
    ad, and the report may bid 0 or expose the empty subset."""
    coarse = draw(st.booleans())
    values, alphas, spaces = (3, 2, 2) if coarse else (6, 4, 4)
    n = draw(st.integers(1, 4))
    advertisers = []
    for i in range(n):
        ads = tuple(
            RichAd(
                f"a{i}x{j}",
                Fraction(draw(st.integers(1, alphas)), alphas),
                Fraction(draw(st.integers(1, spaces)), 1 if coarse else draw(st.sampled_from((1, 2)))),
            )
            for j in range(draw(st.integers(1, 3)))
        )
        value = Fraction(draw(st.integers(1, values)), 1 if coarse else draw(st.sampled_from((1, 3))))
        advertisers.append(Advertiser(f"a{i}", value, ads))
    widths = [ad.space for adv in advertisers for ad in adv.ads]
    if draw(st.booleans()):
        total = sum(widths) + Fraction(draw(st.integers(0, 2)), 2)  # every ad fits
    else:
        total = max(widths) + (sum(widths) - max(widths)) * Fraction(draw(st.integers(0, 8)), 8)
    limit = draw(st.sampled_from((None, 1, 2)))
    inst = Instance(advertisers=tuple(advertisers), total_space=total, cardinality_limit=limit)
    bids, subsets = {}, {}
    for adv in inst.advertisers:
        how = draw(st.sampled_from(("bid", "truthful", "zero", "empty")))
        quarters = 0 if how == "zero" else 4 if how == "truthful" else draw(st.integers(1, 4))
        bids[adv.adv_id] = adv.value_per_click * Fraction(quarters, 4)
        hidden = frozenset(adv.ad_ids()) if how == "empty" else draw(st.sets(st.sampled_from(adv.ad_ids())))
        subsets[adv.adv_id] = frozenset(adv.ad_ids()) - hidden
    return inst, ReportProfile(bids=bids, subsets=subsets)


@settings(deadline=None, max_examples=200)
@given(welfare_cases())
def test_view_welfare_equals_social_welfare(pair):
    # the truthful view values every outcome, also one of another report,
    # matched by (advertiser, ad): lotteries, the optimum, and an allocation
    # of fractional weights off the fractional optimum
    inst, rep = pair
    view = kernels.ScaledView(inst, truthful_profile(inst))
    outcomes = [pricing.rule_allocate(inst, r, pricing.AllocationRule(name)) for r in (rep, view.rep) for name in pricing.RULES]
    outcomes += [exact.int_opt_dp(inst, rep), pricing.rule_allocate(inst, rep, pricing.mixture_rule(Fraction(2, 7)))]
    frac = fracopt.fractional_opt(inst, rep)
    outcomes.append(Allocation(entries={a: pairs[-1] for a, pairs in frac.entries.items()}))
    for outcome in outcomes:
        num, den = view.welfare(outcome)
        assert den > 0 and Fraction(num, den) == social_welfare(inst, outcome)


@settings(deadline=None, max_examples=300)
@given(welfare_cases())
def test_integer_fractional_opt_equals_the_fraction_oracle(pair):
    inst, rep = pair
    oracle = fractional_opt_by_fractions(inst, rep)
    for got in (fracopt.fractional_opt(inst, rep), fracopt.fractional_opt(inst, rep, kernels.ScaledView(inst, rep))):
        assert list(got.entries.items()) == list(oracle.entries.items())
        assert got.objective == oracle.objective
        assert got.fractional_adv == oracle.fractional_adv
