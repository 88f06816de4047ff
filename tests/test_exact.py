"""Exact solvers: capacity DP, exhaustive enumeration, shared tie rule."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import brute_force_opt, capacity_dp_over_every_ad, reported_value
from richads import fixtures, heuristics, pricing
from richads.exact import (
    CapacityDP,
    int_opt_cross_checked,
    int_opt_dp,
    int_opt_exhaustive,
)
from richads.model import (
    Advertiser,
    GuardExceededError,
    Instance,
    ReportProfile,
    RichAd,
    truthful_profile,
)
from richads.kernels import ScaledView


def as_entries(oracle_entries):
    return {a: (ad, Fraction(1)) for a, ad in oracle_entries.items()}


def test_dp_matches_brute_force(small_corpus):
    for inst in small_corpus:
        rep = truthful_profile(inst)
        alloc = int_opt_dp(inst, rep)
        entries, value = brute_force_opt(inst, rep)
        assert alloc.entries == as_entries(entries)
        assert reported_value(inst, rep, alloc) == value


def test_dp_equals_exhaustive(tie_corpus):
    for inst in tie_corpus:
        rep = truthful_profile(inst)
        for k in (None, 1, 2, 3):
            capped = replace(inst, cardinality_limit=k)
            dp = int_opt_dp(capped, rep)
            ex = int_opt_exhaustive(capped, rep)
            assert dp.entries == ex.entries


def test_cardinality_matches_brute_force(tie_corpus):
    for inst in tie_corpus[:30]:
        rep = truthful_profile(inst)
        for k in (1, 2):
            capped = replace(inst, cardinality_limit=k)
            alloc = int_opt_dp(capped, rep)
            entries, value = brute_force_opt(capped, rep)
            assert alloc.entries == as_entries(entries)
            assert reported_value(inst, rep, alloc) == value


def test_a_cap_every_advertiser_set_meets_is_no_cap(small_corpus):
    # a cap of n or n + 1 leaves the view no binding `limit`: the DP holds
    # one layer and every capped solver and rule gives the uncapped result
    names = [name for name in fixtures.BUILDERS if name != "fx3"]  # fx3 trips the DP guard
    for inst in [*map(fixtures.fixture, names), *small_corpus]:
        rep = truthful_profile(inst)
        n = len(inst.advertisers)
        free = CapacityDP(ScaledView(inst, rep))
        if n > 1:
            assert ScaledView(replace(inst, cardinality_limit=n - 1), rep).limit == n - 1
        for k in (n, n + 1):
            capped = replace(inst, cardinality_limit=k)
            view = ScaledView(capped, rep)
            assert view.limit is None
            dp = CapacityDP(view)
            assert len(dp.suffix[0]) == 1
            assert dp.choice() == free.choice()
            assert dp.optima_without(range(n)) == free.optima_without(range(n))
            assert pricing.vcg_payments(capped, rep).payments == pricing.vcg_payments(inst, rep).payments
            assert int_opt_exhaustive(capped, rep).entries == int_opt_exhaustive(inst, rep).entries
            for greedy in (heuristics.greedy_by_bpb, heuristics.greedy_by_value):
                assert greedy(capped, rep).entries == greedy(inst, rep).entries


def test_fx1_tie_resolves_lexicographically():
    inst = fixtures.fx1()
    rep = truthful_profile(inst)
    # two optima of value 21/10; the small-ad/big-ad split with a's small
    # ad is the lexicographically first choice vector
    alloc = int_opt_dp(inst, rep)
    assert alloc.entries == {"a": ("ax1", Fraction(1)), "b": ("bx2", Fraction(1))}
    assert reported_value(inst, rep, alloc) == Fraction(21, 10)
    assert int_opt_exhaustive(inst, rep).entries == alloc.entries


def test_fx2_int_opt_serves_both_cheaply():
    inst = fixtures.fx2()
    rep = truthful_profile(inst)
    alloc = int_opt_dp(inst, rep)
    assert alloc.entries == {"a": ("ax1", Fraction(1)), "b": ("bx1", Fraction(1))}
    assert reported_value(inst, rep, alloc) == 5


def test_fx6b_int_opt_takes_the_giant():
    inst = fixtures.fx6b()
    rep = truthful_profile(inst)
    alloc = int_opt_dp(inst, rep)
    assert alloc.entries == {"b": ("bx1", Fraction(1))}
    assert reported_value(inst, rep, alloc) == 10


def test_fx3_small_market_pins():
    inst = fixtures.fx3(m=10)
    rep = truthful_profile(inst)
    unconstrained = int_opt_dp(inst, rep)
    assert unconstrained.entries == {
        "a": ("ax1", Fraction(1)),
        "b": ("bx1", Fraction(1)),
        "c": ("cx1", Fraction(1)),
    }
    assert reported_value(inst, rep, unconstrained) == Fraction(201, 10)

    one = int_opt_dp(replace(inst, cardinality_limit=1), rep)
    assert one.entries == {"d": ("dx1", Fraction(1))}
    assert reported_value(inst, rep, one) == Fraction(102, 10)

    two = int_opt_dp(replace(inst, cardinality_limit=2), rep)
    assert two.entries == {"a": ("ax1", Fraction(1)), "b": ("bx2", Fraction(1))}
    assert reported_value(inst, rep, two) == Fraction(201, 10)

    three = int_opt_dp(replace(inst, cardinality_limit=3), rep)
    assert three.entries == unconstrained.entries


def test_instance_cardinality_field_is_the_default():
    inst = Instance(
        advertisers=(
            Advertiser("a", value_per_click=Fraction(2), ads=(RichAd("ax1", alpha=Fraction(1), space=Fraction(1)),)),
            Advertiser("b", value_per_click=Fraction(1), ads=(RichAd("bx1", alpha=Fraction(1), space=Fraction(1)),)),
        ),
        total_space=Fraction(2),
        cardinality_limit=1,
    )
    rep = truthful_profile(inst)
    assert int_opt_dp(inst, rep).entries == {"a": ("ax1", Fraction(1))}
    assert int_opt_exhaustive(inst, rep).entries == {"a": ("ax1", Fraction(1))}
    # a replaced limit is the one served under
    assert int_opt_dp(replace(inst, cardinality_limit=2), rep).entries == {
        "a": ("ax1", Fraction(1)),
        "b": ("bx1", Fraction(1)),
    }


def test_dp_capacity_guard_fires_on_fx3_default():
    inst = fixtures.fx3()  # scaled capacity just under 2 * 10^6
    with pytest.raises(GuardExceededError):
        int_opt_dp(inst, truthful_profile(inst))


def test_enumeration_guard_fires():
    advertisers = tuple(
        Advertiser(
            f"a{i:02d}",
            value_per_click=Fraction(1),
            ads=(RichAd(f"a{i:02d}x1", alpha=Fraction(1), space=Fraction(1)),),
        )
        for i in range(20)
    )
    inst = Instance(advertisers=advertisers, total_space=Fraction(20))
    with pytest.raises(GuardExceededError):
        int_opt_exhaustive(inst, truthful_profile(inst))


def test_zero_cardinality_rejected():
    inst = fixtures.fx5()
    rep = truthful_profile(inst)
    with pytest.raises(ValueError):
        int_opt_dp(replace(inst, cardinality_limit=0), rep)
    with pytest.raises(ValueError):
        int_opt_exhaustive(replace(inst, cardinality_limit=0), rep)


def test_cross_check_agrees(tie_corpus):
    for inst in tie_corpus[:20]:
        rep = truthful_profile(inst)
        assert int_opt_cross_checked(inst, rep).entries == int_opt_dp(inst, rep).entries


def test_empty_reports_allocate_nothing():
    inst = fixtures.fx5()
    rep = ReportProfile(
        bids={"a": Fraction(0), "b": Fraction(0)},
        subsets={"a": frozenset(), "b": frozenset()},
    )
    assert int_opt_dp(inst, rep).entries == {}
    assert int_opt_exhaustive(inst, rep).entries == {}


def _dp_case(ads, total, limit):
    """An instance of one advertiser per list of (value, space) ads, bidding
    1 on every ad, and its truthful report."""
    advertisers = tuple(
        Advertiser(
            f"a{g}",
            value_per_click=Fraction(1),
            ads=tuple(RichAd(f"a{g}x{j}", alpha=Fraction(v), space=Fraction(s)) for j, (v, s) in enumerate(row)),
        )
        for g, row in enumerate(ads)
    )
    inst = Instance(advertisers=advertisers, total_space=Fraction(total), cardinality_limit=limit)
    return inst, truthful_profile(inst)


@st.composite
def dp_cases(draw):
    """Up to 4 advertisers of 1-4 ads with values 1-4 and spaces 0-6, so value
    and space ties, identical twins, zero-space ads and single-ad advertisers
    are routine; a total from 1 to the sum of the spaces, so some ads are
    wider than it; no cap or a cap of 1, 2 or 3."""
    ad = st.tuples(st.integers(1, 4), st.integers(0, 6))
    ads = draw(st.lists(st.lists(ad, min_size=1, max_size=4), min_size=1, max_size=4))
    total = draw(st.integers(1, max(1, sum(s for row in ads for _v, s in row))))
    return _dp_case(ads, total, draw(st.sampled_from((None, 1, 2, 3))))


def _covers(b, a):
    """Ad b, of a's advertiser, is never a worse choice than a and comes first
    in `choice()`'s scan or beats a strictly."""
    return b is not a and b[2] <= a[2] and b[1] >= a[1] and (b[1] > a[1] or b[0] < a[0])


@settings(deadline=None, max_examples=400)
@given(dp_cases())
@example(_dp_case([[(2, 1), (2, 3)], [(1, 2)]], 3, None))  # an equal-value smaller ad before the larger one
@example(_dp_case([[(2, 3), (2, 1)], [(1, 2)]], 3, None))  # ... and after it: the larger one is chosen
@example(_dp_case([[(2, 3), (2, 1)]], 3, 1))
@example(_dp_case([[(3, 2), (3, 2)], [(3, 2), (3, 2)]], 2, None))  # identical twins
@example(_dp_case([[(1, 0), (2, 0)], [(4, 9)], [(2, 3)]], 4, 2))  # zero-space ads and an ad wider than the total
@example(_dp_case([[(1, 1)], [(2, 2)], [(3, 3)], [(4, 4)]], 10, 3))  # single-ad advertisers, total the sum of spaces
def test_the_dp_over_undominated_ads_equals_the_dp_over_every_ad(case):
    # skipping dominated ads and the constant tail of each row changes no
    # table entry, no choice and no leave-one-out optimum
    inst, rep = case
    view = ScaledView(inst, rep)
    dp, oracle = CapacityDP(view), capacity_dp_over_every_ad(view)
    assert dp.suffix == oracle.suffix
    assert dp.choice() == oracle.choice()
    n = view.n_adv()
    assert dp.optima_without(range(n)) == oracle.optima_without(range(n))
    # and the DP keeps exactly the undominated ads that fit, its rows
    # reaching as wide as the widest of them
    for kept, every, widest in zip(dp.per_adv, oracle.per_adv, dp.widest):
        assert kept == [a for a in every if a[2] <= view.total and not any(_covers(b, a) for b in every)]
        assert widest == max((a[2] for a in kept), default=0)
