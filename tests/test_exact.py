"""Exact solvers: capacity DP, exhaustive enumeration, shared tie rule."""

from dataclasses import replace
from fractions import Fraction

import pytest

from oracles import brute_force_opt
from richads import fixtures
from richads.exact import (
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
from richads.pricing import reported_value


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
