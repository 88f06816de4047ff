"""Greedy allocation heuristics and the randomized greedy mixture."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import greedy_walk, reported_value
from richads import fixtures
from richads.heuristics import (
    RANDOMIZED_GREEDY_P,
    greedy_by_bpb,
    greedy_by_value,
    randomized_greedy,
    sample_mixture,
)
from richads.model import (
    Advertiser,
    Instance,
    ReportProfile,
    RichAd,
    social_welfare,
    truthful_profile,
)


def test_fx6b_greedy_bpb_blocks_the_giant():
    inst = fixtures.fx6b()
    alloc = greedy_by_bpb(inst, truthful_profile(inst))
    assert alloc.entries == {"a": ("ax1", Fraction(1))}
    assert social_welfare(inst, alloc) == Fraction(1, 2)


def test_fx6b_greedy_value_takes_the_giant():
    inst = fixtures.fx6b()
    alloc = greedy_by_value(inst, truthful_profile(inst))
    assert alloc.entries == {"b": ("bx1", Fraction(1))}
    assert social_welfare(inst, alloc) == 10


def test_fx6b_randomized_greedy_expected_welfare():
    inst = fixtures.fx6b()
    mix = randomized_greedy(inst, truthful_profile(inst))
    assert RANDOMIZED_GREEDY_P == Fraction(2, 3)
    assert social_welfare(inst, mix) == Fraction(11, 3)


def test_fx3_greedy_value_serves_d_only():
    inst = fixtures.fx3()
    rep = truthful_profile(inst)
    alloc = greedy_by_value(inst, rep)
    assert alloc.entries == {"d": ("dx1", Fraction(1))}
    assert reported_value(inst, rep, alloc) == Fraction(500001, 500)


def test_fx3_greedy_bpb_matches_the_integral_rule_here():
    inst = fixtures.fx3()
    rep = truthful_profile(inst)
    alloc = greedy_by_bpb(inst, rep)
    assert alloc.entries == {"a": ("ax2", Fraction(1)), "b": ("bx1", Fraction(1))}
    assert reported_value(inst, rep, alloc) == Fraction(500501, 500)


def test_fx3_capped_bpb_evicts_for_the_giant():
    inst = fixtures.fx3()
    rep = truthful_profile(inst)
    alloc = greedy_by_bpb(replace(inst, cardinality_limit=1), rep)
    # d's ad strictly beats a's held value and fits once a is released
    assert alloc.entries == {"d": ("dx1", Fraction(1))}
    assert reported_value(inst, rep, alloc) == Fraction(500001, 500)


def test_capped_bpb_refuses_equal_value_eviction():
    inst = Instance(
        advertisers=(
            Advertiser("a", value_per_click=Fraction(1), ads=(RichAd("ax1", alpha=Fraction(1), space=Fraction(1)),)),
            Advertiser("b", value_per_click=Fraction(1), ads=(RichAd("bx1", alpha=Fraction(1), space=Fraction(2)),)),
        ),
        total_space=Fraction(4),
    )
    alloc = greedy_by_bpb(replace(inst, cardinality_limit=1), truthful_profile(inst))
    assert alloc.entries == {"a": ("ax1", Fraction(1))}


def test_capped_bpb_evicts_the_lowest_index_among_equal_values():
    # capped at 2, a0 and a1 hold ads of value 2; a2's value 3 beats both
    # and fits once either leaves, so the lower index, a0, is pushed out
    def adv(adv_id, bid, space):
        return Advertiser(adv_id, Fraction(bid), (RichAd(f"{adv_id}x", Fraction(1), Fraction(space)),))

    inst = Instance((adv("a0", 2, 1), adv("a1", 2, 1), adv("a2", 3, 3)), Fraction(4), cardinality_limit=2)
    rep = truthful_profile(inst)
    assert greedy_by_bpb(inst, rep).entries == {"a1": ("a1x", 1), "a2": ("a2x", 1)}
    assert greedy_walk(inst, rep, "bpb") == {"a1": "a1x", "a2": "a2x"}


def test_greedy_value_skips_misfit_but_keeps_advertiser():
    inst = Instance(
        advertisers=(
            Advertiser(
                "a",
                value_per_click=Fraction(1),
                ads=(
                    RichAd("ax1", alpha=Fraction(1), space=Fraction(10)),
                    RichAd("ax2", alpha=Fraction(9, 10), space=Fraction(1)),
                ),
            ),
        ),
        total_space=Fraction(5),
    )
    alloc = greedy_by_value(inst, truthful_profile(inst))
    assert alloc.entries == {"a": ("ax2", Fraction(1))}


def test_greedy_value_cardinality_one():
    inst = fixtures.fx3()
    alloc = greedy_by_value(replace(inst, cardinality_limit=1), truthful_profile(inst))
    assert alloc.entries == {"d": ("dx1", Fraction(1))}


def test_loose_cardinality_matches_uncapped():
    inst = fixtures.fx6b()
    rep = truthful_profile(inst)
    assert greedy_by_bpb(replace(inst, cardinality_limit=5), rep).entries == greedy_by_bpb(inst, rep).entries
    assert greedy_by_value(replace(inst, cardinality_limit=5), rep).entries == greedy_by_value(inst, rep).entries


@pytest.mark.parametrize("k", [0, -1])
def test_cardinality_validation(k):
    inst = replace(fixtures.fx6b(), cardinality_limit=k)
    rep = truthful_profile(inst)
    with pytest.raises(ValueError):
        greedy_by_bpb(inst, rep)
    with pytest.raises(ValueError):
        greedy_by_value(inst, rep)
    with pytest.raises(ValueError):
        randomized_greedy(inst, rep)


def test_randomized_greedy_rejects_bad_weight():
    inst = fixtures.fx6b()
    with pytest.raises(ValueError):
        randomized_greedy(inst, truthful_profile(inst), p=Fraction(7, 3))


def test_sample_mixture_deterministic_and_covers_branches():
    inst = fixtures.fx6b()
    mix = randomized_greedy(inst, truthful_profile(inst))
    draws = [sample_mixture(mix, seed) for seed in range(40)]
    assert all(sample_mixture(mix, seed).entries == draws[seed].entries for seed in range(40))
    branch_entries = [alloc.entries for _p, alloc in mix.branches]
    assert all(d.entries in branch_entries for d in draws)
    assert len({tuple(sorted(d.entries.items())) for d in draws}) == 2


def test_sample_mixture_draws_an_integer_below_the_common_denominator():
    inst = fixtures.fx6b()
    mix = randomized_greedy(inst, truthful_profile(inst), p=Fraction(1, 2))
    for seed in range(40):
        assert sample_mixture(mix, seed) is mix.branches[random.Random(seed).randrange(2)][1]


def test_greedy_allocations_feasible(small_corpus):
    for inst in small_corpus[:80]:
        rep = truthful_profile(inst)
        for alloc in (
            greedy_by_bpb(inst, rep),
            greedy_by_value(inst, rep),
            greedy_by_bpb(replace(inst, cardinality_limit=2), rep),
            greedy_by_value(replace(inst, cardinality_limit=2), rep),
        ):
            used = Fraction(0)
            for adv_id, (ad_id, weight) in alloc.entries.items():
                assert weight == 1
                assert ad_id in rep.subsets[adv_id]
                used += inst.advertiser(adv_id).ad(ad_id).space
            assert used <= inst.total_space


def test_cardinality_cap_respected(small_corpus):
    for inst in small_corpus[:80]:
        rep = truthful_profile(inst)
        for k in (1, 2):
            capped = replace(inst, cardinality_limit=k)
            assert len(greedy_by_bpb(capped, rep).entries) <= k
            assert len(greedy_by_value(capped, rep).entries) <= k


@st.composite
def greedy_cases(draw):
    """A report on a small integer grid where densities and values tie
    often, under no cap or one of 1 and 2; ads of space 0 or click rate 0
    and zero bids included."""
    advertisers = []
    for i in range(draw(st.integers(1, 5))):
        ads = tuple(
            RichAd(f"a{i}x{j}", Fraction(draw(st.integers(0, 2)), 2), Fraction(draw(st.integers(0, 4))))
            for j in range(draw(st.integers(1, 3)))
        )
        advertisers.append(Advertiser(f"a{i}", Fraction(draw(st.integers(1, 3))), ads))
    inst = Instance(tuple(advertisers), Fraction(draw(st.integers(1, 8))), draw(st.sampled_from((None, 1, 2))))
    bids, subsets = {}, {}
    for adv in inst.advertisers:
        bids[adv.adv_id] = adv.value_per_click * draw(st.integers(0, 2)) / 2
        subsets[adv.adv_id] = frozenset(draw(st.sets(st.sampled_from(adv.ad_ids()))))
    return inst, ReportProfile(bids=bids, subsets=subsets)


def assert_greedy_rules_match_the_walk(inst, rep):
    for rule, order in ((greedy_by_bpb, "bpb"), (greedy_by_value, "value")):
        got = {adv_id: ad_id for adv_id, (ad_id, _w) in rule(inst, rep).entries.items()}
        assert got == greedy_walk(inst, rep, order), (order, inst, rep)


@settings(max_examples=300)
@given(greedy_cases())
def test_greedy_rules_equal_the_definition_walk(case):
    assert_greedy_rules_match_the_walk(*case)


@pytest.mark.parametrize("k", [None, 1, 2])
def test_greedy_rules_equal_the_definition_walk_on_tie_corpus(tie_corpus, k):
    for inst in tie_corpus:
        inst = replace(inst, cardinality_limit=k)
        assert_greedy_rules_match_the_walk(inst, truthful_profile(inst))
