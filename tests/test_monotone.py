"""Space assignment walk, integral and max-value rules, and their mixture."""

from dataclasses import replace
from fractions import Fraction

import pytest

from oracles import reported_value, walk_space_auction
from richads import fixtures
from richads.model import ReportProfile, social_welfare, truthful_profile
from richads.monotone import (
    GSP_MIX_P,
    TRUTHFUL_MIX_P,
    bpb_allocation,
    max_value_allocation,
    randomized_mechanism,
    space_assignment,
)


def test_space_assignment_matches_oracle(small_corpus):
    for inst in small_corpus:
        rep = truthful_profile(inst)
        got = space_assignment(inst, rep)
        spaces, held, fractional = walk_space_auction(inst, rep, stop_on_misfit=True)
        assert got.spaces == spaces
        assert got.held == held
        assert got.fractional == fractional


def test_fx2i_walk_spaces():
    inst = fixtures.fx2()
    got = space_assignment(inst, truthful_profile(inst))
    assert got.spaces == {"a": Fraction(3), "b": Fraction(1)}
    assert got.held == {"a": "ax2", "b": "bx1"}
    assert got.fractional == ("b", "bx1", Fraction(1, 3))


def test_fx6a_upgrade_leaves_nothing_for_b():
    inst = fixtures.fx6a()
    got = space_assignment(inst, truthful_profile(inst))
    # a trades the (2, 2) ad up to (1, 3): all the space, less held value;
    # the walk ends on the exhausted budget, so b is absent rather than
    # recorded as a weight-zero tail
    assert got.spaces == {"a": Fraction(3)}
    assert got.held == {"a": "ax2"}
    assert got.fractional is None


def test_fx6a_without_the_big_ad():
    inst = fixtures.fx6a()
    rep = truthful_profile(inst)
    rep = rep.replace("a", rep.bids["a"], {"ax1"})
    got = space_assignment(inst, rep)
    assert got.spaces == {"a": Fraction(2), "b": Fraction(1)}
    assert got.fractional == ("b", "bx1", Fraction(1, 3))


def test_bpb_allocation_fx6a_repairs_the_upgrade():
    inst = fixtures.fx6a()
    alloc = bpb_allocation(inst, truthful_profile(inst))
    assert alloc.entries == {"a": ("ax1", Fraction(1))}
    assert social_welfare(inst, alloc) == 2


def test_bpb_allocation_fx6b_blocked_giant():
    inst = fixtures.fx6b()
    rep = truthful_profile(inst)
    alloc = bpb_allocation(inst, rep)
    # the cheap ad wins the walk; 9.75 units fit nothing of b's
    assert alloc.entries == {"a": ("ax1", Fraction(1))}
    assert social_welfare(inst, alloc) == Fraction(1, 2)


def test_bpb_allocation_fx1_serves_both():
    inst = fixtures.fx1()
    alloc = bpb_allocation(inst, truthful_profile(inst))
    assert alloc.entries == {"a": ("ax2", Fraction(1)), "b": ("bx1", Fraction(1))}
    assert social_welfare(inst, alloc) == Fraction(21, 10)


def test_bpb_allocation_fx3_value():
    inst = fixtures.fx3()
    rep = truthful_profile(inst)
    alloc = bpb_allocation(inst, rep)
    assert alloc.entries == {"a": ("ax2", Fraction(1)), "b": ("bx1", Fraction(1))}
    # M + 1 + 2 eps at M = 1000
    assert reported_value(inst, rep, alloc) == Fraction(500501, 500)


def test_max_value_fx3_takes_the_giant():
    inst = fixtures.fx3()
    rep = truthful_profile(inst)
    alloc = max_value_allocation(inst, rep)
    assert alloc.entries == {"d": ("dx1", Fraction(1))}
    assert reported_value(inst, rep, alloc) == Fraction(500001, 500)


def test_max_value_fx6b():
    inst = fixtures.fx6b()
    alloc = max_value_allocation(inst, truthful_profile(inst))
    assert alloc.entries == {"b": ("bx1", Fraction(1))}


def test_max_value_all_zero_bids_serves_nobody():
    inst = fixtures.fx5()
    rep = ReportProfile(
        bids={"a": Fraction(0), "b": Fraction(0)},
        subsets={"a": frozenset({"ax1"}), "b": frozenset({"bx1"})},
    )
    assert max_value_allocation(inst, rep).entries == {}


def test_max_value_empty_reports():
    inst = fixtures.fx5()
    rep = ReportProfile(
        bids={"a": Fraction(0), "b": Fraction(0)},
        subsets={"a": frozenset(), "b": frozenset()},
    )
    assert max_value_allocation(inst, rep).entries == {}


def test_randomized_mechanism_fx6b_expected_welfare():
    inst = fixtures.fx6b()
    mech = randomized_mechanism(inst, truthful_profile(inst))
    assert TRUTHFUL_MIX_P == Fraction(2, 3)
    assert [p for p, _ in mech.branches] == [Fraction(2, 3), Fraction(1, 3)]
    assert social_welfare(inst, mech) == Fraction(11, 3)


def test_randomized_mechanism_gsp_weight():
    inst = fixtures.fx5()
    mech = randomized_mechanism(inst, truthful_profile(inst), p=GSP_MIX_P)
    assert [p for p, _ in mech.branches] == [Fraction(1, 2), Fraction(1, 2)]


@pytest.mark.parametrize("bad", [Fraction(-1, 2), Fraction(3, 2)])
def test_randomized_mechanism_rejects_bad_weight(bad):
    inst = fixtures.fx5()
    with pytest.raises(ValueError):
        randomized_mechanism(inst, truthful_profile(inst), p=bad)


def test_trace_fx2i_cover_order():
    inst = fixtures.fx2()
    trace = space_assignment(inst, truthful_profile(inst)).trace
    assert trace.scale == 1 and trace.total_units == 4
    assert [run.kind for run in trace.runs] == ["place", "replace", "fractional"]
    # the first unit keeps its original label after the upgrade
    assert trace.covering(1).ad_id == "ax1"
    assert trace.covering(3).ad_id == "ax2"
    assert trace.covering(4).ad_id == "bx1"
    assert trace.runs[-1].density == Fraction(1)
    lines = trace.describe()
    assert len(lines) == 3 and lines[0].startswith("place: advertiser a ad ax1")


def test_trace_densities_are_the_ads_bid_times_alpha_over_space(small_corpus):
    """Each run's density, read off the scaled integers, is its ad's
    reported bang-per-buck computed from the instance's Fractions. The
    corpus has integer spaces, so it also runs with every space divided by
    7, and the fixtures include fx3 and fx6b, whose spaces are fractional."""
    shrunk = [
        replace(
            inst,
            total_space=inst.total_space / 7,
            advertisers=tuple(replace(adv, ads=tuple(replace(ad, space=ad.space / 7) for ad in adv.ads)) for adv in inst.advertisers),
        )
        for inst in small_corpus
    ]
    runs = 0
    for inst in (*map(fixtures.fixture, fixtures.BUILDERS), *small_corpus, *shrunk):
        rep = truthful_profile(inst)
        for run in space_assignment(inst, rep).trace.runs:
            ad = inst.advertiser(run.adv_id).ad(run.ad_id)
            assert run.density == rep.bids[run.adv_id] * ad.alpha / ad.space, (inst, run)
            runs += 1
    assert runs >= 2 * len(small_corpus)
