"""Fractional relaxation: dominance, envelopes, the exact LP optimum, 2-approx."""

from fractions import Fraction

from oracles import (
    best_value_in_width,
    brute_force_fractional,
    brute_force_opt,
    fractional_opt_by_fractions,
    reported_value,
    two_approx_integral,
)
from richads import exact, fixtures
from richads.fracopt import AdPoint, advertiser_points, eliminate_dominated, fractional_opt
from richads.model import Advertiser, Instance, RichAd, social_welfare, truthful_profile


def pts(*triples):
    return [AdPoint(ad_id, Fraction(v), Fraction(w)) for ad_id, v, w in triples]


def test_plain_dominance_smaller_cheaper_wins():
    survivors, removed = eliminate_dominated(pts(("a", 2, 1), ("b", 2, 3)))
    assert [p.ad_id for p in survivors] == ["a"]
    assert removed[0].ad_id == "b" and removed[0].reason == "dominated"
    assert removed[0].witnesses == ("a",)


def test_dominance_exact_tie_keeps_smaller_ad_id():
    survivors, removed = eliminate_dominated(pts(("b", 2, 1), ("a", 2, 1)))
    assert [p.ad_id for p in survivors] == ["a"]
    assert removed[0].ad_id == "b"


def test_nonpositive_value_dominated_by_empty_ad():
    survivors, removed = eliminate_dominated(pts(("a", 0, 1)))
    assert survivors == ()
    assert removed[0].witnesses == (None,)


def test_lp_domination_pops_interior_point():
    # (2, 2) sits exactly on the segment (0,0)-(4,4): a half/half mix of
    # nothing and "c" matches its space with equal value, so it goes
    survivors, removed = eliminate_dominated(pts(("a", 1, 1), ("b", 2, 2), ("c", 4, 4)))
    names = [p.ad_id for p in survivors]
    assert "b" not in names
    reasons = {r.ad_id: r.reason for r in removed}
    assert reasons["b"] == "lp-dominated"


def test_survivors_strictly_concave():
    chain = pts(("a", 1, 1), ("b", 5, 2), ("c", 6, 3), ("d", 13, 8), ("e", 13, 9))
    survivors, _ = eliminate_dominated(chain)
    for left, right in zip(survivors, survivors[1:]):
        assert right.value > left.value and right.space > left.space
    # incremental bang-per-buck strictly decreases along the chain
    prev = None
    last = AdPoint("", Fraction(0), Fraction(0))
    for p in survivors:
        slope = (p.value - last.value) / (p.space - last.space)
        if prev is not None:
            assert slope < prev
        prev, last = slope, p


def test_envelope_value_matches_vertex_oracle(small_corpus):
    for inst in small_corpus[:120]:
        rep = truthful_profile(inst)
        for adv in inst.advertisers:
            raw = advertiser_points(inst, rep, adv.adv_id)
            survivors, _ = eliminate_dominated(raw)
            for width in (Fraction(1, 2), Fraction(3), inst.total_space):
                # the envelope runs from (0, 0) through the survivors, flat after the last
                prev = AdPoint("", Fraction(0), Fraction(0))
                for pt in survivors:
                    if width < pt.space:
                        got = prev.value + (width - prev.space) * (pt.value - prev.value) / (pt.space - prev.space)
                        break
                    prev = pt
                else:
                    got = prev.value
                want = best_value_in_width([(p.value, p.space) for p in raw], width)
                assert got == want, (inst, adv.adv_id, width)


def test_removed_ads_never_change_the_fractional_optimum(tie_corpus):
    """Deleting any eliminated ad leaves the fractional objective untouched."""
    for inst in tie_corpus:
        rep = truthful_profile(inst)
        base = fractional_opt(inst, rep).objective
        for adv in inst.advertisers:
            _, removed = eliminate_dominated(advertiser_points(inst, rep, adv.adv_id))
            for r in removed:
                subset = rep.subsets[adv.adv_id] - {r.ad_id}
                shrunk = rep.replace(adv.adv_id, rep.bids[adv.adv_id], subset)
                assert fractional_opt(inst, shrunk).objective == base


def test_plain_dominated_removals_never_lower_the_exact_optimum(tie_corpus):
    """Deleting a plainly dominated ad never hurts the integral optimum.

    Only the plain kind: an ad sitting below the envelope's hull can still
    be the best integral choice at some capacities, so deleting one of
    those may genuinely lower the integral optimum.
    """
    for inst in tie_corpus:
        rep = truthful_profile(inst)
        base = reported_value(inst, rep, exact.int_opt_dp(inst, rep))
        for adv in inst.advertisers:
            _, removed = eliminate_dominated(advertiser_points(inst, rep, adv.adv_id))
            for r in removed:
                if r.reason != "dominated":
                    continue
                subset = rep.subsets[adv.adv_id] - {r.ad_id}
                shrunk = rep.replace(adv.adv_id, rep.bids[adv.adv_id], subset)
                assert reported_value(inst, shrunk, exact.int_opt_dp(inst, shrunk)) == base


def test_exact_optimum_may_use_an_lp_dominated_ad():
    # three ads on a straight line through the origin: the two smaller ones
    # are popped from the envelope, yet with two units of space the middle
    # one is the only way to collect value 2 integrally
    inst = Instance(
        advertisers=(
            Advertiser(
                "a",
                value_per_click=Fraction(4),
                ads=(
                    RichAd("ax1", alpha=Fraction(1, 4), space=Fraction(1)),
                    RichAd("ax2", alpha=Fraction(1, 2), space=Fraction(2)),
                    RichAd("ax3", alpha=Fraction(1), space=Fraction(4)),
                ),
            ),
        ),
        total_space=Fraction(2),
    )
    rep = truthful_profile(inst)
    _, removed = eliminate_dominated(advertiser_points(inst, rep, "a"))
    assert [(r.ad_id, r.reason) for r in removed] == [
        ("ax1", "lp-dominated"),
        ("ax2", "lp-dominated"),
    ]
    alloc = exact.int_opt_dp(inst, rep)
    assert alloc.entries == {"a": ("ax2", Fraction(1))}
    assert reported_value(inst, rep, alloc) == 2


def test_fx2i_fractional_optimum():
    inst = fixtures.fx2()
    frac = fractional_opt(inst, truthful_profile(inst))
    assert frac.entries == {"a": (("ax1", Fraction(1)),), "b": (("bx1", Fraction(1)),)}
    assert frac.objective == 5
    assert frac.fractional_adv is None


def test_fx2ii_fractional_split():
    inst = fixtures.fx2_tight()  # W = 7/2
    frac = fractional_opt(inst, truthful_profile(inst))
    assert frac.fractional_adv == "b"
    assert frac.entries["b"] == (("bx1", Fraction(5, 6)),)  # weight 2.5/3
    assert frac.entries["a"] == (("ax1", Fraction(1)),)
    assert frac.objective == 2 + Fraction(5, 6) * 3


def test_fx3_fractional_value_is_2999():
    inst = fixtures.fx3()
    frac = fractional_opt(inst, truthful_profile(inst))
    assert frac.objective == 2999


def test_fractional_opt_matches_lp_oracle(small_corpus):
    for inst in small_corpus[:150]:
        rep = truthful_profile(inst)
        ours = fractional_opt(inst, rep)
        lp = brute_force_fractional(inst, rep)
        assert abs(float(ours.objective) - lp) <= 1e-9 * max(1.0, lp), inst


def test_at_most_one_fractional_advertiser(small_corpus):
    for inst in small_corpus:
        frac = fractional_opt(inst, truthful_profile(inst))
        split = [a for a, pairs in frac.entries.items() if len(pairs) > 1 or pairs[0][1] != 1]
        assert len(split) <= 1
        if split:
            assert split == [frac.fractional_adv]
        else:
            assert frac.fractional_adv is None


def test_fractional_solution_is_feasible(small_corpus):
    for inst in small_corpus[:150]:
        frac = fractional_opt(inst, truthful_profile(inst))
        assert frac.used_space(inst) <= inst.total_space
        for pairs in frac.entries.values():
            assert sum(w for _ad, w in pairs) <= 1
            assert all(0 < w <= 1 for _ad, w in pairs)


def test_two_approx_bound(small_corpus):
    for inst in small_corpus:
        rep = truthful_profile(inst)
        frac = fractional_opt(inst, rep)
        alloc = two_approx_integral(inst, rep)
        assert alloc.used_space(inst) <= inst.total_space
        assert 2 * reported_value(inst, rep, alloc) >= frac.objective


def test_two_approx_takes_split_advertisers_best_ad():
    inst = fixtures.fx2_tight()
    rep = truthful_profile(inst)
    alloc = two_approx_integral(inst, rep)
    # the advertisers held integrally are worth 2, b's own best ad 3
    assert alloc.entries == {"b": ("bx1", Fraction(1))}
    assert reported_value(inst, rep, alloc) == 3


def test_two_approx_keeps_integral_part_when_larger():
    inst = fixtures.fx2_tight()
    rep = truthful_profile(inst)
    rep = rep.replace("a", rep.bids["a"], {"ax2"})
    alloc = two_approx_integral(inst, rep)
    # without ax1 the walk places ax2 whole (7/2) and splits b again;
    # now the integral part beats b's best single ad
    assert alloc.entries == {"a": ("ax2", Fraction(1))}
    assert reported_value(inst, rep, alloc) == Fraction(7, 2)


def test_two_approx_tie_prefers_integral_part():
    inst = Instance(
        advertisers=(
            Advertiser(
                "a",
                value_per_click=Fraction(3),
                ads=(RichAd("ax1", alpha=Fraction(1), space=Fraction(2)),),
            ),
            Advertiser(
                "b",
                value_per_click=Fraction(3),
                ads=(RichAd("bx1", alpha=Fraction(1), space=Fraction(3)),),
            ),
        ),
        total_space=Fraction(3),
    )
    rep = truthful_profile(inst)
    frac = fractional_opt(inst, rep)
    assert frac.fractional_adv == "b"
    alloc = two_approx_integral(inst, rep)
    assert alloc.entries == {"a": ("ax1", Fraction(1))}


def test_two_approx_against_brute_force(tie_corpus):
    for inst in tie_corpus:
        rep = truthful_profile(inst)
        _entries, best = brute_force_opt(inst, rep)
        got = reported_value(inst, rep, two_approx_integral(inst, rep))
        assert 2 * got >= best  # integral optimum <= fractional optimum


def test_equal_incremental_densities_go_to_the_lower_adv_id():
    # every increment has bang-per-buck 1 (ax1 lies on the segment from the
    # empty ad to ax2, so it is popped): a's comes first, by adv_id, and b's
    # no longer fits whole and is split
    inst = Instance(
        advertisers=(
            Advertiser("b", value_per_click=Fraction(2), ads=(RichAd("bx1", alpha=Fraction(1), space=Fraction(2)),)),
            Advertiser(
                "a",
                value_per_click=Fraction(1),
                ads=(
                    RichAd("ax1", alpha=Fraction(1, 2), space=Fraction(1, 2)),
                    RichAd("ax2", alpha=Fraction(1), space=Fraction(1)),
                ),
            ),
        ),
        total_space=Fraction(2),
    )
    rep = truthful_profile(inst)
    frac = fractional_opt(inst, rep)
    assert frac == fractional_opt_by_fractions(inst, rep)
    assert frac.entries == {"a": (("ax2", Fraction(1)),), "b": (("bx1", Fraction(1, 2)),)}
    assert frac.objective == 2 and frac.fractional_adv == "b"
