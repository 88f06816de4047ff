"""Data model: rationals, profiles, allocations, validation, JSON round-trips."""

from fractions import Fraction

import pytest

from oracles import validate_report
from richads import fixtures
from richads.model import (
    Advertiser,
    Allocation,
    Instance,
    Mixture,
    RichAd,
    instance_from_dict,
    instance_to_dict,
    parse_rational,
    social_welfare,
    truthful_profile,
    validate_instance,
)


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("-1/3") == Fraction(-1, 3)
    assert parse_rational("+4/2") == Fraction(2)


@pytest.mark.parametrize("text", ["1e10000000", " 2.5 ", "2.5", "1_000", "0x10", "1/-3", "½", "", "-"])
def test_parse_rational_rejects_every_other_string_form(text):
    # `Fraction(str)` would take exponents, decimals, padding and underscores
    with pytest.raises(ValueError, match=r"is not of the form \[\+-\]digits\[/digits\]"):
        parse_rational(text)


def test_parse_rational_rejects_floats_and_bools():
    with pytest.raises(ValueError):
        parse_rational(0.5)
    with pytest.raises(ValueError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational(None)


def test_parse_rational_returns_a_fraction_as_it_is():
    third = Fraction(1, 3)
    assert parse_rational(third) is third


def test_replace_reads_a_bid_as_parse_rational_does():
    rep = truthful_profile(fixtures.fx2())
    for bid, want in ((3, Fraction(3)), (Fraction(1, 10), Fraction(1, 10)), ("1/10", Fraction(1, 10))):
        got = rep.replace("a", bid, {"ax1"}).bids["a"]
        assert type(got) is Fraction and got == want
    for bid in (0.1, 2.0, True):
        with pytest.raises(ValueError, match="^floats are not accepted|^expected a rational, got boolean"):
            rep.replace("a", bid, {"ax1"})


def test_rational_arithmetic_is_exact():
    a, b = Fraction(1, 3), Fraction(1, 6)
    assert a + b == Fraction(1, 2)
    assert (a + b) - b == a


def test_instance_sorts_advertisers_by_id():
    inst = Instance(
        advertisers=(
            Advertiser("z", Fraction(1), (RichAd("zx1", Fraction(1), Fraction(1)),)),
            Advertiser("a", Fraction(1), (RichAd("ax1", Fraction(1), Fraction(1)),)),
        ),
        total_space=Fraction(2),
    )
    assert inst.adv_ids() == ("a", "z")


def test_truthful_profile_reports_everything():
    inst = fixtures.fx2()
    rep = truthful_profile(inst)
    assert rep.bids["a"] == Fraction(7, 2)
    assert rep.subsets["a"] == frozenset({"ax1", "ax2"})
    assert rep.subsets["b"] == frozenset({"bx1"})


def test_profile_replace_is_functional():
    inst = fixtures.fx2()
    rep = truthful_profile(inst)
    dev = rep.replace("a", Fraction(1), {"ax1"})
    assert rep.bids["a"] == Fraction(7, 2)
    assert dev.bids["a"] == Fraction(1)
    assert dev.subsets["a"] == frozenset({"ax1"})
    assert dev.subsets["b"] == rep.subsets["b"]


def test_social_welfare_uses_true_values():
    inst = fixtures.fx2()
    alloc = Allocation(entries={"a": ("ax1", Fraction(1)), "b": ("bx1", Fraction(1))})
    # value 7/2 * 4/7 + 3 * 1 = 2 + 3
    assert social_welfare(inst, alloc) == 5
    # a report changes nothing: welfare is a function of the allocation only
    assert social_welfare(inst, alloc) == 5


def test_social_welfare_linear_in_mixture():
    inst = fixtures.fx2()
    x = Allocation(entries={"a": ("ax2", Fraction(1))})
    y = Allocation(entries={"b": ("bx1", Fraction(1))})
    mix = Mixture(branches=((Fraction(1, 4), x), (Fraction(3, 4), y)))
    assert social_welfare(inst, mix) == Fraction(1, 4) * social_welfare(inst, x) + Fraction(
        3, 4
    ) * social_welfare(inst, y)


def test_mixture_probabilities_must_sum_to_one():
    alloc = Allocation(entries={})
    with pytest.raises(ValueError):
        Mixture(branches=((Fraction(1, 2), alloc),))
    with pytest.raises(ValueError):
        Mixture(branches=((Fraction(3, 2), alloc), (Fraction(-1, 2), alloc)))


def test_validate_clean_fixture():
    assert validate_instance(fixtures.fx2()) == []


def test_validate_flags_bad_alpha_and_space():
    inst = Instance(
        advertisers=(
            Advertiser(
                "a",
                Fraction(1),
                (
                    RichAd("ax1", Fraction(3, 2), Fraction(1)),
                    RichAd("ax2", Fraction(1), Fraction(0)),
                ),
            ),
        ),
        total_space=Fraction(2),
    )
    codes = {v.code for v in validate_instance(inst)}
    assert "alpha" in codes
    assert "space" in codes


def test_validate_flags_oversized_ad():
    inst = Instance(
        advertisers=(Advertiser("a", Fraction(1), (RichAd("ax1", Fraction(1), Fraction(5)),)),),
        total_space=Fraction(4),
    )
    codes = {v.code for v in validate_instance(inst)}
    assert "space-exceeds-total" in codes


def test_validate_flags_shared_ad_ids():
    ad = RichAd("x1", Fraction(1), Fraction(1))
    inst = Instance(
        advertisers=(
            Advertiser("a", Fraction(1), (ad,)),
            Advertiser("b", Fraction(2), (ad,)),
        ),
        total_space=Fraction(3),
    )
    codes = {v.code for v in validate_instance(inst)}
    assert "catalogs-not-disjoint" in codes


def test_validate_flags_fields_that_are_not_rational():
    # a float or a bool reaches no kernel: it is reported, and its range
    # checks are skipped (a float 0.5 alpha is in range, True is 1)
    inst = Instance(
        advertisers=(
            Advertiser("a", 2.0, (RichAd("ax1", 0.5, Fraction(1)), RichAd("ax2", Fraction(1), True))),
            Advertiser("b", True, (RichAd("bx1", False, -1.0),)),
        ),
        total_space=3.0,
    )
    got = [(v.code, v.location, v.message) for v in validate_instance(inst)]
    assert got == [
        ("not-rational", "instance", "total_space must be an int or a Fraction, got 3.0"),
        ("not-rational", "advertiser 'a'", "value_per_click must be an int or a Fraction, got 2.0"),
        ("not-rational", "advertiser 'a', ad 'ax1'", "alpha must be an int or a Fraction, got 0.5"),
        ("not-rational", "advertiser 'a', ad 'ax2'", "space must be an int or a Fraction, got True"),
        ("not-rational", "advertiser 'b'", "value_per_click must be an int or a Fraction, got True"),
        ("not-rational", "advertiser 'b', ad 'bx1'", "alpha must be an int or a Fraction, got False"),
        ("not-rational", "advertiser 'b', ad 'bx1'", "space must be an int or a Fraction, got -1.0"),
    ]
    # ints and Fractions pass, and an oversized space is still checked
    # against an int total
    ok = Instance(
        advertisers=(Advertiser("a", 2, (RichAd("ax1", Fraction(1, 2), 1), RichAd("ax2", 1, 4))),),
        total_space=3,
    )
    assert [v.code for v in validate_instance(ok)] == ["space-exceeds-total"]


def test_validate_report_catches_unknown_ids():
    inst = fixtures.fx2()
    rep = truthful_profile(inst).replace("a", Fraction(1), {"nope"})
    codes = {v.code for v in validate_report(inst, rep)}
    assert "unknown-ad" in codes


def test_json_round_trip_all_fixtures():
    for name, builder in fixtures.BUILDERS.items():
        inst = builder()
        again = instance_from_dict(instance_to_dict(inst))
        assert again == inst, name


def test_json_rejects_float_fields():
    data = instance_to_dict(fixtures.fx5())
    data["total_space"] = 1.0
    with pytest.raises(ValueError):
        instance_from_dict(data)


def test_packaged_fixture_files_match_builders():
    for name, builder in fixtures.BUILDERS.items():
        assert fixtures.fixture(name) == builder(), name
