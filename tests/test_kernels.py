"""Kernels: scaling, the bang-per-buck order, trace consistency."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import BpbKey, scaled_view_by_fractions
from richads import exact, kernels
from richads.kernels import ScaledView
from richads.model import (
    WHOLE,
    Advertiser,
    Allocation,
    Instance,
    InvariantViolation,
    ReportProfile,
    RichAd,
    truthful_profile,
)
from richads import fixtures


def view_of(inst):
    return ScaledView(inst, truthful_profile(inst))


def test_scaled_view_sorted_and_scaled():
    view = view_of(fixtures.fx2())
    # rows in (adv, ad_id) order
    assert view.ad_ids == ["ax1", "ax2", "bx1"]
    # effective values 2, 7/2, 3 share scale 2
    assert view.value_scale == 2
    assert view.val == [4, 7, 6]
    # spaces are already integral, so the space scale stays 1
    assert view.space_scale == 1
    assert view.spc == [1, 3, 3]
    assert view.total == 4


def test_scaled_view_space_scale_is_lcm():
    view = view_of(fixtures.fx6b())  # spaces 1/4 and 10, W = 10
    assert view.space_scale == 4
    assert view.spc == [1, 40]
    assert view.total == 40


def test_zero_bid_ads_are_dropped():
    inst = fixtures.fx2()
    rep = truthful_profile(inst).replace("a", Fraction(0), {"ax1", "ax2"})
    view = ScaledView(inst, rep)
    assert view.ad_ids == ["bx1"]


# two large primes, so large coprime denominators, next to small ones
DENOMINATORS = (1, 2, 3, 6, 10**18 + 9, 10**18 + 3)


@st.composite
def rationals(draw, lo, hi):
    """n / d for n in [lo, hi] and d from `DENOMINATORS`; an int instead of
    a Fraction when drawn so and d is 1."""
    n, d = draw(st.integers(lo, hi)), draw(st.sampled_from(DENOMINATORS))
    return n if d == 1 and draw(st.booleans()) else Fraction(n, d)


@st.composite
def view_reports(draw):
    """A report on an instance validation would reject too: click rates 0
    or below, spaces 0, ints where Fractions stand, large coprime
    denominators; bids missing, 0, negative or positive; subsets missing,
    empty or partial; no cardinality cap or one of 1 and 2."""
    advertisers, bids, subsets = [], {}, {}
    for i in range(draw(st.integers(1, 4))):
        ads = tuple(
            RichAd(f"a{i}x{j}", draw(rationals(-1, 4)), draw(rationals(0, 12)))
            for j in draw(st.permutations(range(draw(st.integers(1, 3)))))
        )
        advertisers.append(Advertiser(f"a{i}", Fraction(1), ads))
        if draw(st.booleans()) or draw(st.booleans()):
            bids[f"a{i}"] = draw(rationals(-2, 20))
        if draw(st.booleans()) or draw(st.booleans()):
            subsets[f"a{i}"] = frozenset(draw(st.sets(st.sampled_from([ad.ad_id for ad in ads]))))
    inst = Instance(
        advertisers=tuple(advertisers),
        total_space=draw(rationals(1, 30)),
        cardinality_limit=draw(st.sampled_from((None, 1, 2))),
    )
    return inst, ReportProfile(bids=bids, subsets=subsets)


@settings(max_examples=300)
@given(view_reports())
def test_scaled_view_equals_the_fraction_oracle(pair):
    inst, rep = pair
    view = ScaledView(inst, rep)
    expected = scaled_view_by_fractions(inst, rep)
    for name in ScaledView.FIELDS:
        assert getattr(view, name) == expected[name], name
    # equal values, and plain ints: a Fraction equal to an int would pass above
    for name in ("val", "spc"):
        assert all(type(x) is int for x in getattr(view, name)), name
    for name in ("total", "value_scale", "space_scale"):
        assert type(getattr(view, name)) is int, name


def test_empty_view_short_circuits():
    inst = fixtures.fx2()
    rep = truthful_profile(inst).replace("a", Fraction(0), set()).replace("b", Fraction(0), set())
    view = ScaledView(inst, rep)
    held, spaces, fa, fn, fd = kernels.run_space_auction(view)
    assert held == [-1, -1] and spaces == [0, 0] and fa == -1
    assert kernels.run_best_fit(view, [0, 0]) == [-1, -1]
    assert kernels.run_value_greedy(view, 2) == [-1, -1]


@st.composite
def bpb_rows(draw):
    """(val, spc) lists with many equal densities, some zero spaces and,
    when drawn, values or spaces beyond 2**63."""
    n = draw(st.integers(0, 12))
    val, spc = [], []
    for _ in range(n):
        k = draw(st.integers(1, 3))
        val.append(draw(st.integers(1, 5)) * k)
        spc.append(draw(st.integers(0, 5)) * k)
    big = 2**64 + 1
    if draw(st.booleans()):
        val = [v * big for v in val]
    if draw(st.booleans()):
        spc = [w * big for w in spc]
    return val, spc


def view_of_rows(val, spc):
    """A view whose rows are exactly (val[i], spc[i]): one advertiser per
    row, bidding 1 on an ad of click rate val[i], in row order."""
    advs = [
        Advertiser(f"a{i:02d}", Fraction(1), (RichAd("x", Fraction(v), Fraction(w)),))
        for i, (v, w) in enumerate(zip(val, spc))
    ]
    view = view_of(Instance(tuple(advs), Fraction(1)))
    assert (view.val, view.spc) == (val, spc)
    return view


@given(bpb_rows())
def test_bpb_order_equals_the_comparator_sort(rows):
    val, spc = rows
    expected = sorted(range(len(val)), key=lambda i: BpbKey(val[i], spc[i]))
    assert view_of_rows(val, spc).bpb_order() == expected


def test_bpb_order_puts_zero_space_rows_first_in_input_order():
    assert view_of_rows([1, 5, 2, 3], [1, 0, 0, 1]).bpb_order() == [1, 2, 3, 0]


@given(bpb_rows())
def test_value_order_equals_the_comparator_sort(rows):
    val, spc = rows
    # descending value, equal values in row order
    expected = sorted(range(len(val)), key=lambda i: BpbKey(val[i], 1))
    assert view_of_rows(val, spc).value_order() == expected


def test_traced_walk_matches_untrace(small_corpus):
    for inst in small_corpus[:100]:
        view = view_of(inst)
        held, spaces, fa, fn, fd = kernels.run_space_auction(view)
        t_held, t_spaces, t_fa, t_fn, t_fd, events = kernels.run_space_auction_traced(view)
        assert (held, spaces, fa, fn, fd) == (t_held, t_spaces, t_fa, t_fn, t_fd)
        # newly covered unit ranges are contiguous and within budget
        used = 0
        for _kind, _i, start, end in events:
            assert start == used
            assert end >= start
            used = end
        assert used <= view.total


def test_trace_records_replacements():
    inst = fixtures.fx6a()
    view = view_of(inst)
    *_rest, events = kernels.run_space_auction_traced(view)
    kinds = [k for k, *_ in events]
    assert kinds[0] == "place"
    assert "replace" in kinds


def test_welfare_of_an_ad_outside_the_view_is_an_invariant_violation():
    # a hides ax1, so the view of that report has no row for it, and the
    # truthful optimum, which serves ax1, cannot be valued there
    inst = fixtures.fx2()
    truth = truthful_profile(inst)
    view = ScaledView(inst, truth.replace("a", truth.bids["a"], {"ax2"}))
    assert view.welfare(Allocation(entries={"b": ("bx1", WHOLE)})) == (6, 2)
    with pytest.raises(InvariantViolation, match="^ad 'ax1' of advertiser 'a' is not a row of the view$"):
        view.welfare(exact.int_opt_dp(inst, truth))
