"""Kernels: scaling, the bang-per-buck order, trace consistency."""

from fractions import Fraction

from hypothesis import given, strategies as st

from oracles import BpbKey
from richads import kernels
from richads.kernels import ScaledView
from richads.model import Advertiser, Instance, RichAd, truthful_profile
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
