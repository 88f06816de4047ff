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

from oracles import rebid_clicks, riemann_myerson, vcg_by_resolving
from richads import exact, fixtures, heuristics, kernels, monotone, pricing
from richads.exact import int_opt_exhaustive
from richads.model import Advertiser, GuardExceededError, Instance, NonMonotoneClickCurveError, RichAd, truthful_profile
from richads.pricing import (
    AllocationRule,
    BidThresholds,
    bid_thresholds,
    gsp_prices,
    mixture_rule,
    myerson_payment,
    threshold_prices_along,
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
        adv_id="a",
        rule_name="bpb",
        cap=Fraction(2),
        steps=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))),
        ties=[1],
        den=1,
        probes=0,
    )
    assert threshold_prices_along("myerson", curve, (Fraction(2),), (Fraction(2),)) == [1]
    assert threshold_prices_along("myerson", curve, (Fraction(1, 2),), (Fraction(1),)) == [0]
    assert threshold_prices_along("gsp", curve, (Fraction(2),), (Fraction(2),)) == [1]
    assert threshold_prices_along("gsp", curve, (Fraction(2),), (Fraction(0),)) == [0]
    assert threshold_prices_along("gsp", curve, (Fraction(1, 2),), (Fraction(1),)) == [0]
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
        assert threshold_prices_along("myerson", curve, bids, xs) == [b * x - a for b, x, a in zip(bids, xs, area)]
        cpc = [first[x] if first[x] < b else b for b, x in zip(bids, xs)]
        assert threshold_prices_along("gsp", curve, bids, xs) == cpc
    # clicks below that level are a drop at the bid itself; GSP checks none at no clicks
    for b, level in zip(bids, under):
        for x in (Fraction(0), Fraction(1)):
            if x >= level:
                continue
            with pytest.raises(NonMonotoneClickCurveError):
                threshold_prices_along("myerson", curve, (b,), (x,))
            if x:
                with pytest.raises(NonMonotoneClickCurveError):
                    threshold_prices_along("gsp", curve, (b,), (x,))
            else:
                assert threshold_prices_along("gsp", curve, (b,), (x,)) == [0]


def test_a_drop_at_the_bid_raises_in_the_one_pass():
    # clicks 0 below 3 and 1 from there to the cap 4; at the bid 4 the clicks
    # fall to 1/2, below the last run under 4: the pass raises on (4, 4)
    curve = BidThresholds("a", "greedy-bpb", Fraction(4), ((Fraction(0), Fraction(0)), (Fraction(3), Fraction(1))), [3], 1, 0)
    bids = (Fraction(2), Fraction(4))
    for kind in ("myerson", "gsp"):
        with pytest.raises(NonMonotoneClickCurveError) as err:
            threshold_prices_along(kind, curve, bids, (Fraction(0), Fraction(1, 2)))
        got = err.value
        assert (got.adv_id, got.rule_name, got.left_clicks, got.right_clicks) == ("a", "greedy-bpb", 1, Fraction(1, 2))
        assert got.left_interval == (3, 4) and got.right_interval == (4, 4)
    # no clicks at 4: Myerson raises, GSP charges nothing and reads no level
    with pytest.raises(NonMonotoneClickCurveError):
        threshold_prices_along("myerson", curve, bids, (Fraction(0), Fraction(0)))
    assert threshold_prices_along("gsp", curve, bids, (Fraction(0), Fraction(0))) == [0, 0]
    assert threshold_prices_along("gsp", curve, bids, (Fraction(0), Fraction(1))) == [0, 3]


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
    """(probes, full view builds) of one Myerson mixture payment; the probes
    are the ones its curves report."""
    views = []
    view = kernels.ScaledView

    def counted_view(*args, **kwargs):
        views.append(True)
        return view(*args, **kwargs)

    for module in (kernels, monotone, heuristics):
        monkeypatch.setattr(module, "ScaledView", counted_view)
    out = myerson_payment(inst, truthful_profile(inst), mixture_rule())
    monkeypatch.undo()
    probes = sum(curve.probes for curves in out.curves.values() for curve in curves if curve is not None)
    return probes, len(views)


def test_myerson_work_counts_are_pinned(monkeypatch):
    # one view of the report serves the allocation and every probe; a full
    # scan would probe every interval (fx3: 31, the 12 x 4 instance: 1684)
    assert _myerson_work(monkeypatch, fixtures.fx3()) == (22, 1)
    assert _myerson_work(monkeypatch, _price_large_instance(7)) == (143, 1)


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
                probe=lambda bidder, num, den, name=name: rebid_clicks(
                    bidder.view, bidder.adv_id, Fraction(num, den), ((Fraction(1), name),)
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


def _counting_views(monkeypatch):
    """The views constructed while the test runs."""
    made = []
    init = kernels.ScaledView.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(kernels.ScaledView, "__init__", counted)
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
    views = _counting_views(monkeypatch)
    for name in pricing.RULES:
        rule = pricing.AllocationRule(name)
        allocations.clear()
        views.clear()
        out = myerson_payment(inst, truthful_profile(inst), rule)
        assert allocations == [branch for _p, branch in pricing.rule_branches(rule)]
        assert len(views) == 1
        assert sum(curve.probes for curves in out.curves.values() for curve in curves) > 0


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


def test_ir_bound_is_checked_under_python_O():
    # the payment check must not be an assert: -O strips those
    script = textwrap.dedent(
        """
        import sys
        from richads import InvariantViolation, fixtures, pricing
        from richads.model import truthful_profile

        if __debug__:
            sys.exit("not running under -O")
        pricing.threshold_prices_along = lambda kind, curve, bids, clicks: [b * x + 1 for b, x in zip(bids, clicks)]
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
