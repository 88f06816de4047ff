"""Strategy grids, best responses, Nash dynamics, the beta diagnostic, PoA."""

import os
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    best_of_by_fractions,
    best_response_by_profiles,
    check_curveless_branches,
    integer_pass_drops_at_tie_bids,
    profile_rows,
    profile_table,
    recording_threshold_payments,
    sweep_by_fractions,
)
from richads import equilibrium, fixtures, harness, kernels, pricing
from richads.equilibrium import (
    best_response,
    beta_bound_check,
    find_pure_nash,
    gsp_mixture_mechanism,
    myerson_mixture_mechanism,
    poa_report,
    strategy_spaces,
    utility,
)
from richads.model import (
    Advertiser,
    GuardExceededError,
    Instance,
    NonMonotoneClickCurveError,
    ReportProfile,
    RichAd,
    truthful_profile,
)

FULL_B = frozenset({"bx1", "bx2"})


def test_strategy_space_shapes():
    inst = fixtures.fx4()
    spaces = strategy_spaces(inst, Fraction(1, 100))
    a, b = spaces["a"], spaces["b"]
    assert a.bids == (Fraction(0), Fraction(1, 100))
    assert len(b.bids) == 102  # 0, 1/100, ..., 1, then the true value
    assert b.bids[0] == 0 and b.bids[-1] == Fraction(40001, 40000)
    assert b.subsets == (
        FULL_B,
        frozenset({"bx1"}),
        frozenset({"bx2"}),
        frozenset(),
    )


def test_strategy_space_validation():
    inst = fixtures.fx4()
    with pytest.raises(ValueError):
        strategy_spaces(inst, Fraction(0))
    for step in (0.25, 1.0, True):
        with pytest.raises(ValueError, match="^floats are not accepted|^expected a rational, got boolean"):
            strategy_spaces(inst, step)
    crowded = Instance(
        advertisers=(
            Advertiser(
                "a",
                value_per_click=Fraction(1),
                ads=tuple(RichAd(f"ax{j}", alpha=Fraction(1, j + 1), space=Fraction(j)) for j in range(1, 6)),
            ),
        ),
        total_space=Fraction(10),
    )
    with pytest.raises(GuardExceededError):
        strategy_spaces(crowded, Fraction(1, 2))


def test_a_grid_step_is_read_as_an_int_a_fraction_or_a_rational_string():
    inst = fixtures.fx4()
    quarter = strategy_spaces(inst, Fraction(1, 4))
    assert strategy_spaces(inst, "1/4") == quarter
    assert strategy_spaces(inst, 1) == strategy_spaces(inst, Fraction(1))


def test_fx4_truthful_gsp_utilities():
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    got = utility(inst, truth, truth, gsp_mixture_mechanism())
    assert got == {"a": Fraction(0), "b": Fraction(19801, 40000)}


def test_fx4_gsp_underbidding_is_the_best_response():
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    space = strategy_spaces(inst, Fraction(1, 100))["b"]
    bid, subset, best_u = best_response(inst, truth, truth, "b", gsp_mixture_mechanism(), space)
    assert (bid, subset) == (Fraction(1, 50), FULL_B)
    assert best_u == Fraction(39603, 80000)
    # a strict improvement over truthful reporting, by exactly one grid cell
    assert best_u - Fraction(19801, 40000) == Fraction(1, 80000)


def test_fx4_gsp_dynamics_leave_truth_and_converge():
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    spaces = strategy_spaces(inst, Fraction(1, 100))
    result = find_pure_nash(inst, truth, gsp_mixture_mechanism(), spaces)
    assert result.status == "converged" and result.verified
    assert result.rounds == 2
    eq = result.equilibrium
    assert eq.bids == {"a": Fraction(1, 100), "b": Fraction(1, 50)}
    assert eq.subsets["b"] == FULL_B
    assert utility(inst, truth, eq, gsp_mixture_mechanism())["b"] == Fraction(39603, 80000)


def test_fx4_myerson_dynamics_stay_at_truth():
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    spaces = strategy_spaces(inst, Fraction(1, 100))
    mech = myerson_mixture_mechanism(Fraction(1, 2))
    result = find_pure_nash(inst, truth, mech, spaces)
    assert result.status == "converged" and result.rounds == 1
    assert result.equilibrium.key() == truth.key()
    # the grid best response may shade the bid, but it cannot beat truth
    for adv_id in ("a", "b"):
        _bid, _subset, best_u = best_response(inst, truth, truth, adv_id, mech, spaces[adv_id])
        assert best_u == utility(inst, truth, truth, mech)[adv_id]


def test_fx5_gsp_truth_is_an_ir_tight_equilibrium():
    inst = fixtures.fx5()
    truth = truthful_profile(inst)
    spaces = strategy_spaces(inst, Fraction(1, 2))
    result = find_pure_nash(inst, truth, gsp_mixture_mechanism(), spaces, beta_check=True)
    assert result.status == "converged" and result.rounds == 1
    assert result.equilibrium.key() == truth.key()
    assert result.beta_checks == 1
    assert result.beta_violations == ()
    assert utility(inst, truth, truth, gsp_mixture_mechanism()) == {
        "a": Fraction(0),
        "b": Fraction(0),
    }


def test_best_response_tie_prefers_low_bid_and_large_subset():
    inst = fixtures.fx5()
    truth = truthful_profile(inst)
    space = strategy_spaces(inst, Fraction(1, 2))["a"]
    bid, subset, best_u = best_response(inst, truth, truth, "a", gsp_mixture_mechanism(), space)
    # every strategy nets zero here, so the tie rule decides
    assert (bid, subset, best_u) == (Fraction(0), frozenset({"ax1"}), Fraction(0))


def test_vcg_truthful_utilities_fx2():
    inst = fixtures.fx2()
    truth = truthful_profile(inst)
    got = utility(inst, truth, truth, pricing.Mechanism("vcg"))
    assert got == {"a": Fraction(2), "b": Fraction(3, 2)}


def test_beta_bound_fx5():
    inst = fixtures.fx5()
    check = beta_bound_check(inst, truthful_profile(inst))
    assert (check.beta, check.k_star, check.lhs, check.rhs, check.ok) == (
        Fraction(1),
        1,
        Fraction(1),
        Fraction(4),
        True,
    )


def test_beta_bound_fx2():
    inst = fixtures.fx2()
    check = beta_bound_check(inst, truthful_profile(inst))
    assert check.k_star == 3
    assert check.beta == Fraction(7, 6)  # the upgraded ad's value density
    assert check.lhs == Fraction(14, 3)
    assert check.rhs == 14
    assert check.ok


def test_beta_bound_holds_on_corpus(small_corpus):
    for inst in small_corpus[:60]:
        assert beta_bound_check(inst, truthful_profile(inst)).ok


def test_mechanism_describe():
    assert gsp_mixture_mechanism().describe() == "mixture(p=1/2)+gsp"
    assert myerson_mixture_mechanism().describe() == "mixture(p=2/3)+myerson"
    assert pricing.Mechanism("vcg").describe() == "vcg"


def test_poa_report_rows():
    inst = fixtures.fx5()
    truth = truthful_profile(inst)
    rows = poa_report(inst, truth, gsp_mixture_mechanism(), [truth])
    assert len(rows) == 1
    row = rows[0]
    assert row["sw"] == "1" and row["int_opt_sw"] == "1" and row["ratio_int_opt"] == "1"
    assert row["frac_opt_value"] == "1"
    assert row["utilities"] == {"a": "0", "b": "0"}
    assert row["payments"] == {"a": "1", "b": "0"}
    assert row["profile"]["bids"] == {"a": "1", "b": "1"}
    assert row["profile"]["subsets"] == {"a": ["ax1"], "b": ["bx1"]}


@pytest.mark.parametrize("kind", ["gsp", "myerson", "vcg"])
def test_poa_report_prices_each_equilibrium_on_one_view(monkeypatch, kind):
    # the truthful equilibrium is priced by `Mechanism.price` on the exact
    # optimum's own view, under every pricing; the rows equal the profile
    # evaluator's
    built = []
    init = kernels.ScaledView.__init__

    def counting(self, inst, rep):
        built.append(rep)
        init(self, inst, rep)

    mech = pricing.mixture_mechanism(kind)
    for name in ("fx1", "fx2i", "fx4", "fx6a", "fx5"):
        inst = fixtures.fixture(name)
        truth = truthful_profile(inst)
        with monkeypatch.context() as m:
            m.setattr(kernels.ScaledView, "__init__", counting)
            built.clear()
            [row] = poa_report(inst, truth, mech, [truth])
            assert len(built) == 1, name
        ev = equilibrium._Evaluator(inst, truth, mech)
        assert row["utilities"] == {a: str(ev.utility(truth, a)) for a in inst.adv_ids()}
        assert row["payments"] == {a: str(ev.payment(truth, a)) for a in inst.adv_ids()}


def test_bid_grid_guard_counts_the_grid_exactly(monkeypatch):
    inst = fixtures.fx4()
    for delta in (Fraction(1, 3), Fraction(1, 7), Fraction(2), Fraction(5, 2)):
        largest = max(len(s.bids) for s in strategy_spaces(inst, delta).values())
        monkeypatch.setattr(equilibrium, "STRATEGY_BIDS_GUARD", largest)
        strategy_spaces(inst, delta)
        monkeypatch.setattr(equilibrium, "STRATEGY_BIDS_GUARD", largest - 1)
        with pytest.raises(GuardExceededError, match=f"would have {largest} grid bids"):
            strategy_spaces(inst, delta)
        monkeypatch.undo()


def test_bid_grid_guard_fires_before_the_grid_is_built():
    # about 10**9 grid points per advertiser: only a count made before any
    # Fraction is built returns at once
    with pytest.raises(GuardExceededError, match="bid grid guard is 10000"):
        strategy_spaces(fixtures.fx4(), Fraction(1, 10**9))


# --- the best-response sweep against the profile-by-profile oracle ------------

SWEEP_MECHANISMS = (
    gsp_mixture_mechanism(),
    myerson_mixture_mechanism(),
    gsp_mixture_mechanism(Fraction(0)),
    gsp_mixture_mechanism(Fraction(1)),
    myerson_mixture_mechanism(Fraction(0)),
    myerson_mixture_mechanism(Fraction(1)),
)


def dynamics_pool(seed=11):
    """The `dynamics` benchmark's game shapes: four fixtures at grid 1/20 and
    60 random games of up to 3 advertisers x 2 ads at grid 1/4, drawn at `seed`."""
    games = [(fixtures.fixture(name), Fraction(1, 20)) for name in ("fx1", "fx2i", "fx4", "fx6a")]
    cfg = harness.ExperimentConfig(
        seed=seed, instances=60, max_advertisers=3, max_ads=2, max_space=8, max_total_space=16
    )
    return games + [(inst, Fraction(1, 4)) for inst in harness.generate_corpus(cfg)]


def assert_sweep_matches(inst, rep, mech, spaces):
    """The sweep's table and best response equal the oracle's, which runs
    on an evaluator of its own."""
    truth = truthful_profile(inst)
    ev = equilibrium._Evaluator(inst, truth, mech)
    oracle = equilibrium._Evaluator(inst, truth, mech)
    for adv_id, space in spaces.items():
        assert ev.utility_table(rep, adv_id, space) == profile_table(oracle, rep, adv_id, space), (
            adv_id,
            mech.describe(),
        )
        assert best_response(inst, truth, rep, adv_id, mech, space, _evaluator=ev) == best_response_by_profiles(
            inst, truth, rep, adv_id, mech, space, _evaluator=oracle
        )


def profile_text(rep):
    """`rep`'s bids and subsets, sorted."""
    bids = ",".join(f"{a}={b}" for a, b in sorted(rep.bids.items()))
    subsets = ",".join(f"{a}={'+'.join(sorted(s))}" for a, s in sorted(rep.subsets.items()))
    return f"bids[{bids}] subsets[{subsets}]"


def shaded(inst, rep, k=2):
    """`rep` with every bid divided by k."""
    return ReportProfile(bids={a: b / k for a, b in rep.bids.items()}, subsets=dict(rep.subsets))


@pytest.mark.parametrize("mech", SWEEP_MECHANISMS, ids=lambda m: m.describe())
def test_sweep_table_equals_the_profile_oracle_on_the_dynamics_pool(mech):
    # the benchmark's two mixtures on the whole pool, from the truthful and
    # a shaded report; the p = 0 and p = 1 overrides on its first 24 games
    main = mech in SWEEP_MECHANISMS[:2]
    for inst, grid in dynamics_pool()[: None if main else 24]:
        truth = truthful_profile(inst)
        spaces = strategy_spaces(inst, grid)
        assert_sweep_matches(inst, truth, mech, spaces)
        if main:
            assert_sweep_matches(inst, shaded(inst, truth), mech, spaces)


GREEDY_MECHANISMS = tuple(
    pricing.Mechanism(kind, pricing.AllocationRule(name))
    for name in ("greedy-bpb", "greedy-value", "randomized-greedy")
    for kind in ("myerson", "gsp")
)


@pytest.mark.parametrize("mech", GREEDY_MECHANISMS, ids=lambda m: m.describe())
def test_greedy_sweep_table_equals_the_profile_oracle(mech):
    # fx1 and fx4 and the first 20 random games of the dynamics pool, from
    # the truthful and a shaded report
    pool = dynamics_pool()
    for inst, grid in [pool[0], pool[2], *pool[4:24]]:
        truth = truthful_profile(inst)
        spaces = strategy_spaces(inst, grid)
        for rep in (truth, shaded(inst, truth)):
            assert_sweep_matches(inst, rep, mech, spaces)


def test_a_capped_greedy_drop_raises_the_same_error_on_both_paths():
    # capped at 2, a1's greedy-bpb clicks at the truthful report drop from
    # 1 to 0 past the bid 27/20: under Myerson the sweep and the profile
    # oracle build that one curve and raise alike; GSP reads no curve where
    # a1 has no clicks, which is every grid bid, and both tables agree
    inst = harness.generate_corpus(harness.ExperimentConfig(seed=0, instances=7, cardinality=2))[6]
    truth = truthful_profile(inst)
    space = strategy_spaces(inst, Fraction(1, 2))["a1"]

    def table_or_error(table, mech):
        try:
            return table(equilibrium._Evaluator(inst, truth, mech))
        except NonMonotoneClickCurveError as exc:
            return str(exc)

    for mech in GREEDY_MECHANISMS:
        if mech.rule.name == "greedy-value":
            continue
        swept = table_or_error(lambda ev: ev.utility_table(truth, "a1", space), mech)
        assert swept == table_or_error(lambda ev: profile_table(ev, truth, "a1", space), mech)
        if mech.pricing == "myerson":
            assert "'a1' under rule 'greedy-bpb' drop from 1 on (Fraction(21, 16), Fraction(27, 20)) to 0" in swept
        else:
            assert isinstance(swept, list)


def test_a_drop_at_the_bid_itself_raises_the_same_error_on_both_paths():
    # capped at 1, a1's greedy-bpb clicks are 1 on (3, 4) and 0 at exactly
    # 4, their true value: under Myerson both paths raise on the point
    # (4, 4); GSP reads no curve where a1 has no clicks, and both tables agree
    inst = harness.generate_corpus(replace(harness.tie_prone_config(seed=1, instances=60), cardinality=1))[35]
    truth = truthful_profile(inst)
    space = strategy_spaces(inst, Fraction(1, 2))["a1"]

    def table_or_error(table, mech):
        try:
            return table(equilibrium._Evaluator(inst, truth, mech))
        except NonMonotoneClickCurveError as exc:
            return str(exc)

    for mech in GREEDY_MECHANISMS:
        swept = table_or_error(lambda ev: ev.utility_table(truth, "a1", space), mech)
        assert swept == table_or_error(lambda ev: profile_table(ev, truth, "a1", space), mech)
        if mech.pricing == "myerson" and mech.rule.name != "greedy-value":
            assert swept.endswith("drop from 1 on (Fraction(3, 1), Fraction(4, 1)) to 0 on (Fraction(4, 1), Fraction(4, 1))")
        else:
            assert isinstance(swept, list)


def wrap_probes(monkeypatch, wrapper):
    """Every branch's probe replaced by `wrapper(branch, probe)`, a probe."""
    for name, branch in pricing.BRANCHES.items():
        monkeypatch.setitem(pricing.BRANCHES, name, replace(branch, probe=wrapper(name, branch.probe)))


def at_cap_views(ev, profile):
    """(g, others, subset, the view of g's row) for every bidder g of
    `profile` and every nonempty subset of their grid: the one view of the
    row, with g at the cap on their whole catalog."""
    for g, adv_id in enumerate(ev.ids):
        others = profile[:g] + profile[g + 1 :]
        view = ev._at_cap(g, others, ev._grids[adv_id][3])
        for subset in ev.spaces[adv_id].subsets:
            if subset:
                yield g, others, subset, view


@pytest.mark.parametrize("mech", SWEEP_MECHANISMS[:2], ids=lambda m: m.describe())
@pytest.mark.parametrize("name", ("fx1", "fx4"))
def test_a_row_reads_the_probe_only_at_breakpoint_bids(name, mech, monkeypatch):
    # each bidder's row against the truthful others, asked for again once
    # its view and curves are kept: a sweep reads each branch's clicks off
    # its curve, so the probe for each subset is read only at the top bid
    # and at the grid bids on one of that branch's breakpoints; a branch
    # with no clicks at the top bid, both branches being proven
    # nondecreasing, reads no curve and no other bid, under either pricing
    inst = fixtures.fixture(name)
    truth = truthful_profile(inst)
    ev = equilibrium._Evaluator(inst, truth, mech, strategy_spaces(inst, Fraction(1, 20)))
    profile = ev._index(truth)
    for g in range(len(ev.ids)):
        ev.row(g, profile[:g] + profile[g + 1 :])
    want = Counter()
    swept = 0  # the reads of a sweep that probes every positive bid
    for g, _others, subset, view in at_cap_views(ev, profile):
        adv_id = ev.ids[g]
        bids = ev.spaces[adv_id].bids[ev._grids[adv_id][0] :]
        for _prob, branch in ev.branches:
            swept += len(bids)
            curve = view._memo.get(("curve", adv_id, branch, subset))
            on = [bid for bid in bids if curve is not None and bid in curve.thresholds[1:]]
            want.update((view, subset, branch, bid) for bid in [bids[-1], *on])
    read = Counter()
    wrap_probes(
        monkeypatch,
        lambda branch, probe: lambda bidder, num, den: read.update(
            [(bidder.view, bidder.subset, branch, Fraction(num, den))]
        )
        or probe(bidder, num, den),
    )
    ev._rows.clear()
    built = ev.curves_built
    for g in range(len(ev.ids)):
        ev.row(g, profile[:g] + profile[g + 1 :])
    assert ev.curves_built == built and read == want
    # both pricings read the same bids (Myerson's reads were 10 and 2 while
    # it built a curve for every branch and read no top bid)
    reads = {"fx1": 19, "fx4": 10}[name]
    assert sum(want.values()) == reads and reads < swept / 2


@pytest.mark.parametrize("kind", ("myerson", "gsp"))
@pytest.mark.parametrize("p", (Fraction(1, 2), Fraction(2, 3)), ids=str)
def test_a_drop_at_an_on_grid_breakpoint_still_raises(kind, p, monkeypatch):
    # a probe made to read one level below the run under an on-grid
    # breakpoint bid, in one view and subset alone: fx1's a at their top
    # bid 11/10 and fx4's b at 1, below their top, both on a bpb breakpoint
    # where the run under has 10/11 and 2/40001 clicks; the sweep, reading
    # the probe there, raises the drop on (b, b), under either pricing
    mech = pricing.Mechanism(kind, pricing.mixture_rule(p))
    for name, adv_id, bid in (("fx1", "a", Fraction(11, 10)), ("fx4", "b", Fraction(1))):
        inst = fixtures.fixture(name)
        truth = truthful_profile(inst)
        ev = equilibrium._Evaluator(inst, truth, mech, strategy_spaces(inst, Fraction(1, 20)))
        g = ev.ids.index(adv_id)
        _g, others, subset, view = next(cell for cell in at_cap_views(ev, ev._index(truth)) if cell[0] == g)
        curve = ev._curve(view, adv_id, "bpb", subset)
        assert bid in curve.thresholds[1:]
        level = [x for lo, x in curve.runs if Fraction(lo, curve.den) < bid][-1]
        assert level > 1

        def dropped(branch, probe):
            def read(bidder, num, den):
                if branch == "bpb" and (bidder.view, bidder.subset) == (view, subset) and Fraction(num, den) == bid:
                    return level - 1
                return probe(bidder, num, den)

            return read

        wrap_probes(monkeypatch, dropped)
        with pytest.raises(NonMonotoneClickCurveError) as err:
            ev.row(g, others)
        monkeypatch.undo()
        c = curve.click_den
        assert (err.value.adv_id, err.value.right_interval) == (adv_id, (bid, bid))
        assert (err.value.left_clicks, err.value.right_clicks) == (Fraction(level, c), Fraction(level - 1, c))


def test_vcg_table_equals_the_profile_oracle():
    for name in ("fx1", "fx4"):
        inst = fixtures.fixture(name)
        assert_sweep_matches(inst, truthful_profile(inst), pricing.Mechanism("vcg"), strategy_spaces(inst, Fraction(1, 20)))


@st.composite
def games(draw):
    """A small instance, a report of the others (bids on a quarter grid of
    value, any subsets), a grid step, and a mechanism."""
    advertisers = []
    widest = 1
    for i in range(draw(st.integers(1, 3))):
        value = Fraction(draw(st.integers(1, 12)), draw(st.sampled_from((1, 2, 3))))
        ads = []
        for j in range(draw(st.integers(1, 2))):
            space = draw(st.integers(1, 6))
            widest = max(widest, space)
            ads.append(RichAd(f"a{i}x{j}", Fraction(draw(st.integers(1, 4)), 4), Fraction(space)))
        advertisers.append(Advertiser(f"a{i}", value, tuple(ads)))
    inst = Instance(advertisers=tuple(advertisers), total_space=Fraction(draw(st.integers(widest, widest + 8))))
    bids, subsets = {}, {}
    for adv in inst.advertisers:
        bids[adv.adv_id] = adv.value_per_click * Fraction(draw(st.integers(0, 4)), 4)
        ids = adv.ad_ids()
        mask = draw(st.integers(0, 2 ** len(ids) - 1))
        subsets[adv.adv_id] = frozenset(a for k, a in enumerate(ids) if mask >> k & 1)
    step = draw(st.sampled_from((Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))))
    kind = draw(st.sampled_from(("gsp", "myerson")))
    p = draw(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1))))
    mech = gsp_mixture_mechanism(p) if kind == "gsp" else myerson_mixture_mechanism(p)
    return inst, ReportProfile(bids=bids, subsets=subsets), step, mech


@settings(max_examples=60, deadline=None)
@given(games())
def test_sweep_table_equals_the_profile_oracle_on_random_games(game):
    inst, rep, step, mech = game
    assert_sweep_matches(inst, rep, mech, strategy_spaces(inst, step))


def tie_spaces(inst, rep):
    """Per advertiser, every subset crossed with bid 0, every bid up to
    their true value where an ad of their full subset ties another's
    bang-per-buck or value (the breakpoints of both mixture branches'
    click curves), and the true value: bids exactly where clicks can jump."""
    spaces = {}
    for adv_id, space in strategy_spaces(inst, Fraction(1)).items():
        at_truth = rep.replace(adv_id, inst.advertiser(adv_id).value_per_click, space.subsets[0])
        view = kernels.ScaledView(inst, at_truth)
        ties, den = view.probe(adv_id).ties(("bpb", "value"), at_truth.bids[adv_id])
        bids = tuple(sorted({Fraction(0), at_truth.bids[adv_id]} | {Fraction(t, den) for t in ties}))
        spaces[adv_id] = replace(space, bids=bids)
    return spaces


def test_every_branch_a_sweep_prices_without_a_curve_gives_no_clicks(monkeypatch):
    # a sweep skips the curve of a proven-nondecreasing branch whose probe
    # reads no clicks at the top bid, under either pricing, and under GSP
    # that of a scanned branch with no clicks at any bid; each skipped
    # curve, built anyway over every pairwise tie, is all zero. Every
    # search of the `dynamics` benchmark's pool at seed 0, under both
    # mixtures and the randomized greedy lottery, whose greedy-bpb is scanned
    mechs = SWEEP_MECHANISMS[:2] + tuple(
        pricing.Mechanism(kind, pricing.AllocationRule("randomized-greedy")) for kind in ("myerson", "gsp")
    )
    calls = recording_threshold_payments(monkeypatch)
    for inst, grid in dynamics_pool(0):
        truth, spaces = truthful_profile(inst), strategy_spaces(inst, grid)
        for mech in mechs:
            try:
                find_pure_nash(inst, truth, mech, spaces)
            except NonMonotoneClickCurveError:
                pass  # a scanned rule's drop
    assert check_curveless_branches(calls) == Counter({("myerson", "sweep"): 320, ("gsp", "sweep"): 352})


def test_sweep_is_exact_on_tie_bids(tie_corpus):
    pool = [fixtures.fixture(name) for name in fixtures.BUILDERS] + list(tie_corpus[:30])
    for inst in pool:
        truth = truthful_profile(inst)
        for rep in (truth, shaded(inst, truth, 3)):
            spaces = tie_spaces(inst, rep)
            for mech in SWEEP_MECHANISMS[:2]:
                assert_sweep_matches(inst, rep, mech, spaces)


def test_integer_pass_equals_the_fraction_oracle_at_tie_bids_on_the_dynamics_pool():
    # both mixtures' branches, every bidder, truthful and shaded reports;
    # the curve's levels below the level under a tie bid are drops there
    drops = 0
    for inst, _grid in dynamics_pool():
        truth = truthful_profile(inst)
        for rep in (truth, shaded(inst, truth)):
            view = kernels.ScaledView(inst, rep)
            for adv in inst.advertisers:
                for branch in ("bpb", "max-value"):
                    curve = pricing._build_curve(view, adv.adv_id, rep.bids[adv.adv_id], branch, branch)
                    drops += integer_pass_drops_at_tie_bids(view, curve, branch)
    assert drops > 0


# pairwise coprime denominators: grid 1/7, values over 3, click rates over 5
# and 2, mixture weights 2/3 and 1/2
COPRIME = Instance(
    advertisers=(
        Advertiser("a", Fraction(10, 3), (RichAd("ax1", Fraction(2, 5), Fraction(3)), RichAd("ax2", Fraction(1, 2), Fraction(5)))),
        Advertiser("b", Fraction(8, 3), (RichAd("bx1", Fraction(3, 5), Fraction(4)), RichAd("bx2", Fraction(1, 2), Fraction(2)))),
        Advertiser("c", Fraction(7, 3), (RichAd("cx1", Fraction(4, 5), Fraction(6)),)),
    ),
    total_space=Fraction(9),
)


@pytest.mark.parametrize(
    "mech",
    [pricing.Mechanism(kind, pricing.mixture_rule(p)) for kind in ("myerson", "gsp") for p in (Fraction(2, 3), Fraction(1, 2))],
    ids=lambda m: m.describe(),
)
def test_sweep_is_exact_when_no_two_denominators_share_a_factor(mech):
    # a wrong lcm in the integer pass would show here, where the dynamics
    # pool's denominators all share the factor 2
    truth = truthful_profile(COPRIME)
    spaces = strategy_spaces(COPRIME, Fraction(1, 7))
    dens = 1  # the swept utilities' denominators: the values' and rates' factors reach them
    for rep in (truth, shaded(COPRIME, truth)):
        assert_sweep_matches(COPRIME, rep, mech, spaces)
        ev = equilibrium._Evaluator(COPRIME, truth, mech)
        for adv_id, space in spaces.items():
            cap = truth.bids[adv_id]
            for subset, row in zip(space.subsets, ev.utility_table(rep, adv_id, space)):
                assert all(type(u) is Fraction and gcd(u.numerator, u.denominator) == 1 for u in row)
                if subset:
                    want = sweep_by_fractions(ev, rep.replace(adv_id, cap, subset), adv_id, space.bids)
                    assert {bid: row[space.bids.index(bid)] for bid in want} == want
                    dens = lcm(dens, *(u.denominator for u in want.values()))
    assert all(dens % q == 0 for q in (2, 3, 5)), dens


def test_a_grid_must_be_nonnegative_and_strictly_ascending():
    subsets = (frozenset({"ax1"}), frozenset())
    for bids in ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(1), Fraction(1)), (Fraction(-1, 7), Fraction(0))):
        with pytest.raises(ValueError, match="nonnegative and strictly ascending"):
            equilibrium.StrategySpace("a", bids, subsets)
    assert equilibrium.StrategySpace("a", (Fraction(0), Fraction(1, 7)), subsets).bids[-1] == Fraction(1, 7)


def test_bids_above_the_truth_are_swept():
    # every positive bid, the one above the truth too, is priced against
    # the curves capped at the top bid: no utility is evaluated profile by
    # profile, the row builds one view, at the top bid on the whole catalog,
    # which serves every nonempty subset, and the table equals the oracle's
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    value = truth.bids["b"]
    top = value + Fraction(1, 3)
    space = replace(strategy_spaces(inst, Fraction(1, 4))["b"], bids=(Fraction(0), value / 2, value, top))
    for mech in SWEEP_MECHANISMS[:2]:
        ev = equilibrium._Evaluator(inst, truth, mech)
        evaluated = []
        by_profile = ev.utility
        ev.utility = lambda rep, adv_id: evaluated.append(rep) or by_profile(rep, adv_id)
        table = ev.utility_table(truth, "b", space)
        assert table == profile_table(equilibrium._Evaluator(inst, truth, mech), truth, "b", space)
        assert evaluated == []
        assert [view.rep.key() for view in ev._views.values()] == [truth.replace("b", top, FULL_B).key()]


@pytest.mark.parametrize("mech", SWEEP_MECHANISMS[:2], ids=lambda m: m.describe())
def test_nash_search_is_unchanged_with_the_oracle_patched_in(mech, monkeypatch):
    pool = [(inst, truthful_profile(inst), strategy_spaces(inst, grid)) for inst, grid in dynamics_pool()]
    swept = [find_pure_nash(inst, truth, mech, spaces) for inst, truth, spaces in pool]
    # find_pure_nash reads best responses and the current utility off the rows
    monkeypatch.setattr(equilibrium._Evaluator, "row", profile_rows)
    assert [find_pure_nash(inst, truth, mech, spaces) for inst, truth, spaces in pool] == swept


@pytest.mark.parametrize("mech", SWEEP_MECHANISMS[:2], ids=lambda m: m.describe())
def test_every_row_a_nash_search_reads_equals_the_profile_oracle(mech, monkeypatch):
    # the rows at every profile a search from truth visits on the seed-0
    # pool, the others' index profiles decoded, against `profile_table` on
    # an evaluator of its own
    row = equilibrium._Evaluator.row
    checked = []

    def compared(ev, g, others):
        got = row(ev, g, others)
        adv_id = ev.ids[g]
        rep = ev._report(others[:g] + ((0, 0),) + others[g:])
        oracle = equilibrium._Evaluator(ev.inst, ev.truth, ev.mech)
        assert [[Fraction(u, den) for u in us] for us, den in got] == profile_table(
            oracle, rep, adv_id, ev.spaces[adv_id]
        ), (adv_id, rep)
        start = ev._index(ev.truth)
        checked.append(others != start[:g] + start[g + 1 :])
        return got

    monkeypatch.setattr(equilibrium._Evaluator, "row", compared)
    for inst, grid in dynamics_pool(seed=0):
        find_pure_nash(inst, truthful_profile(inst), mech, strategy_spaces(inst, grid))
    # GSP dynamics leave the truth, so some rows are read against moved bidders
    assert len(checked) > 100 and any(checked) == (mech.pricing == "gsp")


@pytest.mark.parametrize("mech", SWEEP_MECHANISMS[:2], ids=lambda m: m.describe())
def test_integer_argmax_equals_the_fraction_argmax_on_the_dynamics_pool(mech, monkeypatch):
    # every row set a Nash search from truth reads on the seed-0 pool; most
    # hold ties (zero utilities at least), so the tie rule is exercised too
    best_of = equilibrium._best_of
    tables = []

    def checked(rows, space):
        bi, si, n, d = got = best_of(rows, space)
        table = [[Fraction(u, den) for u in us] for us, den in rows]
        assert (space.bids[bi], space.subsets[si], Fraction(n, d)) == best_of_by_fractions(table, space)
        tables.append(sum(row.count(Fraction(n, d)) for row in table) > 1)
        return got

    monkeypatch.setattr(equilibrium, "_best_of", checked)
    for inst, grid in dynamics_pool(seed=0):
        find_pure_nash(inst, truthful_profile(inst), mech, strategy_spaces(inst, grid))
    assert len(tables) > 100 and any(tables)


def test_a_utility_builds_one_view_per_report(monkeypatch):
    # fx4's b bidding 1/2, below their value, under the GSP mixture: the
    # utility is a one-bid sweep, so the one view of the report at the cap
    # serves the probe's clicks and both curves the payment reads, and the
    # report's own view is not built
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    mech = gsp_mixture_mechanism()
    built = []
    init = kernels.ScaledView.__init__

    def counting(self, inst, rep):
        built.append(rep.bids["b"])
        init(self, inst, rep)

    value = truth.bids["b"]
    for bid, views in ((Fraction(1, 2), [value]), (value, [value])):
        rep = truth.replace("b", bid, FULL_B)
        ev = equilibrium._Evaluator(inst, truth, mech)
        with monkeypatch.context() as m:
            m.setattr(kernels.ScaledView, "__init__", counting)
            built.clear()
            got = ev.utility(rep, "b")
            assert built == views and ev.curves_built == 2
            # the same utility again reads the kept views' memos: it builds nothing
            assert ev.utility(rep, "b") == got
            assert built == views and (ev.curves_built, ev.curves_cached) == (2, 2)
        assert got == utility(inst, truth, rep, mech)["b"]


@pytest.mark.parametrize("mech", SWEEP_MECHANISMS[:2], ids=lambda m: m.describe())
def test_a_nash_search_builds_one_view_per_report(mech, monkeypatch):
    # a search from truth on the seed-0 pool builds one view per (bidder,
    # others) row it reads, the others as given and the bidder at the cap on
    # their whole catalog, and none for a report an earlier view had: the
    # truthful report serves every bidder's first row
    keys, rows = [], []
    init, row = kernels.ScaledView.__init__, equilibrium._Evaluator.row

    def counting(self, inst, rep):
        keys.append(rep.key())
        init(self, inst, rep)

    def asked(ev, g, others):
        adv = ev.inst.advertisers[g]
        at_cap = ev._report(others[:g] + ((ev._grids[adv.adv_id][3], 0),) + others[g:])
        rows.append(at_cap.replace(adv.adv_id, at_cap.bids[adv.adv_id], frozenset(adv.ad_ids())).key())
        return row(ev, g, others)

    monkeypatch.setattr(kernels.ScaledView, "__init__", counting)
    monkeypatch.setattr(equilibrium._Evaluator, "row", asked)
    views = 0
    for inst, grid in dynamics_pool(seed=0):
        keys.clear()
        rows.clear()
        find_pure_nash(inst, truthful_profile(inst), mech, strategy_spaces(inst, grid))
        assert keys == list(dict.fromkeys(rows)), inst
        views += len(keys)
    assert views == {"gsp": 67, "myerson": 64}[mech.pricing]


@pytest.mark.parametrize("mech", SWEEP_MECHANISMS[:2], ids=lambda m: m.describe())
def test_a_repeated_utility_table_builds_no_view_and_no_curve(mech, monkeypatch):
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    spaces = strategy_spaces(inst, Fraction(1, 20))
    built = []
    init = kernels.ScaledView.__init__

    def counting(self, inst, rep):
        built.append(rep)
        init(self, inst, rep)

    monkeypatch.setattr(kernels.ScaledView, "__init__", counting)
    curves = 0
    for rep in (truth, shaded(inst, truth)):
        for adv_id, space in spaces.items():
            ev = equilibrium._Evaluator(inst, truth, mech)
            table = ev.utility_table(rep, adv_id, space)
            assert built
            built.clear()
            curves += ev.curves_built
            first = (ev.curves_built, ev.curves_cached)
            assert ev.utility_table(rep, adv_id, space) == table
            # each curve lookup of the first table is served again
            assert built == [] and (ev.curves_built, ev.curves_cached) == (first[0], first[1] + sum(first))
    # GSP reads no curve for a bidder who gets no clicks at any grid bid
    assert curves > 0


def test_a_vcg_evaluator_holds_no_view():
    # a kept VCG view would hold its capacity DP for the whole search
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    ev = equilibrium._Evaluator(inst, truth, pricing.Mechanism("vcg"))
    for adv_id, space in strategy_spaces(inst, Fraction(1, 20)).items():
        ev.utility_table(truth, adv_id, space)
    assert ev._views == {} and ev._vcg


def test_current_utility_off_the_grid_is_evaluated_by_profile():
    # grids without the true values: the truthful start is on none of them,
    # so its utility cannot be read off the best-response table
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    mech = gsp_mixture_mechanism()
    off = {a: replace(s, bids=s.bids[:-1]) for a, s in strategy_spaces(inst, Fraction(1, 4)).items()}
    assert all(truth.bids[a] not in s.bids for a, s in off.items())
    steps = []
    find_pure_nash(inst, truth, mech, off, explain=steps)
    ev = equilibrium._Evaluator(inst, truth, mech)
    assert steps[0]["utility"] == str(ev.utility(truth, steps[0]["bidder"]))


def test_explain_lists_each_rounds_best_responses():
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    steps = []
    result = find_pure_nash(inst, truth, gsp_mixture_mechanism(), strategy_spaces(inst, Fraction(1, 100)), explain=steps)
    assert result.rounds == 2
    assert [(s["round"], s["bidder"]) for s in steps] == [(1, "a"), (1, "b"), (2, "a"), (2, "b")]
    b_first = steps[1]
    assert b_first["deviations"] == 102 * 4
    assert b_first["best_response"] == {"bid": "1/50", "subset": ["bx1", "bx2"]}
    assert b_first["gain"] == "1/80000"
    assert b_first["curves_built"] > 0
    assert [s["gain"] for s in steps[2:]] == ["0", "0"]
    assert find_pure_nash(inst, truth, gsp_mixture_mechanism(), strategy_spaces(inst, Fraction(1, 100))) == result
    # the curve counts cover finding the best response, not pricing the
    # current report: a stays truthful, so b's row is against the truth;
    # every branch of a's row gives a no clicks at the top bid, so it
    # builds no curve
    mech = myerson_mixture_mechanism()
    spaces = strategy_spaces(inst, Fraction(1, 20))
    counted = []
    find_pure_nash(inst, truth, mech, spaces, explain=counted)
    assert counted[0]["gain"] == "0"
    counts = []
    for adv_id in ("a", "b"):
        ev = equilibrium._Evaluator(inst, truth, mech)
        best_response(inst, truth, truth, adv_id, mech, spaces[adv_id], _evaluator=ev)
        counts.append((ev.curves_built, ev.curves_cached))
    assert [(s["curves_built"], s["curves_cached"]) for s in counted[:2]] == counts == [(0, 0), (5, 0)]


@pytest.mark.parametrize("mech", SWEEP_MECHANISMS[:2], ids=lambda m: m.describe())
def test_a_payment_up_to_the_truth_reads_the_sweeps_curves(mech):
    # the sweep and a single payment price on one path and share the curve
    # cache: every grid bid up to the truth is priced without a new curve
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    served = 0
    for adv_id, space in strategy_spaces(inst, Fraction(1, 20)).items():
        ev = equilibrium._Evaluator(inst, truth, mech)
        table = ev.utility_table(truth, adv_id, space)
        built, cached = ev.curves_built, ev.curves_cached
        for si, subset in enumerate(space.subsets):
            for bi, bid in enumerate(space.bids):
                if 0 < bid <= truth.bids[adv_id]:
                    rep = truth.replace(adv_id, bid, subset)
                    assert ev.utility(rep, adv_id) == table[si][bi]
        assert ev.curves_built == built
        served += ev.curves_cached - cached
    # GSP reads no curve for a bidder who gets no clicks at any grid bid
    assert served > 0


OFF_GRID_MECHANISMS = SWEEP_MECHANISMS[:2] + tuple(
    pricing.Mechanism(kind, pricing.AllocationRule("greedy-value")) for kind in ("myerson", "gsp")
)


@pytest.mark.parametrize("mech", OFF_GRID_MECHANISMS, ids=lambda m: m.describe())
def test_an_off_grid_payment_and_utility_equal_the_mechanisms(mech):
    # one-bid sweeps at reports no grid holds: bids between grid points and
    # above the truth, on every subset, the others truthful, on a slice of
    # the seed-0 dynamics pool; one evaluator per game keeps its views
    pool = dynamics_pool(seed=0)
    for inst, grid in pool[:4] + pool[4::4]:
        truth = truthful_profile(inst)
        ev = equilibrium._Evaluator(inst, truth, mech)
        for adv_id, space in strategy_spaces(inst, grid).items():
            value = truth.bids[adv_id]
            for subset in space.subsets:
                for bid in (grid / 3, value * Fraction(5, 7), value + grid / 2, 2 * value + 1):
                    rep = truth.replace(adv_id, bid, subset)
                    assert ev.payment(rep, adv_id) == mech.price(inst, rep).payments[adv_id], (adv_id, bid, subset)
                    assert ev.utility(rep, adv_id) == utility(inst, truth, rep, mech)[adv_id], (adv_id, bid, subset)


@pytest.mark.parametrize("mech", (*SWEEP_MECHANISMS[:2], pricing.Mechanism("vcg")), ids=lambda m: m.describe())
def test_a_nash_search_makes_no_report_key_call(mech, monkeypatch):
    # a search keys its profiles, views and VCG outcomes by strategy
    # indices: `ReportProfile.key` sorts and hashes the whole profile on
    # each call, and no search on the seed-0 pool makes one (VCG's on its
    # first 24 games)
    keyed = []
    key = ReportProfile.key
    monkeypatch.setattr(ReportProfile, "key", lambda rep: keyed.append(rep) or key(rep))
    pool = dynamics_pool(seed=0)[: 24 if mech.pricing == "vcg" else None]
    rounds = sum(
        find_pure_nash(inst, truthful_profile(inst), mech, strategy_spaces(inst, grid)).rounds for inst, grid in pool
    )
    assert keyed == [] and rounds >= len(pool)


@pytest.mark.parametrize("mech", SWEEP_MECHANISMS[:2], ids=lambda m: m.describe())
def test_a_repeated_row_builds_no_view_curve_or_sweep(mech, monkeypatch):
    # the rows a search reads, asked for again by (bidder, others' indices):
    # the kept row is returned as it is, and its curve lookups count as served
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    spaces = strategy_spaces(inst, Fraction(1, 20))
    asked = []
    row = equilibrium._Evaluator.row
    monkeypatch.setattr(
        equilibrium._Evaluator, "row", lambda ev, g, others: asked.append((ev, g, others)) or row(ev, g, others)
    )
    find_pure_nash(inst, truth, mech, spaces)
    monkeypatch.undo()
    work = []
    init, sweep, build = kernels.ScaledView.__init__, equilibrium._Evaluator._sweep, pricing._build_curve
    monkeypatch.setattr(kernels.ScaledView, "__init__", lambda self, *a: work.append("view") or init(self, *a))
    monkeypatch.setattr(equilibrium._Evaluator, "_sweep", lambda self, *a: work.append("sweep") or sweep(self, *a))
    monkeypatch.setattr(pricing, "_build_curve", lambda *a: work.append("curve") or build(*a))
    ev, _g, _others = asked[0]
    # GSP's search asks for a row again itself: fx4's b moves, a does not, and b stays
    assert (len({(g, others) for _ev, g, others in asked}) < len(asked)) == (mech.pricing == "gsp")
    served = 0
    for _ev, g, others in asked:
        built, cached = ev.curves_built, ev.curves_cached
        rows, lookups = ev._rows[g, others]
        assert ev.row(g, others) is rows
        assert (ev.curves_built, ev.curves_cached) == (built, cached + lookups)
        served += lookups
    assert work == [] and served > 0


@pytest.mark.parametrize("name, mech, status, rounds, end", [
    ("fx4", gsp_mixture_mechanism(), "converged", 2, "bids[a=1/100,b=1/4] subsets[a=ax1,b=bx1+bx2]"),
    ("fx4", myerson_mixture_mechanism(), "converged", 1, "bids[a=1/100,b=40001/40000] subsets[a=ax1,b=bx1+bx2]"),
    ("fx1", gsp_mixture_mechanism(), "converged", 5, "bids[a=1,b=1] subsets[a=ax1+ax2,b=bx1]"),
    ("fx1", myerson_mixture_mechanism(), "converged", 1, "bids[a=11/10,b=11/10] subsets[a=ax1+ax2,b=bx1+bx2]"),
])
def test_a_search_on_grids_without_the_true_values_takes_the_off_grid_path(
    name, mech, status, rounds, end, monkeypatch
):
    # the truthful start is on no grid, so each bidder's first current
    # utility is priced on its own (`_Evaluator.utility`); the pinned ends
    # are those of the search that read `ReportProfile`s, not indices, and a
    # bidder who never moves ends at their off-grid true value
    inst = fixtures.fixture(name)
    truth = truthful_profile(inst)
    off = {a: replace(s, bids=s.bids[:-1]) for a, s in strategy_spaces(inst, Fraction(1, 4)).items()}
    assert all(truth.bids[a] not in s.bids for a, s in off.items())
    priced = []
    by_profile = equilibrium._Evaluator.utility
    monkeypatch.setattr(
        equilibrium._Evaluator, "utility", lambda ev, rep, a: priced.append(a) or by_profile(ev, rep, a)
    )
    got = find_pure_nash(inst, truth, mech, off)
    assert (got.status, got.rounds, profile_text(got.equilibrium)) == (status, rounds, end)
    # every bidder is still at their true value when their first turn comes
    assert priced[: len(inst.adv_ids())] == list(inst.adv_ids())


def test_empty_strategy_space_is_a_value_error_under_python_O():
    script = textwrap.dedent(
        """
        import sys
        from richads import equilibrium, fixtures
        from richads.model import truthful_profile

        if __debug__:
            sys.exit("not running under -O")
        inst = fixtures.fx4()
        truth = truthful_profile(inst)
        empty = equilibrium.StrategySpace(adv_id="b", bids=(), subsets=())
        try:
            equilibrium.best_response(inst, truth, truth, "b", equilibrium.gsp_mixture_mechanism(), empty)
        except ValueError as exc:
            print("raised:", exc)
        """
    )
    src = str(Path(equilibrium.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised: empty strategy space for advertiser 'b'\n", done.stdout
