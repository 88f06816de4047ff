"""Acceptance gate: nine end-to-end checks, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to watch the lines appear.
Every numeric pin is an exact rational; the only floats live in the
numeric-integration cross-check, whose tolerance is stated inline.
"""

import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import reported_value, riemann_myerson
from richads import (
    equilibrium,
    exact,
    fixtures,
    fracopt,
    harness,
    heuristics,
    monotone,
    pricing,
)
from richads.model import effective_values, social_welfare, truthful_profile

M = 1000
EPS = Fraction(1, M)


@contextmanager
def criterion(n):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL")
        raise
    print(f"criterion {n}: PASS")


@pytest.fixture(scope="module")
def approx_corpus():
    """Shared 10^4-instance corpus for the approximation and Fact-1 checks."""
    cfg = harness.ExperimentConfig(
        seed=2026,
        instances=10_000,
        max_advertisers=6,
        max_ads=4,
        max_space=20,
        max_total_space=50,
    )
    return harness.generate_corpus(cfg)


def test_criterion_1_tightness_fixture():
    with criterion(1):
        start = time.perf_counter()
        inst = fixtures.fx3()
        truth = truthful_profile(inst)

        frac = fracopt.fractional_opt(inst, truth)
        assert frac.objective == 3 * M - 1 == 2999

        bpb_sw = social_welfare(inst, monotone.bpb_allocation(inst, truth))
        assert bpb_sw == M + 1 + 2 * EPS == Fraction(500501, 500)

        max_sw = social_welfare(inst, monotone.max_value_allocation(inst, truth))
        assert max_sw == M + 2 * EPS == Fraction(500001, 500)

        mix_sw = social_welfare(inst, monotone.randomized_mechanism(inst, truth))
        assert mix_sw == M + Fraction(2, 3) + 2 * EPS == Fraction(1501003, 1500)

        ratio = frac.objective / mix_sw
        assert ratio == (3 - Fraction(1, M)) / (1 + Fraction(2, 3 * M) + 2 * EPS / M)
        assert ratio == Fraction(4498500, 1501003)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_three_approximation(approx_corpus):
    with criterion(2):
        start = time.perf_counter()
        for inst in approx_corpus:
            truth = truthful_profile(inst)
            frac = fracopt.fractional_opt(inst, truth)
            integral_sw = social_welfare(inst, monotone.bpb_allocation(inst, truth))
            b_max = max(effective_values(inst, truth).values(), default=Fraction(0))
            assert 2 * integral_sw + b_max >= frac.objective
            mix_sw = social_welfare(inst, monotone.randomized_mechanism(inst, truth))
            assert 3 * mix_sw >= frac.objective
        assert time.perf_counter() - start < 60.0


def test_criterion_3_monotonicity_suite():
    with criterion(3):
        corpus = harness.generate_corpus(harness.tie_prone_config(seed=3, instances=60))
        for rule in ("bpb", "max-value", "mixture", "greedy-bpb", "greedy-value"):
            result = harness.monotonicity_audit(corpus, rule, trials=10_000, seed=17)
            assert result.ok(), (rule, result.violations[:1])
        witness = harness.monotonicity_audit([fixtures.fx1()], "int-opt", trials=1_000, seed=0)
        assert not witness.ok()
        hit = witness.violations[0]
        assert hit.low_subset < hit.high_subset
        assert hit.low_bid <= hit.high_bid
        assert hit.low_clicks > hit.high_clicks


def test_criterion_4_single_fractional_advertiser(approx_corpus):
    with criterion(4):
        for inst in approx_corpus:
            frac = fracopt.fractional_opt(inst, truthful_profile(inst))
            split = [
                adv
                for adv, pairs in frac.entries.items()
                if len(pairs) > 1 or any(w != 1 for _, w in pairs)
            ]
            assert len(split) <= 1
            if frac.fractional_adv is None:
                assert split == []
            else:
                assert split == [frac.fractional_adv]


def test_criterion_5_payments():
    with criterion(5):
        cfg = harness.ExperimentConfig(seed=404, instances=200, max_advertisers=3, max_ads=3)
        corpus = harness.generate_corpus(cfg)
        mech = equilibrium.myerson_mixture_mechanism()
        rule = pricing.mixture_rule()

        # truth maximizes utility exactly on a 9-point bid grid x all subsets
        for inst in corpus:
            truth = truthful_profile(inst)
            honest = equilibrium.utility(inst, truth, truth, mech)
            for adv in inst.advertisers:
                ids = sorted(adv.ad_ids())
                subsets = []
                for size in range(len(ids), -1, -1):
                    for combo in combinations(ids, size):
                        subsets.append(frozenset(combo))
                grid = tuple(adv.value_per_click * Fraction(k, 8) for k in range(9))
                space = equilibrium.StrategySpace(
                    adv_id=adv.adv_id, bids=grid, subsets=tuple(subsets)
                )
                _, _, best_u = equilibrium.best_response(
                    inst, truth, truth, adv.adv_id, mech, space
                )
                assert best_u == honest[adv.adv_id]

        # exact payment vs numeric click-curve integration: within 1e-3
        # relative error, or within the provable midpoint-grid error bound
        # bid*x(bid)/steps when the payment itself is tiny
        pairs = []
        for inst in corpus:
            truth = truthful_profile(inst)
            outcome = pricing.myerson_payment(inst, truth, rule)
            for adv_id in inst.adv_ids():
                if outcome.payments[adv_id] > 0:
                    pairs.append((inst, truth, adv_id, outcome))
            if len(pairs) >= 20:
                break
        assert len(pairs) >= 20
        steps = 4000
        for inst, truth, adv_id, outcome in pairs[:20]:
            exact_p = outcome.payments[adv_id]
            numeric = riemann_myerson(inst, truth, adv_id, rule, steps=steps)
            grid_error = float(truth.bids[adv_id] * outcome.mixture.clicks(inst, adv_id)) / steps
            assert abs(numeric - float(exact_p)) <= max(1e-3 * float(exact_p), grid_error)

        # GSP non-truthfulness on the half/half mechanism, exact formulas
        m, eps = 100, Fraction(1, 200)
        inst = fixtures.fx4()
        truth = truthful_profile(inst)
        gsp = equilibrium.gsp_mixture_mechanism()
        u_truth = equilibrium.utility(inst, truth, truth, gsp)["b"]
        assert u_truth == Fraction(1, 2) * (1 + 2 * eps**2 - Fraction(1, m))
        assert u_truth == Fraction(19801, 40000)
        shaded = truth.replace("b", Fraction(1, 2), truth.subsets["b"])
        u_dev = equilibrium.utility(inst, truth, shaded, gsp)["b"]
        assert u_dev == Fraction(1, 2) * (eps / m) + Fraction(1, 2) * (1 + eps**2 - Fraction(1, m))
        assert u_dev == Fraction(39603, 80000)
        assert u_dev - u_truth == Fraction(1, 80000) > 0


def test_criterion_6_exact_solvers_agree():
    with criterion(6):
        start = time.perf_counter()
        cfg = harness.ExperimentConfig(
            seed=88, instances=1_000, max_advertisers=4, max_ads=3, max_space=12, max_total_space=30
        )
        for inst in harness.generate_corpus(cfg):
            truth = truthful_profile(inst)
            for k in (None, 1, 2, 3):
                capped = replace(inst, cardinality_limit=k)
                dp = exact.int_opt_dp(capped, truth)
                enum = exact.int_opt_exhaustive(capped, truth)
                assert dp.entries == enum.entries
                assert social_welfare(inst, dp) == social_welfare(inst, enum)
        assert time.perf_counter() - start < 120.0


def test_criterion_7_grid_nash_poa():
    with criterion(7):
        cfg = harness.ExperimentConfig(
            seed=55, instances=100, max_advertisers=3, max_ads=2, max_space=8, max_total_space=16
        )
        mech = equilibrium.gsp_mixture_mechanism()
        bound = Fraction(13, 2)  # 6 plus the 0.5 grid slack
        converged = 0
        for inst in harness.generate_corpus(cfg):
            truth = truthful_profile(inst)
            v_max = max(adv.value_per_click for adv in inst.advertisers)
            spaces = equilibrium.strategy_spaces(inst, v_max / 20)
            result = equilibrium.find_pure_nash(inst, truth, mech, spaces, beta_check=True)
            assert result.beta_checks > 0
            assert result.beta_violations == ()
            if result.status != "converged":
                continue
            converged += 1
            assert result.verified
            eq_outcome = pricing.rule_allocate(
                inst, result.equilibrium, pricing.mixture_rule(monotone.GSP_MIX_P)
            )
            eq_sw = social_welfare(inst, eq_outcome)
            opt_sw = social_welfare(inst, exact.int_opt_dp(inst, truth))
            assert eq_sw > 0
            assert opt_sw / eq_sw <= bound
        assert converged == 100  # best response converges on this whole corpus


def test_criterion_8_experiment_pipeline(tmp_path):
    with criterion(8):
        cfg = harness.ExperimentConfig(seed=11, instances=200, max_advertisers=4, max_ads=3)
        # reaching the end of both runs proves the in-pipeline welfare
        # assert (3 * truthful SW >= fractional objective) never fired
        summary_one = harness.run_experiment(cfg, tmp_path / "one")
        summary_two = harness.run_experiment(cfg, tmp_path / "two")
        assert summary_one == summary_two
        assert summary_one["skipped"] == [] and summary_one["payment_warnings"] == []

        def stripped(path):
            rows = []
            for line in (path).read_text().splitlines():
                cells = line.split(",")
                del cells[harness.CSV_COLUMNS.index("runtime_us")]
                rows.append(cells)
            return rows

        assert stripped(tmp_path / "one" / "comparison.csv") == stripped(
            tmp_path / "two" / "comparison.csv"
        )
        for mech in cfg.mechanisms:
            one = (tmp_path / "one" / f"histogram_{mech}.csv").read_bytes()
            two = (tmp_path / "two" / f"histogram_{mech}.csv").read_bytes()
            assert one == two
        assert (tmp_path / "one" / "summary.json").read_bytes() == (
            tmp_path / "two" / "summary.json"
        ).read_bytes()


def test_criterion_9_counterexample_regressions():
    with criterion(9):
        eps = Fraction(1, 10)

        # the two-symmetric-advertisers instance: exact optimum, its
        # profitable hide-the-small-ad deviation, and the deterministic
        # integral rule's value barrier for the hiding advertiser
        inst = fixtures.fx1()
        truth = truthful_profile(inst)
        opt = exact.int_opt_dp(inst, truth)
        assert opt.entries == {"a": ("ax1", Fraction(1)), "b": ("bx2", Fraction(1))}
        assert social_welfare(inst, opt) == 2 + eps == Fraction(21, 10)

        hide_a = truth.replace("a", truth.bids["a"], {"ax2"})
        hidden_opt = exact.int_opt_dp(inst, hide_a)
        assert hidden_opt.entries == {"a": ("ax2", Fraction(1)), "b": ("bx1", Fraction(1))}
        assert opt.clicks(inst, "a") == Fraction(10, 11)
        assert hidden_opt.clicks(inst, "a") == 1  # strictly more: the deviation pays

        bpb_truth = monotone.bpb_allocation(inst, truth)
        assert bpb_truth.entries == {"a": ("ax2", Fraction(1)), "b": ("bx1", Fraction(1))}
        assert social_welfare(inst, bpb_truth) == Fraction(21, 10)
        bpb_hide_a = monotone.bpb_allocation(inst, hide_a)
        assert social_welfare(inst, bpb_hide_a) == Fraction(21, 10)
        hider_value = inst.advertiser("a").value_per_click * bpb_hide_a.clicks(inst, "a")
        assert hider_value == 1 + eps  # the deterministic barrier, met with equality
        hide_b = truth.replace("b", truth.bids["b"], {"bx2"})
        bpb_hide_b = monotone.bpb_allocation(inst, hide_b)
        assert bpb_hide_b.clicks(inst, "b") == 0
        assert social_welfare(inst, bpb_hide_b) == 1 + eps

        # wide-budget two-advertiser instance: integral fractional optimum
        # and the bang-per-buck walk's assigned spaces
        inst = fixtures.fx2()
        truth = truthful_profile(inst)
        frac = fracopt.fractional_opt(inst, truth)
        assert frac.objective == 5 and frac.fractional_adv is None
        assert frac.entries == {"a": (("ax1", Fraction(1)),), "b": (("bx1", Fraction(1)),)}
        walk = monotone.space_assignment(inst, truth)
        assert walk.spaces == {"a": Fraction(3), "b": Fraction(1)}
        assert walk.held == {"a": "ax2", "b": "bx1"}
        assert walk.fractional == ("b", "bx1", Fraction(1, 3))
        bpb = monotone.bpb_allocation(inst, truth)
        assert bpb.entries == {"a": ("ax2", Fraction(1))}
        assert social_welfare(inst, bpb) == Fraction(7, 2)

        # tight-budget variant: genuinely fractional optimum and the
        # integral two-approximation's either-or choice
        inst = fixtures.fx2_tight()
        truth = truthful_profile(inst)
        frac = fracopt.fractional_opt(inst, truth)
        assert frac.objective == Fraction(9, 2) and frac.fractional_adv == "b"
        assert frac.entries["b"] == (("bx1", Fraction(5, 6)),)
        pick = fracopt.two_approx_integral(inst, truth)
        assert pick.entries == {"b": ("bx1", Fraction(1))}
        assert reported_value(inst, truth, pick) == 3
        narrowed = truth.replace("a", truth.bids["a"], {"ax2"})
        pick = fracopt.two_approx_integral(inst, narrowed)
        assert pick.entries == {"a": ("ax2", Fraction(1))}
        assert reported_value(inst, narrowed, pick) == Fraction(7, 2)

        # the half/half GSP instance: payments at truth and under the
        # profitable underbid, plus the bang-per-buck branch thresholds
        inst = fixtures.fx4()
        eps4 = Fraction(1, 200)
        truth = truthful_profile(inst)
        at_truth = pricing.gsp_prices(inst, truth, pricing.mixture_rule(monotone.GSP_MIX_P))
        assert at_truth.payments == {"a": Fraction(0), "b": Fraction(101, 200)}
        curve = pricing.bid_thresholds(inst, truth, "b", pricing.bpb_rule())
        threshold = pricing.gsp_cpc_from_curve(curve, truth.bids["b"], Fraction(1))
        assert threshold == inst.advertiser("b").value_per_click / (1 + eps4**2) == 1
        shaded = truth.replace("b", Fraction(1, 2), truth.subsets["b"])
        under = pricing.gsp_prices(inst, shaded, pricing.mixture_rule(monotone.GSP_MIX_P))
        assert under.payments["b"] == Fraction(1, 200)
        dev_curve = pricing.bid_thresholds(inst, shaded, "b", pricing.bpb_rule())
        dev_clicks = monotone.bpb_allocation(inst, shaded).clicks(inst, "b")
        assert pricing.gsp_cpc_from_curve(dev_curve, Fraction(1, 2), dev_clicks) == 0

        # value non-monotonicity of the bare space walk is repaired by the
        # best-fitting post-processing step
        inst = fixtures.fx6a()
        truth = truthful_profile(inst)
        walk = monotone.space_assignment(inst, truth)
        assert walk.spaces == {"a": Fraction(3)}
        assert walk.held == {"a": "ax2"} and walk.fractional is None
        slim = truth.replace("a", truth.bids["a"], {"ax1"})
        slim_walk = monotone.space_assignment(inst, slim)
        assert slim_walk.spaces == {"a": Fraction(2), "b": Fraction(1)}
        assert slim_walk.fractional == ("b", "bx1", Fraction(1, 3))
        eff = effective_values(inst, truth)
        assert eff[("a", walk.held["a"])] == 1 < eff[("a", slim_walk.held["a"])] == 2
        assert social_welfare(inst, monotone.bpb_allocation(inst, truth)) == 2
        assert social_welfare(inst, monotone.bpb_allocation(inst, slim)) == 2

        # undersized-leftover instance: every rule's pinned welfare
        inst = fixtures.fx6b()
        truth = truthful_profile(inst)
        assert social_welfare(inst, monotone.bpb_allocation(inst, truth)) == Fraction(1, 2)
        best = monotone.max_value_allocation(inst, truth)
        assert best.entries == {"b": ("bx1", Fraction(1))}
        assert social_welfare(inst, best) == 10
        assert social_welfare(inst, monotone.randomized_mechanism(inst, truth)) == Fraction(11, 3)
        assert social_welfare(inst, heuristics.greedy_by_bpb(inst, truth)) == Fraction(1, 2)
        assert social_welfare(inst, heuristics.greedy_by_value(inst, truth)) == 10
