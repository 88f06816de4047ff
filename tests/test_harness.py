"""Corpus generation, mechanism comparison, experiment files, audits."""

import csv
import hashlib
import json
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from richads import exact, fixtures, fracopt, harness, kernels, pricing
from richads.harness import (
    CSV_COLUMNS,
    MECHANISM_NAMES,
    ExperimentConfig,
    generate_corpus,
    monotonicity_audit,
    ratio_histogram,
    run_comparison,
    run_experiment,
    tie_prone_config,
)
from richads.model import (
    Allocation,
    InvariantViolation,
    NonMonotoneClickCurveError,
    social_welfare,
    truthful_profile,
    validate_instance,
)

SIX_DECIMALS = re.compile(r"^\d+\.\d{6}$")


def small_cfg(**overrides):
    base = dict(seed=5, instances=12, max_advertisers=3, max_ads=2)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_corpus_is_deterministic():
    cfg = small_cfg()
    assert generate_corpus(cfg) == generate_corpus(cfg)
    assert generate_corpus(cfg) != generate_corpus(small_cfg(seed=6))


def test_corpus_respects_config_bounds():
    cfg = small_cfg(instances=40)
    for inst in generate_corpus(cfg):
        assert 1 <= len(inst.advertisers) <= cfg.max_advertisers
        assert cfg.max_space <= inst.total_space <= cfg.max_total_space
        assert validate_instance(inst) == []
        for adv in inst.advertisers:
            assert 1 <= len(adv.ads) <= cfg.max_ads
            assert adv.value_per_click.denominator == cfg.value_denominator or (
                cfg.value_denominator % adv.value_per_click.denominator == 0
            )
            for ad in adv.ads:
                assert 1 <= ad.space <= cfg.max_space and ad.space.denominator == 1
                assert (ad.alpha * cfg.alpha_denominator).denominator == 1


def test_corpus_config_validation():
    with pytest.raises(ValueError):
        generate_corpus(small_cfg(max_space=60, max_total_space=50))
    with pytest.raises(ValueError):
        generate_corpus(small_cfg(cardinality=0))


def test_config_dict_round_trip():
    cfg = tie_prone_config(seed=9, instances=17)
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"instances": 3, "max_budget": 7})


def test_run_comparison_row_shape():
    corpus = generate_corpus(small_cfg())
    mechanisms = ("truthful-3approx", "gsp-half", "vcg", "frac-opt")
    result = run_comparison(corpus, mechanisms)
    assert result.skipped == [] and result.payment_warnings == []
    assert len(result.rows) == len(corpus) * len(mechanisms)
    for row in result.rows:
        assert tuple(row) == CSV_COLUMNS
        assert SIX_DECIMALS.match(row["sw"])
        if row["mechanism"] == "frac-opt":
            assert row["payment"] == ""
            assert row["ratio_frac_opt"] == "1.000000"
        else:
            assert SIX_DECIMALS.match(row["payment"])
            assert float(row["ratio_int_opt"]) >= 1.0 - 1e-9
        assert float(row["ratio_frac_opt"]) >= 1.0 - 1e-9


def test_run_comparison_rejects_unknown_mechanism():
    corpus = generate_corpus(small_cfg(instances=1))
    with pytest.raises(ValueError):
        run_comparison(corpus, ("truthful-3approx", "second-price"))


def test_run_comparison_rejects_a_repeated_mechanism():
    corpus = generate_corpus(small_cfg(instances=1))
    with pytest.raises(ValueError, match=r"duplicate mechanisms: \['vcg'\]"):
        run_comparison(corpus, ("vcg", "truthful-3approx", "vcg"))


def test_run_comparison_rejects_an_empty_mechanism_list():
    corpus = generate_corpus(small_cfg(instances=1))
    with pytest.raises(ValueError, match="^no mechanisms to compare$"):
        run_comparison(corpus, ())


def test_the_optimum_is_cross_checked_without_a_vcg_row(monkeypatch):
    # the exhaustive search guards the ratio_int_opt column of every
    # comparison; an exhaustive optimum that disagrees with the DP's is caught
    def empty(inst, rep, enum_guard=exact.ENUMERATION_GUARD, view=None):
        return Allocation(entries={})

    monkeypatch.setattr(exact, "int_opt_exhaustive", empty)
    with pytest.raises(InvariantViolation, match="DP optimum .* and exhaustive optimum {} disagree"):
        run_comparison(generate_corpus(small_cfg(instances=3)), ("truthful-3approx",))


@pytest.mark.parametrize("cardinality", [None, 1, 2])
def test_comparison_of_every_mechanism_builds_one_view_and_one_dp_per_instance(monkeypatch, cardinality):
    # tie-prone instances, capped or not: the rows, the optimum and its
    # cross-check, the VCG row and the welfare floor share one view and its DP
    corpus = generate_corpus(replace(tie_prone_config(seed=1, instances=30), cardinality=cardinality))
    built = {kernels.ScaledView: 0, exact.CapacityDP: 0}
    for cls in built:

        def counted(self, *args, cls=cls, init=cls.__init__):
            built[cls] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    result = run_comparison(corpus, MECHANISM_NAMES)
    assert not result.skipped and len(result.rows) == len(corpus) * len(MECHANISM_NAMES)
    assert built == {kernels.ScaledView: len(corpus), exact.CapacityDP: len(corpus)}


@pytest.mark.parametrize("mechanisms", [MECHANISM_NAMES, ("gsp-half", "vcg")], ids=["with-row", "without-row"])
def test_the_welfare_floor_reads_the_truthful_rows_welfare(monkeypatch, mechanisms):
    # on fx1 the truthful mixture earns 53/30 and the GSP one 8/5: a
    # truthful-3approx row's welfare is the floor's, else the floor prices
    # the truthful mixture itself. A fractional optimum at three times that
    # welfare passes, and one just above it raises
    inst = fixtures.fx1()
    truthful = Fraction(53, 30)
    assert social_welfare(inst, pricing.rule_allocate(inst, truthful_profile(inst), pricing.mixture_rule())) == truthful
    computed = []

    def welfare(view, outcome, welfare=kernels.ScaledView.welfare):
        computed.append(outcome)
        return welfare(view, outcome)

    monkeypatch.setattr(kernels.ScaledView, "welfare", welfare)
    for objective in (3 * truthful, 3 * truthful + Fraction(1, 10**6)):
        monkeypatch.setattr(fracopt, "fractional_opt", lambda inst, rep, view: SimpleNamespace(objective=objective))
        computed.clear()
        if objective == 3 * truthful:
            run_comparison([inst], mechanisms)
        else:
            with pytest.raises(InvariantViolation, match="^truthful mixture fell below a third of the fractional optimum on i00000$"):
                run_comparison([inst], mechanisms)
        priced = [m for m in mechanisms if pricing.MECHANISMS[m] is not None]
        # the optimum's, each priced row's, and the truthful mixture's without its row
        assert len(computed) == 1 + len(priced) + ("truthful-3approx" not in mechanisms)


def test_welfare_floor_holds_across_corpus(small_corpus):
    # completing without the InvariantViolation of the welfare floor is the point
    result = run_comparison(small_corpus[:120], ("truthful-3approx",))
    assert len(result.rows) == 120


def test_payment_warning_path(monkeypatch):
    def boom(inst, rep, rule, view=None):
        raise NonMonotoneClickCurveError(
            "a1", rule.name, (Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)), Fraction(1), Fraction(0)
        )

    monkeypatch.setattr(pricing, "myerson_payment", boom)
    corpus = generate_corpus(small_cfg(instances=3))
    result = run_comparison(corpus, ("truthful-3approx",))
    assert len(result.payment_warnings) == 3
    instance_id, mechanism, reason = result.payment_warnings[0]
    assert instance_id == "i00000" and mechanism == "truthful-3approx"
    assert "a1" in reason
    assert all(row["payment"] == "" for row in result.rows)


def test_greedy_payment_warnings_are_pinned():
    # capped greedy-bpb is not monotone: its Myerson curves drop on 81 of
    # these 600 instances, alone and inside randomized-greedy; greedy-value
    # never drops. Every warning (instance, mechanism and the drop it names)
    # is pinned by one digest
    warnings = []
    for seed in (0, 1, 2):
        corpus = generate_corpus(ExperimentConfig(seed=seed, instances=200, cardinality=2))
        result = run_comparison(corpus, ("greedy-bpb", "greedy-value", "randomized-greedy"))
        warnings += [[seed, *w] for w in result.payment_warnings]
    assert Counter(w[2] for w in warnings) == {"greedy-bpb": 81, "randomized-greedy": 81}
    assert hashlib.sha1(json.dumps(warnings).encode()).hexdigest()[:12] == "187e5a26132e"


def test_comparison_rows_are_pinned():
    # every row but its runtime, every skip and every payment warning of
    # the default and tie-prone corpora, seeds 0-2, caps None/1/2/3 and all
    # seven mechanisms, pinned by one digest: 16,800 rows, no skips, and
    # 100 warnings each for greedy-bpb and randomized-greedy
    record = []
    for make in (lambda seed: ExperimentConfig(seed=seed), lambda seed: tie_prone_config(seed=seed)):
        for seed in (0, 1, 2):
            for cardinality in (None, 1, 2, 3):
                result = run_comparison(generate_corpus(replace(make(seed), cardinality=cardinality)), MECHANISM_NAMES)
                rows = [{k: v for k, v in row.items() if k != "runtime_us"} for row in result.rows]
                record.append([seed, cardinality, rows, result.skipped, result.payment_warnings])
    assert sum(len(r[2]) for r in record) == 16800 and not any(r[3] for r in record)
    assert Counter(w[1] for r in record for w in r[4]) == {"greedy-bpb": 100, "randomized-greedy": 100}
    assert hashlib.sha1(json.dumps(record).encode()).hexdigest()[:12] == "5939b27a420f"


def test_a_click_drop_at_the_bid_itself_is_a_payment_warning():
    # on i00035 a1 bids 4, a tie bid: capped greedy-bpb gives them 1 click
    # on (3, 4) but none at exactly 4. The curve is probed at interval
    # midpoints only, so the drop shows first at the bid, where the
    # Myerson payment would read -1. Both rules read one greedy-bpb curve
    # the view keeps, and each warning names its own rule
    corpus = generate_corpus(replace(tie_prone_config(seed=1, instances=60), cardinality=1))
    result = run_comparison(corpus, MECHANISM_NAMES)
    assert {row["mechanism"] for row in result.rows} == set(MECHANISM_NAMES)
    at_bid = [w for w in result.payment_warnings if "on (Fraction(4, 1), Fraction(4, 1))" in w[2]]
    assert at_bid == [
        (
            "i00035",
            rule,
            f"clicks for advertiser 'a1' under rule {rule!r} drop from 1 on (Fraction(3, 1), Fraction(4, 1)) "
            "to 0 on (Fraction(4, 1), Fraction(4, 1))",
        )
        for rule in ("greedy-bpb", "randomized-greedy")
    ]


def test_a_comparison_runs_each_branch_and_builds_each_curve_once(monkeypatch):
    # the seven mechanisms of one default instance share four branches on
    # one view: each branch's rule runs once, and each bidder's curve per
    # branch is built once, whichever mechanism reads it first, unless the
    # branch is proven nondecreasing and gives the bidder no clicks: then
    # no mechanism builds it (`pricing.threshold_payments`)
    inst = generate_corpus(ExperimentConfig(seed=0, instances=1))[0]
    runs = Counter()
    for name, branch in pricing.BRANCHES.items():

        def allocate(view, name=name, allocate=branch.allocate):
            runs[name] += 1
            return allocate(view)

        monkeypatch.setitem(pricing.BRANCHES, name, replace(branch, allocate=allocate))
    curves = Counter()
    build = pricing._build_curve

    def counted(view, adv_id, cap, branch, rule_name):
        curves[adv_id, branch] += 1
        return build(view, adv_id, cap, branch, rule_name)

    monkeypatch.setattr(pricing, "_build_curve", counted)
    result = run_comparison([inst], MECHANISM_NAMES)
    assert len(result.rows) == len(MECHANISM_NAMES) and not result.payment_warnings
    assert len(inst.advertisers) == 4
    assert runs == Counter(dict.fromkeys(pricing.BRANCHES, 1))
    skipped = {("a1", "bpb"), ("a1", "max-value"), ("a1", "greedy-value"), ("a2", "max-value"), ("a3", "max-value")}
    rep = truthful_profile(inst)
    for adv_id, branch in skipped:
        assert pricing.branch_allocate(inst, rep, branch).clicks(inst, adv_id) == 0
    assert curves == Counter(
        {(adv_id, branch): 1 for adv_id in inst.adv_ids() for branch in pricing.BRANCHES if (adv_id, branch) not in skipped}
    )


def test_ratio_histogram_binning():
    rows = [
        {"mechanism": "m", "ratio_int_opt": "1.000000"},
        {"mechanism": "m", "ratio_int_opt": "1.240000"},
        {"mechanism": "m", "ratio_int_opt": "2.500000"},
        {"mechanism": "m", "ratio_int_opt": "9.000000"},
        {"mechanism": "m", "ratio_int_opt": ""},
        {"mechanism": "other", "ratio_int_opt": "1.000000"},
    ]
    hist = dict(ratio_histogram(rows, "m"))
    assert hist["<=1.00"] == 1
    assert hist["<=1.25"] == 1
    assert hist["<=2.50"] == 1
    assert hist[">4.00"] == 1
    assert sum(hist.values()) == 4


def strip_runtime(path):
    with open(path, newline="") as fh:
        return [[cell for key, cell in zip(CSV_COLUMNS, line) if key != "runtime_us"] for line in csv.reader(fh)]


def test_run_experiment_files_and_determinism(tmp_path):
    cfg = small_cfg()
    summary_one = run_experiment(cfg, tmp_path / "one")
    summary_two = run_experiment(cfg, tmp_path / "two")

    for name in ("one", "two"):
        assert (tmp_path / name / "comparison.csv").exists()
        for mech in cfg.mechanisms:
            assert (tmp_path / name / f"histogram_{mech}.csv").exists()
        assert (tmp_path / name / "summary.json").exists()

    assert strip_runtime(tmp_path / "one" / "comparison.csv") == strip_runtime(tmp_path / "two" / "comparison.csv")
    for mech in cfg.mechanisms:
        assert (tmp_path / "one" / f"histogram_{mech}.csv").read_bytes() == (
            tmp_path / "two" / f"histogram_{mech}.csv"
        ).read_bytes()
    assert (tmp_path / "one" / "summary.json").read_bytes() == (tmp_path / "two" / "summary.json").read_bytes()
    assert summary_one == summary_two

    assert summary_one["config"] == cfg.to_dict()
    assert summary_one["instances"] == cfg.instances
    assert summary_one["skipped"] == [] and summary_one["payment_warnings"] == []
    for mech in cfg.mechanisms:
        stats = summary_one[mech]
        assert stats["rows"] == cfg.instances
        assert stats["mean_ratio_int_opt"] is not None
        assert float(stats["max_ratio_int_opt"]) >= float(stats["mean_ratio_int_opt"])

    with open(tmp_path / "one" / "comparison.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert tuple(header) == CSV_COLUMNS


def test_monotone_rules_pass_audit(tie_corpus):
    for rule in ("bpb", "max-value", "mixture", "greedy-bpb", "greedy-value", "randomized-greedy"):
        result = monotonicity_audit(tie_corpus, rule, trials=250, seed=11)
        assert result.ok(), f"{rule}: {result.violations[:2]}"


def test_audit_exposes_exact_optimizer():
    result = monotonicity_audit([fixtures.fx1()], "int-opt", trials=200, seed=0)
    assert not result.ok()
    hit = result.violations[0]
    assert hit.low_clicks > hit.high_clicks
    assert hit.low_subset < hit.high_subset
    assert hit.low_bid <= hit.high_bid


def test_audit_unknown_rule():
    with pytest.raises(ValueError):
        monotonicity_audit([fixtures.fx1()], "first-price", trials=1)


def test_audit_empty_corpus():
    assert monotonicity_audit([], "bpb", trials=5).ok()


def test_mechanism_names_cover_registry():
    # in report order: the CSV rows and the summary follow it
    assert MECHANISM_NAMES == (
        "truthful-3approx",
        "gsp-half",
        "vcg",
        "frac-opt",
        "greedy-bpb",
        "greedy-value",
        "randomized-greedy",
    )


def test_vcg_row_prices_under_the_comparison_cap():
    # the corpus's cap must reach the VCG row's welfare and its payments alike
    corpus = generate_corpus(ExperimentConfig(instances=20, cardinality=1))
    result = run_comparison(corpus, ("vcg",))
    assert len(result.rows) == len(corpus)
    for row, inst in zip(result.rows, corpus):
        priced = pricing.vcg_payments(inst, truthful_profile(inst))
        assert row["sw"] == f"{float(social_welfare(inst, priced.mixture)):.6f}"
        assert row["payment"] == f"{float(priced.total_payment()):.6f}"
