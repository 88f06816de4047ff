"""The rule table: one definition per rule, one view per profile."""

import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from richads import equilibrium, exact, fixtures, harness, heuristics, kernels, monotone, pricing
from richads.model import Mixture, as_mixture, social_welfare, truthful_profile


def _counting(monkeypatch, cls):
    """The instances of `cls` constructed while the test runs."""
    made = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_every_rule_names_branches_of_the_table():
    for name, (branches, default_p) in pricing.RULES.items():
        assert set(branches) <= set(pricing.BRANCHES), name
        assert (default_p is None) == (len(branches) == 1), name
        assert pricing.rule_branches(pricing.AllocationRule(name))[0][1] == branches[0]
    # every branch is read off the probe kernel; the truthful mixture's two
    # branches and greedy-value are proven monotone, so their curves are bisected
    assert all(branch.probe is not None for branch in pricing.BRANCHES.values())
    assert {name for name, branch in pricing.BRANCHES.items() if branch.monotone} == {"bpb", "max-value", "greedy-value"}
    assert pricing.RULES["mixture"] == (("bpb", "max-value"), monotone.TRUTHFUL_MIX_P)
    assert pricing.RULES["randomized-greedy"] == (("greedy-bpb", "max-value"), heuristics.RANDOMIZED_GREEDY_P)


def test_mechanisms_and_audit_rules_follow_the_table():
    assert harness.MECHANISM_NAMES == tuple(pricing.MECHANISMS)
    assert harness.AUDIT_RULES == (*pricing.RULES, "int-opt")
    assert pricing.mixture_mechanism("myerson").describe() == "mixture(p=2/3)+myerson"
    assert pricing.mixture_mechanism("gsp", "1/3").describe() == "mixture(p=1/3)+gsp"
    assert pricing.mixture_mechanism("vcg", "1/3") == pricing.Mechanism("vcg")


def test_out_of_range_mixture_weight_is_a_value_error():
    inst = fixtures.fx1()
    rep = truthful_profile(inst)
    for p in (Fraction(-1, 2), Fraction(3, 2)):
        for build in (pricing.mixture_rule, lambda p: pricing.AllocationRule("randomized-greedy", p)):
            try:
                pricing.rule_allocate(inst, rep, build(p))
            except ValueError as exc:
                assert str(exc) == f"mixture weight must lie in [0, 1], got {p}"
            else:
                raise AssertionError(f"{build} allocated at p = {p}")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: pricing.AllocationRule("nope"), "unknown allocation rule 'nope'"),
        (lambda: pricing.mixture_rule(Fraction(3, 2)), "mixture weight must lie in [0, 1], got 3/2"),
        (lambda: harness.ExperimentConfig(instances=-1), "instances must be >= 0, got -1"),
        (
            lambda: kernels.ScaledView(replace(fixtures.fx1(), cardinality_limit=0), truthful_profile(fixtures.fx1())),
            "cardinality limit must be >= 1, got 0",
        ),
        (lambda: pricing.AllocationRule("mixture", True), "mixture weight must be an int or a Fraction, got True"),
        (lambda: pricing.AllocationRule("mixture", 0.5), "mixture weight must be an int or a Fraction, got 0.5"),
        (lambda: pricing.AllocationRule("mixture", "1/2"), "mixture weight must be an int or a Fraction, got '1/2'"),
        (lambda: pricing.mixture_rule(0.3), 'floats are not accepted as rationals (got 0.3); use "p/q"'),
        (lambda: pricing.mixture_rule(True), "expected a rational, got boolean True"),
        (
            lambda: heuristics.randomized_greedy(fixtures.fx1(), truthful_profile(fixtures.fx1()), 0.5),
            'floats are not accepted as rationals (got 0.5); use "p/q"',
        ),
        (
            lambda: pricing.Mechanism("GSP", pricing.mixture_rule()),
            "unknown pricing 'GSP'; choices: gsp, myerson, vcg",
        ),
        (lambda: pricing.Mechanism("myerson"), "myerson pricing needs an allocation rule"),
        (lambda: pricing.Mechanism("vcg", pricing.mixture_rule()), "vcg pricing takes no allocation rule"),
    ],
    ids=[
        "rule-name", "rule-weight", "config", "view-cap", "rule-weight-bool", "rule-weight-float",
        "rule-weight-str", "mixture-rule-float", "mixture-rule-bool", "randomized-greedy-float", "pricing-name",
        "pricing-without-rule", "vcg-with-rule",
    ],
)
def test_a_bad_rule_config_or_view_is_refused_where_it_is_built(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_mixture_weights_are_read_as_ints_fractions_and_rational_strings():
    inst = fixtures.fx1()
    rep = truthful_profile(inst)
    for p, want in ((1, Fraction(1)), (Fraction(1, 3), Fraction(1, 3)), ("1/3", Fraction(1, 3))):
        assert pricing.mixture_rule(p) == pricing.AllocationRule("mixture", want)
        assert heuristics.randomized_greedy(inst, rep, p) == pricing.rule_allocate(
            inst, rep, pricing.AllocationRule("randomized-greedy", want)
        )


def test_an_int_weight_is_kept_as_a_fraction():
    for p in (0, 1):
        rule = pricing.AllocationRule("mixture", p)
        assert type(rule.p) is Fraction and rule == pricing.mixture_rule(Fraction(p))
        assert pricing.rule_branches(rule)[0] == (Fraction(p), "bpb")


def test_every_rule_allocator_refuses_a_cap_below_one():
    # the check is the view's, so the paper's rules, which ignore a valid
    # cap, refuse an invalid one as the greedy rules and the optimum do
    inst = replace(fixtures.fx1(), cardinality_limit=0)
    rep = truthful_profile(inst)
    for name in pricing.RULES:
        with pytest.raises(ValueError, match="cardinality limit must be >= 1, got 0"):
            pricing.rule_allocate(inst, rep, pricing.AllocationRule(name))


def test_public_mixtures_run_both_branches_on_one_view(small_corpus, monkeypatch):
    for inst in small_corpus[:40]:
        rep = truthful_profile(inst)
        views = _counting(monkeypatch, kernels.ScaledView)
        mix = monotone.randomized_mechanism(inst, rep)
        greedy = heuristics.randomized_greedy(inst, rep)
        assert len(views) == 2
        monkeypatch.undo()
        assert mix == Mixture(
            ((monotone.TRUTHFUL_MIX_P, monotone.bpb_allocation(inst, rep)),
             (1 - monotone.TRUTHFUL_MIX_P, monotone.max_value_allocation(inst, rep)))
        )
        assert greedy == Mixture(
            ((heuristics.RANDOMIZED_GREEDY_P, heuristics.greedy_by_bpb(inst, rep)),
             (1 - heuristics.RANDOMIZED_GREEDY_P, monotone.max_value_allocation(inst, rep)))
        )


def test_comparison_builds_one_view_and_one_dp_per_instance(monkeypatch):
    # the 50-instance default corpus, every mechanism: each instance's rows,
    # its integral optimum and its welfare floor share one view of the
    # truthful report, and the VCG row reads the optimum's capacity DP
    corpus = harness.generate_corpus(harness.ExperimentConfig(instances=50))
    views = _counting(monkeypatch, kernels.ScaledView)
    dps = _counting(monkeypatch, exact.CapacityDP)
    result = harness.run_comparison(corpus, harness.MECHANISM_NAMES)
    assert not result.skipped and len(result.rows) == 50 * len(harness.MECHANISM_NAMES)
    assert len(views) == 50
    assert len(dps) == 50


def test_cardinality_defaults_to_the_instance_limit():
    inst = replace(fixtures.fx1(), cardinality_limit=1)
    rep = truthful_profile(inst)
    assert len(heuristics.greedy_by_value(inst, rep).entries) == 1
    for rule in (pricing.AllocationRule("greedy-value"), pricing.AllocationRule("greedy-bpb")):
        assert len(pricing.rule_allocate(inst, rep, rule).entries) == 1
        assert len(pricing.rule_allocate(replace(inst, cardinality_limit=2), rep, rule).entries) == 2
    assert all(len(alloc.entries) == 1 for _p, alloc in heuristics.randomized_greedy(inst, rep).branches)


# the paper's integral rule is defined without a cap; every other branch reads
# the instance's `cardinality_limit` (max-value serves one ad under any cap)
UNCAPPED_BRANCHES = {"bpb"}

# entry point -> (branch name, allocation) pairs of its outcome at (inst, rep)
CAPPED_ENTRY_POINTS = {
    "greedy_by_bpb": lambda inst, rep: [("greedy-bpb", heuristics.greedy_by_bpb(inst, rep))],
    "greedy_by_value": lambda inst, rep: [("greedy-value", heuristics.greedy_by_value(inst, rep))],
    "randomized_greedy": lambda inst, rep: list(
        zip(("greedy-bpb", "max-value"), [a for _p, a in heuristics.randomized_greedy(inst, rep).branches])
    ),
    **{
        f"rule_allocate-{name}": lambda inst, rep, name=name: [
            (branch, alloc)
            for (_p, branch), (_q, alloc) in zip(
                pricing.rule_branches(pricing.AllocationRule(name)),
                as_mixture(pricing.rule_allocate(inst, rep, pricing.AllocationRule(name))).branches,
            )
        ]
        for name in pricing.RULES
    },
    "int_opt_dp": lambda inst, rep: [("opt", exact.int_opt_dp(inst, rep))],
    "int_opt_exhaustive": lambda inst, rep: [("opt", exact.int_opt_exhaustive(inst, rep))],
    "int_opt_cross_checked": lambda inst, rep: [("opt", exact.int_opt_cross_checked(inst, rep))],
    "vcg_payments": lambda inst, rep: [("opt", pricing.vcg_payments(inst, rep).mixture.branches[0][1])],
}


@pytest.mark.parametrize("where, limit", [("fx1", 1), ("corpus", 1), ("corpus", 2), ("corpus", 3)])
def test_every_entry_point_serves_under_the_instance_limit(small_corpus, where, limit):
    corpus = [fixtures.fx1()] if where == "fx1" else small_corpus[:100]
    capped = [replace(inst, cardinality_limit=limit) for inst in corpus]
    for inst, capped_inst in zip(corpus, capped):
        rep = truthful_profile(inst)
        for name, allocate in CAPPED_ENTRY_POINTS.items():
            for branch, alloc in allocate(capped_inst, rep):
                if branch in UNCAPPED_BRANCHES:
                    assert alloc == pricing.branch_allocate(inst, rep, branch), name
                else:
                    assert len(alloc.entries) <= limit, (name, branch, alloc)
    # each row is the welfare of its entry point under the instance's limit
    result = harness.run_comparison(capped, harness.MECHANISM_NAMES)
    assert not result.skipped
    for row in result.rows:
        inst = capped[int(row["instance_id"][1:])]
        rep = truthful_profile(inst)
        mech = pricing.MECHANISMS[row["mechanism"]]
        if mech is None:  # frac-opt
            continue
        outcome = exact.int_opt_dp(inst, rep) if mech.pricing == "vcg" else pricing.rule_allocate(inst, rep, mech.rule)
        assert row["sw"] == f"{float(social_welfare(inst, outcome)):.6f}", row


def test_beta_check_builds_one_view(small_corpus, monkeypatch):
    for inst in (fixtures.fx4(), fixtures.fx5(), *small_corpus[:40]):
        rep = truthful_profile(inst)
        views = _counting(monkeypatch, kernels.ScaledView)
        got = equilibrium.beta_bound_check(inst, rep)
        assert len(views) == 1
        monkeypatch.undo()
        # the check as it was: the traced walk and each rule on its own view
        trace = monotone.space_assignment(inst, rep).trace
        run = trace.covering(trace.total_units // 2 + 1)
        beta = run.density if run is not None else Fraction(0)
        rhs = 2 * social_welfare(inst, monotone.bpb_allocation(inst, rep)) + 2 * social_welfare(
            inst, monotone.max_value_allocation(inst, rep)
        )
        assert (got.beta, got.lhs, got.rhs) == (beta, beta * inst.total_space, rhs)


def test_a_reimported_package_keeps_calling_its_own_table():
    # the benchmark imports the package afresh while it runs; the public
    # lotteries of a copy imported earlier must still build that copy's
    # Mixture, not the last import's
    script = textwrap.dedent(
        """
        import sys
        from richads import fixtures, heuristics, model, monotone

        for name in [m for m in sys.modules if m == "richads" or m.startswith("richads.")]:
            del sys.modules[name]
        import richads

        inst = fixtures.fx1()
        rep = model.truthful_profile(inst)
        for mix in (monotone.randomized_mechanism(inst, rep), heuristics.randomized_greedy(inst, rep)):
            assert type(mix) is model.Mixture, type(mix)
        print("ok")
        """
    )
    src = str(Path(pricing.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout == "ok\n", done.stderr
