"""Command line interface.

Machine-readable JSON goes to stdout; human context to stderr. Exit codes:
0 success, 1 validation or input error, 2 a size guard tripped, 64 usage,
70 a checked invariant failed (a bug in richads, not in the input).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import equilibrium, exact, fracopt, harness, monotone, pricing
from .model import (
    GuardExceededError,
    Instance,
    InvariantViolation,
    Mixture,
    ReportProfile,
    load_instance,
    parse_rational,
    social_welfare,
    truthful_profile,
    validate_instance,
)

USAGE_EXIT = 64
SOFTWARE_EXIT = 70  # EX_SOFTWARE


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def nonnegative_int(text: str) -> int:
    """An argparse type: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _allocation_dict(inst: Instance, alloc) -> dict:
    return {
        "entries": {
            adv: {"ad": ad, "weight": str(w)} for adv, (ad, w) in sorted(alloc.entries.items())
        },
        "sw": str(social_welfare(inst, alloc)),
    }


def _outcome_dict(inst: Instance, outcome) -> dict:
    if isinstance(outcome, Mixture):
        return {
            "branches": [
                {"probability": str(p), **_allocation_dict(inst, alloc)}
                for p, alloc in outcome.branches
            ],
            "sw": str(social_welfare(inst, outcome)),
            "clicks": {a: str(outcome.clicks(inst, a)) for a in inst.adv_ids()},
        }
    out = _allocation_dict(inst, outcome)
    out["clicks"] = {a: str(outcome.clicks(inst, a)) for a in inst.adv_ids()}
    return out


def _explain(inst: Instance, rep: ReportProfile) -> dict:
    assignment = monotone.space_assignment(inst, rep, want_trace=True)
    eliminations = {}
    for adv in inst.advertisers:
        survivors, removed = fracopt.eliminate_dominated(
            fracopt.advertiser_points(inst, rep, adv.adv_id)
        )
        eliminations[adv.adv_id] = {
            "survivors": [pt.ad_id for pt in survivors],
            "removed": [
                {"ad": r.ad_id, "reason": r.reason, "witnesses": [w or "(empty ad)" for w in r.witnesses]}
                for r in removed
            ],
        }
    return {
        "space_walk": assignment.trace.describe(),
        "assigned_spaces": {a: str(w) for a, w in sorted(assignment.spaces.items())},
        "fractional_stop": (
            None
            if assignment.fractional is None
            else {
                "advertiser": assignment.fractional[0],
                "ad": assignment.fractional[1],
                "weight": str(assignment.fractional[2]),
            }
        ),
        "dominance": eliminations,
    }


def _explain_payments(inst: Instance, rep: ReportProfile, outcome: pricing.PricedOutcome, rule) -> dict:
    """Per bidder and branch: the click curve the payment was read from.

    `jump_bids` are the bids where the curve steps up to the next of
    `click_levels`; `threshold` is the lowest bid that still wins the
    branch's clicks; `probes` counts the probe kernel reads that found the
    curve among its `candidates` breakpoints. Curve fields are null for a branch
    priced without a curve (GSP charges nothing for a branch with no clicks).
    """
    names = [branch for _prob, branch in pricing.rule_branches(rule)]
    out = {}
    for adv_id, curves in sorted(outcome.curves.items()):
        bid = rep.bids[adv_id]
        branches = []
        for name, (prob, alloc), curve in zip(names, outcome.mixture.branches, curves):
            clicks = alloc.clicks(inst, adv_id)
            entry = {
                "branch": name,
                "probability": str(prob),
                "clicks": str(clicks),
                "candidates": None,
                "probes": 0,
                "jump_bids": None,
                "click_levels": None,
                "threshold": None,
            }
            if curve is not None:
                entry.update(
                    candidates=len(curve.ties),
                    probes=curve.probes,
                    jump_bids=[str(b) for b, _clicks in curve.steps[1:]],
                    click_levels=[str(c) for _b, c in curve.steps],
                    threshold=str(pricing.threshold_prices_along("gsp", curve, (bid,), (clicks,))[0]),
                )
            branches.append(entry)
        out[adv_id] = {"bid": str(bid), "payment": str(outcome.payments[adv_id]), "branches": branches}
    return out


def _cmd_validate(args) -> int:
    inst = load_instance(args.instance)
    violations = validate_instance(inst)
    _emit({"violations": [v.to_dict() for v in violations], "ok": not violations})
    return 1 if violations else 0


def _load_valid(path: str, cardinality: int | None = None) -> Instance | None:
    """The instance at `path`, its `cardinality_limit` set to `cardinality`
    when given; None once its violations are printed."""
    inst = load_instance(path)
    if cardinality is not None:
        inst = replace(inst, cardinality_limit=cardinality)
    violations = validate_instance(inst)
    if violations:
        _emit({"violations": [v.to_dict() for v in violations], "ok": False})
        return None
    return inst


def _cmd_solve(args) -> int:
    inst = _load_valid(args.instance, args.cardinality)
    if inst is None:
        return 1
    rep = truthful_profile(inst)
    name = args.mechanism
    mech = pricing.MECHANISMS[name]
    if mech is None:  # frac-opt
        frac = fracopt.fractional_opt(inst, rep)
        payload = {
            "mechanism": name,
            "entries": {
                adv: [{"ad": ad, "weight": str(w)} for ad, w in pairs]
                for adv, pairs in sorted(frac.entries.items())
            },
            "objective": str(frac.objective),
            "fractional_advertiser": frac.fractional_adv,
        }
    elif mech.pricing == "vcg":
        payload = {"mechanism": name, **_outcome_dict(inst, exact.int_opt_cross_checked(inst, rep))}
    else:
        outcome = pricing.rule_allocate(inst, rep, mech.rule)
        payload = {"mechanism": name, **_outcome_dict(inst, outcome)}
    if args.explain:
        payload["explain"] = _explain(inst, rep)
    _emit(payload)
    return 0


def _cmd_payments(args) -> int:
    inst = _load_valid(args.instance)
    if inst is None:
        return 1
    rep = truthful_profile(inst)
    mech = pricing.mixture_mechanism(args.rule, parse_rational(args.p) if args.p else None)
    if mech.pricing == "vcg" and args.explain:
        print("error: --explain shows click curves; vcg prices without them", file=sys.stderr)
        return USAGE_EXIT
    outcome = mech.price(inst, rep)
    payload = outcome.to_dict()
    if args.explain:
        payload["explain"] = _explain_payments(inst, rep, outcome, mech.rule)
    _emit(payload)
    return 0


def _cmd_equilibrium(args) -> int:
    inst = _load_valid(args.instance)
    if inst is None:
        return 1
    truth = truthful_profile(inst)
    mech = pricing.mixture_mechanism(args.pricing, parse_rational(args.p) if args.p else None)
    spaces = equilibrium.strategy_spaces(inst, parse_rational(args.grid))
    steps: list[dict] | None = [] if args.explain else None
    result = equilibrium.find_pure_nash(
        inst, truth, mech, spaces, max_rounds=args.max_rounds, beta_check=args.beta_check, explain=steps
    )
    payload = {
        "mechanism": mech.describe(),
        "status": result.status,
        "rounds": result.rounds,
        "verified": result.verified,
        "beta_checks": result.beta_checks,
        "beta_violations": len(result.beta_violations),
    }
    if result.equilibrium is not None:
        payload["equilibria"] = equilibrium.poa_report(inst, truth, mech, [result.equilibrium])
    if result.cycle is not None:
        payload["cycle_length"] = len(result.cycle)
        payload["cycle"] = [
            {"bids": {a: str(b) for a, b in sorted(p.bids.items())}} for p in result.cycle
        ]
    if steps is not None:
        payload["explain"] = steps
    _emit(payload)
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        cfg = harness.ExperimentConfig.from_dict(json.load(fh))
    summary = harness.run_experiment(cfg, args.out)
    _emit(summary)
    print(f"wrote comparison.csv and histograms to {args.out}", file=sys.stderr)
    return 0


def _cmd_audit(args) -> int:
    cfg = harness.tie_prone_config(seed=args.seed) if args.tie_prone else harness.ExperimentConfig(seed=args.seed)
    corpus = harness.generate_corpus(cfg)
    result = harness.monotonicity_audit(corpus, args.rule, args.trials, seed=args.seed)
    _emit(
        {
            "rule": result.rule,
            "trials": result.trials,
            "violations": [
                {
                    "instance": v.instance_index,
                    "advertiser": v.adv_id,
                    "low_bid": str(v.low_bid),
                    "high_bid": str(v.high_bid),
                    "low_subset": sorted(v.low_subset),
                    "high_subset": sorted(v.high_subset),
                    "low_clicks": str(v.low_clicks),
                    "high_clicks": str(v.high_clicks),
                }
                for v in result.violations
            ],
            "ok": result.ok(),
        }
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="richads", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("solve", help="run a mechanism on an instance")
    p.add_argument("instance")
    p.add_argument(
        "--mechanism",
        required=True,
        choices=sorted(harness.MECHANISM_NAMES),
    )
    p.add_argument("--cardinality", type=int, default=None)
    p.add_argument("--explain", action="store_true")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("payments", help="price the truthful report")
    p.add_argument("instance")
    p.add_argument("--rule", required=True, choices=["myerson", "gsp", "vcg"])
    p.add_argument("--p", default=None, help="mixture weight override, e.g. 2/3")
    p.add_argument("--explain", action="store_true", help="add each bidder's click curves (myerson, gsp)")
    p.set_defaults(fn=_cmd_payments)

    p = sub.add_parser("equilibrium", help="best-response dynamics on a bid grid")
    p.add_argument("instance")
    p.add_argument("--grid", required=True, help="bid grid step, e.g. 1/20")
    p.add_argument("--max-rounds", type=nonnegative_int, default=50)
    p.add_argument("--pricing", choices=["gsp", "myerson", "vcg"], default="gsp")
    p.add_argument("--p", default=None, help="mixture weight override")
    p.add_argument("--beta-check", action="store_true", help="run the density diagnostic at every visited profile")
    p.add_argument("--explain", action="store_true", help="add each round's best responses, gains and curves read")
    p.set_defaults(fn=_cmd_equilibrium)

    p = sub.add_parser("experiment", help="run a comparison experiment from a config file")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("audit", help="randomized monotonicity audit of a rule")
    p.add_argument("--rule", required=True, choices=sorted(harness.AUDIT_RULES))
    p.add_argument("--trials", type=nonnegative_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tie-prone", action="store_true", help="use the small tie-heavy corpus")
    p.set_defaults(fn=_cmd_audit)

    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.fn(args)
    except GuardExceededError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return SOFTWARE_EXIT
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
