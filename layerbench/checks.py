"""Correctness checks on every output the benchmark times.

Each check raises `CheckFailed` (never `assert`, so the checks survive
`python -O`) and otherwise returns the output's canonical text: exact
values as `Fraction` strings. The text of every op in a unit is hashed into
a digest; at the pinned seed the digests must equal those in `pins.json`.

Invariants checked on any seed:

* allocations only use reported ads of their own advertiser and fit the
  space budget;
* the truthful mixture's welfare is at least a third of `fractional_opt`;
* 0 <= payment <= bid * clicks for Myerson, GSP and VCG;
* pricing allocates exactly what the mechanism alone allocates;
* VCG's allocation is worth at least the integral rule's, and on small
  instances `int_opt_dp` equals `int_opt_exhaustive` and the VCG allocation;
* run_experiment skips nothing, warns about nothing, and writes one CSV
  row per instance and mechanism;
* find_pure_nash marks a converged result verified; under the truthful
  Myerson mixture it stops at the truthful profile.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

EXHAUSTIVE_LIMIT = 10**4  # choice vectors; above this int_opt_exhaustive is skipped


class CheckFailed(Exception):
    """An output the benchmark timed is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


# --- canonical text -----------------------------------------------------------


def allocation_text(alloc) -> str:
    return ",".join(f"{adv}:{ad}:{w}" for adv, (ad, w) in sorted(alloc.entries.items()))


def mixture_text(mixture) -> str:
    return " | ".join(f"{p}*[{allocation_text(alloc)}]" for p, alloc in mixture.branches)


def profile_text(rep) -> str:
    bids = ",".join(f"{a}={b}" for a, b in sorted(rep.bids.items()))
    subsets = ",".join(f"{a}={'+'.join(sorted(s))}" for a, s in sorted(rep.subsets.items()))
    return f"bids[{bids}] subsets[{subsets}]"


# --- shared invariants --------------------------------------------------------


def _check_allocation(inst, rep, alloc) -> None:
    for adv_id, (ad_id, weight) in alloc.entries.items():
        require(weight == 1, f"{adv_id} holds {ad_id} at weight {weight}, expected 1")
        require(ad_id in rep.subsets.get(adv_id, ()), f"{adv_id} got unreported ad {ad_id}")
        inst.advertiser(adv_id).ad(ad_id)
    used = alloc.used_space(inst)
    require(used <= inst.total_space, f"allocation uses {used} > total space {inst.total_space}")


def _check_payments(inst, rep, priced) -> None:
    require(set(priced.payments) == set(inst.adv_ids()), "payments do not cover every advertiser")
    for adv_id in inst.adv_ids():
        paid = priced.payments[adv_id]
        clicks = priced.mixture.clicks(inst, adv_id)
        bid = rep.bids.get(adv_id, Fraction(0))
        require(0 <= paid <= bid * clicks, f"{priced.rule_name} payment {paid} for {adv_id} outside [0, {bid * clicks}]")


def _reported_value(inst, rep, alloc) -> Fraction:
    return sum(
        (rep.bids[a] * inst.advertiser(a).ad(ad).alpha * w for a, (ad, w) in alloc.entries.items()),
        Fraction(0),
    )


def is_small(inst, rep) -> bool:
    combos = 1
    for adv in inst.advertisers:
        combos *= len(rep.subsets.get(adv.adv_id, ())) + 1
    return combos <= EXHAUSTIVE_LIMIT


# --- per-op checks ------------------------------------------------------------


def solve(lib, inst, rep, p, mixture) -> str:
    require(isinstance(mixture, lib.model.Mixture), "solve did not return a Mixture")
    probs = tuple(prob for prob, _ in mixture.branches)
    require(probs == (p, 1 - p), f"branch probabilities {probs}, expected ({p}, {1 - p})")
    for _prob, alloc in mixture.branches:
        _check_allocation(inst, rep, alloc)
    welfare = lib.model.social_welfare(inst, mixture)
    frac = lib.fracopt.fractional_opt(inst, rep).objective
    require(3 * welfare >= frac, f"mixture welfare {welfare} below a third of fractional optimum {frac}")
    return f"{mixture_text(mixture)} sw={welfare}"


def priced(lib, inst, rep, outcome, expected_mixture) -> str:
    _check_payments(inst, rep, outcome)
    for _prob, alloc in outcome.mixture.branches:
        _check_allocation(inst, rep, alloc)
    want = mixture_text(expected_mixture)
    got = mixture_text(outcome.mixture)
    require(got == want, f"{outcome.rule_name} allocated {got}, the mechanism allocates {want}")
    return json.dumps(outcome.to_dict(), sort_keys=True)


def vcg(lib, inst, rep, outcome) -> str:
    _check_payments(inst, rep, outcome)
    require(len(outcome.mixture.branches) == 1, "VCG outcome is not a single allocation")
    alloc = outcome.mixture.branches[0][1]
    _check_allocation(inst, rep, alloc)
    rule_value = _reported_value(inst, rep, lib.monotone.bpb_allocation(inst, rep))
    require(_reported_value(inst, rep, alloc) >= rule_value, "VCG allocation is worth less than the integral rule's")
    if is_small(inst, rep):
        dp = lib.exact.int_opt_dp(inst, rep)
        exhaustive = lib.exact.int_opt_exhaustive(inst, rep)
        require(dp.entries == exhaustive.entries, "int_opt_dp and int_opt_exhaustive disagree")
        require(alloc.entries == dp.entries, "VCG allocation is not the exact optimum")
    return json.dumps(outcome.to_dict(), sort_keys=True)


def experiment(lib, cfg, summary, out_dir: Path) -> str:
    require(summary["instances"] == cfg.instances, f"summary reports {summary['instances']} instances")
    require(summary["skipped"] == [], f"instances skipped: {summary['skipped']}")
    require(summary["payment_warnings"] == [], f"payment warnings: {summary['payment_warnings']}")
    with open(out_dir / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == cfg.instances * len(cfg.mechanisms), f"comparison.csv has {len(rows)} rows")
    for name in cfg.mechanisms:
        require(summary[name]["rows"] == cfg.instances, f"{name} has {summary[name]['rows']} rows")
    texts = [json.dumps(summary, sort_keys=True)]
    columns = [c for c in lib.harness.CSV_COLUMNS if c != "runtime_us"]
    texts += [",".join(row[c] for c in columns) for row in rows]
    for name in cfg.mechanisms:
        texts.append((out_dir / f"histogram_{name}.csv").read_text())
    return "\n".join(texts)


def nash(lib, inst, truth, pricing_kind, result) -> str:
    require(result.status in ("converged", "cycle", "max-rounds"), f"unknown status {result.status!r}")
    if result.status == "converged":
        require(result.verified and result.equilibrium is not None, "converged result is not verified")
        if pricing_kind == "myerson":
            # truthful mechanism: no grid deviation strictly beats the truth
            require(
                profile_text(result.equilibrium) == profile_text(truth),
                "Myerson dynamics left the truthful profile",
            )
    else:
        require(pricing_kind != "myerson", f"Myerson dynamics ended in {result.status}")
    if result.equilibrium is not None:
        end = profile_text(result.equilibrium)
    else:
        end = " -> ".join(profile_text(rep) for rep in result.cycle or ())
    return f"{result.status} rounds={result.rounds} verified={result.verified} {end}"
