"""Experiment harness: seeded corpora, mechanism comparison, monotonicity audits.

Corpora are generated from stdlib random with all quantities quantized to
exact rationals, so a (config, seed) pair reproduces byte-identical
instances anywhere. The comparison pipeline carries a hard in-line check:
the truthful mixture's welfare must never fall below a third of the
fractional optimum.
"""

from __future__ import annotations

import csv
import json
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

from . import exact, fracopt, kernels, pricing
from .model import (
    Advertiser,
    GuardExceededError,
    Instance,
    InvariantViolation,
    NonMonotoneClickCurveError,
    RichAd,
    social_welfare,  # noqa: F401  (the benchmark's tracer wraps it here)
    truthful_profile,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Corpus shape and the mechanisms to compare. Every field is checked
    here (types, then ranges), so a config that exists makes a corpus."""

    seed: int = 0
    instances: int = 100
    max_advertisers: int = 4
    max_ads: int = 3
    max_space: int = 20  # integer ad spaces in [1, max_space]
    max_total_space: int = 50
    value_levels: int = 100  # bids are value_levels steps of 1/value_denominator
    value_denominator: int = 10
    alpha_denominator: int = 8
    cardinality: int | None = None  # every generated instance's `cardinality_limit`
    mechanisms: tuple[str, ...] = ("truthful-3approx", "gsp-half", "greedy-bpb", "greedy-value")

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if name == "mechanisms":
                if not isinstance(value, (list, tuple)) or not all(isinstance(m, str) for m in value):
                    raise ValueError(f"experiment config field 'mechanisms' must be a list of strings, got {value!r}")
                object.__setattr__(self, name, tuple(value))
            elif name == "cardinality" and value is None:
                continue
            # bool is a subclass of int, but `true` is not a count
            elif isinstance(value, bool) or not isinstance(value, int):
                kind = "an integer or null" if name == "cardinality" else "an integer"
                raise ValueError(f"experiment config field {name!r} must be {kind}, got {value!r}")
        if self.instances < 0:
            raise ValueError(f"instances must be >= 0, got {self.instances}")
        for name in ("max_advertisers", "max_ads", "max_space", "value_levels", "value_denominator", "alpha_denominator"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_space > self.max_total_space:
            raise ValueError(
                f"max_space {self.max_space} exceeds max_total_space {self.max_total_space}: "
                "every ad must be able to fit alone"
            )
        if self.cardinality is not None and self.cardinality < 1:
            raise ValueError(f"cardinality must be >= 1, got {self.cardinality}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("experiment config must be an object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown experiment config fields: {sorted(unknown)}")
        return cls(**data)


def tie_prone_config(seed: int = 0, instances: int = 100) -> ExperimentConfig:
    """Small integer grids where exact ties are common, not rare."""
    return ExperimentConfig(
        seed=seed,
        instances=instances,
        max_advertisers=3,
        max_ads=2,
        max_space=3,
        max_total_space=6,
        value_levels=4,
        value_denominator=1,
        alpha_denominator=2,
    )


def generate_corpus(cfg: ExperimentConfig) -> tuple[Instance, ...]:
    """Deterministic instance corpus for a (config, seed) pair."""
    rng = random.Random(cfg.seed)
    out = []
    for _ in range(cfg.instances):
        n = rng.randint(1, cfg.max_advertisers)
        total = Fraction(rng.randint(cfg.max_space, cfg.max_total_space))
        advertisers = []
        for a in range(n):
            adv_id = f"a{a + 1}"
            value = Fraction(rng.randint(1, cfg.value_levels), cfg.value_denominator)
            ads = []
            for j in range(rng.randint(1, cfg.max_ads)):
                alpha = Fraction(rng.randint(1, cfg.alpha_denominator), cfg.alpha_denominator)
                space = Fraction(rng.randint(1, cfg.max_space))
                ads.append(RichAd(f"{adv_id}x{j + 1}", alpha=alpha, space=space))
            advertisers.append(Advertiser(adv_id, value_per_click=value, ads=tuple(ads)))
        out.append(
            Instance(
                advertisers=tuple(advertisers),
                total_space=total,
                cardinality_limit=cfg.cardinality,
            )
        )
    return tuple(out)


MECHANISM_NAMES = tuple(pricing.MECHANISMS)

CSV_COLUMNS = ("instance_id", "mechanism", "sw", "ratio_int_opt", "ratio_frac_opt", "payment", "runtime_us")


def _fmt(num: int, den: int) -> str:
    # int true division is correctly rounded, as `float(Fraction)` is
    return f"{num / den:.6f}"


@dataclass
class ComparisonResult:
    rows: list[dict]
    skipped: list[tuple[str, str]]  # (instance_id, reason)
    # (instance_id, mechanism, reason) for payments that could not be priced
    payment_warnings: list[tuple[str, str, str]] = field(default_factory=list)


def run_comparison(corpus: Sequence[Instance], mechanisms: Iterable[str] = MECHANISM_NAMES) -> ComparisonResult:
    """Truthful-report comparison of mechanisms over a corpus.

    Every instance also gets the fractional and integral optima for the
    ratio columns. Guard failures skip the instance with a logged reason.
    Raises InvariantViolation if the truthful mixture ever earns less than a
    third of the fractional optimum; that inequality is load-bearing.

    Each instance's `cardinality_limit` caps the greedy rules and the exact
    optimum. Every row is priced by `Mechanism.price` on one view of the truthful
    report, whose DP gives the optimum, cross-checked when small, and the VCG row.
    The view keeps each branch's allocation and each bidder's click curve per
    branch, so the rows that share a branch run it and build its curves once.
    A row is computed in the view's integers: each welfare is
    `ScaledView.welfare`, the fractional optimum is walked on the view's rows,
    each ratio is printed from a pair of ints, and the welfare floor reads the
    truthful row's welfare and compares by cross-multiplying.
    """
    mechanisms = list(mechanisms)
    if not mechanisms:
        raise ValueError("no mechanisms to compare")
    unknown = [m for m in mechanisms if m not in pricing.MECHANISMS]
    if unknown:
        raise ValueError(f"unknown mechanisms: {unknown}; choices: {sorted(pricing.MECHANISMS)}")
    repeated = sorted({m for m in mechanisms if mechanisms.count(m) > 1})
    if repeated:
        raise ValueError(f"duplicate mechanisms: {repeated}")
    mechs = [(name, pricing.MECHANISMS[name]) for name in mechanisms]
    rows: list[dict] = []
    skipped: list[tuple[str, str]] = []
    payment_warnings: list[tuple[str, str, str]] = []
    for idx, inst in enumerate(corpus):
        instance_id = f"i{idx:05d}"
        rep = truthful_profile(inst)
        view = kernels.ScaledView(inst, rep)
        try:
            int_num, int_den = view.welfare(exact.int_opt_cross_checked(inst, rep, view))
        except GuardExceededError as exc:
            skipped.append((instance_id, str(exc)))
            continue
        frac = fracopt.fractional_opt(inst, rep, view).objective
        frac_num, frac_den = frac.numerator, frac.denominator

        welfare = {}
        for name, mech in mechs:
            start = time.perf_counter()
            payment = ""
            if mech is None:  # frac-opt
                num, den = frac_num, frac_den
            else:
                try:
                    priced = mech.price(inst, rep, view)
                    outcome = priced.mixture
                    paid = priced.total_payment()
                    payment = _fmt(paid.numerator, paid.denominator)
                except NonMonotoneClickCurveError as exc:
                    # greedy rules carry no monotonicity promise (capped
                    # greedy-bpb breaks it); leave the payment blank
                    payment_warnings.append((instance_id, name, str(exc)))
                    outcome = pricing.rule_allocate(inst, rep, mech.rule, view)
                num, den = welfare[name] = view.welfare(outcome)
            runtime_us = int((time.perf_counter() - start) * 1e6)
            rows.append(
                {
                    "instance_id": instance_id,
                    "mechanism": name,
                    "sw": _fmt(num, den),
                    "ratio_int_opt": _fmt(int_num * den, int_den * num) if num > 0 else "",
                    "ratio_frac_opt": _fmt(frac_num * den, frac_den * num) if num > 0 else "",
                    "payment": payment,
                    "runtime_us": str(runtime_us),
                }
            )

        # load-bearing: the truthful mechanism is a 3-approximation
        truthful = welfare.get("truthful-3approx")
        if truthful is None:
            truthful = view.welfare(pricing.rule_allocate(inst, rep, pricing.mixture_rule(), view))
        num, den = truthful
        if 3 * num * frac_den < frac_num * den:
            raise InvariantViolation(
                f"truthful mixture fell below a third of the fractional optimum on {instance_id}"
            )
    return ComparisonResult(rows=rows, skipped=skipped, payment_warnings=payment_warnings)


HISTOGRAM_EDGES = [Fraction(1) + Fraction(i, 4) for i in range(13)]  # 1.00 .. 4.00


def ratio_histogram(rows: list[dict], mechanism: str) -> list[tuple[str, int]]:
    """Deterministic binning of ratio_int_opt for one mechanism."""
    counts = [0] * (len(HISTOGRAM_EDGES) + 1)
    for row in rows:
        if row["mechanism"] != mechanism or not row["ratio_int_opt"]:
            continue
        x = float(row["ratio_int_opt"])
        for k, edge in enumerate(HISTOGRAM_EDGES):
            if x <= float(edge) + 1e-12:
                counts[k] += 1
                break
        else:
            counts[-1] += 1
    labels = [f"<={float(edge):.2f}" for edge in HISTOGRAM_EDGES] + [">4.00"]
    return list(zip(labels, counts))


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Generate the corpus, compare mechanisms, write CSV + histograms + summary.

    The output directory is made only once the comparison has run, so a
    refused config leaves nothing behind.
    """
    corpus = generate_corpus(cfg)
    result = run_comparison(corpus, cfg.mechanisms)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "comparison.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(result.rows)

    for name in cfg.mechanisms:
        with open(out / f"histogram_{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ratio_int_opt_bin", "count"])
            writer.writerows(ratio_histogram(result.rows, name))

    summary: dict = {
        "config": cfg.to_dict(),
        "instances": len(corpus),
        "skipped": result.skipped,
        "payment_warnings": result.payment_warnings,
    }
    for name in cfg.mechanisms:
        ratios = [float(r["ratio_int_opt"]) for r in result.rows if r["mechanism"] == name and r["ratio_int_opt"]]
        summary[name] = {
            "rows": sum(r["mechanism"] == name for r in result.rows),
            "mean_ratio_int_opt": f"{sum(ratios) / len(ratios):.6f}" if ratios else None,
            "max_ratio_int_opt": f"{max(ratios):.6f}" if ratios else None,
        }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


# --- monotonicity audits ---------------------------------------------------

AUDIT_RULES = (*pricing.RULES, "int-opt")


@dataclass(frozen=True)
class AuditViolation:
    instance_index: int
    adv_id: str
    low_bid: Fraction
    high_bid: Fraction
    low_subset: frozenset[str]
    high_subset: frozenset[str]
    low_clicks: Fraction
    high_clicks: Fraction


@dataclass
class AuditResult:
    rule: str
    trials: int
    violations: list[AuditViolation] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations


def monotonicity_audit(
    corpus: Sequence[Instance], rule: str, trials: int, seed: int = 0
) -> AuditResult:
    """Random (bid, subset) pairs ordered componentwise; clicks must not drop.

    Each trial samples an instance, an advertiser, a pair of bids
    low <= high and nested subsets low ⊆ high, with everyone else
    truthful, and checks the rule's expected clicks are monotone.
    """
    if rule not in AUDIT_RULES:
        raise ValueError(f"unknown audit rule {rule!r}; choices: {AUDIT_RULES}")
    # the exact optimum is not monotone, and not a rule of the table
    allocate = exact.int_opt_dp if rule == "int-opt" else partial(pricing.rule_allocate, rule=pricing.AllocationRule(rule))
    rng = random.Random(seed)
    result = AuditResult(rule=rule, trials=trials)
    if not corpus:
        return result
    for t in range(trials):
        idx = rng.randrange(len(corpus))
        inst = corpus[idx]
        adv = inst.advertisers[rng.randrange(len(inst.advertisers))]
        rep = truthful_profile(inst)

        denom = 8
        hi_num = rng.randint(1, 2 * denom)
        lo_num = rng.randint(1, hi_num)
        high_bid = adv.value_per_click * Fraction(hi_num, denom)
        low_bid = adv.value_per_click * Fraction(lo_num, denom)

        ids = list(adv.ad_ids())
        high_subset = frozenset(ad for ad in ids if rng.random() < 0.8) or frozenset(ids)
        # draw in catalog order: a frozenset's order follows the string hash seed
        low_subset = frozenset(ad for ad in ids if ad in high_subset and rng.random() < 0.7)

        low_clicks = allocate(inst, rep.replace(adv.adv_id, low_bid, low_subset)).clicks(inst, adv.adv_id)
        high_clicks = allocate(inst, rep.replace(adv.adv_id, high_bid, high_subset)).clicks(inst, adv.adv_id)
        if low_clicks > high_clicks:
            result.violations.append(
                AuditViolation(
                    instance_index=idx,
                    adv_id=adv.adv_id,
                    low_bid=low_bid,
                    high_bid=high_bid,
                    low_subset=low_subset,
                    high_subset=high_subset,
                    low_clicks=low_clicks,
                    high_clicks=high_clicks,
                )
            )
    return result
