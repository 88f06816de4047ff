"""Core data model: instances, reports, allocations, exact-rational JSON I/O.

All quantities are `fractions.Fraction`. Floats never enter the model; the
JSON layer accepts integers and "p/q" strings and rejects floats so that
every downstream comparison is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union


class GuardExceededError(Exception):
    """A configured size guard (DP capacity, enumeration count, ...) was hit."""


class InvariantViolation(Exception):
    """A computed result broke an invariant the package promises.

    Raised where a bare `assert` would be stripped by `python -O`.
    """


class NonMonotoneClickCurveError(Exception):
    """A click curve that must be nondecreasing in the bid is not.

    Carries the advertiser, the rule, and the offending interval pair so the
    failure names exactly where monotonicity broke.
    """

    def __init__(self, adv_id, rule_name, left_interval, right_interval, left_clicks, right_clicks):
        self.adv_id = adv_id
        self.rule_name = rule_name
        self.left_interval = left_interval
        self.right_interval = right_interval
        self.left_clicks = left_clicks
        self.right_clicks = right_clicks
        super().__init__(
            f"clicks for advertiser {adv_id!r} under rule {rule_name!r} drop from "
            f"{left_clicks} on {left_interval} to {right_clicks} on {right_interval}"
        )


def parse_rational(value) -> Fraction:
    """Parse an int or a "p/q" string into a Fraction. Floats are rejected."""
    if isinstance(value, bool):
        raise ValueError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(f"floats are not accepted as rationals (got {value!r}); use \"p/q\"")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"rational {value!r} has a zero denominator") from None
    raise ValueError(f"cannot parse rational from {type(value).__name__}: {value!r}")


def rational_str(value: Fraction) -> str:
    return str(Fraction(value))


@dataclass(frozen=True)
class RichAd:
    """One ad variant: click probability alpha in (0, 1], space demand > 0."""

    ad_id: str
    alpha: Fraction
    space: Fraction


@dataclass(frozen=True)
class Advertiser:
    adv_id: str
    value_per_click: Fraction
    ads: tuple[RichAd, ...]

    def ad(self, ad_id: str) -> RichAd:
        for a in self.ads:
            if a.ad_id == ad_id:
                return a
        raise KeyError(f"advertiser {self.adv_id!r} has no ad {ad_id!r}")

    def ad_ids(self) -> tuple[str, ...]:
        return tuple(a.ad_id for a in self.ads)


@dataclass(frozen=True)
class Instance:
    """An auction instance: advertisers, the shared space budget, optional k.

    Advertisers are kept sorted by id so iteration order is deterministic
    everywhere downstream.
    """

    advertisers: tuple[Advertiser, ...]
    total_space: Fraction
    cardinality_limit: int | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "advertisers", tuple(sorted(self.advertisers, key=lambda a: a.adv_id))
        )

    def advertiser(self, adv_id: str) -> Advertiser:
        for a in self.advertisers:
            if a.adv_id == adv_id:
                return a
        raise KeyError(f"no advertiser {adv_id!r}")

    def adv_ids(self) -> tuple[str, ...]:
        return tuple(a.adv_id for a in self.advertisers)


@dataclass(frozen=True, eq=True)
class ReportProfile:
    """What each advertiser declares: a bid and a subset of their catalog.

    `bids` maps adv_id to the reported per-click value; `subsets` maps adv_id
    to the set of ad_ids the advertiser exposes. Unreported ads have effective
    value zero for every rule.
    """

    bids: Mapping[str, Fraction]
    subsets: Mapping[str, frozenset[str]]

    def key(self):
        """Hashable normal form, for memoising profile evaluations."""
        return (
            tuple(sorted(self.bids.items())),
            tuple((a, tuple(sorted(s))) for a, s in sorted(self.subsets.items())),
        )

    def replace(self, adv_id: str, bid: Fraction, subset: Iterable[str]) -> "ReportProfile":
        bids = dict(self.bids)
        subsets = dict(self.subsets)
        bids[adv_id] = Fraction(bid)
        subsets[adv_id] = frozenset(subset)
        return ReportProfile(bids=bids, subsets=subsets)


def truthful_profile(inst: Instance) -> ReportProfile:
    """The honest report: bid the true value, expose the whole catalog."""
    return ReportProfile(
        bids={a.adv_id: a.value_per_click for a in inst.advertisers},
        subsets={a.adv_id: frozenset(a.ad_ids()) for a in inst.advertisers},
    )


# the weight of an ad served whole; Fractions are immutable, so the integral
# rules share this one object instead of building one per entry
WHOLE = Fraction(1)


@dataclass(frozen=True)
class Allocation:
    """A (possibly fractional) outcome: adv_id -> (ad_id, weight in (0, 1]).

    Deterministic rules emit weight-1 entries; the fractional optimum may
    assign one advertiser two weighted ads, which is represented by
    FractionalSolution instead. Advertisers that receive nothing are absent.
    """

    entries: Mapping[str, tuple[str, Fraction]] = field(default_factory=dict)

    def clicks(self, inst: Instance, adv_id: str) -> Fraction:
        got = self.entries.get(adv_id)
        if got is None:
            return Fraction(0)
        ad_id, weight = got
        return inst.advertiser(adv_id).ad(ad_id).alpha * weight

    def used_space(self, inst: Instance) -> Fraction:
        total = Fraction(0)
        for adv_id, (ad_id, weight) in self.entries.items():
            total += inst.advertiser(adv_id).ad(ad_id).space * weight
        return total


@dataclass(frozen=True)
class Mixture:
    """A lottery over allocations; branch probabilities sum to one."""

    branches: tuple[tuple[Fraction, Allocation], ...]

    def __post_init__(self):
        total = sum((p for p, _ in self.branches), Fraction(0))
        if total != 1:
            raise ValueError(f"branch probabilities sum to {total}, expected 1")
        if any(p < 0 for p, _ in self.branches):
            raise ValueError("branch probabilities must be nonnegative")

    def clicks(self, inst: Instance, adv_id: str) -> Fraction:
        return sum((p * alloc.clicks(inst, adv_id) for p, alloc in self.branches), Fraction(0))


Outcome = Union[Allocation, Mixture]


def as_mixture(outcome: Outcome) -> Mixture:
    if isinstance(outcome, Mixture):
        return outcome
    return Mixture(branches=((Fraction(1), outcome),))


def social_welfare(inst: Instance, outcome: Outcome) -> Fraction:
    """Welfare at *true* values, regardless of what was reported."""
    mix = as_mixture(outcome)
    total = Fraction(0)
    for prob, alloc in mix.branches:
        for adv_id, (ad_id, weight) in alloc.entries.items():
            adv = inst.advertiser(adv_id)
            total += prob * adv.value_per_click * adv.ad(ad_id).alpha * weight
    return total


def effective_values(inst: Instance, rep: ReportProfile) -> dict[tuple[str, str], Fraction]:
    """Reported per-ad values b_i * alpha_ij, for reported ads only."""
    out: dict[tuple[str, str], Fraction] = {}
    for adv in inst.advertisers:
        bid = rep.bids.get(adv.adv_id, Fraction(0))
        subset = rep.subsets.get(adv.adv_id, frozenset())
        for ad in adv.ads:
            if ad.ad_id in subset:
                out[(adv.adv_id, ad.ad_id)] = bid * ad.alpha
    return out


@dataclass(frozen=True)
class Violation:
    code: str
    location: str
    message: str

    def to_dict(self) -> dict:
        return {"code": self.code, "location": self.location, "message": self.message}


def validate_instance(inst: Instance) -> list[Violation]:
    """Check model invariants. Violations come back as data, not exceptions."""
    out: list[Violation] = []
    if inst.total_space <= 0:
        out.append(Violation("total-space", "instance", f"total_space must be positive, got {inst.total_space}"))
    if inst.cardinality_limit is not None and inst.cardinality_limit < 1:
        out.append(Violation("cardinality", "instance", f"cardinality_limit must be >= 1, got {inst.cardinality_limit}"))
    seen_adv: set[str] = set()
    ad_owner: dict[str, str] = {}
    for adv in inst.advertisers:
        loc = f"advertiser {adv.adv_id!r}"
        if not adv.adv_id:
            out.append(Violation("empty-id", loc, "advertiser id must be nonempty"))
        if adv.adv_id in seen_adv:
            out.append(Violation("duplicate-id", loc, "duplicate advertiser id"))
        seen_adv.add(adv.adv_id)
        if adv.value_per_click <= 0:
            out.append(Violation("value", loc, f"value_per_click must be positive, got {adv.value_per_click}"))
        if not adv.ads:
            out.append(Violation("no-ads", loc, "advertiser has no ads"))
        seen_ad: set[str] = set()
        for ad in adv.ads:
            ad_loc = f"{loc}, ad {ad.ad_id!r}"
            if not ad.ad_id:
                out.append(Violation("empty-id", ad_loc, "ad id must be nonempty"))
            if ad.ad_id in seen_ad:
                out.append(Violation("duplicate-id", ad_loc, "duplicate ad id"))
            seen_ad.add(ad.ad_id)
            owner = ad_owner.setdefault(ad.ad_id, adv.adv_id)
            if owner != adv.adv_id:
                out.append(
                    Violation(
                        "catalogs-not-disjoint",
                        ad_loc,
                        f"ad id {ad.ad_id!r} also appears in advertiser {owner!r}'s catalog",
                    )
                )
            if not (0 < ad.alpha <= 1):
                out.append(Violation("alpha", ad_loc, f"alpha must lie in (0, 1], got {ad.alpha}"))
            if ad.space <= 0:
                out.append(Violation("space", ad_loc, f"space must be positive, got {ad.space}"))
            elif inst.total_space > 0 and ad.space > inst.total_space:
                out.append(
                    Violation("space-exceeds-total", ad_loc, f"ad space {ad.space} exceeds total space {inst.total_space}")
                )
    return out


def validate_report(inst: Instance, rep: ReportProfile) -> list[Violation]:
    out: list[Violation] = []
    known = set(inst.adv_ids())
    for adv_id, bid in rep.bids.items():
        if adv_id not in known:
            out.append(Violation("unknown-advertiser", f"report {adv_id!r}", "bid for unknown advertiser"))
        elif bid < 0:
            out.append(Violation("negative-bid", f"report {adv_id!r}", f"bid must be >= 0, got {bid}"))
    for adv_id, subset in rep.subsets.items():
        if adv_id not in known:
            out.append(Violation("unknown-advertiser", f"report {adv_id!r}", "subset for unknown advertiser"))
            continue
        catalog = set(inst.advertiser(adv_id).ad_ids())
        for ad_id in subset:
            if ad_id not in catalog:
                out.append(Violation("unknown-ad", f"report {adv_id!r}", f"subset names unknown ad {ad_id!r}"))
    return out


# --- JSON wire format ---------------------------------------------------

def instance_to_dict(inst: Instance) -> dict:
    return {
        "total_space": rational_str(inst.total_space),
        "cardinality_limit": inst.cardinality_limit,
        "advertisers": [
            {
                "id": adv.adv_id,
                "value_per_click": rational_str(adv.value_per_click),
                "ads": [
                    {"id": ad.ad_id, "alpha": rational_str(ad.alpha), "space": rational_str(ad.space)}
                    for ad in adv.ads
                ],
            }
            for adv in inst.advertisers
        ],
    }


def _objects(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of objects, got {type(value).__name__}")
    for item in value:
        if not isinstance(item, dict):
            raise ValueError(f"{what} must be a list of objects, got an item of type {type(item).__name__}")
    return value


def _string_id(row: dict, what: str) -> str:
    value = row["id"]
    if not isinstance(value, str):
        raise ValueError(f"{what} id must be a string, got {value!r}")
    return value


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise ValueError("instance JSON must be an object")
    try:
        total = parse_rational(data["total_space"])
        limit = data.get("cardinality_limit")
        # bool is a subclass of int, but `true` is not a cardinality
        if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int)):
            raise ValueError(f"cardinality_limit must be an integer or null, got {limit!r}")
        advertisers = []
        for row in _objects(data["advertisers"], "advertisers"):
            ads = tuple(
                RichAd(ad_id=_string_id(a, "ad"), alpha=parse_rational(a["alpha"]), space=parse_rational(a["space"]))
                for a in _objects(row["ads"], f"ads of advertiser {row.get('id')!r}")
            )
            advertisers.append(
                Advertiser(
                    adv_id=_string_id(row, "advertiser"),
                    value_per_click=parse_rational(row["value_per_click"]),
                    ads=ads,
                )
            )
    except KeyError as exc:
        raise ValueError(f"instance JSON missing field {exc.args[0]!r}") from exc
    return Instance(advertisers=tuple(advertisers), total_space=total, cardinality_limit=limit)


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def save_instance(inst: Instance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")
