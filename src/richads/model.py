"""Core data model: instances, reports, allocations, exact-rational JSON I/O.

All quantities are `fractions.Fraction`. Floats never enter the model; the
JSON layer accepts integers and "p/q" strings and rejects floats so that
every downstream comparison is exact.
"""

from __future__ import annotations

import json
import re
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


# the one string form of a rational: an optional sign, digits, and an
# optional "/digits"; `Fraction(str)` also takes exponents, decimals and
# padding, and "1e10000000" would build a ten-million-digit integer
RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(value) -> Fraction:
    """Parse an int or a "[+-]digits[/digits]" string into a Fraction; a
    Fraction is returned as it is. Floats, bools, and strings of any other
    form, are rejected with `ValueError`."""
    if isinstance(value, bool):
        raise ValueError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(f"floats are not accepted as rationals (got {value!r}); use \"p/q\"")
    if isinstance(value, str):
        if not RATIONAL.fullmatch(value):
            raise ValueError(f"rational {value!r} is not of the form [+-]digits[/digits], e.g. \"-1/3\"")
        num, _, den = value.partition("/")
        try:
            return Fraction(int(num), int(den or 1))
        except ZeroDivisionError:
            raise ValueError(f"rational {value!r} has a zero denominator") from None
    if isinstance(value, Fraction):
        return value
    raise ValueError(f"cannot parse rational from {type(value).__name__}: {value!r}")


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
        """This profile with `adv_id`'s report replaced; `bid` is an int, a
        Fraction or a "p/q" string (`parse_rational`), never a float."""
        bids = dict(self.bids)
        subsets = dict(self.subsets)
        bids[adv_id] = parse_rational(bid)
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


@dataclass(frozen=True)
class Violation:
    code: str
    location: str
    message: str

    def to_dict(self) -> dict:
        return {"code": self.code, "location": self.location, "message": self.message}


def _type_violation(value, loc: str, name: str) -> Violation | None:
    """A `not-rational` violation when `value` is neither an int nor a
    `Fraction` (a bool is refused too), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        return Violation("not-rational", loc, f"{name} must be an int or a Fraction, got {value!r}")
    return None


def validate_instance(inst: Instance) -> list[Violation]:
    """Check model invariants. Violations come back as data, not exceptions.

    `total_space`, `value_per_click`, `alpha` and `space` must be ints or
    `Fraction`s (not floats, not bools), since every kernel reads their
    numerators and denominators; a field of another type is reported as
    `not-rational`, and its range checks are skipped. The range checks read
    them too: no `Fraction` is compared, space and total cross-multiplied."""
    out: list[Violation] = []
    total = inst.total_space
    if total_bad := _type_violation(total, "instance", "total_space"):
        out.append(total_bad)
    elif total.numerator <= 0:
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
        if bad := _type_violation(adv.value_per_click, loc, "value_per_click"):
            out.append(bad)
        elif adv.value_per_click.numerator <= 0:
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
            if bad := _type_violation(ad.alpha, ad_loc, "alpha"):
                out.append(bad)
            elif not (0 < ad.alpha.numerator <= ad.alpha.denominator):
                out.append(Violation("alpha", ad_loc, f"alpha must lie in (0, 1], got {ad.alpha}"))
            if bad := _type_violation(ad.space, ad_loc, "space"):
                out.append(bad)
            elif ad.space.numerator <= 0:
                out.append(Violation("space", ad_loc, f"space must be positive, got {ad.space}"))
            elif total_bad is None and 0 < total.numerator * ad.space.denominator < ad.space.numerator * total.denominator:
                out.append(
                    Violation("space-exceeds-total", ad_loc, f"ad space {ad.space} exceeds total space {inst.total_space}")
                )
    return out


# --- JSON wire format ---------------------------------------------------

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


def load_json(fh):
    """`json.load`, with nesting too deep for the parser a `ValueError`."""
    try:
        return json.load(fh)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_dict(load_json(fh))
