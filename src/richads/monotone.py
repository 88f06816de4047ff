"""Monotone allocation rules: space assignment, integral rule, max-value rule.

The space assignment walks ads by bang-per-buck, replacing an advertiser's
holding whenever a bigger ad of theirs still fits, and stops with a
fractional tail on the first misfit. The integral rule keeps only the
assigned spaces and gives each advertiser their most valuable fitting ad.
The max-value rule serves the single most valuable ad. Both are monotone
in (bid, subset); their mixture is the truthful mechanism's backbone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import pricing  # a cycle: see `pricing.RULES`
from .kernels import ScaledView, run_best_fit, run_space_auction, run_space_auction_traced
from .model import WHOLE, Allocation, Instance, Mixture, ReportProfile

TRUTHFUL_MIX_P = Fraction(2, 3)
GSP_MIX_P = Fraction(1, 2)


@dataclass(frozen=True)
class TraceRun:
    """A maximal range of scaled units covered by one ad, in cover order."""

    start: int  # unit interval [start, end), 0-indexed
    end: int
    adv_id: str
    ad_id: str
    density: Fraction  # reported effective value per unit of (unscaled) space
    kind: str  # "place", "replace" or "fractional"


@dataclass(frozen=True)
class SpaceTrace:
    """Unit-level log of one space assignment run.

    Units are the total space cut into `total_units` equal pieces (`scale`
    pieces per unit of space). Each run labels the units an ad newly covered
    when it was picked; units past the last run were never covered.
    """

    scale: int
    total_units: int
    runs: tuple[TraceRun, ...]

    def covering(self, unit: int) -> TraceRun | None:
        """The run covering 1-indexed unit `unit`, or None if uncovered."""
        for run in self.runs:
            if run.start < unit <= run.end:
                return run
        return None

    def describe(self) -> list[str]:
        out = []
        for run in self.runs:
            out.append(
                f"{run.kind}: advertiser {run.adv_id} ad {run.ad_id} covers units "
                f"({run.start}, {run.end}] at density {run.density}"
            )
        return out


@dataclass(frozen=True)
class SpaceAssignment:
    """Result of the bang-per-buck space walk.

    `spaces` holds each advertiser's reserved space (absent means zero);
    `held` the ad that reserved it. `fractional`, when set, is the stopping
    (adv_id, ad_id, weight): the advertiser whose last ad only partially fit.
    """

    spaces: dict[str, Fraction]
    held: dict[str, str]
    fractional: tuple[str, str, Fraction] | None
    trace: SpaceTrace


def _assignment_from_view(view: ScaledView):
    held, held_spc, frac_adv, frac_num, frac_den, events = run_space_auction_traced(view)
    runs = tuple(
        TraceRun(
            start=start,
            end=end,
            adv_id=view.adv_ids[view.adv[i]],
            ad_id=view.ad_ids[i],
            density=Fraction(view.val[i] * view.space_scale, view.value_scale * view.spc[i]),
            kind=kind,
        )
        for kind, i, start, end in events
    )
    trace = SpaceTrace(scale=view.space_scale, total_units=view.total, runs=runs)
    return held, held_spc, frac_adv, frac_num, frac_den, trace


def space_assignment(inst: Instance, rep: ReportProfile) -> SpaceAssignment:
    """The bang-per-buck space walk over the view of (inst, rep), with the
    unit-level trace of which ad covered which units."""
    view = ScaledView(inst, rep)
    held, held_spc, frac_adv, frac_num, frac_den, trace = _assignment_from_view(view)
    spaces: dict[str, Fraction] = {}
    held_ads: dict[str, str] = {}
    for a, ad_index in enumerate(held):
        if ad_index >= 0:
            adv_id = view.adv_ids[a]
            spaces[adv_id] = Fraction(held_spc[a], view.space_scale)
            held_ads[adv_id] = view.ad_ids[ad_index]
    fractional = None
    if frac_adv >= 0:
        frac_idx = held[frac_adv]
        fractional = (view.adv_ids[frac_adv], view.ad_ids[frac_idx], Fraction(frac_num, frac_den))
    return SpaceAssignment(spaces=spaces, held=held_ads, fractional=fractional, trace=trace)


def bpb_allocation(inst: Instance, rep: ReportProfile, view: ScaledView | None = None) -> Allocation:
    """The integral rule: space assignment, then best fitting ad per advertiser.

    `view`, when given, must be the view of (inst, rep); it is used instead
    of building one.
    """
    if view is None:
        view = ScaledView(inst, rep)
    _held, held_spc, _fa, _fn, _fd = run_space_auction(view)
    return view.allocation(run_best_fit(view, held_spc))


def max_value_allocation(inst: Instance, rep: ReportProfile, view: ScaledView | None = None) -> Allocation:
    """Serve only the single most valuable reported ad that fits at all,
    value ties to the lower (adv_id, ad_id). An ad of zero reported value
    (a zero bid, a zero click rate) is not in the view, so when none of
    positive value fits nobody is served.

    `view`, when given, must be the view of (inst, rep).
    """
    if view is None:
        view = ScaledView(inst, rep)
    best = -1
    for i in range(len(view)):
        if view.spc[i] > view.total:
            continue
        if best < 0 or view.val[i] > view.val[best]:
            best = i
    entries = {view.adv_ids[view.adv[best]]: (view.ad_ids[best], WHOLE)} if best >= 0 else {}
    return Allocation(entries=entries)


def randomized_mechanism(inst: Instance, rep: ReportProfile, p: Fraction = TRUTHFUL_MIX_P) -> Mixture:
    """Mix the integral rule (probability p) with the max-value rule: the
    rule table's "mixture", both branches on one view."""
    return pricing.rule_allocate(inst, rep, pricing.mixture_rule(p))
