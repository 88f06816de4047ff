"""Greedy heuristics: bang-per-buck with skips, value greedy, randomized mix.

These trade the fractional stop for skip-and-continue (bang-per-buck) or a
straight value scan, and serve at most the instance's `cardinality_limit`
advertisers when it has one. Both walk the view's orders
(`ScaledView.bpb_order`, `ScaledView.value_order`), so they break ties as
the monotone rules and the probe kernels do. Bang-per-buck greedy is one
walk of `kernels.greedy_step`, capped or not. They carry no welfare
guarantee on their own; the randomized mix, 2/3 greedy-bpb and 1/3
max-value, restores one through its max-value branch.

Value greedy is monotone, capped or not: a higher bid moves each of the
bidder's ads to an earlier point of the others' walk, where no less space
is left and no more advertisers are served (the proof is in
`kernels.BidderProbe`). Pricing bisects its click curves. Bang-per-buck
greedy is not proven monotone, so pricing scans its click curves and raises
NonMonotoneClickCurveError on a drop. Capped greedy-bpb does drop: on 81 of
600 default instances (seeds 0-2, capped at 2), Myerson pricing raises. No
drop has been found for uncapped greedy-bpb.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from . import pricing  # a cycle: see `pricing.RULES`
from .kernels import ScaledView, greedy_step, run_best_fit, run_value_greedy
from .kernels import run_space_auction  # noqa: F401  (the benchmark's tracer wraps it here)
from .model import Allocation, Instance, Mixture, ReportProfile
from .monotone import max_value_allocation  # noqa: F401  (the benchmark's tracer wraps it here)

RANDOMIZED_GREEDY_P = Fraction(2, 3)


def greedy_by_bpb(inst: Instance, rep: ReportProfile, view: ScaledView | None = None) -> Allocation:
    """Bang-per-buck greedy: like the integral rule but misfits are skipped.

    The walk in `bpb_order` serves at most k advertisers, k the view's
    `limit` or else the number of advertisers. When k are
    served, a newcomer may push out the weakest holder: the one with the
    lowest held value (ties to the smallest adv_id). The newcomer must
    strictly beat that value and fit into the free space plus whatever the
    eviction releases; evicted advertisers stay eligible later
    (`kernels.greedy_step`). Uncapped, nobody is pushed out. After the walk,
    each advertiser's reserved space is upgraded to their most valuable
    fitting ad, mirroring the integral rule's second stage.
    """
    if view is None:
        view = ScaledView(inst, rep)
    k = view.limit or view.n_adv()
    held: dict[int, tuple[int, int]] = {}  # advertiser index -> (value, space) of the row held
    rem = view.total
    for i in view.bpb_order():
        rem = greedy_step(held, rem, k, view.adv[i], view.val[i], view.spc[i])
    caps = [0] * view.n_adv()
    for a, (_v, w) in held.items():
        caps[a] = w
    return view.allocation(run_best_fit(view, caps))


def greedy_by_value(inst: Instance, rep: ReportProfile, view: ScaledView | None = None) -> Allocation:
    """Value greedy: scan ads by value, allocate the first fit per advertiser.

    A non-fitting ad is skipped but leaves its advertiser eligible; an
    allocated advertiser's remaining ads are ignored. Stops once
    `cardinality_limit` advertisers are served.
    """
    if view is None:
        view = ScaledView(inst, rep)
    return view.allocation(run_value_greedy(view, view.limit or view.n_adv()))


def randomized_greedy(inst: Instance, rep: ReportProfile, p: Fraction = RANDOMIZED_GREEDY_P) -> Mixture:
    """Mix bang-per-buck greedy (probability p) with the max-value rule: the
    rule table's "randomized-greedy", both branches on one view."""
    return pricing.rule_allocate(inst, rep, pricing.AllocationRule("randomized-greedy", Fraction(p)))


def sample_mixture(mixture: Mixture, seed: int) -> Allocation:
    """Draw one branch of a mixture, in integers: a uniform draw below D, the
    lcm of the probabilities' denominators, picks the first branch whose
    cumulative numerator over D exceeds it. Analysis paths stay symbolic."""
    den = lcm(*(prob.denominator for prob, _alloc in mixture.branches))
    roll = random.Random(seed).randrange(den)
    acc = 0
    for prob, alloc in mixture.branches:
        acc += prob.numerator * (den // prob.denominator)
        if roll < acc:
            return alloc
    return mixture.branches[-1][1]
