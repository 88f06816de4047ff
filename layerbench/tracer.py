"""Spans and work counters recorded around calls into richads.

The tracer lives entirely in the benchmark: it replaces functions at the
place where the library looks them up. `ScaledView` and the kernel walks
are bound into `monotone`, `heuristics` and `exact` by `from .kernels
import`, so wrapping only `richads.kernels.ScaledView` would count nothing;
each module's own global is patched instead. Probes are counted at
`pricing.branch_allocate`, which `_clicks_with_bid` reaches through a
module-global lookup.

Spans are aggregated in memory by name (calls, total seconds, self
seconds). A span's self time is its duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# (layer, module attribute holding the function or class, owners that look
# the name up at call time). Owners are module names under richads, or
# "equilibrium._Evaluator" for the memoising evaluator's methods.
PATCHES = (
    ("model", "instance_from_dict", ("model",)),
    ("model", "validate_instance", ("model",)),
    ("model", "load_instance", ("model", "fixtures")),
    ("model", "social_welfare", ("model", "harness", "equilibrium")),
    ("kernels", "ScaledView", ("kernels", "monotone", "heuristics", "exact")),
    ("kernels", "run_space_auction", ("kernels", "monotone", "heuristics")),
    ("kernels", "run_space_auction_traced", ("kernels", "monotone")),
    ("kernels", "run_best_fit", ("kernels", "monotone", "heuristics")),
    ("kernels", "run_value_greedy", ("kernels", "heuristics")),
    ("monotone", "bpb_allocation", ("monotone", "equilibrium")),
    ("monotone", "max_value_allocation", ("monotone", "heuristics", "equilibrium")),
    ("monotone", "randomized_mechanism", ("monotone",)),
    ("monotone", "space_assignment", ("monotone", "equilibrium")),
    ("heuristics", "greedy_by_bpb", ("heuristics",)),
    ("heuristics", "greedy_by_value", ("heuristics",)),
    ("heuristics", "randomized_greedy", ("heuristics",)),
    ("exact", "int_opt_dp", ("exact",)),
    ("exact", "int_opt_exhaustive", ("exact",)),
    ("exact", "int_opt_cross_checked", ("exact",)),
    ("fracopt", "fractional_opt", ("fracopt",)),
    ("pricing", "myerson_payment", ("pricing",)),
    ("pricing", "gsp_prices", ("pricing",)),
    ("pricing", "vcg_payments", ("pricing",)),
    ("pricing", "rule_allocate", ("pricing",)),
    ("pricing", "branch_allocate", ("pricing",)),
    ("pricing", "_build_curve", ("pricing",)),
    ("equilibrium", "strategy_spaces", ("equilibrium",)),
    ("equilibrium", "find_pure_nash", ("equilibrium",)),
    ("equilibrium", "best_response", ("equilibrium",)),
    ("equilibrium", "utility", ("equilibrium._Evaluator",)),
    ("equilibrium", "payment", ("equilibrium._Evaluator",)),
    ("equilibrium", "_branch_alloc", ("equilibrium._Evaluator",)),
    ("equilibrium", "_curve", ("equilibrium._Evaluator",)),
    ("harness", "generate_corpus", ("harness",)),
    ("harness", "run_comparison", ("harness",)),
    ("harness", "ratio_histogram", ("harness",)),
    ("harness", "run_experiment", ("harness",)),
)

WALKS = ("run_space_auction", "run_space_auction_traced", "run_best_fit", "run_value_greedy")

# (name, unit, better): the per-layer metrics `layer_metrics` reports
LAYER_METRICS = (
    ("kernels.views", "count", "lower"),
    ("kernels.view_s", "s", "lower"),
    ("kernels.walks", "count", "lower"),
    ("kernels.walk_s", "s", "lower"),
    ("pricing.curves", "count", "lower"),
    ("pricing.probes", "count", "lower"),
    ("pricing.probes_per_payment", "probes/payment", "lower"),
    ("pricing.candidates_per_curve", "cands/curve", "lower"),
    ("pricing.self_s", "s", "lower"),
    ("exact.dp_calls", "count", "lower"),
    ("exact.dp_cells", "count", "lower"),
    ("exact.dp_s", "s", "lower"),
    ("fracopt.calls", "count", "lower"),
    ("fracopt.s", "s", "lower"),
    ("monotone.calls", "count", "lower"),
    ("monotone.self_s", "s", "lower"),
    ("heuristics.calls", "count", "lower"),
    ("heuristics.self_s", "s", "lower"),
    ("equilibrium.utility_evals", "count", "lower"),
    ("equilibrium.alloc_hit_ratio", "ratio", "higher"),
    ("equilibrium.curve_hit_ratio", "ratio", "higher"),
    ("equilibrium.self_s", "s", "lower"),
    ("model.load_s", "s", "lower"),
    ("model.welfare_calls", "count", "lower"),
    ("model.welfare_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("tracing.overhead_ratio", "ratio", "lower"),
)


class _Frame:
    __slots__ = ("name", "child_s", "view", "missed")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.view = None  # the last ScaledView built directly inside this span
        self.missed = False  # a memo lookup in this span had to compute


class Tracer:
    """Patch richads lookups with span-recording wrappers; aggregate by name.

    Wrappers do nothing but call through while `active` is false, so the
    benchmark pauses the tracer around its own correctness checks.
    """

    def __init__(self):
        self.active = False
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- installation -----------------------------------------------------

    def install(self, lib) -> None:
        for layer, attr, owners in PATCHES:
            name = f"{layer}.{attr}"
            for owner_name in owners:
                owner = lib.owner(owner_name)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original, _HOOKS.get(attr)))
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.active = False

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = _Frame(name)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent.child_s += elapsed
                rec = tracer.spans.get(name)
                if rec is None:
                    rec = tracer.spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame.child_s
            if hook is not None:
                hook(tracer.counts, frame, parent, args, result)
            return result

        return traced

    # --- reading ----------------------------------------------------------

    def _sum(self, prefix: str, field: int, names=None) -> float:
        total = 0
        for name, rec in self.spans.items():
            layer, _, attr = name.partition(".")
            if layer == prefix and (names is None or attr in names):
                total += rec[field]
        return total

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def load_s(self) -> float:
        """Self time of parsing, validating and loading instances."""
        return self._sum("model", 2, ("instance_from_dict", "validate_instance", "load_instance"))

    def layer_metrics(self, overhead_ratio: float, load_s: float | None = None) -> dict[str, float]:
        """The per-layer metrics; `load_s` is taken from a separate set-up trace when given."""
        c = self.counts
        curves = self.calls("pricing._build_curve")
        dp_calls = self.calls("exact.int_opt_dp")
        alloc_lookups = self.calls("equilibrium._branch_alloc")
        curve_lookups = self.calls("equilibrium._curve")
        return {
            "kernels.views": self.calls("kernels.ScaledView"),
            "kernels.view_s": self._sum("kernels", 1, ("ScaledView",)),
            "kernels.walks": self._sum("kernels", 0, WALKS),
            "kernels.walk_s": self._sum("kernels", 1, WALKS),
            "pricing.curves": curves,
            "pricing.probes": c["probes"],
            "pricing.probes_per_payment": _ratio(c["probes"], c["threshold_payments"]),
            "pricing.candidates_per_curve": _ratio(c["candidates"], curves),
            "pricing.self_s": self._sum("pricing", 2),
            "exact.dp_calls": dp_calls,
            "exact.dp_cells": c["dp_cells"],
            "exact.dp_s": self._sum("exact", 2, ("int_opt_dp",)),
            "fracopt.calls": self.calls("fracopt.fractional_opt"),
            "fracopt.s": self._sum("fracopt", 2),
            "monotone.calls": self._sum("monotone", 0),
            "monotone.self_s": self._sum("monotone", 2),
            "heuristics.calls": self._sum("heuristics", 0),
            "heuristics.self_s": self._sum("heuristics", 2),
            "equilibrium.utility_evals": self.calls("equilibrium.utility"),
            "equilibrium.alloc_hit_ratio": _ratio(alloc_lookups - c["alloc_misses"], alloc_lookups),
            "equilibrium.curve_hit_ratio": _ratio(curve_lookups - c["curve_misses"], curve_lookups),
            "equilibrium.self_s": self._sum("equilibrium", 2),
            "model.load_s": self.load_s() if load_s is None else load_s,
            "model.welfare_calls": self.calls("model.social_welfare"),
            "model.welfare_s": self._sum("model", 2, ("social_welfare",)),
            "harness.self_s": self._sum("harness", 2),
            "tracing.overhead_ratio": overhead_ratio,
        }

    def span_table(self) -> dict[str, dict]:
        return {
            name: {"calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
            for name, rec in sorted(self.spans.items())
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# --- hooks: counters taken where the work happens ---------------------------


def _on_view(counts, frame, parent, args, view):
    if parent is not None:
        parent.view = view


def _on_branch_allocate(counts, frame, parent, args, result):
    if parent is None:
        return
    if parent.name == "pricing._build_curve":
        counts["probes"] += 1
    parent.missed = True


def _on_build_curve(counts, frame, parent, args, curve):
    counts["candidates"] += len(curve.thresholds) - 1
    if parent is not None:
        parent.missed = True


def _on_priced(counts, frame, parent, args, outcome):
    counts["threshold_payments"] += len(outcome.payments)


def _on_evaluator_payment(counts, frame, parent, args, result):
    if args[0].mech.pricing != "vcg":
        counts["threshold_payments"] += 1


def _on_dp(counts, frame, parent, args, alloc):
    view = frame.view
    counts["dp_cells"] += view.n_adv() * (view.total + 1)


def _on_alloc_lookup(counts, frame, parent, args, result):
    if frame.missed:
        counts["alloc_misses"] += 1


def _on_curve_lookup(counts, frame, parent, args, result):
    if frame.missed:
        counts["curve_misses"] += 1


_HOOKS = {
    "ScaledView": _on_view,
    "branch_allocate": _on_branch_allocate,
    "_build_curve": _on_build_curve,
    "myerson_payment": _on_priced,
    "gsp_prices": _on_priced,
    "payment": _on_evaluator_payment,
    "int_opt_dp": _on_dp,
    "_branch_alloc": _on_alloc_lookup,
    "_curve": _on_curve_lookup,
}
