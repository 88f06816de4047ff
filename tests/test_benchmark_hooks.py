"""Every name the benchmark's tracer patches, every attribute its hooks
read, and every entry point its workloads call must still resolve in richads.

`layerbench/tracer.py` wraps functions where the library looks them up
(`PATCHES`: layer, attribute, owners) and counts work off their results
(`_HOOKS`). A renamed or removed name breaks `layerbench/run.py --trace 1`
with an AttributeError, so it is checked here. The workloads, their checks
and the runner call the library as `lib.<module>.<name>`; a deleted name
breaks every benchmark run, so those names are checked too. The tracer
module imports only the standard library and is loaded by path;
`layerbench/library.py`, which re-imports richads, is not used.
"""

import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

from richads import fixtures, pricing
from richads.model import truthful_profile

LAYERBENCH = Path(__file__).resolve().parents[1] / "layerbench"
TRACER = LAYERBENCH / "tracer.py"
# `lib.<module>.<name>` in the benchmark's sources: a richads module's attribute
ENTRY_POINT = re.compile(r"\blib\.([a-z_]+)\.([A-Za-z_]+)")


def _tracer():
    spec = importlib.util.spec_from_file_location("layerbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patches():
    return _tracer().PATCHES


def _owner(name: str):
    module, _, attr = name.partition(".")
    got = importlib.import_module(f"richads.{module}")
    return getattr(got, attr) if attr else got


def test_every_patched_name_resolves():
    patches = _patches()
    assert patches
    missing = [
        f"{owner}.{attr}"
        for _layer, attr, owners in patches
        for owner in owners
        if not hasattr(_owner(owner), attr)
    ]
    assert missing == []


def test_every_benchmark_entry_point_resolves():
    names = {
        match.groups()
        for source in ("workloads.py", "checks.py", "run.py")
        for match in ENTRY_POINT.finditer((LAYERBENCH / source).read_text())
    }
    assert len(names) >= 26
    missing = [f"{module}.{attr}" for module, attr in sorted(names) if not hasattr(_owner(module), attr)]
    assert missing == []


def test_the_curve_hook_counts_the_curves_candidates():
    inst = fixtures.fx1()
    rep = truthful_profile(inst)
    hook = _tracer()._HOOKS["_build_curve"]
    for adv in inst.advertisers:
        curve = pricing.bid_thresholds(inst, rep, adv.adv_id, pricing.AllocationRule("bpb"))
        assert curve.ties
        counts = Counter()
        hook(counts, None, None, (), curve)
        assert counts["candidates"] == len(curve.ties)
