"""Every name the benchmark's tracer patches, and every attribute its hooks
read, must still resolve in richads.

`layerbench/tracer.py` wraps functions where the library looks them up
(`PATCHES`: layer, attribute, owners) and counts work off their results
(`_HOOKS`). A renamed or removed name breaks `layerbench/run.py --trace 1`
with an AttributeError, so it is checked here. The tracer module imports
only the standard library and is loaded by path; `layerbench/library.py`,
which re-imports richads, is not used.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from richads import fixtures, pricing
from richads.model import truthful_profile

TRACER = Path(__file__).resolve().parents[1] / "layerbench" / "tracer.py"


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


def test_the_curve_hook_counts_the_curves_candidates():
    inst = fixtures.fx1()
    rep = truthful_profile(inst)
    hook = _tracer()._HOOKS["_build_curve"]
    for adv in inst.advertisers:
        curve = pricing.bid_thresholds(inst, rep, adv.adv_id, pricing.bpb_rule())
        assert curve.ties
        counts = Counter()
        hook(counts, None, None, (), curve)
        assert counts["candidates"] == len(curve.ties)
