"""Every name the benchmark's tracer patches must still resolve in richads.

`layerbench/tracer.py` wraps functions where the library looks them up
(`PATCHES`: layer, attribute, owners). A renamed or removed name breaks
`layerbench/run.py --trace 1` with an AttributeError, so it is checked
here. The tracer module imports only the standard library and is loaded
by path; `layerbench/library.py`, which re-imports richads, is not used.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "layerbench" / "tracer.py"


def _patches():
    spec = importlib.util.spec_from_file_location("layerbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


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
