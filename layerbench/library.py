"""Import richads from the checkout's own `src/`, never from elsewhere."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = (
    "model", "kernels", "monotone", "heuristics", "exact", "fracopt",
    "pricing", "equilibrium", "harness", "fixtures",
)


class LibraryMissing(RuntimeError):
    """The checkout holds no importable richads sources."""


class Library:
    """The richads modules of one import, looked up by the benchmark at call time."""

    def __init__(self, modules: dict):
        for name, module in modules.items():
            setattr(self, name, module)

    def owner(self, name: str):
        """A module (`pricing`) or a class inside one (`equilibrium._Evaluator`)."""
        module, _, attr = name.partition(".")
        got = getattr(self, module)
        return getattr(got, attr) if attr else got

    def backend_name(self) -> str:
        # the dispatch layer (and with it backend_name) may be removed; then
        # the pure kernels are the only ones
        get = getattr(self.kernels, "backend_name", None)
        return get() if get is not None else "pure"


def load_library() -> Library:
    """Fresh import of richads from SRC; every call re-executes the modules."""
    init = SRC / "richads" / "__init__.py"
    if not init.is_file():
        raise LibraryMissing(f"no richads sources at {init.relative_to(ROOT)}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "richads" or m.startswith("richads.")]:
        del sys.modules[name]
    package = importlib.import_module("richads")
    if Path(package.__file__).resolve() != init.resolve():
        raise LibraryMissing(f"richads was imported from {package.__file__}, not from {init}")
    return Library({name: importlib.import_module(f"richads.{name}") for name in MODULES})
