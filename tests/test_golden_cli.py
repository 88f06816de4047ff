"""Golden pins of the command line: exit code, stdout digest and stderr.

Every case runs `cli` in process on a shipped fixture (or a seeded corpus)
and must print exactly what `golden_cli.json` pins. A refactor that keeps
behaviour keeps every pin; a pin that must change is a change in behaviour
and is recorded as one. Run this file as a script to rewrite the pins; it
names on stderr each pin whose value changed (added, removed or rewritten):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from richads import harness
from richads.cli import cli

PINS_PATH = Path(__file__).with_name("golden_cli.json")
FIXTURES = ("fx1", "fx2i", "fx2ii", "fx3", "fx4", "fx5", "fx6a", "fx6b")
EXPERIMENT_CONFIG = {"seed": 11, "instances": 6, "max_advertisers": 3, "max_ads": 2, "mechanisms": list(harness.MECHANISM_NAMES)}
# pin name -> experiment config
EXPERIMENTS = {"experiment": EXPERIMENT_CONFIG, "experiment-k2": {**EXPERIMENT_CONFIG, "cardinality": 2}}


def _fixture_path(name: str) -> str:
    return str(resources.files("richads") / "data" / f"{name}.json")


def cases() -> dict[str, list[str]]:
    """Case id -> argv."""
    out = {}
    for fx in FIXTURES:
        for mech in harness.MECHANISM_NAMES:
            argv = ["solve", _fixture_path(fx), "--mechanism", mech]
            out[f"solve-{fx}-{mech}"] = argv
            out[f"solve-{fx}-{mech}-k1"] = argv + ["--cardinality", "1"]
            out[f"solve-{fx}-{mech}-k2"] = argv + ["--cardinality", "2"]
        out[f"solve-{fx}-truthful-3approx-explain"] = ["solve", _fixture_path(fx), "--mechanism", "truthful-3approx", "--explain"]
        for rule in ("myerson", "gsp", "vcg"):
            argv = ["payments", _fixture_path(fx), "--rule", rule]
            out[f"payments-{fx}-{rule}"] = argv
            out[f"payments-{fx}-{rule}-explain"] = argv + ["--explain"]
            argv = ["equilibrium", _fixture_path(fx), "--grid", "1/4", "--pricing", rule, "--explain", "--beta-check"]
            out[f"equilibrium-{fx}-{rule}-explain-beta"] = argv
    for rule in harness.AUDIT_RULES:
        argv = ["audit", "--rule", rule, "--trials", "200", "--seed", "1"]
        out[f"audit-{rule}"] = argv
        out[f"audit-{rule}-tie-prone"] = argv + ["--tie-prone"]
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(argv: list[str]) -> list:
    """[exit code, sha256 of stdout, stderr]."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli(argv)
    return [code, _digest(out.getvalue()), err.getvalue()]


def run_experiment_case(tmp: Path, config: dict) -> list:
    """[exit code, sha256 of the summary, the CSVs (without `runtime_us`)]."""
    cfg_path = tmp / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp / "out"
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli(["experiment", str(cfg_path), "--out", str(out_dir)])
    with open(out_dir / "comparison.csv", newline="") as fh:
        rows = [{k: v for k, v in row.items() if k != "runtime_us"} for row in csv.DictReader(fh)]
    texts = [json.dumps(rows, sort_keys=True)]
    texts += [(out_dir / f"histogram_{name}.csv").read_text() for name in config["mechanisms"]]
    return [code, _digest(out.getvalue()), _digest("\n".join(texts))]


PINS = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
CASES = cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_pinned(case):
    assert run_case(CASES[case]) == PINS[case]


def test_experiment_output_is_pinned(tmp_path):
    assert run_experiment_case(tmp_path, EXPERIMENTS["experiment"]) == PINS["experiment"]


def test_capped_experiment_output_is_pinned(tmp_path):
    assert run_experiment_case(tmp_path, EXPERIMENTS["experiment-k2"]) == PINS["experiment-k2"]


def test_pins_cover_every_case():
    assert set(PINS) == set(CASES) | set(EXPERIMENTS)


if __name__ == "__main__":
    import tempfile

    pins = {case: run_case(argv) for case, argv in sorted(CASES.items())}
    for name, config in EXPERIMENTS.items():
        with tempfile.TemporaryDirectory() as tmp:
            pins[name] = run_experiment_case(Path(tmp), config)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    for name in sorted(set(pins) | set(PINS)):
        if pins.get(name) != PINS.get(name):
            print(f"changed: {name}", file=sys.stderr)
    print(f"wrote {len(pins)} pins to {PINS_PATH}", file=sys.stderr)
