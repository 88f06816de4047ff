"""The benchmark's own tests: pinned work counts, repeatable traces, checks that bite.

Run from the root of a checkout:

    python3 -m pytest -q layerbench/test_layerbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import run
from library import ROOT, load_library
from tracer import LAYER_METRICS, Tracer
from workloads import WORKLOADS, Session

COUNTS = [name for name, unit, _better in LAYER_METRICS if unit == "count"]


@pytest.fixture(scope="module")
def lib():
    return load_library()


def traced(lib, call) -> Tracer:
    tracer = Tracer()
    tracer.install(lib)
    tracer.active = True
    try:
        call()
    finally:
        tracer.uninstall()
    return tracer


def test_fx1_work_counts_are_pinned(lib):
    inst = lib.fixtures.fixture("fx1")
    rep = lib.model.truthful_profile(inst)

    myerson = traced(lib, lambda: lib.pricing.myerson_payment(inst, rep, lib.pricing.mixture_rule())).layer_metrics(1.0)
    # 2 bidders x 2 branches = 4 curves of 2 candidates; 2 probes each, and
    # every probe (plus each branch of the allocation itself) builds a view
    assert myerson["pricing.curves"] == 4
    assert myerson["pricing.candidates_per_curve"] == 2
    assert myerson["pricing.probes"] == 8
    assert myerson["pricing.probes_per_payment"] == 4
    assert myerson["kernels.views"] == 10
    assert myerson["kernels.walks"] == 10  # bpb branch: space walk + best fit
    assert myerson["exact.dp_calls"] == 0

    vcg = traced(lib, lambda: lib.pricing.vcg_payments(inst, rep)).layer_metrics(1.0)
    # n + 1 = 3 DP solves of 2 advertisers x (capacity 3 + 1) cells
    assert vcg["exact.dp_calls"] == 3
    assert vcg["exact.dp_cells"] == 24
    assert vcg["kernels.views"] == 3
    assert vcg["pricing.probes"] == 0


def test_wrapping_only_the_kernels_module_would_count_nothing(lib):
    inst = lib.fixtures.fixture("fx1")
    rep = lib.model.truthful_profile(inst)
    tracer = traced(lib, lambda: lib.monotone.bpb_allocation(inst, rep))
    assert tracer.spans["kernels.ScaledView"][0] == 1
    assert lib.monotone.ScaledView is lib.kernels.ScaledView  # uninstalled cleanly


def _traced_counts(lib, tmp_path, workload_name):
    workload = WORKLOADS[workload_name]
    inputs = workload.build(lib, 5)
    tracer = Tracer()
    tracer.install(lib)
    session = Session(lib, tmp_path, tracer)
    tracer.active = True
    try:
        run.run_units(session, workload, inputs, 0, workload.traced_units, None, None)
    finally:
        tracer.uninstall()
    assert session.failed == 0, session.errors
    metrics = tracer.layer_metrics(1.0)
    calls = {name: rec[0] for name, rec in tracer.spans.items()}
    return {name: metrics[name] for name in COUNTS}, calls


@pytest.mark.parametrize("workload_name", ["dynamics", "corpus-small"])
def test_two_traced_runs_give_identical_counts(lib, tmp_path, workload_name):
    first = _traced_counts(lib, tmp_path, workload_name)
    second = _traced_counts(lib, tmp_path, workload_name)
    assert first == second
    assert first[0]["kernels.views"] > 0 and first[0]["pricing.probes"] > 0


def test_pinned_seed_outputs_match_pins(lib, tmp_path):
    for name, units in (("dynamics", 6), ("corpus-small", 1)):
        workload = WORKLOADS[name]
        session = Session(lib, tmp_path)
        run.run_units(session, workload, workload.build(lib, run.PIN_SEED), 0, units, None, run.load_pins(name))
        assert session.failed == 0, session.errors
        assert session.attempted > 0


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _corrupting(monkeypatch, mutate):
    """Make run.measure import a richads whose myerson_payment output is mutated."""

    def load():
        lib = load_library()
        real = lib.pricing.myerson_payment

        def wrong(inst, rep, rule):
            out = real(inst, rep, rule)
            return replace(out, payments=mutate(dict(out.payments)))

        lib.pricing.myerson_payment = wrong
        return lib

    monkeypatch.setattr(run, "load_library", load)


def test_payment_above_bid_times_clicks_fails_the_run(monkeypatch, capsys):
    _corrupting(monkeypatch, lambda pay: {a: p + 1000 for a, p in pay.items()})
    code = run.main(["--workload", "dynamics", "--seed", "7", "--seconds", "0.2"])
    result = _last_json(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_plausible_but_wrong_payment_fails_the_digest(monkeypatch, capsys):
    # a payment lowered within [0, bid * clicks] passes every invariant;
    # only the pinned digest at the pinned seed catches it
    def shave(pay):
        return {a: (p * Fraction(99, 100)) for a, p in pay.items()}

    _corrupting(monkeypatch, shave)
    code = run.main(["--workload", "dynamics", "--seed", str(run.PIN_SEED), "--seconds", "0.2"])
    result = _last_json(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_output_line_matches_benchmark_json(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", "dynamics", "--seed", "3", "--seconds", "0.2", "--trace", str(trace)])
        result = _last_json(capsys.readouterr().out)
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: metric["unit"] for name, metric in result["metrics"].items()
        }
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_without_library_sources_it_exits_nonzero(tmp_path):
    bench = tmp_path / "layerbench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", "dynamics", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_traced_set_up_counts_only_in_model_load_s(tmp_path):
    record = run.measure(WORKLOADS["dynamics"], 3, 0.2, True, tmp_path)
    assert record["per_layer"]["model.load_s"] > 0
    # the pool's 600 corpus games and their strategy grids are set-up work
    assert "harness.generate_corpus" not in record["spans"]
    assert "equilibrium.strategy_spaces" not in record["spans"]


def test_reported_figures_are_the_measured_ones_at_reference_speed(tmp_path):
    record = run.measure(WORKLOADS["dynamics"], 3, 0.5, False, tmp_path)
    slowness = record["reference_ms"] / run.REFERENCE_MS
    raw, scaled = record["raw_metrics"], record["metrics"]
    assert record["reference_n"] > 0
    assert scaled["setup_s"] == pytest.approx(raw["setup_s"] / slowness)
    assert scaled["myerson_ms.tmean"] == pytest.approx(raw["myerson_ms.tmean"] / slowness)
    assert scaled["units_per_s"] == pytest.approx(raw["units_per_s"] * slowness)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"]
