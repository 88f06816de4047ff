"""End-to-end checks of the command line entry point."""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import save_instance
from richads import equilibrium, exact, fixtures, harness, kernels, pricing
from richads.cli import cli
from richads.model import (
    Advertiser,
    GuardExceededError,
    Instance,
    RichAd,
    truthful_profile,
)


@pytest.fixture
def fx_path(tmp_path):
    def save(inst, name="inst.json"):
        path = tmp_path / name
        save_instance(inst, path)
        return str(path)

    return save


def run_json(capsys, argv):
    code = cli(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok(fx_path, capsys):
    code, payload = run_json(capsys, ["validate", fx_path(fixtures.fx2())])
    assert code == 0
    assert payload == {"ok": True, "violations": []}


def test_validate_flags_shared_ad_ids(fx_path, capsys):
    inst = Instance(
        advertisers=(
            Advertiser("a", Fraction(1), (RichAd("x1", Fraction(1), Fraction(1)),)),
            Advertiser("b", Fraction(2), (RichAd("x1", Fraction(1), Fraction(2)),)),
        ),
        total_space=Fraction(3),
    )
    code, payload = run_json(capsys, ["validate", fx_path(inst)])
    assert code == 1
    assert payload["ok"] is False
    assert any(v["code"] == "catalogs-not-disjoint" for v in payload["violations"])


def test_missing_file_is_an_input_error(tmp_path, capsys):
    code = cli(["validate", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli(["validate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"total_space": "10", "advertisers": 5}, "advertisers must be a list of objects, got int"),
        (
            {"total_space": "10", "advertisers": [5]},
            "advertisers must be a list of objects, got an item of type int",
        ),
        (
            {"total_space": "10", "advertisers": [{"id": "a", "value_per_click": "1", "ads": "ax1"}]},
            "ads of advertiser 'a' must be a list of objects, got str",
        ),
        (
            {
                "total_space": "10",
                "cardinality_limit": True,
                "advertisers": [
                    {"id": "a", "value_per_click": "1", "ads": [{"id": "ax1", "alpha": "1", "space": "1"}]}
                ],
            },
            "cardinality_limit must be an integer or null, got True",
        ),
        (
            {"total_space": "10", "advertisers": [{"id": None, "value_per_click": "1", "ads": []}]},
            "advertiser id must be a string, got None",
        ),
        (
            {
                "total_space": "10",
                "advertisers": [
                    {"id": "a", "value_per_click": "1", "ads": [{"id": 7, "alpha": "1", "space": "1"}]}
                ],
            },
            "ad id must be a string, got 7",
        ),
        # found by the arbitrary-JSON test below
        ({"total_space": "1/0", "advertisers": []}, "rational '1/0' has a zero denominator"),
    ],
)
def test_mistyped_instance_is_an_input_error(tmp_path, capsys, doc, message):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)], ["payments", str(path), "--rule", "myerson"]):
        assert cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_usage_errors_exit_64(fx_path, capsys):
    assert cli([]) == 64
    assert cli(["solve", fx_path(fixtures.fx5())]) == 64
    assert cli(["solve", fx_path(fixtures.fx5()), "--mechanism", "hindsight"]) == 64
    capsys.readouterr()


def test_solve_emits_the_mixture(fx_path, capsys):
    code, payload = run_json(
        capsys, ["solve", fx_path(fixtures.fx6b()), "--mechanism", "truthful-3approx"]
    )
    assert code == 0
    assert payload["mechanism"] == "truthful-3approx"
    assert [b["probability"] for b in payload["branches"]] == ["2/3", "1/3"]
    assert payload["sw"] == "11/3"
    assert payload["clicks"] == {"a": "2/3", "b": "1/3"}


def test_solve_single_branch_rule(fx_path, capsys):
    code, payload = run_json(
        capsys, ["solve", fx_path(fixtures.fx6b()), "--mechanism", "greedy-value"]
    )
    assert code == 0
    assert payload["entries"] == {"b": {"ad": "bx1", "weight": "1"}}
    assert payload["sw"] == "10"
    assert payload["clicks"] == {"a": "0", "b": "1"}


def test_solve_serves_under_the_file_cardinality_limit(fx_path, capsys):
    # uncapped, both greedies and VCG serve both advertisers of fx1
    path = fx_path(replace(fixtures.fx1(), cardinality_limit=1))
    for mechanism in ("vcg", "greedy-bpb", "greedy-value", "randomized-greedy"):
        code, payload = run_json(capsys, ["solve", path, "--mechanism", mechanism])
        assert code == 0
        branches = payload.get("branches", [payload])
        assert all(len(branch["entries"]) == 1 for branch in branches), (mechanism, payload)
        # an explicit --cardinality overrides the file's limit
        code, payload = run_json(capsys, ["solve", path, "--mechanism", mechanism, "--cardinality", "2"])
        assert len(payload.get("branches", [payload])[0]["entries"]) == 2, (mechanism, payload)


@pytest.mark.parametrize("k", ["0", "-1"])
def test_solve_rejects_a_cardinality_below_one_for_every_mechanism(fx_path, capsys, k):
    # the flag sets the instance's limit before validation, so it fails as
    # that limit does when read from a file
    code, from_file = run_json(
        capsys, ["solve", fx_path(replace(fixtures.fx1(), cardinality_limit=int(k)), "capped.json"), "--mechanism", "vcg"]
    )
    assert code == 1
    assert from_file == {
        "ok": False,
        "violations": [{"code": "cardinality", "location": "instance", "message": f"cardinality_limit must be >= 1, got {k}"}],
    }
    path = fx_path(fixtures.fx1())
    for mechanism in harness.MECHANISM_NAMES:
        assert run_json(capsys, ["solve", path, "--mechanism", mechanism, "--cardinality", k]) == (1, from_file), mechanism


def test_solve_vcg_is_the_exact_optimum(fx_path, capsys):
    code, payload = run_json(capsys, ["solve", fx_path(fixtures.fx2()), "--mechanism", "vcg"])
    assert code == 0
    assert payload["sw"] == "5"
    assert payload["entries"] == {
        "a": {"ad": "ax1", "weight": "1"},
        "b": {"ad": "bx1", "weight": "1"},
    }


def test_solve_fractional_baseline(fx_path, capsys):
    code, payload = run_json(capsys, ["solve", fx_path(fixtures.fx2_tight()), "--mechanism", "frac-opt"])
    assert code == 0
    assert payload["objective"] == "9/2"
    assert payload["fractional_advertiser"] == "b"
    assert payload["entries"]["a"] == [{"ad": "ax1", "weight": "1"}]
    assert payload["entries"]["b"] == [{"ad": "bx1", "weight": "5/6"}]


def test_solve_explain_payload(fx_path, capsys):
    collinear = Instance(
        advertisers=(
            Advertiser(
                "a",
                Fraction(4),
                (
                    RichAd("ax1", Fraction(1, 4), Fraction(1)),
                    RichAd("ax2", Fraction(1, 2), Fraction(2)),
                    RichAd("ax3", Fraction(1), Fraction(4)),
                ),
            ),
        ),
        total_space=Fraction(4),
    )
    code, payload = run_json(
        capsys, ["solve", fx_path(collinear), "--mechanism", "truthful-3approx", "--explain"]
    )
    assert code == 0
    explain = payload["explain"]
    assert explain["dominance"]["a"]["survivors"] == ["ax3"]
    assert explain["dominance"]["a"]["removed"] == [
        {"ad": "ax1", "reason": "lp-dominated", "witnesses": ["(empty ad)", "ax2"]},
        {"ad": "ax2", "reason": "lp-dominated", "witnesses": ["(empty ad)", "ax3"]},
    ]
    assert explain["space_walk"][0].startswith("place: advertiser a ad ax1")
    assert explain["space_walk"][-1].startswith("replace: advertiser a ad ax3")
    assert len(explain["space_walk"]) == 3
    assert explain["assigned_spaces"] == {"a": "4"}
    assert explain["fractional_stop"] is None


def test_solve_explain_reports_fractional_stop(fx_path, capsys):
    code, payload = run_json(
        capsys,
        ["solve", fx_path(fixtures.fixture("fx2i")), "--mechanism", "gsp-half", "--explain"],
    )
    assert code == 0
    stop = payload["explain"]["fractional_stop"]
    assert stop == {"advertiser": "b", "ad": "bx1", "weight": "1/3"}


def test_solve_guard_exits_2(fx_path, capsys):
    code = cli(["solve", fx_path(fixtures.fx3()), "--mechanism", "vcg"])
    assert code == 2
    assert "guard exceeded" in capsys.readouterr().err


def test_equilibrium_bid_grid_guard_exits_2(fx_path, capsys):
    code = cli(["equilibrium", fx_path(fixtures.fx2()), "--grid", "1/1000000000"])
    assert code == 2
    assert "bid grid guard" in capsys.readouterr().err


@pytest.mark.parametrize("rule", ["gsp", "myerson", "vcg"])
def test_equilibrium_checks_the_dp_guards_before_it_searches(fx_path, capsys, monkeypatch, rule):
    # fx3's truthful view scales the capacity to 1,999,999, past the DP
    # guard the PoA report's optimum would hit: the command exits 2 with the
    # DP's own message before any search runs
    def searched(*args, **kwargs):
        raise AssertionError("find_pure_nash was called")

    monkeypatch.setattr(equilibrium, "find_pure_nash", searched)
    code = cli(["equilibrium", fx_path(fixtures.fx3()), "--grid", "1/4", "--pricing", rule])
    assert code == 2
    assert capsys.readouterr().err == "guard exceeded: scaled capacity 1999999 exceeds the DP guard 1000000\n"


def test_the_dp_capacity_guard_is_a_module_constant(fx_path, capsys, monkeypatch):
    inst = fixtures.fx1()
    rep = truthful_profile(inst)
    capacity = kernels.ScaledView(inst, rep).total
    path = fx_path(inst)
    monkeypatch.setattr(exact, "DP_CAPACITY_GUARD", capacity)
    exact.int_opt_dp(inst, rep)
    assert cli(["solve", path, "--mechanism", "vcg"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(exact, "DP_CAPACITY_GUARD", capacity - 1)
    message = f"scaled capacity {capacity} exceeds the DP guard {capacity - 1}"
    with pytest.raises(GuardExceededError, match=message):
        exact.int_opt_dp(inst, rep)
    assert cli(["solve", path, "--mechanism", "vcg"]) == 2
    assert message in capsys.readouterr().err


def test_the_dp_cells_guard_is_a_module_constant(fx_path, capsys, monkeypatch):
    # the tables' size, not only their width: (n + 1) rows of (limit + 1)
    # layers of total + 1 cells, checked before any table is built
    inst = replace(fixtures.fx1(), cardinality_limit=1)
    rep = truthful_profile(inst)
    view = kernels.ScaledView(inst, rep)
    cells = (view.n_adv() + 1) * (view.limit + 1) * (view.total + 1)
    path = fx_path(inst)
    monkeypatch.setattr(exact, "DP_CELLS_GUARD", cells)
    exact.int_opt_dp(inst, rep)
    assert cli(["payments", path, "--rule", "vcg"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(exact, "DP_CELLS_GUARD", cells - 1)
    message = f"{cells} DP table cells exceed the DP cells guard {cells - 1}"
    with pytest.raises(GuardExceededError, match=message):
        exact.int_opt_dp(inst, rep)
    assert cli(["payments", path, "--rule", "vcg"]) == 2
    assert message in capsys.readouterr().err
    # the capacity guard is checked first, so its message stands
    monkeypatch.setattr(exact, "DP_CAPACITY_GUARD", view.total - 1)
    with pytest.raises(GuardExceededError, match="exceeds the DP guard"):
        exact.int_opt_dp(inst, rep)


def test_the_strategy_ads_guard_is_a_module_constant(fx_path, capsys, monkeypatch):
    inst = fixtures.fx4()
    most = max(len(adv.ads) for adv in inst.advertisers)
    path = fx_path(inst)
    monkeypatch.setattr(equilibrium, "STRATEGY_ADS_GUARD", most)
    equilibrium.strategy_spaces(inst, Fraction(1, 2))
    monkeypatch.setattr(equilibrium, "STRATEGY_ADS_GUARD", most - 1)
    with pytest.raises(GuardExceededError, match=f"has {most} ads; subset grid guard is {most - 1}"):
        equilibrium.strategy_spaces(inst, Fraction(1, 2))
    assert cli(["equilibrium", path, "--grid", "1/2"]) == 2
    assert f"subset grid guard is {most - 1}" in capsys.readouterr().err


def test_solve_invalid_instance_short_circuits(fx_path, capsys):
    inst = Instance(
        advertisers=(Advertiser("a", Fraction(1), (RichAd("ax1", Fraction(2), Fraction(1)),)),),
        total_space=Fraction(1),
    )
    code, payload = run_json(capsys, ["solve", fx_path(inst), "--mechanism", "vcg"])
    assert code == 1
    assert payload["ok"] is False and payload["violations"]


def test_payments_myerson(fx_path, capsys):
    code, payload = run_json(capsys, ["payments", fx_path(fixtures.fx2()), "--rule", "myerson"])
    assert code == 0
    assert payload["rule"] == "myerson"
    assert payload["payments"] == {"a": "13/7", "b": "0"}
    assert payload["cpc"] == {"a": "13/7", "b": None}


def test_payments_gsp(fx_path, capsys):
    code, payload = run_json(capsys, ["payments", fx_path(fixtures.fx4()), "--rule", "gsp"])
    assert code == 0
    assert payload["payments"] == {"a": "0", "b": "101/200"}


def test_payments_vcg(fx_path, capsys):
    code, payload = run_json(capsys, ["payments", fx_path(fixtures.fx2()), "--rule", "vcg"])
    assert code == 0
    assert payload["payments"] == {"a": "0", "b": "3/2"}


@pytest.mark.parametrize("rule", ["myerson", "gsp"])
def test_payments_explain_only_adds_a_key(fx_path, capsys, rule):
    path = fx_path(fixtures.fx3())
    assert cli(["payments", path, "--rule", rule]) == 0
    plain = capsys.readouterr().out
    code, payload = run_json(capsys, ["payments", path, "--rule", rule, "--explain"])
    assert code == 0
    explain = payload.pop("explain")
    assert "explain" not in json.loads(plain)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == plain
    assert sorted(explain) == ["a", "b", "c", "d"]
    for adv_id, row in explain.items():
        assert row["payment"] == payload["payments"][adv_id]
        assert [b["branch"] for b in row["branches"]] == ["bpb", "max-value"]


def test_payments_explain_shows_the_click_curves(fx_path, capsys):
    code, payload = run_json(capsys, ["payments", fx_path(fixtures.fx2()), "--rule", "myerson", "--explain"])
    assert code == 0
    bpb, max_value = payload["explain"]["a"]["branches"]
    # bpb: 4/7 clicks up to a bid of 3, one click above; both end intervals
    # differ, so the middle one is probed too
    assert bpb == {
        "branch": "bpb",
        "probability": "2/3",
        "clicks": "1",
        "candidates": 2,
        "probes": 3,
        "jump_bids": ["3"],
        "click_levels": ["4/7", "1"],
        "threshold": "3",
    }
    assert max_value["jump_bids"] == ["3"] and max_value["click_levels"] == ["0", "1"]
    assert max_value["probes"] == 2 and max_value["threshold"] == "3"
    assert payload["explain"]["a"]["payment"] == "13/7"


def test_payments_gsp_explain_skips_unserved_branches(fx_path, capsys):
    code, payload = run_json(capsys, ["payments", fx_path(fixtures.fx2()), "--rule", "gsp", "--explain"])
    assert code == 0
    for branch in payload["explain"]["b"]["branches"]:
        assert branch["clicks"] == "0" and branch["probes"] == 0
        assert branch["jump_bids"] is None and branch["threshold"] is None


def test_payments_vcg_explain_is_a_usage_error(fx_path, capsys):
    assert cli(["payments", fx_path(fixtures.fx2()), "--rule", "vcg", "--explain"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "vcg" in captured.err


def test_payments_mixture_override(fx_path, capsys):
    inst = fixtures.fx2()
    expected = pricing.myerson_payment(inst, truthful_profile(inst), pricing.mixture_rule(Fraction(1, 2)))
    code, payload = run_json(
        capsys, ["payments", fx_path(inst), "--rule", "myerson", "--p", "1/2"]
    )
    assert code == 0
    assert payload["payments"] == {a: str(p) for a, p in sorted(expected.payments.items())}


def test_equilibrium_subcommand(fx_path, capsys):
    code, payload = run_json(
        capsys,
        [
            "equilibrium",
            fx_path(fixtures.fx5()),
            "--grid",
            "1/4",
            "--beta-check",
        ],
    )
    assert code == 0
    assert payload["mechanism"] == "mixture(p=1/2)+gsp"
    assert payload["status"] == "converged"
    assert payload["verified"] is True
    assert payload["beta_checks"] >= 1 and payload["beta_violations"] == 0
    row = payload["equilibria"][0]
    assert row["ratio_int_opt"] == "1" and row["sw"] == "1"


def test_equilibrium_vcg_stays_at_truth(fx_path, capsys):
    code, payload = run_json(
        capsys,
        ["equilibrium", fx_path(fixtures.fx2()), "--grid", "1/2", "--pricing", "vcg"],
    )
    assert code == 0
    assert payload["mechanism"] == "vcg"
    assert payload["status"] == "converged"
    assert payload["equilibria"][0]["profile"]["bids"] == {"a": "7/2", "b": "3"}


# sha256 of `equilibrium <fixture> --grid 1/20 --pricing <pricing>` stdout as
# printed before `--explain` existed
EQUILIBRIUM_STDOUT_SHA256 = {
    ("fx1", "gsp"): "c755beaa125176627cdaa0b5bbf0ecb4f83a6f7559c5b593a08dfeb3220fc927",
    ("fx1", "myerson"): "30a07335f65e3f4e1c0d45261b7b781b01e0155b8e4e2c44128d87f649d5f2cc",
    ("fx1", "vcg"): "0acf9b5f186faf1c0d821a2fc6f36874cc60f29b419043d1fc4aa534339a48e4",
    ("fx4", "gsp"): "31582227df7f69e8e57c8c52fd8b9c8430015066ac87dde3d18f5795986ceceb",
    ("fx4", "myerson"): "3cee4ad17732d480f9a59b5f3ba63159d7bdb30d51aed211e64767a3c24bc77f",
    ("fx4", "vcg"): "53f874e40f865e1ba60112da1b4fdbbb36368b0a6fc4f587c0f7d41d8a87f6fa",
    ("fx5", "gsp"): "da93c03d976be16ce579c77de8ce5e144ad98f4cc4eefc21e6f59d7210b0d1cd",
    ("fx5", "myerson"): "8fc920de994898aef54207e8887fbb3524d5cbf624ab20017f0a9ffa0264ea4b",
    ("fx5", "vcg"): "4ec30fa2610a7c133159f801e11b4061238862ff2fbcc0f1a1f45692ae51121d",
}


@pytest.mark.parametrize("name,kind", sorted(EQUILIBRIUM_STDOUT_SHA256))
def test_equilibrium_output_is_unchanged_and_explain_only_adds_a_key(name, kind, capsys):
    argv = ["equilibrium", str(resources.files("richads") / "data" / f"{name}.json"), "--grid", "1/20", "--pricing", kind]
    assert cli(argv) == 0
    plain = capsys.readouterr()
    assert hashlib.sha256(plain.out.encode()).hexdigest() == EQUILIBRIUM_STDOUT_SHA256[(name, kind)]
    assert plain.err == ""
    assert cli(argv + ["--explain"]) == 0
    payload = json.loads(capsys.readouterr().out)
    steps = payload.pop("explain")
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == plain.out
    assert [step["round"] for step in steps] == sorted(step["round"] for step in steps)
    assert len(steps) == payload["rounds"] * len(fixtures.fixture(name).advertisers)
    # the last round of a converged search finds no strict gain
    assert all(step["gain"] == "0" for step in steps if step["round"] == payload["rounds"])


def test_experiment_subcommand(tmp_path, capsys):
    cfg = {"seed": 3, "instances": 5, "max_advertisers": 3, "max_ads": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, payload = run_json(capsys, ["experiment", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    assert payload["instances"] == 5
    assert (out_dir / "comparison.csv").exists()
    assert (out_dir / "summary.json").exists()


def test_experiment_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"instances": 2, "budget": 9}))
    assert cli(["experiment", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"instances": "2"}, "field 'instances' must be an integer, got '2'"),
        ({"cardinality": True}, "field 'cardinality' must be an integer or null, got True"),
        ({"mechanisms": "gsp-half"}, "field 'mechanisms' must be a list of strings"),
        ([1, 2], "experiment config must be an object"),
    ],
)
def test_experiment_rejects_mistyped_config(tmp_path, capsys, doc, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli(["experiment", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"instances": -3}, "instances must be >= 0, got -3"),
        ({"max_advertisers": 0}, "max_advertisers must be >= 1, got 0"),
        ({"max_ads": 0}, "max_ads must be >= 1, got 0"),
        ({"max_space": 0}, "max_space must be >= 1, got 0"),
        ({"value_levels": 0}, "value_levels must be >= 1, got 0"),
        ({"value_denominator": 0}, "value_denominator must be >= 1, got 0"),
        ({"alpha_denominator": -1}, "alpha_denominator must be >= 1, got -1"),
    ],
)
def test_experiment_rejects_an_empty_corpus_shape(tmp_path, capsys, doc, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli(["experiment", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"value_denominator": 0}, "value_denominator must be >= 1, got 0"),
        ({"mechanisms": ["nope"]}, "unknown mechanisms: ['nope']"),
        ({"mechanisms": ["vcg", "vcg"], "instances": 2}, "duplicate mechanisms: ['vcg']"),
        ({"mechanisms": ["vcg", "gsp-half", "vcg", "gsp-half"], "instances": 2}, "duplicate mechanisms: ['gsp-half', 'vcg']"),
        ({"mechanisms": [], "instances": 2}, "no mechanisms to compare"),
    ],
)
def test_a_refused_experiment_leaves_no_output_directory(tmp_path, capsys, doc, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "o"
    assert cli(["experiment", str(cfg_path), "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}")
    assert not out_dir.exists()


def test_audit_subcommand(capsys):
    code, payload = run_json(
        capsys, ["audit", "--rule", "bpb", "--trials", "40", "--seed", "2", "--tie-prone"]
    )
    assert code == 0
    assert payload == {"rule": "bpb", "trials": 40, "violations": [], "ok": True}


def _python(*args, timeout=120):
    """Run this interpreter on `args` with the package's sources importable."""
    src = str(Path(pricing.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize(
    "argv",
    [["payments", "--rule", "myerson", "--p", "1/0"], ["equilibrium", "--grid", "1/0"]],
    ids=["payments-p", "equilibrium-grid"],
)
def test_a_zero_denominator_flag_is_an_input_error(argv, fx_path):
    done = _python("-m", "richads", *argv, fx_path(fixtures.fx2()))
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: rational '1/0' has a zero denominator\n"
    assert "Traceback" not in done.stderr


def test_an_exponent_rational_is_refused_at_once(tmp_path, capsys):
    # read by `Fraction`, "1e10000000" took seconds to build its integer
    doc = json.loads((resources.files("richads") / "data" / "fx2i.json").read_text())
    doc["advertisers"][0]["ads"][0]["space"] = "1e10000000"
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert cli(["validate", str(path)]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rational '1e10000000' is not of the form [+-]digits[/digits], e.g. \"-1/3\"\n"


@pytest.mark.parametrize("command", ["validate", "experiment"])
def test_deeply_nested_json_is_an_input_error(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = [command, str(path)] + (["--out", str(tmp_path / "o")] if command == "experiment" else [])
    done = _python("-m", "richads", *argv)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: JSON nested too deeply to parse\n"
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["payments", "--rule", "vcg"],
        ["payments", "--rule", "myerson"],
        ["equilibrium", "--pricing", "vcg", "--grid", "1/2"],
        ["equilibrium", "--pricing", "myerson", "--grid", "1/2"],
    ],
    ids=["payments-vcg", "payments-myerson", "equilibrium-vcg", "equilibrium-myerson"],
)
def test_an_out_of_range_mixture_weight_is_refused_under_every_pricing(argv, fx_path, capsys):
    path = fx_path(fixtures.fx2())
    assert cli([*argv, "--p", "7", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: mixture weight must lie in [0, 1], got 7\n"
    if "vcg" in argv:
        # VCG ignores an in-range weight
        assert run_json(capsys, [*argv, "--p", "1/3", path]) == run_json(capsys, [*argv, path])


def test_equilibrium_rejects_negative_rounds(fx_path, capsys):
    path = fx_path(fixtures.fx2())
    assert cli(["equilibrium", path, "--grid", "1/2", "--max-rounds", "-1"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-rounds: must be 0 or more, got -1" in captured.err
    code, payload = run_json(capsys, ["equilibrium", path, "--grid", "1/2", "--max-rounds", "0"])
    assert code == 0 and payload["rounds"] == 0


def test_audit_rejects_negative_trials(capsys):
    assert cli(["audit", "--rule", "bpb", "--trials", "-5"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "--trials: must be 0 or more, got -5" in captured.err
    code, payload = run_json(capsys, ["audit", "--rule", "bpb", "--trials", "0"])
    assert code == 0 and payload["trials"] == 0


@pytest.mark.parametrize("module", ["richads", "richads.cli"])
def test_module_run_prints_what_cli_prints(module, fx_path, capsys):
    path = fx_path(fixtures.fixture("fx1"))
    assert cli(["payments", path, "--rule", "vcg"]) == 0
    expected = capsys.readouterr().out
    done = _python("-m", module, "payments", "--rule", "vcg", path)
    assert done.returncode == 0, done.stderr
    assert expected and done.stdout == expected


def test_invariants_fire_under_python_O(fx_path):
    # the cross-check and the welfare floor must not be asserts: -O strips
    # those; a violated invariant exits 70, a bug in richads, not in the input
    script = textwrap.dedent(
        """
        import sys
        from fractions import Fraction
        from types import SimpleNamespace

        from richads import exact, fracopt, harness
        from richads.cli import cli
        from richads.fixtures import fx2
        from richads.model import Allocation, InvariantViolation

        if __debug__:
            sys.exit("not running under -O")
        # a fractional optimum no mixture can reach a third of
        fracopt.fractional_opt = lambda inst, rep, view=None: SimpleNamespace(objective=Fraction(10**9))
        try:
            harness.run_comparison([fx2()], ("truthful-3approx",))
        except InvariantViolation as exc:
            print("raised:", exc)
        exact.int_opt_exhaustive = lambda *args, **kwargs: Allocation(entries={})
        sys.exit(cli(["solve", sys.argv[1], "--mechanism", "vcg"]))
        """
    )
    done = _python("-O", "-c", script, fx_path(fixtures.fx2()))
    assert done.returncode == 70, done.stderr
    assert done.stdout.startswith("raised: truthful mixture fell below a third"), done.stdout
    assert done.stderr.startswith("invariant violated: DP optimum "), done.stderr


def test_the_library_has_no_assert_statements():
    # an invariant is a named exception: `python -O` strips every assert
    root = Path(resources.files("richads"))
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# --- arbitrary JSON trees at the boundary -----------------------------------

RATIONAL_TEXTS = ("0", "1", "-1", "3/2", "1/0", "0/0", "2.5", "1e2", "x", "", " 7 ")
KEYS = ("total_space", "cardinality_limit", "advertisers", "id", "value_per_click", "ads", "alpha", "space")
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.sampled_from(RATIONAL_TEXTS)
    | st.text(max_size=4)
)
JSON_TREES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), kids, max_size=5),
    max_leaves=25,
)


@st.composite
def instance_like(draw):
    """An instance-shaped object whose fields may be missing or of any type."""

    def field(valid):
        return draw(st.sampled_from(valid) | st.sampled_from(RATIONAL_TEXTS) | LEAVES)

    def obj(fields):
        return {k: v for k, v in fields.items() if draw(st.integers(0, 9))}

    ads = lambda i: [
        obj({"id": field((f"x{i}{j}", f"x{i}0")), "alpha": field(("1", "1/2", "0")), "space": field(("1", "3", "1/2", "0"))})
        for j in range(draw(st.integers(0, 3)))
    ]
    advertisers = [
        obj({"id": field((f"a{i}", "a0")), "value_per_click": field(("1", "5/2", "0")), "ads": ads(i)})
        for i in range(draw(st.integers(0, 3)))
    ]
    return obj({"total_space": field(("4", "5/2", "0")), "cardinality_limit": field((None, 1, 2)), "advertisers": advertisers})


COMMANDS = (
    st.just(["validate"])
    | st.sampled_from(sorted(harness.MECHANISM_NAMES)).map(lambda m: ["solve", "--mechanism", m])
    | st.sampled_from(["myerson", "gsp", "vcg"]).map(lambda r: ["payments", "--rule", r])
)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(deadline=None, max_examples=300)
@given(doc=JSON_TREES | instance_like(), command=COMMANDS)
@example(doc={"total_space": "1/0"}, command=["validate"])
def test_arbitrary_json_exits_cleanly(fuzz_file, doc, command):
    fuzz_file.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli([command[0], str(fuzz_file), *command[1:]])
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
