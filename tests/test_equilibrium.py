"""Strategy grids, best responses, Nash dynamics, the beta diagnostic, PoA."""

from fractions import Fraction

import pytest

from richads import equilibrium, fixtures
from richads.equilibrium import (
    best_response,
    beta_bound_check,
    find_pure_nash,
    gsp_mixture_mechanism,
    myerson_mixture_mechanism,
    poa_report,
    strategy_spaces,
    utility,
    vcg_mechanism,
)
from richads.model import (
    Advertiser,
    GuardExceededError,
    Instance,
    RichAd,
    truthful_profile,
)

FULL_B = frozenset({"bx1", "bx2"})


def test_strategy_space_shapes():
    inst = fixtures.fx4()
    spaces = strategy_spaces(inst, Fraction(1, 100))
    a, b = spaces["a"], spaces["b"]
    assert a.bids == (Fraction(0), Fraction(1, 100))
    assert len(b.bids) == 102  # 0, 1/100, ..., 1, then the true value
    assert b.bids[0] == 0 and b.bids[-1] == Fraction(40001, 40000)
    assert b.subsets == (
        FULL_B,
        frozenset({"bx1"}),
        frozenset({"bx2"}),
        frozenset(),
    )


def test_strategy_space_validation():
    inst = fixtures.fx4()
    with pytest.raises(ValueError):
        strategy_spaces(inst, Fraction(0))
    crowded = Instance(
        advertisers=(
            Advertiser(
                "a",
                value_per_click=Fraction(1),
                ads=tuple(RichAd(f"ax{j}", alpha=Fraction(1, j + 1), space=Fraction(j)) for j in range(1, 6)),
            ),
        ),
        total_space=Fraction(10),
    )
    with pytest.raises(GuardExceededError):
        strategy_spaces(crowded, Fraction(1, 2))


def test_fx4_truthful_gsp_utilities():
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    got = utility(inst, truth, truth, gsp_mixture_mechanism())
    assert got == {"a": Fraction(0), "b": Fraction(19801, 40000)}


def test_fx4_gsp_underbidding_is_the_best_response():
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    space = strategy_spaces(inst, Fraction(1, 100))["b"]
    bid, subset, best_u = best_response(inst, truth, truth, "b", gsp_mixture_mechanism(), space)
    assert (bid, subset) == (Fraction(1, 50), FULL_B)
    assert best_u == Fraction(39603, 80000)
    # a strict improvement over truthful reporting, by exactly one grid cell
    assert best_u - Fraction(19801, 40000) == Fraction(1, 80000)


def test_fx4_gsp_dynamics_leave_truth_and_converge():
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    spaces = strategy_spaces(inst, Fraction(1, 100))
    result = find_pure_nash(inst, truth, gsp_mixture_mechanism(), spaces)
    assert result.status == "converged" and result.verified
    assert result.rounds == 2
    eq = result.equilibrium
    assert eq.bids == {"a": Fraction(1, 100), "b": Fraction(1, 50)}
    assert eq.subsets["b"] == FULL_B
    assert utility(inst, truth, eq, gsp_mixture_mechanism())["b"] == Fraction(39603, 80000)


def test_fx4_myerson_dynamics_stay_at_truth():
    inst = fixtures.fx4()
    truth = truthful_profile(inst)
    spaces = strategy_spaces(inst, Fraction(1, 100))
    mech = myerson_mixture_mechanism(Fraction(1, 2))
    result = find_pure_nash(inst, truth, mech, spaces)
    assert result.status == "converged" and result.rounds == 1
    assert result.equilibrium.key() == truth.key()
    # the grid best response may shade the bid, but it cannot beat truth
    for adv_id in ("a", "b"):
        _bid, _subset, best_u = best_response(inst, truth, truth, adv_id, mech, spaces[adv_id])
        assert best_u == utility(inst, truth, truth, mech)[adv_id]


def test_fx5_gsp_truth_is_an_ir_tight_equilibrium():
    inst = fixtures.fx5()
    truth = truthful_profile(inst)
    spaces = strategy_spaces(inst, Fraction(1, 2))
    result = find_pure_nash(inst, truth, gsp_mixture_mechanism(), spaces, beta_check=True)
    assert result.status == "converged" and result.rounds == 1
    assert result.equilibrium.key() == truth.key()
    assert result.beta_checks == 1
    assert result.beta_violations == ()
    assert utility(inst, truth, truth, gsp_mixture_mechanism()) == {
        "a": Fraction(0),
        "b": Fraction(0),
    }


def test_best_response_tie_prefers_low_bid_and_large_subset():
    inst = fixtures.fx5()
    truth = truthful_profile(inst)
    space = strategy_spaces(inst, Fraction(1, 2))["a"]
    bid, subset, best_u = best_response(inst, truth, truth, "a", gsp_mixture_mechanism(), space)
    # every strategy nets zero here, so the tie rule decides
    assert (bid, subset, best_u) == (Fraction(0), frozenset({"ax1"}), Fraction(0))


def test_vcg_truthful_utilities_fx2():
    inst = fixtures.fx2()
    truth = truthful_profile(inst)
    got = utility(inst, truth, truth, vcg_mechanism())
    assert got == {"a": Fraction(2), "b": Fraction(3, 2)}


def test_beta_bound_fx5():
    inst = fixtures.fx5()
    check = beta_bound_check(inst, truthful_profile(inst))
    assert (check.beta, check.k_star, check.lhs, check.rhs, check.ok) == (
        Fraction(1),
        1,
        Fraction(1),
        Fraction(4),
        True,
    )


def test_beta_bound_fx2():
    inst = fixtures.fx2()
    check = beta_bound_check(inst, truthful_profile(inst))
    assert check.k_star == 3
    assert check.beta == Fraction(7, 6)  # the upgraded ad's value density
    assert check.lhs == Fraction(14, 3)
    assert check.rhs == 14
    assert check.ok


def test_beta_bound_holds_on_corpus(small_corpus):
    for inst in small_corpus[:60]:
        assert beta_bound_check(inst, truthful_profile(inst)).ok


def test_mechanism_describe():
    assert gsp_mixture_mechanism().describe() == "mixture(p=1/2)+gsp"
    assert myerson_mixture_mechanism().describe() == "mixture(p=2/3)+myerson"
    assert vcg_mechanism().describe() == "vcg"


def test_poa_report_rows():
    inst = fixtures.fx5()
    truth = truthful_profile(inst)
    rows = poa_report(inst, truth, gsp_mixture_mechanism(), [truth])
    assert len(rows) == 1
    row = rows[0]
    assert row["sw"] == "1" and row["int_opt_sw"] == "1" and row["ratio_int_opt"] == "1"
    assert row["frac_opt_value"] == "1"
    assert row["utilities"] == {"a": "0", "b": "0"}
    assert row["payments"] == {"a": "1", "b": "0"}
    assert row["profile"]["bids"] == {"a": "1", "b": "1"}
    assert row["profile"]["subsets"] == {"a": ["ax1"], "b": ["bx1"]}


def test_bid_grid_guard_counts_the_grid_exactly(monkeypatch):
    inst = fixtures.fx4()
    for delta in (Fraction(1, 3), Fraction(1, 7), Fraction(2), Fraction(5, 2)):
        largest = max(len(s.bids) for s in strategy_spaces(inst, delta).values())
        monkeypatch.setattr(equilibrium, "STRATEGY_BIDS_GUARD", largest)
        strategy_spaces(inst, delta)
        monkeypatch.setattr(equilibrium, "STRATEGY_BIDS_GUARD", largest - 1)
        with pytest.raises(GuardExceededError, match=f"would have {largest} grid bids"):
            strategy_spaces(inst, delta)
        monkeypatch.undo()


def test_bid_grid_guard_fires_before_the_grid_is_built():
    # about 10**9 grid points per advertiser: only a count made before any
    # Fraction is built returns at once
    with pytest.raises(GuardExceededError, match="bid grid guard is 10000"):
        strategy_spaces(fixtures.fx4(), Fraction(1, 10**9))
