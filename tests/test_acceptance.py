"""End-to-end acceptance checks at full scale.

Each test prints exactly one [PASS]/[FAIL] line on the live terminal
(bypassing capture) so a tee'd pytest run shows the verdicts inline. The
draw pools are built once at module scope and shared.
"""

import time

import pytest

from recommerce import ModelKind, Regime
from recommerce.cli import main
from recommerce.primitives import DEFAULT_D_MAX
from recommerce.statics import (
    _prop_alpha_envelope,
    _prop_canonical,
    _prop_commission_argmax,
    _prop_constraints,
    _prop_durability_premium,
    _prop_efficiency,
    _prop_foc_grid,
    _prop_ladders,
    _prop_olg_unique,
    _take,
    admissible_olg_pool,
    foc_pool,
    olg_pool,
    two_period_pool,
)

SEED = 42
POOL_DRAWS = 1000
AUDIT_DRAWS = 200
FOC_DRAWS = 200
FOC_GRID = 1_000_000
COMMISSION_POINTS = 1001
FOC_BUDGET_SECONDS = 60.0


# every pool is drawn once, as lanes, as ``run_verification`` draws its pools
AUDIT = slice(AUDIT_DRAWS)


def _report(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def pool_tp():
    return two_period_pool(POOL_DRAWS, SEED)


@pytest.fixture(scope="module")
def pool_olg():
    return olg_pool(POOL_DRAWS, SEED)


@pytest.fixture(scope="module")
def pool_any():
    return admissible_olg_pool(AUDIT_DRAWS, SEED)


@pytest.fixture(scope="module")
def foc_pools():
    return {
        (model, regime): foc_pool(FOC_DRAWS, SEED, model, regime)
        for model in ModelKind
        for regime in Regime
    }


def test_criterion_01_foc_matches_grid_oracle(capsys, foc_pools):
    start = time.monotonic()
    res = _prop_foc_grid(foc_pools, FOC_GRID, DEFAULT_D_MAX)
    elapsed = time.monotonic() - start
    ok = res.violations == 0 and elapsed < FOC_BUDGET_SECONDS
    _report(
        capsys,
        "criterion 1 first-order optimum vs grid oracle",
        ok,
        f"{res.checks} draws across 4 model/regime combos on a "
        f"{FOC_GRID:,}-point grid, {res.violations} beyond one step, "
        f"{elapsed:.1f}s < {FOC_BUDGET_SECONDS:.0f}s; {res.detail}",
    )


def test_criterion_02_canonical_point_regression(capsys):
    res = _prop_canonical(FOC_GRID, DEFAULT_D_MAX)
    _report(
        capsys,
        "criterion 2 canonical-point durabilities",
        res.violations == 0,
        f"{res.checks} checks (three targets within 1e-3 plus live grid "
        f"confirmation); {res.detail}",
    )


def test_criterion_03_deflator_and_commission_ladders(capsys, pool_tp):
    res = _prop_ladders(pool_tp, DEFAULT_D_MAX)
    _report(
        capsys,
        "criterion 3 local monotonicity ladders",
        res.violations == 0,
        f"{len(pool_tp.beta)} draws, 5-point ladders (step 0.005) in the deflator "
        f"and the commission, both regimes: {res.checks} strict comparisons, "
        f"{res.violations} violations",
    )


def test_criterion_04_branded_durability_premium(capsys, pool_tp, pool_olg):
    res = _prop_durability_premium(pool_tp, pool_olg, DEFAULT_D_MAX)
    _report(
        capsys,
        "criterion 4 branded durability premium",
        res.violations == 0,
        f"{res.checks} both-active draws across both models, "
        f"{res.violations} with D*_branded <= D*_third-party",
    )


def test_criterion_05_commission_argmax_at_zero(capsys, pool_tp, pool_olg):
    res = _prop_commission_argmax(
        pool_tp, pool_olg, COMMISSION_POINTS, DEFAULT_D_MAX
    )
    _report(
        capsys,
        "criterion 5 optimal commission is zero",
        res.violations == 0,
        f"{COMMISSION_POINTS}-point commission grids on {res.checks} curves "
        f"(both models): argmax at zero and strictly decreasing active "
        f"profits, {res.violations} violations",
    )


def test_criterion_06_deflator_sensitivity_dominance(capsys, pool_tp, pool_olg):
    res = _prop_alpha_envelope(pool_tp, pool_olg, DEFAULT_D_MAX)
    _report(
        capsys,
        "criterion 6 deflator-sensitivity dominance and envelope accuracy",
        res.violations == 0,
        f"{res.checks} checks: commission-free branded slope dominates the "
        f"third-party slope at three commission levels per draw, and "
        f"envelope derivatives match centered finite differences within "
        f"1e-4; {res.violations} violations",
    )


def test_criterion_07_olg_steady_state_uniqueness(capsys, pool_olg):
    res = _prop_olg_unique(_take(pool_olg, AUDIT), DEFAULT_D_MAX)
    _report(
        capsys,
        "criterion 7 steady-state uniqueness",
        res.violations == 0,
        f"{AUDIT_DRAWS} draws, both regimes, all 243 stock-state/action "
        f"profiles audited at the closed-form posted prices: the turnover "
        f"trade pattern is the unique survivor; {res.violations} violations",
    )


def test_criterion_08_constraint_structure(capsys, pool_tp, pool_olg, pool_any):
    res = _prop_constraints(
        _take(pool_tp, AUDIT), _take(pool_olg, AUDIT), pool_any, DEFAULT_D_MAX
    )
    _report(
        capsys,
        "criterion 8 binding pattern and implication chain",
        res.violations == 0,
        f"{res.checks} checks: binding constraints bind within 1e-9 with the "
        f"rest weakly slack at every solved optimum, the young-high and "
        f"young-low implications hold, and the resale-ratio cap agrees in "
        f"sign with the young-low condition; {res.violations} violations",
    )


def test_criterion_09_efficiency_ordering(capsys, pool_tp):
    res = _prop_efficiency(pool_tp, DEFAULT_D_MAX)
    _report(
        capsys,
        "criterion 9 durability and welfare ordering",
        res.violations == 0,
        f"{res.checks} both-active draws: D*_third-party < D*_branded < "
        f"D_social with welfare ordered the same way, "
        f"{res.violations} violations",
    )


def test_criterion_10_deterministic_verification(capsys, tmp_path):
    args = [
        "verify",
        "--seed", "42",
        "--draws", "40",
        "--foc-draws", "10",
        "--grid-points", "20000",
        "--audit-draws", "10",
        "--commission-points", "201",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = main([*args, "--out", str(out1)])
    rc2 = main([*args, "--out", str(out2)])
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("verify.csv", "verify.json")
    )
    ok = rc1 == 0 and rc2 == 0 and same
    _report(
        capsys,
        "criterion 10 reproducible verification runs",
        ok,
        f"two seeded CLI verification runs returned {rc1}/{rc2} and produced "
        f"byte-identical verify.csv and verify.json: {same}",
    )
