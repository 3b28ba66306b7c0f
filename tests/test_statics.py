import dataclasses
import json
import math

import numpy as np
import pytest

from recommerce import (
    ModelKind,
    Regime,
    envelope_profit_derivative,
    fd_profit_derivative,
    monotonicity_sweep,
    optimal_commission,
    regime_comparison,
    run_verification,
    sample_params,
    shutdown_profit,
    solve_olg,
    value_function,
)
from recommerce import two_period as tp
from recommerce.primitives import (
    BracketError,
    PowerCost,
    RationalQuality,
    SaturatingExpQuality,
    bisect_increasing,
)
from recommerce.statics import (
    DEFAULT_BOX,
    DEFAULT_D_MAX,
    LADDER_POINTS,
    LADDER_STEP,
    PROPERTY_NAMES,
    PropertyResult,
    _draw_block,
    _draw_row,
    _durabilities,
    _foc_filters,
    _ladder_values,
    _olg_filters,
    _params_payload,
    _prop_alpha_envelope,
    _prop_durability_premium,
    _prop_efficiency,
    _stack,
    _two_period_filters,
    admissible_olg_pool,
    equilibrium_feasible,
    ladder_active,
    margin_active,
    olg_pool,
    sample_filtered,
    two_period_pool,
)

T = Regime.THIRD_PARTY
B = Regime.BRANDED
TP = ModelKind.TWO_PERIOD
OLG = ModelKind.OLG


# ----------------------------------------------------------------------
# envelope derivatives vs finite differences
# ----------------------------------------------------------------------


@pytest.mark.parametrize("regime", [T, B])
@pytest.mark.parametrize("wrt", ["alpha", "beta", "delta"])
def test_envelope_matches_fd_two_period(canonical, regime, wrt):
    env = envelope_profit_derivative(canonical, regime, wrt, TP)
    fd = fd_profit_derivative(canonical, regime, wrt, TP)
    assert env == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("regime", [T, B])
@pytest.mark.parametrize("wrt", ["alpha", "beta", "delta"])
def test_envelope_matches_fd_olg(olg_feasible, regime, wrt):
    env = envelope_profit_derivative(olg_feasible, regime, wrt, OLG)
    fd = fd_profit_derivative(olg_feasible, regime, wrt, OLG)
    assert env == pytest.approx(fd, abs=1e-6)


def test_envelope_rejects_unknown_parameter(canonical):
    with pytest.raises(ValueError):
        envelope_profit_derivative(canonical, T, "v_L")
    with pytest.raises(ValueError):
        fd_profit_derivative(canonical, T, "n_H")


def test_deflator_sensitivities_coincide_without_commission(canonical):
    # with no commission the regimes share margins, durability, and slope
    p = dataclasses.replace(canonical, beta=0.0)
    assert envelope_profit_derivative(p, T, "alpha", TP) == envelope_profit_derivative(
        p, B, "alpha", TP
    )


def test_commission_sensitivity_ratio_at_zero(canonical):
    # losing a commission point costs the intermediated seller twice as much
    p = dataclasses.replace(canonical, beta=0.0)
    d_t = envelope_profit_derivative(p, T, "beta", TP)
    d_b = envelope_profit_derivative(p, B, "beta", TP)
    assert d_t < 0.0 and d_b < 0.0
    assert d_t / d_b == pytest.approx(2.0, rel=1e-12)


def test_branded_gains_weakly_more_from_deflator(canonical):
    for beta in (0.0, 0.1, canonical.beta):
        p = dataclasses.replace(canonical, beta=beta)
        base = dataclasses.replace(canonical, beta=0.0)
        lhs = envelope_profit_derivative(base, B, "alpha", TP)
        rhs = envelope_profit_derivative(p, T, "alpha", TP)
        if beta == 0.0:
            assert lhs == rhs
        else:
            assert lhs > rhs


def test_shutdown_envelope_values(canonical):
    dead = dataclasses.replace(canonical, v_L=0.4)
    assert envelope_profit_derivative(dead, T, "alpha", TP) == 0.0
    assert envelope_profit_derivative(dead, T, "beta", TP) == 0.0
    assert envelope_profit_derivative(dead, T, "delta", TP) == dead.n_H * dead.v_H
    assert envelope_profit_derivative(dead, T, "delta", OLG) == dead.n_H * dead.v_H / (
        1 - dead.delta
    ) ** 2


def test_value_function_shutdown_branch(canonical):
    dead = dataclasses.replace(canonical, v_L=0.4)
    assert value_function(dead, T, TP) == shutdown_profit(dead)
    assert value_function(dead, T, OLG) == pytest.approx(
        dead.n_H * dead.v_H / (1 - dead.delta)
    )


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def test_alpha_sweep_monotone(canonical):
    rep = monotonicity_sweep(canonical, B, "alpha", np.linspace(0.8, 1.0, 9))
    assert rep.shutdown_points == 0
    assert rep.verdicts["durability"] == "strictly-increasing"
    assert rep.verdicts["profit"] == "strictly-increasing"
    assert rep.verdicts["welfare"] == "strictly-increasing"
    assert len(rep.points) == 9


def test_beta_sweep_monotone(canonical):
    rep = monotonicity_sweep(canonical, B, "beta", np.linspace(0.0, 0.3, 7))
    assert rep.verdicts["durability"] == "strictly-decreasing"
    assert rep.verdicts["profit"] == "strictly-decreasing"


def test_sweep_excludes_shutdown_from_verdicts(canonical):
    # low deflator values shut the market; the active prefix still orders
    rep = monotonicity_sweep(canonical, T, "alpha", np.linspace(0.5, 1.0, 11))
    assert rep.shutdown_points > 0
    assert rep.verdicts["durability"] == "strictly-increasing"


def test_sweep_single_point_not_applicable(canonical):
    rep = monotonicity_sweep(canonical, T, "alpha", [0.9])
    assert rep.verdicts["durability"] == "not-applicable"


def test_olg_sweep_has_no_welfare_verdict(olg_feasible):
    rep = monotonicity_sweep(
        olg_feasible, T, "alpha", np.linspace(0.94, 0.99, 5), model=OLG
    )
    assert rep.verdicts["welfare"] == "not-applicable"
    assert all(math.isnan(pt.welfare) for pt in rep.points)
    assert rep.verdicts["durability"] == "strictly-increasing"


def test_sweep_rejects_unknown_parameter(canonical):
    with pytest.raises(ValueError):
        monotonicity_sweep(canonical, T, "v_L", [0.7, 0.8])


# ----------------------------------------------------------------------
# commission curve
# ----------------------------------------------------------------------


def test_commission_curve_two_period(canonical):
    curve = optimal_commission(canonical, TP, n_points=1001)
    assert curve.beta_star == 0.0
    assert curve.argmax_index == 0
    assert int(curve.active.sum()) == 612
    active_profits = curve.profits[curve.active]
    assert np.all(np.diff(active_profits) < 0.0)
    assert np.all(np.diff(curve.d_stars[curve.active]) < 0.0)
    # the inactive tail carries the commission-free shutdown value
    tail = curve.profits[~curve.active]
    expected = (1.0 + canonical.delta) * canonical.n_H * canonical.v_H
    assert np.all(tail == expected)
    assert curve.profit_at_star == curve.profits[0]


def test_commission_curve_olg(olg_feasible):
    curve = optimal_commission(olg_feasible, OLG, n_points=1001)
    assert curve.beta_star == 0.0
    assert int(curve.active.sum()) == 194
    tail = curve.profits[~curve.active]
    expected = olg_feasible.n_H * olg_feasible.v_H / (1.0 - olg_feasible.delta)
    assert np.all(tail == expected)
    assert np.all(np.diff(curve.profits[curve.active]) < 0.0)


def test_commission_curve_lanes_equal_scalar_solves():
    # each active lane prices its commission with the same margin, root and
    # objective formulas as a single-point solve, so the values agree exactly
    checked = 0
    for model, pool in ((TP, two_period_pool(40, 42)), (OLG, olg_pool(40, 42))):
        for params in pool:
            curve = optimal_commission(params, model, n_points=201)
            for i in np.flatnonzero(curve.active):
                pt = dataclasses.replace(params, beta=float(curve.betas[i]))
                if model is TP:
                    d = tp.optimal_durability(pt, B)
                    value = tp.profit(pt, B, d).total
                else:
                    sol = solve_olg(pt, B)
                    d, value = sol.D_star, sol.objective_value
                assert curve.d_stars[i] == d
                assert curve.profits[i] == value
                checked += 1
    assert checked > 4000


def test_commission_curve_raises_like_the_scalar_solver(olg_feasible):
    # a root beyond d_max raises the single-point BracketError; the curve
    # does not pin the lane to d_max
    flat = dataclasses.replace(
        olg_feasible, cost=PowerCost(c0=1e-6, p=2.0), quality=RationalQuality(k=1.0)
    )
    with pytest.raises(BracketError):
        tp.solve(flat, B)
    # the commission-free lane has the largest slope, so it fails first;
    # tp.solve fails earlier still, on the social root, so the two-period
    # reference is its profit-maximizing root
    free = dataclasses.replace(flat, beta=0.0)
    for model, solve in (
        (TP, lambda pt: tp.optimal_durability(pt, B)),
        (OLG, lambda pt: solve_olg(pt, B)),
    ):
        with pytest.raises(BracketError) as single:
            solve(free)
        with pytest.raises(BracketError) as curve:
            optimal_commission(flat, model)
        assert str(curve.value) == str(single.value)


def test_commission_grid_excludes_unit(canonical):
    curve = optimal_commission(canonical, TP, n_points=200)
    assert curve.betas[0] == 0.0
    assert curve.betas[-1] < 1.0
    assert len(curve.betas) == 200


# ----------------------------------------------------------------------
# regime comparison
# ----------------------------------------------------------------------


def test_regime_comparison_canonical(canonical):
    rc = regime_comparison(canonical)
    assert rc.both_active_two_period
    assert not rc.both_active_olg
    assert rc.d_durability == pytest.approx(0.0565616925768724, abs=1e-8)
    assert rc.d_profit > 0.0
    assert rc.d_welfare > 0.0
    # the branded line closes part of the durability shortfall
    assert rc.gap_third_party > rc.gap_branded > 0.0
    assert rc.olg_d_durability == 0.0


def test_regime_comparison_no_commission_collapses(canonical):
    rc = regime_comparison(dataclasses.replace(canonical, beta=0.0))
    assert rc.d_durability == 0.0
    assert rc.d_profit == 0.0
    assert rc.d_welfare == 0.0
    assert rc.gap_third_party == rc.gap_branded


def test_regime_comparison_olg_active(olg_feasible):
    rc = regime_comparison(olg_feasible)
    assert rc.both_active_olg
    assert rc.olg_d_durability > 0.0
    assert rc.olg_d_objective > 0.0


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


def test_sampler_is_deterministic():
    a = sample_params(np.random.default_rng(5))
    b = sample_params(np.random.default_rng(5))
    assert a == b
    assert a.v_H == 1.0
    assert a.n_L == pytest.approx(1.0 - a.n_H)


def test_sampler_respects_box():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = sample_params(rng)
        assert DEFAULT_BOX.v_L[0] <= p.v_L < DEFAULT_BOX.v_L[1]
        assert DEFAULT_BOX.alpha[0] <= p.alpha <= DEFAULT_BOX.alpha[1]
        assert DEFAULT_BOX.beta[0] <= p.beta <= DEFAULT_BOX.beta[1]
        assert DEFAULT_BOX.delta[0] <= p.delta <= DEFAULT_BOX.delta[1]


def test_pools_are_deterministic_and_filtered():
    pool1 = two_period_pool(6, 42)
    pool2 = two_period_pool(6, 42)
    assert pool1 == pool2
    for p in pool1:
        assert margin_active(p, TP, T)
        assert margin_active(p, TP, B)
        assert equilibrium_feasible(p, TP, T)
        assert equilibrium_feasible(p, TP, B)
    assert two_period_pool(6, 43) != pool1


def test_olg_pool_filtered():
    for p in olg_pool(4, 42):
        assert equilibrium_feasible(p, OLG, T)
        assert equilibrium_feasible(p, OLG, B)


def test_ladder_filter(canonical):
    assert ladder_active(canonical)
    assert not ladder_active(dataclasses.replace(canonical, alpha=0.99))


def test_sample_filtered_exhaustion():
    with pytest.raises(RuntimeError):
        sample_filtered(1, [9, 9], lambda p: False, max_attempts=300)


def test_block_draws_reproduce_one_at_a_time_uniforms():
    box = DEFAULT_BOX
    block = _draw_block(np.random.default_rng([3, 1]), 2000, box)
    rng = np.random.default_rng([3, 1])
    for i in range(2000):
        n_h = rng.uniform(*box.n_H)
        expected = (
            rng.uniform(*box.v_L), n_h, 1.0 - n_h,
            rng.uniform(*box.delta), rng.uniform(*box.alpha), rng.uniform(*box.beta),
        )
        row = _draw_row(block, i)
        assert (row.v_L, row.n_H, row.n_L, row.delta, row.alpha, row.beta) == expected
        assert row.v_H == 1.0
        assert all(type(getattr(row, f)) is float for f in ("v_H", "v_L", "beta"))


_POOL_FILTERS = {
    "two-period": _two_period_filters(DEFAULT_D_MAX),
    "olg": _olg_filters(DEFAULT_D_MAX),
    **{
        f"foc-{model.value}-{regime.value}": _foc_filters(model, regime)
        for model in ModelKind
        for regime in Regime
    },
}


@pytest.mark.parametrize("name", sorted(_POOL_FILTERS))
def test_pool_screen_is_a_necessary_condition(name):
    predicate, screen = _POOL_FILTERS[name]
    block = _draw_block(np.random.default_rng([17, len(name)]), 3000, DEFAULT_BOX)
    passed = screen(block)
    accepted = [i for i in range(3000) if predicate(_draw_row(block, i))]
    assert accepted, "no draw satisfies the predicate; the check says nothing"
    assert not passed.all(), "the screen rejects nothing; the check says nothing"
    assert all(passed[i] for i in accepted)


@pytest.mark.parametrize("name", ["two-period", "olg", "foc-olg-branded"])
def test_screen_leaves_pool_unchanged(name):
    predicate, screen = _POOL_FILTERS[name]
    plain = sample_filtered(3, (5, 9), predicate)
    assert sample_filtered(3, (5, 9), predicate, screen=screen) == plain


def test_batched_ladders_equal_scalar_solves():
    base = two_period_pool(100, 42)
    # a second cost/quality family exercises the per-family grouping
    other = [
        dataclasses.replace(p, cost=PowerCost(c0=0.8, p=2.5), quality=RationalQuality(k=1.0))
        for p in base[:4]
    ]
    pool = base[:48] + other + base[48:]
    d_stars, profits = _ladder_values(pool, DEFAULT_D_MAX)
    lanes = 0
    for r, regime in enumerate((T, B)):
        for i, params in enumerate(pool):
            for w, wrt in enumerate(("alpha", "beta")):
                for rung in range(LADDER_POINTS):
                    pt = dataclasses.replace(
                        params, **{wrt: getattr(params, wrt) + rung * LADDER_STEP}
                    )
                    d = tp.optimal_durability(pt, regime)
                    assert d_stars[r, i, w, rung] == d
                    assert profits[r, i, w, rung] == tp.profit(pt, regime, d).total
                    lanes += 1
    assert lanes == 2 * len(pool) * 2 * LADDER_POINTS


def test_batched_ladders_reject_like_the_scalar_solver(canonical):
    # the first-order root lies beyond d_max: the scalar solver raises
    unbracketed = dataclasses.replace(
        canonical, cost=PowerCost(c0=1e-6, p=2.0), quality=RationalQuality(k=1.0)
    )
    with pytest.raises(BracketError):
        _ladder_values([canonical, unbracketed], DEFAULT_D_MAX)


# ----------------------------------------------------------------------
# batched durability kernel
# ----------------------------------------------------------------------


# families beyond the one the draws use: exponents 1.5 (c'' diverges at 0)
# and 3, and the rational quality curve
_FAMILIES = [
    (PowerCost(c0=0.5, p=2.0), SaturatingExpQuality(s_bar=1.0, k=1.0)),
    (PowerCost(c0=0.5, p=1.5), SaturatingExpQuality(s_bar=1.0, k=1.0)),
    (PowerCost(c0=0.5, p=3.0), RationalQuality(k=1.0)),
    (PowerCost(c0=0.8, p=2.5), RationalQuality(k=0.5)),
]


@pytest.mark.parametrize(
    "family", _FAMILIES, ids=lambda f: f"{f[0].p}-{type(f[1]).__name__}"
)
def test_kernel_lanes_equal_scalar_solves(family):
    cost, quality = family
    # the admissible pool is unfiltered, so it has shut-down lanes too
    base = two_period_pool(30, 42) + olg_pool(30, 42) + admissible_olg_pool(30, 42)
    pool = [dataclasses.replace(p, cost=cost, quality=quality) for p in base]
    stacked = _stack(pool)
    social = tp.solve_foc(stacked, tp.foc_slope(stacked, stacked.v_L))
    shutdowns = 0
    for regime in (T, B):
        margin = tp.activity_margin(stacked, regime)
        live = margin > 0.0
        roots = tp.solve_foc(stacked, tp.foc_slope(stacked, margin)[live])
        d_tp = _durabilities(stacked, TP, regime, DEFAULT_D_MAX)
        d_olg = _durabilities(stacked, OLG, regime, DEFAULT_D_MAX)
        for i, params in enumerate(pool):
            assert d_tp[i] == tp.solve(params, regime).D_star
            assert d_olg[i] == solve_olg(params, regime).D_star
            assert social[i] == tp.social_optimal_durability(params)
        for k, i in enumerate(np.flatnonzero(live)):
            assert roots[k] == tp.optimal_durability(pool[i], regime)
            # a 0-d slope takes the scalar bisection and gives a float
            slope = tp.foc_slope(pool[i], margin[i])
            scalar = bisect_increasing(tp.foc_residual(pool[i], slope), 1e-12, DEFAULT_D_MAX)
            for zero_d in (slope, np.array(slope)):
                root = tp.solve_foc(pool[i], zero_d)
                assert type(root) is float
                assert root == scalar == roots[k]
        shutdowns += int(np.count_nonzero(~live))
    assert shutdowns > 0


def test_kernel_rejects_like_the_scalar_solver(canonical):
    flat = dataclasses.replace(
        canonical, cost=PowerCost(c0=1e-6, p=2.0), quality=RationalQuality(k=1.0)
    )
    # c'(10) = 2e-5 and s'(10) = 1/121: a slope of 0.1 has no root below d_max
    with pytest.raises(BracketError) as batched:
        tp.solve_foc(flat, np.array([1e-3, 0.1]))
    with pytest.raises(BracketError) as zero_d:
        tp.solve_foc(flat, 0.1)
    with pytest.raises(BracketError) as single:
        bisect_increasing(tp.foc_residual(flat, 0.1), 1e-12, DEFAULT_D_MAX)
    assert str(batched.value) == str(zero_d.value) == str(single.value)
    # a nonpositive slope is rejected at the lower end, as a single point is
    with pytest.raises(BracketError) as batched:
        tp.solve_foc(canonical, np.array([0.2, -0.1]))
    with pytest.raises(BracketError) as zero_d:
        tp.solve_foc(canonical, np.array(-0.1))
    with pytest.raises(BracketError) as single:
        bisect_increasing(tp.foc_residual(canonical, -0.1), 1e-12, DEFAULT_D_MAX)
    assert str(batched.value) == str(zero_d.value) == str(single.value)


def test_properties_refuse_shut_down_draws_like_the_scalar_solver(canonical):
    shut = dataclasses.replace(canonical, v_L=0.5)
    with pytest.raises(ValueError) as single:
        tp.optimal_durability(shut, T)
    for run in (
        lambda: _prop_efficiency([canonical, shut], DEFAULT_D_MAX),
        lambda: _prop_durability_premium([canonical, shut], [], DEFAULT_D_MAX),
        lambda: _ladder_values([canonical, shut], DEFAULT_D_MAX),
    ):
        with pytest.raises(ValueError) as batched:
            run()
        assert str(batched.value) == str(single.value)


def _solved(params, regime, model):
    """(maximized objective, D*, active) of the single-point solver."""

    if model is TP:
        eq = tp.solve(params, regime)
        return eq.profit_total, eq.D_star, eq.market_mode is tp.MarketMode.ACTIVE
    sol = solve_olg(params, regime)
    return sol.objective_value, sol.D_star, sol.market_mode is tp.MarketMode.ACTIVE


def _shutdown_slope(params, wrt, model):
    """Derivative of the high-types-only profit ``(1+delta)*n_H*v_H`` (two
    periods) or ``n_H*v_H/(1-delta)`` (steady state)."""

    if wrt != "delta":
        return 0.0
    if model is TP:
        return params.n_H * params.v_H
    return params.n_H * params.v_H / (1.0 - params.delta) ** 2


def test_batched_value_function_and_derivatives_equal_scalar():
    # references: the single-point solvers' values and D*, the closed-form
    # envelope at that D*, and the centered difference of solver values
    pool = admissible_olg_pool(40, 7)
    stacked = _stack(pool)
    h = 1e-5
    shutdowns = 0
    for model in (TP, OLG):
        for regime in (T, B):
            value = value_function(stacked, regime, model)
            for i, params in enumerate(pool):
                ref, _, active = _solved(params, regime, model)
                single = value_function(params, regime, model)
                assert type(single) is float
                assert value[i] == single == ref
                shutdowns += not active
            for wrt in ("alpha", "beta", "delta"):
                env = envelope_profit_derivative(stacked, regime, wrt, model)
                fd = fd_profit_derivative(stacked, regime, wrt, model, h=h)
                for i, params in enumerate(pool):
                    _, d_star, active = _solved(params, regime, model)
                    ref_env = (
                        envelope_profit_derivative(params, regime, wrt, model, D_star=d_star)
                        if active
                        else _shutdown_slope(params, wrt, model)
                    )
                    base = getattr(params, wrt)
                    hi, lo = (
                        _solved(dataclasses.replace(params, **{wrt: base + d}), regime, model)[0]
                        for d in (h, -h)
                    )
                    single_env = envelope_profit_derivative(params, regime, wrt, model)
                    single_fd = fd_profit_derivative(params, regime, wrt, model, h=h)
                    assert type(single_env) is float and type(single_fd) is float
                    assert env[i] == single_env == ref_env
                    assert fd[i] == single_fd == (hi - lo) / (2.0 * h)
    assert shutdowns > 0


# The pre-batching loop bodies of three properties, kept as the reference
# the array versions must reproduce exactly.


def _scalar_premium(pool_tp, pool_olg, d_max):
    checks = violations = 0
    example = None
    for params in pool_tp:
        d_t = tp.optimal_durability(params, T, d_max=d_max)
        d_b = tp.optimal_durability(params, B, d_max=d_max)
        checks += 1
        if not d_b > d_t:
            violations += 1
            if example is None:
                example = _params_payload(params, model="two-period", D_T=d_t, D_B=d_b)
    for params in pool_olg:
        d_t = solve_olg(params, T, d_max=d_max).D_star
        d_b = solve_olg(params, B, d_max=d_max).D_star
        checks += 1
        if not d_b > d_t:
            violations += 1
            if example is None:
                example = _params_payload(params, model="olg", D_T=d_t, D_B=d_b)
    return PropertyResult(
        name="branded-durability-premium",
        checks=checks,
        violations=violations,
        detail="D*_branded > D*_third-party on every both-active draw, both models",
        counterexample=example,
    )


def _scalar_envelope(pool_tp, pool_olg, d_max):
    checks = violations = 0
    example = None
    for params in pool_tp:
        base_b0 = dataclasses.replace(params, beta=0.0)
        lhs = envelope_profit_derivative(base_b0, B, "alpha")
        for frac in (0.0, 0.5, 1.0):
            beta_t = params.beta * frac
            pt = dataclasses.replace(params, beta=beta_t)
            rhs = envelope_profit_derivative(pt, T, "alpha")
            checks += 1
            ok = lhs > rhs if beta_t > 0.0 else lhs >= rhs - 1e-12
            if not ok:
                violations += 1
                if example is None:
                    example = _params_payload(params, beta_tested=beta_t, lhs=lhs, rhs=rhs)
    h = 1e-5
    for model, pool in ((TP, pool_tp), (OLG, pool_olg)):
        for params in pool:
            for regime in (T, B):
                for wrt in ("alpha", "beta"):
                    interior = all(
                        margin_active(
                            dataclasses.replace(params, **{wrt: getattr(params, wrt) + d}),
                            model,
                            regime,
                        )
                        for d in (-h, h)
                    )
                    if not interior:
                        continue
                    env = envelope_profit_derivative(params, regime, wrt, model, d_max=d_max)
                    if abs(env) <= 1e-8:
                        continue
                    fd = fd_profit_derivative(params, regime, wrt, model, h=h, d_max=d_max)
                    checks += 1
                    if abs(env - fd) / abs(env) > 1e-4:
                        violations += 1
                        if example is None:
                            example = _params_payload(
                                params, model=model.value, regime=regime.value,
                                wrt=wrt, envelope=env, fd=fd,
                            )
    return PropertyResult(
        name="alpha-sensitivity-envelope",
        checks=checks,
        violations=violations,
        detail=(
            "commission-free branded deflator slope dominates third-party at "
            "tested commissions; envelope vs finite difference rel err <= 1e-4"
        ),
        counterexample=example,
    )


def _scalar_efficiency(pool, d_max):
    checks = violations = 0
    example = None
    for params in pool:
        d_t = tp.optimal_durability(params, T, d_max=d_max)
        d_b = tp.optimal_durability(params, B, d_max=d_max)
        d_s = tp.social_optimal_durability(params, d_max=d_max)
        w_t = tp.welfare(params, d_t)
        w_b = tp.welfare(params, d_b)
        w_s = tp.welfare(params, d_s)
        checks += 1
        if not (d_t < d_b < d_s and w_t < w_b < w_s):
            violations += 1
            if example is None:
                example = _params_payload(
                    params, D=(d_t, d_b, d_s), welfare=(w_t, w_b, w_s)
                )
    return PropertyResult(
        name="efficiency-ordering",
        checks=checks,
        violations=violations,
        detail="D*_T < D*_B < D_social and matching welfare ordering per draw",
        counterexample=example,
    )


def _mixed(pool):
    # every third draw gets a cost so steep that D* is tiny: its commission
    # slope falls near 1e-8, where the centered difference loses the 1e-4
    # agreement; every fourth has no commission, so the regimes tie
    out = []
    for i, params in enumerate(pool):
        if i % 3 == 1:
            params = dataclasses.replace(params, cost=PowerCost(c0=1e6, p=2.0))
        if i % 4 == 2:
            params = dataclasses.replace(params, beta=0.0)
        out.append(params)
    return out


@pytest.mark.parametrize("pools", ["seed-1", "seed-2", "seed-3", "mixed"])
def test_batched_properties_equal_scalar_reference(pools):
    seed = 1 if pools == "mixed" else int(pools[-1])
    pool_tp, pool_olg = two_period_pool(30, seed), olg_pool(30, seed)
    if pools == "mixed":
        pool_tp, pool_olg = _mixed(pool_tp), _mixed(pool_olg)
    results = [
        (_prop_durability_premium(pool_tp, pool_olg, DEFAULT_D_MAX),
         _scalar_premium(pool_tp, pool_olg, DEFAULT_D_MAX)),
        (_prop_alpha_envelope(pool_tp, pool_olg, DEFAULT_D_MAX),
         _scalar_envelope(pool_tp, pool_olg, DEFAULT_D_MAX)),
        (_prop_efficiency(pool_tp, DEFAULT_D_MAX),
         _scalar_efficiency(pool_tp, DEFAULT_D_MAX)),
    ]
    for batched, scalar in results:
        assert batched == scalar
        assert json.dumps(batched.counterexample) == json.dumps(scalar.counterexample)
    if pools == "mixed":
        assert all(batched.violations > 0 for batched, _ in results)
        assert all(batched.counterexample is not None for batched, _ in results)


def test_batched_properties_accept_empty_pools():
    assert _prop_durability_premium([], [], DEFAULT_D_MAX).checks == 0
    assert _prop_alpha_envelope([], [], DEFAULT_D_MAX).checks == 0
    assert _prop_efficiency([], DEFAULT_D_MAX).checks == 0


# ----------------------------------------------------------------------
# verification harness
# ----------------------------------------------------------------------


_SMALL = dict(
    seed=7,
    foc_draws=2,
    grid_points=5_000,
    pool_draws=6,
    audit_draws=2,
    commission_points=101,
)


def test_run_verification_small_scale():
    results = run_verification(**_SMALL)
    assert [r.name for r in results] == list(PROPERTY_NAMES)
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.checks > 0
        assert r.violations == 0
        assert r.counterexample is None


def test_run_verification_parallel_matches_serial():
    serial = run_verification(**_SMALL)
    parallel = run_verification(**_SMALL, jobs=2)
    assert [(r.name, r.checks, r.violations) for r in serial] == [
        (r.name, r.checks, r.violations) for r in parallel
    ]


def test_injected_failure_is_surfaced():
    results = run_verification(**_SMALL, inject_failure=True)
    assert len(results) == len(PROPERTY_NAMES) + 1
    probe = results[-1]
    assert probe.name == "injected-failure-probe"
    assert not probe.passed
    assert probe.counterexample is not None
