import csv
import dataclasses
import functools
import json
import math
import types

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
    shutdown_profit,
    solve_olg,
)
from recommerce import olg as olg_mod
from recommerce import oracle, statics
from recommerce import two_period as tp
from recommerce.primitives import (
    BracketError,
    ModelParams,
    PowerCost,
    RationalQuality,
    SaturatingExpQuality,
    bisect_increasing,
    params_to_dict,
)
from recommerce.cli import main
from recommerce.reporting import fmt12
from recommerce.statics import (
    DEFAULT_BOX,
    DEFAULT_D_MAX,
    LADDER_POINTS,
    LADDER_STEP,
    PropertyResult,
    SweepPoint,
    _draw_block,
    _draw_row,
    _foc_mask,
    _ladder_values,
    _olg_filters,
    _params_payload,
    _prop_alpha_envelope,
    _prop_commission_argmax,
    _prop_constraints,
    _prop_durability_premium,
    _prop_efficiency,
    _prop_foc_grid,
    _prop_ladders,
    _prop_olg_unique,
    _stack,
    _take,
    _two_period_mask,
    admissible_olg_pool,
    equilibrium_feasible,
    foc_pool,
    ladder_active,
    margin_active,
    olg_pool,
    sample_filtered,
    two_period_pool,
)
import references
from references import sample_params

T = Regime.THIRD_PARTY
B = Regime.BRANDED
TP = ModelKind.TWO_PERIOD
OLG = ModelKind.OLG


# ----------------------------------------------------------------------
# envelope derivatives vs finite differences
# ----------------------------------------------------------------------


def _root(params, model, regime, d_max=DEFAULT_D_MAX):
    """D* of one point from its model's single-point solver."""

    solve = tp.solve if model is TP else solve_olg
    return solve(params, regime, d_max=d_max).D_star


def _env(params, regime, wrt, model, d_max=DEFAULT_D_MAX):
    """The envelope derivative at the single-point solver's D*."""

    return envelope_profit_derivative(
        params, regime, wrt, model, _root(params, model, regime, d_max)
    )


def _fd(params, regime, wrt, model, d_max=DEFAULT_D_MAX):
    """The finite difference at the single-point solvers' D* of the two
    stepped points."""

    base = getattr(params, wrt)
    roots = tuple(
        _root(dataclasses.replace(params, **{wrt: base + h}), model, regime, d_max)
        for h in (-statics._FD_STEP, statics._FD_STEP)
    )
    return fd_profit_derivative(params, regime, wrt, model, roots)


@pytest.mark.parametrize("regime", [T, B])
@pytest.mark.parametrize("wrt", ["alpha", "beta", "delta"])
def test_envelope_matches_fd_two_period(canonical, regime, wrt):
    env = _env(canonical, regime, wrt, TP)
    fd = _fd(canonical, regime, wrt, TP)
    assert env == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("regime", [T, B])
@pytest.mark.parametrize("wrt", ["alpha", "beta", "delta"])
def test_envelope_matches_fd_olg(olg_feasible, regime, wrt):
    env = _env(olg_feasible, regime, wrt, OLG)
    fd = _fd(olg_feasible, regime, wrt, OLG)
    assert env == pytest.approx(fd, abs=1e-6)


class _Undefined:
    """A cost or quality stand-in whose value is an undefined function of D."""

    def __init__(self, fn):
        self.fn = fn

    def value(self, D):
        return self.fn(D)


@pytest.mark.parametrize("regime", [T, B])
@pytest.mark.parametrize("model", [TP, OLG])
def test_durability_table_and_envelope_branches_symbolically(model, regime):
    # the objective, with symbolic parameters and undefined c(D) and s(D):
    # its D-derivative is w*(k*M*s'(D) - c'(D)) with the table's k*M, and
    # its partials are the envelope branches at that D
    sp = pytest.importorskip("sympy")
    D = sp.Symbol("D", positive=True)
    s, c = sp.Function("s"), sp.Function("c")
    names = ("v_H", "v_L", "n_H", "n_L", "delta", "alpha", "beta")
    sym = dict(zip(names, sp.symbols(names, positive=True)))
    params = ModelParams(**sym, cost=_Undefined(c), quality=_Undefined(s))
    if model is TP:
        objective = tp.profit(params, regime, D).total
        w = sym["n_H"] * (1 + sym["delta"])
    else:
        objective = olg_mod.objective_value(params, regime, D)
        w = sym["n_H"] * sym["delta"] / (1 - sym["delta"])

    def vanishes(expr):
        return sp.simplify(sp.nsimplify(expr)) == 0

    _, slope = tp.durability_condition(params, model, regime)
    assert vanishes(objective.diff(D) - w * (slope * s(D).diff(D) - c(D).diff(D)))
    for wrt in ("alpha", "beta", "delta"):
        branch = envelope_profit_derivative(params, regime, wrt, model, D_star=D)
        assert vanishes(objective.diff(sym[wrt]) - branch), wrt


def _written_out_objective(x, regime, model, s, c):
    """The seller objective built from the posted prices, no solver code, at
    parameters ``x`` (any number type), ``s = s(D)`` and ``c = c(D)``."""

    used = x.alpha * x.v_L * s  # the low type's deflated value of a used unit
    # the high type replaces rather than keeps, and sells at the used price
    # less the commission
    late_new = x.v_H * (1 - s) + (1 - x.beta) * used
    # the branded seller also keeps the commission on the used trade
    take = late_new + x.beta * used if regime is B else late_new
    # the first purchase prices in the discounted resale proceeds
    first_new = x.v_H + x.delta * (1 - x.beta) * used
    if model is TP:
        return x.n_H * (first_new - c) + x.delta * x.n_H * (take - c)
    return x.n_H * first_new + x.delta / (1 - x.delta) * x.n_H * (take - c)


@pytest.mark.parametrize("regime", [T, B])
@pytest.mark.parametrize("model", [TP, OLG])
def test_durability_table_from_written_out_prices(model, regime):
    # the objective built here from the posted prices, no solver code, with
    # s = s(D) and c = c(D) as symbols: it is affine in (s, c), so its
    # stationary point is c'(D) = k*M*s'(D) with k*M = -(d/ds) / (d/dc)
    sp = pytest.importorskip("sympy")
    names = ("v_H", "v_L", "n_H", "n_L", "delta", "alpha", "beta")
    sym = dict(zip(names, sp.symbols(names, positive=True)))
    s, c = sp.symbols("s c")
    objective = _written_out_objective(types.SimpleNamespace(**sym), regime, model, s, c)
    derived = -objective.diff(s) / objective.diff(c)

    _, slope = tp.durability_condition(
        ModelParams(**sym, cost=None, quality=None), model, regime
    )
    assert sp.simplify(sp.nsimplify(derived - slope)) == 0


_PRIMITIVES = ("v_H", "v_L", "n_H", "n_L", "delta", "alpha", "beta")


def _mp_envelope_reference(mp, params, regime, model, wrt):
    """D* and d(maximized objective)/d(wrt) at 50 digits, from the exact
    values of the float parameters: ``mp.diff`` of the value function, whose
    D* is the Illinois root of the written-out objective's D-derivative."""

    cost, quality = params.cost, params.quality
    with mp.workdps(50):
        c0, p, k = (mp.mpf(x) for x in (cost.c0, cost.p, quality.k))
        if isinstance(quality, SaturatingExpQuality):
            s_bar = mp.mpf(quality.s_bar)

            def s(D):
                return s_bar * (1 - mp.exp(-k * D))

            def ds(D):
                return s_bar * k * mp.exp(-k * D)

        else:

            def s(D):
                return D / (D + k)

            def ds(D):
                return k / (D + k) ** 2

        def solved(theta):
            x = {f: mp.mpf(getattr(params, f)) for f in _PRIMITIVES}
            x[wrt] = theta
            objective = functools.partial(
                _written_out_objective, types.SimpleNamespace(**x), regime, model
            )
            # affine in (s, c): F = a + b*s + e*c, stationary where b*s' + e*c' = 0
            a = objective(0, 0)
            b, e = objective(1, 0) - a, objective(0, 1) - a
            d = mp.findroot(
                lambda D: b * ds(D) + e * c0 * p * D ** (p - 1), (0, 10), solver="illinois"
            )
            return d, a + b * s(d) + e * c0 * d**p

        d_star = solved(mp.mpf(getattr(params, wrt)))[0]
        return float(d_star), float(mp.diff(lambda t: solved(t)[1], getattr(params, wrt)))


def _envelope_error_ok(env, ref):
    # D* is solved to an absolute 1e-10, so near D* = 0 only the absolute
    # term holds
    return abs(env - ref) <= 1e-6 * abs(ref) + 1e-9


def _near_shutdown(params, model, regime, margin):
    """``params`` with ``v_L`` set so that the (model, regime) margin, which
    is affine in ``v_L``, is about ``margin``."""

    lo, hi = (
        tp.durability_condition(dataclasses.replace(params, v_L=v), model, regime)[0]
        for v in (0.0, 1.0)
    )
    return dataclasses.replace(params, v_L=(margin - lo) / (hi - lo))


@pytest.mark.parametrize(
    "cost,quality",
    [
        (PowerCost(c0=0.5, p=2.0), SaturatingExpQuality(s_bar=1.0, k=1.0)),
        (PowerCost(c0=0.5, p=1.5), SaturatingExpQuality(s_bar=1.0, k=1.0)),
        (PowerCost(c0=0.5, p=3.0), RationalQuality(k=1.0)),
        (PowerCost(c0=0.8, p=2.5), RationalQuality(k=0.5)),
    ],
    ids=["power2-satexp", "power1.5-satexp", "power3-rational1", "power2.5-rational0.5"],
)
def test_envelope_matches_mpmath_reference_near_shutdown(cost, quality):
    # every cell of a verify draw in each shipped family, its margin moved
    # to 1e-2 and 1e-4 by v_L: D* runs from 2e-9 to 0.076
    mp = pytest.importorskip("mpmath").mp
    draw = dataclasses.replace(olg_pool(1, 42)[0], cost=cost, quality=quality)
    for model in (TP, OLG):
        for regime in (T, B):
            for margin in (1e-2, 1e-4):
                params = _near_shutdown(draw, model, regime, margin)
                for wrt in ("alpha", "beta", "delta"):
                    d_star, ref = _mp_envelope_reference(mp, params, regime, model, wrt)
                    assert 0.0 < d_star < 0.1
                    env = _env(params, regime, wrt, model)
                    assert _envelope_error_ok(env, ref), (model, regime, margin, wrt, env, ref)


def test_envelope_is_right_where_the_finite_difference_is_not():
    # a verify counterexample on a rational-quality family: the steady-state
    # third-party cell 4.8e-4 from shutdown, with respect to beta, where
    # the value function curves too sharply for the step _FD_STEP
    mp = pytest.importorskip("mpmath").mp
    n_H = 0.448218898118398
    params = ModelParams(
        v_H=1.0, v_L=0.9035478753188486, n_H=n_H, n_L=1.0 - n_H,
        delta=0.6356063825093354, alpha=0.8224628658510142, beta=0.013726302935188594,
        cost=PowerCost(c0=0.8, p=2.5), quality=RationalQuality(k=0.5),
    )
    d_star, ref = _mp_envelope_reference(mp, params, T, OLG, "beta")
    assert d_star == pytest.approx(4.815e-4, rel=1e-3)
    assert ref == pytest.approx(-7.6270363e-4, rel=1e-8)
    env = _env(params, T, "beta", OLG)
    assert env == pytest.approx(-7.6270367e-4, rel=1e-8)
    assert _envelope_error_ok(env, ref)
    assert abs(env - ref) <= 1e-7 * abs(ref)
    fd = _fd(params, T, "beta", OLG)
    assert abs(fd - ref) > 4e-2 * abs(ref)


def test_envelope_rejects_unknown_parameter(canonical):
    with pytest.raises(ValueError):
        _env(canonical, T, "v_L", TP)
    with pytest.raises(ValueError):
        _fd(canonical, T, "n_H", TP)


def test_deflator_sensitivities_coincide_without_commission(canonical):
    # with no commission the regimes share margins, durability, and slope
    p = dataclasses.replace(canonical, beta=0.0)
    assert _env(p, T, "alpha", TP) == _env(p, B, "alpha", TP)


def test_commission_sensitivity_ratio_at_zero(canonical):
    # losing a commission point costs the intermediated seller twice as much
    p = dataclasses.replace(canonical, beta=0.0)
    d_t = _env(p, T, "beta", TP)
    d_b = _env(p, B, "beta", TP)
    assert d_t < 0.0 and d_b < 0.0
    assert d_t / d_b == pytest.approx(2.0, rel=1e-12)


def test_branded_gains_weakly_more_from_deflator(canonical):
    for beta in (0.0, 0.1, canonical.beta):
        p = dataclasses.replace(canonical, beta=beta)
        base = dataclasses.replace(canonical, beta=0.0)
        lhs = _env(base, B, "alpha", TP)
        rhs = _env(p, T, "alpha", TP)
        if beta == 0.0:
            assert lhs == rhs
        else:
            assert lhs > rhs


def test_shutdown_envelope_values(canonical):
    # the formulas at D* = 0 give the shutdown slopes, compared by repr so
    # that a -0.0 slope fails; alone and among active lanes
    dead = dataclasses.replace(canonical, v_L=0.4)
    mixed = _stack([canonical, dead, *admissible_olg_pool(40, 7)])
    for model in (TP, OLG):
        for regime in (T, B):
            shut = ~margin_active(mixed, model, regime)
            assert shut.any() and not shut.all()
            for wrt in ("alpha", "beta", "delta"):
                ref = _shutdown_slope(dead, wrt, model)
                assert repr(_env(dead, regime, wrt, model)) == repr(ref)
                [d_star] = statics._cell_durabilities([(mixed, model, regime)], DEFAULT_D_MAX)
                env = envelope_profit_derivative(mixed, regime, wrt, model, d_star)
                for i in np.flatnonzero(shut):
                    ref = _shutdown_slope(_draw_row(mixed, i), wrt, model)
                    assert repr(env[i].item()) == repr(ref)


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


def test_sweep_directions_of_flat_and_mixed_sequences():
    assert statics._direction([0.5, 0.5, 0.5]) == "constant"
    assert statics._direction([0.1, 0.3, 0.2]) == "non-monotone"
    assert statics._direction([0.1, 0.1, 0.2]) == "non-monotone"


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


def _reference_sweep(params, regime, parameter, values, model):
    """The sweep as one single-point solve per point; a shut-down point's
    envelope slope is that of the high-type-only profit."""

    points = []
    for value in values:
        pt = dataclasses.replace(params, **{parameter: float(value)})
        if model is TP:
            eq = tp.solve(pt, regime)
            mode, d_star, profit, welfare = eq.market_mode, eq.D_star, eq.profit_total, eq.welfare
        else:
            sol = solve_olg(pt, regime)
            mode, d_star, profit = sol.market_mode, sol.D_star, sol.objective_value
            welfare = math.nan
        env = (
            envelope_profit_derivative(pt, regime, parameter, model, d_star)
            if mode is tp.MarketMode.ACTIVE
            else _shutdown_slope(pt, parameter, model)
        )
        fd = float(_fd(pt, regime, parameter, model))
        points.append(SweepPoint(float(value), regime, mode, d_star, profit, welfare, env, fd))
    return points


_SWEEP_GRIDS = {
    "alpha": np.linspace(0.5, 1.0, 11),
    "beta": np.linspace(0.0, 0.9, 10),
    "delta": np.linspace(0.1, 0.95, 18),
}


@pytest.mark.parametrize("model", [TP, OLG])
@pytest.mark.parametrize("parameter", list(_SWEEP_GRIDS))
def test_sweep_lanes_equal_single_point_solves(canonical, cap_failure, model, parameter):
    # the grids cross the shutdown boundary; the two-period margin does not
    # involve delta, so a shut-down base point gives a shut-down delta sweep,
    # and cap_failure's own value on each grid is a cap-binding steady state
    bases = [canonical, dataclasses.replace(canonical, v_L=0.5), cap_failure]
    values = _SWEEP_GRIDS[parameter]
    modes, cap_binding = set(), False
    for base in bases:
        for regime in (T, B):
            rep = monotonicity_sweep(base, regime, parameter, values, model)
            ref = _reference_sweep(base, regime, parameter, values, model)
            assert len(rep.points) == len(ref)
            for got, want in zip(rep.points, ref):
                for field in dataclasses.fields(SweepPoint):
                    name = field.name
                    assert repr(getattr(got, name)) == repr(getattr(want, name)), name
                modes.add(got.market_mode)
                pt = dataclasses.replace(base, **{parameter: got.param_value})
                cap_binding |= model is OLG and solve_olg(pt, regime).no_active_steady_state
    assert modes == set(tp.MarketMode)
    assert cap_binding or model is TP


@pytest.mark.parametrize("model", [TP, OLG])
@pytest.mark.parametrize("parameter", list(_SWEEP_GRIDS))
def test_sweep_verdicts_follow_the_parameter_not_the_grid(
    canonical, olg_feasible, model, parameter
):
    # a descending grid reads the same directions as its ascending mirror,
    # and its points keep the order given; repeated values stay constant
    base = canonical if model is TP else olg_feasible
    values = _SWEEP_GRIDS[parameter]
    directed = set()
    for regime in (T, B):
        up = monotonicity_sweep(base, regime, parameter, values, model)
        down = monotonicity_sweep(base, regime, parameter, values[::-1], model)
        assert down.verdicts == up.verdicts
        assert [pt.param_value for pt in down.points] == values[::-1].tolist()
        directed.add(up.verdicts["durability"])
    assert directed & {"strictly-increasing", "strictly-decreasing"}
    flat = monotonicity_sweep(base, B, parameter, [getattr(base, parameter)] * 3, model)
    assert flat.verdicts["durability"] == flat.verdicts["profit"] == "constant"


def test_sweep_solves_only_the_roots_it_reports(tmp_path, canonical):
    # at d_max = 0.2 the social root is out of reach, but no sweep point's D* is
    d_max = 0.2
    with pytest.raises(BracketError):
        tp.social_optimal_durability(canonical, d_max)
    config = tmp_path / "d-max-0.2.json"
    config.write_text(json.dumps({"schema": "recommerce-config/1", "solver": {"d_max": d_max}}))
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(config), "--parameter", "alpha",
            "--start", "0.9", "--stop", "1.0", "--steps", "3", "--out", str(out)]
    assert main(argv) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for row in rows:
        regime = Regime(row["regime"])
        pt = dataclasses.replace(canonical, alpha=float(row["param_value"]))
        assert row["D_star"] == fmt12(tp.optimal_durability(pt, regime, d_max))
    for regime in (T, B):
        rep = monotonicity_sweep(canonical, regime, "alpha", np.linspace(0.9, 1.0, 3), d_max=d_max)
        for got in rep.points:
            pt = dataclasses.replace(canonical, alpha=got.param_value)
            assert got.D_star == tp.optimal_durability(pt, regime, d_max)


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
    # the inactive tail carries the steady-state objective at D = 0, which
    # no commission enters: n_H*v_H/(1-delta) up to rounding
    tail = curve.profits[~curve.active]
    expected = olg_mod.objective_value(olg_feasible, B, 0.0)
    assert np.all(tail == expected)
    assert expected == pytest.approx(
        olg_feasible.n_H * olg_feasible.v_H / (1.0 - olg_feasible.delta), rel=1e-15
    )
    assert np.all(np.diff(curve.profits[curve.active]) < 0.0)


def test_commission_curve_lanes_equal_scalar_solves():
    # each lane prices its commission with the same margin, root and
    # objective formulas as a single-point solve, shut-down lanes included,
    # so the values agree exactly; a stacked pool gives one row per draw,
    # each equal to its single curve
    checked = shutdowns = 0
    for model, pool in ((TP, two_period_pool(40, 42)), (OLG, olg_pool(40, 42))):
        rows = optimal_commission(_stack(pool), model, n_points=201)
        assert rows.profits.shape == rows.d_stars.shape == rows.active.shape == (40, 201)
        for k, params in enumerate(pool):
            curve = optimal_commission(params, model, n_points=201)
            assert np.ndim(curve.argmax_index) == np.ndim(curve.beta_star) == 0
            assert np.ndim(curve.profit_at_star) == 0
            for field in ("d_stars", "profits", "active"):
                assert np.array_equal(getattr(rows, field)[k], getattr(curve, field))
            assert rows.argmax_index[k] == curve.argmax_index
            assert rows.beta_star[k] == curve.beta_star
            assert rows.profit_at_star[k] == curve.profit_at_star
            for i, beta in enumerate(curve.betas):
                pt = dataclasses.replace(params, beta=float(beta))
                value, d, active = _solved(pt, B, model)
                assert curve.active[i] == active
                assert curve.d_stars[i] == d
                assert curve.profits[i] == value
                checked += 1
                shutdowns += not active
    assert checked == 2 * 40 * 201
    assert shutdowns > 4000


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
    # a screen that rejects every block: the raw draws run out unchecked
    with pytest.raises(RuntimeError, match="exhausted 200000 attempts with 0/1"):
        sample_filtered(1, [9, 9], lambda p: True, screen=lambda b: np.zeros(b.beta.shape, bool))


def test_block_draws_reproduce_one_at_a_time_uniforms():
    box = DEFAULT_BOX
    block = _draw_block(np.random.default_rng([3, 1]), 2000)
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


def _rule_mask(rule, screen):
    """A screen and a row rule as one acceptance mask."""

    def accept(block, need):
        rows = [i for i in np.flatnonzero(screen(block)) if rule(_draw_row(block, i))]
        return np.isin(np.arange(block.beta.size), rows)

    return accept


# each pool's acceptance mask (the OLG pool's: its screen and row rule) and
# the row-by-row reference pair it replaces
_POOL_FILTERS = {
    "two-period": (_two_period_mask(DEFAULT_D_MAX), references._two_period_rules(DEFAULT_D_MAX)),
    "olg": (_rule_mask(*_olg_filters(DEFAULT_D_MAX)), references._olg_rules(DEFAULT_D_MAX)),
    **{
        f"foc-{model.value}-{regime.value}": (
            _foc_mask(model, regime, DEFAULT_D_MAX),
            references._foc_rules(model, regime, DEFAULT_D_MAX),
        )
        for model in ModelKind
        for regime in Regime
    },
}


@pytest.mark.parametrize("name", sorted(_POOL_FILTERS))
def test_screen_and_rule_accept_the_reference_draws(name):
    accept, (ref_rule, ref_screen) = _POOL_FILTERS[name]
    block = _draw_block(np.random.default_rng([17, len(name)]), 3000)
    accepted = np.flatnonzero(accept(block, 3000))
    assert accepted.size, "no draw is accepted; the check says nothing"
    assert accepted.size < 3000, "the mask rejects nothing; the check says nothing"
    ref_rows = [i for i in np.flatnonzero(ref_screen(block)) if ref_rule(_draw_row(block, i))]
    assert accepted.tolist() == ref_rows
    # told it needs fewer draws, a mask is exact up to the last one needed
    for need in (1, 5, statics._ROOT_CHUNK, accepted.size - 1):
        assert (np.flatnonzero(accept(block, need))[:need] == accepted[:need]).all()
    if name == "olg":
        # the cap at D* rejects draws that both margins let through
        margins = margin_active(block, OLG, T) & margin_active(block, OLG, B)
        assert (margins & ~_olg_filters(DEFAULT_D_MAX)[1](block)).any()
    if name == "two-period":
        # the lanes that reach the roots span several chunks
        assert accepted.size > 2 * statics._ROOT_CHUNK


@pytest.mark.parametrize("name", sorted(_POOL_FILTERS))
def test_screened_pool_equals_the_reference_pool(name):
    accept, (ref_rule, ref_screen) = _POOL_FILTERS[name]
    for seed in (1, 2, 3, 5):
        want = references._sample_rows(3, (seed, 9), ref_rule, ref_screen)
        assert statics._rows(statics._sample_lanes(3, (seed, 9), accept)) == want, seed
        if name == "olg":
            rule, screen = _olg_filters(DEFAULT_D_MAX)
            assert sample_filtered(3, (seed, 9), rule, screen=screen) == want, seed
            # the OLG rule alone is the whole decision
            assert olg_pool(8, seed) == sample_filtered(8, (seed, 2), rule), seed


_POOLS = {
    "two-period": (two_period_pool, references.two_period_pool),
    "olg": (olg_pool, references.olg_pool),
    "admissible-olg": (admissible_olg_pool, references.admissible_olg_pool),
    **{
        f"foc-{model.value}-{regime.value}": (
            functools.partial(foc_pool, model=model, regime=regime),
            functools.partial(references.foc_pool, model=model, regime=regime),
        )
        for model in ModelKind
        for regime in Regime
    },
}


@pytest.mark.parametrize("name", sorted(_POOLS))
def test_pools_equal_row_by_row_reference_pools(name):
    pool, reference = _POOLS[name]
    for seed in range(40):
        want = reference(200, seed)
        assert pool(200, seed) == want, seed
        # the reference sampler takes the first n accepted draws, so its
        # pool of 50 is the head of its pool of 200
        assert pool(50, seed) == want[:50], seed


def _pool_or_error(sample, *args):
    try:
        return sample(*args)
    except BracketError as exc:
        return str(exc)


@pytest.mark.parametrize("d_max", [0.1, 0.2])
def test_two_period_screen_leaves_roots_beyond_d_max_to_the_rule(d_max):
    # the first block holds draws the mask solves that have no root below
    # d_max; the pool raises the reference pool's error (d_max = 0.1) or,
    # when it fills before the rule meets one, equals it
    block = _draw_block(np.random.default_rng([6, 1]), 4096)
    with pytest.raises(BracketError):
        _two_period_mask(d_max)(block, 4096)
    want = _pool_or_error(
        references._sample_rows, 4, (6, 1), *references._two_period_rules(d_max)
    )
    assert isinstance(want, str) == (d_max == 0.1)
    lanes = _pool_or_error(statics._sample_lanes, 4, (6, 1), _two_period_mask(d_max))
    assert want == (lanes if isinstance(lanes, str) else statics._rows(lanes))


@pytest.mark.parametrize("seed", [42, 7])
def test_two_period_pool_raises_at_the_reference_draw(seed):
    # at d_max = 0.2 a root beyond d_max meets the row-by-row pool after k
    # accepted draws: the pool of k equals them without raising (at these
    # seeds the failing draw lies in the first chunk of roots with them),
    # and the pool of k + 1 raises the same error
    rule, screen = references._two_period_rules(0.2)
    accepted = []

    def counting(cand):
        ok = rule(cand)
        if ok:
            accepted.append(cand)
        return ok

    want = _pool_or_error(references._sample_rows, 200, (seed, 1), counting, screen)
    assert isinstance(want, str)
    k = len(accepted)
    assert 0 < k < statics._ROOT_CHUNK
    assert two_period_pool(k, seed, 0.2) == accepted
    assert _pool_or_error(two_period_pool, k + 1, seed, 0.2) == want


@pytest.mark.parametrize("d_max", [0.1, 0.25])
def test_olg_screen_leaves_roots_beyond_d_max_to_the_predicate(d_max):
    # the first block holds margin-active draws with no root below d_max;
    # the screened pool raises the unscreened pool's error (d_max = 0.1) or,
    # when the pool fills before the predicate meets one, equals it (0.25)
    block = _draw_block(np.random.default_rng([6, 2]), 4096)
    with pytest.raises(BracketError):
        statics._cell_durabilities([(block, OLG, B)], d_max)
    predicate, screen = _olg_filters(d_max)

    def pool(**kw):
        try:
            return sample_filtered(4, (6, 2), predicate, **kw)
        except BracketError as exc:
            return str(exc)

    plain = pool()
    assert isinstance(plain, str) == (d_max == 0.1)
    assert pool(screen=screen) == plain


def test_ratio_cap_slack_lanes_equal_scalar_slacks():
    block = _draw_block(np.random.default_rng([23, 5]), 2000)
    rng = np.random.default_rng(8)
    live = margin_active(block, OLG, T) & margin_active(block, OLG, B)
    durabilities = [
        rng.uniform(0.0, 2.0, 2000),
        np.where(live, statics._cell_durabilities([(block, OLG, B)], DEFAULT_D_MAX)[0], 0.0),
    ]
    for d in durabilities:
        lanes = olg_mod._ratio_cap_slack(block, block.quality.value(d))
        for i in range(2000):
            scalar = olg_mod.constraint_slacks_olg(_draw_row(block, i), float(d[i]))
            assert float(lanes[i]).hex() == scalar["ratio_cap"].hex()


def _olg_feasible_from_recomputed_slacks(params, regime):
    if not margin_active(params, OLG, regime):
        return False
    d_star = solve_olg(params, regime).D_star
    slacks = olg_mod.constraint_slacks_olg(params, d_star)
    return all(v >= -1e-9 for v in slacks.values())


def test_olg_feasibility_reads_the_solved_slacks():
    # the seed-42 pool, and margin-active raw draws many of which fail the cap
    block = _draw_block(np.random.default_rng([42, 7]), 400)
    margins = margin_active(block, OLG, T) & margin_active(block, OLG, B)
    draws = [_draw_row(block, i) for i in np.flatnonzero(margins)]
    outcomes = set()
    for params in olg_pool(50, 42) + draws:
        for regime in (T, B):
            feasible = equilibrium_feasible(params, OLG, regime)
            assert feasible == _olg_feasible_from_recomputed_slacks(params, regime)
            outcomes.add(feasible)
    assert outcomes == {True, False}


def test_batched_ladders_equal_scalar_solves():
    base = two_period_pool(100, 42)
    # a second cost/quality family, as a pool of its own
    other = [
        dataclasses.replace(p, cost=PowerCost(c0=0.8, p=2.5), quality=RationalQuality(k=1.0))
        for p in base[:4]
    ]
    lanes = 0
    for pool in (base, other):
        d_stars, profits = _ladder_values(_stack(pool), DEFAULT_D_MAX)
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
    assert lanes == 2 * (len(base) + len(other)) * 2 * LADDER_POINTS


def test_batched_ladders_reject_like_the_scalar_solver(canonical):
    # the first-order root lies beyond d_max: the scalar solver raises
    unbracketed = dataclasses.replace(
        canonical, cost=PowerCost(c0=1e-6, p=2.0), quality=RationalQuality(k=1.0)
    )
    with pytest.raises(BracketError) as single:
        tp.optimal_durability(unbracketed, T)
    with pytest.raises(BracketError) as batched:
        _ladder_values(_stack([unbracketed]), DEFAULT_D_MAX)
    assert str(batched.value) == str(single.value)


def test_pools_that_mix_families_are_refused(canonical):
    # a pool is stacked into one ModelParams, which holds one cost/quality
    # family; draws of another family belong in a pool of their own
    other = dataclasses.replace(canonical, cost=PowerCost(c0=0.8, p=2.5))
    with pytest.raises(ValueError, match="one cost/quality family"):
        _stack([canonical, other])


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
    social = tp.social_optimal_durability(stacked)
    # the social planner's row: margin v_L, slope delta/(1+delta)*v_L
    social_margin, social_slope = tp.durability_condition(stacked, TP, None)
    for i, params in enumerate(pool):
        expected = (params.v_L, params.delta / (1.0 + params.delta) * params.v_L)
        assert tp.durability_condition(params, TP, None) == expected
        assert (social_margin[i], social_slope[i]) == expected
    with pytest.raises(ValueError, match="two-period"):
        tp.durability_condition(stacked, OLG, None)
    shutdowns = 0
    for regime in (T, B):
        margin, slopes = tp.durability_condition(stacked, TP, regime)
        live = margin > 0.0
        roots = tp.solve_foc(stacked, slopes[live])
        d_tp, d_olg = statics._cell_durabilities(
            [(stacked, TP, regime), (stacked, OLG, regime)], DEFAULT_D_MAX
        )
        for i, params in enumerate(pool):
            assert d_tp[i] == tp.solve(params, regime).D_star
            assert d_olg[i] == solve_olg(params, regime).D_star
            assert social[i] == tp.social_optimal_durability(params)
        for k, i in enumerate(np.flatnonzero(live)):
            assert roots[k] == tp.optimal_durability(pool[i], regime)
            # a 0-d slope takes the scalar bisection and gives a float
            slope = tp.durability_condition(pool[i], TP, regime)[1]
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


def test_properties_count_a_shut_down_draw_as_a_violation(canonical):
    # a shut-down two-period draw solves to D* = 0 in every regime, so the
    # strict orderings fail there and name it, where the scalar solver
    # refuses it
    shut = dataclasses.replace(canonical, v_L=0.5)
    with pytest.raises(ValueError):
        tp.optimal_durability(shut, T)
    pool = _stack([canonical, shut])
    for res in (
        _prop_durability_premium(pool, _take(pool, slice(0)), DEFAULT_D_MAX),
        _prop_efficiency(pool, DEFAULT_D_MAX),
    ):
        assert (res.checks, res.violations) == (2, 1)
        assert res.counterexample["params"] == params_to_dict(shut)


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


def test_solved_values_at_cell_roots_equal_single_point_solvers(canonical):
    # the maximized objective at the batched roots is the single-point
    # solvers' value bit for bit, on shut-down lanes too
    dead = dataclasses.replace(canonical, v_L=0.4)
    pool = [dead, *admissible_olg_pool(40, 7)]
    stacked = _stack(pool)
    shutdowns = 0
    for model in (TP, OLG):
        for regime in (T, B):
            [d_stars] = statics._cell_durabilities([(stacked, model, regime)], DEFAULT_D_MAX)
            values = statics._solved_values(stacked, model, regime, d_stars)
            for i, params in enumerate(pool):
                ref, _, active = _solved(params, regime, model)
                assert repr(float(values[i])) == repr(ref)
                shutdowns += not active
            if model is TP:
                assert values[0] == shutdown_profit(dead)
            else:
                assert values[0] == pytest.approx(dead.n_H * dead.v_H / (1 - dead.delta))
    assert shutdowns > 4


def test_batched_derivatives_equal_scalar():
    # references: the closed-form envelope at the single-point solver's D*,
    # and the centered difference of the single-point solvers' values
    pool = admissible_olg_pool(40, 7)
    stacked = _stack(pool)
    h = 1e-5
    shutdowns = 0
    for model in (TP, OLG):
        for regime in (T, B):
            for wrt in ("alpha", "beta", "delta"):
                base = getattr(stacked, wrt)
                stepped = [dataclasses.replace(stacked, **{wrt: base + d}) for d in (-h, h)]
                d_star, d_lo, d_hi = statics._cell_durabilities(
                    [(p, model, regime) for p in (stacked, *stepped)], DEFAULT_D_MAX
                )
                env = envelope_profit_derivative(stacked, regime, wrt, model, d_star)
                fd = fd_profit_derivative(stacked, regime, wrt, model, (d_lo, d_hi))
                for i, params in enumerate(pool):
                    _, d_star, active = _solved(params, regime, model)
                    ref_env = (
                        envelope_profit_derivative(params, regime, wrt, model, d_star)
                        if active
                        else _shutdown_slope(params, wrt, model)
                    )
                    base = getattr(params, wrt)
                    hi, lo = (
                        _solved(dataclasses.replace(params, **{wrt: base + d}), regime, model)[0]
                        for d in (h, -h)
                    )
                    assert env[i] == _env(params, regime, wrt, model) == ref_env
                    assert fd[i] == _fd(params, regime, wrt, model) == (hi - lo) / (2.0 * h)
                    shutdowns += not active
    assert shutdowns > 0


# The pre-batching loop bodies of six properties, kept as the reference
# the array versions must reproduce exactly. They take pools as lists of
# single draws; the properties take the same pools stacked.


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
        lhs = _env(base_b0, B, "alpha", TP, d_max)
        for frac in (0.0, 0.5, 1.0):
            beta_t = params.beta * frac
            pt = dataclasses.replace(params, beta=beta_t)
            rhs = _env(pt, T, "alpha", TP, d_max)
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
                    env = _env(params, regime, wrt, model, d_max)
                    if abs(env) <= 1e-8:
                        continue
                    fd = _fd(params, regime, wrt, model, d_max)
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


def _scalar_commission(pool_tp, pool_olg, n_points, d_max):
    checks = violations = 0
    example = None
    for model, pool in ((TP, pool_tp), (OLG, pool_olg)):
        for params in pool:
            curve = optimal_commission(params, model, n_points=n_points, d_max=d_max)
            active_profits = curve.profits[curve.active]
            checks += 1
            ok = curve.argmax_index == 0 and bool(
                np.all(np.diff(active_profits) < 0.0)
            )
            if not ok:
                violations += 1
                if example is None:
                    example = _params_payload(
                        params, model=model.value, argmax_beta=curve.beta_star
                    )
    return PropertyResult(
        name="commission-argmax-zero",
        checks=checks,
        violations=violations,
        detail=f"{n_points}-point commission grid on [0,1), both models",
        counterexample=example,
    )


def _scalar_olg_unique(pool, d_max):
    checks = violations = 0
    example = None
    for params in pool:
        for regime in (T, B):
            sol = solve_olg(params, regime, d_max=d_max)
            scan = oracle.exhaustive_steady_state_scan(params, sol.D_star)
            pr = tp.prices(params, sol.D_star)
            ok = (
                scan.unique_survivor_is_trade_pattern
                and abs(scan.p_n - pr.p2n) <= 1e-12
                and abs(scan.p_u - pr.p2u) <= 1e-12
            )
            checks += 1
            if not ok:
                violations += 1
                if example is None:
                    example = _params_payload(
                        params, regime=regime.value, D=sol.D_star, survivors=len(scan.survivors)
                    )
    return PropertyResult(
        name="olg-steady-state-uniqueness",
        checks=checks,
        violations=violations,
        detail="243 candidate (state, profile) pairs audited per draw per regime",
        counterexample=example,
    )


def _scalar_constraints(pool_tp, pool_olg, pool_any, d_max):
    tol = 1e-9
    checks = violations = 0
    example = None

    def tally(ok, payload):
        nonlocal checks, violations, example
        checks += 1
        if not ok:
            violations += 1
            if example is None:
                example = payload()

    for params in pool_tp:
        for regime in (T, B):
            d_star = tp.optimal_durability(params, regime, d_max=d_max)
            slacks = tp.constraint_slacks(params, d_star)
            ok = (
                abs(slacks["ic_h"]) <= tol
                and abs(slacks["ir_l"]) <= tol
                and slacks["ic_l"] >= -tol
                and slacks["ir_h"] >= -tol
                and slacks["ir_h_first"] >= -tol
            )
            tally(ok, lambda: _params_payload(
                params, model="two-period", regime=regime.value, slacks=slacks
            ))
    for params in pool_olg:
        for regime in (T, B):
            d_star = solve_olg(params, regime, d_max=d_max).D_star
            slacks = olg_mod.constraint_slacks_olg(params, d_star)
            ok = (
                abs(slacks["ic_h2"]) <= tol
                and abs(slacks["ir_l2"]) <= tol
                and slacks["ic_h1"] >= -tol
                and slacks["ic_l1"] >= -tol
                and slacks["ic_l2"] >= -tol
            )
            tally(ok, lambda: _params_payload(
                params, model="olg", regime=regime.value, slacks=slacks
            ))
    for params in pool_any:
        for d in (0.05, 0.3, 1.0):
            slacks = olg_mod.constraint_slacks_olg(params, d)
            ok = True
            if slacks["ic_h2"] >= -tol and slacks["ic_h1"] < -tol:
                ok = False
            if slacks["ic_l1"] >= -tol and slacks["ic_l2"] < -tol:
                ok = False
            agree = (slacks["ratio_cap"] >= -tol) == (slacks["ic_l1"] >= -tol)
            if not agree and abs(slacks["ic_l1"]) > tol and abs(slacks["ratio_cap"]) > tol:
                ok = False
            tally(ok, lambda: _params_payload(params, D=d, slacks=slacks))
    return PropertyResult(
        name="constraint-structure",
        checks=checks,
        violations=violations,
        detail=(
            "old-high self-selection and old-low participation bind to 1e-9, "
            "all other slacks weakly positive; implication chain and cap "
            "equivalence checked at off-equilibrium durabilities"
        ),
        counterexample=example,
    )


def _violating(pool):
    # every draw gets a cost so steep that D* is tiny: its commission slope
    # falls near 1e-8, where the centered difference loses the 1e-4
    # agreement; every fourth has no commission, so the regimes tie
    out = []
    for i, params in enumerate(pool):
        params = dataclasses.replace(params, cost=PowerCost(c0=1e6, p=2.0))
        if i % 4 == 2:
            params = dataclasses.replace(params, beta=0.0)
        out.append(params)
    return out


def _unique_violating(pool):
    # a negative commission on every third draw leaves no steady state
    return [
        dataclasses.replace(params, beta=-1.0) if i % 3 == 1 else params
        for i, params in enumerate(pool)
    ]


@pytest.mark.parametrize("pools", ["seed-1", "seed-2", "seed-3", "violating"])
def test_batched_properties_equal_scalar_reference(pools):
    seed = 1 if pools == "violating" else int(pools[-1])
    pool_tp, pool_olg = two_period_pool(30, seed), olg_pool(30, seed)
    pool_any = admissible_olg_pool(10, seed)
    if pools == "violating":
        pool_tp, pool_olg = _violating(pool_tp), _violating(pool_olg)
    audit = _unique_violating(pool_olg[:6]) if pools == "violating" else pool_olg[:6]
    stacked_tp, stacked_olg = _stack(pool_tp), _stack(pool_olg)
    results = [
        (_prop_durability_premium(stacked_tp, stacked_olg, DEFAULT_D_MAX),
         _scalar_premium(pool_tp, pool_olg, DEFAULT_D_MAX)),
        (_prop_alpha_envelope(stacked_tp, stacked_olg, DEFAULT_D_MAX),
         _scalar_envelope(pool_tp, pool_olg, DEFAULT_D_MAX)),
        (_prop_efficiency(stacked_tp, DEFAULT_D_MAX),
         _scalar_efficiency(pool_tp, DEFAULT_D_MAX)),
        (_prop_olg_unique(_stack(audit), DEFAULT_D_MAX),
         _scalar_olg_unique(audit, DEFAULT_D_MAX)),
        (_prop_commission_argmax(stacked_tp, stacked_olg, 101, DEFAULT_D_MAX),
         _scalar_commission(pool_tp, pool_olg, 101, DEFAULT_D_MAX)),
        (_prop_constraints(
            _take(stacked_tp, slice(10)), _take(stacked_olg, slice(10)), _stack(pool_any),
            DEFAULT_D_MAX,
         ),
         _scalar_constraints(pool_tp[:10], pool_olg[:10], pool_any, DEFAULT_D_MAX)),
    ]
    for batched, scalar in results:
        assert batched == scalar
        assert json.dumps(batched.counterexample) == json.dumps(scalar.counterexample)
    if pools == "violating":
        assert all(batched.violations > 0 for batched, _ in results[:4])
        assert all(batched.counterexample is not None for batched, _ in results[:4])
        unique = results[3][0]
        assert 0 < unique.violations < unique.checks


def _scaled(params):
    # valuations and cost at 1e8 leave D* unchanged and the binding slacks
    # exact only to rounding, which exceeds 1e-9 there
    return dataclasses.replace(
        params, v_H=params.v_H * 1e8, v_L=params.v_L * 1e8, cost=PowerCost(c0=0.5e8, p=2.0)
    )


def _cheap(params):
    # cheap durability pushes s(D*) toward 1: low types would rather buy new
    return dataclasses.replace(params, cost=PowerCost(c0=1e-3, p=2.0))


def _low_v_h(params):
    # the high valuation below the used unit's deflated worth
    return dataclasses.replace(params, v_H=0.5 * params.alpha * (1.0 - params.beta) * params.v_L)


def _replaced(**fields):
    return lambda params: dataclasses.replace(params, **fields)


# (pool, draw change, clause the first counterexample fails). Each change
# is applied to one pool, so the counterexample comes from that pool. The
# participation slacks ir_l and ir_l2 are a product minus itself, zero in
# any rounding, so no finite draw breaks them.
_CONSTRAINT_BREAKERS = [
    ("two-period", _scaled, lambda s: abs(s["ic_h"]) > 1e-9),
    ("two-period", _cheap, lambda s: s["ic_l"] < -1e-9),
    ("two-period", _low_v_h, lambda s: s["ir_h"] < -1e-9 and s["ir_h_first"] < -1e-9),
    ("olg", _scaled, lambda s: abs(s["ic_h2"]) > 1e-9),
    ("olg", _cheap, lambda s: s["ic_l1"] < -1e-9),
    ("olg", _low_v_h, lambda s: s["ic_l2"] < -1e-9),
    ("olg", _replaced(beta=-1.0), lambda s: s["ic_h1"] < -1e-9),
    # the implication chain and the cap equivalence, off equilibrium
    ("any", _replaced(delta=-1.0), lambda s: s["ic_h2"] >= -1e-9 > s["ic_h1"]),
    ("any", _replaced(delta=-0.5, alpha=1.5), lambda s: s["ic_l1"] >= -1e-9 > s["ic_l2"]),
    ("any", _replaced(alpha=3.0), lambda s: (s["ratio_cap"] >= -1e-9) != (s["ic_l1"] >= -1e-9)),
]


@pytest.mark.parametrize("k", range(len(_CONSTRAINT_BREAKERS)))
def test_batched_constraints_equal_scalar_reference_on_violations(k):
    target, change, broken = _CONSTRAINT_BREAKERS[k]
    pools = {
        "two-period": two_period_pool(10, 1),
        "olg": olg_pool(10, 1),
        "any": admissible_olg_pool(10, 1),
    }
    pools[target] = [change(params) for params in pools[target]]
    batched = _prop_constraints(*map(_stack, pools.values()), DEFAULT_D_MAX)
    scalar = _scalar_constraints(*pools.values(), DEFAULT_D_MAX)
    assert batched == scalar
    assert json.dumps(batched.counterexample) == json.dumps(scalar.counterexample)
    assert batched.violations > 0
    assert batched.counterexample.get("model", "any") == target
    assert broken(batched.counterexample["slacks"])


@pytest.mark.parametrize("s_bar", [1e-5, 1e-6])
def test_batched_commission_equals_scalar_reference_on_violations(s_bar):
    # quality so low that the branded curve is flat to rounding: adjacent
    # commissions tie on some draws (1e-5), on every draw and with the
    # argmax away from zero on a few (1e-6)
    quality = SaturatingExpQuality(s_bar=s_bar, k=1.0)
    pool_tp, pool_olg = (
        [dataclasses.replace(p, quality=quality) for p in pool]
        for pool in (two_period_pool(30, 1), olg_pool(30, 1))
    )
    batched = _prop_commission_argmax(_stack(pool_tp), _stack(pool_olg), 201, DEFAULT_D_MAX)
    scalar = _scalar_commission(pool_tp, pool_olg, 201, DEFAULT_D_MAX)
    assert batched == scalar
    assert json.dumps(batched.counterexample) == json.dumps(scalar.counterexample)
    assert 0 < batched.violations
    if s_bar == 1e-5:
        assert batched.violations < batched.checks
    else:
        assert any(
            optimal_commission(_stack(pool), model, n_points=201).argmax_index.any()
            for model, pool in ((TP, pool_tp), (OLG, pool_olg))
        )


def test_batched_properties_accept_empty_pools(canonical):
    empty = _take(_stack([canonical]), slice(0))
    assert empty.beta.shape == (0,)
    for result in (
        _prop_foc_grid({(TP, T): empty, (OLG, B): empty}, 1000, DEFAULT_D_MAX),
        _prop_ladders(empty, DEFAULT_D_MAX),
        _prop_durability_premium(empty, empty, DEFAULT_D_MAX),
        _prop_alpha_envelope(empty, empty, DEFAULT_D_MAX),
        _prop_efficiency(empty, DEFAULT_D_MAX),
        _prop_commission_argmax(empty, empty, 11, DEFAULT_D_MAX),
        _prop_olg_unique(empty, DEFAULT_D_MAX),
        _prop_constraints(empty, empty, empty, DEFAULT_D_MAX),
    ):
        assert (result.checks, result.violations, result.counterexample) == (0, 0, None)


def test_alpha_envelope_solves_every_root_at_the_run_d_max(monkeypatch):
    pool_tp, pool_olg = _stack(two_period_pool(4, 1)), _stack(olg_pool(4, 1))
    seen = []
    solve_foc = tp.solve_foc

    def recording(params, slope, d_max=DEFAULT_D_MAX):
        seen.append(d_max)
        return solve_foc(params, slope, d_max)

    monkeypatch.setattr(statics.tp, "solve_foc", recording)
    _prop_alpha_envelope(pool_tp, pool_olg, d_max=20.0)
    # one batched root for the pools' one family, and no lane needed the
    # scalar solver
    assert seen == [20.0]


# ----------------------------------------------------------------------
# many-cell durability roots
# ----------------------------------------------------------------------


def _ladder_shape(pool):
    """A [draw, 2, 3] climb of the deflator, the shape of the ladders."""

    climb = np.arange(6).reshape(1, 2, 3) * LADDER_STEP
    fields = {f: getattr(pool, f)[:, None, None] for f in statics._SCALAR_FIELDS}
    return dataclasses.replace(pool, **{**fields, "alpha": fields["alpha"] + climb})


def _counting_vec_calls(monkeypatch):
    calls = []
    bisect = tp.bisect_increasing_vec

    def counting(*args, **kwargs):
        calls.append(args[3])  # the lane count
        return bisect(*args, **kwargs)

    monkeypatch.setattr(tp, "bisect_increasing_vec", counting)
    return calls


@pytest.mark.parametrize("active_only", [False, True])
def test_cell_durabilities_equal_cell_by_cell_roots(monkeypatch, active_only):
    other = (PowerCost(c0=0.8, p=2.5), RationalQuality(k=0.5))
    active = two_period_pool(8, 3)
    # the admissible pool is unfiltered, so it has shut-down lanes too
    mixed = active + admissible_olg_pool(8, 3)
    tp_pool = _stack(active if active_only else mixed)
    tp_other = _stack([dataclasses.replace(p, cost=other[0], quality=other[1]) for p in active])
    olg_other = _stack([dataclasses.replace(p, cost=other[0], quality=other[1]) for p in mixed])
    cells = [
        (tp_pool, TP, T),
        (olg_other, OLG, B),
        (_take(tp_pool, slice(0)), TP, B),
        (_stack(mixed), OLG, T),
        (tp_other, TP, None),
        (_ladder_shape(tp_pool), TP, B),
        (tp_other, TP, T),
        (_take(olg_other, slice(0)), OLG, T),
    ]
    calls = _counting_vec_calls(monkeypatch)
    solved = statics._cell_durabilities(cells, DEFAULT_D_MAX)
    assert len(calls) == 2  # one batched root per family
    monkeypatch.undo()
    shutdowns = 0
    for (params, model, regime), d_stars in zip(cells, solved):
        if regime is None:
            alone = tp.social_optimal_durability(params)
        else:
            # one single-point solve per lane, its fields broadcast
            alone = np.zeros(d_stars.shape)
            fields = statics._SCALAR_FIELDS
            lanes = dataclasses.replace(
                params, **{f: np.broadcast_to(getattr(params, f), alone.shape) for f in fields}
            )
            for i in np.ndindex(alone.shape):
                alone[i] = _root(_draw_row(lanes, i), model, regime)
        assert d_stars.shape == np.shape(alone)
        assert d_stars.tobytes() == np.asarray(alone).tobytes()
        shutdowns += int(np.count_nonzero(d_stars == 0.0))
    # shut-down lanes of both models are the shutdown durability
    assert shutdowns > 0
    assert active_only or np.any(solved[0] == 0.0)


def test_cell_durabilities_raise_the_first_failing_cells_error(canonical):
    d_max = 0.1  # the canonical branded root, 0.1238, lies beyond it
    flat = dataclasses.replace(
        canonical, cost=PowerCost(c0=1e-6, p=2.0), quality=RationalQuality(k=1.0)
    )
    ok, beyond, other = (
        (_stack([canonical]), TP, T),
        (_stack([canonical]), TP, B),
        (_stack([flat]), TP, T),
    )
    errors = {}
    for name, (params, model, regime) in (("beyond", beyond), ("other", other)):
        with pytest.raises(BracketError) as single:
            tp.optimal_durability(params, regime, d_max=d_max)
        errors[name] = single.value
    assert len({str(e) for e in errors.values()}) == 2
    # the canonical family's cells are solved first, but a cell of the other
    # family comes first in order
    for cells, first in (
        ([ok, other, beyond], "other"),
        ([ok, beyond, other], "beyond"),
    ):
        with pytest.raises(BracketError) as batched:
            statics._cell_durabilities(cells, d_max)
        assert str(batched.value) == str(errors[first])
    # the social root keeps the error that names it
    with pytest.raises(BracketError) as social:
        tp.social_optimal_durability(canonical, d_max=0.2)
    with pytest.raises(BracketError) as batched:
        statics._cell_durabilities([ok, (_stack([canonical]), TP, None), ok], 0.2)
    assert str(batched.value) == str(social.value)
    assert "social-planner durability" in str(social.value)


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
# every argument of run_verification, which has no defaults
_RUN = dict(_SMALL, d_max=DEFAULT_D_MAX, jobs=1, inject_failure=False)


# the rows of verify.csv, in order
VERIFY_ROWS = [
    "foc-grid-agreement",
    "canonical-regression",
    "alpha-beta-ladders",
    "branded-durability-premium",
    "commission-argmax-zero",
    "alpha-sensitivity-envelope",
    "olg-steady-state-uniqueness",
    "constraint-structure",
    "efficiency-ordering",
]


def test_run_verification_small_scale():
    results = run_verification(**_RUN)
    assert [r.name for r in results] == VERIFY_ROWS
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.checks > 0
        assert r.violations == 0
        assert r.counterexample is None


def test_run_verification_rejects_more_audit_draws_than_draws():
    # the audits take the head of the draw pools, which would cap a larger
    # count without a word
    with pytest.raises(ValueError, match=r"audit_draws \(7\) exceeds pool_draws \(6\)"):
        run_verification(**dict(_RUN, audit_draws=7))


def test_each_property_solves_one_batched_root_per_family(monkeypatch):
    args = dict(_SMALL, d_max=DEFAULT_D_MAX)
    args.pop("seed")
    tasks = statics._build_tasks(_SMALL["seed"], **args)
    calls = _counting_vec_calls(monkeypatch)
    counts = {}
    for task in tasks:
        calls.clear()
        statics._run_task(task)
        counts[task[1].__name__] = len(calls)
    # the draws hold one family; the commission curves are one call per model
    assert counts.pop("_prop_commission_argmax") == 2
    assert counts.pop("_prop_canonical") == 0
    assert counts == {name: 1 for name in counts} and len(counts) == len(VERIFY_ROWS) - 2


def test_foc_grid_searches_each_pool_once(monkeypatch):
    args = dict(_SMALL, d_max=DEFAULT_D_MAX)
    args.pop("seed")
    (task,) = [
        t for t in statics._build_tasks(_SMALL["seed"], **args) if t[1] is statics._prop_foc_grid
    ]
    pools = task[2][0]
    calls = []
    search = oracle.grid_argmax_profit

    def counting(params, regime, model, grid):
        calls.append((params, model, regime))
        return search(params, regime, model, grid)

    monkeypatch.setattr(oracle, "grid_argmax_profit", counting)
    result = statics._run_task(task)
    assert len(calls) == len(pools) == 4
    assert {(model, regime) for _, model, regime in calls} == set(pools)
    assert all(params is pools[model, regime] for params, model, regime in calls)
    assert result.checks == sum(len(pool.alpha) for pool in pools.values())


def test_run_verification_parallel_matches_serial():
    serial = run_verification(**_RUN)
    parallel = run_verification(**dict(_RUN, jobs=2))
    assert [(r.name, r.checks, r.violations) for r in serial] == [
        (r.name, r.checks, r.violations) for r in parallel
    ]


def test_injected_failure_is_surfaced():
    results = run_verification(**dict(_RUN, inject_failure=True))
    assert len(results) == len(VERIFY_ROWS) + 1
    probe = results[-1]
    assert probe.name == "injected-failure-probe"
    assert not probe.passed
    assert probe.counterexample is not None
