import collections
import dataclasses
import enum

import numpy as np
import pytest

from recommerce import (
    DEFAULT_D_MAX,
    MarketMode,
    PowerCost,
    RationalQuality,
    Regime,
    SaturatingExpQuality,
    constraint_slacks,
    durability_condition,
    optimal_durability,
    prices,
    profit,
    shutdown_profit,
    social_optimal_durability,
    solve,
    welfare,
)
from recommerce import olg, statics
from recommerce import two_period as tp
from recommerce.primitives import BracketError, ModelKind, canonical_params
from recommerce.two_period import solve_foc
from references import ORACLE_FAMILIES, sample_params

T = Regime.THIRD_PARTY
B = Regime.BRANDED


def margin(params, regime):
    return durability_condition(params, ModelKind.TWO_PERIOD, regime)[0]


# ----------------------------------------------------------------------
# activity classification
# ----------------------------------------------------------------------


def test_canonical_margins(canonical):
    # 2*0.9*0.8*0.8 - 1 and 0.9*1.8*0.8 - 1
    assert margin(canonical, T) == pytest.approx(0.152)
    assert margin(canonical, B) == pytest.approx(0.296)
    assert solve(canonical, T).market_mode is MarketMode.ACTIVE
    assert solve(canonical, B).market_mode is MarketMode.ACTIVE


def test_margin_gap_is_commission_term(canonical):
    for beta in (0.0, 0.1, 0.35):
        p = dataclasses.replace(canonical, beta=beta)
        gap = margin(p, B) - margin(p, T)
        assert gap == pytest.approx(p.alpha * beta * p.v_L, abs=1e-15)


def test_activity_thresholds(canonical):
    # the v_L cutoffs v_H/(2 alpha (1-beta)) and v_H/(alpha (2-beta)) zero
    # the margins
    for regime, cutoff in ((T, 1.0 / (2 * 0.9 * 0.8)), (B, 1.0 / (0.9 * 1.8))):
        at_cutoff = dataclasses.replace(canonical, v_L=cutoff)
        assert margin(at_cutoff, regime) == pytest.approx(0.0, abs=1e-15)
    low = dataclasses.replace(canonical, v_L=0.4)
    assert solve(low, T).market_mode is MarketMode.SHUTDOWN
    assert solve(low, B).market_mode is MarketMode.SHUTDOWN


def test_boundary_margin_flagged_as_tie(canonical):
    # alpha*(2-beta)*v_L == v_H exactly in floats (0.5*2*1.0 == 1.0)
    edge = dataclasses.replace(canonical, alpha=0.5, beta=0.0, v_L=1.0)
    assert margin(edge, B) == 0.0
    eq = solve(edge, B)
    assert eq.market_mode is MarketMode.SHUTDOWN
    assert eq.boundary_tie


# ----------------------------------------------------------------------
# durability levels (frozen against the brute-force grid oracle)
# ----------------------------------------------------------------------


def test_canonical_durabilities(canonical):
    assert optimal_durability(canonical, T) == pytest.approx(
        0.0673129833555585, abs=1e-8
    )
    assert optimal_durability(canonical, B) == pytest.approx(
        0.123874675932431, abs=1e-8
    )
    assert social_optimal_durability(canonical) == pytest.approx(
        0.284979628183117, abs=1e-8
    )


def test_durability_ordering(canonical):
    d_t = optimal_durability(canonical, T)
    d_b = optimal_durability(canonical, B)
    d_s = social_optimal_durability(canonical)
    assert d_t < d_b < d_s


def test_branded_premium_value(canonical):
    gap = optimal_durability(canonical, B) - optimal_durability(canonical, T)
    assert gap == pytest.approx(0.0565616925768724, abs=1e-8)


def test_commission_free_regimes_coincide(canonical):
    p = dataclasses.replace(canonical, beta=0.0)
    assert optimal_durability(p, T) == optimal_durability(p, B)
    d = optimal_durability(p, T)
    assert profit(p, T, d).total == profit(p, B, d).total


def test_optimal_durability_requires_active_margin(canonical):
    low = dataclasses.replace(canonical, v_L=0.4)
    with pytest.raises(ValueError) as scalar:
        optimal_durability(low, T)
    # elementwise, the first shut-down lane raises the same error
    lanes = dataclasses.replace(canonical, v_L=np.array([0.8, 0.4, 0.3]))
    with pytest.raises(ValueError) as batched:
        optimal_durability(lanes, T)
    assert str(batched.value) == str(scalar.value)


def test_social_durability_rises_with_patience(canonical):
    impatient = dataclasses.replace(canonical, delta=0.45)
    assert social_optimal_durability(impatient) < social_optimal_durability(canonical)


def test_social_durability_vanishes_with_worthless_low_types(canonical):
    p = dataclasses.replace(canonical, v_L=1e-6)
    assert social_optimal_durability(p) < 1e-4


# bisect_increasing stops once its bracket is at most xtol = 1e-10 wide and
# returns the midpoint, so a float root lies within 1e-10 of the exact one
FOC_ROOT_TOL = 1e-10


def _mp_foc_root(mp, params, slope, lo=1e-12):
    """Root of ``c'(D) - slope * s'(D)`` by 50-digit bisection on the solver's
    bracket [lo, DEFAULT_D_MAX], from the exact values of the float parameters."""

    cost, quality = params.cost, params.quality
    with mp.workdps(50):
        c0, p, k, slope = (mp.mpf(x) for x in (cost.c0, cost.p, quality.k, slope))
        if isinstance(quality, SaturatingExpQuality):
            s_bar = mp.mpf(quality.s_bar)

            def quality_deriv(D):
                return s_bar * k * mp.exp(-k * D)

        else:

            def quality_deriv(D):
                return k / (D + k) ** 2

        def residual(D):
            return c0 * p * D ** (p - 1) - slope * quality_deriv(D)

        lo, hi = mp.mpf(lo), mp.mpf(DEFAULT_D_MAX)
        assert residual(lo) < 0 < residual(hi)
        for _ in range(200):  # 10 * 2**-200 is far below 50 digits
            mid = (lo + hi) / 2
            if residual(mid) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize(
    "quality",
    [SaturatingExpQuality(s_bar=0.9, k=1.3), RationalQuality(k=0.7)],
    ids=["saturating_exp", "rational"],
)
def test_foc_roots_match_mpmath_reference(canonical, p, quality):
    mp = pytest.importorskip("mpmath").mp
    params = dataclasses.replace(canonical, cost=PowerCost(c0=0.5, p=p), quality=quality)
    slopes = [0.01, 0.1, 0.35, 1.0, 3.0]
    lanes = solve_foc(params, np.array(slopes))
    for slope, lane in zip(slopes, lanes):
        exact = _mp_foc_root(mp, params, slope)
        scalar = solve_foc(params, slope)
        assert type(scalar) is float
        assert abs(mp.mpf(scalar) - exact) <= FOC_ROOT_TOL
        assert abs(mp.mpf(float(lane)) - exact) <= FOC_ROOT_TOL


def test_root_below_the_bracket_floor_is_solved(canonical):
    # a steep cost and a branded margin of 1e-8 put the root near 2.4e-13,
    # below the bracket's floor 1e-12, where the residual is already positive
    mp = pytest.importorskip("mpmath").mp
    params = dataclasses.replace(canonical, cost=PowerCost(c0=1e4, p=2.0))
    params = dataclasses.replace(params, v_L=(1.0 + 1e-8) / (params.alpha * (2.0 - params.beta)))
    assert margin(params, B) == pytest.approx(1e-8, rel=1e-6)
    slope = params.delta / (1.0 + params.delta) * margin(params, B)
    assert solve_foc(params, slope) == optimal_durability(params, B)
    exact = _mp_foc_root(mp, params, slope, lo=0.0)
    assert exact < 1e-12
    for root in (optimal_durability(params, B), float(solve_foc(params, np.array([slope]))[0])):
        assert abs(mp.mpf(root) - exact) <= FOC_ROOT_TOL
    assert solve(params, B).D_star == optimal_durability(params, B)


def test_nonpositive_slope_keeps_the_bracket_error(canonical):
    # the residual is positive at 0 too, so there is no root to bisect below
    with pytest.raises(BracketError, match=r"f\(1e-12\) = .* is not negative"):
        solve_foc(canonical, -0.1)


# ----------------------------------------------------------------------
# the threshold table of the batched roots
# ----------------------------------------------------------------------


@pytest.fixture()
def fresh_tables():
    """An empty table cache before and after, so that a test which patches
    how tables are built leaves none behind."""

    tp._threshold_table.cache_clear()
    yield
    tp._threshold_table.cache_clear()


def _table_slopes(thresholds):
    """Slopes at the edges of the table: signs, NaN, the infinities, the
    smallest subnormal, 1e300, and every 97th threshold with both of its
    neighbouring floats."""

    every = thresholds[::97]
    return np.concatenate(
        [
            [0.0, -0.3, np.nan, np.inf, -np.inf, 5e-324, 1e300],
            every,
            np.nextafter(every, -np.inf),
            np.nextafter(every, np.inf),
        ]
    )


def _scalar_roots(params, slopes, d_max):
    """Each slope's scalar root, or the message of its BracketError."""

    out = []
    for slope in slopes:
        try:
            out.append(solve_foc(params, float(slope), d_max))
        except BracketError as exc:
            out.append(str(exc))
    return out


def _lanes_equal_scalar_roots(params, slopes, d_max):
    """Check that the batched roots of the slopes with a scalar root equal
    those roots, and that each other slope's lane, next to a solved lane,
    raises its scalar message; return the roots and the messages."""

    scalar = _scalar_roots(params, slopes, d_max)
    solved = np.array([isinstance(r, float) for r in scalar])
    errors = []
    for slope in slopes[~solved]:
        with pytest.raises(BracketError) as exc:
            solve_foc(params, np.array([slopes[solved][0], slope]), d_max)
        errors.append(str(exc.value))
    lanes = solve_foc(params, slopes[solved], d_max)
    assert lanes.tobytes() == np.array([r for r in scalar if isinstance(r, float)]).tobytes()
    assert errors == [r for r in scalar if isinstance(r, str)]
    return lanes, errors


@pytest.mark.parametrize("d_max", [10.0, 3.0, 0.2, 40.0])
@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=lambda f: f"{f[0]}-{f[1]}")
def test_table_lanes_equal_scalar_and_zero_level_roots(
    canonical, monkeypatch, fresh_tables, family, d_max
):
    params = dataclasses.replace(canonical, cost=family[0], quality=family[1])
    thresholds = tp._threshold_table(*family, d_max)[1]
    assert thresholds.size == 2**14 - 1
    slopes = _table_slopes(thresholds)
    lanes, errors = _lanes_equal_scalar_roots(params, slopes, d_max)
    assert errors  # the slopes hold lanes without a root
    monkeypatch.setattr(tp, "_TABLE_LEVELS", 0)
    tp._threshold_table.cache_clear()
    assert tp._threshold_table(*family, d_max)[0].tolist() == [1e-12, d_max]
    zero_lanes, zero_errors = _lanes_equal_scalar_roots(params, slopes, d_max)
    assert zero_lanes.tobytes() == lanes.tobytes()
    assert zero_errors == errors


@pytest.mark.parametrize("d_max", [10.0, 3.0, 0.2, 40.0])
@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=lambda f: f"{f[0]}-{f[1]}")
def test_table_thresholds_are_exact(fresh_tables, family, d_max):
    ends, thresholds = tp._threshold_table(*family, d_max)
    # level by level, each midpoint is 0.5 * (lo + hi) of its bracket
    for level in range(14):
        step = 2 ** (14 - level)
        lo, hi = ends[:-step:step], ends[step::step]
        assert ends[step // 2 :: step].tolist() == (0.5 * (lo + hi)).tolist()
    c, s = family[0]._deriv(ends[1:-1]), family[1]._deriv(ends[1:-1])
    # the largest float T with fl(T * s) <= c, and non-decreasing
    assert np.all(np.isfinite(thresholds))
    assert np.all(thresholds * s <= c)
    assert np.all(c < np.nextafter(thresholds, np.inf) * s)
    assert np.all(np.diff(thresholds) >= 0.0)


def test_table_levels_stop_where_the_bisection_stops(canonical, fresh_tables):
    # brackets of [1e-12, 1e-7] reach the 1e-10 tolerance after 10 levels
    thresholds = tp._threshold_table(canonical.cost, canonical.quality, 1e-7)[1]
    assert thresholds.size == 2**10 - 1
    _lanes_equal_scalar_roots(canonical, _table_slopes(thresholds), 1e-7)


def _zero_level_case(params, d_max):
    ends, thresholds = tp._threshold_table(params.cost, params.quality, d_max)
    assert ends.tolist() == [1e-12, d_max] and thresholds.size == 0
    _lanes_equal_scalar_roots(params, np.geomspace(0.05, 3.0, 40), d_max)


def test_a_table_that_fails_validation_takes_the_zero_level_path(
    canonical, monkeypatch, fresh_tables
):
    monkeypatch.setattr(tp, "_thresholds_exact", lambda thresholds, c, s: False)
    _zero_level_case(canonical, 10.0)


def test_a_derivative_that_underflows_takes_the_zero_level_path(canonical, fresh_tables):
    # s'(D) = 40 exp(-40 D) is 0 beyond D = 18.6, where no threshold exists
    steep = dataclasses.replace(canonical, quality=SaturatingExpQuality(s_bar=1.0, k=40.0))
    _zero_level_case(steep, 40.0)


# ----------------------------------------------------------------------
# prices (frozen at D = 0.1238 exactly)
# ----------------------------------------------------------------------


def test_canonical_prices_branded(canonical):
    pr = prices(canonical, 0.1238)
    assert canonical.quality.value(0.1238) == pytest.approx(
        0.11644346548029783, abs=1e-15
    )
    assert pr.p2u == pytest.approx(0.08383929514581444, abs=1e-12)
    assert pr.p2n == pytest.approx(0.9506279706363537, abs=1e-12)
    assert pr.p1n == pytest.approx(1.0603642925049863, abs=1e-12)


def test_prices_at_zero_durability(canonical):
    pr = prices(canonical, 0.0)
    assert pr.p2u == 0.0
    assert pr.p2n == canonical.v_H
    assert pr.p1n == canonical.v_H


def test_new_price_between_used_and_first_period(canonical):
    for d in (0.05, 0.1238, 0.3):
        pr = prices(canonical, d)
        assert pr.p2u < pr.p2n < pr.p1n


# ----------------------------------------------------------------------
# profits
# ----------------------------------------------------------------------


def test_canonical_profits(canonical):
    d_t = optimal_durability(canonical, T)
    d_b = optimal_durability(canonical, B)
    assert profit(canonical, T, d_t).total == pytest.approx(
        0.5713802537347874, abs=1e-9
    )
    assert profit(canonical, B, d_b).total == pytest.approx(
        0.5749381281473656, abs=1e-9
    )


def test_profit_gap_identity_pointwise(canonical):
    # pi_B(D) - pi_T(D) = delta * n_H * alpha * beta * v_L * s(D) at every D
    p = canonical
    for d in np.linspace(0.0, 2.0, 41):
        gap = profit(p, B, d).total - profit(p, T, d).total
        expected = p.delta * p.n_H * p.alpha * p.beta * p.v_L * p.quality.value(d)
        assert abs(gap - expected) <= 1e-12


def test_profit_breakdown_sums(canonical):
    for regime in (T, B):
        br = profit(canonical, regime, 0.1238)
        assert br.total == pytest.approx(br.period1 + br.period2, abs=1e-15)
    assert profit(canonical, T, 0.1238).commission == 0.0
    assert profit(canonical, B, 0.1238).commission > 0.0


def test_canonical_commission_revenue(canonical):
    d_b = optimal_durability(canonical, B)
    assert profit(canonical, B, d_b).commission == pytest.approx(
        0.004529887160358386, abs=1e-9
    )


def test_profit_at_zero_equals_shutdown(canonical):
    expected = (1 + canonical.delta) * canonical.n_H * canonical.v_H
    assert profit(canonical, T, 0.0).total == pytest.approx(expected, abs=1e-15)
    assert profit(canonical, B, 0.0).total == pytest.approx(expected, abs=1e-15)
    assert shutdown_profit(canonical) == pytest.approx(0.57)


def test_shutdown_dominates_serving_high_types_alone(canonical):
    # reselling to nobody while building durability only burns cost
    p = canonical
    for d in np.linspace(0.01, 3.0, 50):
        keep_out = p.n_H * (
            p.v_H * (1 + p.delta * p.quality.value(d)) - p.cost.value(d)
        )
        assert shutdown_profit(p) > keep_out


def test_profit_total_vectorized(canonical):
    d = np.linspace(0.0, 1.0, 11)
    vals = profit(canonical, B, d).total
    assert isinstance(vals, np.ndarray)
    assert vals[0] == pytest.approx(0.57)


# ----------------------------------------------------------------------
# welfare
# ----------------------------------------------------------------------


def test_canonical_welfare_levels(canonical):
    d_t = optimal_durability(canonical, T)
    d_b = optimal_durability(canonical, B)
    d_s = social_optimal_durability(canonical)
    assert welfare(canonical, d_t) == pytest.approx(0.5827697041807802, abs=1e-8)
    assert welfare(canonical, d_b) == pytest.approx(0.5907927332086198, abs=1e-8)
    assert welfare(canonical, d_s) == pytest.approx(0.600415796218998, abs=1e-8)
    assert welfare(canonical, d_t) < welfare(canonical, d_b) < welfare(canonical, d_s)


def test_welfare_ignores_transfers(canonical):
    # commission and deflator only shift surplus, they do not create or burn it
    shifted = dataclasses.replace(canonical, beta=0.45, alpha=0.7)
    for d in (0.0, 0.1, 0.5):
        assert welfare(canonical, d) == pytest.approx(welfare(shifted, d), abs=1e-15)


def test_welfare_peaks_at_social_optimum(canonical):
    d_s = social_optimal_durability(canonical)
    grid = np.linspace(0.0, 1.0, 2001)
    vals = welfare(canonical, grid)
    assert abs(grid[int(np.argmax(vals))] - d_s) <= grid[1] - grid[0]


# ----------------------------------------------------------------------
# constraints
# ----------------------------------------------------------------------


def test_binding_pattern_at_optimum(canonical):
    for regime in (T, B):
        d = optimal_durability(canonical, regime)
        slacks = constraint_slacks(canonical, d)
        assert abs(slacks["ic_h"]) <= 1e-9
        assert slacks["ir_l"] == 0.0
        assert slacks["ic_l"] > 0.0
        assert slacks["ir_h"] > 0.0
        assert slacks["ir_h_first"] > 0.0


def test_low_type_screen_can_fail_near_valuation_ceiling(canonical):
    # with v_L close to v_H the second-period new price drops below v_L
    corner = dataclasses.replace(canonical, v_L=0.99, beta=0.3, delta=0.95)
    d = optimal_durability(corner, B)
    assert constraint_slacks(corner, d)["ic_l"] < 0.0
    assert not solve(corner, B).constraints_ok


# ----------------------------------------------------------------------
# full solve
# ----------------------------------------------------------------------


def test_solve_active_branch(canonical):
    eq = solve(canonical, B)
    assert eq.market_mode is MarketMode.ACTIVE
    assert eq.regime is B
    assert eq.D_star == pytest.approx(0.123874675932431, abs=1e-8)
    assert eq.p2u is not None
    assert eq.constraints_ok
    assert not eq.boundary_tie
    assert eq.profit_total == pytest.approx(eq.profit_period1 + eq.profit_period2)


def test_solve_shutdown_branch(canonical):
    low = dataclasses.replace(canonical, v_L=0.4)
    eq = solve(low, T)
    assert eq.market_mode is MarketMode.SHUTDOWN
    assert eq.D_star == 0.0
    assert eq.p1n == eq.p2n == low.v_H
    assert eq.p2u is None
    assert eq.slacks is None
    assert eq.profit_total == pytest.approx(0.57)
    assert eq.welfare == pytest.approx(0.57)
    assert eq.constraints_ok


def test_both_regimes_share_one_social_root(canonical, monkeypatch):
    direct = social_optimal_durability
    rng = np.random.default_rng(42)
    points = [canonical, *(sample_params(rng) for _ in range(12))]
    expected = [direct(p) for p in points]

    calls = []

    def counting(params, d_max=DEFAULT_D_MAX):
        calls.append(params)
        return direct(params, d_max)

    monkeypatch.setattr(tp, "social_optimal_durability", counting)
    tp._shared_social_durability.cache_clear()
    for i, params in enumerate(points):
        rc = statics.regime_comparison(params)
        assert calls == points[: i + 1]
        assert [eq.D_social for eq in rc.two_period.values()] == [expected[i]] * 2


# shut-down points of DEFAULT_BOX, in both models and both regimes: a
# beta = 0 corner, the same with a two-period margin of exactly zero (a
# tie), and a high-commission, high-discount point. At each, the two
# periods' profits sum to a total one bit off the shutdown profit.
SHUT_POINTS = {
    "beta0": dict(v_L=0.5, alpha=0.6, beta=0.0, delta=0.6, n_H=0.1),
    "tie": dict(v_L=0.5, alpha=1.0, beta=0.0, delta=0.6, n_H=0.1),
    "high-beta": dict(v_L=0.7, alpha=0.7, beta=0.6, delta=0.95, n_H=0.35),
}


def shut_point(name):
    kw = SHUT_POINTS[name]
    return dataclasses.replace(canonical_params(), n_L=1.0 - kw["n_H"], **kw)


# every field of the shut-down records, as the solvers wrote them when they
# typed the record out by hand; margins per (third-party, branded)
SHUT_RECORDS = {
    (ModelKind.TWO_PERIOD, "beta0"): dict(
        D_social=0.1598076901073745, profit_total=0.16000000000000003,
        profit_period1=0.1, profit_period2=0.06, welfare=0.16000000000000003,
        shutdown_profit=0.16000000000000003, boundary_tie=False, margin=(-0.4, -0.4),
    ),
    (ModelKind.TWO_PERIOD, "tie"): dict(
        D_social=0.1598076901073745, profit_total=0.16000000000000003,
        profit_period1=0.1, profit_period2=0.06, welfare=0.16000000000000003,
        shutdown_profit=0.16000000000000003, boundary_tie=True, margin=(0.0, 0.0),
    ),
    (ModelKind.TWO_PERIOD, "high-beta"): dict(
        D_social=0.2623350738222786, profit_total=0.6825, profit_period1=0.35,
        profit_period2=0.33249999999999996, welfare=0.6825, shutdown_profit=0.6825,
        boundary_tie=False, margin=(-0.6080000000000001, -0.31400000000000017),
    ),
    (ModelKind.OLG, "beta0"): dict(
        per_period_profit=0.1, discounted_stream=0.15, objective_value=0.25,
        d0_alternatives={"price_low_everyone": 2.5, "price_high_replacers": 0.5},
        margin=(-0.5800000000000001, -0.5800000000000001),
    ),
    (ModelKind.OLG, "tie"): dict(
        per_period_profit=0.1, discounted_stream=0.15, objective_value=0.25,
        d0_alternatives={"price_low_everyone": 2.5, "price_high_replacers": 0.5},
        margin=(-0.30000000000000004, -0.30000000000000004),
    ),
    (ModelKind.OLG, "high-beta"): dict(
        per_period_profit=0.35, discounted_stream=6.649999999999993,
        objective_value=6.999999999999993,
        d0_alternatives={
            "price_low_everyone": 27.999999999999975,
            "price_high_replacers": 13.999999999999988,
        },
        margin=(-0.7942, -0.5002),
    ),
}
SHUT_COMMON = {
    ModelKind.TWO_PERIOD: dict(
        market_mode="shutdown", D_star=0.0, p1n=1.0, p2n=1.0, p2u=None,
        commission_revenue=0.0, slacks=None, constraints_ok=True,
    ),
    ModelKind.OLG: dict(
        market_mode="shutdown", state="high-only", profile=None, D_star=0.0, p_n=1.0,
        p_u=None, entry_price=1.0, per_period_commission=0.0, used_supply=0.0,
        used_demand=0.0, rationed_fraction=0.0, include_entry_premium=True, slacks=None,
        constraints_ok=True, no_active_steady_state=False, best_feasible_D=0.0,
        boundary_tie=False,
    ),
}


@pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
@pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
@pytest.mark.parametrize("name", list(SHUT_POINTS))
def test_shutdown_records_are_pinned_bit_for_bit(name, model, regime):
    # repr tells every bit of a float apart, the sign of a zero included
    solver = solve if model is ModelKind.TWO_PERIOD else olg.solve_olg
    sol = solver(shut_point(name), regime)
    want = {**SHUT_COMMON[model], **SHUT_RECORDS[model, name], "regime": regime.value}
    want["margin"] = want["margin"][list(Regime).index(regime)]
    got = {f.name: getattr(sol, f.name) for f in dataclasses.fields(sol)}
    assert got.keys() == want.keys()
    for field, value in got.items():
        value = value.value if isinstance(value, enum.Enum) else value
        assert repr(value) == repr(want[field]), field


@pytest.mark.parametrize("quality", [SaturatingExpQuality(1.0, 1.0), RationalQuality(0.5)])
def test_solves_evaluate_each_family_once_after_the_root(
    canonical, olg_feasible, quality, monkeypatch
):
    # the roots use c'(D) and s'(D) only; everything after them is built
    # from one c(D) and one s(D), but for the s(D) of the active steady
    # state's constraint_slacks_olg call; a shut-down market calls neither
    calls = collections.Counter()
    for cls in (PowerCost, type(quality)):

        def counted(self, D, real=cls.value):
            calls[type(self).__name__] += 1
            return real(self, D)

        monkeypatch.setattr(cls, "value", counted)
    name = type(quality).__name__
    for solver, point, mode, c_evals, s_evals in [
        (solve, canonical, MarketMode.ACTIVE, 1, 1),
        (solve, shut_point("beta0"), MarketMode.SHUTDOWN, 0, 0),
        (olg.solve_olg, canonical, MarketMode.SHUTDOWN, 0, 0),
        (olg.solve_olg, olg_feasible, MarketMode.ACTIVE, 1, 2),
    ]:
        point = dataclasses.replace(point, quality=quality)
        for regime in Regime:
            calls.clear()
            sol = solver(point, regime)
            assert sol.market_mode is mode
            assert getattr(sol, "no_active_steady_state", False) is False
            assert calls == collections.Counter({"PowerCost": c_evals, name: s_evals})


def test_social_bracket_error_propagates_from_solve(canonical):
    # cost so flat that the social root lies beyond d_max, in either regime
    flat = dataclasses.replace(
        canonical, cost=PowerCost(c0=1e-6, p=2.0), quality=RationalQuality(k=1.0)
    )
    for regime in (T, B, T):
        with pytest.raises(BracketError, match="is not positive"):
            solve(flat, regime)
    with pytest.raises(BracketError):
        statics.regime_comparison(flat)
