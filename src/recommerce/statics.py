"""Comparative statics, regime comparison, and the property-verification engine.

Three layers:

* closed-form envelope derivatives of maximized profit with respect to the
  deflator, the commission, and the discount factor, next to centered
  finite differences of the re-solved value function;
* sweep and comparison drivers that produce plot-ready tables (parameter
  sweeps, the commission curve, side-by-side regime reports);
* a seeded property harness that re-derives the package's headline claims on
  random parameter draws and cross-checks every optimum against the
  brute-force oracle. The harness is what the CLI ``verify`` subcommand runs
  and what the acceptance suite calls at larger scale.

Draws are uniform over a documented box (high valuation normalized to 1,
low valuation in [0.5, 1), deflator in [0.6, 1], commission in [0, 0.6],
discount in [0.5, 0.95], high share in [0.1, 0.6] with shares summing to 1),
with rejection filters onto the regions each property speaks about:
margin-active per (model, regime), both-regime active with all price-taking
constraints satisfied at the optimum, and ladder headroom for the local
monotonicity probes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .primitives import (
    DEFAULT_D_MAX,
    ModelKind,
    ModelParams,
    PowerCost,
    Regime,
    SaturatingExpQuality,
    _SCALAR_FIELDS,
    validate_params,
)
from . import olg as olg_mod
from . import oracle as oracle_mod
from . import two_period as tp

__all__ = [
    "envelope_profit_derivative",
    "value_function",
    "fd_profit_derivative",
    "SweepPoint",
    "ComparativeReport",
    "monotonicity_sweep",
    "CommissionCurve",
    "optimal_commission",
    "RegimeComparison",
    "regime_comparison",
    "ParamBox",
    "DEFAULT_BOX",
    "sample_params",
    "margin_active",
    "equilibrium_feasible",
    "ladder_active",
    "sample_filtered",
    "two_period_pool",
    "olg_pool",
    "foc_pool",
    "admissible_olg_pool",
    "PropertyResult",
    "PROPERTY_NAMES",
    "run_verification",
]

_SWEEPABLE = ("alpha", "beta", "delta")


# ======================================================================
# envelope derivatives and the value function
# ======================================================================


def envelope_profit_derivative(
    params: ModelParams,
    regime: Regime,
    wrt: str,
    model: ModelKind = ModelKind.TWO_PERIOD,
    D_star: float | None = None,
    d_max: float = DEFAULT_D_MAX,
) -> float:
    """d(maximized profit)/d(parameter), holding D at its optimum.

    Because D* satisfies the first-order condition, the derivative of the
    maximized objective equals the partial derivative of the objective at
    D*. In the shutdown region the maximized value is the high-type-only
    profit, which does not involve the deflator or the commission.
    Elementwise when the parameter fields are arrays (one family); D* then
    comes from one batched root per call. Scalar parameters give a float.
    """

    if wrt not in _SWEEPABLE:
        raise ValueError(f"unsupported parameter {wrt!r}; expected one of {_SWEEPABLE}")
    p = params

    if D_star is None:
        active = envelope_profit_derivative(
            p, regime, wrt, model, _durabilities(p, model, regime, d_max), d_max
        )
        return _plain(
            np.where(
                margin_active(p, model, regime), active, _shutdown_derivative(p, wrt, model)
            )
        )

    s = p.quality.value(D_star)
    if model is ModelKind.TWO_PERIOD:
        c = p.cost.value(D_star)
        if wrt == "alpha":
            factor = 2.0 - 2.0 * p.beta if regime is Regime.THIRD_PARTY else 2.0 - p.beta
            return p.n_H * p.delta * factor * p.v_L * s
        if wrt == "beta":
            factor = 2.0 if regime is Regime.THIRD_PARTY else 1.0
            return -factor * p.n_H * p.delta * p.alpha * p.v_L * s
        take = tp.replacement_margin(p, regime, s, c)
        return p.n_H * p.alpha * (1.0 - p.beta) * p.v_L * s + p.n_H * take

    if wrt == "alpha":
        if regime is Regime.THIRD_PARTY:
            return p.n_H * p.delta * (1.0 - p.beta) * p.v_L * s * (2.0 - p.delta) / (
                1.0 - p.delta
            )
        return p.n_H * p.delta * p.v_L * s * ((1.0 - p.beta) + 1.0 / (1.0 - p.delta))
    if wrt == "beta":
        if regime is Regime.THIRD_PARTY:
            return (
                -p.n_H * p.delta * p.alpha * p.v_L * s * (2.0 - p.delta) / (1.0 - p.delta)
            )
        return -p.n_H * p.delta * p.alpha * p.v_L * s
    r = olg_mod.per_period_profit(p, regime, D_star)
    return p.n_H * p.alpha * (1.0 - p.beta) * p.v_L * s + r / (1.0 - p.delta) ** 2


def _shutdown_derivative(params: ModelParams, wrt: str, model: ModelKind):
    """Derivative of the shutdown profit (high types only, at ``v_H``)."""

    if wrt != "delta":
        return 0.0
    p = params
    if model is ModelKind.TWO_PERIOD:
        return p.n_H * p.v_H
    return p.n_H * p.v_H / (1.0 - p.delta) ** 2


def value_function(
    params: ModelParams,
    regime: Regime,
    model: ModelKind = ModelKind.TWO_PERIOD,
    d_max: float = DEFAULT_D_MAX,
) -> float:
    """Maximized objective as a function of the primitives (re-solves D*).

    Elementwise when the parameter fields are arrays (one family), with one
    batched root per call; each lane equals the single-point value. Scalar
    parameters give a float.
    """

    d_star = _durabilities(params, model, regime, d_max)
    if model is ModelKind.OLG:
        return _plain(olg_mod.objective_value(params, regime, d_star))
    return _plain(
        np.where(
            margin_active(params, model, regime),
            tp.profit(params, regime, d_star).total,
            tp.shutdown_profit(params),
        )
    )


def fd_profit_derivative(
    params: ModelParams,
    regime: Regime,
    wrt: str,
    model: ModelKind = ModelKind.TWO_PERIOD,
    h: float = 1e-5,
    d_max: float = DEFAULT_D_MAX,
) -> float:
    """Centered finite difference of the value function, re-solving D* at
    each perturbed parameter value (the total derivative the envelope
    theorem predicts). Evaluation may step just outside the admissible box;
    all formulas extend continuously there. Elementwise when the parameter
    fields are arrays."""

    if wrt not in _SWEEPABLE:
        raise ValueError(f"unsupported parameter {wrt!r}; expected one of {_SWEEPABLE}")
    base = getattr(params, wrt)
    hi = dataclasses.replace(params, **{wrt: base + h})
    lo = dataclasses.replace(params, **{wrt: base - h})
    return (
        value_function(hi, regime, model, d_max) - value_function(lo, regime, model, d_max)
    ) / (2.0 * h)


def _plain(value):
    """A 0-d result (scalar parameters) as a plain float; arrays unchanged."""

    return float(value) if np.ndim(value) == 0 else value


def _margin_slope(params: ModelParams, model: ModelKind, regime: Regime):
    """Margin ``M`` and durability-condition slope ``k*M`` of a (model,
    regime): ``k = delta/(1+delta)`` in the two-period model, 1 in the
    steady state. Elementwise when the parameter fields are arrays."""

    if model is ModelKind.TWO_PERIOD:
        margin = tp.activity_margin(params, regime)
        return margin, tp.foc_slope(params, margin)
    margin = olg_mod.olg_margin(params, regime)
    return margin, margin


def _durabilities(params: ModelParams, model: ModelKind, regime: Regime, d_max: float):
    """D* of a (model, regime) through :func:`two_period.solve_foc`, or the
    shutdown durability 0.0 where the margin is not positive.

    Scalar parameters give a float; array fields (one cost/quality family)
    give one lane each from one kernel call. Either way the value equals
    the ``D_star`` of the single-point ``tp.solve`` or ``solve_olg`` bit
    for bit.
    """

    margin, slope = _margin_slope(params, model, regime)
    if np.ndim(slope) == 0:
        return tp.solve_foc(params, slope, d_max) if margin > 0.0 else 0.0
    live = np.broadcast_to(margin > 0.0, np.shape(slope))
    d_star = np.zeros(np.shape(slope))
    d_star[live] = tp.solve_foc(params, slope[live], d_max)
    return d_star


# ======================================================================
# sweeps
# ======================================================================


@dataclass(frozen=True)
class SweepPoint:
    param_value: float
    regime: Regime
    market_mode: tp.MarketMode
    D_star: float
    profit: float
    welfare: float
    envelope_deriv: float
    fd_deriv: float


@dataclass(frozen=True)
class ComparativeReport:
    """One regime's sweep along one parameter, with monotonicity verdicts."""

    parameter: str
    model: ModelKind
    regime: Regime
    points: tuple[SweepPoint, ...]
    verdicts: dict[str, str]
    shutdown_points: int


def _direction(values: Sequence[float]) -> str:
    if len(values) < 2:
        return "not-applicable"
    diffs = np.diff(np.asarray(values, dtype=float))
    if np.all(diffs > 0.0):
        return "strictly-increasing"
    if np.all(diffs < 0.0):
        return "strictly-decreasing"
    if np.all(diffs == 0.0):
        return "constant"
    return "non-monotone"


def monotonicity_sweep(
    params: ModelParams,
    regime: Regime,
    parameter: str,
    values: Sequence[float],
    model: ModelKind = ModelKind.TWO_PERIOD,
    fd_step: float = 1e-5,
    d_max: float = DEFAULT_D_MAX,
) -> ComparativeReport:
    """Solve along a parameter grid and classify the directions of D*, the
    maximized profit, and (two-period only) welfare.

    Shutdown points are reported in the table but excluded from the
    monotonicity verdicts. The discount factor is sweepable for diagnostic
    purposes; no directional claim is attached to it beyond the verdict
    strings themselves.
    """

    if parameter not in _SWEEPABLE:
        raise ValueError(
            f"unsupported parameter {parameter!r}; expected one of {_SWEEPABLE}"
        )
    points: list[SweepPoint] = []
    for value in values:
        pt = dataclasses.replace(params, **{parameter: float(value)})
        if model is ModelKind.TWO_PERIOD:
            eq = tp.solve(pt, regime, d_max=d_max)
            mode, d_star, profit = eq.market_mode, eq.D_star, eq.profit_total
            wel = eq.welfare
        else:
            sol = olg_mod.solve_olg(pt, regime, d_max=d_max)
            mode, d_star, profit = sol.market_mode, sol.D_star, sol.objective_value
            wel = math.nan
        env = envelope_profit_derivative(pt, regime, parameter, model, d_max=d_max)
        fd = fd_profit_derivative(pt, regime, parameter, model, h=fd_step, d_max=d_max)
        points.append(
            SweepPoint(
                param_value=float(value),
                regime=regime,
                market_mode=mode,
                D_star=d_star,
                profit=profit,
                welfare=wel,
                envelope_deriv=env,
                fd_deriv=fd,
            )
        )

    active = [pt for pt in points if pt.market_mode is tp.MarketMode.ACTIVE]
    verdicts = {
        "durability": _direction([pt.D_star for pt in active]),
        "profit": _direction([pt.profit for pt in active]),
        "welfare": (
            _direction([pt.welfare for pt in active])
            if model is ModelKind.TWO_PERIOD
            else "not-applicable"
        ),
    }
    return ComparativeReport(
        parameter=parameter,
        model=model,
        regime=regime,
        points=tuple(points),
        verdicts=verdicts,
        shutdown_points=len(points) - len(active),
    )


# ======================================================================
# commission curve
# ======================================================================


@dataclass(frozen=True)
class CommissionCurve:
    """Maximized profit under the branded regime as the commission varies."""

    model: ModelKind
    betas: np.ndarray
    d_stars: np.ndarray
    profits: np.ndarray
    active: np.ndarray
    beta_star: float
    profit_at_star: float
    argmax_index: int


def optimal_commission(
    params: ModelParams,
    model: ModelKind = ModelKind.TWO_PERIOD,
    n_points: int = 1001,
    d_max: float = DEFAULT_D_MAX,
) -> CommissionCurve:
    """Brute-force the branded profit over a commission grid on [0, 1).

    Lanes with a positive activity margin are solved by the batched
    durability kernel and valued by the single-point objective, both
    evaluated with the grid as ``beta``, so a lane equals the scalar solve
    at its commission (and raises its ``BracketError`` when the root lies
    beyond ``d_max``); the rest carry the commission-free shutdown value.
    Ties in the argmax resolve to the lowest index.
    """

    betas = np.linspace(0.0, 1.0, n_points, endpoint=False)
    grid = dataclasses.replace(params, beta=betas)
    active = margin_active(grid, model, Regime.BRANDED)
    d_stars = _durabilities(grid, model, Regime.BRANDED, d_max)
    if model is ModelKind.TWO_PERIOD:
        value = tp.profit(grid, Regime.BRANDED, d_stars).total
        shutdown = tp.shutdown_profit(params)
    else:
        value = olg_mod.objective_value(grid, Regime.BRANDED, d_stars)
        shutdown = params.n_H * params.v_H / (1.0 - params.delta)
    profits = np.where(active, value, shutdown)

    idx = int(np.argmax(profits))
    return CommissionCurve(
        model=model,
        betas=betas,
        d_stars=d_stars,
        profits=profits,
        active=active,
        beta_star=float(betas[idx]),
        profit_at_star=float(profits[idx]),
        argmax_index=idx,
    )


# ======================================================================
# regime comparison
# ======================================================================


@dataclass(frozen=True)
class RegimeComparison:
    """Side-by-side solve of both regimes in both models, with deltas."""

    two_period: dict[Regime, tp.TwoPeriodEquilibrium]
    olg: dict[Regime, olg_mod.SteadyStateSolution]
    both_active_two_period: bool
    both_active_olg: bool
    d_durability: float
    d_profit: float
    d_welfare: float
    gap_third_party: float
    gap_branded: float
    olg_d_durability: float
    olg_d_objective: float


def regime_comparison(
    params: ModelParams, d_max: float = DEFAULT_D_MAX
) -> RegimeComparison:
    """Branded-minus-third-party deltas plus per-regime sustainability gaps.

    When a regime is shut down its D* is zero and the deltas are still
    reported (one-sided comparison against the shutdown values).
    """

    eq_t = tp.solve(params, Regime.THIRD_PARTY, d_max=d_max)
    eq_b = tp.solve(params, Regime.BRANDED, d_max=d_max)
    ss_t = olg_mod.solve_olg(params, Regime.THIRD_PARTY, d_max=d_max)
    ss_b = olg_mod.solve_olg(params, Regime.BRANDED, d_max=d_max)
    return RegimeComparison(
        two_period={Regime.THIRD_PARTY: eq_t, Regime.BRANDED: eq_b},
        olg={Regime.THIRD_PARTY: ss_t, Regime.BRANDED: ss_b},
        both_active_two_period=(
            eq_t.market_mode is tp.MarketMode.ACTIVE
            and eq_b.market_mode is tp.MarketMode.ACTIVE
        ),
        both_active_olg=(
            ss_t.market_mode is tp.MarketMode.ACTIVE
            and ss_b.market_mode is tp.MarketMode.ACTIVE
        ),
        d_durability=eq_b.D_star - eq_t.D_star,
        d_profit=eq_b.profit_total - eq_t.profit_total,
        d_welfare=eq_b.welfare - eq_t.welfare,
        gap_third_party=eq_t.D_social - eq_t.D_star,
        gap_branded=eq_b.D_social - eq_b.D_star,
        olg_d_durability=ss_b.D_star - ss_t.D_star,
        olg_d_objective=ss_b.objective_value - ss_t.objective_value,
    )


# ======================================================================
# random draws
# ======================================================================


@dataclass(frozen=True)
class ParamBox:
    """Uniform sampling box for property draws (v_H normalized to 1)."""

    v_L: tuple[float, float] = (0.5, 1.0)
    alpha: tuple[float, float] = (0.6, 1.0)
    beta: tuple[float, float] = (0.0, 0.6)
    delta: tuple[float, float] = (0.5, 0.95)
    n_H: tuple[float, float] = (0.1, 0.6)


DEFAULT_BOX = ParamBox()

_DRAW_COST = PowerCost(c0=0.5, p=2.0)
_DRAW_QUALITY = SaturatingExpQuality(s_bar=1.0, k=1.0)

LADDER_STEP = 0.005
LADDER_POINTS = 5
_LADDER_SPAN = LADDER_STEP * (LADDER_POINTS - 1)


# Number of raw draws generated and screened at once by sample_filtered.
_DRAW_BLOCK = 4096


def _draw_block(rng: np.random.Generator, size: int, box: ParamBox) -> ModelParams:
    """``size`` raw draws as one ModelParams whose scalar fields are arrays.

    Row i uses the i-th five uniforms of ``rng`` in the order n_H, v_L,
    delta, alpha, beta, each scaled as ``lo + (hi - lo) * u``. That is the
    arithmetic of ``rng.uniform(lo, hi)``, so the rows reproduce a sequence
    of one-at-a-time draws bit for bit.
    """

    u = rng.random((size, 5))

    def col(j: int, bounds: tuple[float, float]) -> np.ndarray:
        lo, hi = bounds
        return lo + (hi - lo) * u[:, j]

    n_h = col(0, box.n_H)
    return ModelParams(
        v_H=np.ones(size),
        v_L=col(1, box.v_L),
        n_H=n_h,
        n_L=1.0 - n_h,
        delta=col(2, box.delta),
        alpha=col(3, box.alpha),
        beta=col(4, box.beta),
        cost=_DRAW_COST,
        quality=_DRAW_QUALITY,
    )


def _draw_row(block: ModelParams, i) -> ModelParams:
    """Row ``i`` (an index, or a tuple of them) of a ModelParams with array
    fields, as a single point with plain float fields."""

    return dataclasses.replace(
        block, **{f: float(getattr(block, f)[i]) for f in _SCALAR_FIELDS}
    )


def sample_params(rng: np.random.Generator, box: ParamBox = DEFAULT_BOX) -> ModelParams:
    """One raw draw from the box (no admissibility or activity filtering)."""

    return _draw_row(_draw_block(rng, 1, box), 0)


def margin_active(params: ModelParams, model: ModelKind, regime: Regime) -> bool:
    """Whether the (model, regime) margin is positive; elementwise when the
    parameter fields are arrays."""

    return _margin_slope(params, model, regime)[0] > 0.0


def equilibrium_feasible(
    params: ModelParams,
    model: ModelKind,
    regime: Regime,
    d_max: float = DEFAULT_D_MAX,
    slack_tol: float = 1e-9,
) -> bool:
    """Margin positive and every price-taking constraint satisfied at D*."""

    if not margin_active(params, model, regime):
        return False
    if model is ModelKind.TWO_PERIOD:
        d_star = tp.optimal_durability(params, regime, d_max=d_max)
        slacks = tp.constraint_slacks(params, d_star)
    else:
        d_star = olg_mod.solve_olg(params, regime, d_max=d_max).D_star
        slacks = olg_mod.constraint_slacks_olg(params, d_star)
    return all(v >= -slack_tol for v in slacks.values())


def ladder_active(params: ModelParams, model: ModelKind = ModelKind.TWO_PERIOD) -> bool:
    """Margins stay positive across the local ladder ranges of both regimes.

    The deflator ladder climbs (which only raises margins) and the commission
    ladder climbs (which lowers them), so it suffices to check the top of the
    commission ladder and that the deflator ladder stays inside [0, 1].
    Elementwise when the parameter fields are arrays.
    """

    worst = dataclasses.replace(params, beta=params.beta + _LADDER_SPAN)
    return (
        (params.alpha + _LADDER_SPAN <= 1.0)
        & margin_active(worst, model, Regime.THIRD_PARTY)
        & margin_active(worst, model, Regime.BRANDED)
    )


Predicate = Callable[[ModelParams], bool]
Screen = Callable[[ModelParams], np.ndarray]


def sample_filtered(
    n: int,
    seed_key: Sequence[int],
    predicate: Predicate,
    box: ParamBox = DEFAULT_BOX,
    max_attempts: int | None = None,
    screen: Screen | None = None,
) -> list[ModelParams]:
    """Rejection-sample ``n`` draws satisfying ``predicate``, deterministically.

    Draws are generated in blocks (see :func:`_draw_block`). ``screen``, if
    given, maps a block to a boolean mask and must be a necessary condition:
    true wherever ``predicate`` is. ``predicate`` then runs, in draw order,
    only on the draws the screen passes, so the pool is the same with or
    without the screen. ``max_attempts`` caps the raw draws.
    """

    rng = np.random.default_rng(list(seed_key))
    cap = max_attempts if max_attempts is not None else max(200_000, 2000 * n)
    out: list[ModelParams] = []
    drawn = 0
    while drawn < cap:
        size = min(_DRAW_BLOCK, cap - drawn)
        block = _draw_block(rng, size, box)
        drawn += size
        rows = range(size) if screen is None else np.flatnonzero(screen(block))
        for i in rows:
            cand = _draw_row(block, i)
            if predicate(cand):
                out.append(cand)
                if len(out) == n:
                    return out
    raise RuntimeError(
        f"rejection sampling exhausted {cap} attempts with {len(out)}/{n} accepted"
    )


def _two_period_filters(d_max: float) -> tuple[Predicate, Screen]:
    def ok(cand: ModelParams) -> bool:
        if not validate_params(cand, ModelKind.TWO_PERIOD).ok:
            return False
        if not ladder_active(cand, ModelKind.TWO_PERIOD):
            return False
        return all(
            equilibrium_feasible(cand, ModelKind.TWO_PERIOD, regime, d_max)
            for regime in (Regime.THIRD_PARTY, Regime.BRANDED)
        )

    return ok, lambda block: ladder_active(block, ModelKind.TWO_PERIOD)


def _olg_filters(d_max: float) -> tuple[Predicate, Screen]:
    def ok(cand: ModelParams) -> bool:
        if not validate_params(cand, ModelKind.OLG).ok:
            return False
        return all(
            equilibrium_feasible(cand, ModelKind.OLG, regime, d_max)
            for regime in (Regime.THIRD_PARTY, Regime.BRANDED)
        )

    def screen(block: ModelParams) -> np.ndarray:
        return margin_active(block, ModelKind.OLG, Regime.THIRD_PARTY) & margin_active(
            block, ModelKind.OLG, Regime.BRANDED
        )

    return ok, screen


def _foc_filters(model: ModelKind, regime: Regime) -> tuple[Predicate, Screen]:
    def ok(cand: ModelParams) -> bool:
        return validate_params(cand, model).ok and margin_active(cand, model, regime)

    return ok, lambda block: margin_active(block, model, regime)


def two_period_pool(n: int, seed: int, d_max: float = DEFAULT_D_MAX) -> list[ModelParams]:
    """Both-active two-period draws with ladder headroom.

    Accepts a draw when the two-period admissibility checks pass, margins of
    both regimes remain positive across the local parameter ladders, and all
    five price-taking constraints hold at both regimes' optima.
    """

    ok, screen = _two_period_filters(d_max)
    return sample_filtered(n, (seed, 1), ok, screen=screen)


def olg_pool(n: int, seed: int, d_max: float = DEFAULT_D_MAX) -> list[ModelParams]:
    """Both-active steady-state draws: margins positive in both regimes and
    the full constraint set (including the valuation-ratio cap) satisfied at
    both regimes' optimal durabilities."""

    ok, screen = _olg_filters(d_max)
    return sample_filtered(n, (seed, 2), ok, screen=screen)


def foc_pool(
    n: int, seed: int, model: ModelKind, regime: Regime
) -> list[ModelParams]:
    """Admissible margin-active draws for one (model, regime) cell."""

    tag = 10 * (1 + list(ModelKind).index(model)) + list(Regime).index(regime)
    ok, screen = _foc_filters(model, regime)
    return sample_filtered(n, (seed, 3, tag), ok, screen=screen)


def admissible_olg_pool(n: int, seed: int) -> list[ModelParams]:
    """Admissible draws with no activity filtering at all."""

    def ok(cand: ModelParams) -> bool:
        return validate_params(cand, ModelKind.OLG).ok

    return sample_filtered(n, (seed, 4), ok)


# ======================================================================
# property harness
# ======================================================================


@dataclass(frozen=True)
class PropertyResult:
    name: str
    checks: int
    violations: int
    detail: str
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _params_payload(params: ModelParams, **extra) -> dict:
    from .primitives import params_to_dict

    payload = {"params": params_to_dict(params)}
    payload.update(extra)
    return payload


def _prop_foc_grid(
    pools: dict[tuple[ModelKind, Regime], list[ModelParams]],
    grid_points: int,
    d_max: float,
) -> PropertyResult:
    """Analytic optimum vs dense-grid argmax, per (model, regime) draw pool."""

    checks = violations = 0
    example = None
    notes = []
    grid = oracle_mod.GridSpec(0.0, d_max, grid_points)
    for (model, regime), pool in sorted(
        pools.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
    ):
        worst = 0.0
        d_stars = ()
        if pool:
            (d_stars,) = _by_family(
                pool, lambda stacked: (_optimal_durabilities(stacked, model, regime, d_max),)
            )
        for params, d_star in zip(pool, map(float, d_stars)):
            hit = oracle_mod.grid_argmax_profit(params, regime, model, grid)
            gap = abs(d_star - hit.D_at_max)
            worst = max(worst, gap)
            checks += 1
            if gap > grid.step:
                violations += 1
                if example is None:
                    example = _params_payload(
                        params,
                        model=model.value,
                        regime=regime.value,
                        solver_D=d_star,
                        grid_D=hit.D_at_max,
                    )
        notes.append(f"{model.value}/{regime.value} worst gap {worst:.3e}")
    return PropertyResult(
        name="foc-grid-agreement",
        checks=checks,
        violations=violations,
        detail=f"grid step {grid.step:.2e}; " + "; ".join(notes),
        counterexample=example,
    )


_CANONICAL_TARGETS = {
    "third_party": 0.0673,
    "branded": 0.1238,
    "social": 0.285,
}


def _prop_canonical(grid_points: int, d_max: float) -> PropertyResult:
    """Regression against the frozen worked-example durabilities, each
    re-confirmed live against the grid oracle."""

    from .primitives import canonical_params

    params = canonical_params()
    grid = oracle_mod.GridSpec(0.0, d_max, grid_points)
    d_t = tp.optimal_durability(params, Regime.THIRD_PARTY, d_max=d_max)
    d_b = tp.optimal_durability(params, Regime.BRANDED, d_max=d_max)
    d_s = tp.social_optimal_durability(params, d_max=d_max)

    checks = violations = 0
    failures = []
    for label, value in (("third_party", d_t), ("branded", d_b), ("social", d_s)):
        checks += 1
        if abs(value - _CANONICAL_TARGETS[label]) > 1e-3:
            violations += 1
            failures.append(f"{label}={value!r}")
    for regime, value in ((Regime.THIRD_PARTY, d_t), (Regime.BRANDED, d_b)):
        hit = oracle_mod.grid_argmax_profit(params, regime, ModelKind.TWO_PERIOD, grid)
        checks += 1
        if abs(value - hit.D_at_max) > grid.step:
            violations += 1
            failures.append(f"oracle[{regime.value}]={hit.D_at_max!r}")
    example = None
    if violations:
        example = _params_payload(params, failures=failures)
    return PropertyResult(
        name="canonical-regression",
        checks=checks,
        violations=violations,
        detail=(
            f"D_T={d_t:.6f} D_B={d_b:.6f} D_social={d_s:.6f} "
            f"targets {_CANONICAL_TARGETS} (tol 1e-3)"
        ),
        counterexample=example,
    )


_REGIMES = (Regime.THIRD_PARTY, Regime.BRANDED)
_LADDER_PARAMS = ("alpha", "beta")


def _stack(pool: list[ModelParams]) -> ModelParams:
    """Draws as one ModelParams with (len(pool),) array fields and the
    cost/quality family of the first draw."""

    return dataclasses.replace(
        pool[0],
        **{f: np.array([getattr(p, f) for p in pool], dtype=float) for f in _SCALAR_FIELDS}
    )


def _take(params: ModelParams, idx: np.ndarray) -> ModelParams:
    """The lanes ``idx`` of a ModelParams with (n,) array fields."""

    return dataclasses.replace(
        params, **{f: getattr(params, f)[idx] for f in _SCALAR_FIELDS}
    )


def _by_family(
    pool: list[ModelParams], values: Callable[[ModelParams], tuple[np.ndarray, ...]]
) -> tuple[np.ndarray, ...]:
    """Apply ``values`` to the draws of each cost/quality family, stacked by
    :func:`_stack`, and return its arrays (draw axis first) in pool order."""

    groups: dict[tuple, list[int]] = {}
    for i, params in enumerate(pool):
        groups.setdefault((params.cost, params.quality), []).append(i)
    out: list[np.ndarray] = []
    for idx in groups.values():
        parts = values(_stack([pool[i] for i in idx]))
        if not out:
            out = [np.empty((len(pool),) + a.shape[1:], dtype=a.dtype) for a in parts]
        for whole, part in zip(out, parts):
            whole[idx] = part
    return tuple(out)


def _optimal_durabilities(
    params: ModelParams, model: ModelKind, regime: Regime, d_max: float
) -> np.ndarray:
    """The single-point optimum (``tp.optimal_durability`` or the ``D_star``
    of ``solve_olg``) on every lane of a ModelParams with array fields and
    one family (see :func:`_durabilities`).

    Like ``tp.optimal_durability`` the two-period model refuses a shut-down
    market: the first lane with no positive margin is handed to it, to
    raise the same error.
    """

    if model is ModelKind.TWO_PERIOD:
        shut = np.argwhere(~margin_active(params, model, regime))
        if shut.size:
            tp.optimal_durability(_draw_row(params, tuple(shut[0])), regime, d_max=d_max)
    return _durabilities(params, model, regime, d_max)


def _ladder_group(
    stacked: ModelParams, d_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """Ladder D* and profits, indexed [draw, regime, wrt, rung], for stacked
    draws that share one family.

    Each regime solves every rung of every ladder in one batched call, so
    each D* equals the scalar ``tp.optimal_durability`` exactly, and profits
    come from ``tp.profit``.
    """

    rungs = np.arange(LADDER_POINTS) * LADDER_STEP
    fields = {}
    for name in _SCALAR_FIELDS:
        climb = np.array([[name == wrt] for wrt in _LADDER_PARAMS]) * rungs
        fields[name] = getattr(stacked, name)[:, None, None] + climb  # [draw, wrt, rung]
    lad = dataclasses.replace(stacked, **fields)
    d_stars = [_optimal_durabilities(lad, ModelKind.TWO_PERIOD, r, d_max) for r in _REGIMES]
    profits = [tp.profit(lad, regime, d).total for regime, d in zip(_REGIMES, d_stars)]
    return np.stack(d_stars, axis=1), np.stack(profits, axis=1)


def _ladder_values(
    pool: list[ModelParams], d_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """D* and maximized two-period profit on every ladder rung of every draw,
    as arrays indexed [regime, draw, wrt (alpha, beta), rung]."""

    d_stars, profits = _by_family(pool, lambda stacked: _ladder_group(stacked, d_max))
    return np.moveaxis(d_stars, 0, 1), np.moveaxis(profits, 0, 1)


def _prop_ladders(pool: list[ModelParams], d_max: float) -> PropertyResult:
    """Local monotonicity: D* and maximized profit strictly rise along a
    deflator ladder and strictly fall along a commission ladder."""

    d_stars, profits = _ladder_values(pool, d_max)

    def rising(x: np.ndarray) -> np.ndarray:
        return np.all(x[..., :-1] < x[..., 1:], axis=-1)

    ok_all = (
        rising(d_stars[:, :, 0])
        & rising(profits[:, :, 0])
        & rising(-d_stars[:, :, 1])
        & rising(-profits[:, :, 1])
    )
    checks = violations = 0
    example = None
    for i, params in enumerate(pool):
        for r, regime in enumerate(_REGIMES):
            checks += 1
            if not ok_all[r, i]:
                violations += 1
                if example is None:
                    example = _params_payload(
                        params,
                        regime=regime.value,
                        alpha_D=d_stars[r, i, 0].tolist(),
                        beta_D=d_stars[r, i, 1].tolist(),
                    )
    return PropertyResult(
        name="alpha-beta-ladders",
        checks=checks,
        violations=violations,
        detail=(
            f"{LADDER_POINTS}-point ladders, step {LADDER_STEP}, both regimes, "
            "strict monotonicity of D* and maximized profit"
        ),
        counterexample=example,
    )


def _prop_durability_premium(
    pool_tp: list[ModelParams], pool_olg: list[ModelParams], d_max: float
) -> PropertyResult:
    """Branded durability strictly exceeds third-party durability."""

    checks = violations = 0
    example = None
    for model, pool in ((ModelKind.TWO_PERIOD, pool_tp), (ModelKind.OLG, pool_olg)):
        if not pool:
            continue
        d_t, d_b = _by_family(
            pool,
            lambda stacked: tuple(
                _optimal_durabilities(stacked, model, r, d_max) for r in _REGIMES
            ),
        )
        bad = np.flatnonzero(~(d_b > d_t))
        checks += len(pool)
        violations += bad.size
        if example is None and bad.size:
            i = bad[0]
            example = _params_payload(
                pool[i], model=model.value, D_T=float(d_t[i]), D_B=float(d_b[i])
            )
    return PropertyResult(
        name="branded-durability-premium",
        checks=checks,
        violations=violations,
        detail="D*_branded > D*_third-party on every both-active draw, both models",
        counterexample=example,
    )


def _prop_commission_argmax(
    pool_tp: list[ModelParams],
    pool_olg: list[ModelParams],
    n_points: int,
    d_max: float,
) -> PropertyResult:
    """The branded profit curve over the commission grid peaks at zero and
    falls strictly across its active stretch, in both models."""

    checks = violations = 0
    example = None
    for model, pool in ((ModelKind.TWO_PERIOD, pool_tp), (ModelKind.OLG, pool_olg)):
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


def _prop_alpha_envelope(
    pool_tp: list[ModelParams], pool_olg: list[ModelParams], d_max: float
) -> PropertyResult:
    """Two claims per draw: the branded commission-free deflator sensitivity
    weakly dominates the third-party sensitivity at every tested commission
    (strictly for positive commissions), and envelope derivatives agree with
    centered finite differences of the re-solved value function.

    Each claim is evaluated as arrays over every draw of a family; the
    counts and the first counterexample follow the loop order draw, then
    commission (first claim) or model, draw, regime, parameter (second).
    """

    fracs = (0.0, 0.5, 1.0)
    h = 1e-5
    wrts = ("alpha", "beta")
    checks = violations = 0
    example = None

    def dominance(stacked: ModelParams) -> tuple[np.ndarray, ...]:
        base_b0 = dataclasses.replace(stacked, beta=np.zeros_like(stacked.beta))
        lhs = envelope_profit_derivative(base_b0, Regime.BRANDED, "alpha")
        beta_t = stacked.beta[:, None] * fracs  # [draw, frac]
        rhs = np.stack(
            [
                envelope_profit_derivative(
                    dataclasses.replace(stacked, beta=b), Regime.THIRD_PARTY, "alpha"
                )
                for b in beta_t.T
            ],
            axis=1,
        )
        return lhs, beta_t, rhs

    if pool_tp:
        lhs, beta_t, rhs = _by_family(pool_tp, dominance)
        lhs = lhs[:, None]
        bad = ~np.where(beta_t > 0.0, lhs > rhs, lhs >= rhs - 1e-12)
        checks += bad.size
        violations += int(np.count_nonzero(bad))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            example = _params_payload(
                pool_tp[i],
                beta_tested=float(beta_t[i, j]),
                lhs=float(lhs[i, 0]),
                rhs=float(rhs[i, j]),
            )

    def agreement(stacked: ModelParams, model: ModelKind) -> tuple[np.ndarray, ...]:
        shape = (len(stacked.alpha), len(_REGIMES), len(wrts))
        checked = np.zeros(shape, dtype=bool)
        env, fd = np.zeros(shape), np.zeros(shape)
        for r, regime in enumerate(_REGIMES):
            for w, wrt in enumerate(wrts):
                # the centered difference is a one-branch derivative
                # estimate only when both perturbed points stay on the
                # active side of the shutdown boundary
                base = getattr(stacked, wrt)
                interior = np.flatnonzero(
                    np.logical_and.reduce([
                        margin_active(
                            dataclasses.replace(stacked, **{wrt: base + d}),
                            model,
                            regime,
                        )
                        for d in (-h, h)
                    ])
                )
                e = envelope_profit_derivative(
                    _take(stacked, interior), regime, wrt, model, d_max=d_max
                )
                big = np.abs(e) > 1e-8
                lanes = interior[big]
                checked[lanes, r, w] = True
                env[lanes, r, w] = e[big]
                fd[lanes, r, w] = fd_profit_derivative(
                    _take(stacked, lanes), regime, wrt, model, h=h, d_max=d_max
                )
        return checked, env, fd

    for model, pool in ((ModelKind.TWO_PERIOD, pool_tp), (ModelKind.OLG, pool_olg)):
        if not pool:
            continue
        checked, env, fd = _by_family(pool, lambda stacked: agreement(stacked, model))
        with np.errstate(divide="ignore", invalid="ignore"):
            bad = checked & (np.abs(env - fd) / np.abs(env) > 1e-4)
        checks += int(np.count_nonzero(checked))
        violations += int(np.count_nonzero(bad))
        if example is None and bad.any():
            i, r, w = np.argwhere(bad)[0]
            example = _params_payload(
                pool[i],
                model=model.value,
                regime=_REGIMES[r].value,
                wrt=wrts[w],
                envelope=float(env[i, r, w]),
                fd=float(fd[i, r, w]),
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


def _prop_olg_unique(pool: list[ModelParams], d_max: float) -> PropertyResult:
    """Exhaustive steady-state audit: one survivor, the trade pattern, with
    prices matching the two-period second-period formulas to 1e-12."""

    checks = violations = 0
    example = None
    for params in pool:
        for regime in (Regime.THIRD_PARTY, Regime.BRANDED):
            sol = olg_mod.solve_olg(params, regime, d_max=d_max)
            scan = oracle_mod.exhaustive_steady_state_scan(params, sol.D_star)
            pr = tp.prices(params, sol.D_star)
            checks += 1
            ok = (
                scan.unique_survivor_is_trade_pattern
                and abs(scan.p_n - pr.p2n) <= 1e-12
                and abs(scan.p_u - pr.p2u) <= 1e-12
            )
            if not ok:
                violations += 1
                if example is None:
                    example = _params_payload(
                        params,
                        regime=regime.value,
                        D=sol.D_star,
                        survivors=len(scan.survivors),
                    )
    return PropertyResult(
        name="olg-steady-state-uniqueness",
        checks=checks,
        violations=violations,
        detail="243 candidate (state, profile) pairs audited per draw per regime",
        counterexample=example,
    )


def _prop_constraints(
    pool_tp: list[ModelParams],
    pool_olg: list[ModelParams],
    pool_any: list[ModelParams],
    d_max: float,
) -> PropertyResult:
    """Binding pattern at every solved equilibrium, plus the implication
    chain and the cap equivalence at candidate prices off-equilibrium."""

    tol = 1e-9
    checks = violations = 0
    example = None

    def fail(params: ModelParams, **extra) -> None:
        nonlocal violations, example
        violations += 1
        if example is None:
            example = _params_payload(params, **extra)

    for params in pool_tp:
        for regime in (Regime.THIRD_PARTY, Regime.BRANDED):
            d_star = tp.optimal_durability(params, regime, d_max=d_max)
            slacks = tp.constraint_slacks(params, d_star)
            checks += 1
            ok = (
                abs(slacks["ic_h"]) <= tol
                and abs(slacks["ir_l"]) <= tol
                and slacks["ic_l"] >= -tol
                and slacks["ir_h"] >= -tol
                and slacks["ir_h_first"] >= -tol
            )
            if not ok:
                fail(params, model="two-period", regime=regime.value, slacks=slacks)

    for params in pool_olg:
        for regime in (Regime.THIRD_PARTY, Regime.BRANDED):
            d_star = olg_mod.solve_olg(params, regime, d_max=d_max).D_star
            slacks = olg_mod.constraint_slacks_olg(params, d_star)
            checks += 1
            ok = (
                abs(slacks["ic_h2"]) <= tol
                and abs(slacks["ir_l2"]) <= tol
                and slacks["ic_h1"] >= -tol
                and slacks["ic_l1"] >= -tol
                and slacks["ic_l2"] >= -tol
            )
            if not ok:
                fail(params, model="olg", regime=regime.value, slacks=slacks)

    probe_ds = (0.05, 0.3, 1.0)
    for params in pool_any:
        for d in probe_ds:
            slacks = olg_mod.constraint_slacks_olg(params, d)
            checks += 1
            ok = True
            # old-high indifference implies the young-high acceptance
            if slacks["ic_h2"] >= -tol and slacks["ic_h1"] < -tol:
                ok = False
            # young-low acceptance implies the old-low acceptance
            if slacks["ic_l1"] >= -tol and slacks["ic_l2"] < -tol:
                ok = False
            # the valuation-ratio cap is the closed form of the young-low test
            agree = (slacks["ratio_cap"] >= -tol) == (slacks["ic_l1"] >= -tol)
            if not agree and abs(slacks["ic_l1"]) > tol and abs(slacks["ratio_cap"]) > tol:
                ok = False
            if not ok:
                fail(params, D=d, slacks=slacks)
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


def _prop_efficiency(pool: list[ModelParams], d_max: float) -> PropertyResult:
    """Durability and welfare orderings: third-party below branded below the
    social benchmark, pointwise in every both-active draw."""

    def values(stacked: ModelParams) -> tuple[np.ndarray, ...]:
        d_stars = [
            _optimal_durabilities(stacked, ModelKind.TWO_PERIOD, r, d_max) for r in _REGIMES
        ]
        d_stars.append(tp.social_optimal_durability(stacked, d_max))
        d = np.stack(d_stars, axis=1)  # [draw, (third-party, branded, social)]
        w = np.stack([tp.welfare(stacked, x) for x in d_stars], axis=1)
        return d, w

    checks = violations = 0
    example = None
    if pool:
        d, w = _by_family(pool, values)
        ordered = (d[:, 0] < d[:, 1]) & (d[:, 1] < d[:, 2])
        ordered &= (w[:, 0] < w[:, 1]) & (w[:, 1] < w[:, 2])
        bad = np.flatnonzero(~ordered)
        checks, violations = len(pool), bad.size
        if bad.size:
            i = bad[0]
            example = _params_payload(
                pool[i], D=tuple(map(float, d[i])), welfare=tuple(map(float, w[i]))
            )
    return PropertyResult(
        name="efficiency-ordering",
        checks=checks,
        violations=violations,
        detail="D*_T < D*_B < D_social and matching welfare ordering per draw",
        counterexample=example,
    )


def _prop_injected_failure() -> PropertyResult:
    """Deliberately failing probe proving the harness reports failures."""

    from .primitives import canonical_params, params_to_dict

    return PropertyResult(
        name="injected-failure-probe",
        checks=1,
        violations=1,
        detail="self-test probe: always fails by construction",
        counterexample={"params": params_to_dict(canonical_params())},
    )


PROPERTY_NAMES = (
    "foc-grid-agreement",
    "canonical-regression",
    "alpha-beta-ladders",
    "branded-durability-premium",
    "commission-argmax-zero",
    "alpha-sensitivity-envelope",
    "olg-steady-state-uniqueness",
    "constraint-structure",
    "efficiency-ordering",
)


_PROPERTY_DISPATCH: dict[str, Callable[..., PropertyResult]] = {
    "foc-grid-agreement": _prop_foc_grid,
    "canonical-regression": _prop_canonical,
    "alpha-beta-ladders": _prop_ladders,
    "branded-durability-premium": _prop_durability_premium,
    "commission-argmax-zero": _prop_commission_argmax,
    "alpha-sensitivity-envelope": _prop_alpha_envelope,
    "olg-steady-state-uniqueness": _prop_olg_unique,
    "constraint-structure": _prop_constraints,
    "efficiency-ordering": _prop_efficiency,
}


def _build_tasks(
    seed: int,
    foc_draws: int,
    grid_points: int,
    pool_draws: int,
    audit_draws: int,
    commission_points: int,
    d_max: float,
) -> list[tuple[str, tuple]]:
    """Draw every pool once and bind each property to picklable arguments."""

    foc_pools = {
        (model, regime): foc_pool(foc_draws, seed, model, regime)
        for model in ModelKind
        for regime in Regime
    }
    pool_tp = two_period_pool(pool_draws, seed, d_max)
    pool_olg = olg_pool(pool_draws, seed, d_max)
    pool_audit = pool_olg[:audit_draws]
    pool_any = admissible_olg_pool(audit_draws, seed)
    pool_tp_small = pool_tp[:audit_draws]

    return [
        ("foc-grid-agreement", (foc_pools, grid_points, d_max)),
        ("canonical-regression", (grid_points, d_max)),
        ("alpha-beta-ladders", (pool_tp, d_max)),
        ("branded-durability-premium", (pool_tp, pool_olg, d_max)),
        ("commission-argmax-zero", (pool_tp, pool_olg, commission_points, d_max)),
        ("alpha-sensitivity-envelope", (pool_tp, pool_olg, d_max)),
        ("olg-steady-state-uniqueness", (pool_audit, d_max)),
        ("constraint-structure", (pool_tp_small, pool_audit, pool_any, d_max)),
        ("efficiency-ordering", (pool_tp, d_max)),
    ]


def _run_task(task: tuple[str, tuple]) -> PropertyResult:
    name, args = task
    return _PROPERTY_DISPATCH[name](*args)


def run_verification(
    seed: int = 42,
    foc_draws: int = 200,
    grid_points: int = 100_000,
    pool_draws: int = 200,
    audit_draws: int = 50,
    commission_points: int = 1001,
    d_max: float = DEFAULT_D_MAX,
    jobs: int = 1,
    inject_failure: bool = False,
) -> list[PropertyResult]:
    """Run the full property suite and return one result per property.

    Deterministic for a fixed seed and scales: draw pools derive from the
    seed alone, and results are assembled in the fixed property order no
    matter how many workers run. ``inject_failure`` appends a deliberately
    failing probe so callers can confirm failures are surfaced.
    """

    tasks = _build_tasks(
        seed, foc_draws, grid_points, pool_draws, audit_draws,
        commission_points, d_max,
    )
    if jobs > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(task) for task in tasks]
    if inject_failure:
        results.append(_prop_injected_failure())
    return results
