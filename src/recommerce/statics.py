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
  and what the acceptance suite calls at larger scale. ``_build_tasks`` is
  its one list of properties; ``run_verification`` runs that list serially
  or on ``jobs`` worker processes and returns the results in row order.

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
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .primitives import (
    DEFAULT_D_MAX,
    _SLACK_TOL,
    BracketError,
    ModelKind,
    ModelParams,
    PowerCost,
    Regime,
    SaturatingExpQuality,
    _SCALAR_FIELDS,
    canonical_params,
    params_to_dict,
    _admissible,
    validate_params,
)
from . import olg as olg_mod
from . import oracle as oracle_mod
from . import two_period as tp

__all__ = [
    "envelope_profit_derivative",
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
    "margin_active",
    "ladder_active",
    "sample_filtered",
    "two_period_pool",
    "olg_pool",
    "foc_pool",
    "admissible_olg_pool",
    "PropertyResult",
    "run_verification",
]

_SWEEPABLE = ("alpha", "beta", "delta")
# Half-width of the centered finite differences of the value function.
_FD_STEP = 1e-5
_REGIMES = tuple(Regime)


# ======================================================================
# envelope derivatives and the value function
# ======================================================================


def envelope_profit_derivative(
    params: ModelParams, regime: Regime, wrt: str, model: ModelKind, D_star: float
) -> float:
    """d(maximized profit)/d(parameter), holding D at its optimum ``D_star``.

    Because D* satisfies the first-order condition, the derivative of the
    maximized objective equals the partial derivative of the objective at
    D*. The shutdown derivative is the same formula at D* = 0: there s(0) =
    c(0) = 0, so the deflator and commission slopes are +0.0 and the
    discount slope is that of the high-type-only profit. Elementwise when
    the parameter fields and ``D_star`` are arrays.
    """

    if wrt not in _SWEEPABLE:
        raise ValueError(f"unsupported parameter {wrt!r}; expected one of {_SWEEPABLE}")
    p = params
    s = p.quality.value(D_star)
    if model is ModelKind.TWO_PERIOD:
        c = p.cost.value(D_star)
        if wrt == "alpha":
            factor = 2.0 - 2.0 * p.beta if regime is Regime.THIRD_PARTY else 2.0 - p.beta
            return p.n_H * p.delta * factor * p.v_L * s
        if wrt == "beta":
            # 0.0 - x, not -x: a zero slope at s = 0 stays +0.0
            factor = 2.0 if regime is Regime.THIRD_PARTY else 1.0
            return 0.0 - factor * p.n_H * p.delta * p.alpha * p.v_L * s
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
            return 0.0 - (
                p.n_H * p.delta * p.alpha * p.v_L * s * (2.0 - p.delta) / (1.0 - p.delta)
            )
        return 0.0 - p.n_H * p.delta * p.alpha * p.v_L * s
    r = olg_mod.per_period_profit(p, regime, D_star)
    return p.n_H * p.alpha * (1.0 - p.beta) * p.v_L * s + r / (1.0 - p.delta) ** 2


def _solved_values(params: ModelParams, model: ModelKind, regime: Regime, d_star):
    """The maximized objective at the roots ``d_star`` (from
    :func:`_cell_durabilities`), each lane equal to the single-point
    ``tp.solve`` or ``solve_olg``: a shut-down lane carries the two-period
    shutdown profit, or the steady-state objective at its zero durability."""

    if model is ModelKind.OLG:
        return olg_mod.objective_value(params, regime, d_star)
    return np.where(
        margin_active(params, model, regime),
        tp.profit(params, regime, d_star).total,
        tp.shutdown_profit(params),
    )


def fd_profit_derivative(
    params: ModelParams, regime: Regime, wrt: str, model: ModelKind, D_star: tuple
) -> float:
    """Centered finite difference of the value function with half-width
    ``_FD_STEP``, at the pair ``D_star`` of roots solved at (value - step,
    value + step): the total derivative the envelope theorem predicts.
    Evaluation may step just outside the admissible box; all formulas extend
    continuously there. Elementwise when the parameter fields are arrays."""

    if wrt not in _SWEEPABLE:
        raise ValueError(f"unsupported parameter {wrt!r}; expected one of {_SWEEPABLE}")
    base = getattr(params, wrt)
    d_lo, d_hi = D_star
    hi = _solved_values(dataclasses.replace(params, **{wrt: base + _FD_STEP}), model, regime, d_hi)
    lo = _solved_values(dataclasses.replace(params, **{wrt: base - _FD_STEP}), model, regime, d_lo)
    return (hi - lo) / (2.0 * _FD_STEP)


def _cell_durabilities(cells, d_max: float) -> list[np.ndarray]:
    """D* of every cell (params with array fields, model, regime) from one
    :func:`two_period.solve_foc` call per cost/quality family.

    A regime of None is the social planner's root. A lane whose margin is
    not positive is 0.0. Lanes are independent, so each equals its
    single-point root bit for bit, and a failure raises the error that
    solving the cells one at a time, in order, raises.
    """

    conditions = [tp.durability_condition(p, m, r) for p, m, r in cells]
    lives = [np.broadcast_to(margin > 0.0, np.shape(slope)) for margin, slope in conditions]
    slopes = [np.asarray(slope)[live] for (_, slope), live in zip(conditions, lives)]
    d_stars = [np.zeros(live.shape) for live in lives]
    for family in dict.fromkeys((p.cost, p.quality) for p, _, _ in cells):
        ks = [k for k, (p, _, _) in enumerate(cells) if (p.cost, p.quality) == family]
        try:
            roots = tp.solve_foc(cells[ks[0]][0], np.concatenate([slopes[k] for k in ks]), d_max)
        except BracketError:
            # one cell at a time, in order, raises the first failing cell's error
            for (p, _, r), slope in zip(cells, slopes):
                if r is None:
                    tp.social_optimal_durability(p, d_max)
                else:
                    tp.solve_foc(p, slope, d_max)
            raise
        for k, part in zip(ks, np.split(roots, np.cumsum([slopes[k].size for k in ks])[:-1])):
            d_stars[k][lives[k]] = part
    return d_stars


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
    d_max: float = DEFAULT_D_MAX,
) -> ComparativeReport:
    """Solve along a parameter grid and classify the directions of D*, the
    maximized profit, and (two-period only) welfare as the parameter rises.
    The points keep the grid's order.

    Shutdown points are reported in the table but excluded from the
    monotonicity verdicts. The discount factor is sweepable for diagnostic
    purposes; no directional claim is attached to it beyond the verdict
    strings themselves.
    """

    if parameter not in _SWEEPABLE:
        raise ValueError(
            f"unsupported parameter {parameter!r}; expected one of {_SWEEPABLE}"
        )
    # each point is a lane, equal to the tp.solve or solve_olg of that point;
    # its D* and those at its finite-difference steps are one batched root
    values = np.asarray(values, dtype=float)
    lanes = dataclasses.replace(params, **{parameter: values})
    hi = dataclasses.replace(params, **{parameter: values + _FD_STEP})
    lo = dataclasses.replace(params, **{parameter: values - _FD_STEP})
    d_star, d_hi, d_lo = _cell_durabilities([(p, model, regime) for p in (lanes, hi, lo)], d_max)
    profit = _solved_values(lanes, model, regime, d_star)
    welfare = tp.welfare(lanes, d_star) if model is ModelKind.TWO_PERIOD else math.nan
    # broadcast: the two-period margin does not involve delta
    live, *columns = np.broadcast_arrays(
        margin_active(lanes, model, regime),
        values,
        d_star,
        profit,
        welfare,
        envelope_profit_derivative(lanes, regime, parameter, model, d_star),
        fd_profit_derivative(lanes, regime, parameter, model, (d_lo, d_hi)),
    )
    points = [
        SweepPoint(
            value, regime, tp.MarketMode.ACTIVE if is_live else tp.MarketMode.SHUTDOWN, *rest
        )
        for is_live, value, *rest in zip(live.tolist(), *(col.tolist() for col in columns))
    ]

    active = [pt for pt in points if pt.market_mode is tp.MarketMode.ACTIVE]
    # directions along the parameter, whichever way the grid runs; the sort
    # is stable, so equal values keep their grid order
    rising = sorted(active, key=lambda pt: pt.param_value)
    verdicts = {
        "durability": _direction([pt.D_star for pt in rising]),
        "profit": _direction([pt.profit for pt in rising]),
        "welfare": (
            _direction([pt.welfare for pt in rising])
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
    """Maximized profit under the branded regime as the commission varies.

    ``beta_star``, ``profit_at_star`` and ``argmax_index`` are 0-d for
    scalar parameter fields. With array fields the curve arrays gain a
    leading draw axis and those three hold one entry per draw.
    """

    model: ModelKind
    betas: np.ndarray
    d_stars: np.ndarray
    profits: np.ndarray
    active: np.ndarray
    beta_star: np.ndarray
    profit_at_star: np.ndarray
    argmax_index: np.ndarray


def optimal_commission(
    params: ModelParams,
    model: ModelKind = ModelKind.TWO_PERIOD,
    n_points: int = 1001,
    d_max: float = DEFAULT_D_MAX,
) -> CommissionCurve:
    """Brute-force the branded profit over a commission grid on [0, 1).

    Every lane is solved by one :func:`_cell_durabilities` call and valued
    at its root, with the grid as ``beta``, so it equals the scalar solve at
    its commission (and raises its ``BracketError`` when the root lies
    beyond ``d_max``).
    Ties in the argmax resolve to the lowest index. Elementwise when the
    parameter fields are arrays (one family): every draw's grid is solved
    in the same kernel call, and each row equals that draw's single curve.
    """

    betas = np.linspace(0.0, 1.0, n_points, endpoint=False)
    # each draw's fields along a trailing axis, against the grid as ``beta``
    fields = {f: np.asarray(getattr(params, f))[..., None] for f in _SCALAR_FIELDS}
    grid = dataclasses.replace(params, **{**fields, "beta": betas})
    active = margin_active(grid, model, Regime.BRANDED)
    [d_stars] = _cell_durabilities([(grid, model, Regime.BRANDED)], d_max)
    profits = _solved_values(grid, model, Regime.BRANDED, d_stars)

    idx = np.argmax(profits, axis=-1)
    return CommissionCurve(
        model=model,
        betas=betas,
        d_stars=d_stars,
        profits=profits,
        active=active,
        beta_star=betas[idx],
        profit_at_star=profits.max(axis=-1),
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


# Number of raw draws generated and masked at once by the pool samplers.
_DRAW_BLOCK = 4096


def _draw_block(rng: np.random.Generator, size: int) -> ModelParams:
    """``size`` raw draws from ``DEFAULT_BOX`` as one ModelParams whose
    scalar fields are arrays.

    Row i uses the i-th five uniforms of ``rng`` in the order n_H, v_L,
    delta, alpha, beta, each scaled as ``lo + (hi - lo) * u``. That is the
    arithmetic of ``rng.uniform(lo, hi)``, so the rows reproduce a sequence
    of one-at-a-time draws bit for bit.
    """

    u = rng.random((size, 5))

    def col(j: int, bounds: tuple[float, float]) -> np.ndarray:
        lo, hi = bounds
        return lo + (hi - lo) * u[:, j]

    box = DEFAULT_BOX
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

    return ModelParams(
        v_H=float(block.v_H[i]),
        v_L=float(block.v_L[i]),
        n_H=float(block.n_H[i]),
        n_L=float(block.n_L[i]),
        delta=float(block.delta[i]),
        alpha=float(block.alpha[i]),
        beta=float(block.beta[i]),
        cost=block.cost,
        quality=block.quality,
    )


def margin_active(params: ModelParams, model: ModelKind, regime: Regime) -> bool:
    """Whether the (model, regime) margin is positive; elementwise when the
    parameter fields are arrays."""

    return tp.durability_condition(params, model, regime)[0] > 0.0


def ladder_active(params: ModelParams) -> bool:
    """Two-period margins stay positive across the local ladder ranges of
    both regimes.

    The deflator ladder climbs (which only raises margins) and the commission
    ladder climbs (which lowers them), so it suffices to check the top of the
    commission ladder and that the deflator ladder stays inside [0, 1].
    Elementwise when the parameter fields are arrays.
    """

    worst = dataclasses.replace(params, beta=params.beta + _LADDER_SPAN)
    return (
        (params.alpha + _LADDER_SPAN <= 1.0)
        & margin_active(worst, ModelKind.TWO_PERIOD, Regime.THIRD_PARTY)
        & margin_active(worst, ModelKind.TWO_PERIOD, Regime.BRANDED)
    )


def _sample_lanes(
    n: int, seed_key: Sequence[int], accept: Callable[[ModelParams, int], np.ndarray]
) -> ModelParams:
    """Rejection-sample ``n`` draws, deterministically: the first ``n``
    draws that ``accept`` passes, as one ModelParams with (n,) array fields.

    Draws are generated in blocks (see :func:`_draw_block`). ``accept(block,
    need)`` maps a block to its acceptance mask, exact in draw order up to
    the ``need``-th accepted draw the pool still needs; later draws may read
    False. At most ``max(200_000, 2000 * n)`` raw draws are made.
    """

    rng = np.random.default_rng(list(seed_key))
    cap = max(200_000, 2000 * n)
    parts, got, drawn = [], 0, 0
    while drawn < cap:
        size = min(_DRAW_BLOCK, cap - drawn)
        block = _draw_block(rng, size)
        drawn += size
        parts.append(_take(block, np.flatnonzero(accept(block, n - got))[: n - got]))
        got += parts[-1].beta.size
        if got == n:
            return dataclasses.replace(
                block,
                **{f: np.concatenate([getattr(p, f) for p in parts]) for f in _SCALAR_FIELDS}
            )
    raise RuntimeError(
        f"rejection sampling exhausted {cap} attempts with {got}/{n} accepted"
    )


def sample_filtered(
    n: int,
    seed_key: Sequence[int],
    predicate: Callable[[ModelParams], bool],
    screen: Callable[[ModelParams], np.ndarray] | None = None,
) -> list[ModelParams]:
    """Rejection-sample ``n`` draws, deterministically: a draw is accepted
    when ``screen`` passes it and ``predicate`` (the row rule) accepts it.

    Draws are generated as in :func:`_sample_lanes`. ``screen``, if given,
    maps a block to a boolean mask, and ``predicate`` then runs, in draw
    order, only on the draws the screen passes, until the pool is full.
    """

    def accept(block: ModelParams, need: int) -> np.ndarray:
        rows = range(block.beta.size) if screen is None else np.flatnonzero(screen(block))
        taken = itertools.islice((i for i in rows if predicate(_draw_row(block, i))), need)
        return np.isin(np.arange(block.beta.size), list(taken))

    lanes = _sample_lanes(n, seed_key, accept)
    return [_draw_row(lanes, i) for i in range(n)]


# Lanes whose roots the two-period mask solves per batched call: about as
# many as a 50-draw pool reads.
_ROOT_CHUNK = 128


def _two_period_mask(d_max: float, chunk: int = _ROOT_CHUNK):
    """The two-period pool's acceptance mask: admissibility, the ladder and
    both margins over the block, then the five slacks at both regimes' D*,
    solved ``chunk`` lanes at a time for a draw-order prefix of the lanes
    that pass, until the pool is full.

    Each lane's root equals the scalar root bit for bit, so no verdict
    changes. A chunk with a root beyond ``d_max`` is redone one lane at a
    time, so the pool raises the row rule's :class:`BracketError` at the
    draw where the rule raises it, and not when the pool fills before it.
    """

    def accept(block: ModelParams, need: int) -> np.ndarray:
        passed = (
            _admissible(block, ModelKind.TWO_PERIOD, d_max)
            & ladder_active(block)
            & margin_active(block, ModelKind.TWO_PERIOD, Regime.THIRD_PARTY)
            & margin_active(block, ModelKind.TWO_PERIOD, Regime.BRANDED)
        )
        lanes = np.flatnonzero(passed)
        for start in range(0, lanes.size, chunk):
            part = lanes[start : start + chunk]
            if need <= 0:
                passed[lanes[start:]] = False
                break
            held = np.ones(part.size, bool)
            try:
                # as in the row rule, the branded root is solved only where
                # the third-party slacks hold
                for regime in _REGIMES:
                    cut = _take(block, part[held])
                    slacks = tp.constraint_slacks(cut, tp.optimal_durability(cut, regime, d_max))
                    held[held] = np.logical_and.reduce([v >= -_SLACK_TOL for v in slacks.values()])
            except BracketError:
                if chunk == 1:
                    raise
                held = _two_period_mask(d_max, 1)(_take(block, part), need)
            passed[part] = held
            need -= np.count_nonzero(held)
        return passed

    return accept


def _olg_filters(d_max: float):
    def ok(cand: ModelParams) -> bool:
        return validate_params(cand, ModelKind.OLG, d_max).ok and all(
            margin_active(cand, ModelKind.OLG, r)
            and olg_mod.solve_olg(cand, r, d_max=d_max).constraints_ok
            for r in _REGIMES
        )

    def screen(block: ModelParams) -> np.ndarray:
        # both margins positive, then the ratio cap at both regimes' D*: the
        # slack that margin-active draws fail. Each lane's D* and cap slack
        # equal the predicate's bit for bit, so no accepted draw is lost.
        active = margin_active(block, ModelKind.OLG, Regime.THIRD_PARTY) & margin_active(
            block, ModelKind.OLG, Regime.BRANDED
        )
        lanes = _take(block, active)
        try:
            d_stars = _cell_durabilities([(lanes, ModelKind.OLG, r) for r in _REGIMES], d_max)
        except BracketError:
            # a root beyond d_max: the predicate raises it in draw order
            return active
        third_party, branded = (
            olg_mod._ratio_cap_slack(lanes, lanes.quality.value(d)) >= -_SLACK_TOL
            for d in d_stars
        )
        active[active] = third_party & branded
        return active

    return ok, screen


def _foc_mask(model: ModelKind, regime: Regime, d_max: float):
    return lambda block, need: _admissible(block, model, d_max) & margin_active(
        block, model, regime
    )


# Each pool returns its n draws as one ModelParams with (n,) array fields:
# the form in which every property takes them.


def two_period_pool(n: int, seed: int, d_max: float = DEFAULT_D_MAX) -> ModelParams:
    """Both-active two-period draws with ladder headroom.

    Accepts a draw when the two-period admissibility checks pass, margins of
    both regimes remain positive across the local parameter ladders, and all
    five price-taking constraints hold at both regimes' optima.
    """

    return _sample_lanes(n, (seed, 1), _two_period_mask(d_max))


def olg_pool(n: int, seed: int, d_max: float = DEFAULT_D_MAX) -> ModelParams:
    """Both-active steady-state draws: margins positive in both regimes and
    the full constraint set (including the valuation-ratio cap) satisfied at
    both regimes' optimal durabilities."""

    ok, screen = _olg_filters(d_max)
    pool = sample_filtered(n, (seed, 2), ok, screen=screen)
    # an empty pool has no draw to take the family from: no raw draw is made
    return _stack(pool) if pool else _draw_block(np.random.default_rng(0), 0)


def foc_pool(
    n: int, seed: int, model: ModelKind, regime: Regime, d_max: float = DEFAULT_D_MAX
) -> ModelParams:
    """Admissible margin-active draws for one (model, regime) cell."""

    tag = 10 * (1 + list(ModelKind).index(model)) + list(Regime).index(regime)
    return _sample_lanes(n, (seed, 3, tag), _foc_mask(model, regime, d_max))


def admissible_olg_pool(n: int, seed: int, d_max: float = DEFAULT_D_MAX) -> ModelParams:
    """Admissible draws with no activity filtering at all."""

    return _sample_lanes(n, (seed, 4), lambda block, need: _admissible(block, ModelKind.OLG, d_max))


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


@dataclass
class _Tally:
    """Checks, violations and first counterexample of one property, fed its
    checks in loop order."""

    checks: int = 0
    violations: int = 0
    example: dict | None = None

    def add(self, failed, describe: Callable[..., dict]) -> None:
        """Count a block of checks. ``failed`` flags each one (a bool or an
        array, row-major in loop order); ``describe`` builds the
        counterexample from the index of the block's first failure, when no
        earlier block failed."""

        failed = np.asarray(failed, dtype=bool)
        self.checks += failed.size
        self.violations += int(np.count_nonzero(failed))
        if self.example is None and failed.any():
            self.example = describe(*map(int, np.argwhere(failed)[0]))

    def result(self, name: str, detail: str) -> PropertyResult:
        return PropertyResult(name, self.checks, self.violations, detail, self.example)


def _params_payload(params: ModelParams, **extra) -> dict:
    return {"params": params_to_dict(params), **extra}


_LADDER_PARAMS = ("alpha", "beta")


def _stack(pool: list[ModelParams]) -> ModelParams:
    """Draws as one ModelParams with (len(pool),) array fields: the form in
    which every property takes its pools.

    A pool holds one cost/quality family, as every draw does; a pool that
    mixes families raises ValueError.
    """

    family = (pool[0].cost, pool[0].quality)
    if any((p.cost, p.quality) != family for p in pool):
        raise ValueError("a draw pool must hold one cost/quality family")
    return dataclasses.replace(
        pool[0],
        **{f: np.array([getattr(p, f) for p in pool], dtype=float) for f in _SCALAR_FIELDS}
    )


def _take(params: ModelParams, idx) -> ModelParams:
    """The lanes ``idx`` (indices, a slice or a boolean mask) of a
    ModelParams with (n,) array fields."""

    return dataclasses.replace(
        params, **{f: getattr(params, f)[idx] for f in _SCALAR_FIELDS}
    )


def _prop_foc_grid(
    pools: dict[tuple[ModelKind, Regime], ModelParams],
    grid_points: int,
    d_max: float,
) -> PropertyResult:
    """Analytic optimum vs dense-grid argmax, per (model, regime) draw pool."""

    tally = _Tally()
    notes = []
    grid = oracle_mod.GridSpec(0.0, d_max, grid_points)
    cells = [(pool, model, regime) for (model, regime), pool in sorted(pools.items())]
    solved = _cell_durabilities(cells, d_max)
    for (pool, model, regime), d_stars in zip(cells, solved):
        grid_d = oracle_mod.grid_argmax_profit(pool, regime, model, grid).D_at_max
        gaps = np.abs(np.subtract(d_stars, grid_d))
        tally.add(
            gaps > grid.step,
            lambda i: _params_payload(
                _draw_row(pool, i),
                model=model.value,
                regime=regime.value,
                solver_D=float(d_stars[i]),
                grid_D=float(grid_d[i]),
            ),
        )
        notes.append(f"{model.value}/{regime.value} worst gap {max([0.0, *gaps]):.3e}")
    return tally.result(
        "foc-grid-agreement", f"grid step {grid.step:.2e}; " + "; ".join(notes)
    )


_CANONICAL_TARGETS = {
    "third_party": 0.0673,
    "branded": 0.1238,
    "social": 0.285,
}


def _prop_canonical(grid_points: int, d_max: float) -> PropertyResult:
    """Regression against the frozen worked-example durabilities, each
    re-confirmed live against the grid oracle."""

    params = canonical_params()
    grid = oracle_mod.GridSpec(0.0, d_max, grid_points)
    d_t = tp.optimal_durability(params, Regime.THIRD_PARTY, d_max=d_max)
    d_b = tp.optimal_durability(params, Regime.BRANDED, d_max=d_max)
    d_s = tp.social_optimal_durability(params, d_max=d_max)

    checks = [  # (failed, what it found)
        (abs(value - _CANONICAL_TARGETS[label]) > 1e-3, f"{label}={value!r}")
        for label, value in (("third_party", d_t), ("branded", d_b), ("social", d_s))
    ]
    for regime, value in ((Regime.THIRD_PARTY, d_t), (Regime.BRANDED, d_b)):
        hit = oracle_mod.grid_argmax_profit(params, regime, ModelKind.TWO_PERIOD, grid)
        checks.append(
            (abs(value - hit.D_at_max) > grid.step, f"oracle[{regime.value}]={hit.D_at_max!r}")
        )
    failures = [found for failed, found in checks if failed]
    tally = _Tally()
    tally.add(
        [failed for failed, _ in checks],
        lambda _: _params_payload(params, failures=failures),
    )
    return tally.result(
        "canonical-regression",
        f"D_T={d_t:.6f} D_B={d_b:.6f} D_social={d_s:.6f} "
        f"targets {_CANONICAL_TARGETS} (tol 1e-3)",
    )


def _ladder_values(pool: ModelParams, d_max: float) -> tuple[np.ndarray, np.ndarray]:
    """D* and maximized two-period profit on every ladder rung of every draw,
    as arrays indexed [regime, draw, wrt (alpha, beta), rung].

    Both regimes solve every rung of every ladder in one batched call, so
    each D* equals the scalar ``tp.optimal_durability`` exactly, and profits
    come from ``tp.profit``.
    """

    rungs = np.arange(LADDER_POINTS) * LADDER_STEP
    fields = {}
    for name in _SCALAR_FIELDS:
        climb = np.array([[name == wrt] for wrt in _LADDER_PARAMS]) * rungs
        fields[name] = getattr(pool, name)[:, None, None] + climb  # [draw, wrt, rung]
    lad = dataclasses.replace(pool, **fields)
    d_stars = _cell_durabilities([(lad, ModelKind.TWO_PERIOD, r) for r in _REGIMES], d_max)
    profits = [tp.profit(lad, regime, d).total for regime, d in zip(_REGIMES, d_stars)]
    return np.stack(d_stars), np.stack(profits)


def _prop_ladders(pool: ModelParams, d_max: float) -> PropertyResult:
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
    tally = _Tally()
    tally.add(
        ~ok_all.T,  # [draw, regime]
        lambda i, r: _params_payload(
            _draw_row(pool, i),
            regime=_REGIMES[r].value,
            alpha_D=d_stars[r, i, 0].tolist(),
            beta_D=d_stars[r, i, 1].tolist(),
        ),
    )
    return tally.result(
        "alpha-beta-ladders",
        f"{LADDER_POINTS}-point ladders, step {LADDER_STEP}, both regimes, "
        "strict monotonicity of D* and maximized profit",
    )


def _prop_durability_premium(
    pool_tp: ModelParams, pool_olg: ModelParams, d_max: float
) -> PropertyResult:
    """Branded durability strictly exceeds third-party durability."""

    tally = _Tally()
    models = ((ModelKind.TWO_PERIOD, pool_tp), (ModelKind.OLG, pool_olg))
    cells = [(pool, model, r) for model, pool in models for r in _REGIMES]
    d_stars = iter(_cell_durabilities(cells, d_max))
    for model, pool in models:
        d_t, d_b = next(d_stars), next(d_stars)
        tally.add(
            ~(d_b > d_t),
            lambda i: _params_payload(
                _draw_row(pool, i), model=model.value, D_T=float(d_t[i]), D_B=float(d_b[i])
            ),
        )
    return tally.result(
        "branded-durability-premium",
        "D*_branded > D*_third-party on every both-active draw, both models",
    )


def _prop_commission_argmax(
    pool_tp: ModelParams,
    pool_olg: ModelParams,
    n_points: int,
    d_max: float,
) -> PropertyResult:
    """The branded profit curve over the commission grid peaks at zero and
    falls strictly across its active stretch, in both models."""

    tally = _Tally()
    for model, pool in ((ModelKind.TWO_PERIOD, pool_tp), (ModelKind.OLG, pool_olg)):
        curve = optimal_commission(pool, model, n_points=n_points, d_max=d_max)
        tally.add(
            [
                not (idx == 0 and np.all(np.diff(profits[active]) < 0.0))
                for idx, profits, active in zip(
                    curve.argmax_index, curve.profits, curve.active
                )
            ],
            lambda i: _params_payload(
                _draw_row(pool, i), model=model.value, argmax_beta=float(curve.beta_star[i])
            ),
        )
    return tally.result(
        "commission-argmax-zero", f"{n_points}-point commission grid on [0,1), both models"
    )


def _prop_alpha_envelope(
    pool_tp: ModelParams, pool_olg: ModelParams, d_max: float
) -> PropertyResult:
    """Two claims per draw: the branded commission-free deflator sensitivity
    weakly dominates the third-party sensitivity at every tested commission
    (strictly for positive commissions), and envelope derivatives agree with
    centered finite differences of the re-solved value function.

    Each claim is evaluated as arrays over every draw of a pool; the counts
    and the first counterexample follow the loop order draw, then
    commission (first claim) or model, draw, regime, parameter (second).
    """

    fracs = (0.0, 0.5, 1.0)
    wrts = ("alpha", "beta")
    models = ((ModelKind.TWO_PERIOD, pool_tp), (ModelKind.OLG, pool_olg))
    tally = _Tally()

    base_b0 = dataclasses.replace(pool_tp, beta=np.zeros_like(pool_tp.beta))
    beta_t = pool_tp.beta[:, None] * fracs  # [draw, frac]
    fields = {f: getattr(pool_tp, f)[None] for f in _SCALAR_FIELDS}
    scaled = dataclasses.replace(pool_tp, **{**fields, "beta": beta_t.T})  # [frac, draw]
    stepped = {  # the finite-difference points, +step then -step
        (model, wrt): [
            dataclasses.replace(pool, **{wrt: getattr(pool, wrt) + d})
            for d in (_FD_STEP, -_FD_STEP)
        ]
        for model, pool in models
        for wrt in wrts
    }
    # every root of the property, in the order they are read below
    cells = [
        (base_b0, ModelKind.TWO_PERIOD, Regime.BRANDED),
        (scaled, ModelKind.TWO_PERIOD, Regime.THIRD_PARTY),
        *(
            (p, model, regime)
            for model, pool in models
            for regime in _REGIMES
            for p in (pool, *stepped[model, "alpha"], *stepped[model, "beta"])
        ),
    ]
    d_stars = iter(_cell_durabilities(cells, d_max))

    lhs = envelope_profit_derivative(
        base_b0, Regime.BRANDED, "alpha", ModelKind.TWO_PERIOD, next(d_stars)
    )
    rhs = envelope_profit_derivative(
        scaled, Regime.THIRD_PARTY, "alpha", ModelKind.TWO_PERIOD, next(d_stars)
    )
    lhs, rhs = lhs[:, None], rhs.T
    tally.add(
        ~np.where(beta_t > 0.0, lhs > rhs, lhs >= rhs - 1e-12),
        lambda i, j: _params_payload(
            _draw_row(pool_tp, i),
            beta_tested=float(beta_t[i, j]),
            lhs=float(lhs[i, 0]),
            rhs=float(rhs[i, j]),
        ),
    )

    for model, pool in models:
        shape = (len(pool.beta), len(_REGIMES), len(wrts))
        checked = np.zeros(shape, dtype=bool)
        env, fd = np.zeros(shape), np.zeros(shape)
        for r, regime in enumerate(_REGIMES):
            d_star = next(d_stars)
            for w, wrt in enumerate(wrts):
                env[:, r, w] = envelope_profit_derivative(pool, regime, wrt, model, d_star)
                d_hi, d_lo = next(d_stars), next(d_stars)
                fd[:, r, w] = fd_profit_derivative(pool, regime, wrt, model, (d_lo, d_hi))
                # the centered difference is a one-branch derivative
                # estimate only when both perturbed points stay on the
                # active side of the shutdown boundary
                checked[:, r, w] = np.logical_and.reduce([
                    margin_active(p, model, regime) for p in stepped[model, wrt]
                ]) & (np.abs(env[:, r, w]) > 1e-8)
        with np.errstate(divide="ignore", invalid="ignore"):
            bad = np.abs(env - fd) / np.abs(env) > 1e-4
        where = np.argwhere(checked)
        tally.add(
            bad[checked],
            lambda k: _params_payload(
                _draw_row(pool, where[k, 0]),
                model=model.value,
                regime=_REGIMES[where[k, 1]].value,
                wrt=wrts[where[k, 2]],
                envelope=float(env[tuple(where[k])]),
                fd=float(fd[tuple(where[k])]),
            ),
        )
    return tally.result(
        "alpha-sensitivity-envelope",
        "commission-free branded deflator slope dominates third-party at "
        "tested commissions; envelope vs finite difference rel err <= 1e-4",
    )


def _prop_olg_unique(pool: ModelParams, d_max: float) -> PropertyResult:
    """Exhaustive steady-state audit: one survivor, the trade pattern, at
    each regime's optimal durability. The scan posts the two-period
    second-period prices there."""

    d_stars = _cell_durabilities([(pool, ModelKind.OLG, r) for r in _REGIMES], d_max)
    tally = _Tally()
    for i in range(len(pool.beta)):
        params = _draw_row(pool, i)
        for regime, d in zip(_REGIMES, d_stars):
            scan = oracle_mod.exhaustive_steady_state_scan(params, float(d[i]))
            tally.add(
                not scan.unique_survivor_is_trade_pattern,
                lambda: _params_payload(
                    params, regime=regime.value, D=scan.D, survivors=len(scan.survivors)
                ),
            )
    return tally.result(
        "olg-steady-state-uniqueness",
        "243 candidate (state, profile) pairs audited per draw per regime",
    )


# Per model: the slacks that bind at a solved optimum (|slack| <= tol) and
# those that only need to hold (slack >= -tol).
_BINDING_PATTERN = {
    ModelKind.TWO_PERIOD: (("ic_h", "ir_l"), ("ic_l", "ir_h", "ir_h_first")),
    ModelKind.OLG: (("ic_h2", "ir_l2"), ("ic_h1", "ic_l1", "ic_l2")),
}


def _prop_constraints(
    pool_tp: ModelParams,
    pool_olg: ModelParams,
    pool_any: ModelParams,
    d_max: float,
) -> PropertyResult:
    """Binding pattern at every solved equilibrium, plus the implication
    chain and the cap equivalence at candidate prices off-equilibrium.

    Every slack is evaluated on all lanes of a pool at once; the counts and
    the first counterexample follow the loop order model, draw, regime,
    then draw, probed durability.
    """

    tol = _SLACK_TOL
    tally = _Tally()

    def lane(slacks: dict, i: int) -> dict[str, float]:
        return {name: float(v[i]) for name, v in slacks.items()}

    models = (
        (ModelKind.TWO_PERIOD, pool_tp, tp.constraint_slacks),
        (ModelKind.OLG, pool_olg, olg_mod.constraint_slacks_olg),
    )
    cells = [(pool, model, r) for model, pool, _ in models for r in _REGIMES]
    d_stars = iter(_cell_durabilities(cells, d_max))
    for model, pool, slacks_at in models:
        binding, holding = _BINDING_PATTERN[model]
        slacks = [slacks_at(pool, next(d_stars)) for _ in _REGIMES]
        ok = np.stack(
            [
                np.logical_and.reduce(
                    [np.abs(s[k]) <= tol for k in binding] + [s[k] >= -tol for k in holding]
                )
                for s in slacks
            ],
            axis=1,
        )  # [draw, regime]
        tally.add(
            ~ok,
            lambda i, r: _params_payload(
                _draw_row(pool, i),
                model=model.value,
                regime=_REGIMES[r].value,
                slacks=lane(slacks[r], i),
            ),
        )

    probe_ds = (0.05, 0.3, 1.0)
    slacks = [olg_mod.constraint_slacks_olg(pool_any, d) for d in probe_ds]
    bad = [
        # old-high indifference implies the young-high acceptance
        ((s["ic_h2"] >= -tol) & (s["ic_h1"] < -tol))
        # young-low acceptance implies the old-low acceptance
        | ((s["ic_l1"] >= -tol) & (s["ic_l2"] < -tol))
        # the valuation-ratio cap is the closed form of the young-low test
        | (
            ((s["ratio_cap"] >= -tol) != (s["ic_l1"] >= -tol))
            & (np.abs(s["ic_l1"]) > tol)
            & (np.abs(s["ratio_cap"]) > tol)
        )
        for s in slacks
    ]
    tally.add(
        np.stack(bad, axis=1),  # [draw, probe]
        lambda i, j: _params_payload(
            _draw_row(pool_any, i), D=probe_ds[j], slacks=lane(slacks[j], i)
        ),
    )
    return tally.result(
        "constraint-structure",
        "old-high self-selection and old-low participation bind to 1e-9, "
        "all other slacks weakly positive; implication chain and cap "
        "equivalence checked at off-equilibrium durabilities",
    )


def _prop_efficiency(pool: ModelParams, d_max: float) -> PropertyResult:
    """Durability and welfare orderings: third-party below branded below the
    social benchmark, pointwise in every both-active draw."""

    d_stars = _cell_durabilities(
        [(pool, ModelKind.TWO_PERIOD, r) for r in (*_REGIMES, None)], d_max
    )
    d = np.stack(d_stars, axis=1)  # [draw, (third-party, branded, social)]
    w = np.stack([tp.welfare(pool, x) for x in d_stars], axis=1)
    ordered = (d[:, 0] < d[:, 1]) & (d[:, 1] < d[:, 2])
    ordered &= (w[:, 0] < w[:, 1]) & (w[:, 1] < w[:, 2])
    tally = _Tally()
    tally.add(
        ~ordered,
        lambda i: _params_payload(
            _draw_row(pool, i), D=tuple(map(float, d[i])), welfare=tuple(map(float, w[i]))
        ),
    )
    return tally.result(
        "efficiency-ordering", "D*_T < D*_B < D_social and matching welfare ordering per draw"
    )


def _prop_injected_failure() -> PropertyResult:
    """Deliberately failing probe proving the harness reports failures."""

    return PropertyResult(
        name="injected-failure-probe",
        checks=1,
        violations=1,
        detail="self-test probe: always fails by construction",
        counterexample={"params": params_to_dict(canonical_params())},
    )


def _build_tasks(
    seed: int,
    foc_draws: int,
    grid_points: int,
    pool_draws: int,
    audit_draws: int,
    commission_points: int,
    d_max: float,
) -> list[tuple[int, Callable[..., PropertyResult], tuple]]:
    """The verify suite: each property's ``verify.csv`` row, its function
    and its picklable arguments, in the order ``--jobs`` workers take them.
    Every pool is drawn once, as lanes."""

    foc_pools = {
        (model, regime): foc_pool(foc_draws, seed, model, regime, d_max)
        for model in ModelKind
        for regime in Regime
    }
    pool_tp = two_period_pool(pool_draws, seed, d_max)
    pool_olg = olg_pool(pool_draws, seed, d_max)
    pool_any = admissible_olg_pool(audit_draws, seed, d_max)
    pool_audit = _take(pool_olg, slice(audit_draws))
    pool_tp_small = _take(pool_tp, slice(audit_draws))

    # longest first at default scale, so no long task starts after the
    # short ones
    return [
        (4, _prop_commission_argmax, (pool_tp, pool_olg, commission_points, d_max)),
        (0, _prop_foc_grid, (foc_pools, grid_points, d_max)),
        (6, _prop_olg_unique, (pool_audit, d_max)),
        (5, _prop_alpha_envelope, (pool_tp, pool_olg, d_max)),
        (7, _prop_constraints, (pool_tp_small, pool_audit, pool_any, d_max)),
        (2, _prop_ladders, (pool_tp, d_max)),
        (3, _prop_durability_premium, (pool_tp, pool_olg, d_max)),
        (8, _prop_efficiency, (pool_tp, d_max)),
        (1, _prop_canonical, (grid_points, d_max)),
    ]


def _run_task(task: tuple[int, Callable[..., PropertyResult], tuple]) -> PropertyResult:
    _, prop, args = task
    return prop(*args)


def run_verification(
    *,
    seed: int,
    foc_draws: int,
    grid_points: int,
    pool_draws: int,
    audit_draws: int,
    commission_points: int,
    d_max: float,
    jobs: int,
    inject_failure: bool,
) -> list[PropertyResult]:
    """Run the full property suite and return one result per property.

    Deterministic for a fixed seed and scales: draw pools derive from the
    seed alone, and results come back in ``verify.csv`` row order however
    many workers run the tasks. The CLI's scale settings hold the default
    of every argument. ``inject_failure`` appends a deliberately failing
    probe so callers can confirm failures are surfaced. The audits take the
    head of the draw pools, so ``audit_draws`` above ``pool_draws`` raises
    ValueError.
    """

    if audit_draws > pool_draws:
        raise ValueError(f"audit_draws ({audit_draws}) exceeds pool_draws ({pool_draws})")
    tasks = _build_tasks(
        seed, foc_draws, grid_points, pool_draws, audit_draws,
        commission_points, d_max,
    )
    if jobs > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            done = list(pool.map(_run_task, tasks))
    else:
        done = [_run_task(task) for task in tasks]
    results = [result for _, result in sorted(zip((row for row, *_ in tasks), done))]
    if inject_failure:
        results.append(_prop_injected_failure())
    return results
