"""Reference helpers and data that only the tests use.

``ORACLE_FAMILIES`` are the shipped cost/quality families the oracle and
kernel tests cover: the draw family, a cost exponent below 2, and both
rational qualities.

``truncated_stream`` and ``truncated_stream_error_bound`` check the OLG
steady state's closed-form geometric value by summing its stationary profit
stream directly; they use only the parameter fields and the cost/quality
family values, no solver-side formula, so they stay independent of the
solver.

``two_period_pool``, ``olg_pool``, ``foc_pool`` and ``admissible_olg_pool``
draw each verify pool row by row, with the seed key of the ``statics``
pool of that name: a screen that returns a mask, then a rule that decides
one draw alone and solves the roots it needs itself. The two-period, FOC
and admissible rules are the package's before those pools were accepted
by one mask per block; the OLG pool keeps its rule. The ``statics`` pools
return lanes, and each must equal the stacked reference pool
(``statics._stack``) draw for draw, field by field (``same_lanes``).
``rows`` reads a pool's draws back one at a time.

``_scalar_feasible`` and ``_scalar_olg_feasible`` decide one draw's
feasibility in one regime by a single-point solve of each model.
"""

import math
import sys

import numpy as np

from recommerce import olg, statics
from recommerce import two_period as tp
from recommerce.primitives import (
    DEFAULT_D_MAX,
    ModelKind,
    ModelParams,
    PowerCost,
    RationalQuality,
    Regime,
    SaturatingExpQuality,
    _slacks_hold,
    validate_params,
)

ORACLE_FAMILIES = [
    (PowerCost(c0=0.5, p=2.0), SaturatingExpQuality(s_bar=1.0, k=1.0)),
    (PowerCost(c0=0.5, p=1.5), SaturatingExpQuality(s_bar=1.0, k=1.0)),
    (PowerCost(c0=0.5, p=3.0), RationalQuality(k=1.0)),
    (PowerCost(c0=0.8, p=2.5), RationalQuality(k=0.5)),
]


def rows(pool: ModelParams) -> list[ModelParams]:
    """The draws of a pool with (n,) array fields, each a single point
    (``statics._draw_row``)."""

    return [statics._draw_row(pool, i) for i in range(pool.beta.size)]


def same_lanes(a: ModelParams, b: ModelParams) -> bool:
    """Whether two pools hold the same family and, field by field, the same
    shape, dtype and bytes."""

    def key(p):
        fields = [np.asarray(getattr(p, f)) for f in statics._SCALAR_FIELDS]
        return p.cost, p.quality, [(x.shape, x.dtype, x.tobytes()) for x in fields]

    return key(a) == key(b)


def sample_params(rng: np.random.Generator) -> ModelParams:
    """One raw draw from ``statics.DEFAULT_BOX`` (no admissibility or
    activity filtering)."""

    return statics._draw_row(statics._draw_block(rng, 1), 0)


def truncated_stream(
    params: ModelParams, regime: Regime, D: float, horizon: int
) -> float:
    """Sum of the stationary per-period profit over periods 1..horizon,
    discounted one period back, accumulated with compensated summation."""

    p = params
    s = p.quality.value(D)
    c = p.cost.value(D)
    if regime is Regime.THIRD_PARTY:
        r = p.n_H * (p.alpha * (1.0 - p.beta) * p.v_L * s + p.v_H * (1.0 - s) - c)
    else:
        r = p.n_H * (p.alpha * p.v_L * s + p.v_H * (1.0 - s) - c)
    return math.fsum(p.delta**t * r for t in range(1, horizon + 1))


def truncated_stream_error_bound(params: ModelParams, horizon: int) -> float:
    """Relative error bound for the truncated stream vs its closed form:
    the geometric tail plus slack for floating-point accumulation."""

    return params.delta**horizon + 64.0 * sys.float_info.epsilon


def _scalar_feasible(params: ModelParams, regime: Regime, d_max: float) -> bool:
    """Two-period margin positive and the five slacks held at a D* solved
    here, by the scalar root."""

    if not statics.margin_active(params, ModelKind.TWO_PERIOD, regime):
        return False
    d_star = tp.optimal_durability(params, regime, d_max=d_max)
    return _slacks_hold(tp.constraint_slacks(params, d_star))


def _scalar_olg_feasible(params: ModelParams, regime: Regime, d_max: float) -> bool:
    """Steady-state margin positive and every constraint satisfied at the
    D* of a single-point ``solve_olg``."""

    if not statics.margin_active(params, ModelKind.OLG, regime):
        return False
    return olg.solve_olg(params, regime, d_max=d_max).constraints_ok


def _two_period_rules(d_max: float):
    def ok(cand):
        return (
            validate_params(cand, ModelKind.TWO_PERIOD, d_max).ok
            and statics.ladder_active(cand)
            and all(_scalar_feasible(cand, r, d_max) for r in Regime)
        )

    return ok, statics.ladder_active


def _foc_rules(model: ModelKind, regime: Regime, d_max: float):
    def ok(cand):
        return validate_params(cand, model, d_max).ok and statics.margin_active(
            cand, model, regime
        )

    return ok, lambda block: statics.margin_active(block, model, regime)


def _olg_rules(d_max: float):
    return statics._olg_filters(d_max)


def _admissible_rules(d_max: float):
    def ok(cand):
        return validate_params(cand, ModelKind.OLG, d_max).ok

    return ok, None


def _sample_rows(n: int, seed_key, rule, screen) -> list[ModelParams]:
    """Rejection sampling one row at a time: ``rule`` alone decides each
    draw that the mask ``screen`` passes."""

    rng = np.random.default_rng(list(seed_key))
    cap = max(200_000, 2000 * n)
    out, drawn = [], 0
    while drawn < cap:
        size = min(statics._DRAW_BLOCK, cap - drawn)
        block = statics._draw_block(rng, size)
        drawn += size
        rows = range(size) if screen is None else np.flatnonzero(screen(block))
        for i in rows:
            cand = statics._draw_row(block, i)
            if rule(cand):
                out.append(cand)
                if len(out) == n:
                    return out
    raise RuntimeError(f"rejection sampling exhausted {cap} attempts")


def two_period_pool(n: int, seed: int, d_max: float = DEFAULT_D_MAX) -> list[ModelParams]:
    return _sample_rows(n, (seed, 1), *_two_period_rules(d_max))


def olg_pool(n: int, seed: int, d_max: float = DEFAULT_D_MAX) -> list[ModelParams]:
    return _sample_rows(n, (seed, 2), *_olg_rules(d_max))


def foc_pool(
    n: int, seed: int, model: ModelKind, regime: Regime, d_max: float = DEFAULT_D_MAX
) -> list[ModelParams]:
    tag = 10 * (1 + list(ModelKind).index(model)) + list(Regime).index(regime)
    return _sample_rows(n, (seed, 3, tag), *_foc_rules(model, regime, d_max))


def admissible_olg_pool(n: int, seed: int, d_max: float = DEFAULT_D_MAX) -> list[ModelParams]:
    return _sample_rows(n, (seed, 4), *_admissible_rules(d_max))
