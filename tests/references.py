"""Reference helpers and data that only the tests use.

``ORACLE_FAMILIES`` are the shipped cost/quality families the oracle and
kernel tests cover: the draw family, a cost exponent below 2, and both
rational qualities.

``truncated_stream`` and ``truncated_stream_error_bound`` check the OLG
steady state's closed-form geometric value by summing its stationary profit
stream directly; they use only the parameter fields and the cost/quality
family values, no solver-side formula, so they stay independent of the
solver.
"""

import math
import sys

import numpy as np

from recommerce import statics
from recommerce.primitives import (
    ModelParams,
    PowerCost,
    RationalQuality,
    Regime,
    SaturatingExpQuality,
)

ORACLE_FAMILIES = [
    (PowerCost(c0=0.5, p=2.0), SaturatingExpQuality(s_bar=1.0, k=1.0)),
    (PowerCost(c0=0.5, p=1.5), SaturatingExpQuality(s_bar=1.0, k=1.0)),
    (PowerCost(c0=0.5, p=3.0), RationalQuality(k=1.0)),
    (PowerCost(c0=0.8, p=2.5), RationalQuality(k=0.5)),
]


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
