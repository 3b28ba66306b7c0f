"""The two-period pool mask solves both regimes' D* of each draw that
passes its screen, equal bit for bit to the scalar ``optimal_durability``,
and gives the verdict of the rule that solves them one row at a time. On
random points of the draw box and on points a few floats of v_L either
side of where the smaller two-period slack crosses the slack tolerance
-1e-9."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from recommerce import two_period as tp
from recommerce.primitives import ModelKind, ModelParams, Regime
from recommerce.statics import (
    DEFAULT_BOX,
    DEFAULT_D_MAX,
    _DRAW_COST,
    _DRAW_QUALITY,
    _stack,
    _two_period_mask,
    ladder_active,
)
from references import _two_period_rules

REGIMES = (Regime.THIRD_PARTY, Regime.BRANDED)
TP = ModelKind.TWO_PERIOD
MASK = _two_period_mask(DEFAULT_D_MAX)
SCALAR_RULE = _two_period_rules(DEFAULT_D_MAX)[0]


def _point(v_L, n_H, delta, alpha, beta):
    return ModelParams(
        v_H=1.0, v_L=v_L, n_H=n_H, n_L=1.0 - n_H, delta=delta, alpha=alpha, beta=beta,
        cost=_DRAW_COST, quality=_DRAW_QUALITY,
    )


def _screened(params):
    """What the screen checks: the ladder and both margins."""

    return bool(ladder_active(params)) and all(
        tp.durability_condition(params, TP, r)[0] > 0.0 for r in REGIMES
    )


def _min_slack(params):
    """The smallest slack of both regimes at their scalar D*."""

    return min(
        min(tp.constraint_slacks(params, tp.optimal_durability(params, r)).values())
        for r in REGIMES
    )


def _slack_boundary_v_L(params, target):
    """The largest v_L in the box (to within bisection) where the smallest
    slack is at least ``target``, if it crosses it there.

    Below the screen's threshold the slack counts as held; above it, the
    low type's slack falls as v_L rises."""

    def slack(v_L):
        point = _point(v_L, *_rest(params))
        return _min_slack(point) if _screened(point) else 1.0

    lo, hi = DEFAULT_BOX.v_L
    if slack(lo) < target or slack(hi) >= target:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if slack(mid) >= target:
            lo = mid
        else:
            hi = mid
    return lo


def _rest(params):
    return params.n_H, params.delta, params.alpha, params.beta


@st.composite
def box_points(draw):
    box = DEFAULT_BOX
    bounds = {f: getattr(box, f) for f in ("v_L", "n_H", "delta", "alpha", "beta")}
    params = _point(*(draw(st.floats(*b)) for b in bounds.values()))
    if draw(st.booleans()):
        # a few floats either side of the slack tolerance -1e-9; the binding
        # slacks sit at 0, so the crossing is the low type's
        target = draw(st.sampled_from([-5e-10, -1e-9, -2e-9]))
        boundary = _slack_boundary_v_L(params, target)
        if boundary is not None:
            v_L, toward = boundary, draw(st.sampled_from([0.0, 2.0]))
            for _ in range(draw(st.integers(0, 3))):
                v_L = np.nextafter(v_L, toward)
            params = _point(float(v_L), *_rest(params))
    return params


@settings(max_examples=150, deadline=None)
@given(box_points())
def test_screen_roots_and_rule_equal_the_scalar_rule(params):
    lane = _stack([params])
    assert bool(MASK(lane, 1)[0]) == SCALAR_RULE(params)
    if not _screened(params):
        assert not SCALAR_RULE(params)
        return
    # the batched roots the mask solves
    for regime in REGIMES:
        d = tp.optimal_durability(lane, regime)
        assert float(d[0]).hex() == tp.optimal_durability(params, regime).hex()


def test_boundary_points_reach_both_verdicts():
    # the near-boundary points above straddle the tolerance: both verdicts
    # occur a float of v_L apart
    base = _point(0.9, 0.3, 0.9, 0.95, 0.1)
    boundary = _slack_boundary_v_L(base, -1e-9)
    assert boundary is not None
    below = _point(boundary, *_rest(base))
    above = _point(float(np.nextafter(boundary, 2.0)), *_rest(base))
    verdicts = []
    for point in (below, above):
        assert _screened(point)
        verdicts.append(bool(MASK(_stack([point]), 1)[0]))
        assert verdicts[-1] == SCALAR_RULE(point)
    assert verdicts == [True, False]
