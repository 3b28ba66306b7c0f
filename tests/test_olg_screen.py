"""The OLG pool screen is a necessary condition of the pool predicate, on
random points of the draw box and on points a few floats of v_L either side
of where the valuation-ratio cap slack crosses 0 or the screen's tolerance
-1e-9."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from recommerce import olg as olg_mod
from recommerce import two_period as tp
from recommerce.primitives import ModelKind, ModelParams, Regime
from recommerce.statics import (
    DEFAULT_BOX,
    DEFAULT_D_MAX,
    _DRAW_COST,
    _DRAW_QUALITY,
    _olg_filters,
    _stack,
)

REGIMES = (Regime.THIRD_PARTY, Regime.BRANDED)
OLG = ModelKind.OLG
PREDICATE, SCREEN = _olg_filters(DEFAULT_D_MAX)


def _point(v_L, n_H, delta, alpha, beta):
    return ModelParams(
        v_H=1.0, v_L=v_L, n_H=n_H, n_L=1.0 - n_H, delta=delta, alpha=alpha, beta=beta,
        cost=_DRAW_COST, quality=_DRAW_QUALITY,
    )


def _active(params):
    return all(tp.durability_condition(params, OLG, r)[0] > 0.0 for r in REGIMES)


def _cap_slack(params):
    """The smaller ratio-cap slack of the two regimes at their D*."""

    return min(
        olg_mod.constraint_slacks_olg(
            params, tp.solve_foc(params, tp.durability_condition(params, OLG, r)[1])
        )["ratio_cap"]
        for r in REGIMES
    )


def _cap_boundary_v_L(params, target):
    """The largest v_L in the box (to within bisection) where the smaller
    cap slack is at least ``target``, if the slack crosses it there.

    Below the activity threshold, and just above it where D* is near 0, the
    cap holds; the slack falls as v_L rises."""

    def slack(v_L):
        point = _point(v_L, *_rest(params))
        return _cap_slack(point) if _active(point) else 1.0

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
    near_cap = draw(st.booleans())
    bounds = {f: getattr(box, f) for f in ("v_L", "n_H", "delta", "alpha", "beta")}
    if near_cap:
        # the cap binds inside the box mostly at a high deflator and a low
        # commission
        bounds["alpha"] = (0.85, box.alpha[1])
        bounds["beta"] = (box.beta[0], 0.3)
    params = _point(*(draw(st.floats(*b)) for b in bounds.values()))
    if near_cap:
        # a few floats either side of the cap's zero or of the screen's
        # tolerance -1e-9
        target = draw(st.sampled_from([0.0, -5e-10, -1e-9, -2e-9]))
        boundary = _cap_boundary_v_L(params, target)
        if boundary is not None:
            v_L, toward = boundary, draw(st.sampled_from([0.0, 2.0]))
            for _ in range(draw(st.integers(0, 3))):
                v_L = np.nextafter(v_L, toward)
            params = _point(float(v_L), *_rest(params))
    return params


@settings(max_examples=100, deadline=None)
@given(box_points())
def test_olg_predicate_implies_screen(params):
    passed = bool(SCREEN(_stack([params]))[0])
    if PREDICATE(params):
        assert passed
    # the screen is exact on what it checks: both margins, then both caps
    assert passed == (_active(params) and _cap_slack(params) >= -1e-9)
