"""Two-period market for a durable good with a resale stage.

A seller chooses durability ``D`` and prices once-and-for-all. High-valuation
customers buy new in period 1, resell in period 2, and buy new again;
low-valuation customers buy the resold units. Two regimes differ only in who
collects the commission ``beta`` on used sales: an outside marketplace
(third-party) or the seller itself (branded).

The durability first-order condition equates marginal production cost with a
margin-weighted marginal resale quality, ``c'(D*) = k * M * s'(D*)``, with
``k = delta/(1+delta)`` here and ``M`` per (model, regime) from the one table
:func:`durability_condition`. The condition uses the derivative ``s'(D)``; a
transcription that places ``s(D)`` itself on the right-hand side does not
stationarize the profit objective and is deliberately not implemented. The
social benchmark replaces ``M`` with ``v_L``.

When the relevant margin is not strictly positive the seller shuts the
low types out: zero durability, both prices at ``v_H``, and profit
``(1+delta)*n_H*v_H``. A margin of exactly zero is classified as shutdown
and flagged as a tie.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .primitives import (
    DEFAULT_D_MAX,
    _as_array,
    _slacks_hold,
    BracketError,
    ModelKind,
    ModelParams,
    Regime,
    bisect_increasing,
    bisect_increasing_vec,
)

__all__ = [
    "MarketMode",
    "Prices",
    "ProfitBreakdown",
    "TwoPeriodEquilibrium",
    "durability_condition",
    "foc_residual",
    "solve_foc",
    "social_optimal_durability",
    "optimal_durability",
    "prices",
    "replacement_margin",
    "profit",
    "welfare",
    "shutdown_profit",
    "constraint_slacks",
    "solve",
]


class MarketMode(str, Enum):
    ACTIVE = "active-pre-owned"
    SHUTDOWN = "shutdown"


def durability_condition(params: ModelParams, model: ModelKind, regime: Regime | None):
    """Margin ``M`` and slope ``k*M`` of the durability condition
    ``c'(D) = k*M*s'(D)`` of a (model, regime).

    ``k = delta/(1+delta)`` in the two-period model and 1 in the steady
    state. The market operates iff ``M > 0``; the branded margin exceeds
    the third-party one by ``alpha*beta*v_L`` in both models. A regime of
    None is the social planner, whose margin is ``v_L``; it is a two-period
    row only. Elementwise when the parameter fields are arrays.
    """

    p = params
    if model is ModelKind.TWO_PERIOD:
        if regime is None:
            margin = p.v_L
        elif regime is Regime.THIRD_PARTY:
            margin = 2.0 * p.alpha * (1.0 - p.beta) * p.v_L - p.v_H
        else:
            margin = p.alpha * (2.0 - p.beta) * p.v_L - p.v_H
        return margin, p.delta / (1.0 + p.delta) * margin
    if regime is None:
        raise ValueError("the social planner's durability condition is a two-period one")
    if regime is Regime.THIRD_PARTY:
        margin = (2.0 - p.delta) * p.alpha * (1.0 - p.beta) * p.v_L - p.v_H
    else:
        margin = p.alpha * (2.0 - p.beta - p.delta * (1.0 - p.beta)) * p.v_L - p.v_H
    return margin, margin


def foc_residual(params: ModelParams, slope):
    """The durability condition ``c'(D) = slope * s'(D)`` as an increasing
    residual ``D -> c'(D) - slope * s'(D)``.

    Shared by both models: ``slope`` is the ``k*M`` of
    :func:`durability_condition`. With an array ``slope`` the residual maps
    an array of lanes elementwise. It takes durabilities in [0, d_max] and
    does not check them: it calls the family kernels, not the guarded
    methods, because :func:`solve_foc` checks ``d_max`` once per root.
    """

    cost, quality = params.cost, params.quality

    def residual(D):
        D = np.asarray(D, dtype=float)
        return cost._deriv(D) - slope * quality._deriv(D)

    return residual


def solve_foc(params: ModelParams, slope, d_max: float = DEFAULT_D_MAX):
    """Durability root of ``foc_residual(params, slope)`` on [0, d_max].

    The one entry to the durability condition. A 0-d ``slope`` is solved by
    the scalar :func:`bisect_increasing` on [1e-12, d_max] and gives a
    float. A root in (0, 1e-12) (a residual negative at 0 and positive at
    1e-12) goes to :func:`bisect_increasing` on [0, 1e-12], a bracket
    narrower than its 1e-10 tolerance, so it comes back as the midpoint
    5e-13: accurate to 1e-10 absolutely, not relatively. Otherwise the
    bracket's error stands. An array ``slope`` gives one lane per entry,
    solved with the shared cost/quality family of ``params`` by the scalar
    midpoint sequence, so each lane equals the single-point root bit for
    bit; a lane without a strict sign change on the bracket is handed to
    the scalar bisection, so it returns the same endpoint or raises the
    same :class:`BracketError`. Callers decide which lanes are active. A
    negative ``d_max`` raises the families' ``ValueError``, once per call.
    """

    _as_array(d_max)
    if np.ndim(slope) == 0:
        residual = foc_residual(params, slope)
        try:
            return bisect_increasing(residual, 1e-12, d_max)
        except BracketError:
            # a sign change in (0, 1e-12): that bracket is already narrower
            # than xtol, so the bisection returns its midpoint 5e-13
            if residual(1e-12) > 0.0 and residual(0.0) < 0.0:
                return bisect_increasing(residual, 0.0, 1e-12)
            raise
    slope = np.asarray(slope, dtype=float)
    lanes = slope.ravel()
    n = lanes.size
    residual = foc_residual(params, lanes)
    roots = bisect_increasing_vec(residual, 1e-12, d_max, n)
    unbracketed = (residual(np.full(n, 1e-12)) >= 0.0) | (
        residual(np.full(n, d_max)) <= 0.0
    )
    for lane in np.flatnonzero(unbracketed):
        roots[lane] = solve_foc(params, float(lanes[lane]), d_max)
    return roots.reshape(slope.shape)


def social_optimal_durability(params: ModelParams, d_max: float = DEFAULT_D_MAX):
    """Durability maximizing total surplus: c'(D) = delta/(1+delta)*v_L*s'(D).

    Elementwise when the parameter fields are arrays (one family). A root
    beyond ``d_max`` raises a :class:`BracketError` whose message names the
    social-planner durability: :func:`solve` solves it for every caller,
    including those that do not report it.
    """

    _, slope = durability_condition(params, ModelKind.TWO_PERIOD, None)
    try:
        return solve_foc(params, slope, d_max)
    except BracketError as exc:
        raise BracketError(f"social-planner durability D_social: {exc}") from exc


@functools.lru_cache(maxsize=1)
def _shared_social_durability(params: ModelParams, d_max: float) -> float:
    """:func:`social_optimal_durability` of one point.

    It does not depend on the regime, and callers solve both regimes of a
    point in turn, so one entry lets them share the root. A
    :class:`BracketError` is not cached; it is raised again on every call.
    """

    return social_optimal_durability(params, d_max)


def optimal_durability(params: ModelParams, regime: Regime, d_max: float = DEFAULT_D_MAX):
    """Profit-maximizing durability in the active region.

    Raises ValueError, naming the first margin in row-major order that is
    not positive, outside the active region. Elementwise when the parameter
    fields are arrays (one family); each lane equals the single-point root.
    """

    margin, slope = durability_condition(params, ModelKind.TWO_PERIOD, regime)
    shut = np.asarray(margin)[np.asarray(margin <= 0.0)]
    if shut.size:
        raise ValueError(
            f"{regime.value}: margin {float(shut[0])} is not positive; market is shut down"
        )
    return solve_foc(params, slope, d_max)


@dataclass(frozen=True)
class Prices:
    """Regime-invariant equilibrium prices at durability D."""

    p1n: float
    p2n: float
    p2u: float


def prices(params: ModelParams, D) -> Prices:
    """New-good prices for both periods and the used-good price.

    The used price extracts the deflated low-type valuation; the second-period
    new price makes the high type indifferent between replacing and keeping;
    the first-period price adds the anticipated resale proceeds.
    """

    return _prices(params, params.quality.value(D))


def _prices(params: ModelParams, s) -> Prices:
    """:func:`prices` at resale quality ``s = s(D)``."""

    p = params
    p2u = p.alpha * p.v_L * s
    p2n = p.alpha * (1.0 - p.beta) * p.v_L * s + p.v_H * (1.0 - s)
    p1n = p.v_H + p.delta * p.alpha * (1.0 - p.beta) * p.v_L * s
    return Prices(p1n=p1n, p2n=p2n, p2u=p2u)


def replacement_margin(params: ModelParams, regime: Regime, s, c):
    """Seller's take per replacement sale in the late period, net of cost.

    Third-party: the second-period new price less cost. Branded: the
    commission on the used trade is added back, which is the same as netting
    the undiscounted used price. Takes ``s(D)`` and ``c(D)`` so that callers
    evaluate them once.
    """

    p = params
    if regime is Regime.THIRD_PARTY:
        return p.alpha * (1.0 - p.beta) * p.v_L * s + p.v_H * (1.0 - s) - c
    return p.alpha * p.v_L * s + p.v_H * (1.0 - s) - c


@dataclass(frozen=True)
class ProfitBreakdown:
    """Profit decomposition; period 2 is discounted to period-1 value."""

    total: float
    period1: float
    period2: float
    commission: float


def profit(params: ModelParams, regime: Regime, D) -> ProfitBreakdown:
    """Discounted profit of the active strategy at durability D (vectorized)."""

    return _profit(params, regime, params.quality.value(D), params.cost.value(D))


def _profit(params: ModelParams, regime: Regime, s, c) -> ProfitBreakdown:
    """:func:`profit` at ``s = s(D)`` and ``c = c(D)``."""

    p = params
    period1 = p.n_H * (_prices(p, s).p1n - c)
    period2 = p.delta * p.n_H * replacement_margin(p, regime, s, c)
    # the seller's cut of used sales, already inside period2
    commission = (
        0.0
        if regime is Regime.THIRD_PARTY
        else p.delta * p.n_H * p.beta * p.alpha * p.v_L * s
    )
    return ProfitBreakdown(
        total=period1 + period2, period1=period1, period2=period2, commission=commission
    )


def welfare(params: ModelParams, D):
    """Total discounted surplus under the active allocation (vectorized)."""

    return _welfare(params, params.quality.value(D), params.cost.value(D))


def _welfare(params: ModelParams, s, c):
    """:func:`welfare` at ``s = s(D)`` and ``c = c(D)``."""

    p = params
    return (
        (1.0 + p.delta) * p.n_H * p.v_H
        + p.delta * p.n_H * p.v_L * s
        - (1.0 + p.delta) * p.n_H * c
    )


def shutdown_profit(params: ModelParams) -> float:
    """Profit from selling only to high types at v_H in both periods."""

    return (1.0 + params.delta) * params.n_H * params.v_H


def constraint_slacks(params: ModelParams, D: float) -> dict[str, float]:
    """Slacks of the five participation/self-selection conditions; a slack
    >= 0 means the condition holds.

    Evaluated at the candidate prices for durability ``D``:

    * ``ic_h``: high type prefers selling the used unit and replacing it over
      keeping it (binds).
    * ``ic_l``: low type prefers the used unit over a new one.
    * ``ir_h``: high type gains from the period-2 replacement purchase.
    * ``ir_l``: low type gains from the used purchase (binds).
    * ``ir_h_first``: buying new in period 1 and replacing in period 2 beats
      staying out, at the premium first-period price.
    """

    return _constraint_slacks(params, params.quality.value(D))


def _constraint_slacks(params: ModelParams, s) -> dict[str, float]:
    """:func:`constraint_slacks` at ``s = s(D)``."""

    p = params
    pr = _prices(params, s)
    resale_net = p.v_H - pr.p2n + (1.0 - p.beta) * pr.p2u
    return {
        "ic_h": resale_net - p.v_H * s,
        "ic_l": (p.alpha * p.v_L * s - pr.p2u) - (p.v_L - pr.p2n),
        "ir_h": p.v_H - pr.p2n,
        "ir_l": p.alpha * p.v_L * s - pr.p2u,
        "ir_h_first": (p.v_H - pr.p1n) + p.delta * resale_net,
    }


@dataclass(frozen=True)
class TwoPeriodEquilibrium:
    """Full description of the solved two-period market."""

    regime: Regime
    market_mode: MarketMode
    D_star: float
    D_social: float
    p1n: float
    p2n: float
    p2u: float | None
    profit_total: float
    profit_period1: float
    profit_period2: float
    commission_revenue: float
    welfare: float
    margin: float
    shutdown_profit: float
    boundary_tie: bool
    slacks: dict[str, float] | None
    constraints_ok: bool


def solve(
    params: ModelParams,
    regime: Regime,
    d_max: float = DEFAULT_D_MAX,
) -> TwoPeriodEquilibrium:
    """Solve one regime end to end.

    In the active region the record carries the candidate-price constraint
    slacks; ``constraints_ok`` is False when any slack falls below
    ``-_SLACK_TOL``, which happens for parameter corners where the low type
    would rather buy new than used (the construction is then internally
    inconsistent and downstream draws filter such points out). A shut-down
    market is the same record at D = 0, with no used price or slacks and
    :func:`shutdown_profit` as its total.
    """

    margin, slope = durability_condition(params, ModelKind.TWO_PERIOD, regime)
    d_social = _shared_social_durability(params, d_max)
    active = margin > 0.0
    if active:
        d_star = solve_foc(params, slope, d_max)
        s, c = params.quality.value(d_star), params.cost.value(d_star)
    else:
        # every admissible family is exactly 0 at D = 0, so no family call
        d_star = s = c = 0.0
    pr = _prices(params, s)
    br = _profit(params, regime, s, c)
    slacks = _constraint_slacks(params, s) if active else None
    shutdown = shutdown_profit(params)
    return TwoPeriodEquilibrium(
        regime=regime,
        market_mode=MarketMode.ACTIVE if active else MarketMode.SHUTDOWN,
        D_star=d_star,
        D_social=d_social,
        p1n=pr.p1n,
        p2n=pr.p2n,
        p2u=pr.p2u if active else None,
        # period1 + period2 at D = 0 can differ from it in the last bit
        profit_total=br.total if active else shutdown,
        profit_period1=br.period1,
        profit_period2=br.period2,
        commission_revenue=br.commission,
        welfare=_welfare(params, s, c),
        margin=margin,
        shutdown_profit=shutdown,
        boundary_tie=margin == 0.0,
        slacks=slacks,
        constraints_ok=not active or _slacks_hold(slacks),
    )
