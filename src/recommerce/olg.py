"""Infinite-horizon steady state with overlapping two-period customers.

Each period a new cohort of mass one arrives (``n_H`` high types, ``n_L`` low
types) and lives for two periods. The seller posts a stationary new price and
a stationary used price. In the steady state of interest the used stock held
at the start of a period comes from high types only: young high types buy
new, old high types sell their used unit and buy new again, and low types of
both ages buy used. Old low types exit after one more period of use.

Stationary prices are the two-period second-period prices
(``two_period.prices``): the used price extracts the deflated low-type value
of a used unit and the new price leaves old high types indifferent between
replacing and keeping. The entry premium charged to each young high cohort is
the two-period first-period price: the discounted resale proceeds on top of
``v_H``.

The seller's objective splits into a first-period entry term plus a
stationary per-period stream::

    F(D) = n_H * g1(D) + delta/(1-delta) * R(D)

where ``g1(D) = v_H + delta*alpha*(1-beta)*v_L*s(D)`` and ``R(D)`` is the
per-cohort stationary margin: :func:`objective_value` is ``F``, and
:func:`discounted_stream` is the stream alone. The first-order condition
again factors into ``c'(D) = M * s'(D)``, the ``k = 1`` rows of the table
``two_period.durability_condition``, with

* third-party: ``M = (2-delta)*alpha*(1-beta)*v_L - v_H``
* branded:     ``M = alpha*(2-beta-delta*(1-beta))*v_L - v_H``

whose difference is ``alpha*beta*v_L``, so the branded seller always picks
weakly higher durability. When ``M <= 0`` the seller shuts the used market
down: zero durability and per-period profit ``n_H*v_H``, worth
``n_H*v_H/(1-delta)`` in present value; the objective is extended
continuously there.

Two flat zero-durability mass policies (price ``v_L`` to everyone, or price
``v_H`` to twice the high mass) are reported as diagnostics alongside every
solution. Under this module's per-cohort profit bookkeeping they dominate
every active stream; they are reported, not used to unseat the active
optimum, so that the regime comparison stays informative.

:func:`check_steady_state` screens one candidate (state, action profile)
pair: the stock it reproduces, used-market clearing, the constraint slacks,
and four seller-side dominance arguments, which are decided from the state,
the old high types' action and whether ``D > 0``, with no cost or quality
evaluation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .primitives import (
    DEFAULT_D_MAX,
    _SLACK_TOL,
    ModelKind,
    ModelParams,
    Regime,
    bisect_increasing,
)
from .two_period import (
    MarketMode,
    _prices,
    durability_condition,
    replacement_margin,
    solve_foc,
)

__all__ = [
    "OlgState",
    "Action",
    "ActionProfile",
    "STEADY_TRADE_PROFILE",
    "OWNER_MENU",
    "NONOWNER_MENU",
    "menu",
    "owns_used",
    "enumerate_profiles",
    "per_period_profit",
    "per_period_commission",
    "discounted_stream",
    "objective_value",
    "zero_durability_alternatives",
    "constraint_slacks_olg",
    "OLG_CONSTRAINT_NAMES",
    "FeasibilityReport",
    "check_steady_state",
    "SteadyStateSolution",
    "solve_olg",
]


class OlgState(str, Enum):
    """Start-of-period used stock: which of last period's buyers hold units."""

    NONE = "none"
    HIGH_ONLY = "high-only"
    ALL = "all"

    def fraction(self, params: ModelParams) -> float:
        if self is OlgState.NONE:
            return 0.0
        if self is OlgState.HIGH_ONLY:
            return params.n_H
        return 1.0


class Action(str, Enum):
    BUY_NEW = "buy-new"
    BUY_USED = "buy-used"
    DO_NOTHING = "do-nothing"
    SELL_AND_BUY_NEW = "sell-and-buy-new"
    KEEP_USED = "keep-used"


# menu order is also the enumeration order of candidate profiles
OWNER_MENU = (Action.SELL_AND_BUY_NEW, Action.BUY_NEW, Action.KEEP_USED)
NONOWNER_MENU = (Action.BUY_NEW, Action.BUY_USED, Action.DO_NOTHING)

_CELLS = ("h1", "h2", "l1", "l2")


@dataclass(frozen=True)
class ActionProfile:
    """One action per cohort cell: h1/l1 are young, h2/l2 are old."""

    h1: Action
    h2: Action
    l1: Action
    l2: Action

    def get(self, cell: str) -> Action:
        return getattr(self, cell)


STEADY_TRADE_PROFILE = ActionProfile(
    h1=Action.BUY_NEW,
    h2=Action.SELL_AND_BUY_NEW,
    l1=Action.BUY_USED,
    l2=Action.BUY_USED,
)


def owns_used(state: OlgState, cell: str) -> bool:
    """Whether the cell starts the period holding a used unit."""

    if not cell.endswith("2"):
        return False
    if state is OlgState.ALL:
        return True
    return state is OlgState.HIGH_ONLY and cell == "h2"


def menu(state: OlgState, cell: str) -> tuple[Action, ...]:
    """Actions offered to a cell.

    In the all-hold state every cell is put on the owner menu; for young
    cells the owner actions degenerate (there is nothing to sell or keep),
    and the valuation table maps them accordingly.
    """

    if state is OlgState.ALL:
        return OWNER_MENU
    return OWNER_MENU if owns_used(state, cell) else NONOWNER_MENU


def enumerate_profiles(state: OlgState) -> list[ActionProfile]:
    """All 81 candidate action profiles for a state."""

    menus = [menu(state, cell) for cell in _CELLS]
    return [
        ActionProfile(h1=a, h2=b, l1=c, l2=d)
        for a, b, c, d in itertools.product(*menus)
    ]


def per_period_profit(params: ModelParams, regime: Regime, D):
    """Stationary per-cohort margin R(D) (vectorized): one replacement sale
    per high type, see ``two_period.replacement_margin``."""

    return _per_period_profit(params, regime, params.quality.value(D), params.cost.value(D))


def _per_period_profit(params: ModelParams, regime: Regime, s, c):
    """:func:`per_period_profit` at ``s = s(D)`` and ``c = c(D)``."""

    return params.n_H * replacement_margin(params, regime, s, c)


def per_period_commission(params: ModelParams, regime: Regime, D) -> float:
    """Commission component inside the branded per-period margin."""

    return _per_period_commission(params, regime, params.quality.value(D))


def _per_period_commission(params: ModelParams, regime: Regime, s) -> float:
    """:func:`per_period_commission` at ``s = s(D)``."""

    if regime is Regime.THIRD_PARTY:
        return 0.0
    p = params
    return p.n_H * p.beta * p.alpha * p.v_L * s


def discounted_stream(params: ModelParams, regime: Regime, D):
    """Present value of the stationary stream from period 2 on."""

    return _discounted_stream(params, regime, params.quality.value(D), params.cost.value(D))


def _discounted_stream(params: ModelParams, regime: Regime, s, c):
    """:func:`discounted_stream` at ``s = s(D)`` and ``c = c(D)``."""

    p = params
    return p.delta / (1.0 - p.delta) * _per_period_profit(params, regime, s, c)


def objective_value(params: ModelParams, regime: Regime, D):
    """Seller objective F(D) (vectorized); extended by its own formula at D=0.

    The stationary stream alone, G(D), is :func:`discounted_stream`. G is
    strictly decreasing in D for all admissible parameters (its margin
    ``m*v_L - v_H`` is negative), so the entry term is what makes positive
    durability pay.
    """

    p = params
    return _objective_value(p, regime, p.quality.value(D), p.cost.value(D))


def _objective_value(params: ModelParams, regime: Regime, s, c):
    """:func:`objective_value` at ``s = s(D)`` and ``c = c(D)``."""

    stream = _discounted_stream(params, regime, s, c)
    return params.n_H * _prices(params, s).p1n + stream


def zero_durability_alternatives(params: ModelParams) -> dict[str, float]:
    """Present values of the two flat D=0 mass policies (diagnostics only)."""

    p = params
    scale = 1.0 / (1.0 - p.delta)
    return {
        "price_low_everyone": 2.0 * p.v_L * scale,
        "price_high_replacers": 2.0 * p.n_H * p.v_H * scale,
    }


# Slack >= 0 means the condition holds; ic_h2 and ir_l2 bind by construction.
OLG_CONSTRAINT_NAMES = ("ic_h2", "ic_h1", "ir_l2", "ic_l1", "ic_l2", "ratio_cap")


def _ratio_cap_slack(params: ModelParams, s):
    """Slack of the valuation-ratio cap on v_L/v_H at resale quality
    ``s = s(D)``: the closed form of the young-low acceptance ``ic_l1``.

    Elementwise when ``s`` or the parameter fields are arrays; each lane
    equals the single-point slack bit for bit.
    """

    p = params
    cap = (1.0 - s) / (1.0 - ((1.0 - p.beta) * p.alpha - p.delta) * s)
    return cap - p.v_L / p.v_H


def constraint_slacks_olg(params: ModelParams, D) -> dict[str, float]:
    """Slacks of the steady-state self-selection and participation conditions.

    Evaluated at the stationary candidate prices:

    * ``ic_h2``: old high types prefer sell-and-replace to keeping (binds).
    * ``ic_h1``: young high types prefer buying new (with the optimal old-age
      continuation) to buying used. The young-high used value carries no
      deflator, mirroring the model's stated comparison.
    * ``ir_l2``: old low types gain from the used purchase (binds).
    * ``ic_l1``: young low types prefer used now to a new unit now plus the
      optimal old-age continuation.
    * ``ic_l2``: old low types prefer used to new.
    * ``ratio_cap``: the closed-form cap on v_L/v_H equivalent to ``ic_l1``.

    Elementwise when ``D`` or the parameter fields are arrays; each lane
    equals the single-point slack bit for bit. ``np.where(b > a, b, a)`` is
    Python's ``max(a, b)`` exactly, NaN and signed zeros included.
    """

    p = params
    s = p.quality.value(D)
    pr = _prices(params, s)
    p_n, p_u = pr.p2n, pr.p2u
    resale_net_h = p.v_H - p_n + (1.0 - p.beta) * p_u
    resale_net_l = p.v_L - p_n + (1.0 - p.beta) * p_u
    cont_h = np.where(p.v_H * s > resale_net_h, p.v_H * s, resale_net_h)
    cont_l = np.where(p.v_L * s > resale_net_l, p.v_L * s, resale_net_l)
    used_l = p.alpha * p.v_L * s - p_u
    return {
        "ic_h2": resale_net_h - p.v_H * s,
        "ic_h1": (p.v_H - p_n + p.delta * cont_h) - (p.v_H * s - p_u),
        "ir_l2": used_l,
        "ic_l1": used_l - (p.v_L - p_n + p.delta * cont_l),
        "ic_l2": used_l - (p.v_L - p_n),
        "ratio_cap": _ratio_cap_slack(params, s),
    }


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of checking one (state, profile) pair as a steady state."""

    state_consistent: bool
    market_clearing: bool
    slacks: dict[str, float]
    constraints_ok: bool
    dominated: bool

    @property
    def passes(self) -> bool:
        return (
            self.state_consistent
            and self.market_clearing
            and self.constraints_ok
            and not self.dominated
        )


def _slacks_hold(slacks: dict[str, float]) -> bool:
    """Whether every constraint slack is at least ``-_SLACK_TOL``."""

    return all(v >= -_SLACK_TOL for v in slacks.values())


def _buys_new(action: Action) -> bool:
    return action in (Action.BUY_NEW, Action.SELL_AND_BUY_NEW)


@functools.lru_cache(maxsize=None)
def _profile_facts(
    state: OlgState, profile: ActionProfile
) -> tuple[float, float, tuple[bool, ...], tuple[bool, ...]]:
    """What :func:`check_steady_state` needs of a (state, profile) pair
    alone: whether each young cell buys new (as 1.0 or 0.0), and, in cell
    order, whether each cell that supplies or demands a used unit is high.

    A scan checks the same 243 pairs at every draw, so they are built once.
    """

    supply = tuple(
        cell.startswith("h")
        for cell in _CELLS
        if profile.get(cell) is Action.SELL_AND_BUY_NEW and owns_used(state, cell)
    )
    demand = tuple(
        cell.startswith("h") for cell in _CELLS if profile.get(cell) is Action.BUY_USED
    )
    return float(_buys_new(profile.h1)), float(_buys_new(profile.l1)), supply, demand


def check_steady_state(
    params: ModelParams,
    D: float,
    state: OlgState,
    profile: ActionProfile,
    slacks: dict[str, float] | None = None,
    constraints_ok: bool | None = None,
) -> FeasibilityReport:
    """Structural feasibility of a candidate steady state.

    Checks, in order: the young actions reproduce the assumed used stock;
    the used market clears (all offered units find buyers, with pro-rata
    rationing of excess demand allowed); the price-taking constraint slacks
    are nonnegative for the trade pattern of interest; and the seller-side
    dominance arguments that knock out whole profile classes. Dominance is
    only applied where a named argument exists: replacement-cycle states,
    keep-used patterns, discard-replace patterns, and empty-stock states.
    Each argument's profit comparison holds for any ``s(D)`` in [0, 1] and
    ``c(D) >= 0`` (the discard-replace one strictly where ``c(D) > 0``), so
    the check evaluates neither family.

    ``slacks`` may carry ``constraint_slacks_olg(params, D)`` computed once
    by a caller auditing many profiles at one durability; the report then
    shares that dict. ``constraints_ok`` may carry ``_slacks_hold`` of that
    dict, computed once likewise.
    """

    p = params
    h1_new, l1_new, supply_high, demand_high = _profile_facts(state, profile)
    next_stock = p.n_H * h1_new + p.n_L * l1_new
    state_consistent = abs(next_stock - state.fraction(params)) <= 1e-12

    # summed in cell order, as the cells are listed
    supply = 0.0
    for high in supply_high:
        supply += p.n_H if high else p.n_L
    demand = 0.0
    for high in demand_high:
        demand += p.n_H if high else p.n_L
    if supply == 0.0:
        market_clearing = demand == 0.0
    else:
        market_clearing = demand >= supply - 1e-12

    if slacks is None:
        slacks = constraint_slacks_olg(params, D)
    if constraints_ok is None:
        constraints_ok = _slacks_hold(slacks)

    dominated = (
        # the whole population on a buy-new/resell cycle earns at most
        # v_L*(1 + delta*s) - c per period: flat v_L pricing at D = 0 earns 2*v_L
        (state is OlgState.ALL and state_consistent)
        # high keep-used earns n_H*(v_H*(1 + delta*s) - c): selling new to
        # both high cohorts earns 2*n_H*v_H
        or (state is OlgState.HIGH_ONLY and profile.h2 is Action.KEEP_USED)
        # discard-and-replace makes the same sales as at D = 0 and pays c(D)
        or (state is OlgState.HIGH_ONLY and profile.h2 is Action.BUY_NEW and D > 0.0)
        # an empty stock earns nothing on repeat trade
        or (state is OlgState.NONE and state_consistent)
    )
    return FeasibilityReport(
        state_consistent=state_consistent,
        market_clearing=market_clearing,
        slacks=slacks,
        constraints_ok=constraints_ok,
        dominated=dominated,
    )


@dataclass(frozen=True)
class SteadyStateSolution:
    """Solved stationary policy for one regime."""

    regime: Regime
    market_mode: MarketMode
    state: OlgState
    profile: ActionProfile | None
    D_star: float
    p_n: float
    p_u: float | None
    entry_price: float
    per_period_profit: float
    per_period_commission: float
    discounted_stream: float
    objective_value: float
    margin: float
    used_supply: float
    used_demand: float
    rationed_fraction: float
    include_entry_premium: bool
    slacks: dict[str, float] | None
    constraints_ok: bool
    no_active_steady_state: bool
    best_feasible_D: float
    d0_alternatives: dict[str, float]
    boundary_tie: bool


def _cap_boundary(params: ModelParams, hi: float) -> float:
    """Largest durability (up to hi) at which the ratio cap still holds."""

    def slack(D):
        # the ratio_cap of constraint_slacks_olg, elementwise for the bisection
        return _ratio_cap_slack(params, params.quality.value(D))

    if slack(hi) >= 0.0:
        return hi
    if slack(0.0) < 0.0:
        return 0.0
    # slack decreases in D here; root-find on its negation
    return bisect_increasing(lambda d: -slack(d), 0.0, hi, xtol=1e-12)


def solve_olg(
    params: ModelParams,
    regime: Regime,
    d_max: float = DEFAULT_D_MAX,
) -> SteadyStateSolution:
    """Solve the stationary policy for one regime.

    An exactly zero margin classifies as shutdown and is flagged as a tie.
    A shut-down market is the same record at D = 0, with no trade profile,
    used price, used trade or slacks.
    ``no_active_steady_state`` is set when the interior candidate violates
    the valuation-ratio cap, in which case ``best_feasible_D`` is the largest
    durability satisfying it (the objective is increasing below the interior
    candidate, so that boundary point is the constrained optimum).
    """

    margin, slope = durability_condition(params, ModelKind.OLG, regime)
    active = margin > 0.0
    if active:
        d_star = solve_foc(params, slope, d_max)
        s, c = params.quality.value(d_star), params.cost.value(d_star)
        # the public function, a traced layer of perfbench/, though it
        # evaluates s(D) once more
        slacks = constraint_slacks_olg(params, d_star)
        cap_ok = slacks["ratio_cap"] >= -_SLACK_TOL
        best_feasible = d_star if cap_ok else _cap_boundary(params, d_star)
        supply, demand = params.n_H, 2.0 * params.n_L
    else:
        # every admissible family is exactly 0 at D = 0, so no family call
        d_star = s = c = best_feasible = supply = demand = 0.0
        slacks, cap_ok = None, True
    pr = _prices(params, s)
    return SteadyStateSolution(
        regime=regime,
        market_mode=MarketMode.ACTIVE if active else MarketMode.SHUTDOWN,
        state=OlgState.HIGH_ONLY,
        profile=STEADY_TRADE_PROFILE if active else None,
        D_star=d_star,
        p_n=pr.p2n,
        p_u=pr.p2u if active else None,
        entry_price=pr.p1n,
        per_period_profit=_per_period_profit(params, regime, s, c),
        per_period_commission=_per_period_commission(params, regime, s),
        discounted_stream=_discounted_stream(params, regime, s, c),
        objective_value=_objective_value(params, regime, s, c),
        margin=margin,
        used_supply=supply,
        used_demand=demand,
        rationed_fraction=supply / demand if active else 0.0,
        include_entry_premium=True,
        slacks=slacks,
        constraints_ok=not active or _slacks_hold(slacks),
        no_active_steady_state=not cap_ok,
        best_feasible_D=best_feasible,
        d0_alternatives=zero_durability_alternatives(params),
        boundary_tie=margin == 0.0,
    )
