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
evaluation. :func:`feasibility_reports` screens all 243 pairs of
:func:`pair_table` at once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .primitives import (
    DEFAULT_D_MAX,
    _SLACK_TOL,
    _slacks_hold,
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
    "CELLS",
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
    "PairTable",
    "pair_table",
    "feasibility_reports",
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

CELLS = ("h1", "h2", "l1", "l2")


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

    menus = [menu(state, cell) for cell in CELLS]
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

    @functools.cached_property
    def slack_flags(self) -> tuple[bool, ...]:
        """Whether each slack is at least ``-_SLACK_TOL``, in
        ``OLG_CONSTRAINT_NAMES`` order. Not a field, so it is not
        serialized."""

        return tuple(self.slacks[name] >= -_SLACK_TOL for name in OLG_CONSTRAINT_NAMES)


def _buys_new(action: Action) -> bool:
    return action in (Action.BUY_NEW, Action.SELL_AND_BUY_NEW)


# When a pair's seller-side dominance argument knocks it out.
_NEVER, _ALWAYS, _IF_CONSISTENT, _IF_DURABLE = range(4)


class _PairFacts(NamedTuple):
    """What a pair's verdict needs of the (state, profile) pair alone."""

    h1_new: float  # whether the young high cell buys new, as 1.0 or 0.0
    l1_new: float  # likewise the young low cell
    supply: tuple[bool, ...]  # in cell order, whether each used-unit seller is high
    demand: tuple[bool, ...]  # likewise each used-unit buyer
    dominance: int  # _NEVER, _ALWAYS, _IF_CONSISTENT or _IF_DURABLE


def _profile_facts(state: OlgState, profile: ActionProfile) -> _PairFacts:
    """The :class:`_PairFacts` of a pair."""

    supply = tuple(
        cell.startswith("h")
        for cell in CELLS
        if profile.get(cell) is Action.SELL_AND_BUY_NEW and owns_used(state, cell)
    )
    demand = tuple(
        cell.startswith("h") for cell in CELLS if profile.get(cell) is Action.BUY_USED
    )
    if state is OlgState.HIGH_ONLY and profile.h2 is Action.KEEP_USED:
        # high keep-used earns n_H*(v_H*(1 + delta*s) - c): selling new to
        # both high cohorts earns 2*n_H*v_H
        dominance = _ALWAYS
    elif state is OlgState.HIGH_ONLY and profile.h2 is Action.BUY_NEW:
        # discard-and-replace makes the same sales as at D = 0 and pays c(D)
        dominance = _IF_DURABLE
    elif state is not OlgState.HIGH_ONLY:
        # the whole population on a buy-new/resell cycle earns at most
        # v_L*(1 + delta*s) - c per period: flat v_L pricing at D = 0 earns
        # 2*v_L; an empty stock earns nothing on repeat trade
        dominance = _IF_CONSISTENT
    else:
        dominance = _NEVER
    return _PairFacts(
        float(_buys_new(profile.h1)), float(_buys_new(profile.l1)), supply, demand, dominance
    )


class PairTable(NamedTuple):
    """Every candidate (state, profile) pair and the static part of its
    verdict."""

    pairs: tuple[tuple[OlgState, ActionProfile], ...]  # all 243, state then profile order
    index: dict[tuple[OlgState, ActionProfile], int]  # a pair's position in ``pairs``
    key: tuple[int, ...]  # per pair, its position in ``distinct``
    # the distinct (state index, facts, pattern index) of the pairs
    distinct: tuple[tuple[int, _PairFacts, int], ...]
    patterns: tuple[tuple[tuple[bool, ...], tuple[bool, ...]], ...]  # distinct (supply, demand)


@functools.lru_cache(maxsize=None)
def pair_table() -> PairTable:
    """The :class:`PairTable`. Every check decides pairs of the same 243,
    so it is built once."""

    pairs = tuple(
        (state, profile) for state in OlgState for profile in enumerate_profiles(state)
    )
    states = list(OlgState)
    facts = [_profile_facts(state, profile) for state, profile in pairs]
    patterns = list(dict.fromkeys((f.supply, f.demand) for f in facts))
    keys = [
        (states.index(state), f, patterns.index((f.supply, f.demand)))
        for (state, _), f in zip(pairs, facts)
    ]
    distinct = list(dict.fromkeys(keys))
    return PairTable(
        pairs=pairs,
        index={pair: i for i, pair in enumerate(pairs)},
        key=tuple(distinct.index(k) for k in keys),
        distinct=tuple(distinct),
        patterns=tuple(patterns),
    )


def _mass(params: ModelParams, highs: tuple[bool, ...]) -> float:
    """The cohort mass of the listed cells, high or low, summed in cell
    order."""

    total = 0.0
    for high in highs:
        total += params.n_H if high else params.n_L
    return total


def _pair_verdict(
    params: ModelParams,
    D: float,
    facts: _PairFacts,
    fraction: float,
    supply: float,
    demand: float,
) -> tuple[bool, bool, bool]:
    """``(state_consistent, market_clearing, dominated)`` of a pair with
    ``facts``, whose state holds stock ``fraction``, and whose used supply
    and demand are ``_mass`` of ``facts.supply`` and ``facts.demand``."""

    p = params
    next_stock = p.n_H * facts.h1_new + p.n_L * facts.l1_new
    state_consistent = abs(next_stock - fraction) <= 1e-12
    if supply == 0.0:
        market_clearing = demand == 0.0
    else:
        market_clearing = demand >= supply - 1e-12
    dominance = facts.dominance
    dominated = (
        dominance == _ALWAYS
        or (dominance == _IF_CONSISTENT and state_consistent)
        or (dominance == _IF_DURABLE and D > 0.0)
    )
    return state_consistent, market_clearing, dominated


def feasibility_reports(
    params: ModelParams, D: float, slacks: dict[str, float]
) -> tuple[FeasibilityReport, ...]:
    """:func:`check_steady_state` of every pair, in :func:`pair_table`
    order, at the slacks ``constraint_slacks_olg(params, D)``. Decided from
    three parts: the static table; the state fractions and each pattern's
    supply and demand masses at this draw; and the slacks and their
    verdict. Each distinct key is decided once, and each distinct verdict
    is one report that its pairs share.
    """

    p = params
    table = pair_table()
    constraints_ok = _slacks_hold(slacks)
    fractions = [state.fraction(p) for state in OlgState]
    masses = [(_mass(p, supply), _mass(p, demand)) for supply, demand in table.patterns]
    reports: dict[tuple[bool, bool, bool], FeasibilityReport] = {}
    by_key = []
    for state_i, facts, pattern_i in table.distinct:
        verdict = _pair_verdict(p, D, facts, fractions[state_i], *masses[pattern_i])
        if verdict not in reports:
            consistent, clearing, dominated = verdict
            reports[verdict] = FeasibilityReport(
                consistent, clearing, slacks, constraints_ok, dominated
            )
        by_key.append(reports[verdict])
    return tuple(by_key[k] for k in table.key)


def check_steady_state(
    params: ModelParams,
    D: float,
    state: OlgState,
    profile: ActionProfile,
    slacks: dict[str, float],
) -> FeasibilityReport:
    """Structural feasibility of a candidate steady state, one of the pairs
    of :func:`pair_table`.

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

    ``slacks`` is ``constraint_slacks_olg(params, D)``, computed once by a
    caller auditing many profiles at one durability; the report shares that
    dict.
    """

    p = params
    table = pair_table()
    _, facts, _ = table.distinct[table.key[table.index[state, profile]]]
    consistent, clearing, dominated = _pair_verdict(
        p, D, facts, state.fraction(p), _mass(p, facts.supply), _mass(p, facts.demand)
    )
    return FeasibilityReport(consistent, clearing, slacks, _slacks_hold(slacks), dominated)


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
