"""Brute-force cross-checks for the closed-form solvers.

The grid objective and the truncated stream are recomputed from the revenue
story directly, using only the parameter fields and the cost/quality family
evaluations; no solver-side formula (first-order condition, margin, profit)
is called there, so their agreement with the analytic modules is evidence,
not tautology. The best-response audit takes the posted prices from
``two_period.prices`` and the feasibility checks from ``olg``: it tests the
action profiles at those prices, not the prices themselves.

Three instruments:

* dense grid search over durability for the two-period profit and the
  steady-state objective;
* horizon-truncated summation of the stationary profit stream, to check the
  closed-form geometric value;
* an exhaustive scan of every candidate steady-state (state, action
  profile) pair at posted prices: the seller-side feasibility screens, and a
  best-response audit that the profile is its state's selected one, each
  cell playing the tie-broken best of its menu.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .primitives import (
    DEFAULT_D_MAX,
    CostFn,
    ModelKind,
    ModelParams,
    QualityFn,
    Regime,
)
from .olg import (
    _CELLS,
    _slacks_hold,
    Action,
    ActionProfile,
    FeasibilityReport,
    OlgState,
    STEADY_TRADE_PROFILE,
    check_steady_state,
    constraint_slacks_olg,
    enumerate_profiles,
    menu,
    owns_used,
)
from .two_period import prices

__all__ = [
    "GridSpec",
    "GridResult",
    "grid_argmax_profit",
    "grid_resolves",
    "truncated_stream",
    "truncated_stream_error_bound",
    "action_value",
    "action_table",
    "selected_actions",
    "best_response_audit",
    "ScanRow",
    "ScanResult",
    "exhaustive_steady_state_scan",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform durability grid."""

    lower: float = 0.0
    upper: float = DEFAULT_D_MAX
    count: int = 100_000

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("grid needs at least two points")
        if not self.upper > self.lower:
            raise ValueError("grid upper bound must exceed lower bound")

    @property
    def step(self) -> float:
        return (self.upper - self.lower) / (self.count - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.count)


@dataclass(frozen=True)
class GridResult:
    D_at_max: float
    value: float
    index: int
    step: float


# Grid points per block of the branch-and-bound search.
_BLOCK = 128


@dataclass(frozen=True)
class _Blocks:
    """Per block of ``_BLOCK`` grid points, read-only: the extremes of ``s``
    and ``c``, NaN where the block holds a NaN."""

    s_lo: np.ndarray
    s_hi: np.ndarray
    c_lo: np.ndarray
    c_hi: np.ndarray

    @classmethod
    def of(cls, s: np.ndarray, c: np.ndarray) -> "_Blocks":
        starts = np.arange(0, s.size, _BLOCK)
        s_lo, s_hi, c_lo, c_hi = (
            ufunc.reduceat(x, starts)
            for x in (s, c)
            for ufunc in (np.minimum, np.maximum)
        )
        for arr in (s_lo, s_hi, c_lo, c_hi):
            arr.setflags(write=False)
        return cls(s_lo, s_hi, c_lo, c_hi)


@functools.lru_cache(maxsize=1)
def _grid_arrays(
    cost: CostFn, quality: QualityFn, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, _Blocks]:
    """``(D, s(D), c(D))`` on the grid, read-only, and the blocks of
    ``s`` and ``c``.

    They depend on nothing but the families and the grid, and callers walk
    one family at a time (a draw pool shares one; a point is checked in
    four model/regime cells), so one entry is enough.
    """

    D = grid.points()
    s = quality.value(D)
    c = cost.value(D)
    for arr in (D, s, c):
        arr.setflags(write=False)
    return D, s, c, _Blocks.of(s, c)


class _Affine:
    """``a + b*s + k*c`` with its three coefficients kept apart: passed to
    :func:`_objective` as ``s`` and ``c``, it gives the coefficients of ``s``
    and ``c`` as the objective's own arithmetic forms them, without
    cancelling them against the constant term."""

    __slots__ = ("a", "b", "k")
    __array_ufunc__ = None  # NumPy scalars defer to the reflected operators

    def __init__(self, a: float, b: float = 0.0, k: float = 0.0):
        self.a, self.b, self.k = a, b, k

    def __add__(self, o):
        o = o if isinstance(o, _Affine) else _Affine(o)
        return _Affine(self.a + o.a, self.b + o.b, self.k + o.k)

    def __mul__(self, x):  # x is parameter-only: the objective is affine
        return _Affine(self.a * x, self.b * x, self.k * x)

    def __sub__(self, o):
        return self + o * -1.0

    def __rsub__(self, x):
        return self * -1.0 + x

    __radd__ = __add__
    __rmul__ = __mul__


def _objective(p: ModelParams, regime: Regime, model: ModelKind, s, c):
    """The seller objective at resale quality ``s`` and unit cost ``c``,
    assembled from the revenue story: per-unit revenues times cohort masses,
    discounted. Elementwise, and affine in ``(s, c)``."""

    used_price = p.alpha * p.v_L * s
    new_price_late = p.alpha * (1.0 - p.beta) * p.v_L * s + p.v_H * (1.0 - s)
    seller_take_late = (
        new_price_late + p.beta * used_price
        if regime is Regime.BRANDED
        else new_price_late
    )
    entry = p.v_H + p.delta * (1.0 - p.beta) * used_price

    if model is ModelKind.TWO_PERIOD:
        return p.n_H * (entry - c) + p.delta * p.n_H * (seller_take_late - c)
    stream = p.delta / (1.0 - p.delta) * p.n_H * (seller_take_late - c)
    return p.n_H * entry + stream


def _coefficients(f) -> tuple[float, float]:
    """``B`` and ``C`` of an objective ``f(s, c) = A + B*s + C*c``."""

    form = f(_Affine(0.0, 1.0), _Affine(0.0, 0.0, 1.0))
    return form.b, form.k


def _g(B: float, C: float, s, c):
    """The objective less its D-independent constant. Every value the grid
    search compares, block bounds included, is a sum of these two products
    formed in this order."""

    return B * s + C * c


def grid_argmax_profit(
    params: ModelParams,
    regime: Regime,
    model: ModelKind,
    grid: GridSpec | None = None,
) -> GridResult:
    """Maximize the seller objective by brute force over a durability grid.

    :func:`_objective` is affine in ``(s, c)``, ``A + B*s + C*c``; evaluated
    on :class:`_Affine` placeholders it gives ``B`` and ``C`` apart from
    ``A``. The result is that of one ``np.argmax`` of ``g = B*s + C*c``
    (:func:`_g`) over the whole grid, bit for bit: ties resolve to the
    lowest grid index, and the first NaN wins. Its value is
    :func:`_objective` at that index. But only the blocks of ``_BLOCK``
    points that can still hold the maximum are evaluated.

    Round-to-nearest is monotone, so on a block ``B*s`` is at most the
    larger of ``B*s_lo`` and ``B*s_hi``, ``C*c`` likewise, and ``g`` at most
    the rounded sum of the two: each block's bound is exact. Where ``g`` can
    be NaN the bound is NaN or +inf: an extreme is NaN, a product at an
    extreme is NaN (zero times infinity), or one overflows to +inf. ``g`` at
    the middle of the block with the highest finite bound is a floor under
    the maximum. Every block whose bound is not below it is evaluated, in
    index order; the others hold neither the maximum nor a tie with it.
    """

    if grid is None:
        grid = GridSpec()
    p = params
    D, s, c, blocks = _grid_arrays(p.cost, p.quality, grid)
    f = functools.partial(_objective, p, regime, model)
    B, C = _coefficients(f)
    with np.errstate(all="ignore"):
        bound = np.maximum(B * blocks.s_lo, B * blocks.s_hi) + np.maximum(
            C * blocks.c_lo, C * blocks.c_hi
        )

    ranked = np.where(bound < math.inf, bound, -math.inf)
    top = int(np.argmax(ranked))
    floor = -math.inf
    if ranked[top] > -math.inf:
        i = min(top * _BLOCK + _BLOCK // 2, grid.count - 1)
        floor = _g(B, C, float(s[i]), float(c[i]))
    kept = np.flatnonzero(~(bound < floor))
    points = (kept[:, None] * _BLOCK + np.arange(_BLOCK)).ravel()
    points = points[points < grid.count]
    idx = int(points[np.argmax(_g(B, C, s[points], c[points]))])
    return GridResult(
        D_at_max=float(D[idx]), value=f(float(s[idx]), float(c[idx])), index=idx, step=grid.step
    )


def grid_resolves(
    params: ModelParams,
    regime: Regime,
    model: ModelKind,
    grid: GridSpec,
    hit: GridResult,
    D: float,
) -> bool:
    """Whether the grid tells its maximum ``hit`` apart from its point
    nearest ``D``: their values of ``g`` differ by more than its rounding
    there. Each product in ``g`` and their sum is off by at most half an
    ulp of its result, so the difference by at most three ulps of the
    largest. A steady state with a subnormal discount factor reads flat."""

    _, s, c, _ = _grid_arrays(params.cost, params.quality, grid)
    near = min(max(round((D - grid.lower) / grid.step), 0), grid.count - 1)
    B, C = _coefficients(functools.partial(_objective, params, regime, model))
    parts = [(B * float(s[i]), C * float(c[i])) for i in (hit.index, near)]
    g_hit, g_near = (x + y for x, y in parts)
    ulp = max(math.ulp(v) for x, y in parts for v in (x, y, x + y))
    return not g_hit - g_near <= 3.0 * ulp


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


_SELECTION_PRIORITY = (
    Action.SELL_AND_BUY_NEW,
    Action.BUY_USED,
    Action.BUY_NEW,
    Action.KEEP_USED,
    Action.DO_NOTHING,
)


def action_value(
    params: ModelParams,
    D: float,
    p_n: float,
    p_u: float,
    state: OlgState,
    cell: str,
    action: Action,
) -> float:
    """Lifetime value of one action for one cohort cell at posted prices.

    Mirrors the steady-state acceptance conditions term for term. Old agents
    live one more period. Young agents who buy new carry the better of
    sell-and-replace or keep into old age; young buyers of used goods get one
    period of service (the unit is spent afterwards), valued without the
    deflator for high types and with it for low types, exactly as the
    acceptance conditions state. Owner-menu actions held by a young cell (the
    all-hold state) degrade: there is nothing to sell or keep.
    """

    p = params
    v = p.v_H if cell.startswith("h") else p.v_L
    s = p.quality.value(D)
    old = cell.endswith("2")
    holds = owns_used(state, cell)

    if old:
        if action is Action.SELL_AND_BUY_NEW:
            proceeds = (1.0 - p.beta) * p_u if holds else 0.0
            return v - p_n + proceeds
        if action is Action.BUY_NEW:
            return v - p_n
        if action is Action.KEEP_USED:
            return v * s if holds else 0.0
        if action is Action.BUY_USED:
            return p.alpha * v * s - p_u
        return 0.0

    if action in (Action.BUY_NEW, Action.SELL_AND_BUY_NEW):
        cont = max(v - p_n + (1.0 - p.beta) * p_u, v * s)
        return v - p_n + p.delta * cont
    if action is Action.BUY_USED:
        if cell.startswith("h"):
            return v * s - p_u
        return p.alpha * v * s - p_u
    return 0.0


# An action attains a cell's best value when it falls short by at most this.
_TIE_TOL = 1e-12


def action_table(
    params: ModelParams, D: float, p_n: float, p_u: float, state: OlgState
) -> dict[str, dict[Action, float]]:
    """Every cell's menu valued in one state: cell -> action -> value.

    The table depends on the state but not on the profile, so an audit of
    many profiles in one state needs it once.
    """

    return {
        cell: {
            a: action_value(params, D, p_n, p_u, state, cell, a)
            for a in menu(state, cell)
        }
        for cell in _CELLS
    }


def selected_actions(table: dict[str, dict[Action, float]]) -> ActionProfile:
    """The state's best-response profile: each cell's tie-broken best action
    in one state's :func:`action_table`.

    The actions that fall short of the cell's best value by at most
    ``_TIE_TOL`` attain it; the selection is the first of them in
    ``_SELECTION_PRIORITY`` (trade-creating actions first: sell-and-replace
    over keeping, buying used over doing nothing), which is how binding
    indifference conditions are resolved.
    """

    def best(values: dict[Action, float]) -> Action:
        top = max(values.values())
        attaining = {a for a, val in values.items() if val >= top - _TIE_TOL}
        return next(a for a in _SELECTION_PRIORITY if a in attaining)

    return ActionProfile(**{cell: best(table[cell]) for cell in _CELLS})


def best_response_audit(
    params: ModelParams,
    D: float,
    state: OlgState,
    profile: ActionProfile,
    selected: ActionProfile | None = None,
) -> bool:
    """Whether ``profile`` is the state's best-response profile: every cell
    plays its selected action.

    Without ``selected`` the cells are valued at the posted prices
    ``two_period.prices``. ``selected`` may carry :func:`selected_actions`
    of this state's :func:`action_table`, computed once by a caller auditing
    many profiles, or at other prices.
    """

    if selected is None:
        pr = prices(params, D)
        selected = selected_actions(action_table(params, D, pr.p2n, pr.p2u, state))
    return profile == selected


@dataclass(frozen=True)
class ScanRow:
    state: OlgState
    profile: ActionProfile
    feasibility: FeasibilityReport
    best_response_ok: bool

    @property
    def passes(self) -> bool:
        return self.feasibility.passes and self.best_response_ok


@functools.lru_cache(maxsize=None)
def _pairs() -> tuple[tuple[OlgState, ActionProfile], ...]:
    """All 243 candidate (state, profile) pairs, in state then profile order."""

    return tuple(
        (state, profile) for state in OlgState for profile in enumerate_profiles(state)
    )


@dataclass(frozen=True)
class ScanResult:
    """Every candidate (state, profile) pair audited at durability ``D`` and
    the posted prices ``p_n``, ``p_u``.

    A pair passes the best-response audit exactly when its profile is its
    state's selected profile, so at most one pair per state passes.
    ``rows`` holds one :class:`ScanRow` per pair, in state then profile
    order, built on first read. ``survivors`` are the passing rows, built
    from the selected pairs alone.
    """

    D: float
    p_n: float
    p_u: float
    _params: ModelParams = field(repr=False)
    _slacks: dict[str, float] = field(repr=False)
    _constraints_ok: bool = field(repr=False)
    # each state's selected_actions, in OlgState order
    _selected: dict[OlgState, ActionProfile] = field(repr=False)

    def _row(self, state: OlgState, profile: ActionProfile) -> ScanRow:
        p, D = self._params, self.D
        feasibility = check_steady_state(
            p, D, state, profile, slacks=self._slacks, constraints_ok=self._constraints_ok
        )
        ok = best_response_audit(p, D, state, profile, self._selected[state])
        return ScanRow(state, profile, feasibility, ok)

    @functools.cached_property
    def rows(self) -> tuple[ScanRow, ...]:
        return tuple(self._row(state, profile) for state, profile in _pairs())

    @functools.cached_property
    def survivors(self) -> tuple[ScanRow, ...]:
        rows = (self._row(state, profile) for state, profile in self._selected.items())
        return tuple(row for row in rows if row.passes)

    @property
    def unique_survivor_is_trade_pattern(self) -> bool:
        surv = self.survivors
        return (
            len(surv) == 1
            and surv[0].state is OlgState.HIGH_ONLY
            and surv[0].profile == STEADY_TRADE_PROFILE
        )


def exhaustive_steady_state_scan(params: ModelParams, D: float) -> ScanResult:
    """Audit all candidate (state, profile) pairs at the posted prices.

    Every start-of-period stock state has 81 action profiles and one
    best-response profile, its :func:`selected_actions`; the scan values
    each state's menus once to select it, and :class:`ScanResult` runs the
    structural feasibility checks and the best-response audit on the pairs
    it reads. In the active region exactly one pair should survive: the
    high-only stock with the buy/sell-and-replace/used-used trade pattern.
    Prices, constraint slacks and their verdict depend only on (params, D),
    so they are computed once per scan and shared by the pairs.
    """

    pr = prices(params, D)
    slacks = constraint_slacks_olg(params, D)
    return ScanResult(
        D=D,
        p_n=pr.p2n,
        p_u=pr.p2u,
        _params=params,
        _slacks=slacks,
        _constraints_ok=_slacks_hold(slacks),
        _selected={
            state: selected_actions(action_table(params, D, pr.p2n, pr.p2u, state))
            for state in OlgState
        },
    )
