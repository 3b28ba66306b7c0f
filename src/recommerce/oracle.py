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
* an exhaustive best-response audit of every candidate steady-state action
  profile at posted prices, including the seller-side feasibility screens.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

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
    "CellAudit",
    "cell_audits",
    "AuditReport",
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
# Points per slice when a run of blocks is evaluated: each float64 temporary
# of the objective is 64 KiB, under glibc's default 128 KiB mmap threshold,
# so slices reuse heap memory instead of mapping and faulting in fresh pages.
_GRID_CHUNK = 8_192
# The block bounds' rounding margin, relative to the block's sum of
# magnitudes, and an absolute floor for rounding below the normal range.
_BOUND_MARGIN = 1e-12
_BOUND_FLOOR = 2.0**-1000
# A magnitude of the objective past _MAGNITUDE_CAP reads as infinite, and so
# does a block's 1 + max|s| + max|c| past _BLOCK_MAGNITUDE_CAP: no value
# computed for a block with a finite bound comes near overflow (2**1024).
_MAGNITUDE_CAP = 2.0**900
_BLOCK_MAGNITUDE_CAP = 2.0**100


@dataclass(frozen=True)
class _Blocks:
    """Per block of ``_BLOCK`` grid points, read-only: the extremes of ``s``
    and ``c``, and ``mag = 1 + max|s| + max|c|``, infinite where the block
    holds a NaN or ``mag`` would pass ``_BLOCK_MAGNITUDE_CAP``."""

    s_lo: np.ndarray
    s_hi: np.ndarray
    c_lo: np.ndarray
    c_hi: np.ndarray
    mag: np.ndarray

    @classmethod
    def of(cls, s: np.ndarray, c: np.ndarray) -> "_Blocks":
        starts = np.arange(0, s.size, _BLOCK)
        s_lo, s_hi, c_lo, c_hi = (
            ufunc.reduceat(x, starts)
            for x in (s, c)
            for ufunc in (np.minimum, np.maximum)
        )
        mag = 1.0 + np.maximum(-s_lo, s_hi) + np.maximum(-c_lo, c_hi)
        mag[~(mag <= _BLOCK_MAGNITUDE_CAP)] = np.inf
        for arr in (s_lo, s_hi, c_lo, c_hi, mag):
            arr.setflags(write=False)
        return cls(s_lo, s_hi, c_lo, c_hi, mag)


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


class _Magnitude:
    """A bound on ``|x|`` under which subtraction adds, as addition does.

    Passed to :func:`_objective` as ``s`` and ``c``, it gives the sum of the
    magnitudes of every product the expression writes out, with its
    parameter-only subexpressions as constants. A partial result past
    ``_MAGNITUDE_CAP``, or NaN, reads as infinite.
    """

    __slots__ = ("m",)
    __array_ufunc__ = None  # NumPy scalars defer to the reflected operators

    def __init__(self, m: float):
        self.m = m if m <= _MAGNITUDE_CAP else math.inf

    def __add__(self, other):
        return _Magnitude(self.m + _magnitude(other))

    def __mul__(self, other):
        return _Magnitude(self.m * _magnitude(other))

    __radd__ = __sub__ = __rsub__ = __add__
    __rmul__ = __mul__


def _magnitude(x) -> float:
    return x.m if isinstance(x, _Magnitude) else abs(x)


def _rounding_margin(f) -> float:
    """The block bounds' rounding margin per unit of ``1 + |s| + |c|``:
    ``_BOUND_MARGIN`` times the sum of magnitudes of the products in the
    objective ``f(s, c)`` at ``|s| = |c| = 1``."""

    return _BOUND_MARGIN * f(_Magnitude(1.0), _Magnitude(1.0)).m


def _objective(
    p: ModelParams, regime: Regime, model: ModelKind, include_entry_premium: bool, s, c
):
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
    return stream if not include_entry_premium else p.n_H * entry + stream


def grid_argmax_profit(
    params: ModelParams,
    regime: Regime,
    model: ModelKind,
    grid: GridSpec | None = None,
    include_entry_premium: bool = True,
) -> GridResult:
    """Maximize the seller objective by brute force over a durability grid.

    The result is that of one ``np.argmax`` of :func:`_objective` over the
    whole grid, bit for bit: ties resolve to the lowest grid index, and the
    first NaN wins. But only the blocks of ``_BLOCK`` points that can still
    hold the maximum are evaluated.

    The objective ``f`` is affine in ``(s, c)``: ``A + B*s + C*c`` with
    ``A = f(0, 0)``, ``B = f(1, 0) - A`` and ``C = f(0, 1) - A``. On a block
    it is at most ``A + max(B*s_lo, B*s_hi) + max(C*c_lo, C*c_hi)`` plus a
    rounding margin. Let ``T`` be the sum of the magnitudes of every product
    in ``f`` at ``|s| = |c| = 1`` (:class:`_Magnitude`); ``v_H`` and
    ``v_H*s`` count apart although they cancel inside ``B``. On a block,
    ``E = T * (1 + max|s| + max|c|)`` bounds the magnitudes there and the
    products of ``T(0, 0)`` with ``|s|`` and ``|c|``. A path through ``f``
    has at most 9 roundings, so with ``u = 2**-53`` the objective evaluated
    at any point of the block, ``A``, ``B``, ``C`` and the bound's own four
    roundings together stray from the exact affine form by at most
    ``34*u*E`` (under ``4e-15*E``). The margin ``1e-12*E`` covers that about
    250 times over, and ``_BOUND_FLOOR`` covers absolute rounding below the
    normal range (2**-1075 per operation, however later factors up to 2**60
    scale it).

    A bound is finite unless ``T`` or the block's ``1 + max|s| + max|c|``
    passes its cap or is NaN (as with any NaN or infinity in ``s``, ``c``
    or the parameters); it is then +inf or NaN, and the block is always
    evaluated. A finite bound thus also means finite values. The objective
    at the middle of the block with the highest finite bound is a floor
    under the maximum. Every block whose bound is not below it is evaluated,
    in index order with a running argmax, in contiguous runs sliced to at
    most ``_GRID_CHUNK`` points; the others hold neither the maximum nor a
    tie with it.
    """

    if grid is None:
        grid = GridSpec()
    p = params
    D, s_all, c_all, blocks = _grid_arrays(p.cost, p.quality, grid)
    f = functools.partial(_objective, p, regime, model, include_entry_premium)
    A = f(0.0, 0.0)
    B = f(1.0, 0.0) - A
    C = f(0.0, 1.0) - A
    margin = _rounding_margin(f)
    with np.errstate(all="ignore"):
        s_top = blocks.s_hi if B >= 0 else blocks.s_lo
        c_top = blocks.c_hi if C >= 0 else blocks.c_lo
        bound = (B * s_top + C * c_top + margin * blocks.mag) + (
            A + (margin + _BOUND_FLOOR)
        )

    ranked = np.where(bound < math.inf, bound, -math.inf)
    top = int(np.argmax(ranked))
    floor = -math.inf
    if ranked[top] > -math.inf:
        i = min(top * _BLOCK + _BLOCK // 2, grid.count - 1)
        floor = f(float(s_all[i]), float(c_all[i]))
    keep = np.flatnonzero(~(bound < floor))
    # contiguous runs of kept blocks
    cuts = np.flatnonzero(keep[1:] - keep[:-1] > 1)
    starts = [int(keep[0]), *keep[cuts + 1].tolist()]
    ends = [*keep[cuts].tolist(), int(keep[-1])]

    idx = -1
    best = math.nan
    for first, last in zip(starts, ends):
        end = (last + 1) * _BLOCK
        for lo in range(first * _BLOCK, min(end, grid.count), _GRID_CHUNK):
            hi = min(lo + _GRID_CHUNK, end)
            value = f(s_all[lo:hi], c_all[lo:hi])
            j = int(np.argmax(value))
            v = float(value[j])
            # a later slice wins only with a NaN or a strictly larger value,
            # and nothing beats an earlier NaN
            if idx < 0 or (best == best and (v != v or v > best)):
                idx, best = lo + j, v
    return GridResult(D_at_max=float(D[idx]), value=best, index=idx, step=grid.step)


def grid_resolves(
    params: ModelParams,
    regime: Regime,
    model: ModelKind,
    grid: GridSpec,
    hit: GridResult,
    D: float,
) -> bool:
    """Whether the grid tells its maximum ``hit`` (with the entry premium)
    apart from its point nearest ``D``: their objective values differ by more
    than the block bounds' rounding margin, ``_BOUND_MARGIN`` times the sum
    of magnitudes (:class:`_Magnitude`) scaled by ``1 + |s| + |c|`` at the
    two points. A steady state with a discount factor near 0 reads flat."""

    _, s, c, _ = _grid_arrays(params.cost, params.quality, grid)
    near = min(max(round((D - grid.lower) / grid.step), 0), grid.count - 1)
    mag = 1.0 + max(abs(s[hit.index]), abs(s[near])) + max(abs(c[hit.index]), abs(c[near]))
    f = functools.partial(_objective, params, regime, model, True)
    margin = _rounding_margin(f) * mag
    return not abs(hit.value - f(float(s[near]), float(c[near]))) <= margin


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


_CELLS = ("h1", "h2", "l1", "l2")

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


@dataclass(frozen=True)
class CellAudit:
    cell: str
    prescribed: Action
    prescribed_value: float
    best_value: float
    attains_max: bool
    selected: Action
    is_selected: bool
    values: dict[Action, float]


@dataclass(frozen=True)
class AuditReport:
    state: OlgState
    profile: ActionProfile
    cells: tuple[CellAudit, ...]
    all_attain: bool
    all_selected: bool


def cell_audits(
    table: dict[str, dict[Action, float]],
) -> dict[str, dict[Action, CellAudit]]:
    """Every cell's audit for every action it could be prescribed.

    A cell's best value, attaining set and tie-broken selection depend on
    the state's :func:`action_table`, not on the profile, so an audit of
    many profiles in one state builds these once and picks one per cell.
    """

    audits = {}
    for cell in _CELLS:
        values = table[cell]
        best = max(values.values())
        attaining = {a for a, val in values.items() if val >= best - _TIE_TOL}
        selected = next(a for a in _SELECTION_PRIORITY if a in attaining)
        audits[cell] = {
            a: CellAudit(
                cell=cell,
                prescribed=a,
                prescribed_value=pv,
                best_value=best,
                attains_max=pv >= best - _TIE_TOL,
                selected=selected,
                is_selected=selected is a,
                values=values,
            )
            for a, pv in values.items()
        }
    return audits


def best_response_audit(
    params: ModelParams,
    D: float,
    state: OlgState,
    profile: ActionProfile,
    p_n: float | None = None,
    p_u: float | None = None,
    audits: dict[str, dict[Action, CellAudit]] | None = None,
) -> AuditReport:
    """Check each cell's prescribed action against its full menu.

    ``attains_max`` is weak attainment within ``_TIE_TOL``; ``is_selected``
    additionally applies the deterministic tie-break (trade-creating actions
    first: sell-and-replace over keeping, buying used over doing nothing),
    which is how binding indifference conditions are resolved.

    ``audits`` may carry :func:`cell_audits` of this state's
    :func:`action_table` at these prices, computed once by a caller
    auditing many profiles; the report then shares its cells.
    """

    if audits is None:
        if p_n is None or p_u is None:
            pr = prices(params, D)
            p_n, p_u = pr.p2n, pr.p2u
        audits = cell_audits(action_table(params, D, p_n, p_u, state))

    h1 = audits["h1"][profile.h1]
    h2 = audits["h2"][profile.h2]
    l1 = audits["l1"][profile.l1]
    l2 = audits["l2"][profile.l2]
    return AuditReport(
        state=state,
        profile=profile,
        cells=(h1, h2, l1, l2),
        all_attain=all((h1.attains_max, h2.attains_max, l1.attains_max, l2.attains_max)),
        all_selected=all((h1.is_selected, h2.is_selected, l1.is_selected, l2.is_selected)),
    )


@dataclass(frozen=True)
class ScanRow:
    state: OlgState
    profile: ActionProfile
    feasibility: FeasibilityReport
    audit: AuditReport

    @property
    def passes(self) -> bool:
        return self.feasibility.passes and self.audit.all_selected


@dataclass(frozen=True)
class ScanResult:
    D: float
    p_n: float
    p_u: float
    rows: tuple[ScanRow, ...]

    @property
    def survivors(self) -> tuple[ScanRow, ...]:
        return tuple(r for r in self.rows if r.passes)

    @property
    def unique_survivor_is_trade_pattern(self) -> bool:
        surv = self.survivors
        return (
            len(surv) == 1
            and surv[0].state is OlgState.HIGH_ONLY
            and surv[0].profile == STEADY_TRADE_PROFILE
        )


@functools.lru_cache(maxsize=None)
def _profiles(state: OlgState) -> tuple[ActionProfile, ...]:
    return tuple(enumerate_profiles(state))


def exhaustive_steady_state_scan(params: ModelParams, D: float) -> ScanResult:
    """Audit all candidate (state, profile) pairs at the posted prices.

    Enumerates every action profile in every start-of-period stock state
    (81 per state), applying the structural feasibility checks and the
    best-response audit. In the active region exactly one pair should
    survive: the high-only stock with the buy/sell-and-replace/used-used
    trade pattern. Prices, constraint slacks and each state's cell audits
    depend only on (params, D, state), so they are computed once per scan
    and shared by the rows.
    """

    pr = prices(params, D)
    slacks = constraint_slacks_olg(params, D)
    rows = []
    for state in OlgState:
        audits = cell_audits(action_table(params, D, pr.p2n, pr.p2u, state))
        for profile in _profiles(state):
            feas = check_steady_state(params, D, state, profile, slacks=slacks)
            audit = best_response_audit(params, D, state, profile, audits=audits)
            rows.append(ScanRow(state=state, profile=profile, feasibility=feas, audit=audit))
    return ScanResult(D=D, p_n=pr.p2n, p_u=pr.p2u, rows=tuple(rows))
