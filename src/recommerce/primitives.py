"""Parameter containers, function families, and shared numeric guards.

Everything downstream (the two-period solver, the overlapping-generations
solver, the comparative-statics engine, the brute-force oracle, the CLI)
consumes the types defined here. All containers are immutable; constructing
one never runs the full admissibility checks, which live in
:func:`validate_params` so that finite-difference probes may briefly step
outside the admissible box.

Durability enters through two one-dimensional function families:

* a production cost ``c(D)`` with ``c(0)=0``, ``c'(0)=0``, ``c'>0``, ``c''>0``,
* a resale quality ``s(D)`` with ``s(0)=0``, ``0 <= s(D) < 1``, ``s'>0``, ``s''<0``.

Each family carries exact closed forms for its value and first two
derivatives; numeric spot checks in :func:`validate_params` guard against a
mistyped derivative.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Union

import numpy as np

__all__ = [
    "DEFAULT_D_MAX",
    "Regime",
    "ModelKind",
    "PowerCost",
    "SaturatingExpQuality",
    "RationalQuality",
    "CostFn",
    "QualityFn",
    "ModelParams",
    "Check",
    "ValidationReport",
    "validate_params",
    "canonical_params",
    "params_from_dict",
    "params_to_dict",
    "is_finite_number",
    "bisect_increasing",
    "bisect_increasing_vec",
    "BracketError",
]

# Upper end of every durability search. Admissible cost families grow fast
# enough that optimal durability sits far inside this bound.
DEFAULT_D_MAX = 10.0

# A constraint slack counts as satisfied down to -_SLACK_TOL.
_SLACK_TOL = 1e-9


def _slacks_hold(slacks: dict[str, float]) -> bool:
    """Whether every constraint slack is at least ``-_SLACK_TOL``."""

    return all(v >= -_SLACK_TOL for v in slacks.values())


class Regime(str, Enum):
    """Who operates the pre-owned marketplace."""

    THIRD_PARTY = "third-party"
    BRANDED = "branded"


class ModelKind(str, Enum):
    """Market horizon: the two-period model or the stationary OLG model."""

    TWO_PERIOD = "two-period"
    OLG = "olg"


# ======================================================================
# function families
# ======================================================================


def _as_array(D) -> tuple[np.ndarray, bool]:
    arr = np.asarray(D, dtype=float)
    scalar = arr.ndim == 0
    # a 0-d input is settled by one float comparison, not a ufunc reduction
    # over a 0-d bool array; NaN and -0.0 pass either way
    if (float(arr) < 0.0) if scalar else (arr < 0.0).any():
        raise ValueError("durability must be nonnegative")
    return arr, scalar


def _maybe_scalar(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


class _Family:
    """The public methods of a function family: :func:`_as_array`'s
    negativity guard, the family's kernel, then a float for a 0-d input.

    The kernels ``_value``, ``_deriv`` and ``_deriv2`` take a float array
    and check nothing. Code that has already checked its whole domain, such
    as a root on [0, d_max], calls them directly.
    """

    def value(self, D):
        arr, scalar = _as_array(D)
        return _maybe_scalar(self._value(arr), scalar)

    def deriv(self, D):
        arr, scalar = _as_array(D)
        return _maybe_scalar(self._deriv(arr), scalar)

    def deriv2(self, D):
        arr, scalar = _as_array(D)
        return _maybe_scalar(self._deriv2(arr), scalar)


@dataclass(frozen=True)
class PowerCost(_Family):
    """Production cost ``c(D) = c0 * D**p`` with ``p > 1``.

    Args:
        c0: positive scale.
        p: exponent, strictly above 1 so that ``c'(0) = 0``.
    """

    c0: float
    p: float

    def __post_init__(self) -> None:
        if not self.c0 > 0.0:
            raise ValueError("PowerCost: c0 must be positive")
        if not self.p > 1.0:
            raise ValueError("PowerCost: exponent must exceed 1")

    def _value(self, arr):
        return self.c0 * arr**self.p

    def _deriv(self, arr):
        return self.c0 * self.p * arr ** (self.p - 1.0)

    def _deriv2(self, arr):
        coef = self.c0 * self.p * (self.p - 1.0)
        if self.p >= 2.0:
            return coef * arr ** (self.p - 2.0)
        # D**(p-2) diverges at the origin for 1 < p < 2
        with np.errstate(divide="ignore"):
            return np.where(arr > 0.0, coef * arr ** (self.p - 2.0), np.inf)


@dataclass(frozen=True)
class SaturatingExpQuality(_Family):
    """Resale quality ``s(D) = s_bar * (1 - exp(-k D))``.

    Args:
        s_bar: saturation level in (0, 1].
        k: positive rate.
    """

    s_bar: float
    k: float

    def __post_init__(self) -> None:
        if not 0.0 < self.s_bar <= 1.0:
            raise ValueError("SaturatingExpQuality: s_bar must lie in (0, 1]")
        if not self.k > 0.0:
            raise ValueError("SaturatingExpQuality: k must be positive")

    def _value(self, arr):
        return self.s_bar * (1.0 - np.exp(-self.k * arr))

    def _deriv(self, arr):
        return self.s_bar * self.k * np.exp(-self.k * arr)

    def _deriv2(self, arr):
        # k * k, not k**2: the float power raises OverflowError above about
        # 1.3e154, where the product is inf
        k2 = self.k * self.k
        return -self.s_bar * k2 * np.exp(-self.k * arr)


@dataclass(frozen=True)
class RationalQuality(_Family):
    """Resale quality ``s(D) = D / (D + k)`` with ``k > 0``."""

    k: float

    def __post_init__(self) -> None:
        if not self.k > 0.0:
            raise ValueError("RationalQuality: k must be positive")

    def _value(self, arr):
        return arr / (arr + self.k)

    def _deriv(self, arr):
        return self.k / (arr + self.k) ** 2

    def _deriv2(self, arr):
        return -2.0 * self.k / (arr + self.k) ** 3


CostFn = PowerCost
QualityFn = Union[SaturatingExpQuality, RationalQuality]


# ======================================================================
# parameters
# ======================================================================


@dataclass(frozen=True)
class ModelParams:
    """Primitive parameters shared by both market models.

    Attributes:
        v_H: valuation of the high type, strictly above v_L.
        v_L: valuation of the low type, strictly positive.
        n_H: mass of high-type customers (per cohort in the OLG model).
        n_L: mass of low-type customers.
        delta: common discount factor in (0, 1).
        alpha: quality-uncertainty deflator applied to used-good buyers, (0, 1].
        beta: marketplace commission charged on used-good sales, [0, 1).
        cost: production cost family.
        quality: resale quality family.
    """

    v_H: float
    v_L: float
    n_H: float
    n_L: float
    delta: float
    alpha: float
    beta: float
    cost: CostFn
    quality: QualityFn


def canonical_params() -> ModelParams:
    """The worked example used throughout the docs and regression tests."""

    return ModelParams(
        v_H=1.0,
        v_L=0.8,
        n_H=0.3,
        n_L=0.7,
        delta=0.9,
        alpha=0.9,
        beta=0.2,
        cost=PowerCost(c0=0.5, p=2.0),
        quality=SaturatingExpQuality(s_bar=1.0, k=1.0),
    )


# ======================================================================
# validation
# ======================================================================


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the admissibility checks for one (params, model) pair."""

    model: ModelKind
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


def validate_params(
    params: ModelParams,
    model: ModelKind = ModelKind.TWO_PERIOD,
    d_max: float = DEFAULT_D_MAX,
) -> ValidationReport:
    """Run every admissibility check and report them individually.

    Scalar range checks are exact; the shape restrictions on the cost and
    quality families are verified both at zero and on a 100-point grid of
    [0, d_max], together with strict monotonicity of the ratio c'/s' that
    makes the durability first-order condition single-crossing.
    """

    checks = _field_report(model, _field_verdicts(params, model))
    return ValidationReport(
        model, checks[:5] + _family_checks(params.cost, params.quality, d_max) + checks[5:]
    )


def _admissible(params: ModelParams, model: ModelKind, d_max: float):
    """``validate_params(params, model, d_max).ok`` elementwise over the
    lanes of a ModelParams with array fields (one family)."""

    family_ok = all(c.passed for c in _family_checks(params.cost, params.quality, d_max))
    return np.logical_and.reduce(_field_verdicts(params, model)) & family_ok


# Names of the checks on the scalar fields, in report order: five shared,
# then the model's; _field_verdicts gives their verdicts in this order.
_SHARED_CHECKS = (
    "valuations_ordered",
    "shares_positive",
    "discount_in_unit_interval",
    "deflator_in_range",
    "commission_in_range",
)
_FIELD_CHECKS = {
    ModelKind.TWO_PERIOD: (*_SHARED_CHECKS, "low_share_exceeds_high"),
    ModelKind.OLG: (*_SHARED_CHECKS, "cohort_shares_sum_to_one", "used_demand_covers_supply"),
}


def _field_verdicts(p: ModelParams, model: ModelKind) -> tuple:
    """The verdicts of ``_FIELD_CHECKS[model]``: bools for a single point,
    one per lane when the fields are arrays."""

    shared = (
        (p.v_H > p.v_L) & (p.v_L > 0.0),
        (p.n_H > 0.0) & (p.n_L > 0.0),
        (0.0 < p.delta) & (p.delta < 1.0),
        (0.0 < p.alpha) & (p.alpha <= 1.0),
        (0.0 <= p.beta) & (p.beta < 1.0),
    )
    if model is ModelKind.TWO_PERIOD:
        return (*shared, p.n_L > p.n_H)
    return (*shared, abs(p.n_H + p.n_L - 1.0) <= 1e-12, 2.0 * p.n_L > p.n_H)


@functools.lru_cache(maxsize=None)
def _field_report(model: ModelKind, verdicts: tuple) -> tuple[Check, ...]:
    """The field checks of one (model, verdicts): checks are frozen, and
    every point with the same verdicts shares them."""

    return tuple(Check(name, bool(v)) for name, v in zip(_FIELD_CHECKS[model], verdicts))


@functools.lru_cache(maxsize=None)
def _check(name: str, passed: bool) -> Check:
    """The one :class:`Check` of a (name, verdict): checks are frozen, so
    the shape checks of every family share them."""

    return Check(name, passed)


@functools.lru_cache(maxsize=64)
def _family_checks(cost: CostFn, quality: QualityFn, d_max: float) -> tuple[Check, ...]:
    """Shape checks of one cost/quality pair on a 100-point grid of [0, d_max].

    They depend on nothing else, and the families are frozen, so they run
    once per (cost, quality, d_max), evaluating each family once on the
    grid. A huge ``d_max`` overflows the grid; the checks it breaks fail,
    without NumPy warnings on stderr. The grid lies in [0, d_max], so one
    check of ``d_max`` guards it and the family kernels evaluate it.
    """

    _as_array(d_max)
    grid = _check_grid(d_max)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cv, cd, cdd = cost._value(grid), cost._deriv(grid), cost._deriv2(grid)
        sv, sd, sdd = quality._value(grid), quality._deriv(grid), quality._deriv2(grid)
        crossing = (np.diff(cd / sd) > 0.0).all()
    return (
        _check("cost_zero_at_origin", bool(cv[0] == 0.0 and cd[0] == 0.0)),
        _check("cost_strictly_increasing", bool((cd[1:] > 0.0).all())),
        _check("cost_strictly_convex", bool((cdd[1:] > 0.0).all())),
        _check("quality_zero_at_origin", bool(sv[0] == 0.0)),
        _check("quality_below_one", bool((sv < 1.0).all())),
        _check("quality_strictly_increasing", bool((sd > 0.0).all())),
        _check("quality_strictly_concave", bool((sdd < 0.0).all())),
        _check("foc_single_crossing", bool(crossing)),
    )


@functools.lru_cache(maxsize=8)
def _check_grid(d_max: float) -> np.ndarray:
    """The read-only 100-point grid of [0, d_max] of :func:`_family_checks`."""

    grid = np.linspace(0.0, d_max, 100)
    grid.flags.writeable = False
    return grid


# ======================================================================
# config ingestion
# ======================================================================

_COST_FAMILIES = {"power": PowerCost}
_QUALITY_FAMILIES = {
    "saturating_exp": SaturatingExpQuality,
    "rational": RationalQuality,
}


def is_finite_number(value) -> bool:
    """The one rule for a numeric config value: a finite int or float, not a bool."""

    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _config_float(value, label: str) -> float:
    if not is_finite_number(value):
        raise ValueError(f"{label} must be a finite number, found {value!r}")
    return float(value)


def _family_from_dict(payload: dict, registry: dict, label: str):
    if not isinstance(payload, dict):
        raise ValueError(f"{label}: expected an object with a 'family' key")
    data = dict(payload)
    family = data.pop("family", None)
    if family not in registry:
        raise ValueError(
            f"{label}: unknown family {family!r}; expected one of {sorted(registry)}"
        )
    cls = registry[family]
    expected = {f.name for f in fields(cls)}
    unknown = set(data) - expected
    if unknown:
        raise ValueError(f"{label}: unknown keys {sorted(unknown)}")
    missing = expected - set(data)
    if missing:
        raise ValueError(f"{label}: missing keys {sorted(missing)}")
    return cls(**{k: _config_float(v, f"{label}.{k}") for k, v in data.items()})


_SCALAR_FIELDS = ("v_H", "v_L", "n_H", "n_L", "delta", "alpha", "beta")


def params_from_dict(payload: dict) -> ModelParams:
    """Build :class:`ModelParams` from a parsed config mapping.

    Unknown keys are rejected rather than ignored so that typos fail loudly.
    """

    if not isinstance(payload, dict):
        raise ValueError("params: expected an object")
    data = dict(payload)
    cost = _family_from_dict(data.pop("cost", None), _COST_FAMILIES, "params.cost")
    quality = _family_from_dict(
        data.pop("quality", None), _QUALITY_FAMILIES, "params.quality"
    )
    unknown = set(data) - set(_SCALAR_FIELDS)
    if unknown:
        raise ValueError(f"params: unknown keys {sorted(unknown)}")
    missing = set(_SCALAR_FIELDS) - set(data)
    if missing:
        raise ValueError(f"params: missing keys {sorted(missing)}")
    scalars = {k: _config_float(data[k], f"params.{k}") for k in _SCALAR_FIELDS}
    return ModelParams(cost=cost, quality=quality, **scalars)


def params_to_dict(params: ModelParams) -> dict:
    """Inverse of :func:`params_from_dict` (round-trips exactly)."""

    def family_payload(fn) -> dict:
        for name, cls in {**_COST_FAMILIES, **_QUALITY_FAMILIES}.items():
            if type(fn) is cls:
                out = {"family": name}
                out.update({f.name: getattr(fn, f.name) for f in fields(fn)})
                return out
        raise ValueError(f"unregistered function family {type(fn)!r}")

    out = {k: getattr(params, k) for k in _SCALAR_FIELDS}
    out["cost"] = family_payload(params.cost)
    out["quality"] = family_payload(params.quality)
    return out


# ======================================================================
# root finding
# ======================================================================


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


# Levels of the midpoint tree in the first call of ``f``: its 2**6 - 1
# midpoints and the two ends of the bracket.
_PROBE_LEVELS = 6

# The child index of a probe midpoint that has no evaluated child.
_NO_CHILD = sys.maxsize


def bisect_increasing(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    xtol: float = 1e-10,
) -> float:
    """Bisection root of an increasing function with f(lo) < 0 < f(hi).

    This plain bisection is the canonical root-finder for every first-order
    condition in the package; tests freeze its output, so the iteration is
    deliberately simple and deterministic. It returns the midpoint of a
    bracket at most ``xtol`` wide, so the root lies within ``xtol`` of it.

    ``f`` must be elementwise: it is called on a float array, and each entry
    must equal ``f`` at that point alone. One call evaluates the midpoints
    the bisection would visit if its decisions followed an estimate of the
    root (the first levels of the midpoint tree, then the path towards an
    inverse quadratic interpolation through the bracket's ends and the end
    replaced last), and the loop takes each decision from ``f`` at its exact
    midpoint. A wrong estimate costs one more call from the verified
    bracket, never a different midpoint, so the result equals the
    one-point-at-a-time bisection for any elementwise ``f`` (non-monotone or
    NaN-valued too), with about 4 calls of ``f`` instead of about 40.
    """

    probe, points, kids = _probe_tree(lo, hi, xtol)
    flo, fhi, *values = f(probe).tolist()
    if flo >= 0.0:
        if flo == 0.0:
            return lo
        raise BracketError(f"f({lo}) = {flo} is not negative")
    if fhi <= 0.0:
        if fhi == 0.0:
            return hi
        raise BracketError(f"f({hi}) = {fhi} is not positive")
    # the end replaced last: the third point of the estimate
    last, flast = lo, flo
    while True:
        # points[i] is the walk's midpoint; the next one is a child in the
        # tree, and the path's next point while the decision is the guess's
        i, n = 0, len(points)
        while i < n:
            mid, fmid = points[i], values[i]
            if fmid < 0.0:
                last, flast, lo, flo = lo, flo, mid, fmid
            else:
                last, flast, hi, fhi = hi, fhi, mid, fmid
            if kids is not None:
                i = kids[i][fmid < 0.0]
            elif (fmid < 0.0) == (mid < guess):
                i += 1
            else:
                break
        mid = 0.5 * (lo + hi)
        if not hi - lo > xtol or mid <= lo or mid >= hi:  # not splittable
            return 0.5 * (lo + hi)
        # the estimate was wrong: a new path, starting at mid
        guess = _root_estimate(lo, flo, hi, fhi, last, flast)
        if guess is None:
            _, points, kids = _probe_tree(lo, hi, xtol)
        else:
            points, kids = _path_midpoints(lo, hi, xtol, guess), None
        values = f(np.array(points, dtype=float)).tolist()


@functools.lru_cache(maxsize=16)
def _probe_tree(
    lo: float, hi: float, xtol: float
) -> tuple[np.ndarray, tuple[float, ...], tuple[tuple[int, int], ...]]:
    """The first call's read-only float array ``(lo, hi, *points)``; the
    ``points``, every midpoint the bisection of [lo, hi] can visit in its
    first ``_PROBE_LEVELS`` steps, level by level; and the (left, right)
    child index of each. Cached: the package's roots share a few brackets."""

    points: list[float] = []
    kids: list[list[int]] = []
    brackets = [(lo, hi, [0], 0)]  # a bracket, its parent's kids, its side
    for _ in range(_PROBE_LEVELS):
        children = []
        for a, b, parent, side in brackets:
            mid = 0.5 * (a + b)
            if b - a > xtol and not (mid <= a or mid >= b):
                parent[side] = len(points)
                points.append(mid)
                kids.append([_NO_CHILD, _NO_CHILD])
                children += [(a, mid, kids[-1], 0), (mid, b, kids[-1], 1)]
        brackets = children
    probe = np.array((lo, hi, *points), dtype=float)
    probe.flags.writeable = False
    return probe, tuple(points), tuple(map(tuple, kids))


def _root_estimate(
    lo: float, flo: float, hi: float, fhi: float, x: float, fx: float
) -> float | None:
    """An estimate of the root inside (lo, hi): the inverse quadratic
    interpolation through (lo, flo), (hi, fhi) and (x, fx), else the secant
    of the two ends; None if neither lies strictly inside.

    The values are Python floats: a zero denominator, which would raise, is
    skipped, and an infinite or NaN value makes the interpolation NaN.
    """

    d_lo = (flo - fhi) * (flo - fx)
    d_hi = (fhi - flo) * (fhi - fx)
    d_x = (fx - flo) * (fx - fhi)
    if d_lo != 0.0 and d_hi != 0.0 and d_x != 0.0:
        guess = lo * fhi * fx / d_lo + hi * flo * fx / d_hi + x * flo * fhi / d_x
        if lo < guess < hi:
            return guess
    if fhi != flo:
        guess = lo - flo * (hi - lo) / (fhi - flo)
        if lo < guess < hi:
            return guess
    return None


def _path_midpoints(lo: float, hi: float, xtol: float, guess: float) -> list[float]:
    """The midpoints the bisection of [lo, hi] visits, in order, if ``f``
    is negative exactly below ``guess``."""

    points = []
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        points.append(mid)
        if mid < guess:
            lo = mid
        else:
            hi = mid
    return points


def bisect_increasing_vec(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    n: int,
) -> np.ndarray:
    """Vectorized counterpart of :func:`bisect_increasing` at its default
    ``xtol = 1e-10``.

    Runs ``n`` independent bisections that share the bracket [lo, hi]; ``f``
    maps an array of midpoints to an array of residuals. The arithmetic per
    lane matches the scalar routine exactly (same bracket, same midpoint
    sequence), so mixed scalar/vector use cannot drift. The first levels,
    where no lane can stop, step every lane in lockstep; the last levels
    mask the lanes that have stopped.
    """

    los = np.full(n, lo, dtype=float)
    his = np.full(n, hi, dtype=float)
    # While every bracket is wider than 1e-10 and than 4 float spacings of
    # the bracket's largest magnitude, every lane is active and its midpoint
    # lies strictly inside it, so all lanes step without the mask.
    reach = max(abs(lo), abs(hi))
    floor = max(1e-10, 4.0 * float(np.spacing(reach)))
    if not 2.0 * reach < math.inf:  # the ends' sum can overflow, or an end is NaN
        floor = math.nan
    while n and (his - los).min() > floor:
        mids = 0.5 * (los + his)
        neg = f(mids) < 0.0
        los = np.where(neg, mids, los)
        his = np.where(neg, his, mids)
    while True:
        mids = 0.5 * (los + his)
        active = (his - los > 1e-10) & (mids > los) & (mids < his)
        if not np.any(active):
            break
        vals = f(mids)
        neg = vals < 0.0
        los = np.where(active & neg, mids, los)
        his = np.where(active & ~neg, mids, his)
    return 0.5 * (los + his)
