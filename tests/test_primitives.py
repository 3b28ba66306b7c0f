import dataclasses
import importlib
import math
import pkgutil
import warnings

import numpy as np
import pytest

import recommerce
from recommerce import (
    BracketError,
    ModelKind,
    PowerCost,
    RationalQuality,
    SaturatingExpQuality,
    bisect_increasing,
    canonical_params,
    params_from_dict,
    params_to_dict,
    validate_params,
)
from recommerce import olg, primitives, statics
from recommerce import two_period as tp
from recommerce.primitives import Regime, _family_checks, bisect_increasing_vec
from references import ORACLE_FAMILIES

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property tests below are not collected
    given = None


# ----------------------------------------------------------------------
# function families
# ----------------------------------------------------------------------


def triple(fn, D):
    return fn.value(D), fn.deriv(D), fn.deriv2(D)


def test_power_cost_triple_at_zero():
    c = PowerCost(c0=0.5, p=2.0)
    assert triple(c, 0.0) == (0.0, 0.0, 1.0)


def test_power_cost_values():
    c = PowerCost(c0=0.5, p=2.0)
    assert c.value(2.0) == pytest.approx(2.0)
    assert c.deriv(3.0) == pytest.approx(3.0)
    assert c.deriv2(7.0) == pytest.approx(1.0)


def test_saturating_quality_triple_at_zero():
    q = SaturatingExpQuality(s_bar=1.0, k=1.0)
    assert triple(q, 0.0) == (0.0, 1.0, -1.0)


def test_rational_quality_triple():
    q = RationalQuality(k=1.0)
    v, d1, d2 = triple(q, 1.0)
    assert v == pytest.approx(0.5)
    assert d1 == pytest.approx(0.25)
    assert d2 == pytest.approx(-0.25)


@pytest.mark.parametrize(
    "fn",
    [
        PowerCost(c0=0.5, p=2.0),
        PowerCost(c0=0.2, p=3.0),
        PowerCost(c0=1.0, p=1.5),
        SaturatingExpQuality(s_bar=1.0, k=1.0),
        SaturatingExpQuality(s_bar=0.8, k=2.5),
        RationalQuality(k=1.0),
        RationalQuality(k=0.3),
    ],
)
def test_derivatives_match_finite_differences(fn):
    h = 1e-6
    for d in np.linspace(0.05, 4.0, 23):
        fd1 = (fn.value(d + h) - fn.value(d - h)) / (2 * h)
        fd2 = (fn.deriv(d + h) - fn.deriv(d - h)) / (2 * h)
        assert fn.deriv(d) == pytest.approx(fd1, rel=1e-5)
        assert fn.deriv2(d) == pytest.approx(fd2, rel=1e-5)


def test_families_vectorized():
    d = np.linspace(0.0, 3.0, 7)
    for fn in (PowerCost(0.5, 2.0), SaturatingExpQuality(1.0, 1.0), RationalQuality(1.0)):
        vals = fn.value(d)
        assert isinstance(vals, np.ndarray) and vals.shape == d.shape
        assert fn.deriv(d).shape == d.shape


def test_negative_durability_rejected():
    for fn in (PowerCost(0.5, 2.0), SaturatingExpQuality(1.0, 1.0), RationalQuality(1.0)):
        with pytest.raises(ValueError):
            fn.value(-0.1)


def test_negative_entries_rejected_in_scalars_and_arrays():
    arr = np.array([0.0, 0.3, -1e-300, 2.0])
    for fn in (PowerCost(0.5, 1.5), SaturatingExpQuality(1.0, 1.0), RationalQuality(1.0)):
        for method in (fn.value, fn.deriv, fn.deriv2):
            with pytest.raises(ValueError, match="nonnegative"):
                method(-1e-300)
            with pytest.raises(ValueError, match="nonnegative"):
                method(arr)
            # every 0-d kind of negative input takes the same guard
            for negative in (np.float64(-1e-300), np.asarray(-1e-300), -1):
                with pytest.raises(ValueError, match="nonnegative"):
                    method(negative)
            # -0.0, inf and NaN are not negative: they pass the guard, as
            # before; what the formula then makes of them is not checked here
            for passing in (-0.0, math.inf, math.nan):
                with np.errstate(all="ignore"):
                    assert type(method(passing)) is float
            for zero_d in (0.5, np.float64(0.5), np.asarray(0.5), 1):
                assert type(method(zero_d)) is float
        # NaN is not negative: it passes the guard, as before
        assert math.isnan(fn.deriv(math.nan))


# durabilities a kernel may meet on a checked domain, and the edge cases
# the guard lets through: zeros of both signs, subnormals, inf and NaN
_KERNEL_EDGES = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, math.inf, math.nan]
_FAMILY_FNS = list(dict.fromkeys(fn for family in ORACLE_FAMILIES for fn in family))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_kernels_equal_methods(fn, D):
    """Each kernel on the guarded float array equals its public method bit
    for bit; a 0-d input gives a float from the method."""

    arr = np.asarray(D, dtype=float)
    for name in ("value", "deriv", "deriv2"):
        with np.errstate(all="ignore"):
            public, kernel = getattr(fn, name)(D), getattr(fn, "_" + name)(arr)
        if arr.ndim == 0:
            assert type(public) is float
        assert _same_bits(kernel, public), (fn, name, D)


@pytest.mark.parametrize("fn", _FAMILY_FNS, ids=repr)
def test_kernels_equal_public_methods_on_edge_cases(fn):
    for D in _KERNEL_EDGES:
        for zero_d in (D, np.float64(D), np.asarray(D)):
            _assert_kernels_equal_methods(fn, zero_d)
    _assert_kernels_equal_methods(fn, np.array(_KERNEL_EDGES + [0.3, 2.0, 1e300]))
    _assert_kernels_equal_methods(fn, np.array([]))
    _assert_kernels_equal_methods(fn, np.linspace(0.0, 10.0, 12).reshape(3, 4))


if given is not None:
    _durabilities = st.floats(min_value=0.0) | st.sampled_from(_KERNEL_EDGES)

    @settings(max_examples=200, deadline=None)
    @given(
        fn=st.sampled_from(_FAMILY_FNS),
        D=_durabilities,
        lanes=st.lists(_durabilities, max_size=40),
    )
    def test_kernels_equal_public_methods(fn, D, lanes):
        _assert_kernels_equal_methods(fn, D)
        _assert_kernels_equal_methods(fn, np.array(lanes, dtype=float))


def test_family_constructor_guards():
    # exponent must exceed 1 so marginal cost vanishes at the origin
    with pytest.raises(ValueError):
        PowerCost(c0=0.5, p=1.0)
    with pytest.raises(ValueError):
        PowerCost(c0=0.5, p=0.5)
    with pytest.raises(ValueError):
        PowerCost(c0=0.0, p=2.0)
    with pytest.raises(ValueError):
        SaturatingExpQuality(s_bar=1.2, k=1.0)
    with pytest.raises(ValueError):
        SaturatingExpQuality(s_bar=0.0, k=1.0)
    with pytest.raises(ValueError):
        SaturatingExpQuality(s_bar=0.9, k=0.0)
    with pytest.raises(ValueError):
        RationalQuality(k=0.0)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def test_canonical_passes_both_models(canonical):
    for model in ModelKind:
        report = validate_params(canonical, model)
        assert report.ok, report.failures()


def test_valuations_must_be_ordered(canonical):
    bad = dataclasses.replace(canonical, v_L=1.0)
    report = validate_params(bad)
    assert not report.ok
    assert "valuations_ordered" in [c.name for c in report.failures()]


def test_two_period_needs_thick_low_segment(canonical):
    bad = dataclasses.replace(canonical, n_H=0.55, n_L=0.45)
    assert not validate_params(bad, ModelKind.TWO_PERIOD).ok
    # the steady-state model only needs the used market covered
    assert validate_params(bad, ModelKind.OLG).ok


def test_discount_and_deflator_ranges(canonical):
    assert not validate_params(dataclasses.replace(canonical, delta=1.0)).ok
    assert not validate_params(dataclasses.replace(canonical, delta=0.0)).ok
    assert not validate_params(dataclasses.replace(canonical, alpha=0.0)).ok
    assert validate_params(dataclasses.replace(canonical, alpha=1.0)).ok
    assert not validate_params(dataclasses.replace(canonical, beta=1.0)).ok
    assert validate_params(dataclasses.replace(canonical, beta=0.0)).ok


def test_failure_report_names_each_check(canonical):
    bad = dataclasses.replace(canonical, v_L=1.0, delta=1.5)
    failures = [c.name for c in validate_params(bad).failures()]
    assert "valuations_ordered" in failures
    assert "discount_in_unit_interval" in failures


def _reference_shape_checks(cost, quality, d_max):
    # the grid checks as validate_params ran them on every call
    grid = np.linspace(0.0, d_max, 100)
    with np.errstate(all="ignore"):
        cv, cd, cdd = triple(cost, grid)
        sv, sd, sdd = triple(quality, grid)
        return [
            ("cost_zero_at_origin", bool(cv[0] == 0.0 and cd[0] == 0.0)),
            ("cost_strictly_increasing", bool(np.all(cd[1:] > 0.0))),
            ("cost_strictly_convex", bool(np.all(cost.deriv2(grid[1:]) > 0.0))),
            ("quality_zero_at_origin", bool(sv[0] == 0.0)),
            ("quality_below_one", bool(np.all(sv < 1.0))),
            ("quality_strictly_increasing", bool(np.all(sd > 0.0))),
            ("quality_strictly_concave", bool(np.all(sdd < 0.0))),
            ("foc_single_crossing", bool(np.all(np.diff(cd / sd) > 0.0))),
        ]


@pytest.mark.parametrize("d_max", [10.0, 1e3, 1e300, 1e-300])
@pytest.mark.parametrize(
    "family",
    [
        (PowerCost(0.5, 2.0), SaturatingExpQuality(1.0, 1.0)),
        (PowerCost(0.5, 1.5), RationalQuality(1.0)),
        (PowerCost(2.0, 3.0), SaturatingExpQuality(0.9, 0.2)),
        # c'' through its np.where branch; k*k overflows; D + k rounds to D
        (PowerCost(0.5, 1.05), SaturatingExpQuality(1.0, 1e155)),
        (PowerCost(0.5, 1.05), RationalQuality(1e-300)),
    ],
)
def test_shape_checks_are_unchanged_and_run_once(canonical, family, d_max):
    cost, quality = family
    params = dataclasses.replace(canonical, cost=cost, quality=quality)
    _family_checks.cache_clear()
    for model in ModelKind:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks = validate_params(params, model, d_max).checks
        names = [c.name for c in checks]
        assert names[:5] == [
            "valuations_ordered", "shares_positive", "discount_in_unit_interval",
            "deflator_in_range", "commission_in_range",
        ]
        shape = [(c.name, c.passed) for c in checks[5:13]]
        assert shape == _reference_shape_checks(cost, quality, d_max)
        assert len(checks) == (14 if model is ModelKind.TWO_PERIOD else 15)
    info = _family_checks.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# ----------------------------------------------------------------------
# serialization round trip
# ----------------------------------------------------------------------


def test_params_round_trip(canonical):
    d = params_to_dict(canonical)
    back = params_from_dict(d)
    assert back == canonical
    assert params_to_dict(back) == d


def test_params_round_trip_rational(canonical):
    p = dataclasses.replace(canonical, quality=RationalQuality(k=0.7))
    assert params_from_dict(params_to_dict(p)) == p


def test_unknown_top_level_key_rejected(canonical):
    d = params_to_dict(canonical)
    d["extra"] = 1.0
    with pytest.raises(ValueError):
        params_from_dict(d)


def test_unknown_family_field_rejected(canonical):
    d = params_to_dict(canonical)
    d["cost"]["gamma"] = 2.0
    with pytest.raises(ValueError):
        params_from_dict(d)


def test_missing_key_rejected(canonical):
    d = params_to_dict(canonical)
    del d["v_L"]
    with pytest.raises(ValueError):
        params_from_dict(d)


def test_unknown_family_tag_rejected(canonical):
    d = params_to_dict(canonical)
    d["quality"]["family"] = "spline"
    with pytest.raises(ValueError):
        params_from_dict(d)


def test_invalid_family_parameters_rejected_via_dict(canonical):
    d = params_to_dict(canonical)
    d["cost"]["p"] = 1.0
    with pytest.raises(ValueError):
        params_from_dict(d)


# ----------------------------------------------------------------------
# root bracketing
# ----------------------------------------------------------------------


def test_bisect_linear_root():
    root = bisect_increasing(lambda x: x - 2.5, 0.0, 10.0)
    assert root == pytest.approx(2.5, abs=1e-9)


def test_bisect_exact_endpoints():
    assert bisect_increasing(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect_increasing(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_bisect_requires_bracket():
    with pytest.raises(BracketError):
        bisect_increasing(lambda x: x + 1.0, 0.0, 1.0)


def test_bisect_tolerance():
    root = bisect_increasing(lambda x: np.expm1(x) - 1.0, 0.0, 5.0, xtol=1e-12)
    assert root == pytest.approx(math.log(2.0), abs=1e-10)


def test_vectorized_bisection_matches_scalar():
    targets = np.array([0.5, 1.0, 2.0, 3.5])

    def f(mids):
        return mids**2 - targets

    roots = bisect_increasing_vec(f, 0.0, 4.0, targets.size)
    for i, t in enumerate(targets):
        scalar = bisect_increasing(lambda x, t=t: x**2 - t, 0.0, 4.0)
        assert roots[i] == scalar


# ----------------------------------------------------------------------
# bisect_increasing against the one-point-at-a-time bisection
# ----------------------------------------------------------------------


def _reference_bisect(f, lo, hi, xtol=1e-10):
    """The plain bisection, one scalar call of ``f`` per point: the body
    ``bisect_increasing`` had before it evaluated predicted midpoints in
    batches. ``bisect_increasing`` must return exactly what it returns."""

    flo = f(lo)
    fhi = f(hi)
    if flo >= 0.0:
        if flo == 0.0:
            return lo
        raise BracketError(f"f({lo}) = {flo} is not negative")
    if fhi <= 0.0:
        if fhi == 0.0:
            return hi
        raise BracketError(f"f({hi}) = {fhi} is not positive")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval no longer splittable
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _outcome(fn):
    """The root as its type and exact text (NaN and -0.0 included), or the
    BracketError message."""

    try:
        root = fn()
    except BracketError as exc:
        return ("error", str(exc))
    return ("root", type(root).__name__, repr(root))


def _assert_same_as_reference(f, lo, hi, xtol=1e-10):
    got = _outcome(lambda: bisect_increasing(f, lo, hi, xtol))
    assert got == _outcome(lambda: _reference_bisect(f, lo, hi, xtol))
    return got


def _elementwise(g):
    """``g`` on a float array, and a NumPy scalar on one point."""

    return lambda x: g(np.asarray(x, dtype=float))[()]


FOC_FAMILIES = [
    (PowerCost(c0=c0, p=p), quality)
    for c0, p in [(0.5, 2.0), (0.1, 1.05), (2.0, 4.0), (0.7, 1.5), (1.3, 3.0)]
    for quality in [
        SaturatingExpQuality(s_bar=1.0, k=1.0),
        SaturatingExpQuality(s_bar=0.6, k=3.0),
        RationalQuality(k=0.3),
        RationalQuality(k=3.0),
    ]
]


def _slope_with_root_at(params, D):
    """The slope whose durability condition has its root at ``D``."""

    return params.cost.deriv(D) / params.quality.deriv(D)


def _foc_slopes(params):
    """Both models' and regimes' slopes at three points, the social slope,
    nonpositive slopes, and slopes with roots near (and on either side of)
    the bracket ends 1e-12 and d_max = 10."""

    slopes = [0.0, -0.1]
    for v_L, alpha, beta in [(0.8, 0.9, 0.2), (0.75, 0.95, 0.05), (0.95, 0.95, 0.2)]:
        point = dataclasses.replace(params, v_L=v_L, alpha=alpha, beta=beta)
        slopes.append(point.delta / (1.0 + point.delta) * point.v_L)
        for model in ModelKind:
            for regime in Regime:
                slopes.append(tp.durability_condition(point, model, regime)[1])
    for D in [1e-13, 5e-13, 1e-12, 3e-12, 1e-6, 9.999999, 10.0, 10.000001, 30.0]:
        slopes += [_slope_with_root_at(params, D) * (1.0 + e) for e in (-1e-9, 0.0, 1e-9)]
    return slopes


@pytest.mark.parametrize("cost,quality", FOC_FAMILIES)
def test_foc_roots_equal_reference(canonical, cost, quality):
    # both brackets of solve_foc: [1e-12, d_max] and the fallback [0, 1e-12]
    params = dataclasses.replace(canonical, cost=cost, quality=quality)
    outcomes = set()
    for slope in _foc_slopes(params):
        residual = tp.foc_residual(params, slope)
        outcomes.add(_assert_same_as_reference(residual, 1e-12, 10.0)[0])
        _assert_same_as_reference(residual, 0.0, 1e-12)
    assert outcomes == {"root", "error"}


def _reference_cap_boundary(params, hi):
    """``olg._cap_boundary`` before it was elementwise: the slack read from
    ``constraint_slacks_olg`` and the plain bisection."""

    def slack(D):
        return olg.constraint_slacks_olg(params, D)["ratio_cap"]

    if slack(hi) >= 0.0:
        return hi
    if slack(0.0) < 0.0:
        return 0.0
    return _reference_bisect(lambda d: -slack(d), 0.0, hi, xtol=1e-12)


@pytest.mark.parametrize("quality", [SaturatingExpQuality(1.0, 1.0), RationalQuality(0.5)])
def test_cap_boundary_equals_reference(cap_failure, quality):
    params = dataclasses.replace(cap_failure, quality=quality)
    solved = [olg.solve_olg(params, regime).D_star for regime in Regime]
    bisected = 0
    for v_L in [0.8, 0.9, 0.93, 0.95, 0.97, 0.99]:
        point = dataclasses.replace(params, v_L=v_L)
        for hi in [*solved, 1e-6, 0.05, 0.3, 1.0, 4.0, 10.0]:
            got = olg._cap_boundary(point, hi)
            assert repr(got) == repr(_reference_cap_boundary(point, hi))
            bisected += 0.0 < got < hi
    assert bisected >= 10


def test_bisect_midpoint_with_exact_zero_residual():
    # 2.5 is the third midpoint of [0, 10]; f is exactly 0 there and the
    # walk takes it as the new upper end
    _assert_same_as_reference(lambda x: x - 2.5, 0.0, 10.0)
    _assert_same_as_reference(lambda x: x - 2.5, 0.0, 10.0, xtol=1e-300)
    _assert_same_as_reference(lambda x: np.maximum(x - 2.5, 0.0) - 1e-300, 0.0, 10.0)


def test_bisect_with_nan_on_part_of_the_bracket():
    # NaN compares false, so it moves the upper end like a positive value
    for cut in [0.3, 1.7, 3.14, 7.9]:
        f = _elementwise(lambda x, cut=cut: np.where((x > cut) & (x < 9.5), np.nan, x - 5.0))
        _assert_same_as_reference(f, 0.0, 10.0)
    f = _elementwise(lambda x: np.where(x > 2.0, np.nan, x - 5.0))
    _assert_same_as_reference(f, 0.0, 10.0)  # NaN at hi passes the checks
    _assert_same_as_reference(_elementwise(lambda x: x * np.nan), 0.0, 1.0)


def test_bisect_where_the_estimate_has_zero_denominators():
    # the first estimate of a root at 1.7 in [0, 10] uses the ends 1.5625,
    # 1.71875 and the end replaced last, 1.875; equal values there give zero
    # denominators, infinite ones a NaN estimate: it falls back to the
    # secant or the tree and raises nothing
    def at(points, value, g):
        return lambda x: np.where(np.isin(x, points), value, g(x))

    cases = [
        lambda x: np.where(x < 3.3, -1.0, 1.0),
        lambda x: np.where(x < 0.7, -2.0, np.where(x < 5.0, 0.0, 1.0)),
        lambda x: np.floor(x) - 6.5,
        at([1.875], np.inf, lambda x: x - 1.7),
        at([1.5625], -np.inf, lambda x: x - 1.7),
        at([1.5625, 1.71875], -np.inf, at([1.875], np.inf, lambda x: x - 1.7)),
        at([1.71875, 1.875], np.inf, lambda x: np.where(x < 1.7, -1.0, 1.0)),
        lambda x: np.where(x < 3.3, -np.inf, np.inf),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in cases:
            for xtol in (1e-10, 0.0):
                _assert_same_as_reference(_elementwise(g), 0.0, 10.0, xtol)


def test_bisect_with_huge_and_infinite_values():
    # the estimate overflows or is NaN; the walk's decisions do not use it
    for g in [
        lambda x: 1e308 * np.tanh(x - 3.3),
        lambda x: np.where(x > 3.3, np.inf, -np.inf),
        lambda x: np.where(x > 3.3, 1.0, -np.inf),
    ]:
        _assert_same_as_reference(_elementwise(g), 0.0, 10.0)


def test_bisect_non_monotone_function():
    f = _elementwise(lambda x: np.sin(7.0 * x) + 0.1 * x - 0.05)
    for lo, hi in [(0.0, 10.0), (0.1, 5.3), (0.0, 1.2)]:
        _assert_same_as_reference(f, lo, hi)
    saw = _elementwise(lambda x: np.mod(x, 0.37) - 0.2 + 1e-3 * x)
    _assert_same_as_reference(saw, 0.05, 9.0, xtol=1e-13)


@pytest.mark.parametrize("value", [-1.0, 0.0, 1.0, math.nan])
def test_bisect_degenerate_bracket(value):
    got = _assert_same_as_reference(_elementwise(lambda x: x * 0.0 + value), 2.0, 2.0)
    assert got[0] == ("error" if value in (-1.0, 1.0) else "root")


if given is not None:

    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(["saturating", "rational"]),
        c0=st.floats(0.05, 3.0),
        p=st.floats(1.05, 4.0),
        s_bar=st.floats(0.6, 1.0),
        k=st.floats(0.3, 3.0),
        log_root=st.floats(-14.0, 2.0),
        nudge=st.sampled_from([-1e-6, 0.0, 1e-9]),
    )
    def test_foc_roots_equal_reference_over_families(family, c0, p, s_bar, k, log_root, nudge):
        # a slope whose root lies at 10**log_root: below, at and above both
        # ends of the bracket [1e-12, 10]
        quality = SaturatingExpQuality(s_bar, k) if family == "saturating" else RationalQuality(k)
        params = dataclasses.replace(canonical_params(), cost=PowerCost(c0, p), quality=quality)
        slope = _slope_with_root_at(params, 10.0**log_root) * (1.0 + nudge)
        residual = tp.foc_residual(params, slope)
        _assert_same_as_reference(residual, 1e-12, 10.0)
        _assert_same_as_reference(residual, 0.0, 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.floats(0.5, 40.0),
        b=st.floats(-3.0, 3.0),
        c=st.floats(-1.0, 1.0),
        d=st.floats(-1.0, 1.0),
        lo=st.floats(-5.0, 5.0),
        width=st.floats(0.0, 10.0),
        nan_from=st.floats(-5.0, 20.0) | st.just(math.inf),
        xtol=st.sampled_from([1e-10, 1e-12, 1e-3, 0.0]),
    )
    def test_bisect_equals_reference_on_any_elementwise_function(
        a, b, c, d, lo, width, nan_from, xtol
    ):
        # non-monotone, with NaN above nan_from; most draws bracket nothing
        # and must raise the same error, the rest take the same midpoints
        f = _elementwise(
            lambda x: np.where(x < nan_from, np.sin(a * x + b) + c * x + d, np.nan)
        )
        _assert_same_as_reference(f, lo, lo + width, xtol)


def test_roots_take_few_batched_residual_calls(canonical, monkeypatch):
    # the canonical point's social slope and its margin-active (model,
    # regime) slopes, and a seed-42 foc_pool per cell
    slopes = [(canonical, canonical.delta / (1.0 + canonical.delta) * canonical.v_L)]
    for model in ModelKind:
        for regime in Regime:
            for p in [canonical, *statics.foc_pool(10, 42, model, regime)]:
                margin, slope = tp.durability_condition(p, model, regime)
                if margin > 0.0:
                    slopes.append((p, slope))
    assert len(slopes) >= 42

    arguments = []
    real = tp.foc_residual

    def counting(params, slope):
        residual = real(params, slope)

        def counted(D):
            arguments.append(D)
            return residual(D)

        return counted

    monkeypatch.setattr(tp, "foc_residual", counting)
    for params, slope in slopes:
        assert 0.0 < tp.solve_foc(params, slope) < 10.0
    assert all(type(D) is np.ndarray for D in arguments)
    assert len(arguments) < 3.5 * len(slopes)


def test_roots_and_family_checks_check_the_domain_once(canonical, monkeypatch):
    # the points of a root and of the check grid lie in [0, d_max], so one
    # check of d_max guards them; the family kernels take them unchecked
    checked = []
    real = primitives._as_array

    def counting(D):
        checked.append(D)
        return real(D)

    monkeypatch.setattr(primitives, "_as_array", counting)
    monkeypatch.setattr(tp, "_as_array", counting)
    _, slope = tp.durability_condition(canonical, ModelKind.TWO_PERIOD, Regime.BRANDED)
    for call in [
        lambda: tp.solve_foc(canonical, slope, 10.0),
        lambda: tp.solve_foc(canonical, np.array([slope, 0.5 * slope]), 10.0),
        lambda: _family_checks(canonical.cost, canonical.quality, 10.0),
    ]:
        _family_checks.cache_clear()
        checked.clear()
        call()
        assert checked == [10.0]


@pytest.mark.parametrize("d_max", [-1.0, -5e-324])
def test_negative_d_max_raises_the_guard_error(canonical, olg_feasible, d_max):
    _, slope = tp.durability_condition(canonical, ModelKind.TWO_PERIOD, Regime.BRANDED)
    calls = [
        lambda: validate_params(canonical, d_max=d_max),
        lambda: validate_params(canonical, ModelKind.OLG, d_max=d_max),
        lambda: tp.solve_foc(canonical, slope, d_max),
        lambda: tp.solve_foc(canonical, np.array([slope, 0.5 * slope]), d_max),
        lambda: tp.optimal_durability(canonical, Regime.THIRD_PARTY, d_max),
        lambda: tp.social_optimal_durability(canonical, d_max),
        lambda: tp.solve(canonical, Regime.BRANDED, d_max),
        lambda: olg.solve_olg(olg_feasible, Regime.THIRD_PARTY, d_max),
    ]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert type(err.value) is ValueError
        assert str(err.value) == "durability must be nonnegative"


# ----------------------------------------------------------------------
# package exports
# ----------------------------------------------------------------------


def test_every_exported_name_resolves():
    modules = [recommerce] + [
        importlib.import_module(f"recommerce.{info.name}")
        for info in pkgutil.iter_modules(recommerce.__path__)
    ]
    assert len(modules) > 5
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
