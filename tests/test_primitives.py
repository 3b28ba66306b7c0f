import dataclasses
import importlib
import math
import pkgutil

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
from recommerce.primitives import _family_checks, bisect_increasing_vec


# ----------------------------------------------------------------------
# function families
# ----------------------------------------------------------------------


def test_power_cost_triple_at_zero():
    c = PowerCost(c0=0.5, p=2.0)
    assert c.eval_triple(0.0) == (0.0, 0.0, 1.0)


def test_power_cost_values():
    c = PowerCost(c0=0.5, p=2.0)
    assert c.value(2.0) == pytest.approx(2.0)
    assert c.deriv(3.0) == pytest.approx(3.0)
    assert c.deriv2(7.0) == pytest.approx(1.0)


def test_saturating_quality_triple_at_zero():
    q = SaturatingExpQuality(s_bar=1.0, k=1.0)
    assert q.eval_triple(0.0) == (0.0, 1.0, -1.0)


def test_rational_quality_triple():
    q = RationalQuality(k=1.0)
    v, d1, d2 = q.eval_triple(1.0)
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
        cv, cd, cdd = cost.eval_triple(grid)
        sv, sd, sdd = quality.eval_triple(grid)
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


@pytest.mark.parametrize("d_max", [10.0, 1e3, 1e300])
@pytest.mark.parametrize(
    "family",
    [
        (PowerCost(0.5, 2.0), SaturatingExpQuality(1.0, 1.0)),
        (PowerCost(0.5, 1.5), RationalQuality(1.0)),
        (PowerCost(2.0, 3.0), SaturatingExpQuality(0.9, 0.2)),
    ],
)
def test_shape_checks_are_unchanged_and_run_once(canonical, family, d_max):
    cost, quality = family
    params = dataclasses.replace(canonical, cost=cost, quality=quality)
    _family_checks.cache_clear()
    for model in ModelKind:
        checks = validate_params(params, model, d_max).checks
        names = [c.name for c in checks]
        assert names[:5] == [
            "valuations_ordered", "shares_positive", "discount_in_unit_interval",
            "deflator_in_range", "commission_in_range",
        ]
        shape = [(c.name, c.passed) for c in checks[5:13]]
        assert shape == _reference_shape_checks(cost, quality, d_max)
        assert checks[12].detail == "c'/s' must increase strictly"
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
    root = bisect_increasing(lambda x: math.expm1(x) - 1.0, 0.0, 5.0, xtol=1e-12)
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
