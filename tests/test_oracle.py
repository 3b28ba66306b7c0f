import collections
import dataclasses
import functools

import numpy as np
import pytest

from recommerce import (
    Action,
    GridSpec,
    ModelKind,
    OlgState,
    Regime,
    STEADY_TRADE_PROFILE,
    best_response_audit,
    discounted_stream,
    exhaustive_steady_state_scan,
    grid_argmax_profit,
    objective_value,
    per_period_profit,
    prices,
    profit,
    solve,
    solve_olg,
)
from recommerce import oracle
from recommerce.olg import (
    OLG_CONSTRAINT_NAMES,
    ActionProfile,
    check_steady_state,
    constraint_slacks_olg,
    enumerate_profiles,
)
from recommerce.oracle import (
    GridResult,
    ScanRow,
    action_table,
    action_value,
    selected_actions,
)
from recommerce.primitives import (
    _SLACK_TOL,
    DEFAULT_D_MAX,
    ModelParams,
    PowerCost,
    RationalQuality,
    SaturatingExpQuality,
    validate_params,
)
from recommerce.statics import (
    DEFAULT_BOX,
    _draw_row,
    _stack,
    _take,
    foc_pool,
    margin_active,
    olg_pool,
    sample_filtered,
)
from references import truncated_stream, truncated_stream_error_bound

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property tests below are not collected
    given = None

T = Regime.THIRD_PARTY
B = Regime.BRANDED


def profit_total(params, regime, D):
    return profit(params, regime, D).total


def posted_prices(params, D):
    pr = prices(params, D)
    return pr.p2n, pr.p2u


# ----------------------------------------------------------------------
# grid search
# ----------------------------------------------------------------------


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(count=1)
    with pytest.raises(ValueError):
        GridSpec(lower=1.0, upper=1.0)
    with pytest.raises(ValueError):
        GridSpec(lower=2.0, upper=1.0, count=10)


def test_grid_spec_step():
    g = GridSpec(lower=0.0, upper=10.0, count=101)
    assert g.step == pytest.approx(0.1)
    pts = g.points()
    assert pts[0] == 0.0 and pts[-1] == 10.0
    assert len(pts) == 101


@pytest.mark.parametrize("regime", [T, B])
def test_grid_matches_first_order_solution_two_period(canonical, regime):
    sol = solve(canonical, regime)
    res = grid_argmax_profit(
        canonical, regime, ModelKind.TWO_PERIOD, GridSpec(count=100_000)
    )
    assert abs(res.D_at_max - sol.D_star) <= res.step
    assert res.value == pytest.approx(sol.profit_total, abs=1e-6)


@pytest.mark.parametrize("regime", [T, B])
def test_grid_matches_first_order_solution_olg(olg_feasible, regime):
    sol = solve_olg(olg_feasible, regime)
    res = grid_argmax_profit(
        olg_feasible, regime, ModelKind.OLG, GridSpec(count=100_000)
    )
    assert abs(res.D_at_max - sol.D_star) <= res.step
    assert res.value == pytest.approx(sol.objective_value, abs=1e-6)


def written_objective(p, regime, model, s, c):
    """The grid objective, written out apart from the oracle's."""

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


def one_shot_grid_argmax(params, regime, model, grid=None, arrays=None):
    """The grid oracle as one full-length ``np.argmax``: fresh D, s(D) and
    c(D) (or the given ``arrays``), ``B*s + C*c`` over the whole grid at
    once with ``B`` and ``C`` of the written-out objective, and that
    objective at the argmax."""

    if grid is None:
        grid = GridSpec()
    if arrays is None:
        D = grid.points()
        s = params.quality.value(D)
        c = params.cost.value(D)
    else:
        D, s, c = arrays
    f = functools.partial(written_objective, params, regime, model)
    B, C = oracle._coefficients(f)
    idx = int(np.argmax(B * s + C * c))
    return GridResult(
        D_at_max=float(D[idx]), value=f(float(s[idx]), float(c[idx])), index=idx, step=grid.step
    )


def assert_same_hit(got, want):
    assert (got.index, got.D_at_max, got.value) == (want.index, want.D_at_max, want.value)
    assert got.step == want.step
    # scalar params give plain Python numbers, as oracle_check.json reads them
    assert (type(got.index), type(got.D_at_max), type(got.value)) == (int, float, float)


# every (model, regime) objective the grid writes out
OBJECTIVES = [(m, r) for m in ModelKind for r in Regime]
# (model, regime, active): the seed-42 draws of each objective whose margin
# is positive (the foc pool), or not: there the coefficient of s is the
# margin times a positive factor, so it is negative
POOLS = [(m, r, active) for m, r in OBJECTIVES for active in (True, False)]


@pytest.fixture(scope="module")
def seed42_pools():
    pools = {}
    for k, (model, regime) in enumerate(OBJECTIVES):

        def shut(p, model=model, regime=regime):
            return validate_params(p, model).ok and not margin_active(p, model, regime)

        pools[model, regime, True] = foc_pool(40, 42, model, regime)
        pools[model, regime, False] = sample_filtered(40, (42, 5, k), shut)
    return pools


@pytest.mark.parametrize(
    "model,regime,active", POOLS, ids=lambda v: getattr(v, "value", str(v))
)
def test_chunked_grid_equals_one_shot_on_foc_pools(seed42_pools, model, regime, active):
    grid = GridSpec(0.0, DEFAULT_D_MAX, 100_000)
    for params in seed42_pools[model, regime, active]:
        B, _ = oracle._coefficients(functools.partial(written_objective, params, regime, model))
        assert (B > 0.0) == active
        got = grid_argmax_profit(params, regime, model, grid)
        want = one_shot_grid_argmax(params, regime, model, grid)
        assert_same_hit(got, want)


# a span of 64 blocks, to place grid sizes, ties and NaNs far apart
CHUNK = 8_192
BLOCK = oracle._BLOCK


GRID_SIZES = [BLOCK - 1, BLOCK, BLOCK + 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7, 100_000]


@pytest.mark.parametrize("count", GRID_SIZES)
def test_chunked_grid_equals_one_shot_across_grid_sizes(seed42_pools, count):
    grid = GridSpec(0.0, DEFAULT_D_MAX, count)
    for model, regime, active in POOLS:
        for params in seed42_pools[model, regime, active][:5]:
            got = grid_argmax_profit(params, regime, model, grid)
            want = one_shot_grid_argmax(params, regime, model, grid)
            assert_same_hit(got, want)


@pytest.mark.parametrize(
    "ties,nans,expected",
    [
        # a maximum on both sides of a span boundary: the first wins
        ((CHUNK - 1, CHUNK + 5, 2 * CHUNK), (), CHUNK - 1),
        # and on both sides of a block boundary, and in blocks far apart
        ((5 * BLOCK, BLOCK, BLOCK - 1), (), BLOCK - 1),
        ((2 * CHUNK + 3 * BLOCK, 7 * BLOCK + 1), (), 7 * BLOCK + 1),
        # the whole grid ties
        ((), (), 0),
        # a NaN in a later span than the maximum wins, as in np.argmax
        ((3,), (CHUNK + 2,), CHUNK + 2),
        # the first NaN wins over later maxima and later NaNs
        ((2 * CHUNK,), (CHUNK - 2, CHUNK + 1, 2 * CHUNK + 3), CHUNK - 2),
    ],
    ids=[
        "tie-across-boundary", "tie-across-block-boundary", "tie-far-apart",
        "flat", "nan-after-max", "first-nan",
    ],
)
def test_chunk_fold_takes_first_index(monkeypatch, canonical, ties, nans, expected):
    grid = GridSpec(0.0, 1.0, 3 * CHUNK)
    D = grid.points()
    s = np.full(grid.count, 0.25)
    c = np.full(grid.count, 0.25)
    c[list(ties)] = 0.0  # every objective falls in c at fixed s
    c[list(nans)] = np.nan
    monkeypatch.setattr(
        oracle, "_grid_arrays", lambda cost, quality, g: (D, s, c, oracle._Blocks.of(s, c))
    )
    for model, regime in OBJECTIVES:
        got = grid_argmax_profit(canonical, regime, model, grid)
        assert got.index == expected
        assert got.D_at_max == D[expected]
        assert (got.value == got.value) == (not nans)


def test_cached_grid_arrays_are_read_only(canonical):
    grid = GridSpec(0.0, DEFAULT_D_MAX, 1_000)
    arrays = oracle._grid_arrays(canonical.cost, canonical.quality, grid)
    assert oracle._grid_arrays(canonical.cost, canonical.quality, grid) is arrays
    for arr, want in zip(
        arrays,
        (grid.points(), canonical.quality.value(grid.points()), canonical.cost.value(grid.points())),
    ):
        assert not arr.flags.writeable
        np.testing.assert_array_equal(arr, want)
        with pytest.raises(ValueError):
            arr[0] = 1.0


# ----------------------------------------------------------------------
# branch and bound: every result equals the full sweep's
# ----------------------------------------------------------------------


# the family the draws use, exponents 1.5 (c'' diverges at 0) and 3, and the
# rational quality curve
FAMILIES = [
    (PowerCost(c0=0.5, p=2.0), SaturatingExpQuality(s_bar=1.0, k=1.0)),
    (PowerCost(c0=0.5, p=1.5), SaturatingExpQuality(s_bar=1.0, k=1.0)),
    (PowerCost(c0=0.5, p=3.0), RationalQuality(k=1.0)),
    (PowerCost(c0=0.8, p=2.5), RationalQuality(k=0.5)),
]


@pytest.mark.parametrize(
    "family", FAMILIES, ids=lambda f: f"{f[0].p}-{type(f[1]).__name__}"
)
def test_pruned_grid_equals_one_shot_on_every_family(seed42_pools, family):
    cost, quality = family
    grid = GridSpec(0.0, DEFAULT_D_MAX, 100_000)
    for model, regime, active in POOLS:
        for params in seed42_pools[model, regime, active][:10]:
            params = dataclasses.replace(params, cost=cost, quality=quality)
            got = grid_argmax_profit(params, regime, model, grid)
            want = one_shot_grid_argmax(params, regime, model, grid)
            assert_same_hit(got, want)


@pytest.mark.parametrize("delta", [1e-9, 1e-12, 1e-300, 1e-320])
def test_pruned_grid_equals_one_shot_on_flat_objectives(canonical, delta):
    # the OLG objectives are n_H*v_H + O(delta); at a subnormal delta their
    # coefficients B and C keep few bits, so g = B*s + C*c is flat to
    # rounding near its peak and the first of the tied points must win
    params = dataclasses.replace(canonical, delta=delta)
    grid = GridSpec(0.0, DEFAULT_D_MAX, 100_000)
    for model, regime in OBJECTIVES:
        got = grid_argmax_profit(params, regime, model, grid)
        want = one_shot_grid_argmax(params, regime, model, grid)
        assert_same_hit(got, want)


_NON_FINITE = {
    # name: ({index: s value}, {index: c value}); a NaN or an infinity in s
    # makes the objective NaN there, with NumPy's invalid-value warning
    "c-minus-inf": ({}, {5000: -np.inf}),
    "c-minus-inf-twice": ({}, {9 * BLOCK + 3: -np.inf, 2 * BLOCK: -np.inf}),
    "c-plus-inf": ({}, {0: np.inf, 4 * BLOCK: np.inf}),
    "c-nan-after-minus-inf": ({}, {BLOCK: -np.inf, 3 * CHUNK: np.nan}),
    "c-nan-block": ({}, {i: np.nan for i in range(6 * BLOCK, 7 * BLOCK)}),
    "c-plus-inf-block": ({}, {i: np.inf for i in range(2 * BLOCK, 3 * BLOCK)}),
    "s-nan": ({2 * CHUNK + 5: np.nan}, {}),
    "s-plus-inf": ({700: np.inf}, {}),
    "s-minus-inf-and-c-nan": ({CHUNK + 1: -np.inf}, {CHUNK: np.nan}),
    "s-huge": ({300: 1e200, 301: -1e200}, {}),
}


@pytest.mark.parametrize("case", _NON_FINITE)
def test_pruned_grid_equals_one_shot_on_non_finite_families(
    monkeypatch, olg_feasible, case
):
    grid = GridSpec(0.0, DEFAULT_D_MAX, 3 * CHUNK + 7)
    D = grid.points()
    s = olg_feasible.quality.value(D)
    c = olg_feasible.cost.value(D)
    s_edits, c_edits = _NON_FINITE[case]
    s[list(s_edits)] = list(s_edits.values())
    c[list(c_edits)] = list(c_edits.values())
    monkeypatch.setattr(
        oracle, "_grid_arrays", lambda cost, quality, g: (D, s, c, oracle._Blocks.of(s, c))
    )
    for model, regime in OBJECTIVES:
        with np.errstate(invalid="ignore" if s_edits else "raise"):
            got = grid_argmax_profit(olg_feasible, regime, model, grid)
            want = one_shot_grid_argmax(olg_feasible, regime, model, grid, arrays=(D, s, c))
        assert (got.index, got.D_at_max, got.step) == (want.index, want.D_at_max, want.step)
        assert got.value == want.value or (got.value != got.value and want.value != want.value)


@pytest.mark.parametrize("zero", [0, 1], ids=["B", "C"])
def test_zero_coefficient_keeps_the_nan_of_an_infinity(monkeypatch, olg_feasible, zero):
    # 0 * -inf is NaN although the block's upper extreme is finite: the
    # block must still be evaluated, so that its NaN wins
    grid = GridSpec(0.0, DEFAULT_D_MAX, 3 * CHUNK + 7)
    D = grid.points()
    s = olg_feasible.quality.value(D)
    c = olg_feasible.cost.value(D)
    (s, c)[zero][5000] = -np.inf
    coefficients = oracle._coefficients
    monkeypatch.setattr(
        oracle, "_grid_arrays", lambda cost, quality, g: (D, s, c, oracle._Blocks.of(s, c))
    )
    monkeypatch.setattr(
        oracle, "_coefficients",
        lambda f: tuple(0.0 if i == zero else k for i, k in enumerate(coefficients(f))),
    )
    for model, regime in OBJECTIVES:
        with np.errstate(invalid="ignore"):
            got = grid_argmax_profit(olg_feasible, regime, model, grid)
            want = one_shot_grid_argmax(olg_feasible, regime, model, grid, arrays=(D, s, c))
        assert got.index == want.index == 5000


def test_margin_covers_rounding_on_constant_grids(monkeypatch, seed42_pools):
    # s and c constant over the grid: every point takes the same value, which
    # each block's bound must not fall below, so the first point wins
    grid = GridSpec(0.0, 1.0, 2 * BLOCK + 1)
    D = grid.points()
    rng = np.random.default_rng(42)
    for s0, c0 in rng.uniform(0.0, 3.0, (25, 2)):
        s, c = np.full(grid.count, s0), np.full(grid.count, c0)
        monkeypatch.setattr(
        oracle, "_grid_arrays", lambda cost, quality, g: (D, s, c, oracle._Blocks.of(s, c))
    )
        for model, regime, active in POOLS:
            for params in seed42_pools[model, regime, active][:10]:
                got = grid_argmax_profit(params, regime, model, grid)
                assert got.index == 0


def test_pruned_grid_evaluates_under_5_percent_of_the_grid(monkeypatch, seed42_pools):
    evaluated = []
    g = oracle._g

    def counted(B, C, s, c):
        evaluated[-1] += np.size(s) if isinstance(s, np.ndarray) else 1
        return g(B, C, s, c)

    monkeypatch.setattr(oracle, "_g", counted)
    grid = GridSpec(0.0, DEFAULT_D_MAX, 100_000)
    for model, regime in OBJECTIVES:
        for params in seed42_pools[model, regime, True]:
            evaluated.append(0)
            grid_argmax_profit(params, regime, model, grid)
    assert len(evaluated) == 4 * 40
    assert 0 < max(evaluated) < 0.05 * grid.count


def test_block_extremes_are_cached_read_only(canonical):
    grid = GridSpec(0.0, DEFAULT_D_MAX, 1_000)
    _, s, c, blocks = oracle._grid_arrays(canonical.cost, canonical.quality, grid)
    assert oracle._grid_arrays(canonical.cost, canonical.quality, grid)[3] is blocks
    starts = range(0, grid.count, BLOCK)
    for x_lo, x_hi, x in ((blocks.s_lo, blocks.s_hi, s), (blocks.c_lo, blocks.c_hi, c)):
        assert list(x_lo) == [min(x[i : i + BLOCK]) for i in starts]
        assert list(x_hi) == [max(x[i : i + BLOCK]) for i in starts]
    for arr in (blocks.s_lo, blocks.s_hi, blocks.c_lo, blocks.c_hi):
        assert not arr.flags.writeable


# ----------------------------------------------------------------------
# lanes: array parameter fields search every draw at once
# ----------------------------------------------------------------------


def assert_lanes_equal_one_shot(params, regime, model, grid, arrays=None):
    """Every lane of the search over stacked ``params`` equals the one-shot
    search of its own row, bit for bit; a NaN value equals a NaN."""

    got = grid_argmax_profit(params, regime, model, grid)
    assert got.index.shape == got.D_at_max.shape == got.value.shape == params.alpha.shape
    assert got.step == grid.step
    if arrays is None:
        D = grid.points()
        arrays = (D, params.quality.value(D), params.cost.value(D))
    for i in range(len(params.alpha)):
        want = one_shot_grid_argmax(_draw_row(params, i), regime, model, grid, arrays)
        assert (got.index[i], got.D_at_max[i]) == (want.index, want.D_at_max)
        value = got.value[i]
        assert value == want.value or (value != value and want.value != want.value)


@pytest.mark.parametrize("count", GRID_SIZES)
@pytest.mark.parametrize(
    "family", FAMILIES, ids=lambda f: f"{f[0].p}-{type(f[1]).__name__}"
)
def test_lanes_equal_one_shot_on_every_family_and_grid_size(seed42_pools, family, count):
    cost, quality = family
    grid = GridSpec(0.0, DEFAULT_D_MAX, count)
    for model, regime, active in POOLS:
        lanes = _stack(seed42_pools[model, regime, active])
        lanes = dataclasses.replace(lanes, cost=cost, quality=quality)
        assert_lanes_equal_one_shot(lanes, regime, model, grid)


def test_lanes_beyond_one_group_and_one_lane_and_none(seed42_pools):
    grid = GridSpec(0.0, DEFAULT_D_MAX, 100_000)
    every = _stack([p for pool in seed42_pools.values() for p in pool])
    assert len(every.alpha) > BLOCK
    for model, regime in OBJECTIVES:
        assert_lanes_equal_one_shot(every, regime, model, grid)
        assert_lanes_equal_one_shot(_take(every, slice(1)), regime, model, grid)
        assert_lanes_equal_one_shot(_take(every, slice(0)), regime, model, grid)


@pytest.mark.parametrize("count", [5_000, 100_000])
def test_lane_arrays_are_no_larger_than_the_grid(monkeypatch, seed42_pools, canonical, count):
    # lanes are bounded in groups whose (lanes, blocks) arrays fit in one grid
    # array and in BLOCK**2 elements; lanes whose objective is flat to
    # rounding keep every block
    grid = GridSpec(0.0, DEFAULT_D_MAX, count)
    flat = [dataclasses.replace(canonical, delta=d) for d in (1e-9, 1e-12, 1e-300, 1e-320)]
    lanes = _stack([*seed42_pools[ModelKind.OLG, T, True], *flat] * 5)
    sizes = []
    first_argmax = oracle._first_argmax

    def recorded(B, C, s, c, blocks):
        sizes.append(B.size * blocks.s_lo.size)
        return first_argmax(B, C, s, c, blocks)

    monkeypatch.setattr(oracle, "_first_argmax", recorded)
    for model, regime in OBJECTIVES:
        assert_lanes_equal_one_shot(lanes, regime, model, grid)
    blocks = -(-grid.count // BLOCK)
    assert len(sizes) > len(OBJECTIVES)
    assert max(sizes) <= min(blocks, BLOCK) * BLOCK < grid.count + BLOCK


def non_finite_lanes(params):
    """``params`` and variants of it, the margin positive in some and not in
    others, so that the coefficient of s takes both signs."""

    lanes = _stack(
        [dataclasses.replace(params, v_L=v, beta=b) for v in (0.4, 0.6, 0.75) for b in (0.05, 0.3)]
    )
    for model, regime in OBJECTIVES:
        B, _ = oracle._coefficients(functools.partial(written_objective, lanes, regime, model))
        assert (B > 0.0).any() and (B < 0.0).any()
    return lanes


@pytest.mark.parametrize("case", _NON_FINITE)
def test_lanes_equal_one_shot_on_non_finite_families(monkeypatch, olg_feasible, case):
    grid = GridSpec(0.0, DEFAULT_D_MAX, 3 * CHUNK + 7)
    D = grid.points()
    s = olg_feasible.quality.value(D)
    c = olg_feasible.cost.value(D)
    s_edits, c_edits = _NON_FINITE[case]
    s[list(s_edits)] = list(s_edits.values())
    c[list(c_edits)] = list(c_edits.values())
    monkeypatch.setattr(
        oracle, "_grid_arrays", lambda cost, quality, g: (D, s, c, oracle._Blocks.of(s, c))
    )
    lanes = non_finite_lanes(olg_feasible)
    for model, regime in OBJECTIVES:
        with np.errstate(invalid="ignore" if s_edits else "raise"):
            assert_lanes_equal_one_shot(lanes, regime, model, grid, arrays=(D, s, c))


@pytest.mark.parametrize("zero", [0, 1], ids=["B", "C"])
def test_lanes_keep_the_nan_of_an_infinity_times_zero(monkeypatch, olg_feasible, zero):
    # the coefficient is zero in the lanes with beta above 0.1 alone, so
    # lanes reach the infinity by different roads, or not at all
    grid = GridSpec(0.0, DEFAULT_D_MAX, 3 * CHUNK + 7)
    D = grid.points()
    s = olg_feasible.quality.value(D)
    c = olg_feasible.cost.value(D)
    (s, c)[zero][5000] = -np.inf
    coefficients = oracle._coefficients

    def zeroed(f):
        k = list(coefficients(f))
        k[zero] = np.where(f.args[0].beta > 0.1, 0.0, k[zero])
        return tuple(k)

    monkeypatch.setattr(
        oracle, "_grid_arrays", lambda cost, quality, g: (D, s, c, oracle._Blocks.of(s, c))
    )
    monkeypatch.setattr(oracle, "_coefficients", zeroed)
    lanes = non_finite_lanes(olg_feasible)
    for model, regime in OBJECTIVES:
        with np.errstate(invalid="ignore"):
            assert_lanes_equal_one_shot(lanes, regime, model, grid, arrays=(D, s, c))
            hits = grid_argmax_profit(lanes, regime, model, grid).index
        # 0 * -inf is NaN in the zeroed lanes; B * -inf is -inf where B > 0
        assert (hits[lanes.beta > 0.1] == 5000).all()
        if zero == 0:
            assert (hits != 5000).any()


if given is not None:

    @settings(max_examples=60, deadline=None)
    @given(
        u=st.tuples(*[st.floats(0.0, 1.0)] * 5),
        c0=st.floats(0.05, 3.0),
        p=st.floats(1.05, 4.0),
        s_bar=st.floats(0.6, 1.0),
        k=st.floats(0.3, 3.0),
        rational=st.booleans(),
        objective=st.sampled_from(OBJECTIVES),
        count=st.sampled_from([2, BLOCK + 1, 1_000, 20_000]),
    )
    def test_pruned_grid_equals_one_shot_over_the_box(
        u, c0, p, s_bar, k, rational, objective, count
    ):
        box = DEFAULT_BOX
        bounds = (box.n_H, box.v_L, box.delta, box.alpha, box.beta)
        n_h, v_l, delta, alpha, beta = (lo + (hi - lo) * x for (lo, hi), x in zip(bounds, u))
        params = ModelParams(
            v_H=1.0, v_L=v_l, n_H=n_h, n_L=1.0 - n_h, delta=delta, alpha=alpha, beta=beta,
            cost=PowerCost(c0=c0, p=p),
            quality=RationalQuality(k=k) if rational else SaturatingExpQuality(s_bar=s_bar, k=k),
        )
        model, regime = objective
        grid = GridSpec(0.0, DEFAULT_D_MAX, count)
        got = grid_argmax_profit(params, regime, model, grid)
        want = one_shot_grid_argmax(params, regime, model, grid)
        assert_same_hit(got, want)


def test_grid_shutdown_pins_zero(canonical):
    # negative margins push the argmax to the zero-durability corner
    weak = dataclasses.replace(canonical, v_L=0.4)
    for model in (ModelKind.TWO_PERIOD, ModelKind.OLG):
        res = grid_argmax_profit(weak, T, model, GridSpec(count=5_000))
        assert res.index == 0
        assert res.D_at_max == 0.0


@pytest.mark.parametrize(
    "model,objective",
    [
        (ModelKind.TWO_PERIOD, profit_total),
        (ModelKind.OLG, objective_value),
    ],
)
def test_objective_single_peaked_on_grid(canonical, olg_feasible, model, objective):
    params = canonical if model is ModelKind.TWO_PERIOD else olg_feasible
    ds = np.linspace(0.0, 2.0, 401)
    vals = np.array([objective(params, B, float(d)) for d in ds])
    k = int(np.argmax(vals))
    diffs = np.diff(vals)
    assert np.all(diffs[:k] > 0)
    assert np.all(diffs[k:] < 0)


# ----------------------------------------------------------------------
# truncated stream cross-check
# ----------------------------------------------------------------------


def test_one_period_truncation(canonical):
    for regime in (T, B):
        got = truncated_stream(canonical, regime, 0.3, horizon=1)
        want = canonical.delta * per_period_profit(canonical, regime, 0.3)
        assert got == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("delta,horizon", [(0.5, 50), (0.9, 500)])
def test_truncation_error_within_bound(canonical, delta, horizon):
    p = dataclasses.replace(canonical, delta=delta)
    for regime in (T, B):
        closed = discounted_stream(p, regime, 0.4)
        trunc = truncated_stream(p, regime, 0.4, horizon=horizon)
        bound = truncated_stream_error_bound(p, horizon)
        assert abs(trunc - closed) <= bound * abs(closed)


def test_error_bound_decays_with_horizon(canonical):
    b10 = truncated_stream_error_bound(canonical, 10)
    b100 = truncated_stream_error_bound(canonical, 100)
    assert b100 < b10
    assert b100 > 0.0


# ----------------------------------------------------------------------
# action valuations
# ----------------------------------------------------------------------


def test_action_values_match_closed_forms(canonical):
    p = canonical
    d = 0.12
    s = p.quality.value(d)
    p_n, p_u = posted_prices(p, d)
    st = OlgState.HIGH_ONLY

    def val(cell, action):
        return action_value(p, d, p_n, p_u, st, cell, action)

    # old high owner
    assert val("h2", Action.SELL_AND_BUY_NEW) == p.v_H - p_n + (1 - p.beta) * p_u
    assert val("h2", Action.KEEP_USED) == p.v_H * s
    assert val("h2", Action.DO_NOTHING) == 0.0
    # old low, no unit to sell: buying used is valued with the deflator
    assert val("l2", Action.BUY_USED) == p.alpha * p.v_L * s - p_u
    assert val("l2", Action.BUY_NEW) == p.v_L - p_n
    # young high carries the better continuation into old age
    cont = max(p.v_H - p_n + (1 - p.beta) * p_u, p.v_H * s)
    assert val("h1", Action.BUY_NEW) == p.v_H - p_n + p.delta * cont
    # young high values a used unit at full quality, no deflator
    assert val("h1", Action.BUY_USED) == p.v_H * s - p_u
    # young low
    cont_l = max(p.v_L - p_n + (1 - p.beta) * p_u, p.v_L * s)
    assert val("l1", Action.BUY_NEW) == p.v_L - p_n + p.delta * cont_l
    assert val("l1", Action.BUY_USED) == p.alpha * p.v_L * s - p_u


def test_old_low_used_purchase_breaks_even(canonical):
    # the posted used price extracts the old low cohort's full surplus
    d = 0.12
    p_n, p_u = posted_prices(canonical, d)
    got = action_value(
        canonical, d, p_n, p_u, OlgState.HIGH_ONLY, "l2", Action.BUY_USED
    )
    assert got == 0.0


def test_owner_actions_degrade_for_young_cells(canonical):
    # in the saturated state young cells face owner menus with nothing to sell
    d = 0.12
    p_n, p_u = posted_prices(canonical, d)
    sell = action_value(
        canonical, d, p_n, p_u, OlgState.ALL, "l1", Action.SELL_AND_BUY_NEW
    )
    buy = action_value(canonical, d, p_n, p_u, OlgState.ALL, "l1", Action.BUY_NEW)
    assert sell == buy
    keep = action_value(
        canonical, d, p_n, p_u, OlgState.HIGH_ONLY, "l1", Action.KEEP_USED
    )
    assert keep == 0.0


# ----------------------------------------------------------------------
# best-response audit
# ----------------------------------------------------------------------


def attains(values, action):
    """Whether ``action`` falls short of the cell's best value by at most
    the audit's tie tolerance."""

    return values[action] >= max(values.values()) - oracle._TIE_TOL


def test_trade_profile_audit_passes(canonical):
    table = action_table(canonical, 0.12, *posted_prices(canonical, 0.12), OlgState.HIGH_ONLY)
    assert list(table) == ["h1", "h2", "l1", "l2"]
    assert all(attains(table[cell], STEADY_TRADE_PROFILE.get(cell)) for cell in table)
    selected = selected_actions(table)
    assert selected == STEADY_TRADE_PROFILE
    assert best_response_audit(
        canonical, 0.12, OlgState.HIGH_ONLY, STEADY_TRADE_PROFILE, selected
    ) is True


def test_indifferent_keeper_attains_but_not_selected(canonical):
    # at candidate prices old highs are exactly indifferent; the tie-break
    # sends the unit to the used market
    keepers = dataclasses.replace(STEADY_TRADE_PROFILE, h2=Action.KEEP_USED)
    table = action_table(canonical, 0.12, *posted_prices(canonical, 0.12), OlgState.HIGH_ONLY)
    assert attains(table["h2"], Action.KEEP_USED)
    selected = selected_actions(table)
    assert selected.h2 is Action.SELL_AND_BUY_NEW
    assert best_response_audit(canonical, 0.12, OlgState.HIGH_ONLY, keepers, selected) is False


def test_bad_action_fails_attainment(canonical):
    clunker = dataclasses.replace(STEADY_TRADE_PROFILE, l2=Action.BUY_NEW)
    table = action_table(canonical, 0.12, *posted_prices(canonical, 0.12), OlgState.HIGH_ONLY)
    assert not attains(table["l2"], Action.BUY_NEW)
    selected = selected_actions(table)
    assert best_response_audit(canonical, 0.12, OlgState.HIGH_ONLY, clunker, selected) is False


def test_audit_honors_price_overrides(canonical):
    # a discounted used price hands the old low cohort strict surplus, and
    # old highs, who resell for less, now keep their units
    d = 0.12
    p_n, p_u = posted_prices(canonical, d)
    state = OlgState.HIGH_ONLY
    table = action_table(canonical, d, p_n, p_u - 0.01, state)
    assert table["l2"][Action.BUY_USED] == pytest.approx(0.01)
    selected = selected_actions(table)
    assert selected.l2 is Action.BUY_USED
    assert selected.h2 is Action.KEEP_USED
    posted = selected_actions(action_table(canonical, d, p_n, p_u, state))
    assert best_response_audit(canonical, d, state, STEADY_TRADE_PROFILE, posted) is True
    assert best_response_audit(canonical, d, state, STEADY_TRADE_PROFILE, selected) is False


# ----------------------------------------------------------------------
# exhaustive scan
# ----------------------------------------------------------------------


def test_scan_is_exhaustive(canonical):
    res = exhaustive_steady_state_scan(canonical, 0.12)
    assert len(res.rows) == 3 * 81
    p_n, p_u = posted_prices(canonical, 0.12)
    assert res.p_n == p_n and res.p_u == p_u


def test_scan_unique_survivor_at_canonical(canonical):
    res = exhaustive_steady_state_scan(canonical, 0.12)
    assert res.unique_survivor_is_trade_pattern
    (row,) = res.survivors
    assert row.state is OlgState.HIGH_ONLY
    assert row.profile == STEADY_TRADE_PROFILE


def test_scan_has_no_survivor_when_cap_fails(cap_failure):
    d = solve_olg(cap_failure, T).D_star
    res = exhaustive_steady_state_scan(cap_failure, d)
    assert len(res.survivors) == 0
    assert not res.unique_survivor_is_trade_pattern


def naive_row(params, d, state, profile):
    """One pair audited from scratch: its own slacks, and its state's
    selected profile at the posted prices."""

    selected = selected_actions(action_table(params, d, *posted_prices(params, d), state))
    return ScanRow(
        state=state,
        profile=profile,
        feasibility=check_steady_state(
            params, d, state, profile, constraint_slacks_olg(params, d)
        ),
        best_response_ok=best_response_audit(params, d, state, profile, selected),
    )


def assert_scan_equals_naive_per_row_audit(params, d):
    # each naive row audits from scratch; the scan passes every row its
    # state's precomputed selected actions
    naive = tuple(
        naive_row(params, d, state, profile)
        for state in OlgState
        for profile in enumerate_profiles(state)
    )
    scan = exhaustive_steady_state_scan(params, d)
    assert len(scan.rows) == 243
    assert scan.rows == naive
    # survivors read before or after the rows are the passing rows
    passing = tuple(r for r in naive if r.passes)
    assert scan.survivors == passing
    assert exhaustive_steady_state_scan(params, d).survivors == passing


def reference_rows(params, d):
    """The scan row by row: each pair through ``check_steady_state`` with
    the shared slacks, and ``best_response_audit`` against its state's
    selected profile."""

    slacks = constraint_slacks_olg(params, d)
    p_n, p_u = posted_prices(params, d)
    rows = []
    for state in OlgState:
        selected = selected_actions(action_table(params, d, p_n, p_u, state))
        for profile in enumerate_profiles(state):
            feasibility = check_steady_state(params, d, state, profile, slacks)
            ok = best_response_audit(params, d, state, profile, selected)
            rows.append(ScanRow(state, profile, feasibility, ok))
    return rows


def assert_scan_rows_equal_reference(params, d):
    scan = exhaustive_steady_state_scan(params, d)
    want = reference_rows(params, d)
    assert len(scan.rows) == len(want) == 243
    for got_row, want_row in zip(scan.rows, want):
        for f in dataclasses.fields(ScanRow):
            got, expected = getattr(got_row, f.name), getattr(want_row, f.name)
            assert got == expected, (f.name, want_row.state, want_row.profile, got, expected)
        # the six slack columns of the audit CSV
        assert got_row.feasibility.slack_flags == tuple(
            want_row.feasibility.slacks[name] >= -_SLACK_TOL for name in OLG_CONSTRAINT_NAMES
        )
    assert scan.survivors == tuple(row for row in want if row.passes)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("regime", [T, B])
def test_scan_rows_equal_reference_on_verify_audit_pools(seed, regime):
    # the default-scale audit pool verify scans: the head of the olg pool
    for params in olg_pool(50, seed):
        assert_scan_rows_equal_reference(params, solve_olg(params, regime).D_star)


def test_scan_rows_equal_reference_at_test_points(canonical, cap_failure):
    d = solve_olg(cap_failure, T).D_star
    assert_scan_rows_equal_reference(cap_failure, d)
    # the canonical steady state is shut down, audited at a chosen durability
    assert solve_olg(canonical, T).market_mode.value == "shutdown"
    assert_scan_rows_equal_reference(canonical, 0.12)
    # the discard-replace argument needs D > 0
    assert_scan_rows_equal_reference(canonical, 0.0)
    discard = ActionProfile(Action.BUY_NEW, Action.BUY_NEW, Action.BUY_USED, Action.BUY_USED)
    dominated = {
        d: next(
            r.feasibility.dominated
            for r in exhaustive_steady_state_scan(canonical, d).rows
            if r.state is OlgState.HIGH_ONLY and r.profile == discard
        )
        for d in (0.0, 0.12)
    }
    assert dominated == {0.0: False, 0.12: True}


@pytest.mark.parametrize(
    "tag,quality",
    [(0, SaturatingExpQuality(1.0, 1.0)), (1, RationalQuality(0.5))],
    ids=["saturating-exp", "rational"],
)
def test_scan_rows_equal_reference_on_admissible_draws(tag, quality):
    # 100 admissible draws per quality family, active or shut down, each at
    # one regime's D* and at a uniform durability
    def ok(p):
        return validate_params(dataclasses.replace(p, quality=quality), ModelKind.OLG).ok

    rng = np.random.default_rng([11, tag])
    for k, params in enumerate(sample_filtered(100, (11, 6, tag), ok)):
        params = dataclasses.replace(params, quality=quality)
        regime = (T, B)[k % 2]
        for d in (solve_olg(params, regime).D_star, rng.uniform(0.0, DEFAULT_D_MAX)):
            assert_scan_rows_equal_reference(params, d)


SCAN_CASES = ["active", "shutdown", "cap-binding", "rational"]


def scan_case_params(case, canonical, olg_feasible, cap_failure):
    return {
        "active": olg_feasible,
        "shutdown": canonical,
        "cap-binding": cap_failure,
        "rational": dataclasses.replace(olg_feasible, quality=RationalQuality(k=0.5)),
    }[case]


@pytest.mark.parametrize("case", SCAN_CASES)
def test_scan_rows_equal_naive_per_row_audit(canonical, olg_feasible, cap_failure, case):
    params = scan_case_params(case, canonical, olg_feasible, cap_failure)
    sol = solve_olg(params, T)
    assert sol.market_mode.value == ("shutdown" if case == "shutdown" else "active-pre-owned")
    assert sol.no_active_steady_state == (case == "cap-binding")
    assert_scan_equals_naive_per_row_audit(params, sol.D_star)


@pytest.mark.parametrize(
    "quality",
    [SaturatingExpQuality(1.0, 1.0), RationalQuality(0.5)],
    ids=["saturating-exp", "rational"],
)
def test_scan_evaluates_quality_once_per_action_table(olg_feasible, quality, monkeypatch):
    # one s(D) for the posted prices, one for the shared slacks and one per
    # state's action table; the dominance arguments need neither family
    calls = collections.Counter()
    for cls in (PowerCost, type(quality)):

        def counted(self, D, real=cls.value):
            calls[type(self).__name__] += 1
            return real(self, D)

        monkeypatch.setattr(cls, "value", counted)
    params = dataclasses.replace(olg_feasible, quality=quality)
    for d in (0.12, 0.0):
        calls.clear()
        exhaustive_steady_state_scan(params, d)
        assert calls == collections.Counter({type(quality).__name__: 5})


@pytest.mark.parametrize("case", ["active", "cap-binding"])
def test_scan_survivors_check_only_the_best_responses(olg_feasible, cap_failure, case, monkeypatch):
    # the scan audits no pair itself; survivors audit and check the one
    # best-response profile per state, and rows decide every pair from the
    # static keys without either single-pair call
    params = olg_feasible if case == "active" else cap_failure
    calls = collections.Counter()
    for name in ("check_steady_state", "best_response_audit", "ScanRow"):

        def counted(*args, real=getattr(oracle, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    scan = exhaustive_steady_state_scan(params, solve_olg(params, T).D_star)
    assert calls == collections.Counter()
    assert scan.unique_survivor_is_trade_pattern == (case == "active")
    per_pair = ("best_response_audit", "check_steady_state", "ScanRow")
    assert calls == collections.Counter(dict.fromkeys(per_pair, 3))
    calls.clear()
    assert len(scan.rows) == 243
    assert calls == collections.Counter({"ScanRow": 243})


def assert_selected_profiles_are_candidates(params, d):
    p_n, p_u = posted_prices(params, d)
    for state in OlgState:
        selected = selected_actions(action_table(params, d, p_n, p_u, state))
        assert selected in enumerate_profiles(state)


@pytest.mark.parametrize("case", SCAN_CASES)
def test_selected_profile_is_a_candidate_profile(canonical, olg_feasible, cap_failure, case):
    # each cell selects from its menu, so a state's best response is one of
    # its 81 profiles
    params = scan_case_params(case, canonical, olg_feasible, cap_failure)
    assert_selected_profiles_are_candidates(params, solve_olg(params, T).D_star)


@pytest.mark.parametrize("regime", [T, B])
def test_selected_profile_is_a_candidate_profile_on_verify_audit_draws(regime):
    for params in olg_pool(12, 42):
        assert_selected_profiles_are_candidates(params, solve_olg(params, regime).D_star)


@pytest.mark.parametrize("regime", [T, B])
def test_scan_rows_equal_naive_per_row_audit_on_verify_audit_draws(regime):
    # the audit draws verify scans: the head of the seed-42 olg pool, at D*
    for params in olg_pool(12, 42):
        assert_scan_equals_naive_per_row_audit(params, solve_olg(params, regime).D_star)
