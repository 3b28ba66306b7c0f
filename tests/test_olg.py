import dataclasses
import itertools

import numpy as np
import pytest

from recommerce import (
    Action,
    ActionProfile,
    MarketMode,
    ModelKind,
    OlgState,
    Regime,
    STEADY_TRADE_PROFILE,
    check_steady_state,
    constraint_slacks_olg,
    discounted_stream,
    durability_condition,
    enumerate_profiles,
    objective_value,
    per_period_profit,
    solve_olg,
)
from recommerce.olg import (
    FeasibilityReport,
    NONOWNER_MENU,
    OWNER_MENU,
    menu,
    owns_used,
    per_period_commission,
    zero_durability_alternatives,
)
from recommerce.primitives import RationalQuality, SaturatingExpQuality
from recommerce.statics import admissible_olg_pool, olg_pool

T = Regime.THIRD_PARTY
B = Regime.BRANDED


def olg_margin(params, regime):
    return durability_condition(params, ModelKind.OLG, regime)[0]


# ----------------------------------------------------------------------
# states, menus, profiles
# ----------------------------------------------------------------------


def test_state_fractions(canonical):
    assert OlgState.NONE.fraction(canonical) == 0.0
    assert OlgState.HIGH_ONLY.fraction(canonical) == canonical.n_H
    assert OlgState.ALL.fraction(canonical) == 1.0


def test_menus_by_state():
    # empty stock: nobody has anything to sell or keep
    for cell in ("h1", "h2", "l1", "l2"):
        assert menu(OlgState.NONE, cell) == NONOWNER_MENU
    # high owners only: the old high cohort holds a unit
    assert menu(OlgState.HIGH_ONLY, "h2") == OWNER_MENU
    for cell in ("h1", "l1", "l2"):
        assert menu(OlgState.HIGH_ONLY, cell) == NONOWNER_MENU
    # saturated stock: every cell acts as an owner
    for cell in ("h1", "h2", "l1", "l2"):
        assert menu(OlgState.ALL, cell) == OWNER_MENU


def test_ownership_flags():
    assert owns_used(OlgState.HIGH_ONLY, "h2")
    assert not owns_used(OlgState.HIGH_ONLY, "h1")
    assert not owns_used(OlgState.HIGH_ONLY, "l2")
    # only old cohorts can carry a unit into the period
    assert owns_used(OlgState.ALL, "l2")
    assert not owns_used(OlgState.ALL, "l1")
    assert not owns_used(OlgState.NONE, "h2")


def test_profile_enumeration_is_cubed_menu():
    for state in OlgState:
        profiles = enumerate_profiles(state)
        assert len(profiles) == 81
        assert len(set(profiles)) == 81


def test_trade_profile_composition():
    assert STEADY_TRADE_PROFILE == ActionProfile(
        h1=Action.BUY_NEW,
        h2=Action.SELL_AND_BUY_NEW,
        l1=Action.BUY_USED,
        l2=Action.BUY_USED,
    )


# ----------------------------------------------------------------------
# margins and optimal durability
# ----------------------------------------------------------------------


def test_canonical_margins_negative(canonical):
    assert olg_margin(canonical, T) == pytest.approx(-0.3664, abs=1e-12)
    assert olg_margin(canonical, B) == pytest.approx(-0.2224, abs=1e-12)


def test_margin_gap_is_commission_term(canonical):
    for beta in (0.0, 0.05, 0.4):
        p = dataclasses.replace(canonical, beta=beta)
        gap = olg_margin(p, B) - olg_margin(p, T)
        assert gap == pytest.approx(p.alpha * beta * p.v_L, abs=1e-15)


def test_feasible_point_durabilities(olg_feasible):
    st = solve_olg(olg_feasible, T)
    sb = solve_olg(olg_feasible, B)
    assert st.D_star == pytest.approx(0.015083270519515149, abs=1e-8)
    assert sb.D_star == pytest.approx(0.04852478076017558, abs=1e-8)
    assert st.D_star < sb.D_star
    assert st.objective_value == pytest.approx(0.6000346430832342, abs=1e-9)
    assert sb.objective_value == pytest.approx(0.6003706176303152, abs=1e-9)
    assert st.constraints_ok and sb.constraints_ok
    assert not st.no_active_steady_state


def test_canonical_is_shutdown(canonical):
    sol = solve_olg(canonical, T)
    assert sol.market_mode is MarketMode.SHUTDOWN
    assert sol.D_star == 0.0
    assert sol.p_u is None
    assert sol.objective_value == pytest.approx(3.0, abs=1e-12)
    assert not sol.boundary_tie


def test_boundary_margin_flagged(canonical):
    # synthetic point with an exactly-zero margin: (2-0)*0.5*1.0*1.0 - 1 = 0
    edge = dataclasses.replace(canonical, alpha=0.5, beta=0.0, delta=0.0, v_L=1.0)
    assert olg_margin(edge, T) == 0.0
    sol = solve_olg(edge, T)
    assert sol.market_mode is MarketMode.SHUTDOWN
    assert sol.boundary_tie


# ----------------------------------------------------------------------
# prices and per-period accounting
# ----------------------------------------------------------------------


def test_per_period_profits_frozen(canonical):
    assert per_period_profit(canonical, T, 0.1238) == pytest.approx(
        0.2828894251909061, abs=1e-12
    )
    assert per_period_profit(canonical, B, 0.1238) == pytest.approx(
        0.287919782899655, abs=1e-12
    )


def test_per_period_gap_identity(canonical):
    p = canonical
    for d in np.linspace(0.0, 2.0, 21):
        gap = per_period_profit(p, B, d) - per_period_profit(p, T, d)
        expected = p.n_H * p.alpha * p.beta * p.v_L * p.quality.value(d)
        assert abs(gap - expected) <= 1e-12


def test_commission_flow(canonical):
    assert per_period_commission(canonical, T, 0.5) == 0.0
    p = canonical
    expected = p.n_H * p.beta * p.alpha * p.v_L * p.quality.value(0.5)
    assert per_period_commission(canonical, B, 0.5) == pytest.approx(expected)


def test_stream_equals_per_period_at_half_discount(olg_feasible):
    # delta/(1-delta) is exactly 1 at delta = 0.5
    for d in (0.01, 0.3):
        assert discounted_stream(olg_feasible, T, d) == per_period_profit(
            olg_feasible, T, d
        )


def _symbolic_stream():
    """The discounted stream G(D) of each regime, written from the price
    formulas with the quality s(D) and cost c(D) as undefined functions,
    and a map from a parameter point to the numeric substitution."""

    sp = pytest.importorskip("sympy")
    D = sp.Symbol("D", positive=True)
    s, c = sp.Function("s"), sp.Function("c")
    alpha, beta, v_L, v_H, delta, n_H = sp.symbols(
        "alpha beta v_L v_H delta n_H", positive=True
    )
    p2u = alpha * v_L * s(D)  # the deflated low-type valuation
    p2n = alpha * (1 - beta) * v_L * s(D) + v_H * (1 - s(D))  # high type indifferent
    # per cohort one replacement sale; the branded seller also keeps the
    # commission on the used trade
    take = {T: p2n - c(D), B: p2n + beta * p2u - c(D)}
    stream = {r: delta / (1 - delta) * n_H * take[r] for r in (T, B)}
    scale = delta / (1 - delta) * n_H * alpha * beta * v_L

    def at(params, d):
        subs = {
            alpha: params.alpha, beta: params.beta, v_L: params.v_L,
            v_H: params.v_H, delta: params.delta, n_H: params.n_H,
        }
        for f, fam in ((s, params.quality), (c, params.cost)):
            subs[f(D).diff(D, 2)] = fam.deriv2(d)
            subs[f(D).diff(D)] = fam.deriv(d)
            subs[f(D)] = fam.value(d)
        return subs

    return sp, D, s, stream, scale, at


def test_symbolic_stream_matches_discounted_stream():
    sp, D, _, stream, _, at = _symbolic_stream()
    rng = np.random.default_rng(11)
    for params in olg_pool(4, 11) + admissible_olg_pool(4, 11):
        for d in rng.uniform(0.0, 3.0, 3):
            for regime in (T, B):
                symbolic = float(stream[regime].subs(at(params, d)))
                assert symbolic == pytest.approx(
                    discounted_stream(params, regime, d), rel=1e-12, abs=1e-15
                )


def test_stream_is_strictly_decreasing(canonical):
    # resale never recovers the build cost: the stream slope is negative
    sp, D, _, stream, _, at = _symbolic_stream()
    for regime in (T, B):
        slope = stream[regime].diff(D)
        for d in np.linspace(0.0, 3.0, 31):
            assert float(slope.subs(at(canonical, d))) < 0.0


def test_branded_stream_flatter_and_more_concave(canonical):
    # slope gap is the commission term, curvature gap flips sign with s''
    sp, D, s, stream, scale, at = _symbolic_stream()
    gap = stream[B] - stream[T]
    slope_gap, curv_gap = gap.diff(D), gap.diff(D, 2)
    assert sp.simplify(slope_gap - scale * s(D).diff(D)) == 0
    assert sp.simplify(curv_gap - scale * s(D).diff(D, 2)) == 0
    for d in np.linspace(0.1, 2.0, 11):
        assert float(slope_gap.subs(at(canonical, d))) > 0.0
        assert float(curv_gap.subs(at(canonical, d))) < 0.0


def test_objective_at_zero(canonical):
    expected = canonical.n_H * canonical.v_H / (1 - canonical.delta)
    assert objective_value(canonical, T, 0.0) == pytest.approx(expected, abs=1e-12)


def test_zero_durability_alternatives(canonical):
    alts = zero_durability_alternatives(canonical)
    scale = 1 / (1 - canonical.delta)
    assert alts["price_low_everyone"] == pytest.approx(2 * 0.8 * scale)
    assert alts["price_high_replacers"] == pytest.approx(2 * 0.3 * scale)
    # diagnostic: the repeat-trade flow never reaches the replacement flow
    for regime in (T, B):
        for d in np.linspace(0.0, 3.0, 31):
            flow = per_period_profit(canonical, regime, d)
            assert flow < 2 * canonical.n_H * canonical.v_H


# ----------------------------------------------------------------------
# constraints
# ----------------------------------------------------------------------


def test_binding_pattern_at_feasible_optimum(olg_feasible):
    for regime in (T, B):
        d = solve_olg(olg_feasible, regime).D_star
        slacks = constraint_slacks_olg(olg_feasible, d)
        assert abs(slacks["ic_h2"]) <= 1e-9
        assert slacks["ir_l2"] == 0.0
        assert slacks["ic_h1"] > 0.0
        assert slacks["ic_l1"] > 0.0
        assert slacks["ic_l2"] > 0.0
        assert slacks["ratio_cap"] > 0.0


def test_ratio_cap_closed_form(canonical):
    # cap = (1-s) / (1 - ((1-beta) alpha - delta) s) at D = 0.12
    slack = constraint_slacks_olg(canonical, 0.12)["ratio_cap"]
    assert slack == pytest.approx(0.8692278928246595 - 0.8, abs=1e-12)


def test_cap_failure_point(cap_failure):
    st = solve_olg(cap_failure, T)
    assert st.D_star == pytest.approx(0.0768596447471917, abs=1e-8)
    assert st.market_mode is MarketMode.ACTIVE
    assert not st.constraints_ok
    assert st.no_active_steady_state
    assert st.best_feasible_D == pytest.approx(0.06870833598928411, abs=1e-6)
    assert st.best_feasible_D < st.D_star
    # the fallback durability sits on the cap boundary
    cap_slack = constraint_slacks_olg(cap_failure, st.best_feasible_D)["ratio_cap"]
    assert abs(cap_slack) <= 1e-9


def test_implication_chain_at_candidate_prices(canonical):
    # whenever the young-low test passes, the old-low test passes too
    for d in (0.05, 0.12, 0.5, 1.5):
        slacks = constraint_slacks_olg(canonical, d)
        assert slacks["ic_h1"] >= -1e-12
        if slacks["ic_l1"] >= 0.0:
            assert slacks["ic_l2"] >= -1e-12


def test_slack_lanes_equal_scalar_slacks_bit_for_bit(canonical):
    # every combination of ordinary, signed-zero, infinite and NaN operands,
    # plus seed-42 pool draws at their own durabilities
    nan, inf = float("nan"), float("inf")
    fields = {
        "v_H": (1.0, inf, nan),
        "v_L": (0.5, 0.0, -0.0, nan),
        "alpha": (0.9, 0.0, -0.0, inf, nan),
        "beta": (0.2, 1.0, nan),
        "delta": (0.5, 0.0, -0.0),
    }
    points = [
        (dataclasses.replace(canonical, **dict(zip(fields, combo[:-1]))), combo[-1])
        for combo in itertools.product(*fields.values(), (0.0, -0.0, 0.3, nan))
    ]
    rng = np.random.default_rng(3)
    points += [(p, float(d)) for p in olg_pool(20, 42) for d in rng.uniform(0.0, 2.0, 3)]
    lanes = dataclasses.replace(
        canonical,
        **{f: np.array([getattr(p, f) for p, _ in points]) for f in fields},
    )
    with np.errstate(all="ignore"):
        slacks = constraint_slacks_olg(lanes, np.array([d for _, d in points]))
    for i, (params, d) in enumerate(points):
        scalar = constraint_slacks_olg(params, d)
        assert list(scalar) == list(slacks)
        for name, value in scalar.items():
            assert float(slacks[name][i]).hex() == float(value).hex(), (params, d, name)


# ----------------------------------------------------------------------
# steady-state candidate checks
# ----------------------------------------------------------------------


def test_trade_profile_passes(canonical):
    rep = check_steady_state(canonical, 0.12, OlgState.HIGH_ONLY, STEADY_TRADE_PROFILE)
    assert rep.state_consistent
    assert rep.market_clearing
    assert rep.constraints_ok
    assert not rep.dominated
    assert rep.passes


def test_saturated_state_is_dominated(canonical):
    all_hold = ActionProfile(
        h1=Action.SELL_AND_BUY_NEW,
        h2=Action.SELL_AND_BUY_NEW,
        l1=Action.SELL_AND_BUY_NEW,
        l2=Action.SELL_AND_BUY_NEW,
    )
    rep = check_steady_state(canonical, 0.12, OlgState.ALL, all_hold)
    assert rep.state_consistent
    assert rep.dominated


def test_high_keepers_dominated(canonical):
    keepers = ActionProfile(
        h1=Action.BUY_NEW,
        h2=Action.KEEP_USED,
        l1=Action.DO_NOTHING,
        l2=Action.DO_NOTHING,
    )
    rep = check_steady_state(canonical, 0.12, OlgState.HIGH_ONLY, keepers)
    assert rep.state_consistent
    assert rep.dominated


def test_discard_replace_dominated_at_positive_durability(canonical):
    discarders = ActionProfile(
        h1=Action.BUY_NEW,
        h2=Action.BUY_NEW,
        l1=Action.DO_NOTHING,
        l2=Action.DO_NOTHING,
    )
    rep = check_steady_state(canonical, 0.12, OlgState.HIGH_ONLY, discarders)
    assert rep.state_consistent
    assert rep.dominated


def test_empty_state_is_dominated(canonical):
    nothing = ActionProfile(
        h1=Action.DO_NOTHING,
        h2=Action.DO_NOTHING,
        l1=Action.DO_NOTHING,
        l2=Action.DO_NOTHING,
    )
    rep = check_steady_state(canonical, 0.12, OlgState.NONE, nothing)
    assert rep.state_consistent
    assert rep.dominated


def test_inconsistent_profile_rejected(canonical):
    # old highs selling with nobody replacing cannot hold the stock at n_H
    profile = ActionProfile(
        h1=Action.DO_NOTHING,
        h2=Action.SELL_AND_BUY_NEW,
        l1=Action.BUY_USED,
        l2=Action.BUY_USED,
    )
    rep = check_steady_state(canonical, 0.12, OlgState.HIGH_ONLY, profile)
    assert not rep.state_consistent
    assert not rep.passes


def test_market_clearing_requires_buyers(canonical):
    # sellers with zero used demand cannot clear
    profile = ActionProfile(
        h1=Action.BUY_NEW,
        h2=Action.SELL_AND_BUY_NEW,
        l1=Action.DO_NOTHING,
        l2=Action.DO_NOTHING,
    )
    rep = check_steady_state(canonical, 0.12, OlgState.HIGH_ONLY, profile)
    assert not rep.market_clearing
    assert not rep.passes


def _reference_check_steady_state(params, D, state, profile, slack_tol=1e-9, slacks=None):
    """check_steady_state as one self-contained body: every fact of the
    (state, profile) pair is rebuilt on each call, and each dominance
    argument is a branch of its own."""

    p = params
    buys_new = (Action.BUY_NEW, Action.SELL_AND_BUY_NEW)
    next_stock = p.n_H * float(profile.h1 in buys_new) + p.n_L * float(profile.l1 in buys_new)
    state_consistent = abs(next_stock - state.fraction(params)) <= 1e-12
    supply = 0.0
    demand = 0.0
    masses = {"h1": p.n_H, "h2": p.n_H, "l1": p.n_L, "l2": p.n_L}
    for cell in ("h1", "h2", "l1", "l2"):
        action = profile.get(cell)
        if action is Action.SELL_AND_BUY_NEW and owns_used(state, cell):
            supply += masses[cell]
        if action is Action.BUY_USED:
            demand += masses[cell]
    market_clearing = demand == 0.0 if supply == 0.0 else demand >= supply - 1e-12
    if slacks is None:
        slacks = constraint_slacks_olg(params, D)
    constraints_ok = all(v >= -slack_tol for v in slacks.values())
    dominated = False
    if state is OlgState.ALL and state_consistent:
        dominated = True  # all-hold replacement cycle
    elif state is OlgState.HIGH_ONLY and profile.h2 is Action.KEEP_USED:
        dominated = True  # high keep-used pattern
    elif state is OlgState.HIGH_ONLY and profile.h2 is Action.BUY_NEW and D > 0.0:
        dominated = True  # discard-replace pattern
    elif state is OlgState.NONE and state_consistent:
        dominated = True  # empty-stock state
    return FeasibilityReport(
        state_consistent=state_consistent,
        market_clearing=market_clearing,
        slacks=slacks,
        constraints_ok=constraints_ok,
        dominated=dominated,
    )


@pytest.mark.parametrize(
    "point", ["active-d-star", "zero", "cap-binding", "cap-failing", "rational-d-star"]
)
def test_check_steady_state_equals_reference_on_every_pair(
    olg_feasible, cap_failure, point
):
    rational = dataclasses.replace(olg_feasible, quality=RationalQuality(k=0.5))
    params, D = {
        "active-d-star": (olg_feasible, solve_olg(olg_feasible, B).D_star),
        # D = 0 skips the discard-replace branch, which needs D > 0
        "zero": (olg_feasible, 0.0),
        "cap-binding": (cap_failure, solve_olg(cap_failure, T).best_feasible_D),
        "cap-failing": (cap_failure, solve_olg(cap_failure, T).D_star),
        "rational-d-star": (rational, solve_olg(rational, T).D_star),
    }[point]
    slacks = constraint_slacks_olg(params, D)
    pairs = [(state, profile) for state in OlgState for profile in enumerate_profiles(state)]
    assert len(pairs) == 243
    discarded = False
    for state, profile in pairs:
        for shared in (None, slacks):
            got = check_steady_state(params, D, state, profile, slacks=shared)
            want = _reference_check_steady_state(params, D, state, profile, slacks=shared)
            assert got == want
        # no other argument covers a high-only discard-replace pair
        if state is OlgState.HIGH_ONLY and profile.h2 is Action.BUY_NEW:
            discarded |= got.dominated
    assert discarded == (D > 0.0)


def _dominance_profits(params, D):
    """Each dominated class's per-period profit and that of the alternative
    that beats it, written out from the revenue story."""

    p = params
    s, c = p.quality.value(D), p.cost.value(D)
    return {
        # the whole population on a buy-new/resell cycle, against flat v_L
        # pricing to both cohorts at D = 0
        "all-hold": (p.v_L * (1.0 + p.delta * s) - c, 2.0 * p.v_L),
        # high types keeping their used unit, against selling new to both
        # high cohorts
        "keep-used": (p.n_H * (p.v_H * (1.0 + p.delta * s) - c), 2.0 * p.n_H * p.v_H),
        # the same high sales as at D = 0, paying for durability
        "discard-replace": (2.0 * p.n_H * (p.v_H - c), 2.0 * p.n_H * p.v_H),
        # no repeat trade from an empty stock
        "empty-stock": (0.0, 2.0 * max(p.v_L, p.n_H * p.v_H)),
    }


@pytest.mark.parametrize("family", ["saturating-exp", "rational"])
def test_dominance_arguments_hold(family):
    # the audit draws verify scans, at both regimes' D* and at fixed D: every
    # class that check_steady_state marks dominated earns strictly less
    # than its alternative, as c(D) > 0 throughout
    checked = 0
    for params in olg_pool(12, 42):
        assert isinstance(params.quality, SaturatingExpQuality)
        if family == "rational":
            params = dataclasses.replace(params, quality=RationalQuality(k=0.5))
        durabilities = [solve_olg(params, regime).D_star for regime in Regime]
        for D in [*durabilities, 0.05, 0.3, 1.0]:
            assert params.cost.value(D) > 0.0
            for name, (candidate, alternative) in _dominance_profits(params, D).items():
                assert candidate < alternative, (params, D, name)
                checked += 1
    assert checked == 12 * 5 * 4


# ----------------------------------------------------------------------
# full solve
# ----------------------------------------------------------------------


def test_solve_active_branch(olg_feasible):
    sol = solve_olg(olg_feasible, B)
    assert sol.market_mode is MarketMode.ACTIVE
    assert sol.profile == STEADY_TRADE_PROFILE
    assert sol.state is OlgState.HIGH_ONLY
    assert sol.p_u is not None and sol.p_n > sol.p_u
    assert sol.used_supply == pytest.approx(olg_feasible.n_H)
    assert sol.used_demand == pytest.approx(2 * olg_feasible.n_L)
    assert sol.rationed_fraction == pytest.approx(
        olg_feasible.n_H / (2 * olg_feasible.n_L)
    )
    assert sol.per_period_commission > 0.0
    assert sol.discounted_stream == pytest.approx(
        olg_feasible.delta
        / (1 - olg_feasible.delta)
        * sol.per_period_profit
    )


def test_solve_shutdown_sets_alternatives(canonical):
    sol = solve_olg(canonical, T)
    assert sol.d0_alternatives["price_high_replacers"] == pytest.approx(6.0)
    assert sol.profile is None
