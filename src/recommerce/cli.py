"""Command-line interface.

Subcommands: solve, sweep, compare, olg-verify, verify, oracle-check.
Inputs come from a JSON config file (versioned ``schema`` field, unknown
keys rejected) with individual flags overriding config values. Output files
land in a directory resolved as flag > RECOMMERCE_OUT environment variable >
config ``out_dir`` > ``./out``, and are byte-identical across runs with the
same inputs and seed.

Exit codes: 0 on success, 1 when a verified property fails (a counterexample
dump is written next to the other outputs), 2 on usage or validation errors,
including a durability first-order condition with no root below ``d_max``,
an ``oracle-check`` grid that does not resolve the objective, and when a
requested size does not fit in memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import olg as olg_mod
from . import oracle as oracle_mod
from . import reporting as rep
from . import statics as statics_mod
from . import two_period as tp
from .primitives import (
    DEFAULT_D_MAX,
    BracketError,
    ModelKind,
    ModelParams,
    Regime,
    canonical_params,
    is_finite_number,
    params_from_dict,
    params_to_dict,
    validate_params,
)

__all__ = ["main", "build_parser", "UsageError"]

CONFIG_SCHEMA = "recommerce-config/1"
OUT_ENV_VAR = "RECOMMERCE_OUT"
SHUTDOWN_NOTE = "market shutdown, lower types excluded"

_TOP_KEYS = {"schema", "params", "solver", "sweep", "verification", "out_dir"}
_SOLVER_KEYS = {"d_max"}
_SWEEP_KEYS = {"parameter", "start", "stop", "steps"}
_SWEEP_PARAMETERS = ("alpha", "beta", "delta")
_VERIFY_KEYS = {
    "seed",
    "draws",
    "foc_draws",
    "grid_points",
    "audit_draws",
    "commission_points",
}


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# (section, key) -> (check, what the value must be)
_VALUE_TYPES = {
    ("solver", "d_max"): (
        lambda v: is_finite_number(v) and v > 0.0,
        "a finite positive number",
    ),
    ("sweep", "parameter"): (lambda v: isinstance(v, str), "a string"),
    ("sweep", "start"): (is_finite_number, "a finite number"),
    ("sweep", "stop"): (is_finite_number, "a finite number"),
    ("sweep", "steps"): (_integer, "an integer"),
    **{("verification", key): (_integer, "an integer") for key in _VERIFY_KEYS},
    ("verification", "seed"): (lambda v: _integer(v) and v >= 0, "a nonnegative integer"),
}


class UsageError(Exception):
    """Bad invocation or config; maps to exit code 2."""


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise UsageError(f"unknown {where} keys: {', '.join(unknown)}")


def _load_config(path_str: str | None) -> dict:
    if path_str is None:
        return {}
    path = Path(path_str)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config root must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    schema = cfg.get("schema")
    if schema != CONFIG_SCHEMA:
        raise UsageError(
            f"config schema must be {CONFIG_SCHEMA!r}, found {schema!r}"
        )
    for key, allowed in (
        ("solver", _SOLVER_KEYS),
        ("sweep", _SWEEP_KEYS),
        ("verification", _VERIFY_KEYS),
    ):
        if key in cfg:
            if not isinstance(cfg[key], dict):
                raise UsageError(f"config {key!r} must be an object")
            _check_keys(cfg[key], allowed, key)
            for name, value in cfg[key].items():
                check, kind = _VALUE_TYPES[key, name]
                if not check(value):
                    raise UsageError(
                        f"config {key}.{name} must be {kind}, found {json.dumps(value)}"
                    )
    return cfg


_PARAM_FLAGS = ("alpha", "beta", "delta", "v_L", "n_H")


def _resolve_params(args, cfg: dict) -> ModelParams:
    if "params" in cfg:
        try:
            params = params_from_dict(cfg["params"])
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad config params: {exc}") from exc
    else:
        params = canonical_params()
    overrides = {}
    for name in _PARAM_FLAGS:
        flag = getattr(args, name.lower(), None)
        if flag is not None:
            overrides[name] = flag
    if "n_H" in overrides:
        overrides["n_L"] = 1.0 - overrides["n_H"]
    if overrides:
        params = dataclasses.replace(params, **overrides)
    return params


def _validate_for(
    params: ModelParams, models: list[ModelKind], d_max: float, what: str = "parameters fail"
) -> None:
    for model in models:
        report = validate_params(params, model, d_max=d_max)
        if not report.ok:
            raise UsageError(
                f"{what} {model.value} admissibility: "
                + ", ".join(c.name for c in report.failures())
            )


def _out_dir(args, cfg: dict) -> Path:
    if getattr(args, "out", None):
        out = Path(args.out)
    elif os.environ.get(OUT_ENV_VAR):
        out = Path(os.environ[OUT_ENV_VAR])
    elif cfg.get("out_dir"):
        out = Path(cfg["out_dir"])
    else:
        out = Path("out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _d_max(cfg: dict) -> float:
    return float(cfg.get("solver", {}).get("d_max", DEFAULT_D_MAX))


def _models(arg: str) -> list[ModelKind]:
    if arg == "both":
        return [ModelKind.TWO_PERIOD, ModelKind.OLG]
    return [ModelKind(arg)]


def _regimes(arg: str) -> list[Regime]:
    if arg == "both":
        return [Regime.THIRD_PARTY, Regime.BRANDED]
    return [Regime(arg)]


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------


def _cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    params = _resolve_params(args, cfg)
    models = _models(args.model)
    regimes = _regimes(args.regime)
    d_max = _d_max(cfg)
    _validate_for(params, models, d_max)
    out = _out_dir(args, cfg)

    payload: dict = {"params": params_to_dict(params)}
    if ModelKind.TWO_PERIOD in models:
        rows = []
        section = {}
        for regime in regimes:
            eq = tp.solve(params, regime, d_max=d_max)
            section[regime.value] = eq
            rows.append(rep._row(eq, rep.TWO_PERIOD_COLUMNS))
            line = (
                f"two-period {regime.value}: D*={eq.D_star:.6g} "
                f"D_social={eq.D_social:.6g} profit={eq.profit_total:.6g}"
            )
            if eq.market_mode is tp.MarketMode.SHUTDOWN:
                line += f" ({SHUTDOWN_NOTE})"
            print(line)
        payload["two_period"] = section
        rep.write_csv(out / "two_period.csv", rep.TWO_PERIOD_COLUMNS, rows)
    if ModelKind.OLG in models:
        rows = []
        section = {}
        for regime in regimes:
            sol = olg_mod.solve_olg(params, regime, d_max=d_max)
            section[regime.value] = sol
            rows.append(rep._row(sol, rep.OLG_COLUMNS))
            line = (
                f"olg {regime.value}: D*={sol.D_star:.6g} "
                f"objective={sol.objective_value:.6g}"
            )
            if sol.market_mode is tp.MarketMode.SHUTDOWN:
                line += f" ({SHUTDOWN_NOTE})"
            print(line)
        payload["olg"] = section
        rep.write_csv(out / "olg.csv", rep.OLG_COLUMNS, rows)
    rep.write_json(out / "solution.json", payload)
    print(f"wrote {out / 'solution.json'}")
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    params = _resolve_params(args, cfg)
    sweep_cfg = cfg.get("sweep", {})
    parameter = args.parameter or sweep_cfg.get("parameter")
    start = args.start if args.start is not None else sweep_cfg.get("start")
    stop = args.stop if args.stop is not None else sweep_cfg.get("stop")
    steps = args.steps if args.steps is not None else sweep_cfg.get("steps")
    if parameter is None or start is None or stop is None or steps is None:
        raise UsageError(
            "sweep needs --parameter, --start, --stop, and --steps "
            "(flags or the config sweep block)"
        )
    if parameter not in _SWEEP_PARAMETERS:
        raise UsageError(
            f"sweep parameter must be one of {', '.join(_SWEEP_PARAMETERS)}, "
            f"found {parameter!r}"
        )
    if steps < 1:
        raise UsageError("sweep steps must be at least 1")
    model = ModelKind(args.model)
    regimes = _regimes(args.regime)
    d_max = _d_max(cfg)
    _validate_for(params, [model], d_max)
    values = np.linspace(float(start), float(stop), steps)
    for value in values:
        point = dataclasses.replace(params, **{parameter: float(value)})
        _validate_for(point, [model], d_max, f"sweep point {parameter}={value:.6g} fails")
    out = _out_dir(args, cfg)

    reports = [
        statics_mod.monotonicity_sweep(params, regime, parameter, values, model, d_max=d_max)
        for regime in regimes
    ]
    rows = [rep._row(pt, rep.SWEEP_COLUMNS) for report in reports for pt in report.points]
    rep.write_csv(out / "sweep.csv", rep.SWEEP_COLUMNS, rows)
    rep.write_json(
        out / "sweep_verdicts.json",
        {
            "parameter": parameter,
            "model": model,
            "reports": [
                {
                    "regime": report.regime,
                    "verdicts": report.verdicts,
                    "shutdown_points": report.shutdown_points,
                }
                for report in reports
            ],
        },
    )
    for report in reports:
        print(
            f"{model.value} {report.regime.value} {parameter}: "
            + ", ".join(f"{k}={v}" for k, v in sorted(report.verdicts.items()))
            + f" (shutdown points: {report.shutdown_points})"
        )
    if all(report.shutdown_points == len(report.points) for report in reports):
        raise UsageError(
            "empty active region: every sweep point is in shutdown mode"
        )
    print(f"wrote {out / 'sweep.csv'}")
    return 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    params = _resolve_params(args, cfg)
    d_max = _d_max(cfg)
    _validate_for(params, [ModelKind.TWO_PERIOD, ModelKind.OLG], d_max)
    out = _out_dir(args, cfg)

    rc = statics_mod.regime_comparison(params, d_max=d_max)
    rep.write_json(out / "compare.json", {"params": params_to_dict(params), "comparison": rc})
    print(
        "two-period: "
        f"dD={rc.d_durability:.6g} dprofit={rc.d_profit:.6g} "
        f"dwelfare={rc.d_welfare:.6g} "
        f"gaps: third-party={rc.gap_third_party:.6g} branded={rc.gap_branded:.6g}"
    )
    print(
        f"olg: dD={rc.olg_d_durability:.6g} dobjective={rc.olg_d_objective:.6g}"
    )
    for label, active in (
        ("two-period", rc.both_active_two_period),
        ("olg", rc.both_active_olg),
    ):
        if not active:
            print(f"{label}: at least one regime in shutdown ({SHUTDOWN_NOTE})")
    print(f"wrote {out / 'compare.json'}")
    return 0


# ----------------------------------------------------------------------
# olg-verify
# ----------------------------------------------------------------------


def _cmd_olg_verify(args) -> int:
    cfg = _load_config(args.config)
    params = _resolve_params(args, cfg)
    d_max = _d_max(cfg)
    _validate_for(params, [ModelKind.OLG], d_max)
    regime = Regime(args.regime)
    out = _out_dir(args, cfg)

    if args.durability is not None:
        d_audit = args.durability
        # NaN fails both comparisons
        if not (0.0 < d_audit <= d_max):
            raise UsageError(
                f"--durability must be positive and at most d_max = {d_max!r}, "
                f"found {d_audit!r}"
            )
    else:
        sol = olg_mod.solve_olg(params, regime, d_max=d_max)
        if sol.market_mode is tp.MarketMode.SHUTDOWN:
            raise UsageError(
                "no active pre-owned steady state at these parameters "
                f"({SHUTDOWN_NOTE}); pass --durability to audit a chosen value"
            )
        d_audit = sol.D_star

    scan = oracle_mod.exhaustive_steady_state_scan(params, d_audit)
    rep.write_csv(
        out / "olg_audit.csv",
        rep.AUDIT_COLUMNS,
        [rep.audit_row(row) for row in scan.rows],
    )
    survivors = scan.survivors
    print(
        f"audited {len(scan.rows)} (state, profile) candidates at D={d_audit:.6g}: "
        f"{len(survivors)} survive"
    )
    print(f"wrote {out / 'olg_audit.csv'}")
    if scan.unique_survivor_is_trade_pattern:
        print("unique steady state: high-turnover trade pattern confirmed")
        return 0
    rep.write_json(
        out / "olg_audit_counterexample.json",
        {
            "params": params_to_dict(params),
            "durability": d_audit,
            "survivors": [
                {"state": row.state, "profile": row.profile}
                for row in survivors
            ],
        },
    )
    print("steady-state uniqueness FAILED; counterexample written", file=sys.stderr)
    return 1


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    ver_cfg = cfg.get("verification", {})

    def scale(key: str, default: int) -> int:
        flag = getattr(args, key)
        return flag if flag is not None else ver_cfg.get(key, default)

    seed = scale("seed", 42)
    pool_draws = scale("draws", 200)
    foc_draws = scale("foc_draws", 200)
    grid_points = scale("grid_points", 100_000)
    audit_draws = scale("audit_draws", 50)
    commission_points = scale("commission_points", 1001)
    if min(pool_draws, foc_draws, audit_draws, commission_points) <= 0:
        raise UsageError(
            "verification draw and commission point counts must be positive"
        )
    if grid_points < 1000:
        raise UsageError("grid_points must be at least 1000")
    if seed < 0:
        raise UsageError(f"--seed must be a nonnegative integer, found {seed}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, found {args.jobs}")
    out = _out_dir(args, cfg)

    results = statics_mod.run_verification(
        seed=seed,
        foc_draws=foc_draws,
        grid_points=grid_points,
        pool_draws=pool_draws,
        audit_draws=audit_draws,
        commission_points=commission_points,
        d_max=_d_max(cfg),
        jobs=args.jobs,
        inject_failure=args.inject_failure,
    )
    rep.write_csv(out / "verify.csv", rep.VERIFY_COLUMNS, [rep.verify_row(r) for r in results])
    rep.write_json(
        out / "verify.json",
        {
            "seed": seed,
            "scales": {
                "draws": pool_draws,
                "foc_draws": foc_draws,
                "grid_points": grid_points,
                "audit_draws": audit_draws,
                "commission_points": commission_points,
            },
            "results": results,
        },
    )
    failures = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} (checks={r.checks}, violations={r.violations})")
    print(f"wrote {out / 'verify.json'}")
    if failures:
        rep.write_json(
            out / "counterexample.json",
            [
                {
                    "property": r.name,
                    "detail": r.detail,
                    "counterexample": r.counterexample,
                }
                for r in failures
            ],
        )
        print(
            f"{len(failures)} propert{'y' if len(failures) == 1 else 'ies'} failed; "
            "counterexample dump written",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# oracle-check
# ----------------------------------------------------------------------


def _cmd_oracle_check(args) -> int:
    cfg = _load_config(args.config)
    params = _resolve_params(args, cfg)
    d_max = _d_max(cfg)
    grid_points = int(args.grid_points)
    if grid_points < 1000:
        raise UsageError("grid_points must be at least 1000")
    out = _out_dir(args, cfg)

    grid = oracle_mod.GridSpec(0.0, d_max, grid_points)
    entries = []
    worst = 0.0
    unresolved, mismatched = [], []
    for model in (ModelKind.TWO_PERIOD, ModelKind.OLG):
        _validate_for(params, [model], d_max)
        for regime in (Regime.THIRD_PARTY, Regime.BRANDED):
            if model is ModelKind.TWO_PERIOD:
                eq = tp.solve(params, regime, d_max=d_max)
                d_star, mode = eq.D_star, eq.market_mode
            else:
                sol = olg_mod.solve_olg(params, regime, d_max=d_max)
                d_star, mode = sol.D_star, sol.market_mode
            hit = oracle_mod.grid_argmax_profit(params, regime, model, grid)
            gap = abs(d_star - hit.D_at_max)
            worst = max(worst, gap)
            if gap > grid.step:
                resolves = oracle_mod.grid_resolves(params, regime, model, grid, hit, d_star)
                (mismatched if resolves else unresolved).append(f"{model.value} {regime.value}")
            entries.append(
                {
                    "model": model,
                    "regime": regime,
                    "market_mode": mode,
                    "solver_D": d_star,
                    "grid_D": hit.D_at_max,
                    "gap": gap,
                }
            )
            print(
                f"{model.value} {regime.value}: solver D*={d_star:.8g} "
                f"grid D={hit.D_at_max:.8g} gap={gap:.3e}"
            )
    if unresolved and not mismatched:
        raise UsageError(
            "the grid does not resolve the objective at these parameters: at "
            f"{', '.join(unresolved)} its maximum is within rounding of its value "
            f"nearest the solver's D* (gap {worst:.3e}, step {grid.step:.3e})"
        )
    ok = worst <= grid.step
    rep.write_json(
        out / "oracle_check.json",
        {
            "params": params_to_dict(params),
            "grid_points": grid_points,
            "grid_step": grid.step,
            "worst_gap": worst,
            "ok": ok,
            "entries": entries,
        },
    )
    print(f"wrote {out / 'oracle_check.json'}")
    if not ok:
        print(
            f"solver-oracle gap {worst:.3e} exceeds grid step {grid.step:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors (a bad value or choice, an unknown
    flag, a missing subcommand) raise UsageError, for one ``error:`` line
    and exit 2 instead of a usage block. Subparsers inherit the class."""

    def error(self, message):
        raise UsageError(" ".join(message.split()))


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="path to a JSON config file")
    sub.add_argument("--out", help="output directory (overrides env and config)")
    for name in _PARAM_FLAGS:
        sub.add_argument(
            f"--{name.lower().replace('_', '-')}",
            dest=name.lower(),
            type=float,
            default=None,
            help=f"override parameter {name}",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="recommerce",
        description=(
            "Equilibrium durability, prices, and profits for a durable-goods "
            "seller facing a pre-owned market, with brute-force verification."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("solve", help="solve one parameter point")
    _add_common(sub)
    sub.add_argument(
        "--model",
        choices=["two-period", "olg", "both"],
        default="two-period",
    )
    sub.add_argument(
        "--regime",
        choices=["third-party", "branded", "both"],
        default="both",
    )
    sub.set_defaults(func=_cmd_solve)

    sub = subs.add_parser("sweep", help="sweep one parameter and classify monotonicity")
    _add_common(sub)
    sub.add_argument("--parameter", choices=_SWEEP_PARAMETERS)
    sub.add_argument("--start", type=float)
    sub.add_argument("--stop", type=float)
    sub.add_argument("--steps", type=int)
    sub.add_argument(
        "--model", choices=["two-period", "olg"], default="two-period"
    )
    sub.add_argument(
        "--regime",
        choices=["third-party", "branded", "both"],
        default="both",
    )
    sub.set_defaults(func=_cmd_sweep)

    sub = subs.add_parser("compare", help="side-by-side regime comparison")
    _add_common(sub)
    sub.set_defaults(func=_cmd_compare)

    sub = subs.add_parser(
        "olg-verify", help="exhaustively audit steady-state candidates"
    )
    _add_common(sub)
    sub.add_argument(
        "--regime", choices=["third-party", "branded"], default="third-party"
    )
    sub.add_argument(
        "--durability",
        type=float,
        default=None,
        help="audit at this durability instead of the solved optimum",
    )
    sub.set_defaults(func=_cmd_olg_verify)

    sub = subs.add_parser("verify", help="run the seeded property suite")
    _add_common(sub)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--draws", type=int, default=None, help="draw-pool size")
    sub.add_argument("--foc-draws", dest="foc_draws", type=int, default=None)
    sub.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    sub.add_argument("--audit-draws", dest="audit_draws", type=int, default=None)
    sub.add_argument(
        "--commission-points", dest="commission_points", type=int, default=None
    )
    sub.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    sub.add_argument(
        "--inject-failure",
        action="store_true",
        help="append a deliberately failing probe (harness self-test)",
    )
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser(
        "oracle-check", help="compare analytic optima against the grid oracle"
    )
    _add_common(sub)
    sub.add_argument(
        "--grid-points", dest="grid_points", type=int, default=100_000
    )
    sub.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BracketError as exc:
        print(
            f"error: durability first-order condition has no root in (0, d_max]: {exc}",
            file=sys.stderr,
        )
        return 2
    except MemoryError as exc:
        # e.g. an oversized --grid-points; NumPy's message names the array
        detail = " ".join(str(exc).split())
        print(f"error: out of memory{': ' + detail if detail else ''}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
