"""Command-line interface.

Subcommands: solve, sweep, compare, olg-verify, verify, oracle-check.
Inputs come from a JSON config file (versioned ``schema`` field, unknown
keys rejected) with individual flags overriding config values; each
subcommand resolves and checks all of them (:func:`_inputs`) before it
prints or writes anything. Output files land in a directory resolved as
flag > RECOMMERCE_OUT environment variable > config ``out_dir`` >
``./out``, and are byte-identical across runs with the same inputs and
seed.

Exit codes: 0 on success, 1 when a verified property fails (a counterexample
dump is written next to the other outputs), 2 on usage or validation errors,
including a durability first-order condition with no root below ``d_max``,
an ``oracle-check`` grid that does not resolve the objective, when a
requested size does not fit in memory, and when an output file cannot be
written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Callable
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

@dataclasses.dataclass(frozen=True)
class _Setting:
    """A scale setting: the config section holding it (``None`` for a
    flag-only one), the type its flag parses to, the values it accepts and
    what they must be, and its default. Its config key is its name, and its
    flag the name with dashes."""

    section: str | None
    kind: type
    ok: Callable[[object], bool]
    must_be: str
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None


def _count(
    section: str | None, low: int, default: int | None = None, help: str | None = None
) -> _Setting:
    """An integer setting of at least ``low`` (bools are not integers)."""

    must_be = {0: "a nonnegative integer", 1: "a positive integer"}.get(
        low, f"an integer of at least {low}"
    )
    return _Setting(
        section, int, lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low,
        must_be, default, help,
    )


# Every scale setting by name. The config check, the subcommands' flags, the
# flag-over-config merge and the range check all read this table.
_SETTINGS = {
    "d_max": _Setting(
        "solver", float, lambda v: is_finite_number(v) and v > 0.0,
        "a finite positive number", DEFAULT_D_MAX,
    ),
    "parameter": _Setting(
        "sweep", str, lambda v: isinstance(v, str), "a string",
        choices=statics_mod._SWEEPABLE,
    ),
    "start": _Setting("sweep", float, is_finite_number, "a finite number"),
    "stop": _Setting("sweep", float, is_finite_number, "a finite number"),
    "steps": _count("sweep", 1),
    "seed": _count("verification", 0, 42),
    "draws": _count("verification", 1, 200, "draw-pool size"),
    "foc_draws": _count("verification", 1, 200),
    "grid_points": _count("verification", 1000, 100_000),
    "audit_draws": _count("verification", 1, 50),
    "commission_points": _count("verification", 2, 1001),
    "jobs": _count(None, 1, 1, "parallel worker processes"),
}
# config section -> its keys
_SECTIONS = {
    section: {name for name, s in _SETTINGS.items() if s.section == section}
    for section in dict.fromkeys(s.section for s in _SETTINGS.values() if s.section)
}
_TOP_KEYS = {"schema", "params", "out_dir", *_SECTIONS}
_PARAM_FLAGS = ("alpha", "beta", "delta", "v_L", "n_H")


# each enum's values in declaration order, for the subcommands' choices
_VALUES = {kind: [member.value for member in kind] for kind in (ModelKind, Regime)}


def _flag(name: str) -> str:
    return "--" + name.lower().replace("_", "-")


class UsageError(Exception):
    """Bad invocation or config; maps to exit code 2."""


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise UsageError(f"unknown {where} keys: {', '.join(unknown)}")


def _load_config(path_str: str | None) -> dict:
    """The config, with every setting value checked, whichever subcommand
    reads it; the params are checked where they resolve."""

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
    for section, allowed in _SECTIONS.items():
        if section in cfg:
            if not isinstance(cfg[section], dict):
                raise UsageError(f"config {section!r} must be an object")
            _check_keys(cfg[section], allowed, section)
            for name, value in cfg[section].items():
                setting = _SETTINGS[name]
                if not setting.ok(value):
                    raise UsageError(
                        f"config {section}.{name} must be {setting.must_be}, "
                        f"found {json.dumps(value)}"
                    )
    return cfg


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
        flag = getattr(args, name.lower())
        if flag is not None:
            overrides[name] = flag
    if "n_H" in overrides:
        overrides["n_L"] = 1.0 - overrides["n_H"]
    if overrides:
        params = dataclasses.replace(params, **overrides)
    return params


def _inputs(args, block: str | None = None) -> ModelParams | None:
    """The input stage that every subcommand runs before it prints or
    writes anything:

    1. load the config, with every setting value in it checked;
    2. set ``d_max`` and each of the subcommand's settings on ``args``: its
       flag, else its key in the config's ``solver`` or ``block`` section,
       else its default;
    3. resolve the params, for a subcommand that takes them;
    4. range-check the flag values (the config's passed step 1);
    5. set ``args.out`` to the output directory: ``--out``, else
       ``RECOMMERCE_OUT``, else the config's ``out_dir``, else ``./out``. Its
       nearest existing ancestor must be a directory.

    Returns the params. The handler then checks its own inputs and the
    admissibility of the models it solves; its first written file creates
    the output directory.
    """

    cfg = _load_config(args.config)
    given = {**cfg.get("solver", {}), **cfg.get(block, {})}
    for name in ("d_max", *args.settings):
        setting = _SETTINGS[name]
        value = getattr(args, name, None)
        if value is None:
            value = given.get(name, setting.default)
        setattr(args, name, value if value is None else setting.kind(value))
    params = _resolve_params(args, cfg) if args.takes_params else None
    for name in args.settings:
        setting, value = _SETTINGS[name], getattr(args, name)
        if value is not None and not setting.ok(value):
            raise UsageError(f"{_flag(name)} must be {setting.must_be}, found {value}")
    out = args.out or os.environ.get(OUT_ENV_VAR) or cfg.get("out_dir") or "out"
    if not isinstance(out, str):
        raise UsageError(f"config out_dir must be a string, found {json.dumps(out)}")
    args.out = Path(out)
    existing = next(path for path in (args.out, *args.out.parents) if path.exists())
    if not existing.is_dir():
        raise UsageError(f"output directory {out} cannot be made: {existing} is not a directory")
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
        if model is ModelKind.TWO_PERIOD:
            # k*M with k = delta/(1+delta) underflows to 0 at a subnormal
            # delta, and then no d_max brackets the durability root
            slopes = [tp.durability_condition(params, model, r) for r in (*Regime, None)]
            if any(margin > 0.0 and not slope > 0.0 for margin, slope in slopes):
                raise UsageError(
                    f"{what} {model.value} admissibility: at delta = {params.delta!r} "
                    "the durability slope delta/(1+delta)*M underflows to 0"
                )


def _chosen(kind, arg: str) -> list:
    """The members of ``kind`` that ``arg`` names: every one, in declaration
    order, for ``both``."""

    return list(kind) if arg == "both" else [kind(arg)]


def _solve(params: ModelParams, model: ModelKind, regime: Regime, d_max: float):
    if model is ModelKind.TWO_PERIOD:
        return tp.solve(params, regime, d_max=d_max)
    return olg_mod.solve_olg(params, regime, d_max=d_max)


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------


def _cmd_solve(args) -> int:
    params = _inputs(args)
    models = _chosen(ModelKind, args.model)
    regimes = _chosen(Regime, args.regime)
    _validate_for(params, models, args.d_max)
    out = args.out

    payload: dict = {"params": params_to_dict(params)}
    for model in models:
        two_period = model is ModelKind.TWO_PERIOD
        key = model.value.replace("-", "_")
        columns = rep.TWO_PERIOD_COLUMNS if two_period else rep.OLG_COLUMNS
        rows = []
        section = {}
        for regime in regimes:
            sol = _solve(params, model, regime, args.d_max)
            section[regime.value] = sol
            rows.append(rep._row(sol, columns))
            line = f"{model.value} {regime.value}: D*={sol.D_star:.6g} " + (
                f"D_social={sol.D_social:.6g} profit={sol.profit_total:.6g}"
                if two_period
                else f"objective={sol.objective_value:.6g}"
            )
            if sol.market_mode is tp.MarketMode.SHUTDOWN:
                line += f" ({SHUTDOWN_NOTE})"
            print(line)
        payload[key] = section
        rep.write_csv(out / f"{key}.csv", columns, rows)
    rep.write_json(out / "solution.json", payload)
    print(f"wrote {out / 'solution.json'}")
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    params = _inputs(args, "sweep")
    parameter = args.parameter
    if None in (parameter, args.start, args.stop, args.steps):
        raise UsageError(
            "sweep needs --parameter, --start, --stop, and --steps "
            "(flags or the config sweep block)"
        )
    if parameter not in statics_mod._SWEEPABLE:
        raise UsageError(
            f"sweep parameter must be one of {', '.join(statics_mod._SWEEPABLE)}, "
            f"found {parameter!r}"
        )
    if getattr(args, parameter) is not None:
        raise UsageError(
            f"{_flag(parameter)} sets a base value that the sweep over {parameter} "
            "does not read"
        )
    model = ModelKind(args.model)
    regimes = _chosen(Regime, args.regime)
    d_max = args.d_max
    values = np.linspace(args.start, args.stop, args.steps)
    for value in values:
        point = dataclasses.replace(params, **{parameter: float(value)})
        _validate_for(point, [model], d_max, f"sweep point {parameter}={value:.6g} fails")
    out = args.out

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
    params = _inputs(args)
    d_max = args.d_max
    _validate_for(params, list(ModelKind), d_max)
    out = args.out

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
    params = _inputs(args)
    d_max = args.d_max
    # NaN fails both comparisons
    if args.durability is not None and not (0.0 < args.durability <= d_max):
        raise UsageError(
            f"--durability must be positive and at most d_max = {d_max!r}, "
            f"found {args.durability!r}"
        )
    if args.durability is not None and args.regime is not None:
        raise UsageError(
            "--regime picks the solved durability to audit, which --durability "
            "replaces; give one or the other"
        )
    _validate_for(params, [ModelKind.OLG], d_max)
    d_audit = args.durability
    if d_audit is None:
        sol = olg_mod.solve_olg(params, Regime(args.regime or "third-party"), d_max=d_max)
        if sol.market_mode is tp.MarketMode.SHUTDOWN:
            raise UsageError(
                "no active pre-owned steady state at these parameters "
                f"({SHUTDOWN_NOTE}); pass --durability to audit a chosen value"
            )
        d_audit = sol.D_star
    out = args.out

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
    _inputs(args, "verification")
    if args.audit_draws > args.draws:
        raise UsageError(
            f"audit_draws ({args.audit_draws}) must not exceed draws ({args.draws}): "
            "the audits take the head of the draw pools"
        )
    # every draw shares one cost/quality family; a d_max it fails would
    # reject every draw, so it is checked here, on the canonical scalars
    draws = dataclasses.replace(
        canonical_params(), cost=statics_mod._DRAW_COST, quality=statics_mod._DRAW_QUALITY
    )
    _validate_for(draws, list(ModelKind), args.d_max, "the draw family fails")
    out = args.out

    scales = {
        name: getattr(args, name)
        for name in ("draws", "foc_draws", "grid_points", "audit_draws", "commission_points")
    }
    results = statics_mod.run_verification(
        seed=args.seed,
        foc_draws=args.foc_draws,
        grid_points=args.grid_points,
        pool_draws=args.draws,
        audit_draws=args.audit_draws,
        commission_points=args.commission_points,
        d_max=args.d_max,
        jobs=args.jobs,
        inject_failure=args.inject_failure,
    )
    rep.write_csv(out / "verify.csv", rep.VERIFY_COLUMNS, [rep.verify_row(r) for r in results])
    rep.write_json(
        out / "verify.json",
        {"seed": args.seed, "scales": scales, "results": results},
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
    params = _inputs(args)
    d_max = args.d_max
    models = list(ModelKind)
    _validate_for(params, models, d_max)
    out = args.out

    grid = oracle_mod.GridSpec(0.0, d_max, args.grid_points)
    entries = []
    worst = 0.0
    unresolved, mismatched = [], []
    for model in models:
        for regime in Regime:
            sol = _solve(params, model, regime, d_max)
            d_star = sol.D_star
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
                    "market_mode": sol.market_mode,
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
            "grid_points": args.grid_points,
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


def _subcommand(
    subs, name: str, func, help: str, settings: tuple[str, ...] = (), params: bool = True
) -> argparse.ArgumentParser:
    """A subparser with ``--config``, ``--out``, the parameter overrides
    when ``params``, and a flag for each of ``settings``."""

    sub = subs.add_parser(name, help=help)
    sub.add_argument("--config", help="path to a JSON config file")
    sub.add_argument("--out", help="output directory (overrides env and config)")
    for param in _PARAM_FLAGS if params else ():
        sub.add_argument(_flag(param), type=float, help=f"override parameter {param}")
    for key in settings:
        setting = _SETTINGS[key]
        sub.add_argument(_flag(key), type=setting.kind, choices=setting.choices, help=setting.help)
    sub.set_defaults(func=func, settings=settings, takes_params=params)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="recommerce",
        description=(
            "Equilibrium durability, prices, and profits for a durable-goods "
            "seller facing a pre-owned market, with brute-force verification."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = _subcommand(subs, "solve", _cmd_solve, "solve one parameter point")
    sub.add_argument("--model", choices=[*_VALUES[ModelKind], "both"], default="two-period")
    sub.add_argument("--regime", choices=[*_VALUES[Regime], "both"], default="both")

    sub = _subcommand(
        subs, "sweep", _cmd_sweep, "sweep one parameter and classify monotonicity",
        ("parameter", "start", "stop", "steps"),
    )
    sub.add_argument("--model", choices=_VALUES[ModelKind], default="two-period")
    sub.add_argument("--regime", choices=[*_VALUES[Regime], "both"], default="both")

    _subcommand(subs, "compare", _cmd_compare, "side-by-side regime comparison")

    sub = _subcommand(
        subs, "olg-verify", _cmd_olg_verify, "exhaustively audit steady-state candidates"
    )
    sub.add_argument(
        "--regime", choices=_VALUES[Regime],
        help="regime whose optimum is audited (default: third-party)",
    )
    sub.add_argument(
        "--durability",
        type=float,
        default=None,
        help="audit at this durability instead of the solved optimum",
    )

    sub = _subcommand(
        subs, "verify", _cmd_verify, "run the seeded property suite",
        ("seed", "draws", "foc_draws", "grid_points", "audit_draws", "commission_points", "jobs"),
        params=False,
    )
    sub.add_argument(
        "--inject-failure",
        action="store_true",
        help="append a deliberately failing probe (harness self-test)",
    )

    _subcommand(
        subs, "oracle-check", _cmd_oracle_check,
        "compare analytic optima against the grid oracle", ("grid_points",),
    )
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
    except OSError as exc:
        # a write that fails after the input stage, e.g. a full disk
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
