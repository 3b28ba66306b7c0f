"""The benchmark's workloads: how each one makes its inputs and runs one request.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned. Inputs come only from the workload seed.
A request's output is serialised to bytes (outside the timed region) so runs
and commits can be compared by digest, and checked for correctness.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Program functions are called through their modules so that a traced run's
# wrappers, installed on module attributes, see every call.
from recommerce import cli, olg, oracle, primitives, statics
from recommerce import reporting as rep
from recommerce import two_period as tp
from recommerce.primitives import (
    ModelKind,
    ModelParams,
    PowerCost,
    RationalQuality,
    Regime,
    SaturatingExpQuality,
    params_to_dict,
)

# Audit grid of point-audit, and the grid solve-stream's oracle check uses.
AUDIT_GRID = oracle.GridSpec(0.0, 10.0, 100_000)
# solve-stream compares this many leading requests against the grid oracle.
SOLVE_ORACLE_CHECKS = 64

# verify runs at a quarter of every CLI default scale (200, 200, 100000, 50,
# 1001), so that a run holds several verify requests and reports their median
# within the benchmark's time budget. The smoke mode uses minimal scales.
VERIFY_FLAGS = (
    "--draws", "50", "--foc-draws", "50", "--grid-points", "25000",
    "--audit-draws", "12", "--commission-points", "250",
)
SMOKE_VERIFY_FLAGS = (
    "--draws", "4", "--foc-draws", "4", "--grid-points", "1000",
    "--audit-draws", "2", "--commission-points", "11",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def draw_point(rng: np.random.Generator) -> ModelParams:
    """One unfiltered parameter point: DEFAULT_BOX scalars, drawn families.

    Costs are PowerCost with c0 log-uniform in [0.1, 2] and p in [1.5, 3];
    quality is SaturatingExpQuality (s_bar in [0.6, 1], k in [0.3, 3]) or
    RationalQuality (k in [0.3, 3]) with equal odds. Shut-down, active and
    cap-binding points therefore occur at their natural rates.
    """

    box = statics.DEFAULT_BOX
    n_h = rng.uniform(*box.n_H)
    v_l = rng.uniform(*box.v_L)
    delta = rng.uniform(*box.delta)
    alpha = rng.uniform(*box.alpha)
    beta = rng.uniform(*box.beta)
    cost = PowerCost(
        c0=math.exp(rng.uniform(math.log(0.1), math.log(2.0))),
        p=rng.uniform(1.5, 3.0),
    )
    if rng.random() < 0.5:
        quality = SaturatingExpQuality(s_bar=rng.uniform(0.6, 1.0), k=rng.uniform(0.3, 3.0))
    else:
        quality = RationalQuality(k=rng.uniform(0.3, 3.0))
    return ModelParams(
        v_H=1.0, v_L=v_l, n_H=n_h, n_L=1.0 - n_h, delta=delta,
        alpha=alpha, beta=beta, cost=cost, quality=quality,
    )


@dataclass
class Workload:
    """One workload: inputs from the seed, one request, its bytes, its check.

    ``make(i)`` builds request ``i``; ``execute`` is the timed part;
    ``serialise`` and ``check`` run after the clock stops. ``check``
    returns None when the output is correct, else a one-line reason. The
    checks of the first ``late_checks`` requests run only after the
    measurement, so that their own work does not count in its peak memory.
    """

    make: Callable[[int], object]
    execute: Callable[[object], object]
    serialise: Callable[[object, object], bytes]
    check: Callable[[int, object, object], str | None]
    golden_requests: int  # leading requests covered by the golden digest
    trace_requests: int  # fixed request count of a traced run
    warmup: Callable[[], None] | None = None
    late_checks: int = 0


def _rng(seed: int, tag: int) -> Callable[[int], np.random.Generator]:
    """A deterministic stream of per-request generators for one workload."""

    return lambda i: np.random.default_rng([seed, tag, i])


# ----------------------------------------------------------------------
# solve-stream
# ----------------------------------------------------------------------


def _solve(params: ModelParams):
    ok_tp = primitives.validate_params(params, ModelKind.TWO_PERIOD).ok
    ok_olg = primitives.validate_params(params, ModelKind.OLG).ok
    return ok_tp, ok_olg, statics.regime_comparison(params)


def _solve_bytes(params: ModelParams, out) -> bytes:
    ok_tp, ok_olg, rc = out
    payload = {"params": params_to_dict(params), "valid": [ok_tp, ok_olg], "comparison": rc}
    return json.dumps(rep.to_jsonable(payload), sort_keys=True).encode()


def _solver_d(params: ModelParams, model: ModelKind, regime: Regime) -> float:
    if model is ModelKind.TWO_PERIOD:
        return tp.solve(params, regime).D_star
    return olg.solve_olg(params, regime).D_star


def _grid_gaps(params: ModelParams, d_of) -> list[dict]:
    """Solver-versus-grid-oracle entries for all four model/regime cells."""

    entries = []
    for model in ModelKind:
        for regime in Regime:
            d_star = d_of(model, regime)
            hit = oracle.grid_argmax_profit(params, regime, model, AUDIT_GRID)
            entries.append(
                {
                    "model": model,
                    "regime": regime,
                    "solver_D": d_star,
                    "grid_D": hit.D_at_max,
                    "gap": abs(d_star - hit.D_at_max),
                }
            )
    return entries


def _solve_check(i: int, params: ModelParams, out) -> str | None:
    if i >= SOLVE_ORACLE_CHECKS:
        return None
    _, _, rc = out
    solved = {
        ModelKind.TWO_PERIOD: {r: eq.D_star for r, eq in rc.two_period.items()},
        ModelKind.OLG: {r: sol.D_star for r, sol in rc.olg.items()},
    }
    for e in _grid_gaps(params, lambda m, r: solved[m][r]):
        if e["gap"] > AUDIT_GRID.step:
            return f"solve-stream request {i}: {e['model'].value}/{e['regime'].value} gap {e['gap']:.3e}"
    return None


def solve_stream(seed: int, smoke: bool) -> Workload:
    rng = _rng(seed, 1)
    warm = _rng(seed, 101)

    def warmup() -> None:
        for i in range(20):
            _solve(draw_point(warm(i)))

    return Workload(
        make=lambda i: draw_point(rng(i)),
        execute=_solve,
        serialise=_solve_bytes,
        check=_solve_check,
        golden_requests=200,
        # enough requests that active and cap-binding OLG points occur
        trace_requests=100 if smoke else 1000,
        warmup=warmup,
        # the oracle's 1e5-point grids would otherwise set the peak memory
        late_checks=SOLVE_ORACLE_CHECKS,
    )


# ----------------------------------------------------------------------
# point-audit
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AuditRequest:
    params: ModelParams
    regime: Regime
    fallback_D: float  # audited durability when the point is shut down
    out: Path


def _audit(req: AuditRequest):
    """What ``olg-verify`` and ``oracle-check`` do for one point."""

    params, regime = req.params, req.regime
    sol = olg.solve_olg(params, regime)
    active = sol.market_mode is tp.MarketMode.ACTIVE
    d_audit = sol.D_star if active else req.fallback_D
    scan = oracle.exhaustive_steady_state_scan(params, d_audit)
    rep.write_csv(req.out / "olg_audit.csv", rep.AUDIT_COLUMNS, [rep.audit_row(r) for r in scan.rows])
    entries = _grid_gaps(params, lambda m, r: _solver_d(params, m, r))
    worst = max(e["gap"] for e in entries)
    rep.write_json(
        req.out / "oracle_check.json",
        {
            "params": params_to_dict(params),
            "regime": regime,
            "market_mode": sol.market_mode,
            "no_active_steady_state": sol.no_active_steady_state,
            "durability": d_audit,
            "rows": len(scan.rows),
            "survivors": len(scan.survivors),
            "unique_trade_pattern": scan.unique_survivor_is_trade_pattern,
            "grid_points": AUDIT_GRID.count,
            "grid_step": AUDIT_GRID.step,
            "worst_gap": worst,
            "ok": worst <= AUDIT_GRID.step,
            "entries": entries,
        },
    )
    return sol


def _audit_bytes(req: AuditRequest, sol) -> bytes:
    return (req.out / "olg_audit.csv").read_bytes() + (req.out / "oracle_check.json").read_bytes()


def _audit_check(i: int, req: AuditRequest, sol) -> str | None:
    report = json.loads((req.out / "oracle_check.json").read_text(encoding="utf-8"))
    csv_lines = (req.out / "olg_audit.csv").read_text(encoding="utf-8").count("\n")
    if report["rows"] != 243 or csv_lines != 244:
        return f"point-audit request {i}: {report['rows']} scan rows, {csv_lines} CSV lines"
    if not report["ok"]:
        return f"point-audit request {i}: solver-grid gap {report['worst_gap']}"
    # An active steady state inside the ratio cap must be the unique survivor.
    if report["market_mode"] != "shutdown" and not report["no_active_steady_state"]:
        if not report["unique_trade_pattern"]:
            return f"point-audit request {i}: trade pattern is not the unique survivor"
    return None


def point_audit(seed: int, out: Path, smoke: bool) -> Workload:
    rng = _rng(seed, 2)
    warm = _rng(seed, 102)

    def make(i: int, gen=rng) -> AuditRequest:
        r = gen(i)
        params = draw_point(r)
        regime = Regime.THIRD_PARTY if r.random() < 0.5 else Regime.BRANDED
        return AuditRequest(params, regime, float(r.uniform(0.05, 1.0)), out)

    def warmup() -> None:
        for i in range(2):
            _audit(make(i, warm))

    return Workload(
        make=make,
        execute=_audit,
        serialise=_audit_bytes,
        check=_audit_check,
        golden_requests=16,
        trace_requests=2 if smoke else 48,
        warmup=warmup,
    )


# ----------------------------------------------------------------------
# verify and verify-jobs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyRequest:
    seed: int
    jobs: int
    flags: tuple[str, ...]
    out: Path

    def argv(self) -> list[str]:
        return [
            "verify", "--seed", str(self.seed), "--jobs", str(self.jobs),
            "--out", str(self.out), *self.flags,
        ]


def _verify(req: VerifyRequest) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(req.argv())


def _verify_bytes(req: VerifyRequest, rc: int) -> bytes:
    return (req.out / "verify.csv").read_bytes() + (req.out / "verify.json").read_bytes()


def _verify_check(i: int, req: VerifyRequest, rc: int) -> str | None:
    if rc != 0:
        return f"verify --jobs {req.jobs}: exit code {rc}"
    return None


def _verify_requests(seed: int, jobs: int, out: Path, smoke: bool):
    """Request ``i`` runs verify with seed ``seed + 1000 i``.

    Each request draws its own pools, so a run's median averages over the
    seed-to-seed variation in rejection-sampling work instead of repeating
    one pool.
    """

    flags = SMOKE_VERIFY_FLAGS if smoke else VERIFY_FLAGS
    return lambda i: VerifyRequest(seed + 1000 * i, jobs, flags, out)


def verify(seed: int, out: Path, smoke: bool) -> Workload:
    return Workload(
        make=_verify_requests(seed, 1, out, smoke),
        execute=_verify,
        serialise=_verify_bytes,
        check=_verify_check,
        golden_requests=1,
        trace_requests=1,
    )


def verify_jobs(seed: int, out: Path, smoke: bool, src: Path) -> Workload:
    """verify with --jobs nproc; request 0 must equal a --jobs 1 run byte for byte."""

    make = _verify_requests(seed, nproc(), out, smoke)
    reference: list[bytes] = []

    def check(i: int, req: VerifyRequest, rc: int) -> str | None:
        bad = _verify_check(i, req, rc)
        if bad or i != 0:
            return bad
        if not reference:
            ref = dataclasses.replace(req, jobs=1, out=out / "jobs1")
            proc = subprocess.run(
                [sys.executable, "-m", "recommerce.cli", *ref.argv()],
                env=dict(os.environ, PYTHONPATH=str(src)),
                stdout=subprocess.DEVNULL, timeout=170,
            )
            if proc.returncode != 0:
                return f"verify --jobs 1 reference: exit code {proc.returncode}"
            reference.append(_verify_bytes(ref, 0))
        if _verify_bytes(req, rc) != reference[0]:
            return f"verify --jobs {req.jobs} output differs from --jobs 1"
        return None

    return Workload(
        make=make,
        execute=_verify,
        serialise=_verify_bytes,
        check=check,
        golden_requests=1,
        trace_requests=1,
    )
