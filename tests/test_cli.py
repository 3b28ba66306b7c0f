import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import pathlib
import shutil
import tempfile
import warnings

import numpy as np
import pytest

from recommerce import canonical_params, oracle, params_to_dict, statics
from recommerce import olg as olg_mod
from recommerce import two_period as tp
from recommerce.primitives import DEFAULT_D_MAX
from recommerce.cli import CONFIG_SCHEMA, OUT_ENV_VAR, build_parser, main
from recommerce.reporting import (
    AUDIT_COLUMNS,
    OLG_COLUMNS,
    SWEEP_COLUMNS,
    TWO_PERIOD_COLUMNS,
    VERIFY_COLUMNS,
)
from references import ORACLE_FAMILIES

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below is not collected
    given = None

SMALL_VERIFY = [
    "--seed", "7",
    "--draws", "6",
    "--foc-draws", "2",
    "--grid-points", "5000",
    "--audit-draws", "2",
    "--commission-points", "51",
]


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def write_config(tmp_path, **extra):
    payload = {"schema": CONFIG_SCHEMA, **extra}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------


def test_solve_defaults(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--out", str(out)]) == 0
    header, rows = read_csv(out / "two_period.csv")
    assert header == list(TWO_PERIOD_COLUMNS)
    assert [r[0] for r in rows] == ["third-party", "branded"]
    assert not (out / "olg.csv").exists()
    payload = json.loads((out / "solution.json").read_text())
    assert payload["params"]["v_L"] == 0.8
    assert "two_period" in payload and "olg" not in payload
    assert "wrote" in capsys.readouterr().out


def test_solve_both_models_flags_shutdown(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--model", "both", "--out", str(out)]) == 0
    header, rows = read_csv(out / "olg.csv")
    assert header == list(OLG_COLUMNS)
    assert all(r[1] == "shutdown" for r in rows)
    assert "market shutdown" in capsys.readouterr().out


def test_solve_single_regime(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--regime", "branded", "--out", str(out)]) == 0
    _, rows = read_csv(out / "two_period.csv")
    assert len(rows) == 1
    assert rows[0][0] == "branded"


def test_solve_param_flags_override(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--v-l", "0.4", "--out", str(out)]) == 0
    _, rows = read_csv(out / "two_period.csv")
    assert all(r[1] == "shutdown" for r in rows)


def test_solve_rejects_bad_params(tmp_path, capsys):
    assert main(["solve", "--v-l", "1.5", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "valuations_ordered" in err


def test_population_flag_keeps_masses_consistent(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--n-h", "0.4", "--out", str(out)]) == 0
    payload = json.loads((out / "solution.json").read_text())
    assert payload["params"]["n_H"] == 0.4
    assert payload["params"]["n_L"] == 0.6


# ----------------------------------------------------------------------
# config handling
# ----------------------------------------------------------------------


def test_config_supplies_params(tmp_path):
    params = dataclasses.replace(canonical_params(), v_L=0.75)
    cfg = write_config(tmp_path, params=params_to_dict(params))
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "solution.json").read_text())
    assert payload["params"]["v_L"] == 0.75


def test_flags_beat_config(tmp_path):
    cfg = write_config(tmp_path, params=params_to_dict(canonical_params()))
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--v-l", "0.85", "--out", str(out)]) == 0
    payload = json.loads((out / "solution.json").read_text())
    assert payload["params"]["v_L"] == 0.85


def test_shipped_config_loads(tmp_path):
    shipped = pathlib.Path(__file__).resolve().parent.parent / "configs" / "canonical.json"
    assert main(["solve", "--config", str(shipped),
                 "--out", str(tmp_path / "run")]) == 0


def params_config(section=None, **fields):
    """Canonical params as config text, with ``fields`` replaced at the top
    level or, given ``section``, inside the cost or quality family."""

    params = params_to_dict(canonical_params())
    (params[section] if section else params).update(fields)
    return json.dumps({"schema": CONFIG_SCHEMA, "params": params})


@pytest.mark.parametrize(
    "content",
    [
        "not json at all",
        '["a", "list"]',
        '{"schema": "recommerce-config/1", "mystery": 1}',
        '{"schema": "recommerce-config/2"}',
        '{"params": {}}',
        '{"schema": "recommerce-config/1", "solver": {"granularity": 9}}',
        '{"schema": "recommerce-config/1", "solver": {"d_max": "ten"}}',
        '{"schema": "recommerce-config/1", "solver": {"d_max": null}}',
        '{"schema": "recommerce-config/1", "solver": {"d_max": -1}}',
        '{"schema": "recommerce-config/1", "solver": {"d_max": 1e999}}',
        '{"schema": "recommerce-config/1", "sweep": {"start": "low"}}',
        '{"schema": "recommerce-config/1", "sweep": {"steps": 2.5}}',
        '{"schema": "recommerce-config/1", "verification": {"seed": "x"}}',
        '{"schema": "recommerce-config/1", "verification": {"draws": true}}',
        '{"schema": "recommerce-config/1", "verification": {"seed": -1}}',
        pytest.param(params_config(v_H=math.inf), id="params-v_H-Infinity"),
        pytest.param(params_config(v_L=-math.inf), id="params-v_L--Infinity"),
        pytest.param(params_config(delta=math.nan), id="params-delta-NaN"),
        pytest.param(params_config(v_H=True), id="params-v_H-true"),
        pytest.param(params_config(alpha="0.9"), id="params-alpha-string"),
        pytest.param(params_config(beta=None), id="params-beta-null"),
        pytest.param(params_config("cost", p="2"), id="params-cost-p-string"),
        pytest.param(params_config("cost", c0=True), id="params-cost-c0-true"),
        pytest.param(params_config("quality", k=math.inf), id="params-quality-k-inf"),
        pytest.param(params_config("quality", k=1e155), id="params-quality-k-1e155"),
        pytest.param(params_config("quality", k=1e300), id="params-quality-k-1e300"),
        pytest.param(params_config("quality", s_bar=[1.0]), id="params-quality-list"),
    ],
)
def test_config_rejection(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_nonfinite_config_param_names_the_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(params_config(v_H=math.inf))
    argv = ["solve", "--model", "both", "--config", str(path), "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: bad config params: params.v_H must be a finite number, found inf\n"
    )
    assert not (tmp_path / "x" / "solution.json").exists()


def test_solver_xtol_is_not_a_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path, solver={"d_max": 10.0, "xtol": 1e-10})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: unknown solver keys: xtol\n"


# cost so flat that c'(D) < k*M*s'(D) on all of (0, d_max], at a point where
# both models are active in both regimes
UNBRACKETED_PARAMS = {
    **params_to_dict(
        dataclasses.replace(canonical_params(), v_L=0.75, alpha=0.95, beta=0.05, delta=0.5)
    ),
    "cost": {"family": "power", "c0": 1e-6, "p": 2.0},
    "quality": {"family": "rational", "k": 1.0},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["solve", "--model", "olg"],
        ["compare"],
        ["oracle-check"],
        ["olg-verify"],
        ["sweep", "--parameter", "beta", "--start", "0.1", "--stop", "0.2", "--steps", "2"],
    ],
)
def test_unbracketed_root_exits_2_with_one_line(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, params=UNBRACKETED_PARAMS)
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: durability first-order condition has no root")
    assert err.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["solve", "compare", "oracle-check"])
def test_social_root_beyond_d_max_is_named(tmp_path, capsys, command):
    # at the canonical point every profit-maximizing D* lies below 0.2 but
    # the social planner's does not; oracle-check reads tp.solve, which
    # solves it, though oracle_check.json does not hold it
    cfg = write_config(tmp_path, solver={"d_max": 0.2})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr() == (
        "",
        "error: durability first-order condition has no root in (0, d_max]: "
        "social-planner durability D_social: f(0.2) = -0.11025586432428791 is not positive\n",
    )
    assert not (tmp_path / "x").exists()


def test_overflowing_d_max_exits_2_with_one_line(tmp_path, capsys):
    # d_max = 1e300 overflows the family-shape grid: the checks it breaks
    # fail, and no NumPy warning reaches stderr before the error line
    cfg = write_config(tmp_path, solver={"d_max": 1e300})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        argv = ["solve", "--model", "both", "--config", cfg, "--out", str(tmp_path / "x")]
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parameters fail two-period admissibility")
    assert err.count("\n") == 1
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("k", [1e154, 1e155, 1e300])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["compare"],
        ["sweep", "--parameter", "beta", "--start", "0.1", "--stop", "0.2", "--steps", "2"],
        ["olg-verify"],
        ["oracle-check"],
    ],
)
def test_huge_quality_rate_exits_2_with_one_line(tmp_path, capsys, argv, k):
    # s''(D) = -s_bar k**2 exp(-k D) overflows above k of about 1.3e154; the
    # shape checks it breaks fail, without a traceback or a NumPy warning
    params = {**params_to_dict(canonical_params()),
              "quality": {"family": "saturating_exp", "s_bar": 1.0, "k": k}}
    cfg = write_config(tmp_path, params=params)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    # a sweep checks its points, not the base point
    assert err.startswith(
        "error: sweep point beta=0.1 fails " if argv[0] == "sweep" else "error: parameters fail "
    )
    assert "admissibility: quality_below_one, " in err
    assert err.count("\n") == 1
    assert [str(w.message) for w in caught] == []


def test_missing_config_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["solve", "--config", missing, "--out", str(tmp_path / "x")]) == 2
    assert "not found" in capsys.readouterr().err


def test_out_dir_env_var(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(OUT_ENV_VAR, str(env_dir))
    assert main(["solve"]) == 0
    assert (env_dir / "solution.json").exists()


def test_out_flag_beats_env(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv(OUT_ENV_VAR, str(env_dir))
    assert main(["solve", "--out", str(flag_dir)]) == 0
    assert (flag_dir / "solution.json").exists()
    assert not env_dir.exists()


def test_env_beats_config_out_dir(tmp_path, monkeypatch):
    cfg_dir = tmp_path / "from_cfg"
    env_dir = tmp_path / "from_env"
    cfg = write_config(tmp_path, out_dir=str(cfg_dir))
    monkeypatch.setenv(OUT_ENV_VAR, str(env_dir))
    assert main(["solve", "--config", cfg]) == 0
    assert (env_dir / "solution.json").exists()
    assert not cfg_dir.exists()


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def test_sweep_via_flags(tmp_path):
    out = tmp_path / "run"
    rc = main([
        "sweep", "--parameter", "beta", "--start", "0", "--stop", "0.3",
        "--steps", "4", "--regime", "branded", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == list(SWEEP_COLUMNS)
    assert len(rows) == 4
    verdicts = json.loads((out / "sweep_verdicts.json").read_text())
    assert verdicts["reports"][0]["verdicts"]["durability"] == "strictly-decreasing"
    assert verdicts["reports"][0]["verdicts"]["profit"] == "strictly-decreasing"


def test_sweep_via_config_block(tmp_path):
    cfg = write_config(
        tmp_path,
        sweep={"parameter": "alpha", "start": 0.8, "stop": 1.0, "steps": 5},
    )
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "sweep.csv")
    assert len(rows) == 10  # both regimes
    verdicts = json.loads((out / "sweep_verdicts.json").read_text())
    assert all(
        r["verdicts"]["durability"] == "strictly-increasing"
        for r in verdicts["reports"]
    )


def test_sweep_of_one_repeated_value_is_constant(tmp_path):
    out = tmp_path / "run"
    rc = main([
        "sweep", "--parameter", "alpha", "--start", "0.9", "--stop", "0.9",
        "--steps", "3", "--out", str(out),
    ])
    assert rc == 0
    verdicts = json.loads((out / "sweep_verdicts.json").read_text())
    assert [r["regime"] for r in verdicts["reports"]] == ["third-party", "branded"]
    for report in verdicts["reports"]:
        assert report["verdicts"] == dict.fromkeys(("durability", "profit", "welfare"), "constant")


def test_sweep_requires_grid_arguments(tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path / "x")]) == 2
    assert "--parameter" in capsys.readouterr().err


def test_sweep_rejects_inadmissible_grid_point(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "sweep", "--parameter", "alpha", "--start", "0.9", "--stop", "1.3",
        "--steps", "5", "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (
        "error: sweep point alpha=1.1 fails two-period admissibility: "
        "deflator_in_range\n"
    )
    assert not (out / "sweep.csv").exists()


def test_sweep_rejects_unknown_parameter_from_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path, sweep={"parameter": "gamma", "start": 0.1, "stop": 0.2, "steps": 2}
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "sweep parameter must be one of" in capsys.readouterr().err


def test_sweep_empty_active_region(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "sweep", "--parameter", "alpha", "--start", "0.5", "--stop", "0.55",
        "--steps", "3", "--out", str(out),
    ])
    assert rc == 2
    assert "empty active region" in capsys.readouterr().err
    # the table is still written for inspection
    assert (out / "sweep.csv").exists()


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def test_compare(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["compare", "--out", str(out)]) == 0
    payload = json.loads((out / "compare.json").read_text())
    assert payload["comparison"]["d_durability"] > 0
    assert payload["comparison"]["both_active_two_period"] is True
    assert "dD=" in capsys.readouterr().out


# ----------------------------------------------------------------------
# olg-verify
# ----------------------------------------------------------------------


def test_olg_verify_needs_durability_in_shutdown(tmp_path, capsys):
    assert main(["olg-verify", "--out", str(tmp_path / "x")]) == 2
    assert "--durability" in capsys.readouterr().err


def test_olg_verify_at_chosen_durability(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["olg-verify", "--durability", "0.12", "--out", str(out)]) == 0
    header, rows = read_csv(out / "olg_audit.csv")
    assert header == list(AUDIT_COLUMNS)
    assert len(rows) == 243
    assert "unique steady state" in capsys.readouterr().out
    assert not (out / "olg_audit_counterexample.json").exists()


def test_olg_verify_rejects_nonpositive_durability(tmp_path, capsys):
    # durabilities live in (0, d_max]; 1e200 would overflow c0*D**2
    above = repr(float(np.nextafter(DEFAULT_D_MAX, np.inf)))
    for value in ("-1", "0", "nan", "inf", "1e200", above):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["olg-verify", f"--durability={value}",
                         "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "positive" in err and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []
    # exactly d_max is accepted, here with d_max lowered to a passing point
    cfg = write_config(tmp_path, solver={"d_max": 0.12})
    assert main(["olg-verify", "--config", cfg, "--durability", "0.12",
                 "--out", str(tmp_path / "y")]) == 0
    assert main(["olg-verify", "--config", cfg, "--durability", repr(float(np.nextafter(0.12, 1))),
                 "--out", str(tmp_path / "z")]) == 2
    assert "at most d_max = 0.12" in capsys.readouterr().err


def test_olg_verify_reports_uniqueness_failure(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "olg-verify", "--v-l", "0.95", "--alpha", "0.95", "--beta", "0.2",
        "--delta", "0.5", "--out", str(out),
    ])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().err
    payload = json.loads((out / "olg_audit_counterexample.json").read_text())
    assert payload["survivors"] == []
    # the failing audit's bytes, as written before the scan records were
    # slimmed to the fields that the outputs read
    for name, digest in {
        "olg_audit.csv": "846df82e91f37584141016810cc7503502235cb377d6205e48a42058c99757c2",
        "olg_audit_counterexample.json":
            "dfa01bd5a6622f8b465456b3109f2ea9a692673ef4db4eb5294e96cfc394f101",
    }.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_small_scale(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["verify", *SMALL_VERIFY, "--out", str(out)]) == 0
    header, rows = read_csv(out / "verify.csv")
    assert header == list(VERIFY_COLUMNS)
    assert len(rows) == 9
    assert all(r[3] == "pass" for r in rows)
    payload = json.loads((out / "verify.json").read_text())
    assert payload["seed"] == 7
    assert len(payload["results"]) == 9
    assert capsys.readouterr().out.count("PASS") == 9
    assert not (out / "counterexample.json").exists()


def test_verify_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", *SMALL_VERIFY, "--out", str(out1)]) == 0
    assert main(["verify", *SMALL_VERIFY, "--out", str(out2)]) == 0
    for name in ("verify.csv", "verify.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verify_parallel_matches_serial_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", *SMALL_VERIFY, "--out", str(out1)]) == 0
    assert main(["verify", *SMALL_VERIFY, "--jobs", "2", "--out", str(out2)]) == 0
    for name in ("verify.csv", "verify.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# verify --seed 42 at a small scale: SHA-256 of the outputs written by the
# one-draw-at-a-time sampler, per-row audit and per-rung ladder solves. The
# screened block sampler, once-per-scan audit tables and batched ladder
# roots must reproduce them byte for byte.
FROZEN_VERIFY = [
    "--seed", "42",
    "--draws", "10",
    "--foc-draws", "4",
    "--grid-points", "5000",
    "--audit-draws", "3",
    "--commission-points", "51",
]
FROZEN_SHA256 = {
    "verify.csv": "5379eb36e85a9e905bd1c6a9e3048ad4b524b8b3fc2f2e7d5c08b5ec8cbadf1b",
    "verify.json": "6c6939aeec56a86f6765088ab189621fdea6d78d55d63df7babb3501786d5028",
}


def test_verify_matches_frozen_digests(tmp_path):
    out = tmp_path / "run"
    assert main(["verify", *FROZEN_VERIFY, "--out", str(out)]) == 0
    for name, digest in FROZEN_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# SHA-256 of verify at its default scales (200 draws, 1e5 grid points),
# written before the grid oracle searched a draw pool's lanes in one call
DEFAULT_VERIFY_SHA256 = {
    "42": {
        "verify.csv": "d685240c78457a36a0f1636c1b5f377b9f1c3c6252e128778282d3aae90cefae",
        "verify.json": "c6f416558183fa07ec900ef87c0c6a7a81db8c8d332762eefe8dfb0451398572",
    },
    "7": {
        "verify.csv": "a05d9060b4ab6c77ced8578f1f22ccfb0265fca850d5a4edbf64813abe5b5bf9",
        "verify.json": "ec2e00d94527061261fb64df1e20c67b91ac5c0706bc6b4e1ec6f81bf1ee96ef",
    },
}


@pytest.mark.parametrize("seed", DEFAULT_VERIFY_SHA256)
def test_default_scale_verify_matches_frozen_digests(tmp_path, seed):
    out = tmp_path / "run"
    assert main(["verify", "--seed", seed, "--out", str(out)]) == 0
    for name, digest in DEFAULT_VERIFY_SHA256[seed].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


OLG_ACTIVE = str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "olg_active.json")
CANONICAL = str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "canonical.json")

# SHA-256 of the sweep, compare and solve outputs written while single points
# were solved by a scalar root helper and the value function and envelope
# derivatives kept a scalar branch; routing them through the batched kernel
# must reproduce them byte for byte. The canonical point has a shut-down
# OLG market; configs/olg_active.json has both OLG regimes active.
FROZEN_RUNS = {
    "sweep-two-period-alpha": (
        ["sweep", "--parameter", "alpha", "--start", "0.75", "--stop", "1.0", "--steps", "26"],
        {
            "sweep.csv": "2ac8954bdaf2cf4df0044dab158593cf975fa107c5547fdef8c8d0c00b11e15f",
            "sweep_verdicts.json": "4c8b73a6c9b3e2ea3fa6152d1c012b5be9854a0e3c58972c208b81f0eda64b98",
        },
    ),
    "sweep-two-period-beta": (
        ["sweep", "--parameter", "beta", "--start", "0.0", "--stop", "0.5", "--steps", "26"],
        {
            "sweep.csv": "72e54c17e77269502d1b6db1cc21bcaccae0373a6106e121026e33a35cb342e2",
            "sweep_verdicts.json": "103991c9cc0bda4789ed18af6e7f62463b5d07ac9094d1279cd2f6432e1f7950",
        },
    ),
    "sweep-two-period-delta": (
        ["sweep", "--parameter", "delta", "--start", "0.5", "--stop", "0.95", "--steps", "26"],
        {
            "sweep.csv": "f34a60b0cf19e6e2710acc944847b36220dd5baf5df4219fc31adb8ede69c9ea",
            "sweep_verdicts.json": "ee09c7e5f7add9602ddbfc05325604765af259afa4e7b11c46d513a4625d1ed4",
        },
    ),
    "sweep-olg-alpha": (
        ["sweep", "--config", OLG_ACTIVE, "--model", "olg",
         "--parameter", "alpha", "--start", "0.8", "--stop", "1.0", "--steps", "26"],
        {
            "sweep.csv": "676217383df1805439e2f7a756aea830ef585716b8d953519be04e2485cd3d9e",
            "sweep_verdicts.json": "d7fb30bf1c6bf9ae5c0f58d54e91d7a692616a9e81b578356d0862b7c3218e17",
        },
    ),
    "sweep-olg-beta": (
        ["sweep", "--config", OLG_ACTIVE, "--model", "olg",
         "--parameter", "beta", "--start", "0.0", "--stop", "0.25", "--steps", "26"],
        {
            "sweep.csv": "d7f3965264d8aabc6dd01ce0f7002a0e9d78f53f1cddff705dceb7e013e5e452",
            "sweep_verdicts.json": "0efb5cd5803be3f4d6f56f21923e1111b177d577488baaaf251c8e0c7b6e4ba1",
        },
    ),
    "sweep-olg-delta": (
        ["sweep", "--config", OLG_ACTIVE, "--model", "olg",
         "--parameter", "delta", "--start", "0.3", "--stop", "0.6", "--steps", "26"],
        {
            "sweep.csv": "c82c56e41ba9ac5745f3b3f69311a949518a4238462806e334a2bb08601d9b1c",
            "sweep_verdicts.json": "82afa829917c34201adaa9f686dc671828a61039a18fdca887604593125d723b",
        },
    ),
    "compare": (
        ["compare"],
        {"compare.json": "cf6a92fdc2ce5c8e8d9a6bde71282c75f87b3c7b84abc439e38985aca25b2c03"},
    ),
    "compare-olg": (
        ["compare", "--config", OLG_ACTIVE],
        {"compare.json": "ada619fe8015c17c83c70feb14d5613ae3d8913a11d720e45bc1fc28aab00d88"},
    ),
    "solve": (
        ["solve", "--model", "both"],
        {
            "solution.json": "476ff475f62f36cd2ea0c8eb0a19382ea88d8158793de37dfef4f8ce2721c1ae",
            "two_period.csv": "aee7a427e6fb7bc5bfeb8ea7c1640717298a1e76cd03e92676215021d039f018",
            "olg.csv": "ba44329a11489c6142ccdc48e893146945a7e71dc55b04336a91b564b773c777",
        },
    ),
    "solve-olg": (
        ["solve", "--model", "both", "--config", OLG_ACTIVE],
        {
            "solution.json": "cf607e8642e684a56212022fdf231e49293bc4640799c3b0f4572221817fef1b",
            "two_period.csv": "7947ff68e994adf5946687413cda7e00fc75b3ca4262e0009f40f992256aea52",
            "olg.csv": "0ff0496620c163929c332cfd2cc7f168dc9e6f016a36aea23d356ab2870dd7ce",
        },
    ),
    # written while the grid oracle evaluated every point of its 1e5-point
    # grid; they hold each cell's grid_D, which pruning must not move
    "oracle-check": (
        ["oracle-check"],
        {"oracle_check.json": "139e209605b8636856ecf744e1ea330953bdf81d85e46d4755a2852bd7f8649b"},
    ),
    "oracle-check-olg": (
        ["oracle-check", "--config", OLG_ACTIVE],
        {"oracle_check.json": "adb36b6b91b83b892710e0c5ee316855edad108dad7af67934586cdc5b2f749c"},
    ),
    # every cell of the audit is a state, an action or a flag, so the active
    # steady state and the shut-down canonical point at a chosen durability
    # write the same table
    "olg-verify-olg": (
        ["olg-verify", "--config", OLG_ACTIVE],
        {"olg_audit.csv": "cc1558cd58caa64b21f01fd70d5484eab72a302c2314755cf94a40e25fb73bf6"},
    ),
    "olg-verify-canonical": (
        ["olg-verify", "--config", CANONICAL, "--durability", "0.12"],
        {"olg_audit.csv": "cc1558cd58caa64b21f01fd70d5484eab72a302c2314755cf94a40e25fb73bf6"},
    ),
}


@pytest.mark.parametrize("run", FROZEN_RUNS)
def test_outputs_match_frozen_digests(tmp_path, run):
    argv, digests = FROZEN_RUNS[run]
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_sweep_solves_one_batched_root_per_regime(tmp_path, monkeypatch):
    # each regime's swept lanes and their +step and -step lanes are one
    # root: 2 calls for the canonical two-regime sweep, where solving them
    # apart made 6; the canonical config sweeps alpha as the frozen run does
    calls = []
    bisect = tp.bisect_increasing_vec

    def counting(*args, **kwargs):
        calls.append(args)
        return bisect(*args, **kwargs)

    monkeypatch.setattr(tp, "bisect_increasing_vec", counting)
    out = tmp_path / "run"
    assert main(["sweep", "--config", CANONICAL, "--out", str(out)]) == 0
    assert len(calls) == 2
    digest = FROZEN_RUNS["sweep-two-period-alpha"][1]["sweep.csv"]
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == digest


def test_verify_inject_failure(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["verify", *SMALL_VERIFY, "--inject-failure", "--out", str(out)])
    assert rc == 1
    assert "FAIL injected-failure-probe" in capsys.readouterr().out
    payload = json.loads((out / "counterexample.json").read_text())
    assert payload[0]["property"] == "injected-failure-probe"


def test_verify_rejects_bad_scales(tmp_path, capsys):
    assert main(["verify", "--draws", "0", "--out", str(tmp_path / "x")]) == 2
    assert main(["verify", "--grid-points", "500", "--out", str(tmp_path / "y")]) == 2
    assert main(["verify", "--commission-points", "0",
                 "--out", str(tmp_path / "z")]) == 2
    assert capsys.readouterr().err.count("error:") == 3


@pytest.mark.parametrize(
    "flags", [["--seed", "-1"], ["--jobs", "0"], ["--jobs", "-3"]], ids=" ".join
)
def test_verify_rejects_negative_seed_and_jobs_below_one(tmp_path, capsys, flags):
    assert main(["verify", *SMALL_VERIFY, *flags, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0]} must be")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["oracle-check", "--grid-points", "1e5"],
         "argument --grid-points: invalid int value: '1e5'"),
        (["verify", "--jobs", "abc"], "argument --jobs: invalid int value: 'abc'"),
        (["solve", "--alpha", "high"], "argument --alpha: invalid float value: 'high'"),
        (["solve", "--model", "three-period"],
         "argument --model: invalid choice: 'three-period' "
         "(choose from 'two-period', 'olg', 'both')"),
        (["sweep", "--steps"], "argument --steps: expected one argument"),
        (["compare", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from "
         "'solve', 'sweep', 'compare', 'olg-verify', 'verify', 'oracle-check')"),
        ([], "the following arguments are required: command"),
    ],
    ids=["bad-int", "bad-jobs", "bad-float", "bad-choice", "missing-value",
         "unknown-flag", "unknown-subcommand", "no-subcommand"],
)
def test_argument_errors_exit_2_with_one_line(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "x")] if argv else argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    assert err.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [[], ["verify"], ["oracle-check"]], ids=repr)
def test_help_is_unchanged(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: recommerce") and "--help" in out
    assert err == ""


def test_verify_rejects_negative_config_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, verification={"seed": -1})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == "error: config verification.seed must be a nonnegative integer, found -1\n"


def test_verify_scales_from_config(tmp_path):
    cfg = write_config(
        tmp_path,
        verification={
            "seed": 7, "draws": 6, "foc_draws": 2, "grid_points": 5000,
            "audit_draws": 2, "commission_points": 51,
        },
    )
    out = tmp_path / "run"
    assert main(["verify", "--config", cfg, "--draws", "5", "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["scales"]["draws"] == 5  # flag wins
    assert payload["scales"]["grid_points"] == 5000  # config fills the rest


# ----------------------------------------------------------------------
# oracle-check
# ----------------------------------------------------------------------


def test_oracle_check(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["oracle-check", "--grid-points", "20000", "--out", str(out)]) == 0
    payload = json.loads((out / "oracle_check.json").read_text())
    assert payload["ok"] is True
    assert payload["worst_gap"] <= payload["grid_step"]
    assert len(payload["entries"]) == 4
    assert "gap=" in capsys.readouterr().out


# subnormal discount factor -> the cells whose grid it leaves unresolved
FLAT_GRIDS = {
    "1e-316": "olg third-party",
    "1e-318": "olg third-party, olg branded",
    "1e-320": "olg third-party, olg branded",
}


@pytest.mark.parametrize("delta", list(FLAT_GRIDS))
def test_oracle_check_flat_grid_exits_2_with_one_line(tmp_path, capsys, delta):
    # at a subnormal delta the steady-state coefficients of s and c keep few
    # bits: near its peak the grid reads flat to rounding, so its argmax
    # says nothing about D*
    out = tmp_path / "x"
    assert main(["oracle-check", "--delta", delta, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the grid does not resolve the objective")
    assert f"at {FLAT_GRIDS[delta]} its maximum" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("delta", ["1e-9", "1e-12", "1e-300"])
def test_oracle_check_resolves_small_delta(tmp_path, delta):
    # the steady-state objective is n_H*v_H + O(delta), but the grid
    # compares its D-dependent part alone, which keeps full precision
    out = tmp_path / "x"
    assert main(["oracle-check", "--delta", delta, "--out", str(out)]) == 0
    assert json.loads((out / "oracle_check.json").read_text())["ok"] is True


def run_oracle_check_off_by_ten_steps(
    tmp_path, capsys, monkeypatch, module, solver, delta, grid_points
):
    """``oracle-check`` with ``module.solver`` returning a D* ten grid steps
    too high: it must fail the gate."""

    step = DEFAULT_D_MAX / (grid_points - 1)
    real = getattr(module, solver)

    def off(params, regime, d_max=DEFAULT_D_MAX):
        sol = real(params, regime, d_max=d_max)
        return dataclasses.replace(sol, D_star=sol.D_star + 10 * step)

    monkeypatch.setattr(module, solver, off)
    out = tmp_path / "x"
    argv = ["oracle-check", "--grid-points", str(grid_points), "--delta", delta, "--out", str(out)]
    assert main(argv) == 1
    assert "exceeds grid step" in capsys.readouterr().err
    assert json.loads((out / "oracle_check.json").read_text())["ok"] is False


@pytest.mark.parametrize("delta", ["0.9", "1e-9"])
def test_oracle_check_real_mismatch_exits_1(tmp_path, capsys, monkeypatch, delta):
    run_oracle_check_off_by_ten_steps(tmp_path, capsys, monkeypatch, tp, "solve", delta, 20_000)


@pytest.mark.parametrize("delta", ["1e-6", "1e-12"])
def test_oracle_check_steady_state_mismatch_exits_1_at_small_delta(
    tmp_path, capsys, monkeypatch, delta
):
    # on the default grid, whose step is five times finer
    run_oracle_check_off_by_ten_steps(
        tmp_path, capsys, monkeypatch, olg_mod, "solve_olg", delta, 100_000
    )


if given is not None:

    @settings(max_examples=100, deadline=None)
    @given(
        delta=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(-300.0, -0.01).map(lambda e: 10.0**e),
        ),
        family=st.sampled_from(ORACLE_FAMILIES),
    )
    def test_oracle_check_agrees_or_exits_2_over_delta(delta, family):
        params = dataclasses.replace(
            canonical_params(), delta=delta, cost=family[0], quality=family[1]
        )
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = pathlib.Path(tmp) / "config.json"
            cfg.write_text(json.dumps({"schema": CONFIG_SCHEMA, "params": params_to_dict(params)}))
            argv = ["oracle-check", "--config", str(cfg), "--grid-points", "2001",
                    "--out", str(pathlib.Path(tmp) / "run")]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 0:
                payload = json.loads((pathlib.Path(tmp) / "run" / "oracle_check.json").read_text())
                assert payload["worst_gap"] <= payload["grid_step"]
        assert code in (0, 2), err.getvalue()
        assert err.getvalue().count("\n") == (code == 2)


def test_oracle_check_rejects_coarse_grid(tmp_path, capsys):
    assert main(["oracle-check", "--grid-points", "10",
                 "--out", str(tmp_path / "x")]) == 2
    assert "at least 1000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["oracle-check", "--grid-points", "400000000"], ["verify", *SMALL_VERIFY]],
    ids=["oracle-check", "verify"],
)
def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv):
    # an oversized grid fails where the grid is built; raise there instead
    # of allocating, and start from an empty grid cache so it is reached
    def too_big(self):
        raise MemoryError(f"Unable to allocate array with shape ({self.count},)")

    monkeypatch.setattr(oracle.GridSpec, "points", too_big)
    oracle._grid_arrays.cache_clear()
    assert main([*argv, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate")
    assert err.count("\n") == 1


# ----------------------------------------------------------------------
# the input stage
# ----------------------------------------------------------------------


def subcommand_options():
    """Each subcommand's declared option actions, but --help's."""

    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: [
            action for action in sub._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)
        ]
        for command, sub in subs.choices.items()
    }


# a valid value off the default for every option a subcommand may declare;
# --out, --config and --jobs have tests of their own
OPTION_VALUES = {
    "--alpha": "0.9", "--beta": "0.1", "--delta": "0.6", "--v-l": "0.7", "--n-h": "0.5",
    "--model": "olg", "--regime": "branded", "--durability": "0.12",
    "--parameter": "alpha", "--start": "0.02", "--stop": "0.07", "--steps": "4",
    "--seed": "8", "--draws": "7", "--foc-draws": "3", "--grid-points": "6000",
    "--audit-draws": "3", "--commission-points": "41",
}
# a sweep rejects a base value for the parameter it sweeps, so the --beta
# runs sweep another one
OPTION_EXTRA = {("sweep", "--beta"): ["--parameter", "delta", "--start", "0.4", "--stop", "0.6"]}


@pytest.mark.parametrize("command", list(subcommand_options()))
def test_every_option_is_read(tmp_path, capsys, command):
    # a run with each option at a valid non-default value differs from the
    # run without it, in exit code, stdout or written bytes
    cfg = write_config(
        tmp_path,
        params=json.loads(pathlib.Path(OLG_ACTIVE).read_text())["params"],
        sweep={"parameter": "beta", "start": 0.01, "stop": 0.08, "steps": 3},
        verification={
            "seed": 7, "draws": 6, "foc_draws": 2, "grid_points": 5000,
            "audit_draws": 2, "commission_points": 51,
        },
    )
    out = tmp_path / "run"

    def run(argv):
        code = main([command, "--config", cfg, *argv, "--out", str(out)])
        files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else None
        shutil.rmtree(out, ignore_errors=True)
        return code, capsys.readouterr().out, files

    options = [a for a in subcommand_options()[command]
               if a.option_strings[-1] not in ("--out", "--config", "--jobs")]
    assert options
    for action in options:
        option = action.option_strings[-1]
        extra = OPTION_EXTRA.get((command, option), [])
        given = [option] if action.nargs == 0 else [option, OPTION_VALUES[option]]
        assert run([*extra, *given]) != run(extra), f"{command} {option} is not read"


STEADY_STATE_ONLY = params_to_dict(dataclasses.replace(canonical_params(), n_L=0.8))


@pytest.mark.parametrize(
    "config,argv",
    [
        (None, ["verify", "--alpha", "0.5"]),
        ({"params": STEADY_STATE_ONLY}, ["oracle-check"]),
        ({"params": STEADY_STATE_ONLY}, ["compare"]),
        (None, ["olg-verify", "--durability", "-1"]),
        (None, ["olg-verify"]),
        (None, ["olg-verify", "--durability", "0.3", "--regime", "branded"]),
        (None, ["oracle-check", "--grid-points", "10"]),
        (None, ["verify", "--draws", "0"]),
        (None, ["sweep", "--parameter", "beta", "--start", "0", "--stop", "0.3", "--steps", "0"]),
        ({"verification": {"draws": "6"}}, ["verify"]),
        ({"sweep": {"parameter": "beta", "start": 0, "stop": 0.3, "steps": 2.5}}, ["sweep"]),
        (None, ["sweep", "--parameter", "beta", "--start", "0", "--stop", "0.3", "--steps", "2",
                "--beta", "0.15"]),
        # the draw family fails at these d_max: s(40) rounds to 1, and 1e300
        # overflows the check grid
        ({"solver": {"d_max": 40.0}}, ["verify"]),
        ({"solver": {"d_max": 1e300}}, ["verify"]),
        # delta/(1+delta)*M underflows to 0: no d_max brackets the root
        (None, ["oracle-check", "--delta", "5e-324"]),
        # the audits take the head of the draw pools
        (None, ["verify", "--draws", "5", "--foc-draws", "5", "--grid-points", "2000",
                "--audit-draws", "40", "--commission-points", "11"]),
        ({"verification": {"draws": 5, "audit_draws": 40}}, ["verify"]),
        ({"solver": 5}, ["solve"]),
        # an int beyond the float range is not a finite number
        ({"params": {**STEADY_STATE_ONLY, "beta": 10**400}}, ["solve"]),
    ],
    ids=[
        "verify-alpha", "oracle-check-steady-state", "compare-steady-state",
        "olg-verify-negative-durability", "olg-verify-shutdown",
        "olg-verify-regime-with-durability", "oracle-check-coarse-grid",
        "verify-no-draws", "sweep-no-steps", "verification-config-type", "sweep-config-type",
        "sweep-swept-base-value", "verify-draw-family-d-max-40", "verify-draw-family-d-max-1e300",
        "oracle-check-subnormal-delta", "verify-audit-draws-above-draws",
        "verify-config-audit-draws-above-draws", "solve-section-not-an-object",
        "solve-beta-beyond-float-range",
    ],
)
def test_input_errors_come_before_output(tmp_path, capsys, config, argv):
    # one error line and nothing else: no stdout, no output directory
    if config is not None:
        argv = [*argv, "--config", write_config(tmp_path, **config)]
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "config,message",
    [
        ({"solver": 5}, "error: config 'solver' must be an object\n"),
        (
            {"params": {**STEADY_STATE_ONLY, "beta": 10**400}},
            f"error: bad config params: params.beta must be a finite number, found {10**400}\n",
        ),
    ],
    ids=["section-not-an-object", "int-beyond-float-range"],
)
def test_config_errors_name_the_cause(tmp_path, capsys, config, message):
    cfg = write_config(tmp_path, **config)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize(
    "command", ["solve", "sweep", "compare", "olg-verify", "verify", "oracle-check"]
)
def test_out_under_a_regular_file_is_an_input_error(
    tmp_path, capsys, monkeypatch, command, source
):
    # the output directory is resolved and checked in the input stage, from
    # whichever of the flag, the environment and the config gives it
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "x")
    argv = [command]
    if source == "flag":
        argv += ["--out", out]
    elif source == "env":
        monkeypatch.setenv(OUT_ENV_VAR, out)
    else:
        argv += ["--config", write_config(tmp_path, out_dir=out)]
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"error: output directory {out} cannot be made: {blocker} is not a directory\n"
    assert blocker.read_text() == ""


def test_config_out_dir_must_be_a_string(tmp_path, capsys):
    assert main(["solve", "--config", write_config(tmp_path, out_dir=5)]) == 2
    assert capsys.readouterr() == ("", "error: config out_dir must be a string, found 5\n")


def test_a_failed_write_is_one_error_line(tmp_path, capsys, monkeypatch):
    def full_disk(path, obj):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr("recommerce.reporting.write_json", full_disk)
    assert main(["compare", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    path = tmp_path / "x" / "compare.json"
    assert err == f"error: [Errno 28] No space left on device: '{path}'\n"


# ----------------------------------------------------------------------
# fuzzed configs
# ----------------------------------------------------------------------

# the file a run that exits 1 must leave, per subcommand
COUNTEREXAMPLE_FILES = {
    "olg-verify": "olg_audit_counterexample.json",
    "verify": "counterexample.json",
    "oracle-check": "oracle_check.json",
}
TINY_VERIFY = {"draws": 2, "foc_draws": 1, "grid_points": 1000, "audit_draws": 1,
               "commission_points": 11}


def run_fuzzed(argv, out):
    """Run one subcommand and hold it to the exit-code contract: 0; or 2
    with one ``error:`` line and no output directory (but for the table of a
    sweep with every point shut down); or 1 for a failed audit, property or
    grid check, with the file that shows it."""

    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    err = stderr.getvalue()
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    elif code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if err.startswith("error: empty active region"):
            assert sorted(f.name for f in out.iterdir()) == ["sweep.csv", "sweep_verdicts.json"]
        else:
            assert not out.exists(), (argv, err)
    else:
        assert code == 1, (argv, code, err)
        assert (out / COUNTEREXAMPLE_FILES[argv[0]]).is_file(), (argv, err)
    shutil.rmtree(out, ignore_errors=True)


if given is not None:

    def box_value(bounds, extra=()):
        return st.one_of(st.sampled_from((*bounds, *extra)), st.floats(*bounds))

    BOX = statics.DEFAULT_BOX
    # subnormal discount factors: at the smallest, delta/(1+delta)*M
    # underflows to 0, which the input stage must name
    OFF_BOX = {"delta": (5e-324, 1e-310)}

    @settings(max_examples=20, deadline=None)
    @given(
        fields=st.fixed_dictionaries(
            {name: box_value(getattr(BOX, name), OFF_BOX.get(name, ()))
             for name in ("v_L", "alpha", "beta", "delta", "n_H")}
        ),
        family=st.sampled_from(ORACLE_FAMILIES),
        d_max=st.sampled_from([DEFAULT_D_MAX, 1.0, 0.05]),
        swept=st.sampled_from(statics._SWEEPABLE),
        durability=st.sampled_from([None, 0.01, 0.12, 1.0]),
        seed=st.integers(0, 3),
    )
    def test_fuzzed_configs_keep_the_exit_code_contract(
        fields, family, d_max, swept, durability, seed
    ):
        params = dataclasses.replace(
            canonical_params(), **fields, n_L=1.0 - fields["n_H"], cost=family[0],
            quality=family[1],
        )
        start, stop = getattr(BOX, swept)
        config = {
            "schema": CONFIG_SCHEMA,
            "params": params_to_dict(params),
            "solver": {"d_max": d_max},
            "sweep": {"parameter": swept, "start": start, "stop": stop, "steps": 3},
            "verification": {"seed": seed, **TINY_VERIFY},
        }
        with tempfile.TemporaryDirectory() as tmp:
            cfg = pathlib.Path(tmp) / "config.json"
            cfg.write_text(json.dumps(config))
            out = pathlib.Path(tmp) / "run"
            audit = [] if durability is None else ["--durability", str(durability)]
            for argv in (
                ["solve", "--model", "both"], ["compare"], ["sweep"], ["olg-verify", *audit],
                ["oracle-check", "--grid-points", "2001"], ["verify"],
            ):
                run_fuzzed([*argv, "--config", str(cfg)], out)


# ----------------------------------------------------------------------
# benchmark layers
# ----------------------------------------------------------------------


def test_every_traced_layer_is_a_function():
    # the benchmark traces these functions by name, so renaming or removing
    # one must fail here, not only in a traced benchmark run
    bench = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    metrics = json.loads(bench.read_text())["per_layer"]
    layers = {m["name"].rsplit(".", 1)[0] for m in metrics if not m["name"].startswith("trace.")}
    assert len(layers) > 10
    for layer in sorted(layers):
        module, name = layer.split(".")
        assert callable(getattr(importlib.import_module(f"recommerce.{module}"), name, None)), layer
