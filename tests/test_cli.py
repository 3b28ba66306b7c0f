import dataclasses
import hashlib
import json
import pathlib
import warnings

import pytest

from recommerce import canonical_params, params_to_dict
from recommerce.cli import CONFIG_SCHEMA, OUT_ENV_VAR, main
from recommerce.reporting import (
    AUDIT_COLUMNS,
    OLG_COLUMNS,
    SWEEP_COLUMNS,
    TWO_PERIOD_COLUMNS,
    VERIFY_COLUMNS,
)

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
    ],
)
def test_config_rejection(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


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
    for value in ("-1", "0", "nan", "inf"):
        assert main(["olg-verify", f"--durability={value}",
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "positive" in err and err.count("\n") == 1


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
    assert (out / "olg_audit.csv").exists()


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
    assert (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()


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


OLG_ACTIVE = str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "olg_active.json")

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
}


@pytest.mark.parametrize("run", FROZEN_RUNS)
def test_outputs_match_frozen_digests(tmp_path, run):
    argv, digests = FROZEN_RUNS[run]
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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


def test_oracle_check_rejects_coarse_grid(tmp_path, capsys):
    assert main(["oracle-check", "--grid-points", "10",
                 "--out", str(tmp_path / "x")]) == 2
    assert "at least 1000" in capsys.readouterr().err
