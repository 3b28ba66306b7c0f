import csv
import math

import numpy as np
import pytest

from recommerce import Action, MarketMode, ModelKind, OlgState, Regime, solve_olg
from recommerce.oracle import exhaustive_steady_state_scan
from recommerce.reporting import (
    AUDIT_COLUMNS,
    audit_row,
    fmt12,
    to_jsonable,
    write_csv,
    write_json,
)

CELLS = [
    (Action.BUY_NEW, Action.BUY_NEW.value),
    (Action.SELL_AND_BUY_NEW, Action.SELL_AND_BUY_NEW.value),
    (OlgState.HIGH_ONLY, OlgState.HIGH_ONLY.value),
    (Regime.BRANDED, Regime.BRANDED.value),
    (MarketMode.SHUTDOWN, MarketMode.SHUTDOWN.value),
    (True, "true"),
    (False, "false"),
    (np.True_, "true"),
    (np.False_, "false"),
    (1, "1"),
    (1.0, "1"),
    (0, "0"),
    (0.0, "0"),
    (-0.0, "-0"),
    (math.nan, "nan"),
    (np.float64(0.1), "0.1"),
    (np.int64(7), "7"),
    (None, ""),
    ("pass", "pass"),
    ("", ""),
]


@pytest.mark.parametrize(("value", "text"), CELLS, ids=repr)
def test_fmt12_renders_each_cell_type(value, text):
    # True == 1 == 1.0 and 0.0 == -0.0, yet each renders as its own type
    assert fmt12(value) == text


def test_audit_csv_equals_fmt12_rendering(tmp_path, olg_feasible):
    d = solve_olg(olg_feasible, Regime.THIRD_PARTY).D_star
    rows = [audit_row(r) for r in exhaustive_steady_state_scan(olg_feasible, d).rows]
    write_csv(tmp_path / "audit.csv", AUDIT_COLUMNS, rows)
    with (tmp_path / "expected.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AUDIT_COLUMNS)
        writer.writerows([fmt12(cell) for cell in row] for row in rows)
    assert (tmp_path / "audit.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


# every cell whose text write_csv takes from its identity-keyed table
TABLE_CELLS = [*OlgState, *Action, *Regime, *MarketMode, True, False, np.True_, np.False_]


@pytest.mark.parametrize("value", TABLE_CELLS, ids=repr)
def test_written_table_cell_equals_fmt12(tmp_path, value):
    write_csv(tmp_path / "cell.csv", ["cell"], [[value]])
    assert (tmp_path / "cell.csv").read_text(encoding="utf-8") == f"cell\n{fmt12(value)}\n"


def test_mixed_row_writes_its_fmt12_bytes(tmp_path):
    # values equal to a table key (1 == 1.0 == True, -0.0 == 0.0 == False)
    # keep their own text: the table is keyed by identity
    row = [
        1, 1.0, True, -0.0, 0.0, math.nan, math.inf, 1e-300,
        np.True_, np.float64(-0.0), np.int64(1), False, 0, -math.inf, None, "x",
    ]
    write_csv(tmp_path / "mixed.csv", ["a"], [row])
    assert (tmp_path / "mixed.csv").read_bytes() == (
        b"a\n1,1,true,-0,0,nan,inf,1e-300,true,-0,1,false,0,-inf,,x\n"
    )


def test_csv_bytes_equal_csv_writer_over_fmt12(tmp_path):
    # rows of table cells alone are joined directly, the others go through
    # csv.writer; rows given as iterators must reach either path whole
    def rows():
        return [
            [OlgState.HIGH_ONLY, Action.BUY_NEW, True, np.False_, Regime.BRANDED],
            [MarketMode.SHUTDOWN],
            [Action.BUY_USED, 3, 2.5, math.nan, None, "a,b", 'say "hi"', False],
            iter([True, Action.KEEP_USED, np.True_]),
            (cell for cell in [Regime.THIRD_PARTY, "x\ny", -0.0, np.int64(-4)]),
            (False, np.float64(1e-7), "", math.inf, 'q"', " padded "),
            [],
            [""],
        ]

    write_csv(tmp_path / "mixed.csv", ["a", "b,c"], rows())
    with (tmp_path / "expected.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["a", "b,c"])
        writer.writerows([fmt12(cell) for cell in row] for row in rows())
    assert (tmp_path / "mixed.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


NON_FINITE = [
    (math.nan, "nan"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (np.float64(math.nan), "nan"),
    (np.float64(math.inf), "inf"),
    (np.float64(-math.inf), "-inf"),
    (np.float32(-math.inf), "-inf"),
]


@pytest.mark.parametrize(("value", "text"), NON_FINITE, ids=repr)
def test_json_renders_non_finite_floats_as_strings(tmp_path, value, text):
    assert to_jsonable(value) == text
    write_json(tmp_path / "x.json", {"x": value})
    assert (tmp_path / "x.json").read_text(encoding="utf-8") == f'{{\n  "x": "{text}"\n}}\n'


def test_json_writes_enum_values_and_keys(tmp_path):
    # every enum subclasses str, so a value passes through as the string of
    # its value; a dict key is converted to it
    assert all(isinstance(e, str) for e in (*OlgState, *Action, *Regime, *MarketMode, *ModelKind))
    write_json(tmp_path / "x.json", {Regime.BRANDED: [MarketMode.SHUTDOWN, OlgState.ALL]})
    assert (tmp_path / "x.json").read_text(encoding="utf-8") == (
        '{\n  "branded": [\n    "shutdown",\n    "all"\n  ]\n}\n'
    )
