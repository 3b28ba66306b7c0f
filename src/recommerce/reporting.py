"""Deterministic serialization of results to JSON and CSV.

Every float is rendered with 12 significant digits, keys are sorted, CSV
rows end in a bare newline, and nothing derived from the clock or the
filesystem enters the output, so identical inputs produce byte-identical
files on every platform.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import json
import math
from pathlib import Path
from typing import Iterable

import numpy as np

from . import olg as olg_mod
from . import oracle as oracle_mod
from . import statics as statics_mod
from .primitives import Regime
from .two_period import MarketMode

__all__ = [
    "fmt12",
    "to_jsonable",
    "write_json",
    "write_csv",
    "TWO_PERIOD_COLUMNS",
    "OLG_COLUMNS",
    "SWEEP_COLUMNS",
    "AUDIT_COLUMNS",
    "VERIFY_COLUMNS",
    "audit_row",
    "verify_row",
]


def fmt12(value) -> str:
    """Render one CSV cell: floats at 12 significant digits, blanks for None."""

    if type(value) is bool:
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, enum.Enum):
        return str(value._value_)
    if isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return "nan"
        return format(float(value), ".12g")
    return str(value)


def to_jsonable(obj):
    """Recursively convert results into plain JSON types.

    Floats are passed through the 12-significant-digit formatter so the JSON
    text is stable across platforms; enums, which all subclass ``str``, pass
    as the strings of their values, and dataclasses become dicts.
    """

    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return float(format(f, ".12g"))
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {
            (k.value if isinstance(k, enum.Enum) else str(k)): to_jsonable(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(x) for x in items]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path: Path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(to_jsonable(obj), indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")


# The fmt12 text of each bool and enum-member cell, keyed by identity: a key
# by value would take 1 and 1.0 for True, and -0.0 for 0.0. Every key is the
# id of an object that lives as long as the process.
_CELL_TEXT = {
    id(value): fmt12(value)
    for value in (
        True,
        False,
        np.True_,
        np.False_,
        *olg_mod.OlgState,
        *olg_mod.Action,
        *Regime,
        *MarketMode,
    )
}


def write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write ``rows`` under ``header``, each cell as :func:`fmt12` renders
    it; a row of ``_CELL_TEXT`` cells alone, which need no quoting, joined."""

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = _CELL_TEXT.get
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(header))
    for row in map(tuple, rows):
        texts = [text(id(cell)) for cell in row]
        if all(texts):
            out.write(",".join(texts) + "\n")
        else:
            writer.writerow([t or fmt12(cell) for t, cell in zip(texts, row)])
    path.write_text(out.getvalue(), encoding="utf-8", newline="")


TWO_PERIOD_COLUMNS = (
    "regime",
    "market_mode",
    "D_star",
    "D_social",
    "p1n",
    "p2n",
    "p2u",
    "profit_total",
    "commission_revenue",
    "welfare",
)

OLG_COLUMNS = (
    "regime",
    "market_mode",
    "D_star",
    "p_n",
    "p_u",
    "entry_price",
    "per_period_profit",
    "per_period_commission",
    "discounted_stream",
    "objective_value",
)

SWEEP_COLUMNS = (
    "param_value",
    "regime",
    "D_star",
    "profit",
    "welfare",
    "envelope_deriv",
    "fd_deriv",
    "market_mode",
)

AUDIT_COLUMNS = (
    "state",
    *olg_mod.CELLS,
    "state_consistent",
    "market_clearing",
    *olg_mod.OLG_CONSTRAINT_NAMES,
    "dominated",
    "best_response_ok",
    "steady_state",
)

VERIFY_COLUMNS = ("property", "checks", "violations", "status")


def _row(obj, columns: Iterable[str]) -> list:
    """The attributes of ``obj`` named by ``columns``, in column order."""

    return [getattr(obj, c) for c in columns]


def audit_row(row: oracle_mod.ScanRow) -> list:
    feas = row.feasibility
    return [
        row.state,
        row.profile.h1,
        row.profile.h2,
        row.profile.l1,
        row.profile.l2,
        feas.state_consistent,
        feas.market_clearing,
        *feas.slack_flags,
        feas.dominated,
        row.best_response_ok,
        row.passes,
    ]


def verify_row(res: statics_mod.PropertyResult) -> list:
    return [
        res.name,
        res.checks,
        res.violations,
        "pass" if res.passed else "FAIL",
    ]
