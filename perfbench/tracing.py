"""Per-layer tracing of the recommerce package, installed from outside it.

Each traced layer is a public function. Its wrapper is put into every
module namespace that holds the function, because the package uses
``from .primitives import bisect_increasing``-style imports and a call made
through ``two_period.bisect_increasing`` would otherwise bypass a wrapper
placed only on ``primitives``.

A wrapper records one span per call (layer, start, end, parent span,
request id) in flat arrays, and adds the call's duration minus the time
covered by its child spans to the layer's self time. Layer-specific
counters (bisection function evaluations, rejection-sampling attempts,
scan rows, grid points, bytes written) are taken at the same boundary.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from pathlib import Path

# Layer name -> statistics reported for it, in BENCHMARK.json order. The
# per_layer entries of BENCHMARK.json are the one catalogue of layers,
# statistics and units; "trace.*" entries describe the run, not a layer.
_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
UNITS: dict[str, str] = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
LAYERS: dict[str, tuple[str, ...]] = {}
for _name in UNITS:
    _layer, _stat = _name.rsplit(".", 1)
    if _layer != "trace":
        LAYERS[_layer] = LAYERS.get(_layer, ()) + (_stat,)

_DISTINCT = {name for name, stats in LAYERS.items() if "distinct_ratio" in stats}
# Statistics taken from a layer's arguments or result, by the call hooks.
_HOOKED_STATS = {"f_evals", "lanes", "attempts", "accepted", "rows", "points", "bytes", "distinct_ratio"}
_DERIVED_STATS = {"calls", "self_s", "accept_ratio", "points_per_s", "bytes_computed"}
for _layer, _stats in LAYERS.items():
    for _stat in set(_stats) - _HOOKED_STATS - _DERIVED_STATS:
        raise ValueError(f"BENCHMARK.json names a statistic tracing.py has no counter for: {_layer}.{_stat}")

# grid_argmax_profit materialises these float64 arrays of grid length:
# D, s, c, used_price, new_price_late, seller_take_late, entry, value.
_GRID_ARRAYS = 8
_FLOAT64_BYTES = 8


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    if len(args) > pos:
        return args[pos]
    return default


class Tracer:
    """Spans and counters for one traced run. Install, run, then uninstall."""

    def __init__(self) -> None:
        self.layers = list(LAYERS)
        self._index = {name: i for i, name in enumerate(self.layers)}
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.inclusive_s = [0.0] * len(self.layers)
        self.counts: dict[str, int] = {}
        self._keys: dict[str, set] = {name: set() for name in _DISTINCT}
        self._span_layer = array("i")
        self._span_parent = array("q")
        self._span_request = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []  # [span id, time covered by children]
        self.request = -1
        self.active = False  # spans are taken only while a request executes
        self.namespaces: dict[str, list[str]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- counters -------------------------------------------------------

    def _bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _counting(self, key: str, fn):
        def counted(*args, **kwargs):
            self._bump(key)
            return fn(*args, **kwargs)

        return counted

    # -- per-layer argument and result hooks ------------------------------

    def _before(self, layer: str, args: tuple, kwargs: dict):
        if layer == "primitives.bisect_increasing":
            f = _arg(args, kwargs, 0, "f")
            counted = self._counting(f"{layer}.f_evals", f)
            if "f" in kwargs:
                kwargs["f"] = counted
            else:
                args = (counted,) + args[1:]
        elif layer == "statics.sample_filtered":
            pred = _arg(args, kwargs, 2, "predicate")
            counted = self._counting(f"{layer}.attempts", pred)
            if "predicate" in kwargs:
                kwargs["predicate"] = counted
            else:
                args = args[:2] + (counted,) + args[3:]
        elif layer == "primitives.bisect_increasing_vec":
            self._bump(f"{layer}.lanes", int(_arg(args, kwargs, 3, "n")))
        elif layer == "oracle.grid_argmax_profit":
            grid = _arg(args, kwargs, 3, "grid")
            points = grid.count if grid is not None else sys.modules[
                "recommerce.oracle"
            ].GridSpec().count
            self._bump(f"{layer}.points", int(points))
        if layer in _DISTINCT:
            key = (args, tuple(sorted(kwargs.items())))
            try:
                self._keys[layer].add(key)
            except TypeError:  # an unhashable argument
                self._keys[layer].add(repr(key))
        return args, kwargs

    def _after(self, layer: str, args: tuple, kwargs: dict, result) -> None:
        if layer == "statics.sample_filtered":
            self._bump(f"{layer}.accepted", len(result))
        elif layer == "oracle.exhaustive_steady_state_scan":
            self._bump(f"{layer}.rows", len(result.rows))
        elif layer in ("reporting.write_csv", "reporting.write_json"):
            self._bump(f"{layer}.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))

    # -- wrapping -------------------------------------------------------

    def _wrap(self, layer: str, fn):
        idx = self._index[layer]
        hooked = bool(_HOOKED_STATS.intersection(LAYERS[layer]))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if hooked:
                args, kwargs = self._before(layer, args, kwargs)
            sid = len(self._span_start)
            self._span_layer.append(idx)
            self._span_parent.append(self._stack[-1][0] if self._stack else -1)
            self._span_request.append(self.request)
            self._span_start.append(0.0)
            self._span_end.append(0.0)
            frame = [sid, 0.0]
            self._stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                dur = t1 - t0
                self._span_start[sid] = t0
                self._span_end[sid] = t1
                self.calls[idx] += 1
                self.inclusive_s[idx] += dur
                self.self_s[idx] += dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
            if hooked:
                self._after(layer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each layer function in every recommerce namespace holding it."""

        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "recommerce" or name.startswith("recommerce."))
        }
        for layer in self.layers:
            mod_name, attr = layer.rsplit(".", 1)
            original = getattr(modules[f"recommerce.{mod_name}"], attr)
            wrapper = self._wrap(layer, original)
            holders = []
            for name, mod in sorted(modules.items()):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        holders.append(f"{name}.{key}")
            self.namespaces[layer] = holders

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def layer_calls(self) -> dict[str, int]:
        return dict(zip(self.layers, self.calls))

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, stats in LAYERS.items():
            i = self._index[layer]
            calls = self.calls[i]
            for stat in stats:
                key = f"{layer}.{stat}"
                if stat == "calls":
                    value = calls
                elif stat == "self_s":
                    value = self.self_s[i]
                elif stat == "distinct_ratio":
                    value = len(self._keys[layer]) / calls if calls else 0.0
                elif stat == "accept_ratio":
                    attempts = self.counts.get(f"{layer}.attempts", 0)
                    accepted = self.counts.get(f"{layer}.accepted", 0)
                    value = accepted / attempts if attempts else 0.0
                elif stat == "points_per_s":
                    points = self.counts.get(f"{layer}.points", 0)
                    value = points / self.inclusive_s[i] if self.inclusive_s[i] else 0.0
                elif stat == "bytes_computed":
                    value = (
                        self.counts.get(f"{layer}.points", 0) * _GRID_ARRAYS * _FLOAT64_BYTES
                    )
                else:
                    value = self.counts.get(key, 0)
                out[key] = value
        return out

    def span_count(self) -> int:
        return len(self._span_start)

    def write_spans(self, path: Path) -> None:
        """Write every span as one tab-separated line (times in seconds)."""

        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span\tlayer\tstart\tend\tparent\trequest\n")
            layers = self.layers
            for sid, (li, t0, t1, parent, req) in enumerate(
                zip(
                    self._span_layer,
                    self._span_start,
                    self._span_end,
                    self._span_parent,
                    self._span_request,
                )
            ):
                fh.write(f"{sid}\t{layers[li]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{req}\n")
