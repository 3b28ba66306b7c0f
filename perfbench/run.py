"""Benchmark of the recommerce solver and its verification harness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-stream --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a fixed number of requests untraced, then the same
requests again with every layer in ``tracing.LAYERS`` wrapped, and reports
the per-layer metrics plus the tracing overhead. ``--smoke`` runs every
workload at minimal size in both modes and checks that every metric named
in BENCHMARK.json is printed with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output was correct, 1 when one was not, and 2 when the
benchmark could not run (for example when ``src/recommerce`` is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
WORKLOADS = ("verify", "verify-jobs", "solve-stream", "point-audit")
# Percentile reported as tail_ms: the highest with at least ten samples
# beyond it in a run. A verify run holds too few requests for any, so its
# tail_ms is the median.
TAIL_PERCENTILE = {"verify": 50, "verify-jobs": 50, "solve-stream": 99, "point-audit": 90}
SETUP_REPEATS = 9
SETUP_CODE = "import recommerce.cli as c; c.build_parser()"


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import the checkout's own recommerce, never an installed copy."""

    if not (SRC / "recommerce" / "cli.py").is_file():
        fail_setup(f"no program source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import recommerce

    if Path(recommerce.__file__).resolve().parent != (SRC / "recommerce").resolve():
        fail_setup(f"imported recommerce from {recommerce.__file__}, not {SRC}")


def run_setup() -> tuple[float, float]:
    """Start and end time of a fresh interpreter importing the CLI and building its parser."""

    t0 = time.perf_counter()
    # No timeout: Popen.wait(timeout) polls in steps of up to 50 ms.
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True,
    )
    return t0, time.perf_counter()


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""

    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def machine_info(seed: int) -> dict:
    import numpy as np

    from workloads import nproc

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"  # a checkout without .git records no commit
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "seed": seed,
    }


class Run:
    """Request loop, digests and correctness accounting for one workload run."""

    def __init__(self, wl, golden: dict | None, digests: int, tracer=None, sampler=None):
        self.wl = wl
        self.golden = golden
        self.digests = digests  # how many leading requests to serialise and digest
        self.tracer = tracer
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies: list[float] = []  # seconds, of timed requests that returned
        self.intervals: list[tuple[float, float]] = []  # their start and end times
        self.busy = 0.0  # seconds spent in the program, failed requests included
        self.request_digests: list[str] = []  # sha256 of each digested request's output
        self.late: list[tuple[int, object, object]] = []  # checks run by finish_checks

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def one(self, i: int, timed: bool = True) -> None:
        """Run request ``i``; only the program call is timed (and traced)."""

        req = self.wl.make(i)
        self.attempted += 1
        if self.tracer:
            self.tracer.request = i
            self.tracer.active = True
        if self.sampler:
            self.sampler.between()
        sampled = self.sampler.spent if self.sampler else 0.0
        t0 = time.perf_counter()
        try:
            out = self.wl.execute(req)
        except Exception as exc:  # a failed request is counted, not fatal
            self.fail(f"request {i}: {type(exc).__name__}: {exc}")
            return
        finally:
            t1 = time.perf_counter()
            latency = t1 - t0 - ((self.sampler.spent if self.sampler else 0.0) - sampled)
            self.busy += latency
            if self.tracer:
                self.tracer.active = False
            if self.sampler:
                self.sampler.between()
        if timed:
            self.latencies.append(latency)
            self.intervals.append((t0, t1))
        if i < self.wl.late_checks:
            self.late.append((i, req, out))
        else:
            self.check(i, req, out)
        if i < self.digests:
            self.request_digests.append(hashlib.sha256(self.wl.serialise(req, out)).hexdigest())

    def check(self, i: int, req, out) -> None:
        problem = self.wl.check(i, req, out)
        if problem:
            self.fail(problem)

    def finish_checks(self) -> None:
        for i, req, out in self.late:
            self.check(i, req, out)
        self.late.clear()

    def digest(self, n: int) -> str:
        return hashlib.sha256("".join(self.request_digests[:n]).encode()).hexdigest()

    def check_golden(self, n: int) -> None:
        if self.golden is None:
            return
        got = self.digest(n)
        if got != self.golden["sha256"] or n != self.golden["requests"]:
            self.fail(
                f"output digest {got} over {n} requests differs from golden "
                f"{self.golden['sha256']} over {self.golden['requests']}"
            )


def end_to_end(workload: str, wl, seconds: float, setup_repeats: int, golden) -> tuple[Run, dict]:
    """Closed loop until ``seconds`` of request time; the golden prefix is finished off the clock.

    Latencies and set-up times are scaled to the reference CPU speed (see
    speed.py). Set-up is measured ``setup_repeats`` times, spread evenly
    over the loop. Peak memory is read before any late check or off-clock
    request runs.
    """

    from speed import SpeedSampler

    sampler = SpeedSampler()
    setup: list[tuple[float, float]] = []  # start and end of each set-up

    def measure_setup() -> None:
        setup.append(run_setup())
        sampler.between()  # a speed sample right after it

    run = Run(wl, golden, wl.golden_requests, sampler=sampler)
    sampler.start()
    try:
        measure_setup()
        if wl.warmup:
            wl.warmup()
        i = 0
        while run.busy < seconds or i == 0:
            run.one(i)
            i += 1
            if len(setup) < setup_repeats and run.busy >= seconds * len(setup) / setup_repeats:
                measure_setup()
        while len(setup) < setup_repeats:
            measure_setup()
    finally:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.sampler = None
    for j in range(i, wl.golden_requests):
        run.one(j, timed=False)
    run.finish_checks()
    run.check_golden(wl.golden_requests)
    raw = run.latencies
    if not raw:
        return run, {}
    lat = [x * sampler.scale(t0, t1) for x, (t0, t1) in zip(raw, run.intervals)]
    raw_setup = [t1 - t0 for t0, t1 in setup]
    setup_s = [x * sampler.scale(t0, t1) for x, (t0, t1) in zip(raw_setup, setup)]
    tail_q = TAIL_PERCENTILE[workload]
    tail = percentile(lat, tail_q)
    beyond = sum(1 for x in lat if x > tail)
    print(f"samples: {len(lat)} requests; tail_ms is p{tail_q} with {beyond} beyond it")
    print(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setup_s)}")
    print(
        f"unscaled: p50_ms {statistics.median(raw) * 1e3:.6g}, "
        f"tail_ms {percentile(raw, tail_q) * 1e3:.6g}, rps {len(raw) / sum(raw):.6g}, "
        f"setup_s {statistics.median(raw_setup):.6g}; "
        f"{len(sampler.loop_s)} speed samples, median scale "
        f"{statistics.median(lat[k] / raw[k] for k in range(len(raw))):.4f}"
    )
    values = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "p50_ms": statistics.median(lat) * 1e3,
        "tail_ms": tail * 1e3,
        "rps": len(lat) / sum(lat),
    }
    return run, values


def traced(workload: str, wl, golden, expected: list[str]) -> tuple[Run, dict, object]:
    """The same fixed requests untraced, then traced; outputs must match."""

    import tracing

    n = wl.trace_requests
    if wl.warmup:
        wl.warmup()
    plain = Run(wl, golden, n)
    for i in range(n):
        plain.one(i)
    plain.finish_checks()
    plain.check_golden(wl.golden_requests)

    tracer = tracing.Tracer()
    tracer.install()
    run = Run(wl, None, n, tracer)
    try:
        for i in range(n):
            run.one(i)
    finally:
        tracer.uninstall()
    run.finish_checks()
    run.attempted += plain.attempted
    run.failed += plain.failed
    run.problems += plain.problems
    if run.digest(n) != plain.digest(n):
        run.fail("traced outputs differ from untraced outputs")
    calls = tracer.layer_calls()
    for layer in expected:
        if calls[layer] == 0:
            run.fail(f"expected layer {layer} recorded zero calls")
    values = tracer.metrics()
    untraced_s, traced_s = sum(plain.latencies), sum(run.latencies)
    values.update(
        {
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.overhead_ratio": traced_s / untraced_s,
        }
    )
    print(f"spans: {tracer.span_count()} over {n} requests")
    for layer, holders in tracer.namespaces.items():
        print(f"wrapped {layer} in {', '.join(holders)}")
    return run, values, tracer


def make_workload(name: str, seed: int, out: Path, smoke: bool):
    import workloads as w

    if name == "verify":
        return w.verify(seed, out, smoke)
    if name == "verify-jobs":
        return w.verify_jobs(seed, out, smoke, SRC)
    if name == "solve-stream":
        return w.solve_stream(seed, smoke)
    return w.point_audit(seed, out, smoke)


def run_workload(args) -> int:
    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    recorded = json.loads((BENCH_DIR / "golden.json").read_text())
    golden = None
    if args.seed == recorded["seed"] and not args.smoke:
        golden = recorded["workloads"].get(args.workload, {"sha256": "not recorded", "requests": 0})
    layer_map = json.loads((BENCH_DIR / "layers.json").read_text())
    if set(layer_map["layers"]) != set(tracing.LAYERS):
        fail_setup("layers.json and the per_layer entries of BENCHMARK.json name different layers")
    expected = [
        name for name, spec in layer_map["layers"].items() if args.workload in spec["expected_on"]
    ]

    WORK_DIR.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        wl = make_workload(args.workload, args.seed, out, args.smoke)
        if args.trace:
            run, values, tracer = traced(args.workload, wl, golden, expected)
            units = tracing.UNITS
            spans = WORK_DIR / "spans" / f"{args.workload}-seed{args.seed}.tsv"
            tracer.write_spans(spans)
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            seconds = 0.0 if args.smoke else args.seconds
            repeats = 1 if args.smoke else SETUP_REPEATS
            run, values = end_to_end(args.workload, wl, seconds, repeats, golden)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(out, ignore_errors=True)

    n_digest = min(wl.golden_requests, len(run.request_digests))
    print(f"digest {args.workload} seed={args.seed} requests={n_digest}: {run.digest(n_digest)}")
    print("machine " + json.dumps(machine_info(args.seed), sort_keys=True))
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = run.failed == 0 and bool(values)
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0 if correct else 1


def smoke() -> int:
    """Run each workload once at minimal size and check its metric names and units."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", wl, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=300,
            )
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            ok = proc.returncode == 0 and result.get("correct") is True and got == wanted[trace]
            if not ok:
                bad += 1
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                print(f"smoke {wl} trace={trace}: exit {proc.returncode}, "
                      f"missing {missing}, extra {extra}\n{proc.stderr[-2000:]}")
            else:
                print(f"smoke {wl} trace={trace}: ok, {len(got)} metrics")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42, help="42 is checked against golden.json")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal sizes")
    args = parser.parse_args(argv)
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required unless --smoke is given")
        import_program()
        return smoke()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
