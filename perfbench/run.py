#!/usr/bin/env python3
"""gplab benchmark harness.

    python3 perfbench/run.py --workload formal-scan --seed 1 --seconds 25 --trace 0

Runs one workload (see ``workloads.py`` and ``NOTES.md``) from the root of a
checkout, importing gplab from ``src/``.  After set-up it runs whole passes
of the workload's operation list until ``--seconds`` would be exceeded
(at least three), checks every result against the reference oracles, and
prints a readable report followed by one JSON line: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced passes, so the overhead ratio compares like
with like; end-to-end numbers only ever come from untraced runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import leftover_wrappers  # noqa: E402
from workloads import WORKLOADS, Failure  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("points_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
SETUP_SAMPLES = 3  # set-ups per run (this process plus fresh ones); median reported
MIN_PASSES = 3  # untraced; a traced run makes at least one of each kind


class MissingProgram(Exception):
    pass


# Reference speed.  The host's speed drifts by up to 2.7x within a minute,
# so every reported time is a measured time divided by the machine's current
# slowdown: the time of fixed reference work, measured right before and after
# it, over that work's time on an uncontended core of the development machine
# (2 vCPUs, 2.0 GHz).  The work has an interpreter part (small ints and
# Fractions, like gplab's exact arithmetic) and a numpy part (like the
# prefilters); the slowdown is the mean of the two parts' ratios.
REF_PYTHON_S = 0.002
REF_NUMPY_S = 0.0016
_REF_ARRAY = None


def _reference_python() -> float:
    t0 = perf_counter()
    x = Fraction(1, 3)
    for i in range(600):
        x = x * Fraction(i + 1, i + 2) + i * i % 7
    return perf_counter() - t0


def _reference_numpy() -> float:
    import numpy as np

    global _REF_ARRAY
    if _REF_ARRAY is None:
        _REF_ARRAY = np.arange(120_000, dtype=np.float64)
    t0 = perf_counter()
    v = _REF_ARRAY * 0.6180339887
    f = v - np.floor(v)
    np.count_nonzero(np.minimum(f, 1.0 - f) < 1e-4)
    return perf_counter() - t0


def slowdown(numpy: bool = True) -> float:
    """The machine's current slowdown against the reference speed.

    Set-up is timed with the interpreter part only: the numpy part would
    import numpy before gplab does and hide that import from ``setup_s``.
    """
    ratio = _reference_python() / REF_PYTHON_S
    if not numpy:
        return ratio
    return (ratio + _reference_numpy() / REF_NUMPY_S) / 2


def scaled(seconds: float, before: float, after: float) -> float:
    """A measured time at reference speed."""
    return seconds * 2 / (before + after)


@dataclass
class PassResult:
    times: list[float]  # seconds per operation at reference speed, in op order
    raw: list[float]  # the same, as measured
    failures: list[tuple[str, Failure]]
    digests: dict[str, str]

    @property
    def wall(self) -> float:
        return sum(self.times)


def setup_workload(name: str, seed: int, size: str = "full"):
    """Build the workload; returns it and the set-up seconds (import included)."""
    if not (SRC / "gplab" / "__init__.py").is_file():
        raise MissingProgram(f"no gplab sources under {SRC}")
    before = slowdown(numpy=False)
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[name](seed, size)
    wl.setup()
    seconds = scaled(perf_counter() - t0, before, slowdown(numpy=False))
    import gplab

    if Path(gplab.__file__).resolve().parent != SRC / "gplab":
        raise MissingProgram(f"gplab imported from {gplab.__file__}, not from {SRC}")
    return wl, seconds


def run_pass(wl, tracer=None) -> PassResult:
    """Run every operation once; only the calls themselves are timed, each
    between two measurements of the machine's slowdown."""
    if tracer is None and leftover_wrappers():
        raise RuntimeError(f"untraced pass with probes installed: {leftover_wrappers()}")
    times, raw, failures, digests = [], [], [], {}
    before = slowdown()
    for op in wl.ops:
        failure = None
        if tracer is not None:
            tracer.enabled = True
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a raising operation is a failed operation
            failure = Failure(f"{type(exc).__name__}: {exc}")
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        after = slowdown()
        raw.append(dt)
        times.append(scaled(dt, before, after))
        before = after
        if failure is None:
            try:
                failure = op.check(result)
            except Exception as exc:  # an unreadable result is a wrong one
                failure = Failure(f"check raised {type(exc).__name__}: {exc}")
        if failure is not None:
            failures.append((op.name, failure))
        if op.digest is not None:
            digests[op.name] = op.digest()
    return PassResult(times, raw, failures, digests)


def repeat_passes(run_one, seconds: float, minimum: int) -> None:
    """Call run_one until the next call would end past ``seconds``."""
    start = perf_counter()
    durations: list[float] = []
    while len(durations) < minimum or (
        perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t0 = perf_counter()
        run_one()
        durations.append(perf_counter() - t0)


def tail(times: list[float]) -> tuple[float, str]:
    """p90 with at least 100 samples, else the highest percentile that
    still has ten samples beyond it; returns the value and its label."""
    n = len(times)
    if n >= 100:
        return statistics.quantiles(times, n=10, method="inclusive")[8], f"p90 of {n} ops"
    ordered = sorted(times)
    k = max(0, n - 11)
    return ordered[k], f"p{100 * (k + 1) / n:.0f} of {n} ops (too few for p90)"


def digest_mismatches(passes: list[PassResult]) -> list[str]:
    """Operations whose artifact SHA-256 differed between passes of one seed."""
    return [name for name in passes[0].digests if len({p.digests[name] for p in passes}) > 1]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def setup_samples(name: str, seed: int, own: float) -> list[float]:
    """This run's set-up time plus fresh-process set-ups of the same seed."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up subprocess failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def summarize(passes: list[PassResult]):
    attempted = sum(len(p.times) for p in passes)
    failures = [f for p in passes for f in p.failures]
    correct = all(f.known for _, f in failures)
    return attempted, failures, correct


def report_failures(failures) -> list[str]:
    seen: dict[str, list] = {}
    for name, f in failures:
        seen.setdefault(name, [f, 0])[1] += 1
    return [
        f"  FAIL {name} x{count}{' (known defect)' if f.known else ''}: {f.detail}"
        for name, (f, count) in seen.items()
    ]


def untraced_run(wl, seconds: float, own_setup: float, size: str):
    passes: list[PassResult] = []
    repeat_passes(lambda: passes.append(run_pass(wl)), seconds, MIN_PASSES)
    times = [t for p in passes for t in p.times]
    wall = statistics.median(p.wall for p in passes)
    points = sum(op.points for op in wl.ops)
    p90, p90_label = tail(times)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = setup_samples(wl.name, wl.seed, own_setup) if size == "full" else [own_setup]
    attempted, failures, correct = summarize(passes)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "points_per_s": points / wall,
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": peak_mb,
    }
    lines = [
        f"perfbench {wl.name} seed={wl.seed}: {len(passes)} passes of {len(wl.ops)} ops,"
        f" {points} points per pass",
        *(f"  {name:<13} {values[name]:>14.6g} {unit}" for name, unit in END_TO_END),
        f"  {'':<13} op_p90_ms is the {p90_label};"
        f" set-ups {', '.join(f'{s:.3f}' for s in setups)} s",
        f"  {'':<13} times are at reference speed; the median pass took"
        f" {statistics.median(sum(p.raw) for p in passes):.4g} s as measured",
        f"  {'fail_rate':<13} {len(failures) / attempted:>14.6g} ratio"
        f" ({len(failures)} of {attempted} ops)",
        *report_failures(failures),
    ]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return lines, attempted, failures, correct, metrics


def traced_run(wl, seconds: float):
    from layers import COUNTS, PER_LAYER, layer_metrics, make_tracer

    tracer = make_tracer()
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    per_pass: list[dict] = []

    def one_of_each():
        plain.append(run_pass(wl))
        tracer.reset()
        with tracer:
            traced.append(run_pass(wl, tracer))
        per_pass.append(layer_metrics(tracer))
        if leftover_wrappers():
            raise RuntimeError(f"probes left installed: {leftover_wrappers()}")

    repeat_passes(one_of_each, seconds, 1)
    values = {}
    for name in per_pass[0]:
        if name in COUNTS:
            values[name] = per_pass[0][name]
        else:
            values[name] = statistics.median(m[name] for m in per_pass)
    mismatched = digest_mismatches(plain + traced)
    values["cli.artifact_digest_mismatches"] = len(mismatched)
    values["trace.overhead_ratio"] = statistics.median(t.wall for t in traced) / statistics.median(
        u.wall for u in plain
    )
    values["design.src_lines"] = src_lines()
    attempted, failures, correct = summarize(plain + traced)
    lines = [
        f"perfbench {wl.name} seed={wl.seed} traced: {len(traced)} traced and"
        f" {len(plain)} untraced passes of {len(wl.ops)} ops",
        *(
            f"  {name:<40} {values[name]:>14{'' if name in COUNTS else '.6g'}} {unit}"
            for name, unit, _ in PER_LAYER
        ),
        f"  artifacts that differed between passes: {', '.join(mismatched) or 'none'}",
        f"  failures: {len(failures)} of {attempted} ops",
        *report_failures(failures),
    ]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return lines, attempted, failures, correct, metrics


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the result object and prints the report."""
    wl, own_setup = setup_workload(workload, seed, size)
    try:
        if trace:
            lines, attempted, failures, correct, metrics = traced_run(wl, seconds)
        else:
            lines, attempted, failures, correct, metrics = untraced_run(
                wl, seconds, own_setup, size
            )
    finally:
        wl.close()
    print("\n".join(lines), flush=True)
    return {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    args = ap.parse_args(argv)
    try:
        if args.setup_only:
            wl, seconds = setup_workload(args.workload, args.seed)
            wl.close()
            print(json.dumps({"setup_s": seconds}))
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
