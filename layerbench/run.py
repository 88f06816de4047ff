#!/usr/bin/env python3
"""Layered benchmark for richads: end-to-end metrics, traced per-layer split.

Usage (from the root of a checkout):

    python3 layerbench/run.py --workload price-large --seed 0 --seconds 40 --trace 0
    python3 layerbench/run.py --workload dynamics --seed 3 --seconds 40 --trace 1
    python3 layerbench/run.py --pin      # rewrite pins.json from the current code

Each run imports richads from the checkout's `src/`, builds the workload's
inputs from the seed, warms up, then runs the workload's units in a closed
loop for `--seconds`, checking every output. Between units, at evenly
spaced moments of the loop, it imports and builds the inputs again; the
trimmed mean of those set-ups is `setup_s`. Between calls it also times a
fixed sum of Fractions that runs no richads code, and reports times and
rates as on a machine where that sum takes 1 ms (the figures as measured
are kept in the record). `--trace 0` reports the
end-to-end metrics; `--trace 1` traces one set-up and times a fixed prefix
of units untraced, traced and untraced again, and reports the per-layer
metrics of the traced passes. The last line of standard output is one JSON
object; the full record goes to `layerbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import workloads
from library import ROOT, LibraryMissing, load_library
from tracer import LAYER_METRICS, Tracer
from workloads import WORKLOADS, Session

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
PINS = HERE / "pins.json"
PIN_SEED = 0
SETUP_SAMPLES = 20  # set-ups timed during the loop, evenly spaced
REFERENCE_TERMS = 300  # about 1 ms of Fraction additions on the baseline machine
REFERENCE_EVERY = 0.02  # seconds between reference samples, taken between calls
REFERENCE_MS = 1.0  # the reference sum's time on the machine the reported figures describe
DEFAULT_SECONDS = 40.0  # the run_seconds of BENCHMARK.json, whose bounds were checked at it
P90_MIN_SAMPLES = 100  # p90 is reported only with at least ten samples beyond it
TRIM = 0.1  # share of samples dropped at each end for the trimmed mean

# latency name -> the ops whose calls it pools
LATENCIES = (
    ("solve_ms", ("solve",)),
    ("myerson_ms", ("myerson",)),
    ("gsp_ms", ("gsp",)),
    ("vcg_ms", ("vcg",)),
    ("experiment_ms", ("experiment",)),
    ("nash_ms", ("nash-gsp", "nash-myerson")),
)
END_TO_END = {
    "setup_s": "s",
    "solve_ms.tmean": "ms",
    "myerson_ms.tmean": "ms",
    "gsp_ms.tmean": "ms",
    "vcg_ms.tmean": "ms",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def git_rev() -> str:
    """The checked-out commit, or "unknown" outside a git checkout of this repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_pins(workload: str) -> list[dict] | None:
    if not PINS.is_file():
        return None
    return json.loads(PINS.read_text())["workloads"].get(workload)


def run_units(session: Session, workload, inputs, start: int, count: int | None, deadline: float | None, pins,
              after_unit=None) -> int:
    """Run units from index `start`: `count` of them, or until `deadline` (at least one)."""
    index = start
    while True:
        k = index % len(inputs)
        workload.unit(session, inputs[k])
        session.end_unit(pins[k] if pins is not None and k < len(pins) else None)
        index += 1
        if after_unit is not None:
            after_unit()
        if count is not None and index - start >= count:
            break
        if deadline is not None and perf_counter() >= deadline:
            break
    return index - start


def busy_seconds(session: Session) -> float:
    return sum(sum(times) for times in session.samples.values())


def merge(into: Session, other: Session) -> None:
    into.attempted += other.attempted
    into.failed += other.failed
    into.errors += other.errors[: max(0, 20 - len(into.errors))]


def trimmed_mean(ordered: list[float]) -> float:
    """Mean of the samples left after dropping TRIM of them at each end.

    The machine a run shares can switch between speeds for seconds at a
    time; a median then jumps to whichever speed held most calls, while the
    trimmed mean moves with the share of time at each speed and still
    ignores rare stalls.
    """
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def latency_report(session: Session) -> dict[str, dict]:
    """Trimmed mean and p50 (and p90 where there are enough samples) of every op timed."""
    out = {}
    for name, ops in LATENCIES:
        samples = sorted(t for op in ops for t in session.samples.get(op, ()))
        if not samples:
            continue
        row = {"n": len(samples), "tmean": trimmed_mean(samples) * 1e3, "p50": statistics.median(samples) * 1e3}
        if len(samples) >= P90_MIN_SAMPLES:
            row["p90"] = statistics.quantiles(samples, n=10)[-1] * 1e3
        out[name] = row
    return out


def reference_seconds() -> float:
    """Time a fixed sum of Fractions that runs no richads code, with the collector paused."""
    gc.disable()
    try:
        start = perf_counter()
        total = Fraction(0)
        for k in range(1, REFERENCE_TERMS + 1):
            total += Fraction(k % 7 + 1, k % 5 + 2)
        return perf_counter() - start
    finally:
        gc.enable()


def time_setup(workload, seed: int) -> float:
    """Seconds to import richads afresh and build the workload's inputs."""
    start = perf_counter()
    workload.build(load_library(), seed)
    return perf_counter() - start


def measure(workload, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    # this first set-up also warms the import caches, so it is not timed
    lib = load_library()
    inputs = workload.build(lib, seed)
    pins = load_pins(workload.name) if seed == PIN_SEED else None
    warm = workloads.warm_up(lib, scratch)

    session = Session(lib, scratch)
    merge(session, warm)
    deadline = perf_counter() + seconds
    index = 0
    per_layer = spans = None
    if trace:
        # the prefix runs untraced, traced, then untraced again, so that the
        # overhead ratio does not depend on which pass ran first
        prefix = workload.traced_units
        plain = Session(lib, scratch)
        run_units(plain, workload, inputs, 0, prefix, None, pins)
        # the set-up has a tracer of its own: it gives model.load_s and
        # nothing else, so set-up work counts in no other layer
        setup_tracer = Tracer()
        setup_tracer.install(lib)
        setup_tracer.active = True
        try:
            workload.build(lib, seed)
        finally:
            setup_tracer.uninstall()
        tracer = Tracer()
        tracer.install(lib)
        traced = Session(lib, scratch, tracer)
        tracer.active = True
        try:
            run_units(traced, workload, inputs, 0, prefix, None, pins)
        finally:
            tracer.uninstall()
        run_units(plain, workload, inputs, 0, prefix, None, pins)
        per_layer = tracer.layer_metrics(busy_seconds(traced) / (busy_seconds(plain) / 2), setup_tracer.load_s())
        spans = tracer.span_table()
        merge(session, plain)
        merge(session, traced)
        index = prefix

    # set-ups are timed between units across the whole loop, so that they
    # sample the machine at as many moments as the calls do; the reference
    # sum is timed between calls, at most once every REFERENCE_EVERY seconds
    setup_times = []
    reference_times = []
    spacing = max(deadline - perf_counter(), 0.0) / SETUP_SAMPLES
    next_setup = perf_counter() + spacing / 2
    last_reference = float("-inf")

    def reference_when_due():
        nonlocal last_reference
        if perf_counter() - last_reference >= REFERENCE_EVERY:
            reference_times.append(reference_seconds())
            last_reference = perf_counter()

    def setup_when_due():
        nonlocal next_setup
        if perf_counter() >= next_setup:
            setup_times.append(time_setup(workload, seed))
            next_setup += spacing

    session.before_call = reference_when_due
    wall, cpu = perf_counter(), process_time()
    units = run_units(session, workload, inputs, index, None, deadline, pins, setup_when_due)
    wall, cpu = perf_counter() - wall, process_time() - cpu
    if not setup_times:
        setup_times.append(time_setup(workload, seed))

    latencies = latency_report(session)
    throughput_busy = sum(
        share * sum(session.samples.get(op, ())) for op, share in workload.throughput_ops.items()
    )
    raw_metrics = {
        "setup_s": trimmed_mean(sorted(setup_times)),
        **{f"{name}.tmean": latencies.get(name, {}).get("tmean", 0.0) for name in ("solve_ms", "myerson_ms", "gsp_ms", "vcg_ms")},
        "units_per_s": units * workload.per_unit / throughput_busy if throughput_busy else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # The machine's speed drifts by up to 1.8x over minutes, in step for the
    # reference sum and for richads. Times and rates are reported as on a
    # machine where the reference takes REFERENCE_MS, which cancels the drift.
    reference_ms = trimmed_mean(sorted(reference_times)) * 1e3
    slowness = reference_ms / REFERENCE_MS
    metrics = {
        name: value if name == "peak_rss_mb" else value * slowness if name == "units_per_s" else value / slowness
        for name, value in raw_metrics.items()
    }
    return {
        "env": {
            "python": platform.python_version(),
            "backend": lib.backend_name(),
            "git_rev": git_rev(),
            "nproc": os.cpu_count(),
        },
        "units": units,
        # CPU time well below wall time means the process waited for a CPU;
        # both include the set-ups timed during the loop
        "loop_wall_s": wall,
        "loop_cpu_s": cpu,
        "setup_times_s": setup_times,
        "reference_ms": reference_ms,
        "reference_n": len(reference_times),
        "metrics": metrics,
        "raw_metrics": raw_metrics,
        "latencies": latencies,
        "per_layer": per_layer,
        "spans": spans,
        "attempted": session.attempted,
        "failed": session.failed,
        "errors": session.errors,
    }


def pin() -> int:
    """Recompute pins.json: every unit of every workload's pool at PIN_SEED."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="pin-", dir=OUT))
    pins = {}
    try:
        lib = load_library()
        for name, workload in WORKLOADS.items():
            session = Session(lib, scratch)
            inputs = workload.build(lib, PIN_SEED)
            pins[name] = []
            for item in inputs:
                workload.unit(session, item)
                pins[name].append(session.end_unit())
            if session.failed:
                print(f"{name}: checks failed, pins not written: {session.errors}", file=sys.stderr)
                return 1
            print(f"{name}: pinned {len(inputs)} units", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    PINS.write_text(json.dumps({"seed": PIN_SEED, "workloads": pins}, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite pins.json and exit")
    args = parser.parse_args(argv)
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        record = measure(workload, args.seed, args.seconds, bool(args.trace), scratch)
    except LibraryMissing as exc:
        print(f"layerbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record.update(workload=workload.name, why=workload.why, seed=args.seed, seconds=args.seconds, trace=args.trace)
    correct = record["failed"] == 0
    if args.trace:
        reported = {name: {"value": record["per_layer"][name], "unit": unit} for name, unit, _b in LAYER_METRICS}
    else:
        reported = {name: {"value": record["metrics"][name], "unit": unit} for name, unit in END_TO_END.items()}
    (OUT / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )

    env = record["env"]
    print(f"layerbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: {workload.why}")
    print(f"env: python {env['python']}, backend {env['backend']}, rev {env['git_rev'][:12]}, nproc {env['nproc']}")
    print(f"units {record['units']}, ops attempted {record['attempted']}, failed {record['failed']}, "
          f"failed_ratio {record['failed'] / max(record['attempted'], 1):.4f}")
    for name, row in record["latencies"].items():
        p90 = f"  p90 {row['p90']:.3f} ms" if "p90" in row else ""
        print(f"  {name:<14} tmean {row['tmean']:.3f} ms  p50 {row['p50']:.3f} ms{p90}  (n={row['n']})")
    if workload.name == "corpus-small":
        print(f"  experiment_instances_per_s {record['metrics']['units_per_s']:.2f}")
    for error in record["errors"]:
        print(f"  FAILED {error}")
    if not args.trace:
        print(f"reference sum {record['reference_ms']:.4f} ms (n={record['reference_n']}); "
              f"figures below are scaled to {REFERENCE_MS:g} ms, as measured in brackets")
    for name, metric in reported.items():
        measured = "" if args.trace else f"  ({record['raw_metrics'][name]:.6g})"
        print(f"{name:<32} {metric['value']:.6g} {metric['unit']}{measured}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"], "failed": record["failed"], "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
