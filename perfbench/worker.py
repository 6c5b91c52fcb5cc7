"""One measuring interpreter of the benchmark (started by ``run.py``).

Runs repetitions of one workload, from repetition ``--first-rep`` on,
for about ``--seconds`` (at least one repetition; it stops rather than
overshoot by more than half a repetition), then writes a JSON summary to
``--out``.  Repetition ``i`` of seed ``s`` always gets the same inputs
(see :func:`rep_seed`).  Each repetition records the peak resident
memory of its user-facing call (the peak is reset just before the call).
With ``--trace 1`` it installs the workload's span wrappers first,
removes them afterwards, and writes the spans to ``--spans``.

Set-up time is this interpreter's start-up and imports (from
``--spawned-at``, a ``time.monotonic`` reading taken by the parent just
before it started this process) plus the median per-repetition set-up.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import repro  # noqa: E402
from repro import fastpath  # noqa: E402

import workloads  # noqa: E402
from tracing import ROOT, Tracer  # noqa: E402

IMPORTED = time.monotonic()

#: Span names whose self time is reported as ``<name>_s``.
TIMED_LAYERS = (
    "core.next_candidate",
    "core.population.tournament",
    "core.operators.evolve",
    "core.ingest",
    "core.population.add",
    "core.archive.add",
    "core.engine_state",
    "problems.evaluate",
    "service.final_front",
    "study.enqueue_many",
    "study.claim_many",
    "study.tell_many",
    "study.save_snapshot",
    "study.completed_trials",
    "study.load",
    "storage.append",
    "storage.sync",
    "storage.read",
    "models.simulate_async",
    "models.predict_sync",
    "models.predict_islands",
    "models.service_curve",
    "stats.ranger_timing",
)

#: Repetitions per interpreter whose final front's hypervolume is taken.
HV_REPS = 6


def reset_peak_rss() -> None:
    """Reset this process's peak resident set size to its current one.
    Where the kernel refuses, the peak stays the process's lifetime one."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        return int(re.search(r"VmHWM:\s+(\d+)", fh.read()).group(1)) / 1024.0


def rep_seed(seed: int, index: int) -> int:
    """Seed of repetition ``index`` of a run with ``--seed seed``."""
    return (seed * 1_000_003 + index) % 2**32


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): p99 when at least ten samples lie beyond it,
    else the highest whole percentile that has ten samples beyond it
    (p50 at worst)."""
    pct = 99.0
    while pct > 50.0 and len(samples) * (1.0 - pct / 100.0) < 10.0:
        pct -= 1.0
    return pct, float(np.percentile(samples, pct))


def traced_layers(tracer: Tracer, workload: str) -> dict[str, float]:
    """Per-layer values of the repetition that just ended."""
    root = tracer.inclusive[ROOT]
    values = {f"{name}_s": tracer.self_time.get(name, 0.0) for name in TIMED_LAYERS}
    adds = tracer.calls["core.archive.add"]
    steps = tracer.calls["service.step"]
    values.update(
        {
            "core.archive.add_calls": adds,
            "core.archive.accept_ratio": (
                tracer.results["core.archive.accepted"] / adds if adds else 0.0
            ),
            "service.step_calls": steps,
            "service.idle_ratio": (
                tracer.results["service.step.idle"] / steps if steps else 0.0
            ),
            "storage.append_calls": tracer.calls["storage.append"],
            "trace.wall_s": root,
            "trace.unattributed_s": tracer.self_time[ROOT],
            "trace.accounting_error_s": abs(sum(tracer.self_time.values()) - root),
        }
    )
    if workload == "dispatch-processes":
        core = tracer.inclusive["core.next_candidate"] + tracer.inclusive["core.ingest"]
        values["parallel.master_core_s"] = core
        values["parallel.master_other_s"] = root - core
    return values


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "REPRO_FASTPATH": os.environ.get("REPRO_FASTPATH"),
        "fastpath_enabled": fastpath.enabled(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--spawned-at", type=float, default=STARTED)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.scale][args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-seed{args.seed}")
        workload.trace(tracer)

    reps = []
    fronts = []
    step_ms: list[float] = []
    started = time.monotonic()
    deadline = started + args.seconds
    index = args.first_rep
    try:
        while True:
            seed = rep_seed(args.seed, index)
            start = time.perf_counter()
            ctx = workload.setup(seed, size, args.tmpdir)
            setup_s = time.perf_counter() - start
            reset_peak_rss()
            if tracer is not None:
                with tracer.rep(index):
                    ops = workload.call(ctx)
                wall = tracer.inclusive[ROOT]
                layers = traced_layers(tracer, args.workload)
                step_ms += [1e3 * d for d in tracer.durations["service.step"]]
            else:
                start = time.perf_counter()
                ops = workload.call(ctx)
                wall = time.perf_counter() - start
                layers = {}
            peak_mb = peak_rss_mb()
            if len(fronts) < HV_REPS:
                fronts.append(workload.front(ctx))
            checks, attempted, failed, counters = workload.check(ctx)
            layers.update(counters)
            reps.append(
                {
                    "index": index,
                    "seed": seed,
                    "setup_s": setup_s,
                    "wall_s": wall,
                    "peak_rss_mb": peak_mb,
                    "ops": ops,
                    "attempted": attempted,
                    "failed": failed,
                    "checks": checks,
                    "layers": layers,
                }
            )
            index += 1
            # Stop when another repetition would overshoot the slice by
            # more than half its (mean) length.
            now = time.monotonic()
            if now + 0.5 * (now - started) / len(reps) >= deadline:
                break
    finally:
        if tracer is not None:
            tracer.remove()

    summary = {
        "workload": args.workload,
        "import_s": IMPORTED - args.spawned_at,
        "reps": reps,
        "env": environment(),
        # Hypervolume is computed once timing is over, so its memory and
        # time stay out of the measured calls.
        "hv": [
            workloads.hypervolume(workload, front)
            for front in fronts
            if front is not None
        ],
        "hv_floor": workloads.HV_FLOOR[args.scale].get(args.workload, 0.0),
    }
    if step_ms:
        summary["service.step_p50_ms"] = float(np.percentile(step_ms, 50))
        (
            summary["service.step_tail_pct"],
            summary["service.step_p99_ms"],
        ) = tail_percentile(step_ms)
    if tracer is not None and args.spans:
        with gzip.open(args.spans, "wt", encoding="utf-8", compresslevel=1) as fh:
            tracer.write(fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
