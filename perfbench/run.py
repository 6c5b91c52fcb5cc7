"""Benchmark of the Borg MOEA reproduction: one workload per invocation.

    python3 perfbench/run.py --workload serial-dtlz2 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each run starts fresh interpreters
(``perfbench/worker.py``) under a wall-clock cap, so a crash or hang
fails only this workload, with a message on standard error.

* ``--trace 0`` runs three untraced interpreters, each measuring a third
  of ``--seconds``, and reports the end-to-end metrics: ``setup_s``
  (median interpreter start-up + imports + per-repetition set-up),
  ``ops_per_s`` (median over repetitions of operations completed per
  wall second of the user-facing call) and ``peak_rss_mb`` (median over
  repetitions of the peak resident memory during the call).
* ``--trace 1`` runs one untraced and one traced interpreter over the
  same repetitions and reports the per-layer metrics, including
  ``trace.overhead`` (traced over untraced wall time).

Every output check runs in both modes.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Journals live in a per-run
directory under ``.perfbench_tmp/`` that is always removed; spans of a
traced run are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Optional

WORKLOADS = ("serial-dtlz2", "study-journal", "model-sweep", "dispatch-processes")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "core.next_candidate_s": "s",
    "core.population.tournament_s": "s",
    "core.operators.evolve_s": "s",
    "core.ingest_s": "s",
    "core.population.add_s": "s",
    "core.archive.add_s": "s",
    "core.archive.add_calls": "count",
    "core.archive.accept_ratio": "ratio",
    "core.archive.size": "count",
    "core.restarts": "count",
    "core.engine_state_s": "s",
    "problems.evaluate_s": "s",
    "service.step_calls": "count",
    "service.idle_ratio": "ratio",
    "service.step_p50_ms": "ms",
    "service.step_p99_ms": "ms",
    "service.step_tail_pct": "%",
    "service.final_front_s": "s",
    "study.enqueue_many_s": "s",
    "study.claim_many_s": "s",
    "study.tell_many_s": "s",
    "study.save_snapshot_s": "s",
    "study.completed_trials_s": "s",
    "study.load_s": "s",
    "study.reload_s": "s",
    "storage.append_calls": "count",
    "storage.append_s": "s",
    "storage.sync_s": "s",
    "storage.read_s": "s",
    "storage.flushes": "count",
    "storage.mean_batch": "commits/flush",
    "storage.bytes_written": "B",
    "storage.bytes_per_eval": "B",
    "cache.hit_rate": "ratio",
    "cache.backend_reads": "count",
    "models.simulate_async_s": "s",
    "models.predict_sync_s": "s",
    "models.predict_islands_s": "s",
    "models.service_curve_s": "s",
    "stats.ranger_timing_s": "s",
    "parallel.master_core_s": "s",
    "parallel.master_other_s": "s",
    "parallel.failures_detected": "count",
    "parallel.tasks_redispatched": "count",
    "parallel.results_quarantined": "count",
    "quality.hv": "ratio",
    "trace.overhead": "ratio",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
}

#: Untraced interpreters per end-to-end run (set-up is their median).
CHILDREN = 3
#: Whole-run wall-clock budget; each interpreter is capped within it.
RUN_BUDGET_S = 170.0
#: Traced repetitions whose self times miss the root span by more than
#: this fail the accounting check.
ACCOUNTING_TOLERANCE_S = 1e-6

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class BenchError(RuntimeError):
    pass


# -- process hygiene -----------------------------------------------------------
def become_subreaper() -> None:
    """Adopt orphaned grandchildren (forked workers whose parent died) so
    they can be killed and reaped here rather than outliving the run."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _own_children() -> list[int]:
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_strays(timeout: float = 10.0) -> None:
    """Kill and wait for every remaining child of this process."""
    for pid in _own_children():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.02)


def run_child(cmd: list[str], env: dict, cap: float, label: str) -> None:
    proc = subprocess.Popen(
        cmd, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        proc.wait(timeout=cap)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{label} exceeded its wall-clock cap of {cap:.0f} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        reap_strays()
    if proc.returncode != 0:
        raise BenchError(f"{label} exited with code {proc.returncode}")


# -- environment stamp ----------------------------------------------------------
def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


# -- aggregation ------------------------------------------------------------------
def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def checks_pass(summary: dict) -> tuple[bool, list[str]]:
    failures = [
        f"rep {rep['index']}: {name}"
        for rep in summary["reps"]
        for name, ok in rep["checks"].items()
        if not ok
    ]
    for rep in summary["reps"]:
        error = rep["layers"].get("trace.accounting_error_s", 0.0)
        if error > ACCOUNTING_TOLERANCE_S:
            failures.append(f"rep {rep['index']}: self times miss wall by {error:g} s")
    return not failures, failures


def median_hv(summaries: list[dict]) -> Optional[float]:
    """Median hypervolume over every front the interpreters measured."""
    values = [hv for summary in summaries for hv in summary["hv"]]
    return _median(values) if values else None


def end_to_end(children: list[dict]) -> dict[str, float]:
    reps = [rep for child in children for rep in child["reps"]]
    return {
        "setup_s": _median(
            child["import_s"] + _median(rep["setup_s"] for rep in child["reps"])
            for child in children
        ),
        "ops_per_s": _median(rep["ops"] / rep["wall_s"] for rep in reps),
        "peak_rss_mb": _median(rep["peak_rss_mb"] for rep in reps),
    }


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    reps = traced["reps"]
    values = {
        name: _median(rep["layers"].get(name, 0.0) for rep in reps)
        for name in PER_LAYER
    }
    common = min(len(untraced["reps"]), len(reps))
    base = sum(rep["wall_s"] for rep in untraced["reps"][:common])
    values["trace.overhead"] = (
        sum(rep["wall_s"] for rep in reps[:common]) / base if base else 0.0
    )
    values["quality.hv"] = median_hv([untraced, traced]) or 0.0
    for name in ("service.step_p50_ms", "service.step_p99_ms", "service.step_tail_pct"):
        values[name] = traced.get(name, 0.0)
    return values


# -- main ---------------------------------------------------------------------------
def measure(args, root: str, tmp: str) -> tuple[dict, list[dict]]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    if args.trace:
        plan = [(0, args.seconds / 2.0), (1, args.seconds / 2.0)]
    else:
        plan = [(0, args.seconds / CHILDREN)] * CHILDREN
    out_dir = os.path.join(root, ".perfbench_out")
    deadline = time.monotonic() + RUN_BUDGET_S
    summaries = []
    first_rep = 0
    for number, (traced, seconds) in enumerate(plan):
        out = os.path.join(tmp, f"child{number}.json")
        cmd = [
            sys.executable,
            os.path.join(BENCH_DIR, "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(seconds),
            "--first-rep", str(first_rep),
            "--trace", str(traced),
            "--scale", args.scale,
            "--tmpdir", tmp,
            "--out", out,
        ]
        if traced:
            os.makedirs(out_dir, exist_ok=True)
            cmd += [
                "--spans",
                os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"),
            ]
        cap = min(3.0 * seconds + 60.0, deadline - time.monotonic())
        if cap < 5.0:
            raise BenchError("run budget exhausted before every interpreter ran")
        cmd += ["--spawned-at", repr(time.monotonic())]
        run_child(cmd, env, cap, f"{args.workload} interpreter {number}")
        with open(out, encoding="utf-8") as fh:
            summaries.append(json.load(fh))
        if not args.trace:
            first_rep += len(summaries[-1]["reps"])
    if args.trace:
        metrics = per_layer(summaries[0], summaries[1])
        units = PER_LAYER
    else:
        metrics = end_to_end(summaries)
        units = END_TO_END
    return {name: (metrics[name], units[name]) for name in units}, summaries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="repetition size; 'smoke' only proves the plumbing",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "error: run from the repository root; src/repro is missing here",
            file=sys.stderr,
        )
        return 2

    become_subreaper()
    # A terminated run still stops its interpreters and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(os.path.join(root, ".perfbench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".perfbench_tmp"))
    try:
        metrics, summaries = measure(args, root, tmp)
    except BenchError as exc:
        print(f"error: workload {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        reap_strays()

    stamp = {**summaries[0]["env"], "git_commit": git_commit(root)}
    print(f"environment: {json.dumps(stamp, sort_keys=True)}")
    if not stamp["fastpath_enabled"]:
        print(
            "WARNING: REPRO_FASTPATH disables the fast paths; these numbers "
            "measure the reference code, not the program users run",
            file=sys.stderr,
        )
    correct = True
    for summary in summaries:
        ok, failures = checks_pass(summary)
        correct &= ok
        for failure in failures:
            print(f"check failed: {failure}", file=sys.stderr)
    # One front's hypervolume varies with its seed; the median over the
    # run's measured fronts is what must clear the floor.
    hv = median_hv(summaries)
    floor = summaries[0]["hv_floor"]
    if hv is not None and hv < floor:
        correct = False
        print(
            f"check failed: median hypervolume {hv:.4f} below its floor {floor}",
            file=sys.stderr,
        )
    reps = [rep for summary in summaries for rep in summary["reps"]]
    print(f"workload {args.workload}: {len(reps)} repetitions, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": int(sum(rep["attempted"] for rep in reps)),
        "failed": int(sum(rep["failed"] for rep in reps)),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
