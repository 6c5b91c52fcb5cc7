"""The four benchmark workloads.

Each workload is a :class:`Workload` with

* ``setup(seed, size, tmpdir)`` -- build the inputs for one repetition
  (the part timed as set-up); ``size`` comes from :data:`SIZES`;
* ``call(ctx)`` -- the user-facing call, timed as the repetition's wall
  time; returns the number of operations it completed;
* ``check(ctx)`` -- output checks plus attempted/failed accounting and
  the per-repetition values of the per-layer counters;
* ``front(ctx)`` -- the final front whose hypervolume guards quality
  (``None`` for the model sweep);
* ``trace(tracer)`` -- install the span wrappers of the layers it uses.

All of them are closed loops: the caller waits for each reply.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core import borg as core_borg
from repro.core.archive import EpsilonBoxArchive
from repro.core.borg import BorgMOEA
from repro.core.operators.base import Variator
from repro.core.population import Population
from repro.indicators.hypervolume import Hypervolume
from repro.indicators.refsets import (
    NormalizedHypervolume,
    reference_point_for,
    reference_set_for,
)
from repro.models import service as model_service
from repro.models import simmodel
from repro.models.analytical import AnalyticalModel
from repro.parallel import runner as parallel_runner
from repro.parallel import service as parallel_service
from repro.problems import DTLZ2, ZDT1
from repro.problems.base import Problem
from repro.stats import timing as stats_timing
from repro.stats.distributions import Exponential
from repro.storage import JournalStorage, Study, StudyCache
from repro.storage.study import TRIAL_COMPLETE

#: Per-repetition sizes.  ``full`` is what the benchmark measures;
#: ``smoke`` only proves the plumbing (used by the smoke test).
SIZES = {
    "full": {
        "serial-dtlz2": 4000,
        "study-journal": 1500,
        "model-sweep": {
            "nfe": 50_000,
            "processors": [2**k for k in range(4, 15)],  # 16 .. 16384
            "tf": [1e-4, 1e-3, 1e-2, 1e-1],
            "islands": [16, 128, 1024],
            "users": [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000],
        },
        "dispatch-processes": 2000,
    },
    "smoke": {
        "serial-dtlz2": 300,
        "study-journal": 120,
        "model-sweep": {
            "nfe": 4000,
            "processors": [16, 32, 64],
            "tf": [1e-3, 1e-2],
            "islands": [16],
            "users": [1, 10, 100, 1_000],
        },
        "dispatch-processes": 150,
    },
}

#: Lowest median normalized hypervolume a correct run reaches, per
#: workload (median over the first repetitions of each interpreter).  A single
#: repetition's value spreads with its seed (serial-dtlz2: mean 0.60,
#: sd 0.035, lowest 0.49 over 40 seeds), so no single front is judged;
#: the median sits well above these, and a change that searches less or
#: breaks the algorithm falls below.
HV_FLOOR = {
    "full": {
        "serial-dtlz2": 0.55,
        "study-journal": 0.15,
        "dispatch-processes": 0.10,
    },
    "smoke": {},
}

#: Unsaturated cells -- (P - 1) at most this share of Eq. 3's P_UB --
#: must match Eq. 2 within EQ2_TOLERANCE (relative).
UNSATURATED_SHARE = 0.5
EQ2_TOLERANCE = 0.05


def mutually_nondominated(objectives: np.ndarray) -> bool:
    """True when no row of ``objectives`` Pareto-dominates another."""
    F = np.asarray(objectives, dtype=float)
    for start in range(0, len(F), 256):
        block = F[start : start + 256]
        weakly = (F[None, :, :] <= block[:, None, :]).all(axis=2)
        strictly = (F[None, :, :] < block[:, None, :]).any(axis=2)
        if (weakly & strictly).any():
            return False
    return True


def _count_accepted(tracer, result) -> None:
    if result.accepted:
        tracer.results["core.archive.accepted"] += 1


def _count_outcome(tracer, outcome) -> None:
    tracer.results[f"service.step.{outcome}"] += 1


def trace_core(tracer) -> None:
    engine = core_borg.BorgEngine
    tracer.wrap(engine, "next_candidate", "core.next_candidate")
    tracer.wrap(engine, "ingest", "core.ingest")
    tracer.wrap(Population, "tournament", "core.population.tournament")
    tracer.wrap(Population, "add", "core.population.add")
    tracer.wrap(
        EpsilonBoxArchive, "add", "core.archive.add", on_result=_count_accepted
    )
    tracer.wrap(Variator, "evolve", "core.operators.evolve")
    for method in ("evaluate", "evaluate_solutions", "evaluate_batch"):
        tracer.wrap(Problem, method, "problems.evaluate")


def trace_service(tracer) -> None:
    trace_core(tracer)
    runner = parallel_service.StorageBackedRunner
    tracer.wrap(runner, "step", "service.step", on_result=_count_outcome)
    tracer.wrap(parallel_service, "final_front", "service.final_front")
    tracer.wrap(parallel_service, "engine_state", "core.engine_state")
    for method in (
        "enqueue_many",
        "claim_many",
        "tell_many",
        "save_snapshot",
        "completed_trials",
        "load",
    ):
        tracer.wrap(Study, method, f"study.{method}")
    tracer.wrap(JournalStorage, "append", "storage.append")
    tracer.wrap(JournalStorage, "append_lazy", "storage.append")
    tracer.wrap(JournalStorage, "sync", "storage.sync")
    tracer.wrap(JournalStorage, "read", "storage.read")


def trace_models(tracer) -> None:
    tracer.wrap(simmodel, "simulate_async", "models.simulate_async")
    tracer.wrap(simmodel, "predict_sync_time", "models.predict_sync")
    tracer.wrap(simmodel, "predict_islands_time", "models.predict_islands")
    tracer.wrap(model_service, "service_curve", "models.service_curve")
    tracer.wrap(stats_timing, "ranger_timing", "stats.ranger_timing")


@dataclass
class Workload:
    setup: Callable
    call: Callable
    check: Callable
    trace: Callable
    front: Callable = lambda ctx: None
    #: Problem instance the hypervolume is normalized for.
    hv_problem: Optional[Callable] = None


# -- serial-dtlz2 ------------------------------------------------------------
def _serial_setup(seed, size, tmpdir):
    problem = DTLZ2(nobjs=5)
    return {"nfe": size, "moea": BorgMOEA(problem, seed=seed)}


def _serial_call(ctx):
    ctx["result"] = ctx["moea"].run(ctx["nfe"])
    return ctx["result"].nfe


def _serial_check(ctx):
    result = ctx["result"]
    objectives = result.objectives
    checks = {
        "exact_nfe": result.nfe == ctx["nfe"],
        "finite_objectives": bool(np.isfinite(objectives).all()),
        "nondominated_archive": mutually_nondominated(objectives),
    }
    layers = {"core.archive.size": len(result.archive), "core.restarts": result.restarts}
    return checks, ctx["nfe"], max(0, ctx["nfe"] - result.nfe), layers


# -- study-journal -----------------------------------------------------------
STUDY = "bench"


def _journal_setup(seed, size, tmpdir):
    path = os.path.join(tmpdir, f"study-{seed}.journal")
    storage = JournalStorage(path, group_commit=True)
    cache = StudyCache(storage)
    study = Study.create(
        storage,
        STUDY,
        meta={"problem": "dtlz2", "max_nfe": size, "seed": seed},
        cache=cache,
    )
    runner = parallel_service.StorageBackedRunner(
        DTLZ2(nobjs=5),
        study,
        service=parallel_service.ServiceConfig(claim_batch=8),
        worker_id="bench-worker",
    )
    return {
        "nfe": size,
        "path": path,
        "storage": storage,
        "cache": cache,
        "study": study,
        "runner": runner,
    }


def _journal_call(ctx):
    result = ctx["runner"].run()
    ctx["service_result"] = result
    ctx["flush_stats"] = ctx["storage"].flush_stats()
    ctx["storage"].close()
    # The read path of ``repro study export``: cold reopen, load, front.
    start = time.perf_counter()
    reopened = JournalStorage(ctx["path"])
    try:
        study = Study.load(reopened, STUDY)
        ctx["final"] = parallel_service.final_front(DTLZ2(nobjs=5), study)
    finally:
        reopened.close()
    ctx["reload_s"] = time.perf_counter() - start
    ctx["reloaded"] = study
    return result.counts[TRIAL_COMPLETE]


def _journal_check(ctx):
    result = ctx["service_result"]
    state = ctx["study"].state
    counts = result.counts
    final = ctx["final"]
    checks = {
        "finished": result.finished,
        "exact_complete": counts[TRIAL_COMPLETE] == ctx["nfe"],
        "no_failed_trials": counts["failed"] == 0,
        "replay_identical": ctx["reloaded"].dump_state() == ctx["study"].dump_state(),
        "front_restored": final is not None and final.nfe == ctx["nfe"],
        "nondominated_archive": final is not None
        and mutually_nondominated(final.objectives),
    }
    failed = (
        counts["failed"]
        + result.storage_retries
        + state.reclaims
        + state.duplicate_tells
    )
    cache = ctx["cache"]
    lookups = cache.hits + cache.misses
    written = os.path.getsize(ctx["path"])
    flush = ctx["flush_stats"]
    layers = {
        "core.archive.size": len(final.archive) if final is not None else 0,
        "core.restarts": final.restarts if final is not None else 0,
        "study.reload_s": ctx["reload_s"],
        "storage.flushes": flush.get("flushes", 0),
        "storage.mean_batch": flush.get("mean_batch", 0.0),
        "storage.bytes_written": written,
        "storage.bytes_per_eval": written / max(1, counts[TRIAL_COMPLETE]),
        "cache.hit_rate": cache.hits / lookups if lookups else 0.0,
        "cache.backend_reads": cache.misses,
    }
    os.remove(ctx["path"])
    lock = ctx["path"] + ".lock"
    if os.path.exists(lock):
        os.remove(lock)
    return checks, len(state.trials), failed, layers


def _journal_front(ctx):
    final = ctx["final"]
    return None if final is None else final.objectives


# -- model-sweep -------------------------------------------------------------
def _sweep_setup(seed, size, tmpdir):
    """``size`` is the grid: Table II processor counts x TF values, the
    island counts and the service-curve user populations."""
    return {"seed": seed, **size}


def _sweep_call(ctx):
    seed, nfe = ctx["seed"], ctx["nfe"]
    cells = []
    for tf in ctx["tf"]:
        for processors in ctx["processors"]:
            timing = stats_timing.ranger_timing("DTLZ2", processors, tf)
            simulated = simmodel.simulate_async(processors, nfe, timing, seed=seed)
            synchronous = simmodel.predict_sync_time(processors, nfe, timing, seed=seed)
            cells.append((processors, timing, simulated.elapsed, synchronous))
    island_timing = stats_timing.ranger_timing("DTLZ2", 64, 1e-3)
    islands = [
        simmodel.predict_islands_time(
            m, 64, nfe, island_timing, seed=seed, sim_nfe=2000, max_sim_islands=4
        )
        for m in ctx["islands"]
    ]
    curve = model_service.service_curve(
        ctx["users"], Exponential(0.002), 5e-5, flush_cost=5e-4, max_batch=64, seed=seed
    )
    ctx["cells"], ctx["island_times"], ctx["curve"] = cells, islands, curve
    return 2 * len(cells) + len(islands) + len(curve)


def _sweep_check(ctx):
    values = [v for _, _, a, s in ctx["cells"] for v in (a, s)]
    values += ctx["island_times"]
    for point in ctx["curve"]:
        values += [point.throughput, point.p50, point.p99]
    bad = sum(1 for v in values if not (math.isfinite(v) and v > 0))
    unsaturated = 0
    agree = True
    for processors, timing, simulated, _ in ctx["cells"]:
        model = AnalyticalModel.from_timing(timing)
        if processors - 1 > UNSATURATED_SHARE * model.processor_upper_bound:
            continue
        unsaturated += 1
        eq2 = model.parallel_time(ctx["nfe"], processors)
        agree &= abs(simulated - eq2) <= EQ2_TOLERANCE * eq2
    checks = {
        "finite_positive": bad == 0,
        "unsaturated_cells_present": unsaturated > 0,
        "unsaturated_match_eq2": agree,
    }
    attempted = 2 * len(ctx["cells"]) + len(ctx["island_times"]) + len(ctx["curve"])
    return checks, attempted, bad, {}


# -- dispatch-processes ------------------------------------------------------
def _dispatch_setup(seed, size, tmpdir):
    return {"nfe": size, "seed": seed, "problem": ZDT1()}


def _dispatch_call(ctx):
    ctx["result"] = parallel_runner.optimize(
        ctx["problem"], ctx["nfe"], backend="processes", processors=2, seed=ctx["seed"]
    )
    return ctx["result"].nfe


def _dispatch_check(ctx):
    result = ctx["result"]
    faults = result.faults.as_dict()
    objectives = result.borg.objectives
    checks = {
        "exact_nfe": result.nfe == ctx["nfe"],
        "finite_objectives": bool(np.isfinite(objectives).all()),
        "nondominated_archive": mutually_nondominated(objectives),
        "no_faults": not any(faults.values()),
    }
    failed = (
        faults["failures_detected"]
        + faults["tasks_redispatched"]
        + faults["results_quarantined"]
        + faults["worker_errors"]
        + faults["duplicate_results"]
        + max(0, ctx["nfe"] - result.nfe)
    )
    layers = {
        "core.archive.size": len(result.borg.archive),
        "core.restarts": result.borg.restarts,
        "parallel.failures_detected": faults["failures_detected"],
        "parallel.tasks_redispatched": faults["tasks_redispatched"],
        "parallel.results_quarantined": faults["results_quarantined"],
    }
    return checks, result.nfe + faults["tasks_redispatched"], failed, layers


WORKLOADS = {
    "serial-dtlz2": Workload(
        _serial_setup,
        _serial_call,
        _serial_check,
        trace_core,
        front=lambda ctx: ctx["result"].objectives,
        hv_problem=lambda: DTLZ2(nobjs=5),
    ),
    "study-journal": Workload(
        _journal_setup,
        _journal_call,
        _journal_check,
        trace_service,
        front=_journal_front,
        hv_problem=lambda: DTLZ2(nobjs=5),
    ),
    "model-sweep": Workload(_sweep_setup, _sweep_call, _sweep_check, trace_models),
    "dispatch-processes": Workload(
        _dispatch_setup,
        _dispatch_call,
        _dispatch_check,
        trace_core,
        front=lambda ctx: ctx["result"].borg.objectives,
        hv_problem=ZDT1,
    ),
}


def hypervolume(workload: Workload, front) -> float:
    """Normalized hypervolume (seeded Monte Carlo beyond 3 objectives):
    by the closed-form ideal where one exists, else (ZDT1) by the
    hypervolume of the problem's reference set."""
    problem = workload.hv_problem()
    try:
        return float(NormalizedHypervolume(problem).compute(front))
    except KeyError:
        hv = Hypervolume(reference_point_for(problem))
        return float(hv.compute(front) / hv.compute(reference_set_for(problem)))
