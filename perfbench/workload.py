"""One fresh workload process of the benchmark.

``run.py`` starts this script once per process it measures; the script
imports ``repro`` from the checkout (``PYTHONPATH=src``), does its set-up,
records the monotonic time of its first timed operation, runs operations
for ``--budget`` seconds and writes everything it measured to ``--out``
as JSON.  Kinds:

``sweep``    pairs of passes over the seeded ``sweep_many`` grid, one on
             the sequential engine and one with ``batched=True``; the two
             must agree on every point, and with ``--check`` the
             truncated-chain oracle checks a few light-load points.
``jobs``     the closed job loop over a fresh ``open_repository`` queue
             whose solve cache set-up pre-fills.
``figures``  the traced form of ``python -m repro.experiments all``.
``env``      the numerical environment (numpy/scipy/BLAS); the sweep and
             job kinds record it too.

Each process measures whole operations (pairs of passes, rounds of
jobs) and stops at the one that ends closest to ``--budget``.  With
``--trace`` the sweep and job kinds alternate untraced and traced
operations, so the report can state the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import checks
import grid
import layers
from tracer import Tracer, merge


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def _arrivals() -> dict:
    from repro.workloads.comparators import dependence_comparators
    from repro.workloads.paper import WORKLOADS

    arrivals = {key: WORKLOADS[key].fit() for key in grid.TRACE_FAMILIES}
    arrivals.update(dependence_comparators("email"))
    return arrivals


def _base_model(call, arrivals, bg_probability: float):
    from repro.core.model import FgBgModel
    from repro.workloads.paper import SERVICE_RATE_PER_MS

    return FgBgModel(
        arrival=arrivals[call.family],
        service_rate=SERVICE_RATE_PER_MS,
        bg_probability=bg_probability,
        bg_buffer=call.bg_buffer,
    ).with_idle_wait_multiple(call.idle_wait_multiple)


def _sweep_pass(calls, arrivals, batched: bool, tracer: Tracer | None) -> dict:
    """One pass over the grid; fresh ``FgBgModel`` instances every pass, so
    block assembly (a cached property) is paid again."""
    from repro.experiments import sweeps

    values, call_ms, failed = [], [], 0
    started = time.perf_counter()
    for call in calls:
        base = _base_model(call, arrivals, call.bg_probabilities[0])
        begin = time.perf_counter()
        try:
            with tracer.span("experiments.sweep") if tracer else contextlib.nullcontext():
                series = sweeps.sweep_many(
                    base,
                    sweeps.utilization_axis(call.utilizations),
                    call.metric,
                    call.bg_probabilities,
                    batched=batched,
                )
            curves = [[float(y) for y in s.y] for s in series]
        except (RuntimeError, ValueError):  # solver divergence, instability
            curves = [[math.nan] * len(call.utilizations)] * len(
                call.bg_probabilities
            )
        call_ms.append((time.perf_counter() - begin) * 1e3)
        failed += sum(math.isnan(y) for curve in curves for y in curve)
        values.append(curves)
    return {
        "wall_s": time.perf_counter() - started,
        "points": sum(call.points for call in calls),
        "failed": failed,
        "call_ms": call_ms,
        "values": values,
    }


def _warm_up_calls(calls):
    """One single-point call per buffer size of the grid, at the lowest
    load swept with that buffer (never the fallback point ``grid.EDGE``)."""
    firsts = {}
    for call in sorted(calls, key=lambda call: call.utilizations[0], reverse=True):
        firsts[call.bg_buffer] = call
    return [
        dataclasses.replace(
            call,
            utilizations=call.utilizations[:1],
            bg_probabilities=call.bg_probabilities[:1],
        )
        for call in firsts.values()
    ]


def _traced_pass(calls, arrivals, batched: bool) -> tuple[dict, dict]:
    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span("pass"):
            result = _sweep_pass(calls, arrivals, batched, tracer)
    finally:
        tracer.uninstall()
    return result, tracer.snapshot()


#: Truncated-chain oracle: points per run, eligibility, agreement.
ORACLE_POINTS = 3
ORACLE_MAX_SPECTRAL_RADIUS = 0.5
ORACLE_REL_TOLERANCE = 1e-8


def _oracle(seed, calls, values, arrivals) -> list[str]:
    """Light-load points against the truncated dense chain."""
    from repro.core.metrics import compute_metrics, resolve_metric
    from repro.qbd.truncated import solve_qbd_truncated

    candidates = [
        (index, curve)
        for index, call in enumerate(calls)
        if call.bg_buffer <= 3
        for curve in range(len(call.bg_probabilities))
    ]
    problems, checked = [], 0
    for index, curve in grid.oracle_order(seed, candidates):
        call = calls[index]
        model = _base_model(call, arrivals, call.bg_probabilities[curve]).at_utilization(
            call.utilizations[0]
        )
        if model.solve().qbd_solution.spectral_radius >= ORACLE_MAX_SPECTRAL_RADIUS:
            continue
        truncated = compute_metrics(
            space=model.state_space,
            qbd_solution=solve_qbd_truncated(model.qbd),
            arrival=model.arrival,
            service_rate=model.service_rate,
            bg_probability=model.bg_probability,
        )
        expected = resolve_metric(call.metric)(truncated)
        got = values[index][curve][0]
        if not abs(got - expected) <= ORACLE_REL_TOLERANCE * max(1.0, abs(expected)):
            problems.append(
                f"oracle: {call.family} X={call.bg_buffer} {call.metric}: "
                f"{got!r} vs truncated {expected!r}"
            )
        checked += 1
        if checked == ORACLE_POINTS:
            return problems
    return problems + [f"oracle: only {checked} eligible points"]


#: The engines of one operation: the sequential pass, then the batched one.
ENGINES = (False, True)


def run_sweep(args) -> dict:
    import repro.core.model  # noqa: F401 -- set-up: imports are not timed
    import repro.experiments.sweeps  # noqa: F401

    arrivals = _arrivals()
    calls = grid.sweep_grid(args.seed)
    # Warm-up: the first solves of a process pay one-time costs (BLAS
    # thread start-up, first-touch allocations); they belong to set-up.
    for batched in ENGINES:
        _sweep_pass(_warm_up_calls(calls), arrivals, batched, None)
    first_op = time.monotonic()
    passes, traced, snapshots, problems = [], [], [], []
    build_qbd = {"sequential": 0, "batched": 0}
    mismatched = 0
    started = time.perf_counter()
    last_wall = 0.0
    while (
        not passes
        or time.perf_counter() - started + last_wall / 2 < args.budget
        or (args.trace and not traced)
    ):
        tracing = args.trace and len(passes) > len(traced)
        pair_started = time.perf_counter()
        pair = []
        for batched in ENGINES:
            if tracing:
                result, snapshot = _traced_pass(calls, arrivals, batched)
                snapshots.append(snapshot)
                build_qbd["batched" if batched else "sequential"] += snapshot[
                    "calls"].get("core.build_qbd", 0)
            else:
                result = _sweep_pass(calls, arrivals, batched, None)
            pair.append(result)
        last_wall = time.perf_counter() - pair_started
        mismatched += _mismatches(*pair)
        (traced if tracing else passes).extend(
            {**_strip(result), "batched": batched}
            for result, batched in zip(pair, ENGINES)
        )
    if mismatched:
        problems.append(
            f"{mismatched} points differ between the batched and sequential "
            f"engines by more than {checks.SWEEP_REL_TOLERANCE:g}"
        )
    if build_qbd["sequential"] != build_qbd["batched"]:
        problems.append(f"build_qbd calls differ between the engines: {build_qbd}")
    if args.check:
        problems += _oracle(args.seed, calls, pair[0]["values"], arrivals)
    return {
        "first_op": first_op,
        "passes": passes,
        "traced_passes": traced,
        "build_qbd_calls": build_qbd,
        "snapshot": merge(snapshots) if snapshots else None,
        "problems": problems,
        "environment": environment(),
    }


def _mismatches(sequential: dict, batched: dict) -> int:
    """Points on which the two engines disagree beyond the tolerance."""
    return sum(
        not checks.values_match(a, b)
        for call_a, call_b in zip(sequential["values"], batched["values"])
        for curve_a, curve_b in zip(call_a, call_b)
        for a, b in zip(curve_a, curve_b)
    )


def _strip(result: dict) -> dict:
    return {k: v for k, v in result.items() if k != "values"}


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
def run_jobs(args) -> dict:
    from repro.engine.config import EngineConfig
    from repro.experiments.runner import execute_figure
    from repro.jobs import JobNotFinished, JobService, JobWorker, open_repository

    reference = checks.load_reference()
    setup_tracer = Tracer()
    if args.trace:
        layers.install(setup_tracer)
    repository = open_repository(Path(args.tmp) / "queue")
    service, worker = JobService(repository), JobWorker(repository)
    # Pre-fill the queue's shared solve cache: the timed jobs replay every
    # point from it and do no R solves.
    engine = EngineConfig(cache_dir=repository.cache_dir).build_engine()
    for figure in grid.SWEEP_FIGURES:
        execute_figure(figure, engine=engine)
    setup_tracer.uninstall()
    # One untimed job pays the worker's first-job costs, and the sync
    # writes the pre-filled cache back to disk now rather than under the
    # first timed jobs.
    warm_up = service.submit_figure(grid.SWEEP_FIGURES[0])
    worker.run_once()
    service.result(warm_up.job_id)
    os.sync()
    first_op = time.monotonic()

    jobs, traced_jobs, snapshots, problems = [], [], [], []
    rounds, traced_rounds = [], []
    started = time.perf_counter()
    round_index = args.process_index * 1000
    last_round = 0.0
    while (
        not jobs
        or time.perf_counter() - started + last_round / 2 < args.budget
        or (args.trace and not traced_jobs)
    ):
        tracer = Tracer() if args.trace and len(jobs) > len(traced_jobs) else None
        if tracer:
            layers.install(tracer)
        round_started = time.perf_counter()
        try:
            for figure in grid.job_round(args.seed, round_index):
                begin = time.perf_counter()
                with tracer.span("job") if tracer else contextlib.nullcontext():
                    job = service.submit_figure(figure)
                    worker.run_once()
                    try:
                        text = service.result(job.job_id)
                    except JobNotFinished:
                        text = None
                record = {
                    "figure": figure,
                    "ms": (time.perf_counter() - begin) * 1e3,
                    "failed": text is None,
                }
                (traced_jobs if tracer else jobs).append(record)
                if text is not None:
                    problems.extend(checks.check_figure(figure, text, reference))
        finally:
            if tracer:
                tracer.uninstall()
                snapshots.append(tracer.snapshot())
        last_round = time.perf_counter() - round_started
        (traced_rounds if tracer else rounds).append(last_round)
        round_index += 1
    repository.close()
    snapshot = merge(snapshots) if snapshots else None
    if snapshot is not None:
        # The workload exists to stress the job and cache layers: every
        # point must come from the pre-filled cache, none from the solver.
        gets = snapshot["calls"].get("engine.cache_get", 0)
        if snapshot["counters"].get("engine.cache_hits", 0) != gets:
            problems.append("timed jobs missed the pre-filled solve cache")
        if snapshot["calls"].get("qbd.r_matrix", 0):
            problems.append("timed jobs ran R solves")
    return {
        "first_op": first_op,
        "jobs": jobs,
        "traced_jobs": traced_jobs,
        "round_s": rounds,
        "traced_round_s": traced_rounds,
        "snapshot": snapshot,
        "setup_snapshot": setup_tracer.snapshot(),
        "problems": problems,
        "environment": environment(),
    }


# ----------------------------------------------------------------------
# figures (traced)
# ----------------------------------------------------------------------
def run_figures(args) -> dict:
    tracer = Tracer()
    started = time.perf_counter_ns()
    tracer.enter("figures_cli")
    with tracer.span("import.repro_experiments"):
        from repro.experiments import runner
    layers.install(tracer)
    with open(args.stdout, "w") as out, contextlib.redirect_stdout(out):
        code = runner.main(["all"])
    tracer.exit()
    tracer.uninstall()
    return {
        "exit_code": code,
        "wall_ns": time.perf_counter_ns() - started,
        "snapshot": tracer.snapshot(),
    }


KINDS = {"sweep": run_sweep, "jobs": run_jobs, "figures": run_figures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=(*KINDS, "env"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--process-index", type=int, default=0)
    parser.add_argument("--tmp", default=".")
    parser.add_argument("--stdout", default=os.devnull)
    args = parser.parse_args()
    result = environment() if args.kind == "env" else KINDS[args.kind](args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
