"""Which ``repro`` calls the traced runs wrap, and the per-layer metrics.

Every entry of :data:`PLAN` names the attribute *where callers look it
up*: ``repro.qbd.stationary.r_matrix`` rather than
``repro.qbd.rmatrix.r_matrix``, because ``solve_qbd`` calls the name it
imported into its own module.  Spans of one layer share one name, so a
nested call of the same layer is not counted twice (see
:class:`tracer.Tracer`).
"""

from __future__ import annotations

from tracer import Tracer


def _r_matrix_stats(tracer: Tracer, result, args, kwargs) -> None:
    if isinstance(result, tuple):  # return_stats=True: (R, SolveStats)
        stats = result[1]
        tracer.counters["qbd.r_matrix_iterations"] += stats.iterations
        tracer.counters["qbd.r_matrix_fallbacks"] += len(stats.fallbacks)


def _batch_reports(tracer: Tracer, result, args, kwargs) -> None:
    if isinstance(result, tuple):  # return_reports=True: (solutions, reports)
        for report in result[1]:
            if report.phase_count == 0:
                continue  # the zero-work report of precheck failures
            tracer.counters["qbd.batch_groups"] += 1
            tracer.counters["qbd.batched_items"] += report.batch_size
            tracer.counters["qbd.batched_fallback_items"] += len(
                report.fallbacks
            ) + len(report.failures)


def _trace_samples(tracer: Tracer, result, args, kwargs) -> None:
    tracer.counters["workloads.trace_samples"] += len(result)


def _fingerprint(tracer: Tracer, result, args, kwargs) -> None:
    tracer.counters["engine.fingerprints"] += 1
    tracer.values["engine.fingerprints"].add(args[0])


def _cache_hit(tracer: Tracer, result, args, kwargs) -> None:
    tracer.counters["engine.cache_hits"] += result is not None


#: (module, attribute path, span name or None for a counter hook[, after]).
PLAN = (
    # experiments: the figure functions are looked up in ALL_FIGURES (a
    # dict), so install() wraps them in place.
    ("repro.experiments.runner", "execute_figure", "experiments.execute_figure"),
    ("repro.experiments.runner", "render_result", "experiments.render"),
    ("repro.experiments.figures", "sweep_many", "experiments.sweep"),
    ("repro.experiments.figures", "sweep", "experiments.sweep"),
    # workloads / processes
    ("repro.experiments.figures", "generate_trace", "workloads.generate_trace",
     _trace_samples),
    ("repro.experiments.figures", "autocorrelation", "processes.autocorrelation"),
    ("repro.workloads.paper", "fit_mmpp2", "processes.fit_mmpp2"),
    ("repro.workloads.comparators", "fit_mmpp2", "processes.fit_mmpp2"),
    ("repro.processes.map_process", "MarkovianArrivalProcess.scaled_to_utilization",
     "processes.scale"),
    # core
    ("repro.core.model", "FgBgModel.__init__", "core.model"),
    ("repro.core.model", "FgBgModel.at_utilization", "core.model"),
    ("repro.core.model", "FgBgModel.with_bg_probability", "core.model"),
    ("repro.core.model", "FgBgModel.with_idle_wait_multiple", "core.model"),
    ("repro.core.model", "build_qbd", "core.build_qbd"),
    ("repro.core.model", "FgBgModel.solve", "core.solve"),
    ("repro.core.model", "compute_metrics", "core.compute_metrics"),
    ("repro.core.batched", "compute_metrics", "core.compute_metrics"),
    ("repro.engine.engine", "solve_models_batched", "core.solve_models_batched",
     _batch_reports),
    # qbd
    ("repro.core.model", "solve_qbd", "qbd.solve_qbd"),
    ("repro.qbd.stationary", "r_matrix", "qbd.r_matrix", _r_matrix_stats),
    ("repro.qbd.rmatrix", "drift", "qbd.drift"),
    ("repro.qbd.stationary", "solve_boundary", "qbd.solve_boundary"),
    ("repro.qbd.batched", "solve_boundary", "qbd.solve_boundary"),
    ("repro.core.batched", "solve_qbd_batched", "qbd.solve_qbd_batched"),
    # engine
    ("repro.engine.engine", "SweepEngine.run_chains", "engine.run_chains"),
    ("repro.engine.engine", "SweepEngine.run_chain", "engine.run_chains"),
    ("repro.engine.engine", "solve_key", None, _fingerprint),
    ("repro.engine.cache", "SolveCache.get", "engine.cache_get", _cache_hit),
    ("repro.engine.cache", "SolveCache.put", "engine.cache_put"),
    # jobs
    ("repro.jobs.service", "JobService.submit_figure", "jobs.submit"),
    ("repro.jobs.service", "JobService.result", "jobs.result"),
    ("repro.jobs.repository", "JobRepository.claim", "jobs.claim"),
    ("repro.jobs.repository", "JobRepository.update", "jobs.store_update"),
    ("repro.jobs.repository", "JobRepository.get", "jobs.store_read"),
    ("repro.jobs.worker", "JobWorker.execute", "jobs.execute"),
)

#: Figure groups of the per-layer metrics.
FIGURE_GROUPS = {
    "experiments.fig1_ms": ("fig1",),
    "experiments.fig2_ms": ("fig2",),
    "experiments.load_sweeps_ms": ("fig5", "fig6", "fig7", "fig8"),
    "experiments.idle_wait_ms": ("fig9", "fig10"),
    "experiments.dependence_ms": ("fig11", "fig12", "fig13"),
}


def install(tracer: Tracer) -> None:
    """Wrap every layer of :data:`PLAN` and every figure function."""
    tracer.install(PLAN)
    from repro.experiments.figures import ALL_FIGURES

    for name in list(ALL_FIGURES):
        tracer.wrap(ALL_FIGURES, name, f"experiments.{name}")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    timed: dict,
    ops: int,
    setup: dict | None = None,
    overhead_pct: float = 0.0,
) -> dict[str, float]:
    """The per-layer metrics from tracer snapshots.

    ``timed`` covers the timed phase of ``ops`` operations (cold ``all``
    runs, pairs of grid passes or jobs); every ``_ms`` value and every count is per
    operation, except the two set-up metrics, which come from ``setup``
    (the snapshot of one set-up).  Layers a workload does not reach read 0.
    """
    setup = setup or Tracer().snapshot()
    busy, self_ns, calls, counters = (
        timed["busy_ns"], timed["self_ns"], timed["calls"], timed["counters"]
    )
    ops = max(ops, 1)

    def ms(*names: str) -> float:
        return sum(busy.get(n, 0) for n in names) / 1e6 / ops

    def per_op(value: float) -> float:
        return value / ops

    gets = calls.get("engine.cache_get", 0)
    items = counters.get("qbd.batched_items", 0)
    metrics = {
        name: ms(*(f"experiments.{fig}" for fig in figures))
        for name, figures in FIGURE_GROUPS.items()
    }
    metrics.update({
        "experiments.render_ms": ms("experiments.render"),
        "experiments.execute_figure_ms": ms("experiments.execute_figure"),
        "workloads.generate_trace_ms": ms("workloads.generate_trace"),
        "workloads.trace_samples": per_op(counters.get("workloads.trace_samples", 0)),
        "processes.autocorrelation_ms": ms("processes.autocorrelation"),
        "processes.fit_mmpp2_ms": ms("processes.fit_mmpp2"),
        "processes.fit_mmpp2_calls": per_op(calls.get("processes.fit_mmpp2", 0)),
        "import.repro_experiments_ms": setup["busy_ns"].get(
            "import.repro_experiments", 0) / 1e6,
        "engine.distinct_point_ratio": _ratio(
            counters.get("engine.fingerprints.distinct", 0),
            counters.get("engine.fingerprints", 0)),
        "engine.overhead_ms": self_ns.get("engine.run_chains", 0) / 1e6 / ops,
        "engine.cache_get_ms": ms("engine.cache_get"),
        "engine.cache_gets_per_job": per_op(gets),
        "engine.cache_hit_ratio": _ratio(counters.get("engine.cache_hits", 0), gets),
        "engine.cache_put_ms": setup["busy_ns"].get("engine.cache_put", 0) / 1e6,
        "core.model_ms": ms("core.model"),
        "core.build_qbd_ms": ms("core.build_qbd"),
        "core.build_qbd_calls": per_op(calls.get("core.build_qbd", 0)),
        "core.compute_metrics_ms": ms("core.compute_metrics"),
        "core.solve_models_batched_ms": ms("core.solve_models_batched"),
        "qbd.drift_ms": ms("qbd.drift"),
        "qbd.r_matrix_ms": ms("qbd.r_matrix"),
        "qbd.r_matrix_iterations": per_op(counters.get("qbd.r_matrix_iterations", 0)),
        "qbd.r_matrix_fallbacks": per_op(counters.get("qbd.r_matrix_fallbacks", 0)),
        "qbd.solve_boundary_ms": ms("qbd.solve_boundary"),
        "qbd.batch_groups": per_op(counters.get("qbd.batch_groups", 0)),
        "qbd.batched_in_kernel_ratio": _ratio(
            items - counters.get("qbd.batched_fallback_items", 0), items),
        "jobs.submit_ms": ms("jobs.submit"),
        "jobs.claim_ms": ms("jobs.claim"),
        "jobs.result_ms": ms("jobs.result"),
        "jobs.store_update_ms": ms("jobs.store_update"),
        "jobs.store_updates_per_job": per_op(calls.get("jobs.store_update", 0)),
        "jobs.queue_overhead_ms": ms("job") - ms("experiments.execute_figure")
        if calls.get("job") else 0.0,
        "trace.overhead_pct": overhead_pct,
    })
    return metrics
