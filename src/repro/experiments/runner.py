"""Command-line entry point: regenerate paper figures from the terminal."""

from __future__ import annotations

import argparse
import inspect
import sys
from collections.abc import Sequence

from repro.engine.config import EngineConfig
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.manifest import RunManifest
from repro.experiments.render import render_result

__all__ = ["build_config", "execute_figure", "main"]


def build_config(args) -> EngineConfig | None:
    """The run's :class:`EngineConfig`, or ``None`` for plain solving.

    ``None`` (every knob at its default, no cache requested) keeps the
    figure functions on their historical no-engine path, which the
    byte-comparison record in EXPERIMENTS.md was made against.
    """
    if (
        args.cache is None
        and not args.batched
        and args.on_error == "raise"
        and not args.escalate
    ):
        return None
    return EngineConfig(
        cache_dir=args.cache if args.cache else None,
        cache_memory=args.cache == "",
        batched=args.batched,
        on_error=args.on_error,
        escalate=args.escalate,
    )


def execute_figure(name, engine=None, fast: bool = False) -> str:
    """Run one figure and return its rendered ASCII form.

    The single execution path shared by the blocking CLI below and the
    background-job worker (:mod:`repro.jobs.worker`): both must render a
    figure identically, so both go through this function.  ``engine`` is
    passed to the figure only when its signature accepts one (the
    trace-based figures solve no chains).
    """
    func = ALL_FIGURES[name]
    kwargs = {}
    if engine is not None and "engine" in inspect.signature(func).parameters:
        kwargs["engine"] = engine
    if name == "fig1" and fast:
        kwargs["samples"] = 20_000
    return render_result(func(**kwargs))


def main(argv: Sequence[str] | None = None) -> int:
    """Run ``python -m repro.experiments <figure...|all>``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=(
            "Regenerate the tables and figures of 'Evaluating the "
            "Performability of Systems with Background Jobs' (DSN 2006)."
        ),
    )
    parser.add_argument(
        "figures",
        nargs="+",
        metavar="FIGURE",
        help=f"figure ids ({', '.join(ALL_FIGURES)}) or 'all'",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use a smaller sample size for the trace-based Figure 1",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="cache solves in memory across figures; with DIR, also "
        "persist them on disk across runs (and record per-figure "
        "completion in DIR/run-manifest.json for --resume)",
    )
    parser.add_argument(
        "--batched",
        action="store_true",
        help="solve each sweep's cache misses through the stacked "
        "matrix-geometric kernel, grouped by chain shape (results agree "
        "with sequential solves to solver tolerance)",
    )
    parser.add_argument(
        "--on-error",
        choices=("raise", "skip", "collect"),
        default="raise",
        help="per-point failure policy: 'raise' (default) stops at the "
        "first solve failure; 'skip'/'collect' render failed points as "
        "NaN and keep going (see repro.engine.resilience)",
    )
    parser.add_argument(
        "--escalate",
        action="store_true",
        help="enable the truncated dense-chain rung of the solver "
        "escalation ladder for points every R iteration fails on",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="report a failing figure and continue with the remaining "
        "ones; the exit code still reflects the failure",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay figures already completed by a previous (possibly "
        "killed) run from DIR/run-manifest.json and recompute only the "
        "rest; requires --cache DIR",
    )
    parser.add_argument(
        "--via-jobs",
        metavar="DIR",
        default=None,
        help="route each figure through the durable background-job queue "
        "at DIR (see repro.jobs): figures are submitted as jobs, solved "
        "by an in-process worker, and printed from the job results; "
        "jobs already COMPLETED in DIR for the same spec are replayed "
        "without re-solving (the job-queue form of --resume)",
    )
    args = parser.parse_args(argv)
    if args.resume and args.cache in (None, ""):
        parser.error("--resume needs an on-disk cache: pass --cache DIR")
    if args.via_jobs is not None and args.resume:
        parser.error("--via-jobs replays completed jobs itself; drop --resume")

    requested = list(ALL_FIGURES) if "all" in args.figures else args.figures
    unknown = [f for f in requested if f not in ALL_FIGURES]
    if unknown:
        parser.error(
            f"unknown figure(s) {', '.join(unknown)}; "
            f"choose from {', '.join(ALL_FIGURES)} or 'all'"
        )

    config = build_config(args)
    if args.via_jobs is not None:
        return _main_via_jobs(args.via_jobs, requested, config, args.fast)

    # With an on-disk cache the run keeps a crash-safe manifest next to
    # it, whether or not this invocation resumes -- the *next* one might.
    manifest = None
    if args.cache not in (None, ""):
        manifest = RunManifest.in_cache_dir(
            args.cache, config={"fast": bool(args.fast)}
        )

    engine = None if config is None else config.build_engine()
    exit_code = 0
    for name in requested:
        if args.resume and manifest is not None:
            stored = manifest.completed(name)
            if stored is not None:
                print(stored)
                print()
                continue
        try:
            rendered = execute_figure(name, engine=engine, fast=args.fast)
        except Exception as exc:
            if not args.keep_going:
                raise
            print(
                f"FIGURE {name} FAILED: {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            exit_code = 1
            continue
        print(rendered)
        print()
        if manifest is not None:
            manifest.record(name, rendered)
    return exit_code


def _main_via_jobs(root, requested, config, fast) -> int:
    """Run the requested figures through the background-job queue at ``root``.

    Import is local: :mod:`repro.jobs` builds on this module's
    :func:`execute_figure`, so a top-level import would be circular.
    """
    from repro.jobs import COMPLETED, JobService, JobWorker, open_repository

    repository = open_repository(root)
    service = JobService(repository)
    jobs = [
        service.submit_figure(name, fast=fast, config=config, reuse_completed=True)
        for name in requested
    ]
    worker = JobWorker(repository)
    while any(service.status(j.job_id).state not in (COMPLETED,) for j in jobs):
        executed = worker.run_once()
        if executed is None:
            break
    exit_code = 0
    for job in jobs:
        final = service.status(job.job_id)
        if final.state == COMPLETED:
            print(final.result_text)
            print()
        else:
            print(
                f"FIGURE {final.spec.figure} FAILED: {final.error}",
                file=sys.stderr,
            )
            exit_code = 1
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
