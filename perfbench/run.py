"""End-to-end benchmark of the repro package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 36 --trace 0

Workloads (each in fresh processes, one at a time, no worker pool):

``figures_cli``         cold ``python -m repro.experiments all``.
``sweep_grid``          seeded ``sweep_many`` grid, solved in turn by the
                        sequential engine and with ``batched=True``.
``job_queue``           closed loop of sweep-figure jobs through
                        ``JobService``/``JobWorker`` on a fresh queue.
``all``                 every workload above, then the named metrics.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics and tables of a traced run.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every run writes its full record (environment, samples, checks, layer
tables) to ``.perfbench/results/``; queues and caches live in a fresh
directory under ``.perfbench/tmp/`` that is removed afterwards.
``python3 perfbench/run.py --self-test`` runs the benchmark's own tests.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import grid
from layers import per_layer_metrics
from tracer import merge, table

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: Fresh processes per sweep/job run: set-up is measured this many times
#: (setup_s is their median) and the measuring time is split between them.
PROCESSES = 3
#: Cold ``import repro.experiments`` probes of figures_cli's set-up.
IMPORT_PROBES = 3
#: Wall-time cap of one child process; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, wrong environment)."""


class Context:
    def __init__(self, args, tmp: Path) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.tmp = tmp
        self.deadline = time.monotonic() + CHILD_TIMEOUT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def spawn(ctx: Context, cmd: list[str], stdout: Path | None = None) -> dict:
    """Run ``cmd`` to completion in the run's temp root.

    Returns its exit code, wall time, the monotonic spawn time and its
    peak resident memory (from ``wait4``, so per child).
    """
    log = ctx.tmp / f"stderr-{time.monotonic_ns()}.txt"
    with open(stdout or os.devnull, "wb") as out, open(log, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ctx.tmp, env=ctx.env, stdout=out, stderr=err)
        killer = threading.Timer(max(1.0, ctx.deadline - spawned), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "wall_s": ended - spawned,
        "spawned": spawned,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stderr": log.read_text(errors="replace")[-2000:],
    }


def run_child(ctx: Context, kind: str, *options: str) -> tuple[dict, dict]:
    """Run ``workload.py kind`` and return (process record, its JSON)."""
    out = ctx.tmp / f"{kind}-{time.monotonic_ns()}.json"
    record = spawn(
        ctx,
        [sys.executable, str(HERE / "workload.py"), kind, "--out", str(out),
         "--seed", str(ctx.seed), "--trace", str(ctx.trace), *options],
    )
    if record["exit_code"] != 0:
        raise BenchmarkError(f"workload process {kind} failed:\n{record['stderr']}")
    return record, json.loads(out.read_text())


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def figures_cli(ctx: Context) -> dict:
    """Cold ``python -m repro.experiments all`` runs, back to back."""
    reference = checks.load_reference()
    probes = [
        spawn(ctx, [sys.executable, "-c", "import repro.experiments"])
        for _ in range(IMPORT_PROBES)
    ]
    if any(p["exit_code"] for p in probes):
        raise BenchmarkError(f"cannot import repro.experiments:\n{probes[0]['stderr']}")
    runs, problems, present = [], [], 0
    started = time.monotonic()
    # Whole cold runs, as many as fit in --seconds (at least one).
    while not runs or time.monotonic() - started + runs[-1]["wall_s"] <= ctx.seconds:
        stdout = ctx.tmp / "all.txt"
        run = spawn(ctx, [sys.executable, "-m", "repro.experiments", "all"], stdout)
        count, found = checks.check_all_output(stdout.read_text(), reference)
        present += count
        problems += found + ([f"exit code {run['exit_code']}"] if run["exit_code"] else [])
        runs.append(run)
        if ctx.trace:
            break
    result = {
        "samples": {"setup_s": [p["wall_s"] for p in probes],
                    "run_s": [r["wall_s"] for r in runs]},
        "attempted": len(reference) * len(runs),
        "failed": len(reference) * len(runs) - present,
        "problems": problems,
        "metrics": {
            "setup_s": statistics.median(p["wall_s"] for p in probes),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
            "ops_per_s": len(reference) / statistics.median(r["wall_s"] for r in runs),
            "op_ms_p50": statistics.median(r["wall_s"] for r in runs) * 1e3,
            "op_ms_p90": checks.percentile([r["wall_s"] for r in runs], 0.9) * 1e3,
        },
    }
    if ctx.trace:
        traced_stdout = ctx.tmp / "all-traced.txt"
        record, traced = run_child(ctx, "figures", "--stdout", str(traced_stdout))
        count, found = checks.check_all_output(traced_stdout.read_text(), reference)
        problems += found
        snapshot = traced["snapshot"]
        result["layers"] = layer_report(
            snapshot, 1, snapshot,
            overhead_pct=overhead([runs[0]["wall_s"]], [record["wall_s"]]),
            wall_ns=traced["wall_ns"],
        )
        result["observations"] = figures_observations(result["layers"])
    return result


def figures_observations(report: dict) -> list[str]:
    """Which layer dominates the cold run (expected: trace sampling)."""
    children = {
        row["layer"]: row["busy_ms"]
        for row in report["table"]
        if not row["layer"].startswith(("experiments.", "figures_cli"))
    }
    largest = max(children, key=children.get)
    return [f"largest layer under the figure functions: {largest} "
            f"({children[largest]:.0f} ms)"]


def sweep_grid(ctx: Context) -> dict:
    """Pairs of passes over the seeded grid, one per engine, in PROCESSES
    fresh processes; the last one also runs the truncated-chain oracle."""
    records, outputs = run_processes(
        ctx, "sweep",
        lambda out: sum(p["wall_s"] for p in out["passes"] + out["traced_passes"]),
        lambda index: ["--check", str(int(index == PROCESSES - 1))],
    )
    passes = [p for out in outputs for p in out["passes"]]
    call_ms = [ms for p in passes for ms in p["call_ms"]]
    result = {
        "samples": {"pass_s": [p["wall_s"] for p in passes], "call_ms": call_ms},
        "attempted": sum(p["points"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [msg for out in outputs for msg in out["problems"]],
        "environment": outputs[0]["environment"],
        "engines": {
            name: engine_summary([p for p in passes if p["batched"] == batched])
            for name, batched in (("sequential", False), ("batched", True))
        },
        "metrics": {
            **process_metrics(records, outputs),
            "ops_per_s": sum(p["points"] for p in passes)
            / sum(p["wall_s"] for p in passes),
            "op_ms_p50": statistics.median(call_ms),
            "op_ms_p90": checks.percentile(call_ms, 0.9),
        },
    }
    if ctx.trace:
        traced = [p for out in outputs for p in out["traced_passes"]]
        snapshot = merge([out["snapshot"] for out in outputs])
        result["build_qbd_calls"] = {
            engine: sum(out["build_qbd_calls"][engine] for out in outputs)
            for engine in ("sequential", "batched")
        }
        result["layers"] = layer_report(
            snapshot, len(traced) // 2, None,
            overhead_pct=overhead(
                [p["wall_s"] for p in passes], [p["wall_s"] for p in traced]
            ),
            wall_ns=sum(p["wall_s"] for p in traced) * 1e9,
        )
    return result


def engine_summary(passes: list[dict]) -> dict:
    """Throughput and call latency of one engine's passes."""
    call_ms = [ms for p in passes for ms in p["call_ms"]]
    return {
        "points_per_s": sum(p["points"] for p in passes)
        / sum(p["wall_s"] for p in passes),
        "call_ms_p50": statistics.median(call_ms),
        "call_ms_p90": checks.percentile(call_ms, 0.9),
    }


def job_queue(ctx: Context) -> dict:
    """Closed-loop jobs in PROCESSES fresh processes, each on its own
    queue whose cache its set-up pre-fills."""
    def queue(index: int) -> list[str]:
        tmp = ctx.tmp / f"queue-{index}"
        tmp.mkdir()
        return ["--tmp", str(tmp)]

    records, outputs = run_processes(
        ctx, "jobs", lambda out: sum(out["round_s"] + out["traced_round_s"]), queue
    )
    jobs = [job for out in outputs for job in out["jobs"]]
    job_ms = [job["ms"] for job in jobs]
    round_s = [wall for out in outputs for wall in out["round_s"]]
    result = {
        "samples": {"job_ms": job_ms, "round_s": round_s},
        "attempted": len(jobs),
        "failed": sum(job["failed"] for job in jobs),
        "problems": [msg for out in outputs for msg in out["problems"]],
        "environment": outputs[0]["environment"],
        "metrics": {
            **process_metrics(records, outputs),
            "ops_per_s": len(jobs) / sum(round_s),
            "op_ms_p50": statistics.median(job_ms),
            "op_ms_p90": checks.percentile(job_ms, 0.9),
        },
    }
    if ctx.trace:
        traced = [job for out in outputs for job in out["traced_jobs"]]
        snapshot = merge([out["snapshot"] for out in outputs])
        result["layers"] = layer_report(
            snapshot, len(traced), outputs[0]["setup_snapshot"],
            overhead_pct=overhead(
                round_s, [w for out in outputs for w in out["traced_round_s"]]
            ),
            wall_ns=sum(j["ms"] for j in traced) * 1e6,
        )
    return result


def run_processes(ctx: Context, kind: str, measured, options) -> tuple[list, list]:
    """Run PROCESSES fresh ``kind`` processes one after another.

    Each measures an equal share of what is left of ``--seconds``, so the
    run measures close to ``--seconds`` in total however whole operations
    divide it.  ``measured(out)`` is the time a process reports it
    measured; ``options(index)`` are its extra arguments.
    """
    records, outputs, spent = [], [], 0.0
    for index in range(PROCESSES):
        budget = (ctx.seconds - spent) / (PROCESSES - index)
        record, out = run_child(
            ctx, kind, "--budget", str(budget), "--process-index", str(index),
            *options(index),
        )
        spent += measured(out)
        records.append(record)
        outputs.append(out)
    return records, outputs


def process_metrics(records: list[dict], outputs: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(
            out["first_op"] - rec["spawned"] for rec, out in zip(records, outputs)
        ),
        "peak_rss_mb": statistics.median(rec["rss_mb"] for rec in records),
    }


def overhead(untraced_s: list[float], traced_s: list[float]) -> float:
    """Tracing overhead in percent: mean traced over mean untraced
    operation."""
    return (statistics.fmean(traced_s) / statistics.fmean(untraced_s) - 1) * 100


def layer_report(snapshot, ops, setup, overhead_pct, wall_ns) -> dict:
    return {
        "metrics": per_layer_metrics(snapshot, ops, setup, overhead_pct),
        "table": table(snapshot, wall_ns),
        "ops": ops,
        "overhead_pct": overhead_pct,
    }


WORKLOADS = {
    "figures_cli": figures_cli,
    "sweep_grid": sweep_grid,
    "job_queue": job_queue,
}

#: End-to-end metrics as users know them: (workload, where the result
#: holds the value, name, unit, scale).
NAMED = (
    ("figures_cli", ("metrics", "setup_s"), "figures_cli.setup_s", "s", 1.0),
    ("figures_cli", ("metrics", "peak_rss_mb"), "figures_cli.peak_rss_mb", "MB", 1.0),
    ("figures_cli", ("metrics", "op_ms_p50"), "figures_s", "s", 1e-3),
    ("sweep_grid", ("metrics", "setup_s"), "sweep_grid.setup_s", "s", 1.0),
    ("sweep_grid", ("metrics", "peak_rss_mb"), "sweep_grid.peak_rss_mb", "MB", 1.0),
    ("sweep_grid", ("engines", "sequential", "points_per_s"),
     "sweep_points_per_s", "1/s", 1.0),
    ("sweep_grid", ("engines", "sequential", "call_ms_p50"),
     "sweep_call_ms_p50", "ms", 1.0),
    ("sweep_grid", ("engines", "sequential", "call_ms_p90"),
     "sweep_call_ms_p90", "ms", 1.0),
    ("sweep_grid", ("engines", "batched", "points_per_s"),
     "sweep_batched_points_per_s", "1/s", 1.0),
    ("job_queue", ("metrics", "setup_s"), "job_queue.setup_s", "s", 1.0),
    ("job_queue", ("metrics", "peak_rss_mb"), "job_queue.peak_rss_mb", "MB", 1.0),
    ("job_queue", ("metrics", "ops_per_s"), "jobs_per_s", "1/s", 1.0),
    ("job_queue", ("metrics", "op_ms_p50"), "job_ms_p50", "ms", 1.0),
    ("job_queue", ("metrics", "op_ms_p90"), "job_ms_p90", "ms", 1.0),
)


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ----------------------------------------------------------------------
# Environment and report
# ----------------------------------------------------------------------
def refuse_environment() -> None:
    """Measure only the default product, and only from a checkout."""
    if os.environ.get("REPRO_FAULTS"):
        raise BenchmarkError("REPRO_FAULTS is set: fault injection is not the product")
    if os.environ.get("REPRO_CONTRACTS", "").strip().lower() == "off":
        raise BenchmarkError("REPRO_CONTRACTS=off: the product runs with contracts on")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {SRC / 'repro'} is missing")


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(ctx: Context, result: dict) -> dict:
    numeric = result.get("environment") or run_child(ctx, "env")[1]
    return {**numeric, "commit": commit(), "source_sha256": source_digest(),
            "processes_per_run": PROCESSES}


def print_report(name: str, result: dict, trace: int) -> None:
    print(f"== {name}: {result['attempted']} attempted, {result['failed']} failed, "
          f"checks {'passed' if not result['problems'] else 'FAILED'}")
    for problem in result["problems"][:20]:
        print(f"   ! {problem}")
    if trace:
        report = result["layers"]
        print(f"   per-layer breakdown over {report['ops']} traced operations "
              f"(tracing overhead {report['overhead_pct']:+.1f}%)")
        print(f"   {'layer':<30}{'calls':>9}{'busy ms':>12}{'self ms':>12}{'share':>8}")
        for row in report["table"]:
            print(f"   {row['layer']:<30}{row['calls']:>9}{row['busy_ms']:>12.1f}"
                  f"{row['self_ms']:>12.1f}{row['share']:>8.1%}")
        for line in result.get("observations", []):
            print(f"   {line}")
        return
    units = declared_units(0)
    for metric, value in result["metrics"].items():
        print(f"   {metric:<14}{value:>14.4f} {units[metric]}")
    for engine, summary in result.get("engines", {}).items():
        print(f"   ({engine} engine: {summary['points_per_s']:.1f} points/s, "
              f"call p50 {summary['call_ms_p50']:.1f} ms, "
              f"p90 {summary['call_ms_p90']:.1f} ms)")


def run_workload(name: str, ctx: Context) -> dict:
    result = WORKLOADS[name](ctx)
    result["environment"] = environment(ctx, result)
    result["workload"] = name
    result["seed"], result["seconds"], result["trace"] = ctx.seed, ctx.seconds, ctx.trace
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{name}-seed{ctx.seed}-trace{ctx.trace}-{stamp}.json").write_text(
        json.dumps(result, indent=1)
    )
    print_report(name, result, ctx.trace)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return subprocess.call([sys.executable, str(HERE / "selftest.py")])
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all" and args.trace:
        parser.error("--workload all prints the end-to-end metrics; use --trace 0")
    # Let an interrupted run remove its temp root and stop its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        refuse_environment()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)  # cold processes, warm bytecode
    tmp = STATE / "tmp" / f"{os.getpid()}-{time.time_ns()}"
    tmp.mkdir(parents=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, Context(args, tmp)) for name in names}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        os.sync()  # leave no write-back of this run to slow the next one
    correct = all(not r["problems"] for r in results.values())
    if args.workload == "all":
        metrics = named_metrics(results)
    else:
        result = results[args.workload]
        values = result["layers"]["metrics"] if args.trace else result["metrics"]
        units = declared_units(args.trace)
        if set(values) != set(units):
            print(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                  "disagree with BENCHMARK.json", file=sys.stderr)
            return 1
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def named_metrics(results: dict) -> dict:
    """The end-to-end metrics under the names users know them by."""
    named = {}
    for workload, path, name, unit, scale in NAMED:
        value = results[workload]
        for key in path:
            value = value[key]
        value *= scale
        named[name] = {"value": value, "unit": unit}
        print(f"{name:<36}{value:>14.4f} {unit}")
    return named


if __name__ == "__main__":
    sys.exit(main())
