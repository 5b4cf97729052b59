"""Queues written while the engine had a worker pool and warm starts.

Their job records carry five engine keys that no longer exist (``jobs``,
``warm_start``, ``max_retries``, ``retry_backoff_ms``,
``chain_timeout_ms``).  Such a record must still load, be claimed by a
worker and complete -- on every durable backend.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.jobs import COMPLETED, JobService, JobWorker, open_repository

#: A pending job exactly as the pre-removal code serialized it.
LEGACY_RECORD = {
    "job_id": "a41b7766d36e",
    "spec": {
        "kind": "figure",
        "figure": "figtiny",
        "fast": False,
        "engine": {
            "jobs": 2,
            "cache_dir": None,
            "cache_memory": False,
            "warm_start": False,
            "batched": False,
            "algorithm": "logarithmic-reduction",
            "tol": 1e-12,
            "on_error": "raise",
            "escalate": False,
            "max_retries": 2,
            "retry_backoff_ms": 100.0,
            "chain_timeout_ms": None,
        },
    },
    "state": "pending",
    "created_ms": 1000.0,
    "updated_ms": 1000.0,
    "started_ms": None,
    "finished_ms": None,
    "worker_id": None,
    "epoch": 0,
    "heartbeat_ms": None,
    "points_done": 0,
    "points_total": 0,
    "retries": 0,
    "max_retries": 3,
    "attempts": [],
    "cancel_requested": False,
    "result_text": None,
    "error": None,
    "version": 0,
}


def _plant(root, backend: str) -> None:
    """Write the legacy record straight into a fresh queue's storage."""
    open_repository(root, backend=backend).close()
    payload = json.dumps(LEGACY_RECORD)
    if backend == "file":
        (root / "jobs" / f"{LEGACY_RECORD['job_id']}.json").write_text(payload)
        return
    conn = sqlite3.connect(str(root / "jobs.sqlite3"))
    try:
        with conn:
            conn.execute(
                "INSERT INTO jobs (job_id, version, state, created_ms, payload) "
                "VALUES (?, ?, ?, ?, ?)",
                (LEGACY_RECORD["job_id"], 0, "pending", 1000.0, payload),
            )
    finally:
        conn.close()


@pytest.mark.parametrize("backend", ["file", "sqlite"])
def test_legacy_job_is_claimed_and_completed(tmp_path, backend, tiny_figure):
    root = tmp_path / "queue"
    _plant(root, backend)
    repository = open_repository(root)
    try:
        service = JobService(repository)
        job = service.status(LEGACY_RECORD["job_id"])
        assert not job.spec.engine.batched
        done = JobWorker(repository, worker_id="w@unit").run_once()
        assert done is not None and done.job_id == job.job_id
        assert done.state == COMPLETED
        fresh = service.submit_figure(tiny_figure)
        JobWorker(repository, worker_id="w@unit").run_once()
        assert service.result(job.job_id) == service.result(fresh.job_id)
    finally:
        repository.close()
