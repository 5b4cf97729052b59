"""HTTP front-end tests: every route is a thin shim over the services."""

import json
import threading
import urllib.request
from urllib.error import HTTPError

import pytest

from repro.experiments.runner import execute_figure
from repro.jobs import COMPLETED, JobWorker
from repro.jobs.http import make_server


@pytest.fixture
def server(memory_repo):
    srv = make_server(memory_repo, port=0, quiet=True)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5.0)  # noqa: RL003 -- Thread.join timeout is seconds by stdlib contract


@pytest.fixture
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def get(url: str):
    with urllib.request.urlopen(url) as response:
        body = response.read().decode()
        if response.headers.get_content_type() == "application/json":
            return response.status, json.loads(body)
        return response.status, body


def post(url: str, payload: dict | None = None):
    data = json.dumps(payload or {}).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read().decode())


class TestRoutes:
    def test_submit_status_result_round_trip(
        self, base_url, memory_repo, tiny_figure
    ):
        status, job = post(f"{base_url}/jobs", {"figure": tiny_figure})
        assert status == 201
        assert job["state"] == "pending"

        JobWorker(memory_repo).run_once()

        _, fetched = get(f"{base_url}/jobs/{job['job_id']}")
        assert fetched["state"] == COMPLETED
        _, result = get(f"{base_url}/jobs/{job['job_id']}/result")
        assert result == execute_figure(tiny_figure)

    def test_submit_with_engine_section(self, base_url, memory_repo, tiny_figure):
        _, job = post(
            f"{base_url}/jobs",
            {"figure": tiny_figure, "engine": {"cache_memory": True}},
        )
        assert memory_repo.get(job["job_id"]).spec.engine.cache_memory

    def test_engine_section_with_retired_keys_is_accepted(
        self, base_url, memory_repo, tiny_figure
    ):
        # Clients written while the engine had a worker pool still send it.
        engine = {"jobs": 2, "warm_start": False, "cache_memory": True}
        _, job = post(f"{base_url}/jobs", {"figure": tiny_figure, "engine": engine})
        assert memory_repo.get(job["job_id"]).spec.engine.cache_memory

    def test_list_with_state_filter(self, base_url, tiny_figure):
        post(f"{base_url}/jobs", {"figure": tiny_figure})
        _, pending = get(f"{base_url}/jobs?state=pending")
        assert len(pending) == 1
        _, running = get(f"{base_url}/jobs?state=running")
        assert running == []

    def test_cancel_route(self, base_url, tiny_figure):
        _, job = post(f"{base_url}/jobs", {"figure": tiny_figure})
        _, cancelled = post(f"{base_url}/jobs/{job['job_id']}/cancel")
        assert cancelled["state"] == "cancelled"

    def test_admin_stats_and_purge(self, base_url, memory_repo, tiny_figure):
        _, job = post(f"{base_url}/jobs", {"figure": tiny_figure})
        JobWorker(memory_repo).run_once()
        _, stats = get(f"{base_url}/admin/stats")
        assert stats["states"][COMPLETED] == 1
        _, purged = post(f"{base_url}/admin/purge")
        assert purged == {"purged": [job["job_id"]]}


class TestErrors:
    def test_unknown_job_is_404(self, base_url):
        with pytest.raises(HTTPError) as excinfo:
            get(f"{base_url}/jobs/nope")
        assert excinfo.value.code == 404

    def test_result_of_pending_job_is_409(self, base_url, tiny_figure):
        _, job = post(f"{base_url}/jobs", {"figure": tiny_figure})
        with pytest.raises(HTTPError) as excinfo:
            get(f"{base_url}/jobs/{job['job_id']}/result")
        assert excinfo.value.code == 409

    def test_submit_without_figure_is_400(self, base_url):
        with pytest.raises(HTTPError) as excinfo:
            post(f"{base_url}/jobs", {})
        assert excinfo.value.code == 400

    def test_bad_engine_section_is_400(self, base_url, tiny_figure):
        with pytest.raises(HTTPError) as excinfo:
            post(f"{base_url}/jobs", {"figure": tiny_figure, "engine": {"tol": 0}})
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, base_url):
        with pytest.raises(HTTPError) as excinfo:
            get(f"{base_url}/nope")
        assert excinfo.value.code == 404

    def test_bad_state_filter_is_400(self, base_url):
        with pytest.raises(HTTPError) as excinfo:
            get(f"{base_url}/jobs?state=exploded")
        assert excinfo.value.code == 400


class TestQuarantineRoutes:
    def quarantine_one(self, memory_repo):
        from repro.jobs import Job, JobSpec
        from repro.jobs.repository import now_ms

        memory_repo.submit(Job.new(JobSpec(figure="fig2"), now_ms()))
        claimed = memory_repo.claim("dead@unit", now_ms())
        return memory_repo.update(claimed.quarantined(now_ms()))

    def test_quarantine_list_route(self, base_url, memory_repo):
        _, empty = get(f"{base_url}/admin/quarantine")
        assert empty == []
        poisoned = self.quarantine_one(memory_repo)
        _, listed = get(f"{base_url}/admin/quarantine")
        assert [j["job_id"] for j in listed] == [poisoned.job_id]
        assert listed[0]["attempts"][0]["outcome"] == "worker-died"

    def test_quarantine_release_route(self, base_url, memory_repo):
        poisoned = self.quarantine_one(memory_repo)
        status, released = post(
            f"{base_url}/admin/quarantine/{poisoned.job_id}/release"
        )
        assert status == 200
        assert released["state"] == "pending"

    def test_release_of_unquarantined_job_is_409(
        self, base_url, memory_repo, tiny_figure
    ):
        status, job = post(f"{base_url}/jobs", {"figure": tiny_figure})
        with pytest.raises(HTTPError) as excinfo:
            post(f"{base_url}/admin/quarantine/{job['job_id']}/release")
        assert excinfo.value.code == 409

    def test_release_of_unknown_job_is_404(self, base_url):
        with pytest.raises(HTTPError) as excinfo:
            post(f"{base_url}/admin/quarantine/nope/release")
        assert excinfo.value.code == 404
