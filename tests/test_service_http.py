"""HTTP handler and queue unit tests (no sockets unless stated).

The handler logic lives on :class:`ExperimentService` methods that the
tests call directly; one end-to-end test binds a real server on an
ephemeral port and drives it through :class:`ServiceClient`.
"""

import json
import threading

import pytest

from repro.service.client import ServiceClient, ServiceError as ClientError
from repro.service.fleet import Fleet, LocalPoolBackend, SweepParams
from repro.service.http import (
    ExperimentService,
    ServiceError,
    _parse_query,
    make_server,
)
from repro.service.queue import JobQueue
from repro.service.store import ArtifactStore

#: Small enough to simulate in milliseconds, large enough to be real.
TINY = {"experiment": "fig3", "instructions": 800, "stride": 27}


@pytest.fixture
def service(tmp_path):
    """A service whose worker thread is NOT running — submissions stay
    queued, so dedup and state assertions cannot race."""
    fleet = Fleet(ArtifactStore(tmp_path), backend=LocalPoolBackend(jobs=1))
    svc = ExperimentService(fleet, start_worker=False)
    yield svc
    svc.queue.close()


# ----------------------------------------------------------------------
# submissions
# ----------------------------------------------------------------------


def test_submit_bad_json_is_400(service):
    with pytest.raises(ServiceError) as err:
        service.handle_submit(b"{not json")
    assert err.value.status == 400


def test_submit_invalid_utf8_is_400(service):
    with pytest.raises(ServiceError) as err:
        service.handle_submit(b"\xff\xfe")
    assert err.value.status == 400


def test_submit_unknown_experiment_is_400(service):
    body = json.dumps({"experiment": "fig9"}).encode()
    with pytest.raises(ServiceError) as err:
        service.handle_submit(body)
    assert err.value.status == 400
    assert "fig9" in str(err.value)


def test_submit_unknown_field_is_400(service):
    body = json.dumps({"experiment": "fig1", "shards": 4}).encode()
    with pytest.raises(ServiceError) as err:
        service.handle_submit(body)
    assert err.value.status == 400
    assert "shards" in str(err.value)


def test_submit_invalid_param_types_are_400(service):
    for overlay in (
        {"instructions": -1},
        {"instructions": "many"},
        {"stride": 0},
        {"limit": 0},
        {"engine": "quantum"},
    ):
        payload = dict(TINY)
        payload.update(overlay)
        with pytest.raises(ServiceError) as err:
            service.handle_submit(json.dumps(payload).encode())
        assert err.value.status == 400


@pytest.mark.parametrize("field", ["instructions", "stride", "limit"])
@pytest.mark.parametrize("flag", [True, False])
def test_submit_boolean_counts_are_400(service, field, flag):
    # bool subclasses int: without the check, `true` would run a
    # one-instruction (or stride-1, limit-1) sweep.
    payload = dict(TINY, **{field: flag})
    with pytest.raises(ServiceError) as err:
        service.handle_submit(json.dumps(payload).encode())
    assert err.value.status == 400
    assert field in str(err.value)
    assert service.queue.describe()["queued"] == 0


def test_submit_enqueues_and_dedups_in_flight(service):
    first = service.handle_submit(json.dumps(TINY).encode())
    assert first["state"] == "queued"
    assert first["created"] is True
    # Identical params while the job is still queued: same job, no new
    # queue entry.
    second = service.handle_submit(json.dumps(TINY).encode())
    assert second["job"] == first["job"]
    assert second["created"] is False
    # Different params: a distinct job.
    other = dict(TINY, stride=28)
    third = service.handle_submit(json.dumps(other).encode())
    assert third["job"] != first["job"]
    assert third["created"] is True
    assert service.queue.describe()["queued"] == 2


def test_unknown_job_is_404(service):
    with pytest.raises(ServiceError) as err:
        service.handle_job("job-999")
    assert err.value.status == 404


# ----------------------------------------------------------------------
# renders
# ----------------------------------------------------------------------


def test_unknown_figure_is_404(service):
    with pytest.raises(ServiceError) as err:
        service.handle_render("figures", "fig9", {})
    assert err.value.status == 404


def test_table_name_on_figure_route_is_404(service):
    with pytest.raises(ServiceError) as err:
        service.handle_render("figures", "tab1", {})
    assert err.value.status == 404


def test_render_bad_params_are_400(service):
    with pytest.raises(ServiceError) as err:
        service.handle_render("figures", "fig3", {"stride": -1})
    assert err.value.status == 400


def test_render_cold_then_warm(service):
    cold = service.handle_render(
        "figures", "fig3", {"instructions": 800, "stride": 27}
    )
    assert cold.simulations > 0
    warm = service.handle_render(
        "figures", "fig3", {"instructions": 800, "stride": 27}
    )
    assert warm.simulations == 0
    assert warm.warm_artifact is True
    assert warm.text == cold.text


def test_unknown_artifact_is_404(service):
    with pytest.raises(ServiceError) as err:
        service.handle_artifact("f" * 64)
    assert err.value.status == 404


def test_parse_query_coerces_ints_and_rejects_junk():
    assert _parse_query("instructions=800&stride=27&engine=vector") == {
        "instructions": 800,
        "stride": 27,
        "engine": "vector",
    }
    with pytest.raises(ServiceError) as err:
        _parse_query("instructions=lots")
    assert err.value.status == 400


# ----------------------------------------------------------------------
# queue mechanics
# ----------------------------------------------------------------------


def test_queue_take_runs_and_settles():
    queue = JobQueue()
    job, created = queue.submit("sweep", "fp-1", None)
    assert created
    taken = queue.take(timeout=1.0)
    assert taken is job
    assert taken.state == "running"
    # A running job still dedups new submissions onto itself.
    again, created = queue.submit("sweep", "fp-1", None)
    assert again is job and not created
    queue.finish(job, {"simulations": 0})
    assert queue.wait(job.id, timeout=1.0).state == "done"
    # Settled jobs no longer absorb submissions.
    fresh, created = queue.submit("sweep", "fp-1", None)
    assert created and fresh.id != job.id


def test_queue_failed_job_reports_error():
    queue = JobQueue()
    job, _ = queue.submit("sweep", "fp-2", None)
    queue.take(timeout=1.0)
    queue.fail(job, "boom")
    settled = queue.wait(job.id, timeout=1.0)
    assert settled.state == "failed"
    assert settled.to_dict()["error"] == "boom"


def test_queue_close_unblocks_take():
    queue = JobQueue()
    queue.close()
    assert queue.take(timeout=5.0) is None  # returns immediately


# ----------------------------------------------------------------------
# end to end over a real socket
# ----------------------------------------------------------------------


def test_server_round_trip(tmp_path):
    fleet = Fleet(ArtifactStore(tmp_path), backend=LocalPoolBackend(jobs=1))
    server = make_server("127.0.0.1", 0, fleet)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        submitted = client.submit_sweep(dict(TINY))
        done = client.wait(submitted["job"], timeout=120.0)
        assert done["result"]["simulations"] > 0
        text, simulations = client.figure(
            "fig3", instructions=800, stride=27
        )
        assert simulations == 0  # the job warmed the store
        assert "fig3" in done["result"]["experiment"]
        artifact = client.artifact(done["result"]["artifact_key"])
        assert artifact["text"] == text
        status = client.status()
        assert status["jobs"]["done"] == 1
        exposition = client.metrics()
        assert "repro_http_requests_total" in exposition
        with pytest.raises(ClientError) as err:
            client.figure("fig9")
        assert err.value.status == 404
        with pytest.raises(ClientError) as err:
            client.job("job-999")
        assert err.value.status == 404
    finally:
        server.service.stop()
        server.shutdown()
        server.server_close()
