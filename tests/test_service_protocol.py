"""NDJSON protocol tests: the socket surface the CLI verbs stand on.

A real :class:`ServiceServer` runs on a background thread's event loop;
the synchronous :class:`ServiceClient` (what ``repro submit`` / ``watch``
use) talks to it over the Unix socket exactly as a separate process
would.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from pathlib import Path

import pytest

from repro.service import (
    CrawlService,
    ServiceClient,
    ServiceClientError,
    ServiceServer,
)
from repro.service.protocol import MAX_REQUEST_BYTES

SITES = 90
SPEC = {"sites": SITES, "seed": 2, "shards": 2, "checkpoint_every": 20}


class ServiceHarness:
    """A live service + socket server on a background event loop."""

    def __init__(self, root: Path) -> None:
        self.data_dir = root / "service"
        self.socket_path = root / "service.sock"
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "ServiceHarness":
        self._thread.start()
        assert self._ready.wait(timeout=30), "service failed to start"
        if self._failure is not None:
            raise self._failure
        return self

    def join(self, timeout: float = 120.0) -> None:
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), "service did not shut down"
        if self._failure is not None:
            raise self._failure

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced in the test
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        service = CrawlService(self.data_dir, backend="serial")
        await service.start()
        server = ServiceServer(service, self.socket_path)
        await server.start()
        self._ready.set()
        await server.serve_until_shutdown()


def _raw_request(socket_path: Path, data: bytes) -> dict:
    """Send raw request bytes, then end the stream; return the reply line.

    The server may answer an oversized line and close before it has read
    all of it, so a send cut short by the close still reads the reply.
    """
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30)
        sock.connect(str(socket_path))
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass
        with sock.makefile("r", encoding="utf-8") as stream:
            reply = stream.readline()
    assert reply, "the server closed the connection without a reply"
    return json.loads(reply)


@pytest.fixture
def harness(tmp_path) -> ServiceHarness:
    h = ServiceHarness(tmp_path).start()
    yield h
    if h._thread.is_alive():
        ServiceClient(h.socket_path).shutdown()
    h.join()


class TestRoundTrips:
    def test_full_job_lifecycle_over_the_socket(self, harness):
        client = ServiceClient(harness.socket_path)
        assert client.ping()

        job_id = client.submit(SPEC)
        assert job_id == "job-000001"

        kinds = []
        seqs = []
        for item in client.watch(job_id):
            event = item.get("event")
            if event is not None:
                kinds.append(event["kind"])
                seqs.append(event["seq"])
        assert kinds[0] == "job-submitted"
        assert kinds[-1] == "job-done"
        assert "shard-result" in kinds
        assert seqs == list(range(1, len(seqs) + 1))

        status = client.status(job_id)
        assert status["state"] == "done"
        assert status["summary"]["targets"] == SITES
        assert Path(status["archive_dir"]).is_dir()

        jobs = client.list_jobs()
        assert [job["job_id"] for job in jobs] == [job_id]

        # Reconnect from an offset: only the suffix comes back.
        tail = [
            item["event"]["seq"]
            for item in client.watch(job_id, since=seqs[2])
            if "event" in item
        ]
        assert tail == seqs[3:]

        # Reconnect after the terminal event was already delivered: the
        # stream closes immediately instead of hanging.
        assert list(client.watch(job_id, since=seqs[-1])) == []

    def test_metrics_exposition(self, harness):
        client = ServiceClient(harness.socket_path)
        job_id = client.submit(SPEC)
        for _ in client.watch(job_id):
            pass
        exposition = client.metrics()
        assert "# TYPE service_jobs_submitted_total counter" in exposition
        assert "service_jobs_done_total 1" in exposition
        assert "service_world_builds_total 1" in exposition
        # Job-level crawl metrics were absorbed into the service registry.
        assert "crawl_visits_total" in exposition

    def test_errors_come_back_as_error_lines(self, harness):
        client = ServiceClient(harness.socket_path)
        with pytest.raises(ServiceClientError, match="no such job"):
            client.status("job-999999")
        with pytest.raises(ServiceClientError, match="unknown job spec field"):
            client.submit({"sites": 50, "sides": 3})
        with pytest.raises(ServiceClientError, match="sites must be positive"):
            client.submit({"sites": -1})
        with pytest.raises(ServiceClientError, match="unknown op"):
            client._request({"op": "frobnicate"})
        with pytest.raises(ServiceClientError, match="policy"):
            list(client.watch("job-000001", policy="mystery"))

    @pytest.mark.parametrize(
        "line, error",
        [
            (b"[1]\n", "request must be a JSON object, got array"),
            (b'"x"\n', "request must be a JSON object, got string"),
            (b'{"op": "submit", "spec": [1]}\n', "job spec must be a JSON object"),
            (
                b'{"op": "submit", "spec": ["sites"]}\n',
                "job spec must be a JSON object",
            ),
            (b'{"op": "watch", "job_id": "job-000001", "since": [1]}\n', "int()"),
            (
                b'{"op": "submit", "spec": {"fault": {"kill_service": "no"}}}\n',
                "fault: field 'kill_service' has the wrong type",
            ),
            (
                b'{"op": "submit", "spec": {"sites": 50, "corrupt_allowlist": "no"}}\n',
                "corrupt_allowlist must be a boolean, got string",
            ),
            (
                b'{"op": "ping", "pad": "' + b"x" * MAX_REQUEST_BYTES + b'"}\n',
                "request too large",
            ),
            (b'{"op": "ping"', "bad JSON"),
            (b'{"op": "\xff\xfe"}\n', "bad JSON: 'utf-8' codec can't decode"),
            (b'{"op": "Ping"}\n', "unknown op: 'Ping'"),
        ],
        ids=[
            "array", "string", "array-spec", "name-list-spec", "array-since",
            "mistyped-fault", "mistyped-flag", "oversized", "eof-no-newline",
            "non-utf8", "unknown-op",
        ],
    )
    def test_malformed_requests_get_an_error_reply(self, harness, line, error):
        reply = _raw_request(harness.socket_path, line)
        assert reply["ok"] is False
        assert error in reply["error"]
        # The server is still serving.
        client = ServiceClient(harness.socket_path)
        assert client.ping()
        with pytest.raises(ServiceClientError, match="no such job"):
            client.status("job-000001")

    def test_cancel_over_the_socket(self, harness):
        client = ServiceClient(harness.socket_path)
        job_id = client.submit(
            {
                "sites": 240,
                "seed": 5,
                "shards": 2,
                "checkpoint_every": 10,
                "progress_every": 10,
            }
        )
        cancelled = False
        for item in client.watch(job_id):
            event = item.get("event")
            if event is None:
                continue
            if event["kind"] == "shard-progress" and not cancelled:
                client.cancel(job_id)
                cancelled = True
            if event["kind"] == "job-cancelled":
                break
        assert cancelled
        assert client.status(job_id)["state"] == "cancelled"

    def test_shutdown_stops_the_server(self, harness):
        client = ServiceClient(harness.socket_path)
        client.shutdown()
        harness.join()
        assert not harness.socket_path.exists()
