"""The JSON-over-HTTP front-end for :class:`~repro.service.TractographyService`.

Pure standard library (``http.server``) — no framework dependency — and
deliberately small: every route delegates to the thread-safe service
facade and serializes its dict views.

Routes (all JSON)::

    GET  /healthz            liveness: {"ok": true, "uptime_s": ...}
    GET  /stats              queue depth, slots, job-state counts, store stats
    POST /jobs               submit {"spec": {...}, "dataset": {...}?}
                             -> 200 job view (cache_hit/coalesced flags),
                                400 invalid spec, 429 queue full (with
                                Retry-After)
    GET  /jobs/<id>          job status view (404 unknown)
    GET  /jobs/<id>?wait=<s> long-poll: the view once the job is terminal
                             or after min(s, 30) s (400 malformed s)
    GET  /jobs/<id>/result   the completed job's telemetry manifest
                             (409 while not done)
    POST /jobs/<id>/cancel   cancel (idempotent)
    POST /shutdown           stop accepting and shut the server down

Error mapping is the :class:`~repro.errors.ServiceError` taxonomy's
``http_status`` attribute; every error body is
``{"error": str, "type": str}``.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import ReproError, ServiceError
from repro.service.service import TractographyService

__all__ = ["ServiceHTTPServer", "serve_http"]

#: Seconds clients are told to back off after a 429 rejection.
RETRY_AFTER_S = 1

#: Longest a ``GET /jobs/<id>?wait=`` long-poll holds its handler thread.
MAX_WAIT_S = 30.0


class _Handler(BaseHTTPRequestHandler):
    """Route HTTP requests onto the service facade."""

    #: Injected by :func:`serve_http` via the server instance.
    server: "ServiceHTTPServer"

    def log_message(self, fmt: str, *args) -> None:
        """Stdlib logging hook: quiet unless the server is verbose."""
        if self.server.verbose:
            super().log_message(fmt, *args)

    # -- plumbing -----------------------------------------------------------

    def _send(self, status: int, doc: dict, headers: dict | None = None) -> None:
        """One JSON response."""
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, exc: Exception) -> None:
        """Map a library error onto its HTTP status."""
        status = exc.http_status if isinstance(exc, ServiceError) else 400
        headers = (
            {"Retry-After": str(RETRY_AFTER_S)} if status == 429 else None
        )
        self._send(
            status,
            {"error": str(exc), "type": type(exc).__name__},
            headers=headers,
        )

    def _read_body(self) -> dict:
        """The request body as a JSON dict (empty body -> {})."""
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def _wait_s(self) -> float:
        """The ``?wait=<seconds>`` long-poll budget (absent -> 0)."""
        raw = parse_qs(urlsplit(self.path).query).get("wait", ["0"])[-1]
        try:
            wait_s = float(raw)
        except ValueError:
            wait_s = math.nan
        if not 0 <= wait_s < math.inf:
            raise ValueError(f"wait must be a non-negative number, got {raw!r}")
        return min(wait_s, MAX_WAIT_S)

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """Dispatch GET routes."""
        svc = self.server.service
        parts = [p for p in self.path.split("?", 1)[0].split("/") if p]
        try:
            if parts == ["healthz"]:
                self._send(200, {"ok": True, "uptime_s": svc.stats()["uptime_s"]})
            elif parts == ["stats"]:
                self._send(200, svc.stats())
            elif len(parts) == 2 and parts[0] == "jobs":
                self._send(200, svc.wait(parts[1], timeout=self._wait_s()))
            elif len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "result":
                self._send(200, svc.result(parts[1]))
            else:
                self._send(404, {"error": f"no route {self.path}", "type": "route"})
        except (ReproError, ValueError) as exc:
            self._send_error(exc)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """Dispatch POST routes."""
        svc = self.server.service
        parts = [p for p in self.path.split("?", 1)[0].split("/") if p]
        try:
            if parts == ["jobs"]:
                self._send(200, svc.submit(self._read_body()))
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                self._send(200, svc.cancel(parts[1]))
            elif parts == ["shutdown"]:
                self._send(200, {"ok": True, "shutting_down": True})
                threading.Thread(target=self.server.shutdown, daemon=True).start()
            else:
                self._send(404, {"error": f"no route {self.path}", "type": "route"})
        except (ReproError, ValueError, json.JSONDecodeError) as exc:
            self._send_error(exc)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one service instance."""

    daemon_threads = True

    def __init__(
        self,
        service: TractographyService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.service = service
        self.verbose = verbose

    @property
    def url(self) -> str:
        """The base URL clients should talk to."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve_http(
    service: TractographyService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ServiceHTTPServer:
    """Bind a server for ``service`` (port 0 = ephemeral); not yet serving.

    The caller drives it: ``server.serve_forever()`` blocks (the
    ``repro-serve`` CLI does this), or run it from a thread in tests.
    """
    return ServiceHTTPServer(service, host=host, port=port, verbose=verbose)
