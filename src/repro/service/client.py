"""The Python client for a running ``repro-serve`` instance.

:class:`ServiceClient` wraps the HTTP API in typed helpers (submit /
status / result / cancel / wait) and re-raises the service's error
taxonomy — a 429 rejection surfaces as
:class:`~repro.errors.JobQueueFullError` here exactly as it does
in-process, so callers can write one backoff path for both transports.
Pure standard library (``urllib``).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from repro.errors import (
    JobQueueFullError,
    JobStateError,
    ServiceError,
    UnknownJobError,
)
from repro.service.jobs import TERMINAL_STATES

__all__ = ["ServiceClient"]

#: Pause after a long-poll the server answered in under half its wait.
EARLY_ANSWER_PAUSE_S = 0.2

#: HTTP status -> the error class the client raises for it.
_STATUS_ERRORS = {
    404: UnknownJobError,
    409: JobStateError,
    429: JobQueueFullError,
}


class ServiceClient:
    """Talk to a ``repro-serve`` endpoint.

    Parameters
    ----------
    base_url:
        E.g. ``http://127.0.0.1:8790`` (no trailing slash needed).
    timeout_s:
        Per-request socket timeout.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # -- transport ----------------------------------------------------------

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        """One JSON round-trip; service errors re-raise by taxonomy."""
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                doc = json.loads(exc.read().decode("utf-8"))
                message = doc.get("error", str(exc))
            except (ValueError, OSError):
                message = str(exc)
            cls = _STATUS_ERRORS.get(exc.code, ServiceError)
            raise cls(f"{message} (HTTP {exc.code})") from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {exc.reason}"
            ) from exc

    # -- API ----------------------------------------------------------------

    def health(self) -> dict:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        """``GET /stats``."""
        return self._request("GET", "/stats")

    def submit(self, spec: dict, dataset: dict | None = None) -> dict:
        """Submit one job; returns the job view with submit flags.

        ``spec`` is a plain run-spec dict
        (:meth:`~repro.config.spec.RunSpec.to_dict` form or any valid
        subset); ``dataset`` optionally overrides the service's dataset
        description.  Raises :class:`~repro.errors.JobQueueFullError`
        when the service's queue is full — back off and retry.
        """
        body: dict = {"spec": spec}
        if dataset is not None:
            body["dataset"] = dataset
        return self._request("POST", "/jobs", body)

    def status(self, job_id: str) -> dict:
        """``GET /jobs/<id>``."""
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """The completed job's telemetry manifest (``GET .../result``)."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        """``POST /jobs/<id>/cancel`` (idempotent)."""
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def shutdown(self) -> dict:
        """``POST /shutdown`` — stop the remote server."""
        return self._request("POST", "/shutdown")

    def wait(self, job_id: str, timeout_s: float = 300.0) -> dict:
        """Block until the job reaches a terminal state; returns its view.

        Each request long-polls ``GET /jobs/<id>?wait=<s>``, for at most
        half the socket timeout so the server answers first.  A server
        that answers a long-poll early (one without long-poll support
        ignores ``wait``) gets a :data:`EARLY_ANSWER_PAUSE_S` pause
        before the next request, so the loop never spins.  Raises
        :class:`~repro.errors.ServiceError` on timeout.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            sent = time.monotonic()
            wait_s = min(max(deadline - sent, 0.0), self.timeout_s / 2)
            view = self._request("GET", f"/jobs/{job_id}?wait={wait_s:.3f}")
            if view["state"] in TERMINAL_STATES:
                return view
            now = time.monotonic()
            if now >= deadline:
                raise ServiceError(
                    f"job {job_id} still {view['state']} after {timeout_s}s"
                )
            if now - sent < wait_s / 2:
                time.sleep(min(EARLY_ANSWER_PAUSE_S, deadline - now))
