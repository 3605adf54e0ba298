"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without catching
unrelated bugs::

    try:
        run_workflow(cfg)
    except ReproError as exc:
        log.error("tractography failed: %s", exc)
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "DataError",
    "ModelError",
    "SamplerError",
    "TrackingError",
    "DeviceError",
    "IOFormatError",
    "TelemetryError",
    "ServiceError",
    "JobQueueFullError",
    "UnknownJobError",
    "JobStateError",
    "ShardError",
    "ShardCrashError",
    "ShardTimeoutError",
    "ShardResultError",
    "PoolExhaustedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """A configuration value is missing, inconsistent, or out of range."""


class DataError(ReproError, ValueError):
    """Input data (DWI volume, gradient table, mask, seeds) is malformed."""


class ModelError(ReproError, ValueError):
    """A diffusion model was given invalid parameters or inconsistent shapes."""


class SamplerError(ReproError, RuntimeError):
    """The MCMC sampler reached an invalid state (e.g. non-finite posterior)."""


class TrackingError(ReproError, RuntimeError):
    """The streamline tracker reached an invalid state."""


class DeviceError(ReproError, RuntimeError):
    """The simulated GPU device was used incorrectly (bad launch, OOM, ...)."""


class IOFormatError(ReproError, ValueError):
    """A file being read or written does not conform to its format."""


class TelemetryError(ReproError, ValueError):
    """The telemetry layer was misused (bad metric, invalid manifest)."""


class ServiceError(ReproError, RuntimeError):
    """The tractography service was misused or refused a request.

    Base of the service-layer taxonomy (see :mod:`repro.service`): queue
    rejections and unknown-job lookups get concrete subclasses so the
    HTTP front-end and the client can map them onto status codes.
    """

    #: HTTP status the front-end answers with for this error class.
    http_status = 400


class JobQueueFullError(ServiceError):
    """The bounded job queue is at capacity; the submission was rejected.

    Backpressure is explicit: the caller is told to retry later (the
    HTTP front-end answers 429 with a ``Retry-After`` header) instead of
    the request queueing silently without bound.
    """

    http_status = 429


class UnknownJobError(ServiceError):
    """No job with the requested id exists in the service's job store."""

    http_status = 404


class JobStateError(ServiceError):
    """The requested operation is invalid for the job's current state.

    E.g. fetching the result of a job that has not completed, or an
    illegal lifecycle transition (a terminal job cannot start running).
    """

    http_status = 409


class ShardError(ReproError, RuntimeError):
    """One supervised shard attempt failed (base of the failure taxonomy).

    The runtime supervisor classifies every shard failure into exactly
    one concrete subclass — crash, timeout, or corrupt result — so retry
    policies, reports, and tests can dispatch on failure *kind* rather
    than on exception strings.

    Attributes
    ----------
    shard:
        Index of the failed shard task (0-based, in task order).
    attempt:
        Which execution attempt failed (0 = first try).
    """

    kind = "error"

    def __init__(self, message: str, shard: int = -1, attempt: int = 0) -> None:
        super().__init__(message)
        self.shard = shard
        self.attempt = attempt


class ShardCrashError(ShardError):
    """The worker process died or raised before delivering a result."""

    kind = "crash"


class ShardTimeoutError(ShardError):
    """The worker exceeded its per-shard deadline and was killed."""

    kind = "timeout"


class ShardResultError(ShardError):
    """The worker returned, but its payload failed its transport digest
    or the stage's validation."""

    kind = "corrupt"


class PoolExhaustedError(ShardError):
    """Every retry of a shard failed and serial fallback is disabled."""

    kind = "exhausted"

