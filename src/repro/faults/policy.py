"""Retry/backoff policy for the storage client's failover loop.

A :class:`RetryPolicy` is a pure value attached to a
:class:`~repro.blobseer.service.BlobSeerDeployment`. The BlobSeer client
fails over across replicas (and metadata homes) with or without one; the
policy only sets the numbers: a per-RPC deadline, how many rounds a read or
a PUT gets, and the bounded exponential backoff between them. With ``None``
(the default) there is no deadline and no backoff, a read tries each replica
once and a write each replica once.

This module has no imports from the rest of :mod:`repro` so it can be used
from both the simkit layer and the storage layer without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

#: multiplier applied to the delay after each failed attempt
BACKOFF = 2.0
#: ceiling on the inter-attempt delay (seconds, simulated)
MAX_DELAY = 4.0


@dataclass(frozen=True)
class RetryPolicy:
    """How a client survives provider failures instead of hanging."""

    #: total tries per logical operation (first attempt included)
    attempts: int = 4
    #: delay before the second attempt (seconds, simulated)
    base_delay: float = 0.25
    #: per-RPC watchdog: an unanswered call is abandoned after this long
    rpc_timeout: float = 2.0

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if not 0 <= self.base_delay <= MAX_DELAY:
            raise ValueError(
                f"need 0 <= base_delay <= {MAX_DELAY}, got {self.base_delay}"
            )
        if self.rpc_timeout <= 0:
            raise ValueError(f"rpc_timeout must be positive, got {self.rpc_timeout}")

    def delay_for(self, attempt: int) -> float:
        """Backoff delay after failed attempt number ``attempt`` (0-based)."""
        return min(self.base_delay * BACKOFF**attempt, MAX_DELAY)
