"""A deterministic bounded retry schedule.

:class:`BackoffPolicy` describes a whole retry budget as one value: how
many attempts, and the capped exponential delay between them. The
router's failover path (:mod:`repro.router`) retries an idempotent
request on the next replica along this schedule.
"""

from __future__ import annotations


class BackoffPolicy:
    """Deterministic bounded exponential backoff schedule.

    One policy value describes a whole retry budget — ``attempts`` tries
    with delays ``base * factor**k`` capped at ``cap`` between them —
    so callers (the router's failover path, tests, tools) can share and
    inspect the schedule instead of hard-coding sleeps. Deterministic
    (no jitter) because the fleet here is a handful of local replicas,
    and reproducible schedules make the chaos gates assertable.
    """

    def __init__(
        self,
        *,
        attempts: int = 3,
        base_delay_s: float = 0.05,
        factor: float = 2.0,
        cap_s: float = 1.0,
    ):
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if base_delay_s < 0 or cap_s < 0 or factor < 1.0:
            raise ValueError(
                "base_delay_s/cap_s must be >= 0 and factor >= 1"
            )
        self.attempts = int(attempts)
        self.base_delay_s = float(base_delay_s)
        self.factor = float(factor)
        self.cap_s = float(cap_s)

    def delay_s(self, attempt: int) -> float:
        """Delay *after* 0-indexed ``attempt`` (before the next try)."""
        return min(self.base_delay_s * self.factor**attempt, self.cap_s)

    def delays(self) -> list[float]:
        """The inter-attempt delays for a full budget (length
        ``attempts - 1`` — there is no wait after the final try)."""
        return [self.delay_s(k) for k in range(self.attempts - 1)]

    def total_delay_s(self) -> float:
        return sum(self.delays())
