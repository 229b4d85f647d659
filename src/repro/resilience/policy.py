"""The :class:`RunPolicy` dataclass: how supervised execution recovers.

A policy is plain declarative data (plus an injectable sleep for
tests), picklable whenever ``sleep`` is left at its default — which is
what lets a :class:`~repro.spice.plans.MonteCarlo` plan carry one
across a process boundary.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Type

from ..errors import RETRYABLE_ERRORS, ReproError

#: The legal on-failure actions.
ON_FAILURE = ("raise", "skip", "record")


@dataclass(frozen=True)
class RunPolicy:
    """Retry/timeout/failure policy for supervised execution.

    * ``max_retries`` — extra attempts after the first (so an item runs
      at most ``max_retries + 1`` times).  Only errors matching
      ``retryable`` are retried; terminal errors fail on attempt 1.
    * ``backoff_s`` / ``backoff_factor`` — exponential backoff: the
      sleep before retry *k* (1-based) is
      ``backoff_s * backoff_factor ** (k - 1)``.  ``backoff_s=0``
      (the default) retries immediately.
    * ``timeout_s`` — per-item deadline.  In pool execution the
      supervisor waits at most this long for the item's result once it
      begins waiting on it, and the pool's workers are killed when the
      map returns, so a stuck item never outlives it; in serial
      execution the item runs on a watchdog thread with the same
      deadline.  ``None`` disables it.
    * ``on_failure`` — what a terminally failed item does to the batch:
      ``"raise"`` re-raises the original exception (legacy
      ``parallel_map`` semantics), ``"record"`` keeps a failed
      :class:`~repro.resilience.Outcome` in the results, ``"skip"``
      records it with status ``"skipped"`` so result assemblers drop
      the item silently.
    * ``retryable`` — exception types worth re-attempting; defaults to
      :data:`repro.errors.RETRYABLE_ERRORS` (transient convergence
      failures, worker crashes, timeouts).
    * ``max_pool_rebuilds`` — how many times a broken process pool is
      rebuilt for the *unfinished* items before the supervisor gives up
      on fan-out and finishes them serially (counted in
      ``STATS.serial_fallbacks``).
    * ``sleep`` — injectable sleep (default ``time.sleep``), compared
      and hashed as identity-excluded so two policies differing only in
      their sleep hook are equal.  Backoff sleeps always run in the
      submitting process, so a recording sleep sees every retry of a
      fanned run too.
    """

    max_retries: int = 0
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    timeout_s: Optional[float] = None
    on_failure: str = "record"
    retryable: Tuple[Type[BaseException], ...] = RETRYABLE_ERRORS
    max_pool_rebuilds: int = 1
    sleep: Optional[Callable[[float], None]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if self.max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0 or not math.isfinite(self.backoff_s):
            raise ReproError(f"backoff_s must be finite and >= 0, got {self.backoff_s}")
        if self.backoff_factor <= 0 or not math.isfinite(self.backoff_factor):
            raise ReproError(
                f"backoff_factor must be finite and > 0, got {self.backoff_factor}"
            )
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ReproError(f"timeout_s must be > 0 or None, got {self.timeout_s}")
        if self.on_failure not in ON_FAILURE:
            raise ReproError(
                f"on_failure must be one of {ON_FAILURE}, got {self.on_failure!r}"
            )
        if self.max_pool_rebuilds < 0:
            raise ReproError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )
        retryable = tuple(self.retryable)
        for kind in retryable:
            if not (isinstance(kind, type) and issubclass(kind, BaseException)):
                raise ReproError(f"retryable entry {kind!r} is not an exception type")
        object.__setattr__(self, "retryable", retryable)

    # -- derived knobs -------------------------------------------------
    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def backoff_for(self, retry_number: int) -> float:
        """Sleep before the ``retry_number``-th retry (1-based)."""
        return self.backoff_s * self.backoff_factor ** (retry_number - 1)

    def is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retryable)

    def do_sleep(self, seconds: float) -> None:
        if seconds > 0:
            (self.sleep or time.sleep)(seconds)

    def describe(self) -> dict:
        """JSON-ready summary (used by plan/result ``to_dict``)."""
        return {
            "max_retries": self.max_retries,
            "backoff_s": self.backoff_s,
            "backoff_factor": self.backoff_factor,
            "timeout_s": self.timeout_s,
            "on_failure": self.on_failure,
            "retryable": [kind.__name__ for kind in self.retryable],
            "max_pool_rebuilds": self.max_pool_rebuilds,
        }


__all__ = ["ON_FAILURE", "RunPolicy"]
