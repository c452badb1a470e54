"""Typed errors raised by the fault-injection and recovery layer.

Two families live here:

* *Injected* faults (:class:`InjectedFaultError` and subclasses) are the
  raw failures a :class:`~repro.faults.injector.FaultInjector` throws
  into the stack.  They are recoverable by construction: every retrying
  site draws its attempts through :meth:`FaultInjector.sit_out`.
* *Exhaustion* outcomes (:class:`PartitionUnavailableError`,
  :class:`PartialResultError`) are what the recovery machinery surfaces
  when retries did not help — the typed contract callers program
  against (degraded kNN results, ``partial-result`` wire errors).
"""

from __future__ import annotations

__all__ = [
    "InjectedFaultError",
    "InjectedTaskCrash",
    "StorageReadError",
    "PartitionUnavailableError",
    "PartialResultError",
]


class InjectedFaultError(RuntimeError):
    """Base class of every failure thrown by the fault injector."""


class InjectedTaskCrash(InjectedFaultError):
    """An engine or serving task was crashed by the fault plan."""

    def __init__(self, site: str, attempt: int):
        super().__init__(f"injected task crash at {site} (attempt {attempt})")
        self.site = site
        self.attempt = attempt


class StorageReadError(InjectedFaultError):
    """A storage block read kept failing (IO error / corrupt checksum)
    until the retry budget ran out."""

    def __init__(self, block_id: int, attempts: int):
        super().__init__(
            f"storage block {block_id} unreadable after {attempts} attempts"
        )
        self.block_id = block_id
        self.attempts = attempts


class PartitionUnavailableError(RuntimeError):
    """A partition could not be loaded even after the retry budget.

    Raised out of :meth:`TardisIndex.load_partition`; kNN strategies
    catch it and degrade, exact-match converts it into
    :class:`PartialResultError`.
    """

    def __init__(self, partition_id: int, attempts: int):
        super().__init__(
            f"partition {partition_id} unavailable after {attempts} "
            f"load attempts"
        )
        self.partition_id = partition_id
        self.attempts = attempts


class PartialResultError(RuntimeError):
    """An exact answer could not be produced because partitions are lost.

    Exact-match has no sound notion of a partial answer (a missing
    partition may hold the only match), so unavailability surfaces as
    this typed error carrying the missing partition ids — the wire layer
    maps it to a structured ``partial-result`` error.
    """

    def __init__(self, missing_partitions: list[int], detail: str = ""):
        missing = sorted(set(int(p) for p in missing_partitions))
        message = f"partitions {missing} unavailable; exact answer impossible"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)
        self.missing_partitions = missing
