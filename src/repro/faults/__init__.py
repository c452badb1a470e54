"""Deterministic fault injection + recovery (retries, deadlines,
graceful degradation).

Public surface:

* :mod:`repro.faults.plan` — ``FaultPlan`` / ``FaultRule`` /
  ``RetryPolicy`` and the ``repro.faults/v1`` JSON schema.
* :mod:`repro.faults.injector` — the order-independent
  ``FaultInjector`` plus process-wide ``install_plan`` /
  ``get_injector`` / ``clear_injector`` / ``active_plan``.
* :mod:`repro.faults.errors` — the typed failure contract
  (``InjectedTaskCrash`` … ``PartialResultError``).

See docs/ROBUSTNESS.md for the fault model and recovery semantics.
"""

from .errors import (
    InjectedFaultError,
    InjectedTaskCrash,
    PartialResultError,
    PartitionUnavailableError,
    StorageReadError,
)
from .injector import (
    FaultInjector,
    active_plan,
    clear_injector,
    get_injector,
    install_plan,
)
from .plan import (
    FAULT_KINDS,
    FAULT_PLAN_SCHEMA,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    load_fault_plan,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_SCHEMA",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFaultError",
    "InjectedTaskCrash",
    "PartialResultError",
    "PartitionUnavailableError",
    "RetryPolicy",
    "StorageReadError",
    "active_plan",
    "clear_injector",
    "get_injector",
    "install_plan",
    "load_fault_plan",
]
