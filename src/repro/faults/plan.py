"""Fault plans: the declarative, seeded description of what to break.

A :class:`FaultPlan` is a seed, a retry policy, and an ordered list of
:class:`FaultRule` scope selectors.  Plans are plain JSON
(``repro.faults/v1``) so chaos experiments are versionable artifacts::

    {
      "schema": "repro.faults/v1",
      "seed": 42,
      "retry": {"max_attempts": 4, "backoff_ms": 1.0,
                "multiplier": 2.0, "jitter": 0.5, "max_backoff_ms": 100.0},
      "rules": [
        {"kind": "task-crash", "stage": "local/*", "probability": 0.05},
        {"kind": "partition-load-error", "partition_id": 3,
         "attempt": 1},
        {"kind": "task-slow", "stage": "serve/*", "delay_ms": 5.0,
         "probability": 0.1},
        {"kind": "socket-drop", "probability": 0.02}
      ]
    }

Rules match *sites* — one (stage label, partition/block id, attempt)
coordinate per injection opportunity — and fire deterministically: the
probability draw for a site is a hash of ``(plan seed, rule index,
site key)``, never a shared RNG stream, so outcomes are independent of
task order and thread interleaving (the byte-identical-journal property
tests/faults/test_injector.py asserts).  See docs/ROBUSTNESS.md for the
full schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path

__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_SCHEMA",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "load_fault_plan",
]

FAULT_PLAN_SCHEMA = "repro.faults/v1"

#: Failure kinds the injector understands and the sites they apply to:
#:
#: * ``task-crash``     — engine stage tasks, serving batch groups,
#:   router→shard calls (``stage: "shard/*"`` / ``shard_id`` scopes)
#: * ``task-slow``      — stage tasks, partition loads, serving groups,
#:   router→shard calls
#: * ``partition-load-error`` — partition loads
#: * ``storage-read-error``   — storage block reads
#: * ``socket-drop``    — serving replies (connection cut mid-response)
FAULT_KINDS = (
    "task-crash",
    "task-slow",
    "partition-load-error",
    "storage-read-error",
    "socket-drop",
)

_RULE_FIELDS = {
    "kind", "stage", "partition_id", "block_id", "shard_id", "attempt",
    "probability", "delay_ms",
}
_RETRY_FIELDS = {
    "max_attempts", "backoff_ms", "multiplier", "jitter", "max_backoff_ms",
}
_PLAN_FIELDS = {"schema", "seed", "retry", "rules"}


def _as_id_set(value, name: str) -> frozenset | None:
    """Normalize an id selector (int or list of ints) to a frozenset."""
    if value is None:
        return None
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer or list of integers")
    if isinstance(value, int):
        return frozenset((value,))
    try:
        ids = frozenset(int(v) for v in value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer or list of integers")
    if not ids:
        raise ValueError(f"{name} selector cannot be empty")
    return ids


@dataclass(frozen=True)
class FaultRule:
    """One scoped failure: *what* to inject and *where* it applies.

    Scope selectors are conjunctive; ``None`` means "any".  ``stage`` is
    an ``fnmatch`` pattern over the site label (engine stage labels,
    ``query/load``, ``storage/read``, ``serve/<op>``).  ``attempt``
    restricts which attempt numbers fire — ``attempt: 1`` models a
    transient fault that retries recover from, while no selector plus
    ``probability: 1.0`` models a permanent loss.
    """

    kind: str
    stage: str | None = None
    partition_id: frozenset | None = None
    block_id: frozenset | None = None
    #: Restricts the rule to router→shard call sites targeting these
    #: shard ids (``stage: "shard/*"`` scopes by op instead).
    shard_id: frozenset | None = None
    attempt: frozenset | None = None
    probability: float = 1.0
    delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.delay_ms < 0:
            raise ValueError("delay_ms cannot be negative")
        if self.kind == "task-slow" and self.delay_ms == 0:
            raise ValueError("task-slow rules need a positive delay_ms")

    def matches(
        self,
        label: str | None = None,
        partition_id: int | None = None,
        block_id: int | None = None,
        attempt: int | None = None,
        shard_id: int | None = None,
    ) -> bool:
        """Does this rule's scope cover the given site coordinates?"""
        if self.stage is not None:
            if label is None or not fnmatchcase(label, self.stage):
                return False
        if self.partition_id is not None and partition_id not in self.partition_id:
            return False
        if self.block_id is not None and block_id not in self.block_id:
            return False
        if self.shard_id is not None and shard_id not in self.shard_id:
            return False
        if self.attempt is not None and attempt not in self.attempt:
            return False
        return True

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultRule":
        if not isinstance(doc, dict):
            raise ValueError("each fault rule must be a JSON object")
        unknown = set(doc) - _RULE_FIELDS
        if unknown:
            raise ValueError(f"unknown fault-rule fields: {sorted(unknown)}")
        if "kind" not in doc:
            raise ValueError("fault rule missing 'kind'")
        return cls(
            kind=doc["kind"],
            stage=doc.get("stage"),
            partition_id=_as_id_set(doc.get("partition_id"), "partition_id"),
            block_id=_as_id_set(doc.get("block_id"), "block_id"),
            shard_id=_as_id_set(doc.get("shard_id"), "shard_id"),
            attempt=_as_id_set(doc.get("attempt"), "attempt"),
            probability=float(doc.get("probability", 1.0)),
            delay_ms=float(doc.get("delay_ms", 0.0)),
        )

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.stage is not None:
            doc["stage"] = self.stage
        for name in ("partition_id", "block_id", "shard_id", "attempt"):
            ids = getattr(self, name)
            if ids is not None:
                doc[name] = sorted(ids)
        if self.probability != 1.0:
            doc["probability"] = self.probability
        if self.delay_ms:
            doc["delay_ms"] = self.delay_ms
        return doc


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``backoff_s(attempt, draw)`` is the pause after failed ``attempt``:
    ``backoff_ms * multiplier**(attempt-1)`` capped at
    ``max_backoff_ms``, inflated by up to ``jitter`` (the ``draw`` in
    [0, 1) comes from the injector's site hash, so the jitter itself is
    reproducible).
    """

    max_attempts: int = 4
    backoff_ms: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.5
    max_backoff_ms: float = 100.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_ms < 0 or self.max_backoff_ms < 0:
            raise ValueError("backoff times cannot be negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def backoff_s(self, attempt: int, draw: float = 0.0) -> float:
        base = min(
            self.backoff_ms * self.multiplier ** max(0, attempt - 1),
            self.max_backoff_ms,
        )
        return base * (1.0 + self.jitter * draw) / 1000.0

    @classmethod
    def from_dict(cls, doc: dict) -> "RetryPolicy":
        if not isinstance(doc, dict):
            raise ValueError("'retry' must be a JSON object")
        unknown = set(doc) - _RETRY_FIELDS
        if unknown:
            raise ValueError(f"unknown retry fields: {sorted(unknown)}")
        return cls(
            max_attempts=int(doc.get("max_attempts", 4)),
            backoff_ms=float(doc.get("backoff_ms", 1.0)),
            multiplier=float(doc.get("multiplier", 2.0)),
            jitter=float(doc.get("jitter", 0.5)),
            max_backoff_ms=float(doc.get("max_backoff_ms", 100.0)),
        )

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff_ms": self.backoff_ms,
            "multiplier": self.multiplier,
            "jitter": self.jitter,
            "max_backoff_ms": self.max_backoff_ms,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded chaos experiment: rules + recovery budget."""

    seed: int = 0
    rules: tuple = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise ValueError("fault plan must be a JSON object")
        schema = doc.get("schema", FAULT_PLAN_SCHEMA)
        if schema != FAULT_PLAN_SCHEMA:
            raise ValueError(
                f"unsupported fault-plan schema {schema!r} "
                f"(expected {FAULT_PLAN_SCHEMA!r})"
            )
        unknown = set(doc) - _PLAN_FIELDS
        if unknown:
            raise ValueError(f"unknown fault-plan fields: {sorted(unknown)}")
        rules = doc.get("rules", [])
        if not isinstance(rules, list):
            raise ValueError("'rules' must be a list")
        return cls(
            seed=int(doc.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(rule) for rule in rules),
            retry=RetryPolicy.from_dict(doc.get("retry", {})),
        )

    def to_dict(self) -> dict:
        return {
            "schema": FAULT_PLAN_SCHEMA,
            "seed": self.seed,
            "retry": self.retry.to_dict(),
            "rules": [rule.to_dict() for rule in self.rules],
        }


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Read and validate a ``repro.faults/v1`` plan from a JSON file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read fault plan {path}: {exc}")
    return FaultPlan.from_dict(doc)
