"""Distributed-execution substrate: a simulated Spark/HDFS stand-in.

See DESIGN.md §2 for the substitution rationale.  Real computation runs
in-process; disk/network costs and stage parallelism are accounted by a
:class:`SimulationLedger` so that construction-time figures keep the
paper's shape.
"""

from .costmodel import (
    CostModel,
    SimulationLedger,
    StageStats,
    estimate_bytes,
    timed_stage,
)
from .engine import Broadcast, PartitionedData, SimCluster, TaskFailedError
from .executors import (
    EXECUTOR_KINDS,
    SerialExecutor,
    ThreadExecutor,
    get_default_executor,
    make_executor,
    resolve_executor,
    set_default_executor,
)
from .storage import Block, BlockStorage

__all__ = [
    "CostModel",
    "SimulationLedger",
    "StageStats",
    "estimate_bytes",
    "timed_stage",
    "SimCluster",
    "TaskFailedError",
    "PartitionedData",
    "Broadcast",
    "Block",
    "BlockStorage",
    "EXECUTOR_KINDS",
    "SerialExecutor",
    "ThreadExecutor",
    "make_executor",
    "resolve_executor",
    "get_default_executor",
    "set_default_executor",
]
