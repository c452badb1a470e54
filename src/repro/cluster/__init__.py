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
]
