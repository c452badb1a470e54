"""TARDIS core: iSAX-T signatures, sigTrees, global/local indices, queries.

The paper's primary contribution.  Typical entry points::

    from repro.core import TardisConfig, build_tardis_index
    from repro.core import exact_match, knn_multi_partitions_access

    index = build_tardis_index(dataset.z_normalized())
    answer = knn_multi_partitions_access(index, query, k=10)
"""

from .batch import BatchReport, batch_exact_match, batch_knn_target_node
from .cache import PartitionCache
from .certify import certified_prefix
from .builder import (
    IngestReport,
    TardisIndex,
    build_tardis_index,
    convert_records,
)
from .exact_search import ExactSearchResult, knn_exact, range_query
from .explain import explain
from .config import TardisConfig
from .global_index import (
    LayerStatistics,
    TardisGlobalIndex,
    collect_layer_statistics,
)
from .ground_truth import GroundTruthError, brute_force_knn, pruned_ground_truth
from .isaxt import (
    batch_signatures,
    child_signatures,
    decode_signature,
    drop_chars,
    encode_symbols,
    reduce_signature,
    signature_bits,
    signature_of_paa,
    signature_of_series,
)
from .local_index import LocalPartition, build_local_partition
from .partitioning import assign_partitions, first_fit_decreasing
from .queries import (
    KNN_STRATEGIES,
    ExactMatchResult,
    KnnResult,
    Neighbor,
    exact_match,
    knn_multi_partitions_access,
    knn_one_partition_access,
    knn_target_node_access,
    query_signature,
)
from .persistence import load_index, save_index
from .rebalance import (
    OnlineRebalancer,
    RebalanceCycle,
    RebalancePlan,
    RebalanceReport,
    StaleRebalancePlan,
    apply_rebalance,
    plan_rebalance,
    rebalance_index,
)
from .sigtree import SigTree, SigTreeNode
from .wal import (
    WalReplayReport,
    WriteAheadLog,
    read_wal,
    replay_wal,
)
from .unclustered import knn_signature_only_baseline, knn_signature_only_tardis

__all__ = [
    "TardisConfig",
    "TardisIndex",
    "build_tardis_index",
    "convert_records",
    "TardisGlobalIndex",
    "LayerStatistics",
    "collect_layer_statistics",
    "LocalPartition",
    "build_local_partition",
    "SigTree",
    "SigTreeNode",
    "first_fit_decreasing",
    "assign_partitions",
    "encode_symbols",
    "decode_signature",
    "batch_signatures",
    "signature_of_paa",
    "signature_of_series",
    "signature_bits",
    "reduce_signature",
    "drop_chars",
    "child_signatures",
    "exact_match",
    "knn_target_node_access",
    "knn_one_partition_access",
    "knn_multi_partitions_access",
    "query_signature",
    "KNN_STRATEGIES",
    "Neighbor",
    "KnnResult",
    "ExactMatchResult",
    "brute_force_knn",
    "pruned_ground_truth",
    "GroundTruthError",
    "knn_signature_only_tardis",
    "knn_signature_only_baseline",
    "knn_exact",
    "range_query",
    "ExactSearchResult",
    "batch_exact_match",
    "batch_knn_target_node",
    "BatchReport",
    "save_index",
    "load_index",
    "explain",
    "PartitionCache",
    "rebalance_index",
    "plan_rebalance",
    "apply_rebalance",
    "RebalanceReport",
    "RebalancePlan",
    "RebalanceCycle",
    "OnlineRebalancer",
    "StaleRebalancePlan",
    "IngestReport",
    "WriteAheadLog",
    "WalReplayReport",
    "replay_wal",
    "read_wal",
    "certified_prefix",
]
