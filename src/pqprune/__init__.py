"""Norm-ratio sparsity measurement and sparsity-informed adaptive pruning."""

from .audit import MeasureSpec, PropertyReport, audit_measure, gini_measure, pq_measure
from .data_io import SyntheticSpec, gen_synthetic, load_idx, read_run_record, write_run_record
from .nn import (
    Dataset,
    LayerSpec,
    NetworkParams,
    TrainConfig,
    evaluate,
    flatten_prunable,
    init_network,
    linear_spec,
    mlp_spec,
    train,
)
from .pruning import (
    AlgorithmSpec,
    PruningMask,
    SapHyperParams,
    Scope,
    magnitude_prune,
    partition,
    run_pruning,
    sap_count,
)
from .records import IterationMetrics, RunRecord
from .sparsity import (
    NormPair,
    UndefinedIndexError,
    eta_r,
    gini_index,
    pq_index,
    pq_index_max,
    pqi_lower_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
