"""Online causal structure learning from non-stationary data streams."""

from .agents import Agent, fuse_actions, partition_action_space, update_baseline
from .engine import OnlineConfig, OnlineEngine, graph_similarity
from .errors import (
    ConfigError,
    CyclicGraphError,
    DataRangeError,
    DimensionMismatchError,
    GenerationError,
    InsufficientDataError,
    InvalidActionError,
    SchemaError,
    StreamDagError,
)
from .graphs import (
    action_dim,
    action_to_dag,
    complement,
    dag_decompose,
    is_acyclic,
    random_dag,
    topological_order,
)
from .io import EpisodeRecord, StreamBatch, read_results, read_stream, read_truth, write_results, write_stream, write_truth
from .metrics import RankingReport, StructureReport, ranking_metrics, structure_metrics, summarize_run
from .rca import RwrConfig, anomaly_zscores, fault_window_scores, rank_root_causes
from .scoring import BatchScorer, bic_score, reward
from .synth import GroundTruth, SynthConfig, generate, sem_sample

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "BatchScorer",
    "ConfigError",
    "CyclicGraphError",
    "DataRangeError",
    "DimensionMismatchError",
    "EpisodeRecord",
    "GenerationError",
    "GroundTruth",
    "InsufficientDataError",
    "InvalidActionError",
    "OnlineConfig",
    "OnlineEngine",
    "RankingReport",
    "RwrConfig",
    "SchemaError",
    "StreamBatch",
    "StreamDagError",
    "StructureReport",
    "SynthConfig",
    "action_dim",
    "action_to_dag",
    "anomaly_zscores",
    "bic_score",
    "complement",
    "dag_decompose",
    "fault_window_scores",
    "fuse_actions",
    "generate",
    "graph_similarity",
    "is_acyclic",
    "partition_action_space",
    "random_dag",
    "rank_root_causes",
    "ranking_metrics",
    "read_results",
    "read_stream",
    "read_truth",
    "reward",
    "sem_sample",
    "structure_metrics",
    "summarize_run",
    "topological_order",
    "update_baseline",
    "write_results",
    "write_stream",
    "write_truth",
]
