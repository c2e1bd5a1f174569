"""Knowledge-graph completion with reference-aggregating embedding models
and distance-aware negative sampling."""

__version__ = "0.1.0"

from .config import ConfigError, TrainConfig, build_config, parse_config_file
from .data import (FilterIndex, KnowledgeGraph, Vocabulary, augment_reciprocal,
                   load_dataset, rmp_classify)
from .distances import DistanceIndex, compute_distances, hash_file
from .evaluation import EvalReport, evaluate, write_report
from .models import (ModelKind, ParameterStore, grad_fg, init_parameters,
                     load_checkpoint, save_checkpoint, score_fg, score_fg_all)
from .reference import (ReferenceTable, context_vector, score_f, score_fc,
                        select_references)
from .sampling import PreSampler, SamplerConfig, post_weights, selfadv_weights
from .synth import compositional_graph, kg_from_id_triples, random_graph
from .training import AdamState, loss_l1, loss_l2, train, train_step

__all__ = [
    "AdamState", "ConfigError", "DistanceIndex", "EvalReport",
    "FilterIndex", "KnowledgeGraph", "ModelKind",
    "ParameterStore", "PreSampler", "ReferenceTable", "SamplerConfig",
    "TrainConfig", "Vocabulary", "augment_reciprocal",
    "build_config", "compositional_graph", "compute_distances",
    "context_vector", "evaluate", "grad_fg",
    "hash_file", "init_parameters", "kg_from_id_triples", "load_checkpoint",
    "load_dataset", "loss_l1", "loss_l2", "parse_config_file",
    "post_weights", "random_graph", "rmp_classify",
    "save_checkpoint", "score_f", "score_fc", "score_fg", "score_fg_all",
    "select_references", "selfadv_weights", "train", "train_step",
    "write_report",
]
