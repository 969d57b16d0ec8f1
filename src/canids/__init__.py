"""Graph-based CAN bus intrusion detection.

Two-stage framework: a variational graph autoencoder scores sliding-window
graphs of CAN traffic and picks the hardest benign examples for training,
then a graph attention network classifies windows, optionally fused with
the calibrated anomaly score. Knowledge distillation compresses both
models for constrained targets.
"""

from .canlog import (
    CanFrame,
    Label,
    parse_car_hacking_csv,
    parse_generic_labeled_csv,
    write_car_hacking_csv,
)
from .distill import KdConfig, LatentProjection, distill_pipeline, kd_classifier_loss, kd_latent_loss, soften
from .errors import CanidsError, ConfigError, DimensionError, ParseError, StateError
from .gat import GatClassifier, GatConfig, GraphBatch, gat_layer, prepare_graph, train_supervised
from .graphs import WindowGraph, build_windows, feature_stats, load_graph_cache, save_graph_cache
from .pipeline import (
    Metrics,
    PipelineOptions,
    ScoredWindow,
    calibrate_vgae,
    evaluate,
    fuse,
    roc_auc,
    run_two_stage,
    undersample,
)
from .synth import AttackKind, AttackSpec, EcuSpec, SynthConfig, generate_synthetic_log
from .tensor import Tensor, no_grad
from .vgae import CompositeWeights, LatentState, VgaeConfig, VgaeModel, train_vgae

__version__ = "0.1.0"
