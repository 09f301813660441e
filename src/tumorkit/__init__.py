"""Brain MRI tumor detection: preprocessing, a from-scratch CNN, and
the training/evaluation pipeline around them.

The public surface is re-exported here; submodules stay importable for
the full API (``tumorkit.nn``, ``tumorkit.metrics``, ...).
"""

from .augment import AugmentConfig, AugmentParams, augment_image, sample_params
from .checkpoint import (
    apply_weights,
    dump_weights,
    load_checkpoint,
    load_model,
    parse_weights,
    save_checkpoint,
)
from .dataset import (
    DatasetManifest,
    ManifestEntry,
    SplitConfig,
    read_manifest,
    scan_dataset,
    stratified_split,
    write_manifest,
)
from .errors import TumorkitError
from .metrics import (
    CLASSES,
    NO,
    YES,
    ConfusionMatrix,
    MetricsReport,
    ScoredSample,
    auc,
    average_precision,
    basic_metrics,
    cohens_kappa,
    confusion,
    evaluate_scores,
    normalized_confusion,
    pr_curve,
    roc_curve,
)
from .model import (
    Model,
    apply_freeze_policy,
    build_vgg16,
    build_vgg_tiny,
    init_weights,
)
from .pgm import GrayImage8, image_to_tensor, read_pgm, write_pgm
from .preprocess import crop_and_resize, preprocess_image
from .rng import Rng, mix_seed
from .train import (
    TrainConfig,
    TrainResult,
    predict_single,
    run_evaluation,
    run_training,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig",
    "AugmentParams",
    "CLASSES",
    "ConfusionMatrix",
    "DatasetManifest",
    "GrayImage8",
    "ManifestEntry",
    "MetricsReport",
    "Model",
    "NO",
    "Rng",
    "ScoredSample",
    "SplitConfig",
    "TrainConfig",
    "TrainResult",
    "TumorkitError",
    "YES",
    "apply_freeze_policy",
    "apply_weights",
    "auc",
    "augment_image",
    "average_precision",
    "basic_metrics",
    "build_vgg16",
    "build_vgg_tiny",
    "cohens_kappa",
    "confusion",
    "crop_and_resize",
    "dump_weights",
    "evaluate_scores",
    "image_to_tensor",
    "init_weights",
    "load_checkpoint",
    "load_model",
    "mix_seed",
    "normalized_confusion",
    "parse_weights",
    "pr_curve",
    "predict_single",
    "preprocess_image",
    "read_manifest",
    "read_pgm",
    "roc_curve",
    "run_evaluation",
    "run_training",
    "sample_params",
    "save_checkpoint",
    "scan_dataset",
    "stratified_split",
    "write_manifest",
    "write_pgm",
]
