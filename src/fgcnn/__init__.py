"""CNN-based automatic feature generation for click-through-rate models.

Imported before numpy, the package pins each BLAS and OpenMP pool size the
environment leaves unset to one thread: a pool may sum in another order, so
`fgcnn train` would write other bytes on another core count."""
import os
import sys

if "numpy" not in sys.modules:
    os.environ.update({var: os.environ.get(var, "1") for var in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")})

from .classifier import ClassifierConfig, fm_layer, loss_and_grad
from .data import (Batch, DatasetSchema, FieldSchema, Split, SyntheticSpec,
                   build_vocab, generate_synthetic, make_batches, negative_sample,
                   permute_fields, planted_spec)
from .embedding import EmbeddingTable, assemble_embedding_matrix, backward_embedding
from .featuregen import FeatureGenConfig, augment, generate, generated_count
from .model import FgcnnModel, ModelConfig
from .training import (Metrics, TrainConfig, complexity_report, evaluate,
                       load_checkpoint, save_checkpoint, train)

__all__ = [
    "Batch", "ClassifierConfig", "DatasetSchema", "EmbeddingTable",
    "FeatureGenConfig", "FgcnnModel", "FieldSchema", "Metrics",
    "ModelConfig", "Split", "SyntheticSpec", "TrainConfig", "assemble_embedding_matrix",
    "augment", "backward_embedding", "build_vocab", "complexity_report", "evaluate",
    "fm_layer", "generate", "generate_synthetic", "generated_count", "load_checkpoint",
    "loss_and_grad", "make_batches", "negative_sample", "permute_fields", "planted_spec",
    "save_checkpoint", "train",
]

__version__ = "0.1.0"
