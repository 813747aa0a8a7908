"""CNN-based automatic feature generation for click-through-rate models."""

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
