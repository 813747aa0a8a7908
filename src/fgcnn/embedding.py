"""Embedding tables and batched field-embedding assembly.

One flat table holds a row per one-hot feature; a field's global row is its
local index plus the field offset. A model keeps two same-shaped tables
(emb.gen and emb.clf): one feeds feature generation, the other the
classifier's raw-feature path, so the two gradient streams never mix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Batch, DataError


@dataclass
class EmbeddingTable:
    weights: np.ndarray           # [t_f, k]
    offsets: np.ndarray           # [n_f]
    field_names: tuple[str, ...]
    cardinalities: tuple[int, ...]

    @property
    def k(self) -> int:
        return self.weights.shape[1]

    @property
    def t_f(self) -> int:
        return self.weights.shape[0]


def _validate_indices(batch: Batch, table: EmbeddingTable) -> None:
    idx = batch.indices
    mask = batch.value_mask
    if idx.shape[1] != len(table.cardinalities):
        raise DataError(
            f"batch has {idx.shape[1]} fields but table expects {len(table.cardinalities)}")
    card = np.asarray(table.cardinalities)[None, :, None]
    bad = (mask > 0) & ((idx < 0) | (idx >= card))
    if np.any(bad):
        b, f, v = np.argwhere(bad)[0]
        raise DataError(
            f"feature index {int(idx[b, f, v])} out of range for field "
            f"{table.field_names[f]!r} (cardinality {table.cardinalities[f]})")


def assemble_embedding_matrix(batch: Batch, table: EmbeddingTable) -> np.ndarray:
    """Per-field embeddings [b, n_f, k]; multivalent fields sum their values'
    embeddings, masked positions contribute nothing."""
    _validate_indices(batch, table)
    global_idx = batch.indices + table.offsets[None, :, None]
    rows = table.weights[global_idx]                       # [b, n_f, v, k]
    mask = batch.value_mask.astype(table.weights.dtype)
    return (rows * mask[..., None]).sum(axis=2)


def backward_embedding(grad_output: np.ndarray, batch: Batch,
                       table: EmbeddingTable, out: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of assemble: accumulate each output-row gradient into the rows
    that were looked up; untouched rows stay zero. out, when given, is a
    zeroed array shaped like the table that receives (and is) the result."""
    b, n_f, max_vals = batch.indices.shape
    if grad_output.shape != (b, n_f, table.k):
        raise ValueError(
            f"grad_output shape {grad_output.shape} does not match batch "
            f"({b}, {n_f}, {table.k})")
    global_idx = batch.indices + table.offsets[None, :, None]
    mask = batch.value_mask.astype(grad_output.dtype)
    contrib = grad_output[:, :, None, :] * mask[..., None]  # [b, n_f, v, k]
    grad = np.zeros_like(table.weights, dtype=grad_output.dtype) if out is None else out
    np.add.at(grad, global_idx.ravel(), contrib.reshape(-1, table.k))
    return grad
