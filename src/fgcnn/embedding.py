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


def _validate_indices(batch: Batch, table: EmbeddingTable) -> None:
    idx = batch.indices
    if idx.shape[1] != len(table.cardinalities):
        raise DataError(
            f"batch has {idx.shape[1]} fields but table expects {len(table.cardinalities)}")
    # every slot, padded or real, holds an index in [0, cardinality): the
    # gather reads padded slots of multivalent fields too (padded slots hold 0)
    card = np.asarray(table.cardinalities)[None, :, None]
    if idx.min(initial=0) >= 0 and not (idx >= card).any():
        return
    b, f, v = np.argwhere((idx < 0) | (idx >= card))[0]
    raise DataError(
        f"feature index {int(idx[b, f, v])} out of range for field "
        f"{table.field_names[f]!r} (cardinality {table.cardinalities[f]})")


def assemble_embedding_matrix(batch: Batch, table: EmbeddingTable) -> np.ndarray:
    """Per-field embeddings [b, n_f, k]; multivalent fields sum their values'
    embeddings, masked positions contribute nothing.

    Slot 0 of every field is gathered straight into the output and empty
    cells are set to +0.0; only fields with a real second slot somewhere in
    the batch take the masked gather-and-sum over every slot. The bits are
    those of that sum over every field: a padded slot adds a signed zero
    to a sum that starts from +0.0, which read a -0.0 weight as +0.0."""
    _validate_indices(batch, table)
    real = batch.value_mask.astype(bool, copy=False)
    out = table.weights[batch.indices[:, :, 0] + table.offsets]    # [b, n_f, k]
    empty = ~real[:, :, 0]
    if empty.any():
        out[empty] = 0.0
    multi = real[:, :, 1:2].any(axis=(0, 2))                        # [n_f]
    if multi.any():
        rows = table.weights[batch.indices[:, multi] + table.offsets[multi, None]]
        mask = real[:, multi].astype(table.weights.dtype)
        out[:, multi] = (rows * mask[..., None]).sum(axis=2)
    return out


def backward_embedding(grad_output: np.ndarray, batch: Batch,
                       table: EmbeddingTable, out: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of assemble: accumulate each output-row gradient into the rows
    that were looked up; untouched rows stay zero. out, when given, is a
    zeroed C-contiguous writeable array shaped like the table that receives
    (and is) the result.

    Only real slots are scattered, in the order of the raveled slots: a
    padded slot would add a signed zero, which leaves any accumulator that
    started at +0.0 with the same bits. The scatter is one 1-D np.add.at
    over the element indices row * k + col of the raveled result (numpy's
    fast path; the 2-D form walks row by row), and every element receives
    the same additions in the same order as a row-wise scatter."""
    b, n_f, max_vals = batch.indices.shape
    k = table.k
    if grad_output.shape != (b, n_f, k):
        raise ValueError(
            f"grad_output shape {grad_output.shape} does not match batch "
            f"({b}, {n_f}, {k})")
    if out is None:
        out = np.zeros_like(table.weights, dtype=grad_output.dtype)
    elif out.shape != table.weights.shape or not (out.flags.c_contiguous
                                                  and out.flags.writeable):
        # reshape(-1) of such an array is a copy, and the scatter would be lost
        raise ValueError(f"out must be a C-contiguous writeable array of shape "
                         f"{table.weights.shape}, got {out.shape}")
    global_idx = batch.indices + table.offsets[None, :, None]
    real = batch.value_mask.astype(bool, copy=False)
    if max_vals == 1 and real.all():
        rows, values = global_idx.reshape(-1), grad_output.reshape(-1, k)
    else:
        slot_rows, slot_fields, _ = np.nonzero(real)
        rows, values = global_idx[real], grad_output[slot_rows, slot_fields]
    flat = (rows[:, None] * k + np.arange(k)).reshape(-1)
    np.add.at(out.reshape(-1), flat, values.reshape(-1))
    return out
