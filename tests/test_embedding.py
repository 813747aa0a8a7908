from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgcnn import data as d
from fgcnn import embedding as emb
from fgcnn import nn
from fgcnn.checks import check_embedding_gather
from fgcnn.classifier import ClassifierConfig
from fgcnn.featuregen import FeatureGenConfig
from fgcnn.model import FgcnnModel, ModelConfig


def _schema(cards=(3, 4, 2), multivalent=()):
    fields = []
    for j, c in enumerate(cards):
        tokens = tuple(f"t{i}" for i in range(c - 1))
        fields.append(d.FieldSchema(f"f{j}", tokens, multivalent=j in multivalent))
    return d.DatasetSchema(fields=fields)


def _tables(schema, k, seed):
    """The (emb.gen, emb.clf) tables of a model FgcnnModel.build initializes."""
    config = ModelConfig(
        k=k, classifier=ClassifierConfig(kind="dnn", hidden_sizes=(1,)),
        featgen=FeatureGenConfig(kernel_heights=(1,), feature_maps=(1,), new_maps=(1,)))
    model = FgcnnModel.build(schema, config, seed)
    meta = (schema.offsets(), tuple(schema.field_names()),
            tuple(f.cardinality for f in schema.fields))
    return tuple(emb.EmbeddingTable(model.params[n], *meta) for n in ("emb.gen", "emb.clf"))


def _batch(rows, n_f, max_vals=1):
    idx = np.zeros((len(rows), n_f, max_vals), dtype=np.int64)
    mask = np.zeros((len(rows), n_f, max_vals), dtype=np.float64)
    for b, row in enumerate(rows):
        for f, vals in enumerate(row):
            idx[b, f, :len(vals)] = vals
            mask[b, f, :len(vals)] = 1.0
    return d.Batch(indices=idx, value_mask=mask, labels=np.zeros(len(rows)))


def test_univalent_lookup_returns_table_row():
    schema = _schema()
    table, _ = _tables(schema, k=5, seed=0)
    batch = _batch([[(2,), (3,), (1,)]], n_f=3)
    out = emb.assemble_embedding_matrix(batch, table)
    offsets = schema.offsets()
    assert np.array_equal(out[0, 0], table.weights[offsets[0] + 2])
    assert np.array_equal(out[0, 1], table.weights[offsets[1] + 3])
    assert np.array_equal(out[0, 2], table.weights[offsets[2] + 1])


def test_multivalent_field_sums_value_embeddings():
    schema = _schema(cards=(4,), multivalent=(0,))
    _, table = _tables(schema, k=3, seed=1)
    batch = _batch([[(1, 2)]], n_f=1, max_vals=2)
    out = emb.assemble_embedding_matrix(batch, table)
    assert np.allclose(out[0, 0], table.weights[1] + table.weights[2])


def test_zero_table_gives_zero_output():
    schema = _schema()
    table = emb.EmbeddingTable(np.zeros((schema.t_f, 4)), schema.offsets(),
                               tuple(schema.field_names()),
                               tuple(f.cardinality for f in schema.fields))
    batch = _batch([[(1,), (2,), (0,)]], n_f=3)
    assert np.all(emb.assemble_embedding_matrix(batch, table) == 0.0)


def test_out_of_range_index_names_field():
    schema = _schema(cards=(3, 4, 2))
    table, _ = _tables(schema, k=2, seed=2)
    batch = _batch([[(1,), (9,), (0,)]], n_f=3)
    with pytest.raises(d.DataError, match="f1"):
        emb.assemble_embedding_matrix(batch, table)


@pytest.mark.parametrize("bad", [-3, 4, 99])
def test_out_of_range_index_in_a_padded_slot_is_rejected(bad):
    """Padded slots are checked like real ones: the gather reads every slot
    of a field with a real second slot (f1 here), so a padded index past
    the table would fail there and a negative one would read another
    field's row."""
    schema = _schema(cards=(3, 4, 2), multivalent=(1,))
    table, _ = _tables(schema, k=2, seed=2)
    batch = _batch([[(1,), (2, 3), (0,)], [(2,), (1,), (1,)]], n_f=3, max_vals=2)
    batch.indices[1, 1, 1] = bad                   # padded: mask False
    batch.indices[0, 2, 1] = bad
    with pytest.raises(d.DataError) as err:
        emb.assemble_embedding_matrix(batch, table)
    assert str(err.value) == f"feature index {bad} out of range for field 'f2' (cardinality 2)"


def test_a_negative_padded_index_does_not_read_another_fields_row():
    """-5 in a padded slot of f1 (offset 3) would gather row -2, which numpy
    wraps to f2's row 7: a NaN there turned row 1's f1 output into NaN
    (NaN * 0). The index is rejected; with the padding's 0 the output is
    finite."""
    schema = _schema(cards=(3, 4, 2), multivalent=(1,))
    table, _ = _tables(schema, k=2, seed=2)
    table.weights[7] = np.nan
    batch = _batch([[(1,), (2, 3), (1,)], [(2,), (1,), (1,)]], n_f=3, max_vals=2)
    batch.indices[1, 1, 1] = -5                    # padded: mask False
    with pytest.raises(d.DataError) as err:
        emb.assemble_embedding_matrix(batch, table)
    assert str(err.value) == "feature index -5 out of range for field 'f1' (cardinality 4)"
    batch.indices[1, 1, 1] = 0
    assert np.isfinite(emb.assemble_embedding_matrix(batch, table)[1, 1]).all()


@pytest.mark.parametrize("bad", [-1, 4])
def test_out_of_range_index_in_a_real_slot_names_index_field_and_cardinality(bad):
    schema = _schema(cards=(3, 4, 2), multivalent=(1,))
    table, _ = _tables(schema, k=2, seed=2)
    batch = _batch([[(1,), (2, 3), (0,)], [(2,), (1, bad), (1,)]], n_f=3, max_vals=2)
    batch.indices[1, 2, 1] = 7                     # padded, after the bad slot: not reported
    with pytest.raises(d.DataError) as err:
        emb.assemble_embedding_matrix(batch, table)
    assert str(err.value) == f"feature index {bad} out of range for field 'f1' (cardinality 4)"


def test_assemble_is_linear_in_the_table():
    schema = _schema()
    rng = np.random.default_rng(3)
    t1 = rng.standard_normal((schema.t_f, 3))
    t2 = rng.standard_normal((schema.t_f, 3))
    meta = (schema.offsets(), tuple(schema.field_names()),
            tuple(f.cardinality for f in schema.fields))
    batch = _batch([[(2,), (1,), (1,)], [(0,), (3,), (0,)]], n_f=3)
    a, b = 2.0, -0.5
    mixed = emb.assemble_embedding_matrix(batch, emb.EmbeddingTable(a * t1 + b * t2, *meta))
    split = (a * emb.assemble_embedding_matrix(batch, emb.EmbeddingTable(t1, *meta))
             + b * emb.assemble_embedding_matrix(batch, emb.EmbeddingTable(t2, *meta)))
    assert np.allclose(mixed, split, atol=1e-12)


# --- backward ----------------------------------------------------------------

def test_backward_univalent_copies_gradient_rows():
    schema = _schema()
    table, _ = _tables(schema, k=4, seed=4)
    batch = _batch([[(1,), (2,), (1,)]], n_f=3)
    g = np.random.default_rng(5).standard_normal((1, 3, 4))
    grad = emb.backward_embedding(g, batch, table)
    offsets = schema.offsets()
    assert np.array_equal(grad[offsets[0] + 1], g[0, 0])
    assert np.array_equal(grad[offsets[1] + 2], g[0, 1])
    # a row never looked up stays zero
    assert np.all(grad[offsets[1] + 3] == 0.0)


def test_backward_accumulates_shared_feature():
    schema = _schema(cards=(3,))
    table, _ = _tables(schema, k=2, seed=6)
    batch = _batch([[(1,)], [(1,)]], n_f=1)
    g = np.array([[[1.0, 2.0]], [[10.0, 20.0]]])
    grad = emb.backward_embedding(g, batch, table)
    assert np.allclose(grad[1], [11.0, 22.0])


def test_backward_shape_mismatch_rejected():
    schema = _schema()
    table, _ = _tables(schema, k=2, seed=7)
    batch = _batch([[(1,), (1,), (1,)]], n_f=3)
    with pytest.raises(ValueError):
        emb.backward_embedding(np.zeros((1, 3, 5)), batch, table)


def _read_only(shape):
    out = np.zeros(shape)
    out.flags.writeable = False
    return out


@pytest.mark.parametrize("make_out", [
    lambda shape: np.zeros(shape[::-1]).T,                      # Fortran order
    lambda shape: np.zeros((shape[0], 2 * shape[1]))[:, ::2],   # strided columns
    lambda shape: np.zeros((shape[0] - 1, shape[1])),           # too few rows
    lambda shape: np.zeros(shape[0] * shape[1]),                # flat
    _read_only,
], ids=["fortran", "strided", "short", "flat", "read_only"])
def test_backward_refuses_an_out_it_cannot_scatter_into(make_out):
    """A flat view of such an array would be a copy (or would not exist), so
    the scatter would be lost or land in the wrong rows."""
    schema = _schema()
    table, _ = _tables(schema, k=2, seed=7)
    batch = _batch([[(1,), (2,), (1,)]], n_f=3)
    out = make_out(table.weights.shape)
    with pytest.raises(ValueError, match="^out must be a C-contiguous writeable array"):
        emb.backward_embedding(np.ones((1, 3, 2)), batch, table, out)
    assert not out.any()


def test_backward_matches_finite_differences():
    assert check_embedding_gather(0) < 1e-6


def test_backward_is_exact_adjoint():
    # <g, assemble(batch, dT)> == <backward(g, batch), dT> for random dT
    schema = _schema(cards=(3, 5), multivalent=(1,))
    rng = np.random.default_rng(8)
    meta = (schema.offsets(), tuple(schema.field_names()),
            tuple(f.cardinality for f in schema.fields))
    batch = _batch([[(1,), (2, 4)], [(2,), (1,)]], n_f=2, max_vals=2)
    for _ in range(5):
        dt = rng.standard_normal((schema.t_f, 3))
        g = rng.standard_normal((2, 2, 3))
        lhs = float((g * emb.assemble_embedding_matrix(
            batch, emb.EmbeddingTable(dt, *meta))).sum())
        grad = emb.backward_embedding(g, batch, emb.EmbeddingTable(np.zeros_like(dt), *meta))
        rhs = float((grad * dt).sum())
        assert abs(lhs - rhs) < 1e-10


# --- oracles: the padded gather and scatter over every slot ----------------------

def assemble_oracle(batch, table):
    """Gather every slot, mask it and sum over the slot axis."""
    global_idx = batch.indices + table.offsets[None, :, None]
    rows = table.weights[global_idx]                       # [b, n_f, v, k]
    mask = batch.value_mask.astype(table.weights.dtype)
    return (rows * mask[..., None]).sum(axis=2)


def backward_oracle(grad_output, batch, table):
    """Scatter the masked gradient of every slot, padded ones included."""
    global_idx = batch.indices + table.offsets[None, :, None]
    mask = batch.value_mask.astype(grad_output.dtype)
    contrib = grad_output[:, :, None, :] * mask[..., None]  # [b, n_f, v, k]
    grad = np.zeros_like(table.weights, dtype=grad_output.dtype)
    np.add.at(grad, global_idx.ravel(), contrib.reshape(-1, table.k))
    return grad


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _gather_cases(draw):
    """A batch as make_batches pads it (index 0 and mask 0 past each cell's
    length), widths 1-10, empty and multivalent cells, repeated rows, a
    float or bool mask, and an f32 or f64 table and gradient with no -0.0
    weight; some gradient entries are +0.0 or -0.0."""
    b, n_f, k = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    width = draw(st.integers(1, 10))
    cards = draw(st.lists(st.integers(1, 4), min_size=n_f, max_size=n_f))
    lengths = np.array(draw(st.lists(st.integers(0, width), min_size=b * n_f,
                                     max_size=b * n_f))).reshape(b, n_f)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = rng.integers(0, np.array(cards)[None, :, None], size=(b, n_f, width))
    real = np.arange(width) < lengths[..., None]
    idx[~real] = 0
    mask = real if draw(st.booleans()) else real.astype(np.float64)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    offsets = np.concatenate([[0], np.cumsum(cards)[:-1]]).astype(np.int64)
    table = emb.EmbeddingTable(rng.standard_normal((sum(cards), k)).astype(dtype), offsets,
                               tuple(f"f{j}" for j in range(n_f)), tuple(cards))
    g = rng.standard_normal((b, n_f, k)).astype(dtype)
    g[rng.random(g.shape) < 0.1] = 0.0
    g[rng.random(g.shape) < 0.1] = -0.0
    return d.Batch(indices=idx, value_mask=mask, labels=np.zeros(b)), table, g


@settings(max_examples=300, deadline=None, database=None)
@given(_gather_cases())
def test_gather_and_scatter_are_bit_identical_to_padded_oracles(case):
    batch, table, g = case
    assert not np.any(np.signbit(table.weights) & (table.weights == 0))
    assert _same_bits(emb.assemble_embedding_matrix(batch, table), assemble_oracle(batch, table))
    assert _same_bits(emb.backward_embedding(g, batch, table), backward_oracle(g, batch, table))
    out = np.zeros_like(table.weights)
    assert emb.backward_embedding(g, batch, table, out) is out
    assert _same_bits(out, backward_oracle(g, batch, table))


def test_negative_zero_weight_is_gathered_as_its_row():
    # The padded sum started from +0.0, so a -0.0 weight read as +0.0; the
    # direct gather returns the row's bits. The two compare equal.
    schema = _schema(cards=(3, 4), multivalent=(1,))
    table, _ = _tables(schema, k=2, seed=13)
    table.weights[schema.offsets()[0] + 1] = -0.0
    batch = _batch([[(1,), (2, 3)]], n_f=2, max_vals=2)
    got, want = emb.assemble_embedding_matrix(batch, table), assemble_oracle(batch, table)
    assert np.all(np.signbit(got[0, 0])) and not np.any(np.signbit(want[0, 0]))
    assert np.array_equal(got, want)
    assert _same_bits(got[0, 1], want[0, 1])


def _awkward_batch():
    """One make_batches batch over an encoded table with a univalent field,
    a multivalent cell truncated from 3 values to 2, a cell holding one
    token twice, an empty cell and a token on several rows."""
    schema = d.DatasetSchema(fields=[
        d.FieldSchema("u", ("x", "y")),
        d.FieldSchema("m", ("a", "b", "c"), multivalent=True),
        d.FieldSchema("n", ("p", "q"), multivalent=True)])
    columns = [["x", "y", "x"],
               [("a", "b", "c"), ("b", "b"), ()],
               [("p",), ("q", "p"), ("q",)]]
    split, stats = d.encode_instances(schema, columns, [0, 1, 0], max_vals=2)
    assert stats.truncated_values == 1
    batch = d.make_batches(split, 3)[0]
    assert batch.indices.shape == (3, 3, 2) and not batch.value_mask[2, 1, 0]
    return schema, batch


def _table_of(schema, weights):
    return emb.EmbeddingTable(weights, schema.offsets(), tuple(schema.field_names()),
                              tuple(f.cardinality for f in schema.fields))


def test_backward_matches_finite_differences_on_multivalent_batch():
    schema, batch = _awkward_batch()
    rng = np.random.default_rng(14)
    table = _table_of(schema, rng.standard_normal((schema.t_f, 3)))
    g = rng.standard_normal((3, 3, 3))

    def f(params):
        t = replace(table, weights=params["w"])
        return (float((g * emb.assemble_embedding_matrix(batch, t)).sum()),
                {"w": emb.backward_embedding(g, batch, t)})

    assert nn.grad_check(f, {"w": table.weights.copy()}) < 1e-6


def test_backward_is_exact_adjoint_on_multivalent_batch():
    schema, batch = _awkward_batch()
    rng = np.random.default_rng(15)
    for _ in range(5):
        dt = rng.standard_normal((schema.t_f, 3))
        g = rng.standard_normal((3, 3, 3))
        lhs = float((g * emb.assemble_embedding_matrix(batch, _table_of(schema, dt))).sum())
        grad = emb.backward_embedding(g, batch, _table_of(schema, np.zeros_like(dt)))
        assert abs(lhs - float((grad * dt).sum())) < 1e-10


# --- initialization -------------------------------------------------------------

def test_init_deterministic_under_seed():
    schema = _schema()
    a = _tables(schema, k=6, seed=9)
    b = _tables(schema, k=6, seed=9)
    assert np.array_equal(a[0].weights, b[0].weights)
    assert np.array_equal(a[1].weights, b[1].weights)


def test_init_tables_differ_from_each_other():
    gen, clf = _tables(_schema(), k=6, seed=10)
    assert not np.array_equal(gen.weights, clf.weights)


def test_init_mean_within_three_sigma():
    schema = _schema(cards=(5000,))
    k = 20
    w = _tables(schema, k=k, seed=11)[0].weights
    n = w.size
    assert n >= 1e5
    bound = np.sqrt(6.0 / (schema.t_f + k))
    sigma_mean = bound / np.sqrt(3.0 * n)   # uniform(-b, b) has variance b^2/3
    assert abs(w.mean()) < 3 * sigma_mean


def test_init_bound_respected():
    schema = _schema()
    k = 40
    gen, clf = _tables(schema, k=k, seed=12)
    assert gen.weights.shape == (schema.t_f, 40)
    bound = np.sqrt(6.0 / (schema.t_f + k))
    assert np.max(np.abs(gen.weights)) <= bound
    assert np.max(np.abs(clf.weights)) <= bound
