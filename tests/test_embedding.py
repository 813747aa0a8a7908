import numpy as np
import pytest

from fgcnn import data as d
from fgcnn import embedding as emb
from fgcnn.checks import check_embedding_gather
from fgcnn.classifier import ClassifierConfig
from fgcnn.featuregen import FeatureGenConfig
from fgcnn.model import FgcnnModel, ModelConfig


def _schema(cards=(3, 4, 2), multivalent=()):
    fields = []
    for j, c in enumerate(cards):
        mapping = {f"t{i}": i + 1 for i in range(c - 1)}
        fields.append(d.FieldSchema(f"f{j}", mapping, multivalent=j in multivalent))
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
