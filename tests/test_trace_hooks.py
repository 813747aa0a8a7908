"""The traced benchmark patches module attributes by name; these tests fail
when a refactor moves a traced stage out from under its hook."""
import importlib.util
import sys
from pathlib import Path

from fgcnn import data
from fgcnn.classifier import ClassifierConfig, loss_and_grad
from fgcnn.data import generate_synthetic, make_batches, planted_spec, synthetic_schema
from fgcnn.featuregen import FeatureGenConfig
from fgcnn.model import FgcnnModel, ModelConfig
from fgcnn.training import TrainConfig, evaluate, train

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_exists(monkeypatch):
    tracer = _spans_module(monkeypatch).Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_hooked_kernels_are_called_through_their_hooks(monkeypatch):
    # one conv round with recombination, batch norm at every site, one hidden layer
    spec = planted_spec(n_f=4, cardinality=3, pair=(0, 2), seed=0)
    instances, _ = generate_synthetic(spec, 6)
    batch = make_batches(instances, 6)[0]
    config = ModelConfig(
        k=3, classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(5,), use_bn=True),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,), new_maps=(2,),
                                 use_bn=True))
    model = FgcnnModel.build(synthetic_schema(spec), config, 0)
    tracer = _spans_module(monkeypatch).Tracer()
    try:
        tracer.install()
        yhat, cache = model.forward_batch(batch, mode="train")
        _, dlogit = loss_and_grad(yhat, batch.labels)
        model.backward_batch(cache, dlogit / batch.size)
    finally:
        tracer.uninstall()
    calls = {name: st.calls for name, st in tracer.stats.items()}
    assert calls["featuregen.conv_fwd"] == calls["featuregen.conv_bwd"] == 1
    assert calls["featuregen.pool_fwd"] == calls["featuregen.pool_bwd"] == 1
    # conv, recombination and hidden-layer sites; recombination, hidden and output maps
    assert calls["nn.batchnorm_fwd"] == calls["nn.batchnorm_bwd"] == 3
    assert calls["nn.affine"] == calls["nn.affine_backward"] == 3
    assert calls["classifier.fm_fwd"] == calls["classifier.fm_bwd"] == 1


def test_ingest_and_batching_spans_fire_through_their_hooks(monkeypatch, tmp_path):
    spec = planted_spec(n_f=4, cardinality=3, pair=(0, 2), seed=0)
    split, _ = generate_synthetic(spec, 12)
    path = tmp_path / "small.csv"
    data.write_dataset_file(path, synthetic_schema(spec), split)
    config = ModelConfig(k=2, classifier=ClassifierConfig(kind="fm"))
    tracer = _spans_module(monkeypatch).Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
        schema, loaded, _ = data.fit_dataset(path, min_count=1)
        data.load_dataset(path, schema)
        model = FgcnnModel.build(schema, config, 0)
        train(model, loaded, TrainConfig(batch_size=5, epochs=2))
        evaluate(model, loaded)
    finally:
        tracer.uninstall()
    calls = {name: st.calls for name, st in tracer.stats.items()}
    # fit_dataset fits and encodes in one pass, past build_vocab and encode_instances
    assert calls["data.read_dataset_file"] == 2
    assert calls["data.encode_instances"] == 1
    assert "data.build_vocab" not in calls
    # once per epoch through training, once through predict_scores
    assert calls["data.make_batches"] == 3
