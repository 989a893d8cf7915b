import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgnn import training
from gpgnn.autodiff import Tensor, backward, concat, mul, reduce_sum, reshape, scale
from gpgnn.cli import EXIT_DATA, main
from gpgnn.corpus import Vocabulary, normalize_dataset
from gpgnn.layers import ParameterStore
from gpgnn.model import ConfigError, batch_losses
from gpgnn.synth import SynthSpec, synthesize_multihop_corpus
from gpgnn.training import (
    OptimizerState,
    TrainConfig,
    TrainingError,
    adam_step,
    build_model,
    clip_gradients,
    evaluate_split,
    run_training,
)




def tiny_config(**kw):
    defaults = dict(
        layers=2, d_n=4, learning_rate=0.01, batch_size=4, dropout=0.0,
        hidden_size=6, epochs=3, patience=5, seed=1, word_dim=5, position_dim=2,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def tiny_synth(n=12, seed=3, chains=1):
    spec = SynthSpec(n_entities=10, n_relations=2, n_sentences=n, seed=seed,
                     chains_per_sentence=chains, splits=(0.75, 0.25, 0.0))
    corpus = synthesize_multihop_corpus(spec)
    train, _ = normalize_dataset(corpus.train, corpus.relations)
    valid, _ = normalize_dataset(corpus.valid, corpus.relations)
    return train, valid, corpus.relations


# ---------------------------------------------------------------------------
# config


def test_d_n_defaults_track_layer_count():
    assert TrainConfig(layers=1).resolved_d_n() == 8
    assert TrainConfig(layers=2).resolved_d_n() == 12
    assert TrainConfig(layers=3).resolved_d_n() == 12
    assert TrainConfig(layers=2, d_n=4).resolved_d_n() == 4


def test_reference_defaults():
    cfg = TrainConfig()
    assert cfg.learning_rate == 0.001
    assert cfg.batch_size == 50
    assert cfg.dropout == 0.5
    assert cfg.hidden_size == 256
    assert cfg.activation == "relu"
    assert cfg.adjacency == "untied"


def test_config_validation(tmp_path, capsys):
    with pytest.raises(ConfigError):
        TrainConfig(layers=0)
    with pytest.raises(ConfigError):
        TrainConfig(d_n=7)
    with pytest.raises(ConfigError):
        TrainConfig(adjacency="diagonal")
    with pytest.raises(ConfigError):
        TrainConfig(na_weight=0.0)
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"learning_rte": 0.1})
    for field in ("learning_rate", "clip_norm"):
        for bad in (float("nan"), float("inf"), float("-inf"), -0.001, "0.1"):
            with pytest.raises(ConfigError, match=field):
                TrainConfig(**{field: bad})
        TrainConfig(**{field: 0.0})  # lr 0 freezes the weights; clip_norm 0 turns clipping off

    path = tmp_path / "config.json"
    bad_fields = [
        ("learning_rate", float("nan")), ("clip_norm", float("nan")),
        ("activation", "gelu"), ("hidden_size", 0), ("word_dim", -1), ("layers", "2"),
        ("na_weight", "x"), ("batch_size", 2.5), ("seed", -1), ("epochs", True),
    ]
    for field, bad in bad_fields:
        path.write_text(json.dumps({field: bad}))
        capsys.readouterr()
        code = main(["train", "--train", "t.jsonl", "--valid", "v.jsonl", "--relations", "r.json",
                     "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == EXIT_DATA, field
        assert field in capsys.readouterr().err


CONFIG_FIELDS = [f.name for f in dataclasses.fields(TrainConfig)] + ["workers"]
CONFIG_VALUES = st.one_of(
    st.integers(-3, 300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(CONFIG_FIELDS), CONFIG_VALUES))
def test_config_fuzz_loads_or_raises_config_error(obj):
    # no model is built from the drawn values: a drawn hidden_size of 300
    # would allocate a large model for nothing
    try:
        cfg = TrainConfig.from_dict(obj)
    except ConfigError:
        return
    assert isinstance(cfg, TrainConfig)


def test_config_json_roundtrip(tmp_path):
    cfg = tiny_config(na_weight=0.5, adjacency="tied")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert TrainConfig.load(path) == cfg


# ---------------------------------------------------------------------------
# adam


def test_zero_gradient_leaves_parameter_unchanged():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    x.grad = np.zeros(2)
    store = ParameterStore()
    store.register("x", x)
    adam_step(OptimizerState(), store, lr=0.5)
    np.testing.assert_array_equal(x.data, [1.0, -2.0])
    assert x.grad is None  # cleared afterward


def test_first_step_magnitude_is_lr_in_sign_direction():
    g = np.array([0.3, -7.0, 0.001])
    x = Tensor(np.zeros(3), requires_grad=True)
    x.grad = g.copy()
    store = ParameterStore()
    store.register("x", x)
    adam_step(OptimizerState(), store, lr=0.01)
    # bias-corrected m/sqrt(v) is sign(g) on the first step, up to eps
    np.testing.assert_allclose(x.data, -0.01 * np.sign(g), rtol=1e-4)


def test_missing_gradient_names_parameter():
    store = ParameterStore()
    store.register("encoder.w", Tensor(np.zeros(2), requires_grad=True))
    with pytest.raises(TrainingError, match="encoder.w"):
        adam_step(OptimizerState(), store, lr=0.1)


def test_quadratic_descent_reaches_small_gradient():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
    a = Tensor(rng.uniform(0.05, 0.1, 5))
    store = ParameterStore()
    store.register("x", x)
    opt = OptimizerState()
    for _ in range(100):
        store.zero_grads()
        loss = scale(reduce_sum(mul(a, mul(x, x))), 0.5)
        backward(loss)
        adam_step(opt, store, lr=0.1)
    assert opt.step == 100
    grad_norm = float(np.linalg.norm(a.data * x.data))
    assert grad_norm < 1e-3


def test_clip_gradients_scales_to_max_norm():
    x = Tensor(np.zeros(3), requires_grad=True)
    x.grad = np.array([3.0, 4.0, 0.0])
    store = ParameterStore()
    store.register("x", x)
    norm = clip_gradients(store, 2.5)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(x.grad) == pytest.approx(2.5)
    x.grad = np.array([0.1, 0.0, 0.0])
    clip_gradients(store, 2.5)
    np.testing.assert_array_equal(x.grad, [0.1, 0.0, 0.0])  # below the cap: untouched


# ---------------------------------------------------------------------------
# the loop


def test_same_seed_gives_bit_identical_loss_trace():
    train, valid, relations = tiny_synth()

    def run():
        cfg = tiny_config(epochs=3)
        vocab = Vocabulary.build(train)
        model = build_model(cfg, vocab, relations)
        events = []
        run_training(cfg, train, valid, model, log_events=events)
        return [e["loss"] for e in events if e.get("split") == "train"]

    assert run() == run()


def test_different_seeds_differ():
    train, valid, relations = tiny_synth()
    losses = []
    for seed in (1, 2):
        cfg = tiny_config(epochs=1, seed=seed)
        model = build_model(cfg, Vocabulary.build(train), relations)
        events = []
        run_training(cfg, train, valid, model, log_events=events)
        losses.append([e["loss"] for e in events if e.get("split") == "train"])
    assert losses[0] != losses[1]


def test_train_events_record_grad_norm_and_clipped_steps(monkeypatch):
    """On a one-batch run, ``grad_norm`` is the global gradient norm
    recomputed from a fresh model on the same batch, and ``clipped_steps``
    is 1 exactly when that norm exceeds a nonzero ``clip_norm``.  Over
    several steps they are the largest step norm and the count of steps
    above the cap."""
    train, valid, relations = tiny_synth()
    vocab = Vocabulary.build(train)
    cfg = tiny_config(epochs=1, batch_size=len(train))
    model = build_model(cfg, vocab, relations)
    rngs = training.named_rngs(cfg.seed)
    batch = [train[i] for i in rngs["shuffle"].permutation(len(train))]
    losses = batch_losses(model, batch, training=True, rng=rngs["dropout"], na_weight=cfg.na_weight)
    backward(scale(reduce_sum(concat([reshape(l, (1,)) for l in losses], axis=0)), 1.0 / len(batch)))
    norm = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for _, p in model.store.named()))

    def train_events(config):
        events = []
        run_training(config, train, valid, build_model(config, vocab, relations), log_events=events)
        return [e for e in events if e.get("split") == "train"]

    for clip_norm, clipped in ((0.0, 0), (2.0 * norm, 0), (0.5 * norm, 1)):
        (event,) = train_events(dataclasses.replace(cfg, clip_norm=clip_norm))
        assert event["grad_norm"] == norm
        assert event["clipped_steps"] == clipped

    norms = []
    original = training.clip_gradients

    def spy(store, max_norm):
        norms.append(original(store, max_norm))
        return norms[-1]

    monkeypatch.setattr(training, "clip_gradients", spy)
    cfg = tiny_config(epochs=2, batch_size=3, clip_norm=2.0)  # inside the range of the step norms
    events = train_events(cfg)
    steps = -(-len(train) // cfg.batch_size)
    assert len(norms) == 2 * steps
    for event, epoch_norms in zip(events, (norms[:steps], norms[steps:])):
        assert event["grad_norm"] == max(epoch_norms)
        assert event["clipped_steps"] == sum(n > cfg.clip_norm for n in epoch_norms)


def test_config_event_echoes_reference_values_verbatim():
    train, valid, relations = tiny_synth()
    cfg = TrainConfig(epochs=0)  # defaults, no training steps
    model = build_model(cfg, Vocabulary.build(train), relations)
    events = []
    run_training(cfg, train, valid, model, log_events=events)
    config_event = events[0]
    assert config_event["event"] == "config"
    assert config_event["learning_rate"] == 0.001
    assert config_event["batch_size"] == 50
    assert config_event["dropout"] == 0.5
    assert config_event["hidden_size"] == 256
    assert config_event["activation"] == "relu"
    assert config_event["adjacency"] == "untied"
    assert config_event["optimizer"] == "adam"


def test_loss_decreases_over_first_steps_majority_of_seeds():
    train, _valid, relations = tiny_synth(n=8)
    batch = train[:6]
    wins = 0
    for seed in range(5):
        cfg = tiny_config(epochs=5, batch_size=len(batch), seed=seed, learning_rate=0.001)
        model = build_model(cfg, Vocabulary.build(batch), relations)
        events = []
        run_training(cfg, batch, batch, model, log_events=events)
        losses = [e["loss"] for e in events if e.get("split") == "train"]
        if losses[-1] < losses[0]:
            wins += 1
    assert wins >= 3


def test_early_stopping_honors_patience():
    train, valid, relations = tiny_synth()
    cfg = tiny_config(epochs=50, patience=2, learning_rate=0.0)  # nothing improves
    model = build_model(cfg, Vocabulary.build(train), relations)
    result = run_training(cfg, train, valid, model)
    assert result.stopped_early
    assert result.epochs_run <= 5


def test_stop_accuracy_short_circuits():
    train, _valid, relations = tiny_synth()
    cfg = tiny_config(epochs=50)
    model = build_model(cfg, Vocabulary.build(train), relations)
    result = run_training(cfg, train, train, model, stop_accuracy=0.0)
    assert result.reached_target
    assert result.epochs_run == 1


def test_stop_target_epoch_is_best_with_and_without_out_dir(tmp_path, monkeypatch):
    # epoch 1 reaches the stop accuracy while its macro-F1 falls: it is the
    # run's best epoch whether or not a checkpoint is written
    train, valid, relations = tiny_synth()
    cfg = tiny_config(epochs=5)

    def run(out_dir):
        scores = iter([{"accuracy": 0.5, "macro_f1": 0.5}, {"accuracy": 0.95, "macro_f1": 0.4}])
        monkeypatch.setattr(training, "evaluate_split", lambda *a, **kw: next(scores))
        model = build_model(cfg, Vocabulary.build(train), relations)
        result = run_training(cfg, train, valid, model, out_dir=out_dir, stop_accuracy=0.9)
        return dataclasses.replace(result, checkpoint_path=None, log_path=None)

    without = run(None)
    assert without == run(tmp_path / "run")
    assert (without.best_epoch, without.best_macro_f1, without.best_accuracy) == (1, 0.4, 0.95)
    assert without.reached_target and without.epochs_run == 2


def test_non_finite_loss_aborts_with_sentence_id():
    train, valid, relations = tiny_synth()
    cfg = tiny_config(epochs=1)
    model = build_model(cfg, Vocabulary.build(train), relations)
    model.head.biases[-1].data[:] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingError, match="synth-train"):
            run_training(cfg, train, valid, model)


def test_checkpoint_reload_reproduces_validation_metrics(tmp_path):
    train, valid, relations = tiny_synth()
    cfg = tiny_config(epochs=2)
    vocab = Vocabulary.build(train)
    model = build_model(cfg, vocab, relations)
    result = run_training(cfg, train, valid, model, out_dir=tmp_path)
    assert (tmp_path / "run_log.jsonl").exists()

    # a fresh model loading the best checkpoint reproduces the validation
    # metrics recorded when that checkpoint was saved, bit for bit
    fresh = build_model(cfg, vocab, relations)
    fresh.store.load(result.checkpoint_path)
    reloaded = evaluate_split(fresh, valid)
    assert reloaded["macro_f1"] == result.best_macro_f1
    assert reloaded["accuracy"] == result.best_accuracy


def test_padding_row_survives_training():
    train, valid, relations = tiny_synth()
    cfg = tiny_config(epochs=2)
    model = build_model(cfg, Vocabulary.build(train), relations)
    run_training(cfg, train, valid, model)
    np.testing.assert_array_equal(model.word_table.weights.data[0], np.zeros(cfg.word_dim))
