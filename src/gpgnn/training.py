"""Mini-batch training: adaptive-moment optimization with bias correction,
seeded shuffling, early stopping on validation macro-F1, and a line-delimited
JSON run log.

All randomness flows from one seed through named sub-streams (init, shuffle,
dropout), so two runs with the same config and data produce identical
parameter trajectories.  Run-log events are reproducible field for field
except wall_ms, which is wall-clock time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import backward, concat, reduce_sum, reshape, scale
from .corpus import RelationVocab, Sentence, Vocabulary
from .evaluation import sentence_metrics
from .layers import EmbeddingTable, ParameterStore
from .model import (ConfigError, GpGnn, ModelDims, batch_losses, check_int, is_number,
                    predict_pairs)

SUB_SEEDS = ("init", "shuffle", "dropout")


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or weight, or a missing gradient)."""


@dataclass
class TrainConfig:
    """Hyperparameters; the defaults are the reference settings: lr 0.001,
    batch 50 sentences, dropout 0.5, hidden size 256, relu, untied adjacency,
    and node-state width 8 for one layer, 12 for two or three."""

    layers: int = 1
    d_n: int | None = None
    learning_rate: float = 0.001
    batch_size: int = 50
    dropout: float = 0.5
    hidden_size: int = 256
    activation: str = "relu"
    adjacency: str = "untied"
    epochs: int = 200
    patience: int = 10
    seed: int = 0
    word_dim: int = 50
    position_dim: int = 5
    na_weight: float = 1.0
    clip_norm: float = 5.0

    def __post_init__(self) -> None:
        """Check the training fields here; ``model_dims`` checks the model's."""
        if self.adjacency not in ("untied", "tied"):
            raise ConfigError(f"adjacency must be 'untied' or 'tied', got {self.adjacency!r}")
        for name, low in (("batch_size", 1), ("epochs", 0), ("patience", 0), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        if not (is_number(self.na_weight) and 0.0 < self.na_weight <= 1.0):
            raise ConfigError(f"na_weight must be a number in (0, 1], got {self.na_weight!r}")
        # clip_norm 0 means no clipping
        for name in ("learning_rate", "clip_norm"):
            value = getattr(self, name)
            if not (is_number(value) and math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be a finite number >= 0, got {value!r}")
        self.model_dims()

    def resolved_d_n(self) -> int:
        if self.d_n is not None:
            return self.d_n
        return 8 if self.layers == 1 else 12

    def model_dims(self) -> ModelDims:
        return ModelDims(
            d_n=self.resolved_d_n(),
            layers=self.layers,
            hidden_size=self.hidden_size,
            activation=self.activation,
            dropout=self.dropout,
            tied=(self.adjacency == "tied"),
            word_dim=self.word_dim,
            position_dim=self.position_dim,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(obj).__name__}")
        # configs written before the serial-only ``workers`` knob was removed
        # hold "workers": 1; that value meant what every run now does
        if "workers" in obj:
            if obj["workers"] != 1:
                raise ConfigError(
                    f"workers is no longer a setting; only the legacy value 1 loads, got {obj['workers']!r}"
                )
            obj = {k: v for k, v in obj.items() if k != "workers"}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ConfigError(f"unknown config fields: {unknown}")
        return cls(**obj)

    @classmethod
    def load(cls, path) -> "TrainConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def named_rngs(seed: int) -> dict[str, np.random.Generator]:
    """One generator per purpose, all derived from the run seed."""
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(SUB_SEEDS))
    return {name: np.random.default_rng(child) for name, child in zip(SUB_SEEDS, children)}


# ---------------------------------------------------------------------------
# optimizer


# the adaptive-moment update's decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class OptimizerState:
    """Per-parameter first/second moment buffers for the adaptive-moment
    update, plus the shared step counter."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(state: OptimizerState, store: ParameterStore, lr: float) -> None:
    """Bias-corrected adaptive-moment update, in place; gradients are cleared
    afterward.  A registered parameter without a gradient is an error, and
    so is the first parameter, in name order, that the update leaves with a
    non-finite value."""
    named = store.named()
    for name, p in named:
        if p.grad is None:
            raise TrainingError(f"parameter {name!r} has no gradient")
    state.step += 1
    bias1 = 1.0 - BETA1**state.step
    bias2 = 1.0 - BETA2**state.step
    for name, p in named:
        g = p.grad
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p.data)
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        # an update that overflows is reported by the check below, by name
        with np.errstate(over="ignore", invalid="ignore"):
            p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
        if not np.isfinite(p.data).all():
            raise TrainingError(f"parameter {name!r} is not finite after optimizer step {state.step}")
        p.zero_grad()


def clip_gradients(store: ParameterStore, max_norm: float) -> float:
    """Scale all gradients down to a global L2 norm of max_norm; returns the
    pre-clip norm."""
    total = 0.0
    for _name, p in store.named():
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for _name, p in store.named():
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm


# ---------------------------------------------------------------------------
# the loop


@dataclass
class TrainResult:
    best_epoch: int
    best_macro_f1: float
    best_accuracy: float
    epochs_run: int
    stopped_early: bool
    reached_target: bool
    checkpoint_path: str | None
    log_path: str | None


def run_training(
    config: TrainConfig,
    train: Sequence[Sentence],
    valid: Sequence[Sentence],
    model: GpGnn,
    out_dir=None,
    stop_accuracy: float | None = None,
    log_events: list | None = None,
) -> TrainResult:
    """Train ``model`` on normalized sentences, validating each epoch.

    Keeps the checkpoint of the best validation macro-F1 and stops after
    ``patience`` epochs without improvement, or as soon as the validation
    accuracy reaches ``stop_accuracy`` (pass the training set as ``valid``
    to drive an overfit check).  Aborts on a non-finite loss, naming the
    offending sentence, and on a step that leaves a weight non-finite,
    naming the parameter, before any validation pass or checkpoint sees it.
    Every step and validation pass runs with numpy's overflow, invalid-value
    and divide-by-zero signals raised, so the first non-finite intermediate
    aborts the run there, naming the phase and the epoch.  Each epoch's
    train event records ``grad_norm``, the largest global gradient norm
    before clipping over its steps, and ``clipped_steps``, how many of its
    steps were clipped.
    """
    if not train:
        raise TrainingError("empty training set")
    rngs = named_rngs(config.seed)
    out = Path(out_dir) if out_dir is not None else None
    log_path = ckpt_path = None
    log_fh = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        log_path = out / "run_log.jsonl"
        ckpt_path = out / "checkpoint.bin"
        log_fh = open(log_path, "w", encoding="utf-8")

    t0 = time.monotonic()

    def emit(event: dict) -> None:
        event = {**event, "wall_ms": int((time.monotonic() - t0) * 1000)}
        if log_fh is not None:
            log_fh.write(json.dumps(event, sort_keys=True, allow_nan=False) + "\n")
            log_fh.flush()
        if log_events is not None:
            log_events.append(event)

    emit({"event": "config", **config.to_dict(), "optimizer": "adam",
          "sub_seeds": list(SUB_SEEDS), "train_sentences": len(train), "valid_sentences": len(valid)})

    opt = OptimizerState()
    best = TrainResult(
        best_epoch=-1, best_macro_f1=-1.0, best_accuracy=0.0, epochs_run=0,
        stopped_early=False, reached_target=False,
        checkpoint_path=str(ckpt_path) if ckpt_path else None,
        log_path=str(log_path) if log_path else None,
    )
    stale = 0
    try:
        for epoch in range(config.epochs):
            order = rngs["shuffle"].permutation(len(train))
            epoch_loss = grad_norm = 0.0
            clipped_steps = 0
            for start in range(0, len(order), config.batch_size):
                batch = [train[i] for i in order[start : start + config.batch_size]]
                with _first_overflow(f"training step {opt.step + 1}", epoch):
                    losses = batch_losses(model, batch, training=True, rng=rngs["dropout"],
                                          na_weight=config.na_weight)
                    for sentence, loss in zip(batch, losses):
                        if not np.isfinite(loss.data):
                            raise TrainingError(
                                f"non-finite loss {loss.data!r} on sentence {sentence.id!r} at epoch {epoch}"
                            )
                    stacked = concat([reshape(l, (1,)) for l in losses], axis=0)
                    mean_loss = scale(reduce_sum(stacked), 1.0 / len(batch))
                    model.store.zero_grads()
                    backward(mean_loss)
                    norm = clip_gradients(model.store, config.clip_norm)
                    grad_norm = max(grad_norm, norm)
                    clipped_steps += int(0 < config.clip_norm < norm)
                    adam_step(opt, model.store, config.learning_rate)
                epoch_loss += mean_loss.item() * len(batch)
            train_loss = epoch_loss / len(train)
            emit({"event": "epoch", "epoch": epoch, "split": "train", "loss": train_loss,
                  "grad_norm": grad_norm, "clipped_steps": clipped_steps})

            with _first_overflow("validation", epoch):
                metrics = evaluate_split(model, valid)
            emit({
                "event": "epoch", "epoch": epoch, "split": "valid",
                "acc": metrics["accuracy"], "macro_f1": metrics["macro_f1"],
            })
            best.epochs_run = epoch + 1
            # the epoch that reaches the stop target is kept even without a macro-F1 gain
            reached = stop_accuracy is not None and metrics["accuracy"] >= stop_accuracy
            if metrics["macro_f1"] > best.best_macro_f1 or reached:
                best.best_macro_f1 = metrics["macro_f1"]
                best.best_accuracy = metrics["accuracy"]
                best.best_epoch = epoch
                stale = 0
                if ckpt_path is not None:
                    model.store.save(ckpt_path)
            else:
                stale += 1
            if reached:
                best.reached_target = True
                break
            if stale > config.patience:
                best.stopped_early = True
                break
        emit({"event": "done", "best_epoch": best.best_epoch,
              "best_macro_f1": best.best_macro_f1, "best_acc": best.best_accuracy,
              "epochs_run": best.epochs_run, "stopped_early": best.stopped_early,
              "reached_target": best.reached_target})
    finally:
        if log_fh is not None:
            log_fh.close()
    return best


@contextmanager
def _first_overflow(phase: str, epoch: int):
    """Raise numpy's overflow, invalid-value and divide-by-zero signals in
    the block, so the first non-finite intermediate stops training there as
    a TrainingError naming the phase and the epoch."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise TrainingError(f"{phase} at epoch {epoch}: {exc}") from None


def evaluate_split(model: GpGnn, sentences: Sequence[Sentence]) -> dict:
    if not sentences:
        return {"accuracy": 0.0, "macro_f1": 0.0}
    return sentence_metrics(predict_pairs(model, sentences), model.relations)


def build_model(
    config: TrainConfig,
    vocab: Vocabulary,
    relations: RelationVocab,
    word_table: EmbeddingTable | None = None,
) -> GpGnn:
    """Construct a model whose initialization is driven by the config seed's
    'init' sub-stream."""
    rngs = named_rngs(config.seed)
    return GpGnn(config.model_dims(), vocab, relations, rngs["init"], word_table=word_table)
