#!/usr/bin/env python3
"""Depth-vs-performance experiment on the synthetic multi-hop corpus.

Each sentence states two relation chains (head -r1-> mid -r2-> tail); the
gold label of a (head, tail) pair is the composed relation, which never
appears as a surface token.  Test sentences draw their entity symbols from a
pool disjoint from training, so every entity token maps to the unknown row.
A 1-layer model must read both premise words and their composition out of a
single marked pass over the sentence; a 2-layer model recovers the premises
from the marked edge contexts (easy, marker-adjacent patterns) and composes
them through the middle node's state.  The measured quantity is accuracy on
the implied (composed-relation) test pairs, per layer count, over several
seeds.

Run:  python3 scripts/depth_experiment.py --seeds 101 102 103
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from gpgnn.corpus import Vocabulary, normalize_dataset
from gpgnn.model import predict_pairs
from gpgnn.synth import SynthSpec, synthesize_multihop_corpus
from gpgnn.training import TrainConfig, build_model, run_training


def experiment_spec(seed: int, n_sentences: int = 160) -> SynthSpec:
    return SynthSpec(
        n_entities=30,
        n_relations=5,
        n_sentences=n_sentences,
        seed=seed,
        chains_per_sentence=2,
        mid_tokens=(1, 2),
        splits=(0.75, 0.10, 0.15),
    )


def experiment_config(layers: int, seed: int, epochs: int = 80) -> TrainConfig:
    # desk-scale model: the reference hidden size would blow the time budget
    # without changing the direction of the comparison
    return TrainConfig(
        layers=layers,
        learning_rate=0.005,
        batch_size=12,
        dropout=0.1,
        hidden_size=32,
        activation="relu",
        adjacency="untied",
        epochs=epochs,
        patience=15,
        seed=seed,
        word_dim=16,
        position_dim=4,
        na_weight=0.25,
    )


@dataclass
class RunOutcome:
    layers: int
    seed: int
    implied_accuracy: float
    premise_accuracy: float
    test_accuracy: float
    epochs_run: int
    wall_s: float


def run_once(layers: int, seed: int, epochs: int = 80, n_sentences: int = 160) -> RunOutcome:
    corpus = synthesize_multihop_corpus(experiment_spec(seed, n_sentences))
    relations = corpus.relations
    train, _ = normalize_dataset(corpus.train, relations)
    valid, _ = normalize_dataset(corpus.valid, relations)
    test, _ = normalize_dataset(corpus.test, relations)
    composed = set(corpus.composed_names)
    base = set(corpus.base_names)

    config = experiment_config(layers, seed, epochs)
    model = build_model(config, Vocabulary.build(train), relations)
    t0 = time.monotonic()
    result = run_training(config, train, valid, model)
    records = predict_pairs(model, test)

    implied_hits = implied_total = premise_hits = premise_total = correct = 0
    for r in records:
        pred = relations.name(r.predicted_index())
        correct += int(pred == r.gold)
        if r.gold in composed:
            implied_total += 1
            implied_hits += int(pred == r.gold)
        elif r.gold in base:
            premise_total += 1
            premise_hits += int(pred == r.gold)
    return RunOutcome(
        layers=layers,
        seed=seed,
        implied_accuracy=implied_hits / implied_total if implied_total else 0.0,
        premise_accuracy=premise_hits / premise_total if premise_total else 0.0,
        test_accuracy=correct / len(records),
        epochs_run=result.epochs_run,
        wall_s=time.monotonic() - t0,
    )


def run_experiment(seeds, epochs: int = 80, n_sentences: int = 160) -> dict:
    outcomes: list[RunOutcome] = []
    for seed in seeds:
        for layers in (1, 2):
            out = run_once(layers, seed, epochs, n_sentences)
            outcomes.append(out)
            print(
                f"K={out.layers} seed={out.seed}: implied={out.implied_accuracy:.3f} "
                f"premise={out.premise_accuracy:.3f} overall={out.test_accuracy:.3f} "
                f"epochs={out.epochs_run} wall={out.wall_s:.0f}s",
                flush=True,
            )
    mean = {
        k: sum(o.implied_accuracy for o in outcomes if o.layers == k) / len(seeds)
        for k in (1, 2)
    }
    return {
        "seeds": list(seeds),
        "mean_implied_k1": mean[1],
        "mean_implied_k2": mean[2],
        "gap": mean[2] - mean[1],
        "outcomes": [vars(o) for o in outcomes],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    parser.add_argument("--epochs", type=int, default=80)
    parser.add_argument("--sentences", type=int, default=160)
    args = parser.parse_args(argv)
    summary = run_experiment(args.seeds, args.epochs, args.sentences)
    print(json.dumps({k: summary[k] for k in ("mean_implied_k1", "mean_implied_k2", "gap")}))
    return 0 if summary["gap"] >= 0.15 else 1


if __name__ == "__main__":
    sys.exit(main())
