#!/usr/bin/env python3
"""Memorization check: train the 2-layer model with the reference
configuration on a 50-sentence synthetic chain corpus until the training
triple accuracy reaches 99%, and report how many epochs that took.
Acceptance criterion 4 runs this check.

Run:  python3 scripts/overfit_check.py --seed 7
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from gpgnn.corpus import Vocabulary, normalize_dataset
from gpgnn.synth import SynthSpec, synthesize_multihop_corpus
from gpgnn.training import TrainConfig, build_model, run_training


def overfit_spec(seed: int) -> SynthSpec:
    """50 one-chain sentences over 20 entities and 3 relations, all train."""
    return SynthSpec(
        n_entities=20,
        n_relations=3,
        n_sentences=50,
        seed=seed,
        chains_per_sentence=1,
        splits=(1.0, 0.0, 0.0),
    )


def overfit_config(seed: int, epochs: int = 200) -> TrainConfig:
    """The reference configuration at two layers, with no early stop."""
    return TrainConfig(layers=2, epochs=epochs, patience=epochs, seed=seed)


def run_overfit(seed: int = 7, epochs: int = 200, target: float = 0.99) -> dict:
    corpus = synthesize_multihop_corpus(overfit_spec(seed))
    train, skips = normalize_dataset(corpus.train, corpus.relations)
    assert not skips, f"generator contract violated: {skips}"
    config = overfit_config(seed, epochs)
    model = build_model(config, Vocabulary.build(train), corpus.relations)
    t0 = time.monotonic()
    result = run_training(config, train, train, model, stop_accuracy=target)
    return {
        "reached_target": result.reached_target,
        "epochs_run": result.epochs_run,
        "train_accuracy_at_stop": result.best_accuracy,
        "wall_s": round(time.monotonic() - t0, 1),
        "sentences": len(train),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--target", type=float, default=0.99)
    args = parser.parse_args(argv)
    summary = run_overfit(args.seed, args.epochs, args.target)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["reached_target"] else 1


if __name__ == "__main__":
    sys.exit(main())
