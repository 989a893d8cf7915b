"""Command-line entry point wiring corpus, training, and evaluation into
reproducible runs.

Every command writes a manifest next to its outputs recording the command,
config, seed and sub-seed names, library versions, and input file hashes.
Exit codes: 0 success, 1 usage, 2 data error, 3 numeric failure (non-finite
loss, weights or probabilities, a non-finite gradient-check probe, or a
failed gradient check).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    CorpusError,
    ParseError,
    RelationVocab,
    Vocabulary,
    load_embedding_file,
    normalize_dataset,
    parse_corpus_file,
    split_dense_subset,
    write_corpus_file,
)
from .evaluation import (
    EvaluationError,
    POPULATIONS,
    metrics_report,
    write_metrics_report,
    write_pr_csv,
    write_predictions,
)
from .gradcheck import full_model_gradcheck
from .layers import BackgroundSha256, CheckpointError, atomic_write
from .model import ConfigError, GpGnn, predict_pairs
from .synth import SynthSpec, synthesize_multihop_corpus
from .training import SUB_SEEDS, TrainConfig, TrainingError, build_model, named_rngs, run_training

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError(_build_parser().format_usage())
        return args.func(args, argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, EvaluationError, ConfigError, CheckpointError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _build_parser() -> _Parser:
    parser = _Parser(prog="gpgnn", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    p = sub.add_parser("preprocess", help="normalize a corpus and split it")
    p.add_argument("--input", required=True)
    p.add_argument("--relations", required=True)
    p.add_argument("--inverse-map", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--splits", default="0.8,0.1,0.1", help="train,valid,test fractions")
    p.add_argument("--dense", action="store_true", help="also split the test set by denseness")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("synth", help="generate a synthetic multi-hop corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--spec", default=None, help="JSON file of generator settings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sentences", type=int, default=100)
    p.add_argument("--entities", type=int, default=40)
    p.add_argument("--relations", type=int, default=3)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--mid-tokens", default="1,1")
    p.add_argument("--splits", default="0.8,0.1,0.1")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--relations", required=True)
    p.add_argument("--inverse-map", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--embeddings", default=None, help="pretrained word vectors, text format")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--model-dir", required=True, help="a train output directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--population", choices=POPULATIONS, default="predictions")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write pair predictions for a data file")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="run the full-model gradient oracle")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)
    return parser


# ---------------------------------------------------------------------------
# helpers


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _parse_splits(text: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad --splits value {text!r}") from None
    if len(parts) != 3 or not all(math.isfinite(p) and p >= 0 for p in parts) or abs(sum(parts) - 1.0) > 1e-9:
        raise UsageError(f"--splits needs three finite nonnegative fractions summing to 1, got {text!r}")
    return parts


def _parse_mid_tokens(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"--mid-tokens needs two integers 'lo,hi', got {text!r}") from None
    return lo, hi


def _write_manifest(out_dir: Path, command: str, argv, seed, inputs, outputs, counts, config=None, read=None):
    """``read`` maps an input path to the SHA-256 of the bytes the command
    already read from it; every other input is hashed here."""
    read = read or {}
    manifest = {
        "command": command,
        "argv": list(argv),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "seed": seed,
        "sub_seeds": list(SUB_SEEDS),
        "inputs": {str(p): read.get(str(p)) or _sha256(p) for p in inputs},
        "outputs": sorted(str(Path(o).name) for o in outputs),
        "counts": counts,
    }
    if config is not None:
        cfg_json = json.dumps(config, sort_keys=True)
        manifest["config"] = config
        manifest["config_sha256"] = hashlib.sha256(cfg_json.encode()).hexdigest()
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# commands


def cmd_preprocess(args, argv) -> int:
    fr = _parse_splits(args.splits)
    if args.seed < 0:
        raise CorpusError(f"seed must be an integer >= 0, got {args.seed!r}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    relations = RelationVocab.from_files(args.relations, args.inverse_map)
    errors: list[ParseError] = []
    parsed = list(parse_corpus_file(args.input, errors))
    normalized, skips = normalize_dataset(parsed, relations)
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(normalized))
    n_train = int(round(len(normalized) * fr[0]))
    n_valid = int(round(len(normalized) * fr[1]))
    splits = {
        "train": [normalized[i] for i in order[:n_train]],
        "valid": [normalized[i] for i in order[n_train : n_train + n_valid]],
        "test": [normalized[i] for i in order[n_train + n_valid :]],
    }
    outputs = []
    for name, sentences in splits.items():
        path = out / f"{name}.jsonl"
        write_corpus_file(path, sentences)
        outputs.append(path)
    counts = {
        "parsed": len(parsed),
        "parse_errors": len(errors),
        "normalized": len(normalized),
        "skipped": dict(sorted(skips.items())),
        "split_sizes": {k: len(v) for k, v in splits.items()},
    }
    if args.dense:
        dense, rest = split_dense_subset(splits["test"])
        for name, sentences in (("test_dense", dense), ("test_rest", rest)):
            path = out / f"{name}.jsonl"
            write_corpus_file(path, sentences)
            outputs.append(path)
        counts["dense"] = {"dense": len(dense), "rest": len(rest)}
    for err in errors:
        print(f"{args.input}:{err.line_no}: {err.message}", file=sys.stderr)
    inputs = [args.input, args.relations] + ([args.inverse_map] if args.inverse_map else [])
    _write_manifest(out, "preprocess", argv, args.seed, inputs, outputs, counts)
    print(json.dumps(counts, sort_keys=True))
    return EXIT_OK


def cmd_synth(args, argv) -> int:
    out = Path(args.out)
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        try:
            spec = SynthSpec.from_dict(raw, seed=args.seed)
        except CorpusError as exc:
            raise CorpusError(f"{args.spec}: {exc}") from None
        inputs = [args.spec]
    else:
        spec = SynthSpec(
            n_entities=args.entities,
            n_relations=args.relations,
            n_sentences=args.sentences,
            seed=args.seed,
            chains_per_sentence=args.chains,
            mid_tokens=_parse_mid_tokens(args.mid_tokens),
            splits=_parse_splits(args.splits),
        )
        inputs = []
    result = synthesize_multihop_corpus(spec)
    paths = result.write_files(out)
    counts = {
        "train": len(result.train),
        "valid": len(result.valid),
        "test": len(result.test),
        "relations": len(result.relations),
    }
    _write_manifest(out, "synth", argv, spec.seed, inputs, list(paths.values()), counts)
    print(json.dumps(counts, sort_keys=True))
    return EXIT_OK


def _load_split(path, relations: RelationVocab):
    sentences = list(parse_corpus_file(path))
    normalized, skips = normalize_dataset(sentences, relations)
    if not normalized:
        raise CorpusError(f"{path}: no sentence left after normalization")
    return normalized, dict(sorted(skips.items()))


def cmd_train(args, argv) -> int:
    config = TrainConfig.load(args.config) if args.config else TrainConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.layers is not None:
        overrides["layers"] = args.layers
    if overrides:
        config = TrainConfig.from_dict({**config.to_dict(), **overrides})

    relations = RelationVocab.from_files(args.relations, args.inverse_map)
    train, train_skips = _load_split(args.train, relations)
    valid, valid_skips = _load_split(args.valid, relations)
    vocab = Vocabulary.build(train)
    word_table = None
    if args.embeddings:
        if config.word_dim != 50:
            raise ConfigError("pretrained embeddings are 50-wide; set word_dim to 50")
        word_table = load_embedding_file(args.embeddings, vocab, named_rngs(config.seed)["init"])
    model = build_model(config, vocab, relations, word_table=word_table)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_training(config, train, valid, model, out_dir=out)
    _write_model_json(out / "model.json", config, vocab, relations)
    inputs = [args.train, args.valid, args.relations]
    if args.inverse_map:
        inputs.append(args.inverse_map)
    if args.config:
        inputs.append(args.config)
    if args.embeddings:
        inputs.append(args.embeddings)
    counts = {
        "train_sentences": len(train),
        "valid_sentences": len(valid),
        "train_skips": train_skips,
        "valid_skips": valid_skips,
        "best_epoch": result.best_epoch,
        "best_macro_f1": result.best_macro_f1,
        "epochs_run": result.epochs_run,
        "parameters": model.store.total_parameters(),
    }
    _write_manifest(out, "train", argv, config.seed, inputs,
                    ["checkpoint.bin", "run_log.jsonl", "model.json"], counts, config=config.to_dict())
    print(json.dumps({"best_epoch": result.best_epoch, "best_macro_f1": result.best_macro_f1},
                     sort_keys=True))
    return EXIT_OK


def _write_model_json(path, config: TrainConfig, vocab: Vocabulary, relations: RelationVocab):
    obj = {
        "config": config.to_dict(),
        "vocab": vocab.to_list(),
        "relations": relations.names,
        "inverse": relations.inverse,
    }
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, ensure_ascii=False, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def load_trained_model(model_dir) -> tuple[GpGnn, TrainConfig, RelationVocab, BackgroundSha256]:
    """The model ``gpgnn train`` wrote to ``model_dir``, its config and
    relations, and the SHA-256 of the checkpoint bytes it read, which a
    second thread computes until ``hexdigest()`` joins it.  The model is
    built with no initial draws, then filled from ``checkpoint.bin``; its
    parameters are views of the bytes being hashed, so nothing may write to
    them before the join.  A malformed ``model.json`` is a data error naming
    that file."""
    model_dir = Path(model_dir)
    path = model_dir / "model.json"
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise CorpusError(f"{path}: not a JSON object")
    inverse = obj.get("inverse", {})
    for key, ok in (("config", isinstance(obj.get("config"), dict)),
                    ("vocab", _is_str_list(obj.get("vocab"))),
                    ("relations", _is_str_list(obj.get("relations"))),
                    ("inverse", isinstance(inverse, dict) and _is_str_list(list(inverse.values())))):
        if not ok:
            raise CorpusError(f"{path}: {key!r} is missing or malformed (config and inverse are objects, "
                              "vocab and relations lists of strings)")
    try:
        config = TrainConfig.from_dict(obj["config"])
        vocab = Vocabulary(obj["vocab"])
        relations = RelationVocab(obj["relations"], inverse)
    except (ConfigError, CorpusError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    model = GpGnn(config.model_dims(), vocab, relations, None)
    return model, config, relations, model.store.load(model_dir / "checkpoint.bin")


def _predict_while_hashing(args):
    """The model in ``args.model_dir``, its config, and its predictions on
    ``args.data``, with the checkpoint hashed on a second thread meanwhile;
    the thread is joined on every way out."""
    model, config, relations, digest = load_trained_model(args.model_dir)
    try:
        data, skips = _load_split(args.data, relations)
        records = predict_pairs(model, data)
    finally:
        checkpoint_sha256 = digest.hexdigest()
    return config, relations, records, skips, checkpoint_sha256


def cmd_eval(args, argv) -> int:
    config, relations, records, skips, checkpoint_sha256 = _predict_while_hashing(args)
    report, ranked = metrics_report(records, relations, population=args.population)
    report["counts"]["normalization_skips"] = skips
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_report(out / "metrics.json", report)
    write_predictions(out / "predictions.jsonl", records)
    outputs = ["metrics.json", "predictions.jsonl"]
    if ranked is not None:
        write_pr_csv(out / "pr_curve.csv", ranked, report["counts"]["gold_facts"])
        outputs.append("pr_curve.csv")
    checkpoint = Path(args.model_dir) / "checkpoint.bin"
    inputs = [args.data, Path(args.model_dir) / "model.json", checkpoint]
    _write_manifest(out, "eval", argv, config.seed, inputs, outputs, {"records": len(records), "skips": skips},
                    config=config.to_dict(), read={str(checkpoint): checkpoint_sha256})
    print(json.dumps({"accuracy": report["accuracy"], "macro_f1": report["macro_f1"]}, sort_keys=True))
    return EXIT_OK


def cmd_predict(args, argv) -> int:
    config, _relations, records, skips, checkpoint_sha256 = _predict_while_hashing(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_predictions(out / "predictions.jsonl", records)
    checkpoint = Path(args.model_dir) / "checkpoint.bin"
    inputs = [args.data, Path(args.model_dir) / "model.json", checkpoint]
    _write_manifest(out, "predict", argv, config.seed, inputs, ["predictions.jsonl"],
                    {"records": len(records), "skips": skips}, read={str(checkpoint): checkpoint_sha256})
    print(json.dumps({"records": len(records)}, sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args, argv) -> int:
    for flag, value in (("--step", args.step), ("--tol", args.tol)):
        if not (math.isfinite(value) and value > 0):
            raise UsageError(f"{flag} must be a finite number > 0, got {value!r}")
    check = full_model_gradcheck(seed=args.seed, layers=args.layers, step=args.step, tol=args.tol)
    print(
        f"gradcheck: {check.n_parameters} parameters, {check.n_coordinates} coordinates, "
        f"max relative error {check.max_rel_error:.3e} (worst: {check.worst_parameter})"
    )
    if not check.passed:
        print(f"gradient check FAILED at tol {args.tol}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
