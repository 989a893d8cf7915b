#!/usr/bin/env python3
"""SHA-256s of what gpgnn writes for a few fixed small runs, so that two
checkouts can be shown to compute the same numbers.

Each case synthesizes a corpus, trains on it, evaluates the test split under
both ``--population`` values and predicts on it, all in process through
``gpgnn.cli.main``.  The hashes cover ``checkpoint.bin``, ``run_log.jsonl``
without its ``wall_ms`` fields, each evaluation's ``metrics.json``,
``predictions.jsonl`` and ``pr_curve.csv`` (null when not written), and
``predict``'s ``predictions.jsonl``.  Manifests are left out: they name the
output directory.  Standard output is one JSON object, case name to file
name to hash; compare it between checkouts.

``--models PARENT_OUT`` checks the forward pass apart from training: it
trains nothing, and evaluates and predicts with the corpora and trained run
directories that a run of this script (in any checkout) left in
PARENT_OUT, printing only those hashes.  Two checkouts whose training
rounds differently can still be shown to evaluate one model identically.
A change at the rounding level moves every hash, so for each case and each
``predictions.jsonl`` it writes, this mode also prints, under ``diff``, the
largest |p - p_parent| over every record's probabilities against the same
file in PARENT_OUT, and the number of records whose argmax differs.

Run:  PYTHONPATH=src python3 scripts/output_hashes.py OUT_DIR [--models PARENT_OUT]
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported, so that no hash depends on
# how the host splits a matrix product
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from gpgnn.cli import EXIT_OK, main  # noqa: E402

# the depth experiment's model (scripts/depth_experiment.py) at lr 0.002
DEPTH = dict(layers=2, learning_rate=0.002, batch_size=12, dropout=0.1, hidden_size=32,
             activation="relu", adjacency="untied", epochs=4, patience=4, seed=101,
             word_dim=16, position_dim=4, na_weight=0.25)

# name -> (synth flags, config); each chain puts 3 entities in a sentence
CASES = {
    "depth": (["--chains", "2", "--entities", "30", "--relations", "5", "--mid-tokens", "1,2",
               "--sentences", "96"], DEPTH),
    "reference": (["--chains", "1", "--entities", "20", "--relations", "3", "--sentences", "140"],
                  dict(layers=2, epochs=2, patience=2, seed=101)),
}
NINE = ["--chains", "3", "--entities", "30", "--relations", "5", "--mid-tokens", "1,2", "--sentences", "48"]
for _act, _adjacency, _layers in (("tanh", "tied", 3), ("relu", "tied", 3), ("sigmoid", "untied", 2)):
    CASES[f"m9_{_act}_{_adjacency}_k{_layers}"] = (
        NINE, {**DEPTH, "activation": _act, "adjacency": _adjacency, "layers": _layers,
               "epochs": 3, "patience": 3})


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != EXIT_OK:
        sys.exit(f"gpgnn {' '.join(argv)} exited {code}")


def sha256(path: Path, drop_wall_ms: bool = False) -> str | None:
    if not path.exists():
        return None
    raw = path.read_bytes()
    if drop_wall_ms:
        lines = [json.loads(line) for line in raw.decode("utf-8").splitlines()]
        raw = "".join(json.dumps({k: v for k, v in e.items() if k != "wall_ms"}, sort_keys=True) + "\n"
                      for e in lines).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def train_case(out: Path, synth_flags: list[str], config: dict) -> dict[str, str | None]:
    """Synthesize and train under ``out``; hash the checkpoint and run log."""
    data, run_dir = out / "data", out / "run"
    run(["synth", "--out", str(data), "--seed", "101", "--splits", "0.5,0.2,0.3", *synth_flags])
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    run(["train", "--train", str(data / "train.jsonl"), "--valid", str(data / "valid.jsonl"),
         "--relations", str(data / "relations.json"), "--inverse-map", str(data / "inverse_map.json"),
         "--config", str(config_path), "--out", str(run_dir)])
    return {"checkpoint.bin": sha256(run_dir / "checkpoint.bin"),
            "run_log.jsonl": sha256(run_dir / "run_log.jsonl", drop_wall_ms=True)}


def prob_diff(path: Path, parent: Path) -> dict[str, float | int]:
    """The largest absolute probability difference between two
    ``predictions.jsonl`` files of the same pairs, and how many records'
    argmax differs."""
    def probs(p: Path) -> np.ndarray:
        return np.array([json.loads(line)["probs"] for line in p.read_text(encoding="utf-8").splitlines()])

    ours, theirs = probs(path), probs(parent)
    if ours.shape != theirs.shape:
        sys.exit(f"{path} holds {ours.shape} probabilities, {parent} {theirs.shape}")
    return {"max_abs_dprob": float(np.abs(ours - theirs).max(initial=0.0)),
            "argmax_changes": int((ours.argmax(axis=1) != theirs.argmax(axis=1)).sum())}


def eval_case(case: Path, out: Path) -> dict[str, str | None]:
    """Evaluate and predict with the run under ``case`` on its test split,
    writing under ``out``; hash what they write."""
    hashes = {}
    test = ["--model-dir", str(case / "run"), "--data", str(case / "data" / "test.jsonl")]
    for population in ("predictions", "gold-size"):
        ev = out / f"eval-{population}"
        run(["eval", *test, "--out", str(ev), "--population", population])
        for name in ("metrics.json", "predictions.jsonl", "pr_curve.csv"):
            hashes[f"eval-{population}/{name}"] = sha256(ev / name)
    run(["predict", *test, "--out", str(out / "predict")])
    hashes["predict/predictions.jsonl"] = sha256(out / "predict" / "predictions.jsonl")
    return hashes


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", help="an empty or missing directory for the runs' files")
    p.add_argument("--models", metavar="PARENT_OUT", default=None,
                   help="the OUT directory of an earlier run of this script, perhaps from another "
                        "checkout: evaluate and predict with its corpora and trained runs, train "
                        "nothing, and print only the evaluation and prediction hashes")
    return p.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    root = Path(args.out)
    if root.exists() and any(root.iterdir()):
        sys.exit(f"{root} is not empty")
    hashes = {}
    for name, (flags, cfg) in CASES.items():
        if args.models is None:
            hashes[name] = {**train_case(root / name, flags, cfg), **eval_case(root / name, root / name)}
        else:
            parent = Path(args.models) / name
            hashes[name] = eval_case(parent, root / name)
            hashes[name]["diff"] = {
                run: prob_diff(root / name / run / "predictions.jsonl", parent / run / "predictions.jsonl")
                for run in ("eval-predictions", "eval-gold-size", "predict")
            }
    print(json.dumps(hashes, indent=1, sort_keys=True))
