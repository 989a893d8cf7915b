"""Tests of the benchmark's own checks: each must pass on the program's real
output and reject a deliberately corrupted one.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import shutil
import struct
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from gpgnn import cli  # noqa: E402
from gpgnn.corpus import Vocabulary, normalize_dataset  # noqa: E402
from gpgnn.synth import SynthSpec, synthesize_multihop_corpus  # noqa: E402
from gpgnn.training import TrainConfig, build_model, run_training  # noqa: E402

EPOCHS = 4


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small 2-layer model trained on 2-chain sentences, and its eval output."""
    root = tmp_path_factory.mktemp("bench")
    spec = SynthSpec(n_entities=20, n_relations=3, n_sentences=40, seed=5, chains_per_sentence=2,
                     mid_tokens=(1, 2), splits=(0.6, 0.1, 0.3))
    corpus = synthesize_multihop_corpus(spec)
    files = corpus.write_files(root / "data")
    train, _ = normalize_dataset(corpus.train, corpus.relations)
    valid, _ = normalize_dataset(corpus.valid, corpus.relations)
    config = TrainConfig(layers=2, learning_rate=0.01, batch_size=8, dropout=0.1, hidden_size=12,
                         epochs=EPOCHS, patience=EPOCHS, seed=3, word_dim=8, position_dim=3)
    vocab = Vocabulary.build(train)
    model = build_model(config, vocab, corpus.relations)
    run_dir, eval_dir = root / "run", root / "eval"
    run_training(config, train, valid, model, out_dir=run_dir)
    cli._write_model_json(run_dir / "model.json", config, vocab, corpus.relations)
    with redirect_stdout(StringIO()):
        assert cli.main(["eval", "--model-dir", str(run_dir), "--data", files["test"],
                         "--out", str(eval_dir)]) == 0
    return {"root": root, "run": run_dir, "eval": eval_dir, "test": files["test"],
            "model": model, "train": train, "config": config}


def _copy(trained, tmp_path):
    """A scratch copy of the run and eval directories to corrupt."""
    run, ev = tmp_path / "run", tmp_path / "eval"
    shutil.copytree(trained["run"], run)
    shutil.copytree(trained["eval"], ev)
    return run, ev


def _rewrite_predictions(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def _assert_rejects(result):
    assert result.failed, "the check passed a corrupted output"
    assert result.problems


# ---------------------------------------------------------------------------
# the prediction check


def test_eval_check_passes_on_program_output(trained):
    result = checks.check_eval(trained["run"], trained["test"], trained["eval"])
    assert not result.failed, result.problems
    assert result.records == sum(len(s["entities"]) * (len(s["entities"]) - 1)
                                 for s in checks.read_jsonl(trained["test"]))
    assert result.max_prob_diff < 1e-12


def test_eval_check_tolerates_float32_compute(trained):
    result = checks.check_eval(trained["run"], trained["test"], trained["eval"], dtype=np.float32)
    assert not result.failed, result.problems
    assert 1e-9 < result.max_prob_diff < checks.PROB_TOL / 10


def _swap_gate_blocks(original):
    def lstm_direction(w, prefix, x, reverse):
        swapped = dict(w)
        for kind in ("w", "u", "b"):
            swapped[f"{prefix}.{kind}_i"] = w[f"{prefix}.{kind}_f"]
            swapped[f"{prefix}.{kind}_f"] = w[f"{prefix}.{kind}_i"]
        return original(swapped, prefix, x, reverse)
    return lstm_direction


def _transpose_matrices(original):
    def edge_matrices(*args):
        return original(*args).transpose(0, 2, 1)
    return edge_matrices


def _drop_a_message(original):
    def propagate(ref, mats, edges, h):
        out = original(ref, mats, edges, h)
        i, j = edges[-1]
        return out - ref.act(mats[len(edges) - 1] @ h[j]) * (np.arange(len(h)) == i)[:, None]
    return propagate


def _flags_on_wrong_node(original):
    def initial_states(m, d, pair, dtype=np.float64):
        return original(m, d, (pair[1], pair[0]), dtype)
    return initial_states


@pytest.mark.parametrize("name, fault", [
    ("lstm_direction", _swap_gate_blocks),
    ("edge_matrices", _transpose_matrices),
    ("propagate", _drop_a_message),
    ("initial_states", _flags_on_wrong_node),
])
def test_tolerance_catches_model_faults(trained, monkeypatch, name, fault):
    """A forward pass with any of these faults disagrees with the program's
    by more than the tolerance, so the same fault in the program would fail
    the check."""
    monkeypatch.setattr(checks, name, fault(getattr(checks, name)))
    result = checks.check_eval(trained["run"], trained["test"], trained["eval"])
    _assert_rejects(result)
    assert result.max_prob_diff > 10 * checks.PROB_TOL


def test_eval_check_rejects_perturbed_probability(trained, tmp_path):
    run, ev = _copy(trained, tmp_path)

    def perturb(lines):
        rec = json.loads(lines[7])
        rec["probs"][0] -= 1e-3
        rec["probs"][1] += 1e-3  # still sums to one
        lines[7] = json.dumps(rec)
        return lines

    _rewrite_predictions(ev / "predictions.jsonl", perturb)
    result = checks.check_eval(run, trained["test"], ev)
    _assert_rejects(result)
    assert result.failed == {json.loads(
        (trained["eval"] / "predictions.jsonl").read_text().splitlines()[7])["sentence_id"]}

    # a reference pass shared with an earlier, correct call still rejects it
    cache = {}
    assert not checks.check_eval(run, trained["test"], trained["eval"], reference_cache=cache).failed
    assert cache
    assert checks.check_eval(run, trained["test"], ev, reference_cache=cache).failed == result.failed


def test_eval_check_rejects_non_simplex(trained, tmp_path):
    run, ev = _copy(trained, tmp_path)

    def rescale(lines):
        rec = json.loads(lines[0])
        rec["probs"] = [p * 1.01 for p in rec["probs"]]
        lines[0] = json.dumps(rec)
        return lines

    _rewrite_predictions(ev / "predictions.jsonl", rescale)
    result = checks.check_eval(run, trained["test"], ev)
    _assert_rejects(result)
    assert any("not a probability vector" in p for p in result.problems)


def test_eval_check_rejects_dropped_record(trained, tmp_path):
    run, ev = _copy(trained, tmp_path)
    _rewrite_predictions(ev / "predictions.jsonl", lambda lines: lines[:-1])
    result = checks.check_eval(run, trained["test"], ev)
    _assert_rejects(result)
    assert any("expected sum m(m-1)" in p for p in result.problems)


def test_eval_check_rejects_weights_unlike_checkpoint(trained, tmp_path):
    run, ev = _copy(trained, tmp_path)
    path = run / "checkpoint.bin"
    raw = bytearray(path.read_bytes())
    (hlen,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8 : 8 + hlen])
    at = 8 + hlen + header["tensors"]["head.layer1.b"]["offset"]
    (value,) = struct.unpack("<d", raw[at : at + 8])
    raw[at : at + 8] = struct.pack("<d", value + 0.05)
    path.write_bytes(bytes(raw))
    _assert_rejects(checks.check_eval(run, trained["test"], ev))


def test_eval_check_rejects_wrong_metric(trained, tmp_path):
    run, ev = _copy(trained, tmp_path)
    metrics = json.loads((ev / "metrics.json").read_text())
    metrics["macro_f1"] += 1e-6
    (ev / "metrics.json").write_text(json.dumps(metrics))
    result = checks.check_eval(run, trained["test"], ev)
    _assert_rejects(result)
    assert any("macro_f1" in p for p in result.problems)


def test_recomputed_metrics_count_unlabelled_pairs_as_na():
    # gold: pairs 0,1 labelled 1; pair 2 unlabelled (NA = 0)
    acc, f1 = checks.sentence_metrics(pred=[1, 0, 2], gold=[1, 1, 0], na=0)
    assert acc == pytest.approx(1 / 3)
    # class 1: tp 1, fn 1 -> 2/3; class 2: fp 1 -> 0
    assert f1 == pytest.approx((2 / 3 + 0.0) / 2)


# ---------------------------------------------------------------------------
# the training checks


def test_gradient_check_passes_and_rejects_flipped_sign(trained):
    model, config = trained["model"], trained["config"]
    loss_at, params, grads = checks.batch_gradient(model, trained["train"][: config.batch_size],
                                                   config.na_weight)
    before = {n: p.copy() for n, p in params.items()}
    good = checks.directional_check(loss_at, params, grads, seed=1)
    assert good.passed, good
    flipped = checks.directional_check(loss_at, params, {n: -g for n, g in grads.items()}, seed=1)
    assert not flipped.passed
    assert all(np.array_equal(before[n], params[n]) for n in params)  # weights restored


def test_gradient_check_rejects_one_wrong_tensor(trained):
    model, config = trained["model"], trained["config"]
    loss_at, params, grads = checks.batch_gradient(model, trained["train"][: config.batch_size],
                                                   config.na_weight)
    name = max(grads, key=lambda n: float(np.sum(grads[n] * grads[n])))
    wrong = dict(grads, **{name: grads[name] * 1.5})
    assert not checks.directional_check(loss_at, params, wrong, seed=1).passed


def test_run_log_check(trained, tmp_path):
    assert checks.check_run_log(trained["run"], EPOCHS) == []
    assert checks.check_run_log(trained["run"], EPOCHS + 1)  # epoch count differs

    events = checks.read_jsonl(trained["run"] / "run_log.jsonl")
    train_epochs = [e for e in events if e.get("split") == "train"]
    train_epochs[-1]["loss"] = train_epochs[0]["loss"]  # no improvement
    (tmp_path / "run_log.jsonl").write_text("".join(json.dumps(e) + "\n" for e in events))
    assert any("did not fall" in p for p in checks.check_run_log(tmp_path, EPOCHS))
