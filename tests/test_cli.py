import builtins
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import struct
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpgnn import autodiff, cli
from gpgnn.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, load_trained_model, main
from gpgnn.corpus import Vocabulary
from gpgnn.layers import load_checkpoint
from gpgnn.training import TrainConfig

from conftest import TOY_RELATIONS, make_sentence, two_entity_sentence


TINY_CONFIG = dict(
    layers=2, d_n=4, learning_rate=0.01, batch_size=6, dropout=0.0,
    hidden_size=6, epochs=2, patience=3, seed=1, word_dim=5, position_dim=2,
)


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = main(["synth", "--out", str(out), "--seed", "4", "--sentences", "24",
                 "--entities", "12", "--relations", "2", "--chains", "1",
                 "--splits", "0.5,0.25,0.25"])
    assert code == EXIT_OK
    return out


def write_config(tmp_path, **overrides):
    cfg = {**TINY_CONFIG, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert "usage" in capsys.readouterr().err.lower()


def test_no_subcommand_is_usage_error():
    assert main([]) == EXIT_USAGE


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["preprocess", "--out", "x"]) == EXIT_USAGE


def test_missing_file_is_data_error(tmp_path, capsys):
    assert main(["preprocess", "--input", str(tmp_path / "nope.jsonl"),
                 "--relations", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == EXIT_DATA


def test_synth_writes_expected_files(synth_dir):
    for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "relations.json",
                 "inverse_map.json", "synth_meta.json", "manifest.json"):
        assert (synth_dir / name).exists(), name
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 4
    assert manifest["counts"]["train"] == 12


def test_preprocess_skips_oversized_sentence_and_counts_it(tmp_path):
    relations = tmp_path / "relations.json"
    relations.write_text(json.dumps(["NA", "part of", "has a member"]))
    inverse = tmp_path / "inverse.json"
    inverse.write_text(json.dumps({"part of": "has a member", "has a member": "part of"}))

    tokens = [f"t{k}" for k in range(12)]
    big = make_sentence("big", tokens, [(k, k + 1) for k in range(10)], [])
    ok = make_sentence("ok", ["earth", "in", "space"], [(0, 1), (2, 3)], [(0, 1, "part of")])
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(ok.to_json() + "\n" + big.to_json() + "\n")

    out = tmp_path / "pre"
    code = main(["preprocess", "--input", str(corpus), "--relations", str(relations),
                 "--inverse-map", str(inverse), "--out", str(out), "--splits", "1.0,0.0,0.0",
                 "--dense"])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counts"]["skipped"] == {"too_many_entities": 1}
    assert manifest["counts"]["split_sizes"]["train"] == 1
    assert (out / "test_dense.jsonl").exists()
    train_lines = (out / "train.jsonl").read_text().strip().splitlines()
    triples = json.loads(train_lines[0])["triples"]
    assert len(triples) == 2  # gold + reversed


@pytest.mark.parametrize("splits", ["nan,0.5,0.5", "0.5,0.5,nan"])
def test_preprocess_rejects_non_finite_splits_before_reading(tmp_path, capsys, splits):
    relations = tmp_path / "relations.json"
    relations.write_text(json.dumps(["NA", "part of"]))
    corpus = tmp_path / "corpus.jsonl"
    ok = make_sentence("ok", ["earth", "in", "space"], [(0, 1), (2, 3)], [(0, 1, "part of")])
    corpus.write_text(ok.to_json() + "\n")
    out = tmp_path / "pre"
    # a missing input still reads as a usage error: --splits is checked first
    for data in (corpus, tmp_path / "missing.jsonl"):
        assert main(["preprocess", "--input", str(data), "--relations", str(relations),
                     "--out", str(out), "--splits", splits]) == EXIT_USAGE
        assert "--splits" in capsys.readouterr().err
        assert not out.exists()


def test_preprocess_rejects_negative_seed_before_writing(tmp_path, capsys):
    relations = tmp_path / "relations.json"
    relations.write_text(json.dumps(["NA", "part of"]))
    corpus = tmp_path / "corpus.jsonl"
    ok = make_sentence("ok", ["earth", "in", "space"], [(0, 1), (2, 3)], [(0, 1, "part of")])
    corpus.write_text(ok.to_json() + "\n")
    out = tmp_path / "pre"
    assert main(["preprocess", "--input", str(corpus), "--relations", str(relations),
                 "--out", str(out), "--seed", "-1"]) == EXIT_DATA
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_train_eval_predict_roundtrip(tmp_path, synth_dir):
    cfg = write_config(tmp_path)
    run = tmp_path / "run"
    code = main(["train", "--train", str(synth_dir / "train.jsonl"),
                 "--valid", str(synth_dir / "valid.jsonl"),
                 "--relations", str(synth_dir / "relations.json"),
                 "--inverse-map", str(synth_dir / "inverse_map.json"),
                 "--config", str(cfg), "--out", str(run)])
    assert code == EXIT_OK
    for name in ("checkpoint.bin", "run_log.jsonl", "model.json", "manifest.json"):
        assert (run / name).exists(), name
    log_lines = [json.loads(l) for l in (run / "run_log.jsonl").read_text().splitlines()]
    assert log_lines[0]["event"] == "config"
    assert all("wall_ms" in e for e in log_lines)

    ev = tmp_path / "eval"
    code = main(["eval", "--model-dir", str(run), "--data", str(synth_dir / "test.jsonl"),
                 "--out", str(ev)])
    assert code == EXIT_OK
    report = json.loads((ev / "metrics.json").read_text())
    assert 0.0 <= report["accuracy"] <= 1.0
    assert set(report["p_at"]) <= {"5", "10", "15", "20"}
    assert (ev / "predictions.jsonl").exists()
    assert (ev / "pr_curve.csv").exists()

    pr = tmp_path / "pred"
    code = main(["predict", "--model-dir", str(run), "--data", str(synth_dir / "test.jsonl"),
                 "--out", str(pr)])
    assert code == EXIT_OK
    lines = (pr / "predictions.jsonl").read_text().strip().splitlines()
    test_sentences = (synth_dir / "test.jsonl").read_text().strip().splitlines()
    assert len(lines) == 6 * len(test_sentences)  # m=3 -> 6 ordered pairs each
    record = json.loads(lines[0])
    assert abs(sum(record["probs"]) - 1.0) < 1e-9


def test_layer_and_seed_overrides_land_in_manifest(tmp_path, synth_dir):
    cfg = write_config(tmp_path)
    run = tmp_path / "run1"
    code = main(["train", "--train", str(synth_dir / "train.jsonl"),
                 "--valid", str(synth_dir / "valid.jsonl"),
                 "--relations", str(synth_dir / "relations.json"),
                 "--config", str(cfg), "--out", str(run), "--seed", "9", "--layers", "1"])
    assert code == EXIT_OK
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9
    assert manifest["config"]["layers"] == 1
    assert manifest["seed"] == 9


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seed", "7", "--layers", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max relative error" in out
    # an absurd tolerance forces the failure path
    assert main(["gradcheck", "--seed", "7", "--layers", "1", "--tol", "1e-18"]) == EXIT_NUMERIC


@pytest.mark.parametrize("flag, value", [
    ("--step", "0"), ("--step", "nan"), ("--step", "-1e-5"), ("--step", "inf"), ("--tol", "0"), ("--tol", "nan"),
])
def test_gradcheck_step_and_tol_must_be_finite_and_positive(capsys, flag, value):
    assert main(["gradcheck", "--layers", "1", f"{flag}={value}"]) == EXIT_USAGE
    assert flag in capsys.readouterr().err


def test_gradcheck_non_finite_probe_is_numeric_failure(capsys):
    # a step of 1e300 pushes the loss to a non-finite value at a probe point
    with np.errstate(all="ignore"):
        assert main(["gradcheck", "--layers", "1", "--step", "1e300"]) == EXIT_NUMERIC
    assert "numeric failure: non-finite value at finite-difference probe" in capsys.readouterr().err


def test_numeric_failure_exit_code_from_training(tmp_path, synth_dir):
    cfg = write_config(tmp_path, learning_rate=1e300, clip_norm=0.0, epochs=3)
    run = tmp_path / "run2"
    with np.errstate(all="ignore"):
        code = main(["train", "--train", str(synth_dir / "train.jsonl"),
                     "--valid", str(synth_dir / "valid.jsonl"),
                     "--relations", str(synth_dir / "relations.json"),
                     "--config", str(cfg), "--out", str(run)])
    assert code == EXIT_NUMERIC


def test_first_overflow_stops_training_at_epoch_0(tmp_path, synth_dir, capsys):
    """One batch per epoch at lr 1e300: the first step leaves every weight
    finite but near 1e300, and the validation pass of epoch 0 overflows.
    That overflow stops the run, before any checkpoint is written."""
    cfg = write_config(tmp_path, learning_rate=1e300, clip_norm=0.0, batch_size=12, epochs=3)
    run = tmp_path / "run"
    capsys.readouterr()
    code = main(["train", "--train", str(synth_dir / "train.jsonl"),
                 "--valid", str(synth_dir / "valid.jsonl"),
                 "--relations", str(synth_dir / "relations.json"),
                 "--config", str(cfg), "--out", str(run)])
    assert code == EXIT_NUMERIC
    assert re.match(r"numeric failure: validation at epoch 0: overflow", capsys.readouterr().err)
    assert not (run / "checkpoint.bin").exists()


def test_non_finite_weights_stop_training_before_validation(tmp_path, synth_dir, capsys):
    """One batch per epoch at lr 1e308: the first optimizer update overflows,
    and the step that leaves a weight non-finite stops the run before a
    validation pass or a checkpoint sees it."""
    cfg = write_config(tmp_path, learning_rate=1e308, clip_norm=0.0, batch_size=12, epochs=3)
    run = tmp_path / "run"
    capsys.readouterr()
    with np.errstate(all="ignore"):
        code = main(["train", "--train", str(synth_dir / "train.jsonl"),
                     "--valid", str(synth_dir / "valid.jsonl"),
                     "--relations", str(synth_dir / "relations.json"),
                     "--config", str(cfg), "--out", str(run)])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert re.search(r"numeric failure: parameter '[\w.]+' is not finite after optimizer step \d+", err), err
    if (run / "checkpoint.bin").exists():
        assert all(np.isfinite(a).all() for a in load_checkpoint(run / "checkpoint.bin")[0].values())


def test_model_json_from_before_workers_removal_loads(tmp_path, synth_dir, capsys):
    """model.json and --config files written while ``workers`` was a setting
    hold "workers": 1.  That entry still loads; any other value is a data
    error, and the flag itself is gone."""
    run = tmp_path / "run"
    train_args = ["train", "--train", str(synth_dir / "train.jsonl"),
                  "--valid", str(synth_dir / "valid.jsonl"),
                  "--relations", str(synth_dir / "relations.json")]
    legacy_cfg = write_config(tmp_path, workers=1)
    assert main(train_args + ["--config", str(legacy_cfg), "--out", str(run)]) == EXIT_OK
    model_json = run / "model.json"
    obj = json.loads(model_json.read_text())
    assert "workers" not in obj["config"]

    eval_args = ["eval", "--model-dir", str(run), "--data", str(synth_dir / "test.jsonl")]
    obj["config"]["workers"] = 1
    model_json.write_text(json.dumps(obj))
    assert main(eval_args + ["--out", str(tmp_path / "eval1")]) == EXIT_OK

    obj["config"]["workers"] = 2
    model_json.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(eval_args + ["--out", str(tmp_path / "eval2")]) == EXIT_DATA
    assert "workers" in capsys.readouterr().err

    assert main(train_args + ["--out", str(tmp_path / "run2"), "--workers", "1"]) == EXIT_USAGE


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--seed", "4", "--sentences", "24", "--entities", "12",
                 "--relations", "2", "--chains", "1", "--splits", "0.5,0.25,0.25"]) == EXIT_OK
    cfg = write_config(root)
    run = root / "run"
    assert main(["train", "--train", str(data / "train.jsonl"), "--valid", str(data / "valid.jsonl"),
                 "--relations", str(data / "relations.json"), "--config", str(cfg),
                 "--out", str(run)]) == EXIT_OK
    return data, run


def _hidden_size_30(run):
    obj = json.loads((run / "model.json").read_text())
    obj["config"]["hidden_size"] = 30
    (run / "model.json").write_text(json.dumps(obj))


def _edit_model_json(change):
    def edit(run):
        obj = json.loads((run / "model.json").read_text())
        (run / "model.json").write_text(json.dumps(change(obj)))
    return edit


def _cut_checkpoint(keep):
    def cut(run):
        path = run / "checkpoint.bin"
        raw = path.read_bytes()
        path.write_bytes(raw[: keep(raw)])
    return cut


@pytest.mark.parametrize("corrupt, named", [
    pytest.param(_hidden_size_30, "checkpoint.bin", id="model-json-hidden-size"),
    pytest.param(_cut_checkpoint(lambda raw: 4), "checkpoint.bin", id="four-bytes"),
    pytest.param(_cut_checkpoint(lambda raw: len(raw) // 2), "checkpoint.bin", id="half"),
    pytest.param(_cut_checkpoint(lambda raw: 8 + int.from_bytes(raw[:8], "little") // 2), "checkpoint.bin",
                 id="inside-header"),
    pytest.param(_edit_model_json(lambda obj: {k: v for k, v in obj.items() if k != "config"}), "model.json",
                 id="model-json-no-config"),
    pytest.param(_edit_model_json(lambda obj: [obj]), "model.json", id="model-json-not-object"),
    pytest.param(_edit_model_json(lambda obj: {**obj, "vocab": "abc"}), "model.json",
                 id="model-json-vocab-not-list"),
])
def test_checkpoint_load_errors_are_data_errors_naming_the_file(tmp_path, trained_run, corrupt, named, capsys):
    data, run = trained_run
    bad = tmp_path / "run"
    shutil.copytree(run, bad)
    corrupt(bad)
    capsys.readouterr()
    assert main(["eval", "--model-dir", str(bad), "--data", str(data / "test.jsonl"),
                 "--out", str(tmp_path / "eval")]) == EXIT_DATA
    assert str(bad / named) in capsys.readouterr().err


@pytest.mark.parametrize("spec, flags, code, named", [
    pytest.param({"bogus": 1}, [], EXIT_DATA, "bogus", id="spec-unknown-field"),
    pytest.param({"mid_tokens": 5}, [], EXIT_DATA, "mid_tokens", id="spec-mid-tokens-int"),
    pytest.param({"n_relations": "3"}, [], EXIT_DATA, "n_relations", id="spec-relations-str"),
    pytest.param([], [], EXIT_DATA, "object", id="spec-not-object"),
    pytest.param({"n_sentences": -3}, [], EXIT_DATA, "n_sentences", id="spec-negative-sentences"),
    pytest.param(None, ["--mid-tokens", "1,x"], EXIT_USAGE, "--mid-tokens", id="flag-mid-tokens"),
    pytest.param(None, ["--sentences", "-3"], EXIT_DATA, "n_sentences", id="flag-negative-sentences"),
])
def test_bad_synth_input_fails_cleanly(tmp_path, capsys, spec, flags, code, named):
    argv = ["synth", "--out", str(tmp_path / "data")] + flags
    spec_path = tmp_path / "spec.json"
    if spec is not None:
        spec_path.write_text(json.dumps(spec))
        argv += ["--spec", str(spec_path)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert named in err
    if spec is not None:
        assert str(spec_path) in err
    assert not (tmp_path / "data" / "train.jsonl").exists()


@pytest.mark.parametrize("split", ["train", "valid", "eval"])
def test_empty_split_is_data_error_naming_the_file(tmp_path, trained_run, capsys, split):
    data, run = trained_run
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    files = {"train": data / "train.jsonl", "valid": data / "valid.jsonl", split: empty}
    if split == "eval":
        argv = ["eval", "--model-dir", str(run), "--data", str(empty), "--out", str(tmp_path / "eval")]
    else:
        argv = ["train", "--train", str(files["train"]), "--valid", str(files["valid"]),
                "--relations", str(data / "relations.json"), "--config", str(write_config(tmp_path)),
                "--out", str(tmp_path / "run")]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert f"{empty}: no sentence left after normalization" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_non_finite_embedding_is_a_data_error_naming_the_line(tmp_path, trained_run, capsys, value):
    """A pretrained vector with a nan or infinite value stops ``train``
    with exit 2 naming the file, the line and the value, before any
    weight or loss sees it."""
    data, _run = trained_run
    word = json.loads((data / "train.jsonl").read_text(encoding="utf-8").splitlines()[0])["tokens"][0]
    glove = tmp_path / "glove.txt"
    bad = ["0.1"] * 49 + [value]
    glove.write_text(f"unrelated {' '.join(['0.5'] * 50)}\n{word} {' '.join(bad)}\n", encoding="utf-8")
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--train", str(data / "train.jsonl"), "--valid", str(data / "valid.jsonl"),
                 "--relations", str(data / "relations.json"), "--embeddings", str(glove),
                 "--config", str(write_config(tmp_path, word_dim=50)), "--out", str(out)]) == EXIT_DATA
    assert f"error: {glove}:2: non-finite embedding value {value!r}" in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("where, key", [("entities", "end"), ("triples", "o")])
@pytest.mark.parametrize("value", [1.9, "0", True], ids=["float", "string", "bool"])
def test_corpus_integer_fields_must_be_json_integers(tmp_path, trained_run, capsys, where, key, value):
    """Entity spans and triple indices are JSON integers: a float, a
    string or a bool exits 2 naming the file, the line and the field,
    where ``int()`` once read 1.9 as 1."""
    data, _run = trained_run
    lines = (data / "train.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record[where][0][key] = value
    lines[1] = json.dumps(record)
    train = tmp_path / "train.jsonl"
    train.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--train", str(train), "--valid", str(data / "valid.jsonl"),
                 "--relations", str(data / "relations.json"), "--config", str(write_config(tmp_path)),
                 "--out", str(tmp_path / "run")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: {train}:2: " in err and f"{key!r} must be a JSON integer, got {json.dumps(value)}" in err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_non_finite_probabilities_are_a_numeric_failure(tmp_path, trained_run, capsys, command):
    data, run = trained_run
    bad = tmp_path / "run"
    shutil.copytree(run, bad)
    model, _config, _relations, digest = load_trained_model(bad)
    digest.hexdigest()  # the hash reads the parameters' bytes; write after it
    dict(model.store.named())["head.layer1.b"].data[0] = np.nan
    model.store.save(bad / "checkpoint.bin")
    first = json.loads((data / "test.jsonl").read_text(encoding="utf-8").splitlines()[0])["id"]
    out = tmp_path / "out"
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert main([command, "--model-dir", str(bad), "--data", str(data / "test.jsonl"),
                     "--out", str(out)]) == EXIT_NUMERIC
    assert f"numeric failure: sentence {first!r}: non-finite probabilities" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("name", ["head.layer0.w", "encoder.layer0.mlp.layer0.w"])
def test_non_finite_weight_behind_a_relu_is_a_numeric_failure(tmp_path, trained_run, capsys, command, name):
    """A NaN in a layer that a relu follows leaves every probability finite
    (the relu maps NaN to 0), so prediction succeeds; the parameter check
    that runs beside it then stops the command with exit 3, naming the
    parameter, before --out exists."""
    data, run = trained_run
    bad = tmp_path / "run"
    shutil.copytree(run, bad)
    model, _config, _relations, digest = load_trained_model(bad)
    digest.hexdigest()
    dict(model.store.named())[name].data[0, 0] = np.nan
    model.store.save(bad / "checkpoint.bin")
    out = tmp_path / "out"
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert main([command, "--model-dir", str(bad), "--data", str(data / "test.jsonl"),
                     "--out", str(out)]) == EXIT_NUMERIC
    assert (f"numeric failure: {bad / 'checkpoint.bin'}: parameter {name!r} is not finite"
            in capsys.readouterr().err)
    assert not out.exists()


def test_manifests_record_the_machine(tmp_path, trained_run, monkeypatch):
    """train, eval and predict record the BLAS library, the BLAS
    thread-count variables (null where unset) and the usable CPU count."""
    data, _run = trained_run
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    run = tmp_path / "run"
    assert main(["train", "--train", str(data / "train.jsonl"), "--valid", str(data / "valid.jsonl"),
                 "--relations", str(data / "relations.json"), "--config", str(write_config(tmp_path)),
                 "--out", str(run)]) == EXIT_OK
    for command in ("eval", "predict"):
        assert main([command, "--model-dir", str(run), "--data", str(data / "test.jsonl"),
                     "--out", str(tmp_path / command)]) == EXIT_OK
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for out in (run, tmp_path / "eval", tmp_path / "predict"):
        machine = json.loads((out / "manifest.json").read_text())["machine"]
        assert machine == {
            "blas": {"name": blas["name"], "version": blas["version"]},
            "blas_thread_variables": {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None,
                                      "MKL_NUM_THREADS": None},
            "usable_cpus": cpus,
        }, out


def test_loaded_parameters_are_aligned_writable_views_of_the_bytes_read(tmp_path, trained_run, monkeypatch):
    """Loading creates no generator and so draws no weight.  Every parameter
    is float64, 8-byte aligned, writable and bit-equal to its bytes in the
    file, and eval's manifest holds the SHA-256 of the file."""
    data, run = trained_run

    def no_draws(*args, **kwargs):
        raise AssertionError("loading a trained model made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    monkeypatch.setattr(np.random, "SeedSequence", no_draws)
    model, _config, _relations, digest = load_trained_model(run)
    digest = digest.hexdigest()
    monkeypatch.undo()
    raw = (run / "checkpoint.bin").read_bytes()
    assert digest == hashlib.sha256(raw).hexdigest()
    (hlen,) = struct.unpack("<Q", raw[:8])
    entries = json.loads(raw[8 : 8 + hlen])["tensors"]
    assert sorted(entries) == [name for name, _ in model.store.named()]
    for name, p in model.store.named():
        shape, offset = tuple(entries[name]["shape"]), entries[name]["offset"]
        stored = np.frombuffer(raw, dtype="<f8", count=math.prod(shape), offset=8 + hlen + offset)
        assert p.data.dtype == np.float64 and p.shape == shape, name
        assert p.data.flags.aligned and p.data.ctypes.data % 8 == 0 and p.data.flags.writeable, name
        assert p.data.tobytes() == stored.tobytes(), name
    out = tmp_path / "eval"
    assert main(["eval", "--model-dir", str(run), "--data", str(data / "test.jsonl"), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"][str(run / "checkpoint.bin")] == digest


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_hash_runs_beside_the_model_and_is_always_joined(tmp_path, trained_run, capsys, command):
    """eval and predict hash checkpoint.bin on a second thread while the
    model runs.  The manifest holds the SHA-256 of the file, and no thread
    outlives the call: not on success, not on a data error after the hash
    began (a missing data file, a checkpoint that does not fit the model),
    and not on a truncated checkpoint, which still exits 2 naming it."""
    data, run = trained_run
    before = set(threading.enumerate())

    def call(model_dir, data_file, out):
        return main([command, "--model-dir", str(model_dir), "--data", str(data_file), "--out", str(tmp_path / out)])

    assert call(run, data / "test.jsonl", "ok") == EXIT_OK
    manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
    raw = (run / "checkpoint.bin").read_bytes()
    assert manifest["inputs"][str(run / "checkpoint.bin")] == hashlib.sha256(raw).hexdigest()
    assert set(threading.enumerate()) == before

    assert call(run, tmp_path / "missing.jsonl", "missing") == EXIT_DATA
    assert set(threading.enumerate()) == before
    wider = tmp_path / "wider"
    shutil.copytree(run, wider)
    _hidden_size_30(wider)
    assert call(wider, data / "test.jsonl", "wider") == EXIT_DATA
    assert set(threading.enumerate()) == before

    cut = tmp_path / "cut"
    shutil.copytree(run, cut)
    (cut / "checkpoint.bin").write_bytes(raw[: len(raw) // 2])
    capsys.readouterr()
    assert call(cut, data / "test.jsonl", "cut") == EXIT_DATA
    assert str(cut / "checkpoint.bin") in capsys.readouterr().err
    assert set(threading.enumerate()) == before


# the length prefix is the file's first 8 bytes, little-endian: bit 63 is
# its top bit, which makes the header length about 2**63
@given(st.sampled_from(["cut", "flip"]), st.integers(0, 2**40))
@example("flip", 63)
@example("cut", 0)
@example("cut", 9)
@settings(max_examples=60, deadline=None)
def test_corrupt_checkpoint_fails_cleanly_through_eval(trained_run, how, at):
    """A checkpoint truncated at any length exits 2 naming the file; one
    with any single bit flipped exits 0, 2 or 3, and nothing raises."""
    data, run = trained_run
    raw = bytearray((run / "checkpoint.bin").read_bytes())
    if how == "cut":
        raw = raw[: at % len(raw)]
    else:
        raw[at % (8 * len(raw)) // 8] ^= 1 << (at % 8)
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "run"
        bad.mkdir()
        shutil.copy(run / "model.json", bad / "model.json")
        (bad / "checkpoint.bin").write_bytes(bytes(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                np.errstate(all="ignore"):
            code = main(["eval", "--model-dir", str(bad), "--data", str(data / "test.jsonl"),
                         "--out", str(Path(tmp) / "eval")])
    if how == "cut":
        assert code == EXIT_DATA and str(bad / "checkpoint.bin") in err.getvalue(), err.getvalue()
    else:
        assert code in (EXIT_OK, EXIT_DATA, EXIT_NUMERIC), err.getvalue()


def test_failed_model_json_write_keeps_the_previous_file(tmp_path, monkeypatch):
    """A model.json write that dies partway (here, a disk that fills after
    200 bytes) leaves the previous file byte for byte, and no temporary
    file."""
    import errno

    import gpgnn.layers

    path = tmp_path / "model.json"
    vocab = Vocabulary.build([two_entity_sentence()])
    cli._write_model_json(path, TrainConfig(), vocab, TOY_RELATIONS)
    before = path.read_bytes()

    class FullDisk:
        def __init__(self, fh):
            self.fh, self.room = fh, 200

        def write(self, text):
            if len(text) > self.room:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.room -= len(text)
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(gpgnn.layers, "open", lambda *a, **kw: FullDisk(builtins.open(*a, **kw)), raising=False)
    with pytest.raises(OSError, match="No space"):
        cli._write_model_json(path, TrainConfig(layers=2), vocab, TOY_RELATIONS)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


# ---------------------------------------------------------------------------
# a model wide enough that each BiLSTM runs its two directions on two threads


WIDE_CONFIG = dict(TINY_CONFIG, hidden_size=256, dropout=0.5, epochs=2, seed=11)


@pytest.fixture
def worker_calls(monkeypatch):
    """The number of records that took the worker thread, with a CPU
    spare for it so that a wide model takes it on any host."""
    calls = []
    start = autodiff._lstm_worker
    monkeypatch.setattr(autodiff, "spare_cpus", lambda: 1)
    monkeypatch.setattr(autodiff, "_lstm_worker", lambda: calls.append(1) or start())
    return calls


def _train_and_eval(tmp_path, data, tag, **config):
    run, ev = tmp_path / f"run_{tag}", tmp_path / f"eval_{tag}"
    assert main(["train", "--train", str(data / "train.jsonl"), "--valid", str(data / "valid.jsonl"),
                 "--relations", str(data / "relations.json"),
                 "--config", str(write_config(tmp_path, **{**WIDE_CONFIG, **config})), "--out", str(run)]) == EXIT_OK
    assert main(["eval", "--model-dir", str(run), "--data", str(data / "test.jsonl"), "--out", str(ev)]) == EXIT_OK
    log = [{k: v for k, v in json.loads(line).items() if k != "wall_ms"}
           for line in (run / "run_log.jsonl").read_text().splitlines()]
    return [(run / "checkpoint.bin").read_bytes(), log, (ev / "metrics.json").read_bytes(),
            (ev / "predictions.jsonl").read_bytes()]


def test_wide_runs_are_byte_identical_threaded_and_serial(tmp_path, synth_dir, worker_calls, monkeypatch):
    """Criterion 8 at hidden size 256: two train + eval runs whose BiLSTMs
    take the worker thread write the same checkpoint, run log (wall_ms
    aside), metrics and predictions, byte for byte, as a run forced onto
    one thread.  Afterwards exactly one thread beyond those before remains:
    the worker, however many records used it."""
    before = set(threading.enumerate())
    first = _train_and_eval(tmp_path, synth_dir, "a")
    assert worker_calls, "the wide model never took the worker thread"
    calls = len(worker_calls)
    assert _train_and_eval(tmp_path, synth_dir, "b") == first
    workers = [th for th in threading.enumerate() if th.name.startswith("gpgnn-lstm")]
    assert len(workers) == 1 and set(threading.enumerate()) - before <= set(workers)
    monkeypatch.setattr(autodiff, "PARALLEL_MIN_MULADDS", math.inf)
    assert _train_and_eval(tmp_path, synth_dir, "serial") == first
    assert len(worker_calls) == 2 * calls


def test_wide_worker_direction_overflow_stops_training(tmp_path, synth_dir, capsys, worker_calls):
    """The threaded twin of the lr-1e300 run: at hidden size 256 the
    validation pass of epoch 0 overflows in both directions of the first
    BiLSTM, the worker's error wins, and training stops with exit 3 naming
    the phase and the epoch, before any checkpoint is written."""
    cfg = write_config(tmp_path, **{**WIDE_CONFIG, "learning_rate": 1e300, "clip_norm": 0.0,
                                    "batch_size": 12, "epochs": 3})
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--train", str(synth_dir / "train.jsonl"), "--valid", str(synth_dir / "valid.jsonl"),
                 "--relations", str(synth_dir / "relations.json"), "--config", str(cfg),
                 "--out", str(run)]) == EXIT_NUMERIC
    assert re.match(r"numeric failure: validation at epoch 0: overflow", capsys.readouterr().err)
    assert worker_calls
    assert not (run / "checkpoint.bin").exists()
