"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s`.

The two training-based criteria (overfit, depth comparison) dominate the
runtime; everything together stays well inside the stated budgets on one
worker.
"""

import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

from gpgnn import autodiff as ad
from gpgnn.autodiff import Tensor
from gpgnn.cli import EXIT_OK, main
from gpgnn.corpus import normalize_dataset, split_dense_subset
from gpgnn.evaluation import (
    PredictionRecord,
    pr_curve_points,
    precision_at_k_percent,
    rank_bags,
    sentence_metrics,
)
from gpgnn.gradcheck import full_model_gradcheck
from gpgnn.model import build_entity_graph, flag_plan, flag_states, message_sources, propagate_layer

from conftest import RANDOM_RELATIONS, TOY_RELATIONS, dense_oracle, random_raw_sentence
from reference import naive_propagate

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass field resolution needs this
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# 1. gradient oracle


def test_criterion_1_gradient_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    tol = 1e-4
    step = 1e-5

    def u(*shape):
        return rng.uniform(-1, 1, shape)

    # every captured constant is bound as a default argument so repeated
    # finite-difference probes see one fixed function
    checks = {
        "matmul": (lambda x, c=Tensor(u(4, 2)): ad.reduce_sum(ad.matmul(x, c)), u(3, 4)),
        "add": (lambda x, c=Tensor(u(5)): ad.reduce_sum(ad.add(x, c)), u(5)),
        "add_bias": (lambda x, c=Tensor(u(3, 4)): ad.reduce_sum(ad.add_bias(c, x)), u(4)),
        "mul": (lambda x, c=Tensor(u(3, 3)): ad.reduce_sum(ad.mul(x, c)), u(3, 3)),
        "scale": (lambda x: ad.scale(ad.reduce_sum(x), -2.5), u(6)),
        "relu": (lambda x: ad.reduce_sum(ad.relu(x)), u(8) + np.sign(u(8)) * 0.01),
        "tanh": (lambda x: ad.reduce_sum(ad.tanh(x)), u(8)),
        "sigmoid": (lambda x: ad.reduce_sum(ad.sigmoid(x)), u(8)),
        "concat": (lambda x, c=Tensor(u(2, 3)): ad.reduce_sum(ad.concat([x, c], axis=0)), u(2, 3)),
        "reshape": (lambda x, c=Tensor(u(6)): ad.reduce_sum(ad.mul(ad.reshape(x, (6,)), c)), u(2, 3)),
        "gather_rows": (lambda x: ad.reduce_sum(ad.gather_rows(x, [1, 1, 3])), u(4, 3)),
        "cross_entropy_rows": (
            lambda x: ad.reduce_sum(ad.softmax_cross_entropy_rows(x, [1, 0, 3])), u(3, 4)),
        "dropout": (
            lambda x: ad.reduce_sum(ad.dropout(x, 0.5, np.random.default_rng(0), True)), u(6, 4)),
        "segment_sums": (lambda x, c=Tensor(u(2)): ad.reduce_sum(ad.mul(ad.segment_sums(x, [2, 3]), c)), u(5)),
        "unstack": (lambda x: ad.scale(ad.unstack(x)[2], 3.0), u(4)),
    }
    # lstm_sequence over 4 sequences of 3 timesteps, D=3, H=2, against each
    # operand; the plans share nodes at the root, inside and at the last level
    lstm_args = {"x": u(6, 3), "w": u(3, 8), "u": u(2, 8), "b": u(8)}
    ids = np.array([[0, 1, 2], [0, 1, 3], [4, 5, 2], [0, 1, 2]])
    for reverse in (False, True):
        for wrt in lstm_args:
            def lstm_loss(p, wrt=wrt, plan=ad.SequencePlan(ids, reverse), c=Tensor(u(4, 2)),
                          fixed={k: Tensor(v) for k, v in lstm_args.items()}):
                a = {**fixed, wrt: p}
                return ad.reduce_sum(ad.mul(ad.lstm_sequence(a["x"], a["w"], a["u"], a["b"], plan), c))

            checks[f"lstm_sequence_{'reverse' if reverse else 'forward'}_{wrt}"] = (lstm_loss, lstm_args[wrt])
    # propagate over 2 graphs of 2 blocks of m=3 nodes, d=2, each graph
    # with its own stack, against each operand; and the first layer
    # straight from the flags, for every target pair of the 2 graphs
    prop_args = {"matrices": u(2, 6, 2, 2), "states": u(12, 2)}
    sources = message_sources(3)
    flags = np.eye(2)
    for act in ("relu", "tanh", "sigmoid"):
        for wrt in prop_args:
            def prop_loss(p, wrt=wrt, act=act, c=Tensor(u(12, 2)),
                          fixed={k: Tensor(v) for k, v in prop_args.items()}):
                a = {**fixed, wrt: p}
                return ad.reduce_sum(ad.mul(ad.propagate(a["matrices"], a["states"], sources, act), c))

            checks[f"propagate_{act}_{wrt}"] = (prop_loss, prop_args[wrt])

        def flag_loss(p, act=act, c=Tensor(u(36, 2))):
            return ad.reduce_sum(ad.mul(ad.propagate_flags(p, flags, flag_plan(3), act), c))

        checks[f"propagate_flags_{act}"] = (flag_loss, prop_args["matrices"])
    worst_op, worst_err = None, 0.0
    for name, (f, point) in checks.items():
        result = ad.grad_check(f, Tensor(np.asarray(point)), step=step, tol=tol)
        assert result.passed, f"{name}: max rel {result.max_rel_error:.2e}"
        if result.max_rel_error > worst_err:
            worst_op, worst_err = name, result.max_rel_error

    model_check = full_model_gradcheck(seed=7, layers=2, step=step, tol=tol)
    wall = time.monotonic() - t0
    ok = model_check.passed and wall < 60.0
    _report(
        1, ok,
        f"ops worst {worst_op}={worst_err:.2e}; full K=2 model max rel "
        f"{model_check.max_rel_error:.2e} over {model_check.n_coordinates} coordinates "
        f"({wall:.1f}s < 60s)",
    )


# ---------------------------------------------------------------------------
# 2. propagation brute-force equivalence


def test_criterion_2_propagation_matches_naive_loop():
    rng = np.random.default_rng(20)
    worst = 0.0
    for trial in range(100):
        m = int(rng.integers(2, 6))
        d_n = int(rng.choice([2, 4, 8]))
        activation = "relu" if trial % 2 == 0 else "tanh"
        edges = [(i, j) for i in range(m) for j in range(m) if j != i]
        mats = rng.uniform(-1, 1, (len(edges), d_n, d_n))
        states = rng.uniform(-1, 1, (m, d_n))
        fast = propagate_layer(Tensor(states), Tensor(mats), activation).data
        slow = np.array(naive_propagate(states.tolist(), mats.tolist(), edges, activation))
        worst = max(worst, float(np.abs(fast - slow).max()))
    _report(2, worst < 1e-12, f"100 random instances, max |batched - naive| = {worst:.2e} < 1e-12")


# ---------------------------------------------------------------------------
# 3. flag semantics


def test_criterion_3_flag_semantics():
    from conftest import two_entity_sentence

    graph = build_entity_graph(two_entity_sentence())
    states, _subj, _obj = flag_states(graph.m, 2, [(0, 1)])
    eye = Tensor(np.stack([np.eye(2), np.eye(2)]))
    swapped = propagate_layer(states, eye, "relu").data
    exact_swap = swapped.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    zero = propagate_layer(states, Tensor(np.zeros((2, 2, 2))), "relu").data
    collapses = not zero.any()
    _report(3, exact_swap and collapses,
            f"identity matrices swap flags exactly ({swapped.tolist()}); zero matrices collapse to zero")


# ---------------------------------------------------------------------------
# 4. overfit check


def test_criterion_4_overfit_synthetic_corpus():
    overfit = _load_script("overfit_check")
    config = overfit.overfit_config(seed=7, epochs=200)
    assert (config.learning_rate, config.batch_size, config.dropout,
            config.hidden_size, config.activation, config.adjacency,
            config.resolved_d_n(), config.patience) == (0.001, 50, 0.5, 256, "relu", "untied", 12, 200)
    summary = overfit.run_overfit(seed=7, epochs=200, target=0.99)
    assert summary["sentences"] == 50
    ok = summary["reached_target"] and summary["epochs_run"] <= 200 and summary["wall_s"] < 300.0
    _report(4, ok,
            f"K=2 reference config reached >= 99% training triple accuracy at epoch "
            f"{summary['epochs_run']} <= 200 ({summary['wall_s']:.0f}s < 300s)")


# ---------------------------------------------------------------------------
# 5. multi-hop direction


def test_criterion_5_two_layers_beat_one_on_implied_relations():
    depth = _load_script("depth_experiment")
    t0 = time.monotonic()
    summary = depth.run_experiment(seeds=(101, 102, 103))
    wall = time.monotonic() - t0
    ok = summary["gap"] >= 0.15 and wall < 1800.0
    _report(5, ok,
            f"implied-relation accuracy K=2 {summary['mean_implied_k2']:.3f} vs "
            f"K=1 {summary['mean_implied_k1']:.3f}, gap {summary['gap']:.3f} >= 0.15 "
            f"over 3 seeds ({wall:.0f}s < 1800s)")


# ---------------------------------------------------------------------------
# 6. preprocessing properties


def test_criterion_6_preprocessing_properties():
    rng = np.random.default_rng(60)
    raw = [random_raw_sentence(rng, f"r{k}") for k in range(1000)]
    normalized, skips = normalize_dataset(raw, RANDOM_RELATIONS)
    assert len(normalized) + sum(skips.values()) == 1000

    for s in normalized:
        m = s.entity_count
        pairs = [(t.subject_idx, t.object_idx) for t in s.triples]
        assert len(pairs) == m * (m - 1) and len(set(pairs)) == len(pairs), s.id
        by_pair = {(t.subject_idx, t.object_idx): t for t in s.triples}
        for t in s.triples:
            inv = RANDOM_RELATIONS.inverse.get(t.relation)
            if inv is not None:
                assert by_pair[(t.object_idx, t.subject_idx)].relation != "NA", s.id

    twice, skips2 = normalize_dataset(normalized, RANDOM_RELATIONS)
    assert not skips2 and twice == normalized

    dense, rest = split_dense_subset(normalized)
    assert len(dense) + len(rest) == len(normalized)
    assert {id(s) for s in dense}.isdisjoint({id(s) for s in rest})
    mismatches = sum(1 for s in normalized if dense_oracle(s) != (s in dense))
    assert mismatches == 0
    _report(6, True,
            f"{len(normalized)} kept / {sum(skips.values())} skipped of 1000: triple counts, "
            f"reversal closure, idempotence, and dense partition ({len(dense)}/{len(rest)}) all hold")


# ---------------------------------------------------------------------------
# 7. bag and metric properties


def test_criterion_7_bag_and_metric_properties():
    relations = TOY_RELATIONS  # NA, likes, liked_by, sees

    def record(skb, okb, probs, gold):
        return PredictionRecord("s", 0, 1, np.asarray(probs, float), gold,
                                subject_kb=skb, object_kb=okb)

    # max-one semantics
    one_bag = rank_bags([
        record("a", "b", [0.6, 0.2, 0.1, 0.1], "likes"),
        record("a", "b", [0.1, 0.7, 0.1, 0.1], "likes"),
        record("a", "b", [0.2, 0.5, 0.3, 0.0], "likes"),
    ], relations)
    bag = dict(zip(one_bag.keys, one_bag.bag_scores))[("a", "b")]
    max_ok = bag.tolist() == [0.6, 0.7, 0.3, 0.1]

    # P@100% equals global precision over the ranked population
    records = []
    for k in range(40):
        p = 0.95 - 0.02 * k
        gold = "likes" if k % 3 == 0 else "NA"
        records.append(record(f"b{k:02d}", "o", [min(0.04, 1 - p), p, 0.0, 0.0], gold))
    ranked = rank_bags(records, relations)
    p100 = precision_at_k_percent(ranked, 100.0)
    global_precision = sum(ranked.correct.tolist()) / len(ranked)
    p100_ok = p100 == global_precision

    points = pr_curve_points(ranked, ranked.n_gold)
    recalls = [r for r, _ in points]
    monotone_ok = recalls == sorted(recalls)
    top1_ok = points[0][1] == float(ranked.correct[0])

    confusion = [
        PredictionRecord("s", 0, 1, np.array([0.0, 1.0, 0.0, 0.0]), "likes"),
        PredictionRecord("s", 0, 1, np.array([0.0, 0.0, 1.0, 0.0]), "likes"),
        PredictionRecord("s", 0, 1, np.array([0.0, 0.0, 1.0, 0.0]), "liked_by"),
    ]
    macro = sentence_metrics(confusion, relations)["macro_f1"]
    macro_ok = macro == 2.0 / 3.0

    ok = max_ok and p100_ok and monotone_ok and top1_ok and macro_ok
    _report(7, ok,
            f"max-one bag scores, P@100%={p100:.4f}==global precision, PR recall monotone, "
            f"top-1 matches first PR point, hand confusion macro-F1 = {macro:.4f} == 2/3 (exact)")


# ---------------------------------------------------------------------------
# 8. determinism


def _run_pipeline(base: Path, tag: str, data_dir: Path, config_path: Path):
    run = base / f"run_{tag}"
    ev = base / f"eval_{tag}"
    assert main(["train", "--train", str(data_dir / "train.jsonl"),
                 "--valid", str(data_dir / "valid.jsonl"),
                 "--relations", str(data_dir / "relations.json"),
                 "--config", str(config_path), "--out", str(run)]) == EXIT_OK
    assert main(["eval", "--model-dir", str(run), "--data", str(data_dir / "test.jsonl"),
                 "--out", str(ev)]) == EXIT_OK
    return run, ev


def _log_without_wall(path: Path) -> str:
    lines = []
    for line in path.read_text().splitlines():
        event = json.loads(line)
        event.pop("wall_ms", None)
        lines.append(json.dumps(event, sort_keys=True))
    return "\n".join(lines)


def test_criterion_8_determinism(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "5", "--sentences", "20",
                 "--entities", "12", "--relations", "2", "--chains", "1",
                 "--splits", "0.6,0.2,0.2"]) == EXIT_OK
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(
        layers=2, d_n=4, learning_rate=0.01, batch_size=6, dropout=0.5,
        hidden_size=8, epochs=3, patience=5, seed=11, word_dim=6, position_dim=2,
    )))
    run_a, eval_a = _run_pipeline(tmp_path, "a", data, config_path)
    run_b, eval_b = _run_pipeline(tmp_path, "b", data, config_path)

    ckpt_ok = (run_a / "checkpoint.bin").read_bytes() == (run_b / "checkpoint.bin").read_bytes()
    log_ok = _log_without_wall(run_a / "run_log.jsonl") == _log_without_wall(run_b / "run_log.jsonl")
    metrics_ok = (eval_a / "metrics.json").read_bytes() == (eval_b / "metrics.json").read_bytes()
    preds_ok = (eval_a / "predictions.jsonl").read_bytes() == (eval_b / "predictions.jsonl").read_bytes()
    man_a = json.loads((run_a / "manifest.json").read_text())
    man_b = json.loads((run_b / "manifest.json").read_text())
    manifest_ok = (man_a["config_sha256"] == man_b["config_sha256"]
                   and man_a["inputs"] == man_b["inputs"])

    ok = ckpt_ok and log_ok and metrics_ok and preds_ok and manifest_ok
    _report(8, ok,
            "identical manifests give bit-identical checkpoints, metric reports, predictions, "
            "and run logs (wall_ms excluded; see decisions ledger)")
