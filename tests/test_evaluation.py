import json

import numpy as np
import pytest

from gpgnn.corpus import RelationVocab
from gpgnn.evaluation import (
    EvaluationError,
    PredictionRecord,
    gold_facts,
    metrics_report,
    missing_kb_count,
    pr_curve_points,
    precision_at_k_percent,
    rank_facts,
    score_bags,
    sentence_metrics,
    write_pr_csv,
    write_predictions,
)

AB = RelationVocab(["NA", "A", "B"])


def rec(gold, pred, vocab=AB, sid="s", skb="s1", okb="o1"):
    probs = np.full(len(vocab), 0.01)
    probs[vocab.index(pred)] = 0.9
    probs /= probs.sum()
    return PredictionRecord(sid, 0, 1, probs, gold, subject_kb=skb, object_kb=okb)


# ---------------------------------------------------------------------------
# sentence metrics


def test_all_correct_gives_ones():
    records = [rec("A", "A"), rec("B", "B"), rec("NA", "NA")]
    m = sentence_metrics(records, AB)
    assert m["accuracy"] == 1.0
    assert m["macro_f1"] == 1.0


def test_macro_f1_hand_computed_confusion():
    # A: 1 TP, 1 FN; B: 1 TP, 1 FP -> F1_A = F1_B = 2/3
    records = [rec("A", "A"), rec("A", "B"), rec("B", "B")]
    m = sentence_metrics(records, AB)
    assert m["macro_f1"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert m["accuracy"] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_all_na_predictions_give_zero_macro_f1():
    records = [rec("A", "NA"), rec("B", "NA"), rec("NA", "NA")]
    m = sentence_metrics(records, AB)
    assert m["macro_f1"] == 0.0
    assert m["accuracy"] == pytest.approx(1.0 / 3.0)


def test_unpredicted_unsupported_classes_are_excluded():
    # class B never appears in gold or predictions: macro over A only
    records = [rec("A", "A"), rec("A", "A")]
    assert sentence_metrics(records, AB)["macro_f1"] == 1.0


def test_empty_record_set_is_an_error():
    with pytest.raises(EvaluationError, match="empty"):
        sentence_metrics([], AB)


def test_macro_f1_invariant_to_order_and_duplication():
    records = [rec("A", "A"), rec("A", "B"), rec("B", "B"), rec("NA", "A")]
    base = sentence_metrics(records, AB)
    reordered = sentence_metrics(records[::-1], AB)
    doubled = sentence_metrics(records + records, AB)
    assert base == reordered == doubled


def test_accuracy_includes_na_pairs():
    records = [rec("NA", "NA"), rec("NA", "A")]
    assert sentence_metrics(records, AB)["accuracy"] == 0.5


# ---------------------------------------------------------------------------
# bags


def bag_rec(skb, okb, probs, gold="NA", sid="s"):
    return PredictionRecord(sid, 0, 1, np.asarray(probs, float), gold, subject_kb=skb, object_kb=okb)


def test_bag_score_is_per_relation_max():
    records = [
        bag_rec("a", "b", [0.8, 0.2, 0.0]),
        bag_rec("a", "b", [0.3, 0.7, 0.0]),
        bag_rec("a", "b", [0.5, 0.5, 0.0]),
    ]
    bags = score_bags(records)
    np.testing.assert_allclose(bags[("a", "b")], [0.8, 0.7, 0.0])


def test_single_sentence_bag_is_identity():
    records = [bag_rec("a", "b", [0.2, 0.5, 0.3])]
    np.testing.assert_array_equal(score_bags(records)[("a", "b")], [0.2, 0.5, 0.3])


def test_adding_sentences_never_decreases_scores(rng):
    records = [bag_rec("a", "b", rng.dirichlet(np.ones(3))) for _ in range(6)]
    small = score_bags(records[:3])[("a", "b")]
    large = score_bags(records)[("a", "b")]
    assert np.all(large >= small)


def test_records_without_kb_are_excluded_and_counted():
    records = [bag_rec("a", "b", [1, 0, 0]), PredictionRecord("s", 0, 1, np.array([1.0, 0, 0]), "NA")]
    assert len(score_bags(records)) == 1
    assert missing_kb_count(records) == 1


# ---------------------------------------------------------------------------
# ranking, P@K%, PR curves


def ladder(n, n_correct_prefix, start=0.99):
    """n bags, one candidate relation each, scores strictly descending; the
    first n_correct_prefix candidates are gold facts."""
    records = []
    for k in range(n):
        p = start - 0.01 * k
        gold = "A" if k < n_correct_prefix else "NA"
        records.append(bag_rec(f"b{k:03d}", "o", [min(0.009, 1 - p), p, 0.0], gold=gold))
    return records


def test_precision_top_slice_all_correct():
    records = ladder(40, 2)
    bags = score_bags(records)
    ranked = rank_facts(bags, gold_facts(records), AB)
    assert precision_at_k_percent(ranked, 5.0) == 1.0


def test_forty_ranked_facts_k5_takes_top_two():
    records = ladder(40, 1)  # only the top fact is gold
    ranked = rank_facts(score_bags(records), gold_facts(records), AB)
    assert len(ranked) == 40
    assert precision_at_k_percent(ranked, 5.0) == 0.5


def test_k100_equals_global_precision():
    records = ladder(40, 13)
    ranked = rank_facts(score_bags(records), gold_facts(records), AB)
    assert precision_at_k_percent(ranked, 100.0) == pytest.approx(13 / 40)


def test_k_out_of_range():
    records = ladder(4, 1)
    ranked = rank_facts(score_bags(records), gold_facts(records), AB)
    for bad in (0.0, -5.0, 101.0):
        with pytest.raises(EvaluationError):
            precision_at_k_percent(ranked, bad)


def test_tie_break_is_deterministic():
    records = [
        bag_rec("z", "o", [0.1, 0.5, 0.5], gold="A"),
        bag_rec("a", "o", [0.1, 0.5, 0.5], gold="B"),
    ]
    ranked = rank_facts(score_bags(records), gold_facts(records), AB)
    keys = [(f.bag, f.relation_index) for f in ranked]
    assert keys == [(("a", "o"), 1), (("a", "o"), 2), (("z", "o"), 1), (("z", "o"), 2)]


def test_population_predictions_filters_below_na():
    records = [
        bag_rec("a", "o", [0.6, 0.3, 0.1], gold="A"),  # both relations below NA
        bag_rec("b", "o", [0.2, 0.7, 0.1], gold="A"),  # only A above NA
    ]
    ranked = rank_facts(score_bags(records), gold_facts(records), AB)
    assert [(f.bag[0], f.relation) for f in ranked] == [("b", "A")]
    everything = rank_facts(score_bags(records), gold_facts(records), AB, population="gold-size")
    assert len(everything) == 4


def test_pr_curve_perfect_ranking():
    records = ladder(10, 4)
    ranked = rank_facts(score_bags(records), gold_facts(records), AB)
    points = pr_curve_points(ranked, n_gold=4)
    for rank in range(4):
        assert points[rank][1] == 1.0
    assert points[-1][0] == 1.0  # final recall = retrieved/total = 1
    recalls = [r for r, _ in points]
    assert recalls == sorted(recalls)


def test_pr_curve_top1_matches_first_point():
    records = ladder(10, 4)
    ranked = rank_facts(score_bags(records), gold_facts(records), AB)
    points = pr_curve_points(ranked, n_gold=4)
    assert points[0][1] == float(ranked[0].correct)


def test_pr_curve_requires_gold():
    records = ladder(4, 1)
    ranked = rank_facts(score_bags(records), gold_facts(records), AB)
    with pytest.raises(EvaluationError, match="gold"):
        pr_curve_points(ranked, 0)


def test_random_scorer_auc_approximates_prevalence():
    relations = RelationVocab(["NA", "x"])
    prevalence = 0.3
    aucs = []
    for seed in range(5):
        r = np.random.default_rng(seed)
        records = []
        n = 400
        gold_mask = r.random(n) < prevalence
        for k in range(n):
            score = r.random()
            records.append(
                PredictionRecord(
                    f"s{k}", 0, 1, np.array([0.0, score]), "x" if gold_mask[k] else "NA",
                    subject_kb=f"b{k}", object_kb="o",
                )
            )
        ranked = rank_facts(score_bags(records), gold_facts(records), relations)
        points = pr_curve_points(ranked, n_gold=int(gold_mask.sum()))
        recalls = np.array([p[0] for p in points])
        precisions = np.array([p[1] for p in points])
        aucs.append(float(np.trapezoid(precisions, recalls)))
    assert abs(np.mean(aucs) - prevalence) < 0.05


def test_pr_csv_layout(tmp_path):
    records = ladder(6, 2)
    ranked = rank_facts(score_bags(records), gold_facts(records), AB)
    path = tmp_path / "pr.csv"
    write_pr_csv(path, ranked, n_gold=2)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rank,score,correct,precision,recall"
    first = lines[1].split(",")
    assert first[0] == "1" and first[2] == "1"
    assert float(first[3]) == 1.0
    assert float(first[4]) == 0.5


# ---------------------------------------------------------------------------
# report and serialization


def test_metrics_report_shape_and_decisions():
    records = ladder(20, 5) + [rec("A", "A", skb=None, okb=None)]
    report, ranked = metrics_report(records, AB)
    assert report["counts"]["candidates"] == len(ranked)
    assert set(report["p_at"]) == {"5", "10", "15", "20"}
    assert report["counts"]["excluded_no_kb"] == 1
    assert report["decisions"]["macro_f1_excludes_na"] is True
    assert report["decisions"]["p_at_population"] == "predictions"
    gold_size, _ranked = metrics_report(records, AB, population="gold-size")
    assert gold_size["decisions"]["p_at_population"] == "gold-size"


def test_predictions_roundtrip(tmp_path):
    records = [rec("A", "B"), rec("NA", "NA", skb=None, okb=None)]
    path = tmp_path / "preds.jsonl"
    assert write_predictions(path, records) == 2
    back = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(back) == 2
    assert back[0]["gold"] == "A"
    assert back[0]["subject_kb"] == "s1"
    np.testing.assert_array_equal(back[0]["probs"], records[0].probs)
    assert "subject_kb" not in back[1]
