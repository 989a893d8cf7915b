import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgnn.corpus import RelationVocab
from gpgnn.evaluation import (
    EvaluationError,
    PredictionRecord,
    metrics_report,
    pr_curve_points,
    precision_at_k_percent,
    rank_bags,
    sentence_metrics,
    write_pr_csv,
    write_predictions,
)

import reference

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


def score_bags(records):
    """Each bag's max-one score vector, by bag key."""
    ranked = rank_bags(records, AB)
    return dict(zip(ranked.keys, ranked.bag_scores))


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
    assert rank_bags(records, AB).excluded == 1


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
    ranked = rank_bags(records, AB)
    assert precision_at_k_percent(ranked, 5.0) == 1.0


def test_forty_ranked_facts_k5_takes_top_two():
    records = ladder(40, 1)  # only the top fact is gold
    ranked = rank_bags(records, AB)
    assert len(ranked) == 40
    assert precision_at_k_percent(ranked, 5.0) == 0.5


def test_k100_equals_global_precision():
    records = ladder(40, 13)
    ranked = rank_bags(records, AB)
    assert precision_at_k_percent(ranked, 100.0) == pytest.approx(13 / 40)


def test_k_out_of_range():
    records = ladder(4, 1)
    ranked = rank_bags(records, AB)
    for bad in (0.0, -5.0, 101.0):
        with pytest.raises(EvaluationError):
            precision_at_k_percent(ranked, bad)


def test_tie_break_is_deterministic():
    records = [
        bag_rec("z", "o", [0.1, 0.5, 0.5], gold="A"),
        bag_rec("a", "o", [0.1, 0.5, 0.5], gold="B"),
    ]
    ranked = rank_bags(records, AB)
    keys = [(ranked.keys[b], r) for b, r in zip(ranked.bag.tolist(), ranked.relation.tolist())]
    assert keys == [(("a", "o"), 1), (("a", "o"), 2), (("z", "o"), 1), (("z", "o"), 2)]


def test_population_predictions_filters_below_na():
    records = [
        bag_rec("a", "o", [0.6, 0.3, 0.1], gold="A"),  # both relations below NA
        bag_rec("b", "o", [0.2, 0.7, 0.1], gold="A"),  # only A above NA
    ]
    ranked = rank_bags(records, AB)
    assert [(ranked.keys[b][0], AB.name(r)) for b, r in zip(ranked.bag, ranked.relation)] == [("b", "A")]
    everything = rank_bags(records, AB, population="gold-size")
    assert len(everything) == 4


def test_pr_curve_perfect_ranking():
    records = ladder(10, 4)
    ranked = rank_bags(records, AB)
    points = pr_curve_points(ranked, n_gold=4)
    for rank in range(4):
        assert points[rank][1] == 1.0
    assert points[-1][0] == 1.0  # final recall = retrieved/total = 1
    recalls = [r for r, _ in points]
    assert recalls == sorted(recalls)


def test_pr_curve_top1_matches_first_point():
    records = ladder(10, 4)
    ranked = rank_bags(records, AB)
    points = pr_curve_points(ranked, n_gold=4)
    assert points[0][1] == float(ranked.correct[0])


def test_pr_curve_requires_gold():
    records = ladder(4, 1)
    ranked = rank_bags(records, AB)
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
        ranked = rank_bags(records, relations)
        points = pr_curve_points(ranked, n_gold=int(gold_mask.sum()))
        recalls = np.array([p[0] for p in points])
        precisions = np.array([p[1] for p in points])
        aucs.append(float(np.trapezoid(precisions, recalls)))
    assert abs(np.mean(aucs) - prevalence) < 0.05


def test_pr_csv_layout(tmp_path):
    records = ladder(6, 2)
    ranked = rank_bags(records, AB)
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


def test_malformed_record_sets_are_evaluation_errors(tmp_path):
    nan = bag_rec("a", "b", [np.nan, 0.5, 0.5], sid="bad")
    with pytest.raises(EvaluationError, match="'bad': non-finite probability"):
        metrics_report([rec("A", "A"), nan], AB)
    with pytest.raises(EvaluationError, match="'bad': non-finite probability"):
        write_predictions(tmp_path / "p.jsonl", [nan])
    with pytest.raises(EvaluationError, match="unequal length"):
        sentence_metrics([rec("A", "A"), bag_rec("a", "b", [0.5, 0.5])], AB)
    with pytest.raises(EvaluationError, match="2 scores per record for 3 relations"):
        sentence_metrics([bag_rec("a", "b", [0.5, 0.5])], AB)
    with pytest.raises(EvaluationError, match="unknown ranking population 'bogus'"):
        metrics_report([rec("A", "A")], AB, population="bogus")


# ---------------------------------------------------------------------------
# the array path against the per-record and per-candidate oracles


# exact ties across bags and relations, and 0.0 beside -0.0
TIED_SCORES = (0.0, -0.0, 0.5, 1.0 / 3.0)
SENTENCE_IDS = ("s1", "s2", "phrase-é", "文", 'q"\\\t')
KB_IDS = (None, "Zürich", "東京")  # few bags, so bags hold several records


@st.composite
def record_sets(draw):
    names = ["NA"] + draw(st.sampled_from([["A"], ["B", "A"], ["é-rel", "A", "B"]]))
    relations = RelationVocab(names)
    # gold is mostly a vocabulary name; "absent" exercises that error
    gold = st.sampled_from(names * 6 + ["absent"])
    score = st.one_of(st.sampled_from(TIED_SCORES), st.floats(0.0, 1.0))
    records = draw(st.lists(st.builds(
        PredictionRecord,
        sentence_id=st.sampled_from(SENTENCE_IDS),
        subject_idx=st.integers(0, 8),
        object_idx=st.integers(0, 8),
        probs=st.lists(score, min_size=len(names), max_size=len(names)).map(np.array),
        gold=gold,
        subject_kb=st.sampled_from(KB_IDS),
        object_kb=st.sampled_from(KB_IDS),
    ), max_size=25))
    return records, relations, draw(st.sampled_from(["predictions", "gold-size"]))


def _candidates(ranked):
    return [(ranked.keys[b], r, repr(s), c) for b, r, s, c in
            zip(ranked.bag.tolist(), ranked.relation.tolist(), ranked.score.tolist(), ranked.correct.tolist())]


@settings(max_examples=200, deadline=None)
@given(record_sets())
def test_array_evaluation_matches_the_oracle_loops(case):
    records, relations, population = case
    try:
        want, want_ranked = reference.metrics_report(records, relations, population)
    except EvaluationError as exc:
        with pytest.raises(EvaluationError) as got:
            metrics_report(records, relations, population)
        assert str(got.value) == str(exc)
        return
    report, ranked = metrics_report(records, relations, population)
    assert report == want
    assert (ranked is None) == (want_ranked is None)

    everything = rank_bags(records, relations, population)
    bags = reference.score_bags(records)
    assert everything.keys == sorted(bags)
    want_scores = np.array([bags[k] for k in sorted(bags)]).reshape(-1, len(relations))
    assert everything.bag_scores.tobytes() == want_scores.tobytes()
    want_all = reference.rank_facts(bags, reference.gold_facts(records), relations, population)
    assert _candidates(everything) == [(f.bag, f.relation_index, repr(f.score), f.correct) for f in want_all]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        n_written = reference.write_predictions(out / "b.jsonl", records)
        assert write_predictions(out / "a.jsonl", records) == n_written
        assert (out / "a.jsonl").read_bytes() == (out / "b.jsonl").read_bytes()
        if ranked is None:
            return
        n_gold = report["counts"]["gold_facts"]
        points = pr_curve_points(ranked, n_gold)
        assert points.tolist() == [list(p) for p in reference.pr_curve_points(want_ranked, n_gold)]
        write_pr_csv(out / "a.csv", ranked, n_gold)
        reference.write_pr_csv(out / "b.csv", want_ranked, n_gold)
        assert (out / "a.csv").read_bytes() == (out / "b.csv").read_bytes()
