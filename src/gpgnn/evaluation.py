"""Sentence-level and bag-level evaluation.

Design choices surfaced in every report: macro-F1 averages over non-NA
classes only (NA dominates after normalization and would mask the signal),
accuracy includes NA pairs, and the P@K% ranking population defaults to all
non-NA bag predictions scoring above their bag's NA score.

Everything is computed on arrays.  The records' probabilities are stacked
into one (P, R) matrix and reduced to one max-one (n_bags, R) bag matrix,
with bags in sorted key order; one ``np.lexsort`` ranks the candidates by
score descending, ties broken on (bag key, relation index), so every metric
is deterministic.  P@K% and the PR curve come from the cumulative count of
gold candidates.  The writers format a whole file and write it at once, in
the bytes ``json.dumps`` and ``csv.writer`` give.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import RelationVocab


class EvaluationError(ValueError):
    """The record set cannot support the requested metric."""


@dataclass
class PredictionRecord:
    """One scored ordered entity pair: the unit of all evaluation."""

    sentence_id: str
    subject_idx: int
    object_idx: int
    probs: np.ndarray
    gold: str
    subject_kb: str | None = None
    object_kb: str | None = None

    def predicted_index(self) -> int:
        return int(np.argmax(self.probs))


def _probability_matrix(records: Sequence[PredictionRecord]) -> np.ndarray:
    """The records' probabilities as one (P, R) float64 matrix.  Vectors of
    unequal length, or a non-finite probability, are an EvaluationError."""
    if not records:
        return np.zeros((0, 0))
    try:
        probs = np.stack([r.probs for r in records]).astype(np.float64, copy=False)
    except ValueError:
        raise EvaluationError("records hold probability vectors of unequal length") from None
    finite = np.isfinite(probs).all(axis=1)
    if not finite.all():
        bad = records[int(np.argmin(finite))]
        raise EvaluationError(f"sentence {bad.sentence_id!r}: non-finite probability")
    return probs


# a string as json.dumps(s, ensure_ascii=False) writes it
_quote = json.JSONEncoder(ensure_ascii=False).encode


def write_predictions(path, records: Sequence[PredictionRecord]) -> int:
    """One JSON object per record and line, keys in the order sentence_id,
    subject_idx, object_idx, probs, gold, then each kb id that is set."""
    lines = []
    for r, row in zip(records, _probability_matrix(records).tolist()):
        kb = "" if r.subject_kb is None else f', "subject_kb": {_quote(r.subject_kb)}'
        if r.object_kb is not None:
            kb += f', "object_kb": {_quote(r.object_kb)}'
        lines.append(
            f'{{"sentence_id": {_quote(r.sentence_id)}, "subject_idx": {r.subject_idx}, '
            f'"object_idx": {r.object_idx}, "probs": [{", ".join(map(repr, row))}], '
            f'"gold": {_quote(r.gold)}{kb}}}\n'
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
    return len(lines)


def _scored(records: Sequence[PredictionRecord], relations: RelationVocab) -> tuple[np.ndarray, np.ndarray]:
    """The (P, R) probability matrix and the (P,) gold relation indices."""
    if not records:
        raise EvaluationError("empty record set")
    probs = _probability_matrix(records)
    if probs.shape[1] != len(relations):
        raise EvaluationError(f"{probs.shape[1]} scores per record for {len(relations)} relations")
    index = dict(zip(relations.names, range(len(relations))))
    gold = np.array([index.get(r.gold, -1) for r in records], dtype=np.intp)
    if gold.min() < 0:
        raise EvaluationError(f"gold relation {records[int(np.argmin(gold))].gold!r} absent from vocabulary")
    return probs, gold


# ---------------------------------------------------------------------------
# sentence-level metrics


def _sentence_scores(pred: np.ndarray, gold: np.ndarray, relations: RelationVocab) -> dict:
    hit = pred == gold
    n = len(relations)
    tp = np.bincount(pred[hit], minlength=n)
    fp = np.bincount(pred[~hit], minlength=n)
    fn = np.bincount(gold[~hit], minlength=n)
    # NA is index 0 and no class of its own; the mean runs in class-name order
    classes = sorted((c for c in range(1, n) if tp[c] + fp[c] + fn[c]), key=relations.name)
    f1s = 2.0 * tp[classes] / (2 * tp[classes] + fp[classes] + fn[classes])
    macro = float(np.mean(f1s)) if classes else 0.0
    return {"accuracy": int(np.count_nonzero(hit)) / len(pred), "macro_f1": macro}


def sentence_metrics(records: Sequence[PredictionRecord], relations: RelationVocab) -> dict:
    """Accuracy over argmax predictions (NA included) and macro-F1 averaged
    over non-NA classes that occur in gold or predictions."""
    probs, gold = _scored(records, relations)
    return _sentence_scores(probs.argmax(axis=1), gold, relations)


# ---------------------------------------------------------------------------
# bag-level aggregation and ranking


BagKey = tuple[str, str]
POPULATIONS = ("predictions", "gold-size")


@dataclass
class Ranking:
    """The bags of a record set and their ranked (bag, non-NA relation)
    candidates.  A bag is the (subject kb id, object kb id) pair; records
    without both ids are in no bag.  The candidate arrays are parallel and
    in rank order: score descending, then bag key, then relation index."""

    keys: list[BagKey]  # every bag, sorted; ``bag`` indexes into it
    bag_scores: np.ndarray  # (n_bags, R): per relation, the max over the bag's records
    n_gold: int  # distinct (bag, non-NA relation) gold facts
    excluded: int  # records without both kb ids
    bag: np.ndarray
    relation: np.ndarray
    score: np.ndarray
    correct: np.ndarray  # bool: the candidate is a gold fact

    def __len__(self) -> int:
        return len(self.score)


def _rank_bags(
    records: Sequence[PredictionRecord], probs: np.ndarray, gold: np.ndarray, population: str
) -> Ranking:
    if population not in POPULATIONS:
        raise EvaluationError(f"unknown ranking population {population!r}")
    rows = [k for k, r in enumerate(records) if r.subject_kb is not None and r.object_kb is not None]
    pairs = [(records[k].subject_kb, records[k].object_kb) for k in rows]
    keys = sorted(set(pairs))
    index = {key: b for b, key in enumerate(keys)}
    bag_of = np.array([index[p] for p in pairs], dtype=np.intp)
    rows = np.array(rows, dtype=np.intp)
    scores = np.full((len(keys), probs.shape[1]), -np.inf)
    np.maximum.at(scores, bag_of, probs[rows])
    facts = np.zeros(scores.shape, dtype=bool)
    facts[bag_of, gold[rows]] = True
    facts[:, 0] = False  # NA is never a fact
    if population == "predictions":
        bag, relation = np.nonzero(scores[:, 1:] > scores[:, :1])
    else:
        bag, relation = np.nonzero(np.ones_like(facts[:, 1:]))
    relation += 1
    score = scores[bag, relation]
    order = np.lexsort((relation, bag, -score))
    bag, relation = bag[order], relation[order]
    return Ranking(keys, scores, int(np.count_nonzero(facts)), len(records) - len(rows),
                   bag, relation, score[order], facts[bag, relation])


def rank_bags(
    records: Sequence[PredictionRecord], relations: RelationVocab, population: str = "predictions"
) -> Ranking:
    """Max-one bag scores and the ranked candidates.  Population
    "predictions" keeps candidates that outscore their bag's NA score;
    "gold-size" keeps every candidate (P@K% then cuts against the gold
    count)."""
    return _rank_bags(records, *_scored(records, relations), population)


def precision_at_k_percent(ranked: Ranking, k: float, total: int | None = None) -> float:
    """Precision among the top ceil(k% of the ranked population); ``total``
    overrides the population size (the gold-size variant)."""
    if not 0.0 < k <= 100.0:
        raise EvaluationError(f"k must be in (0, 100], got {k}")
    if not len(ranked):
        raise EvaluationError("empty ranking")
    base = total if total is not None else len(ranked)
    top = min(len(ranked), max(1, math.ceil(k / 100.0 * base)))
    return int(np.count_nonzero(ranked.correct[:top])) / top


def pr_curve_points(ranked: Ranking, n_gold: int) -> np.ndarray:
    """One (recall, precision) row per rank; recall is non-decreasing."""
    if n_gold <= 0:
        raise EvaluationError("zero gold facts: recall undefined")
    hits = np.cumsum(ranked.correct)
    return np.column_stack((hits / n_gold, hits / np.arange(1, len(hits) + 1)))


def write_pr_csv(path, ranked: Ranking, n_gold: int) -> None:
    """rank,score,correct,precision,recall rows with CRLF line ends, floats
    in repr form."""
    points = pr_curve_points(ranked, n_gold)
    # recall takes at most n_gold + 1 values: format each distinct one once
    distinct, which = np.unique(points[:, 0], return_inverse=True)
    recall_text = [repr(v) for v in distinct.tolist()]
    lines = ["rank,score,correct,precision,recall\r\n"]
    lines += [
        f"{rank},{score!r},{c},{precision!r},{recall_text[k]}\r\n"
        for rank, score, c, precision, k in zip(range(1, len(ranked) + 1), ranked.score.tolist(),
                                                ranked.correct.astype(np.int8).tolist(),
                                                points[:, 1].tolist(), which.tolist())
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))


# ---------------------------------------------------------------------------
# the combined report


P_AT_K = (5, 10, 15, 20)  # the P@K% cutoffs every report gives


def metrics_report(
    records: Sequence[PredictionRecord],
    relations: RelationVocab,
    population: str = "predictions",
) -> tuple[dict, Ranking | None]:
    """Sentence metrics plus bag-level P@K%, with the decisions that shaped
    the numbers echoed alongside them.  Also returns the ranking the P@K%
    values came from (None when there are no gold facts), so a caller can
    write the PR curve without ranking again."""
    probs, gold = _scored(records, relations)
    sent = _sentence_scores(probs.argmax(axis=1), gold, relations)
    ranked = _rank_bags(records, probs, gold, population)
    report = {
        "accuracy": sent["accuracy"],
        "macro_f1": sent["macro_f1"],
        "p_at": {},
        "counts": {
            "records": len(records),
            "bags": len(ranked.keys),
            "excluded_no_kb": ranked.excluded,
            "gold_facts": ranked.n_gold,
            "candidates": 0,
        },
        "decisions": {
            "macro_f1_excludes_na": True,
            "accuracy_includes_na": True,
            "p_at_population": population,
        },
    }
    if not ranked.n_gold:
        return report, None
    report["counts"]["candidates"] = len(ranked)
    total = ranked.n_gold if population == "gold-size" else None
    for k in P_AT_K:
        report["p_at"][str(k)] = precision_at_k_percent(ranked, float(k), total=total) if len(ranked) else 0.0
    return report, ranked


def write_metrics_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, ensure_ascii=False, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
