"""Sentence-level and bag-level evaluation.

Design choices surfaced in every report: macro-F1 averages over non-NA
classes only (NA dominates after normalization and would mask the signal),
accuracy includes NA pairs, and the P@K% ranking population defaults to all
non-NA bag predictions scoring above their bag's NA score.  All metrics are
deterministic: ties break on (bag key, relation index).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import NA_RELATION, RelationVocab


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

    def to_json(self) -> str:
        obj = {
            "sentence_id": self.sentence_id,
            "subject_idx": self.subject_idx,
            "object_idx": self.object_idx,
            "probs": [float(p) for p in self.probs],
            "gold": self.gold,
        }
        if self.subject_kb is not None:
            obj["subject_kb"] = self.subject_kb
        if self.object_kb is not None:
            obj["object_kb"] = self.object_kb
        return json.dumps(obj, ensure_ascii=False)


def write_predictions(path, records: Iterable[PredictionRecord]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(r.to_json())
            fh.write("\n")
            n += 1
    return n


# ---------------------------------------------------------------------------
# sentence-level metrics


def sentence_metrics(records: Sequence[PredictionRecord], relations: RelationVocab) -> dict:
    """Accuracy over argmax predictions (NA included) and macro-F1 averaged
    over non-NA classes that occur in gold or predictions."""
    if not records:
        raise EvaluationError("empty record set")
    correct = 0
    tp: dict[str, int] = {}
    fp: dict[str, int] = {}
    fn: dict[str, int] = {}
    for r in records:
        pred = relations.name(r.predicted_index())
        if r.gold not in relations:
            raise EvaluationError(f"gold relation {r.gold!r} absent from vocabulary")
        if pred == r.gold:
            correct += 1
            if pred != NA_RELATION:
                tp[pred] = tp.get(pred, 0) + 1
        else:
            if pred != NA_RELATION:
                fp[pred] = fp.get(pred, 0) + 1
            if r.gold != NA_RELATION:
                fn[r.gold] = fn.get(r.gold, 0) + 1
    classes = sorted(set(tp) | set(fp) | set(fn))
    f1s = []
    for c in classes:
        t, p, n = tp.get(c, 0), fp.get(c, 0), fn.get(c, 0)
        denom = 2 * t + p + n
        f1s.append(2.0 * t / denom if denom else 0.0)
    macro = float(np.mean(f1s)) if f1s else 0.0
    return {"accuracy": correct / len(records), "macro_f1": macro}


# ---------------------------------------------------------------------------
# bag-level aggregation


BagKey = tuple[str, str]


def score_bags(records: Sequence[PredictionRecord]) -> dict[BagKey, np.ndarray]:
    """Max-one aggregation: a bag's score for each relation is the maximum of
    that relation's probability over the bag's sentences.  Records without
    both kb ids are excluded (count them with ``missing_kb_count``)."""
    bags: dict[BagKey, np.ndarray] = {}
    for r in records:
        if r.subject_kb is None or r.object_kb is None:
            continue
        key = (r.subject_kb, r.object_kb)
        held = bags.get(key)
        if held is None:
            bags[key] = r.probs.copy()
        else:
            np.maximum(held, r.probs, out=held)
    return bags


def missing_kb_count(records: Sequence[PredictionRecord]) -> int:
    return sum(1 for r in records if r.subject_kb is None or r.object_kb is None)


def gold_facts(records: Sequence[PredictionRecord]) -> set[tuple[str, str, str]]:
    return {
        (r.subject_kb, r.object_kb, r.gold)
        for r in records
        if r.gold != NA_RELATION and r.subject_kb is not None and r.object_kb is not None
    }


@dataclass(frozen=True)
class RankedFact:
    score: float
    bag: BagKey
    relation_index: int
    relation: str
    correct: bool


def rank_facts(
    bags: dict[BagKey, np.ndarray],
    gold: set[tuple[str, str, str]],
    relations: RelationVocab,
    population: str = "predictions",
) -> list[RankedFact]:
    """All (bag, non-NA relation) candidates ranked by score descending with
    deterministic tie-breaks.  Population "predictions" keeps candidates that
    outscore their bag's NA probability; "gold-size" keeps everything (the
    cutoff is applied later against the gold count)."""
    if population not in ("predictions", "gold-size"):
        raise EvaluationError(f"unknown ranking population {population!r}")
    facts: list[RankedFact] = []
    for key in sorted(bags):
        vec = bags[key]
        if len(vec) != len(relations):
            raise EvaluationError(f"bag {key}: {len(vec)} scores for {len(relations)} relations")
        na_floor = vec[0]
        for rel_idx in range(1, len(relations)):
            if population == "predictions" and vec[rel_idx] <= na_floor:
                continue
            name = relations.name(rel_idx)
            facts.append(
                RankedFact(
                    score=float(vec[rel_idx]),
                    bag=key,
                    relation_index=rel_idx,
                    relation=name,
                    correct=(key[0], key[1], name) in gold,
                )
            )
    facts.sort(key=lambda f: (-f.score, f.bag, f.relation_index))
    return facts


def precision_at_k_percent(
    ranked: Sequence[RankedFact], k: float, total: int | None = None
) -> float:
    """Precision among the top ceil(k% of the ranked population); ``total``
    overrides the population size (the gold-size variant)."""
    if not 0.0 < k <= 100.0:
        raise EvaluationError(f"k must be in (0, 100], got {k}")
    if not ranked:
        raise EvaluationError("empty ranking")
    base = total if total is not None else len(ranked)
    top = min(len(ranked), max(1, math.ceil(k / 100.0 * base)))
    hits = sum(1 for f in ranked[:top] if f.correct)
    return hits / top


def pr_curve_points(
    ranked: Sequence[RankedFact], n_gold: int
) -> list[tuple[float, float]]:
    """One (recall, precision) point per rank; recall is non-decreasing."""
    if n_gold <= 0:
        raise EvaluationError("zero gold facts: recall undefined")
    points = []
    hits = 0
    for rank, fact in enumerate(ranked, start=1):
        hits += int(fact.correct)
        points.append((hits / n_gold, hits / rank))
    return points


def write_pr_csv(path, ranked: Sequence[RankedFact], n_gold: int) -> None:
    points = pr_curve_points(ranked, n_gold)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "score", "correct", "precision", "recall"])
        for rank, (fact, (recall, precision)) in enumerate(zip(ranked, points), start=1):
            writer.writerow(
                [rank, repr(fact.score), int(fact.correct), repr(precision), repr(recall)]
            )


# ---------------------------------------------------------------------------
# the combined report


P_AT_K = (5, 10, 15, 20)  # the P@K% cutoffs every report gives


def metrics_report(
    records: Sequence[PredictionRecord],
    relations: RelationVocab,
    population: str = "predictions",
) -> tuple[dict, list[RankedFact] | None]:
    """Sentence metrics plus bag-level P@K%, with the decisions that shaped
    the numbers echoed alongside them.  Also returns the ranked facts the
    P@K% values came from (None when there are no bags or no gold facts),
    so a caller can write the PR curve without ranking again."""
    sent = sentence_metrics(records, relations)
    bags = score_bags(records)
    gold = gold_facts(records)
    excluded = missing_kb_count(records)
    report = {
        "accuracy": sent["accuracy"],
        "macro_f1": sent["macro_f1"],
        "p_at": {},
        "counts": {
            "records": len(records),
            "bags": len(bags),
            "excluded_no_kb": excluded,
            "gold_facts": len(gold),
            "candidates": 0,
        },
        "decisions": {
            "macro_f1_excludes_na": True,
            "accuracy_includes_na": True,
            "p_at_population": population,
        },
    }
    ranked = None
    if bags and gold:
        ranked = rank_facts(bags, gold, relations, population=population)
        report["counts"]["candidates"] = len(ranked)
        total = len(gold) if population == "gold-size" else None
        for k in P_AT_K:
            report["p_at"][str(k)] = (
                precision_at_k_percent(ranked, float(k), total=total) if ranked else 0.0
            )
    return report, ranked


def write_metrics_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")
