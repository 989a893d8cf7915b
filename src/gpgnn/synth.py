"""Synthetic multi-hop corpus generator.

Each generated sentence verbalizes one or more 3-entity chains
``head -r1-> mid -r2-> tail``.  The surface tokens state only the two premise
relations; the gold labels additionally contain the implied relation between
head and tail given by the composition rule, so recovering it requires
composing the premises.  Test splits draw entity symbols from a pool disjoint
from train/valid, which maps every test entity token to the unknown row.

With several chains per sentence, a (head, tail) pair from different chains
has the same local surface signature as a same-chain pair; only the graph
structure over all edges distinguishes them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import (
    NA_RELATION,
    CorpusError,
    EntityMention,
    RelationTriple,
    RelationVocab,
    Sentence,
    write_corpus_file,
)

SEPARATOR = "."


@dataclass
class SynthSpec:
    """Generator configuration.  ``composition`` is a list of
    (premise1, premise2, implied) rules; None selects the default rule
    comp_{(i+j) mod n} for premises rel_i, rel_j."""

    n_entities: int = 40
    n_relations: int = 3
    n_sentences: int = 100
    seed: int = 0
    chains_per_sentence: int = 1
    mid_tokens: tuple[int, int] = (1, 1)
    splits: tuple[float, float, float] = (0.8, 0.1, 0.1)
    composition: list[tuple[str, str, str]] | None = None

    @classmethod
    def from_dict(cls, obj, seed: int = 0) -> "SynthSpec":
        """A checked spec from parsed JSON; ``seed`` applies when ``obj``
        sets none.  Every problem is a CorpusError naming the field."""
        if not isinstance(obj, dict):
            raise CorpusError(f"a spec must be a JSON object, got {type(obj).__name__}")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise CorpusError(f"unknown spec fields: {unknown}")
        spec = cls(**{"seed": seed, **obj})
        spec.validate()
        return spec

    def validate(self) -> None:
        for name, low in (("n_entities", 1), ("n_relations", 1), ("n_sentences", 0), ("seed", 0),
                          ("chains_per_sentence", 1)):
            value = getattr(self, name)
            if not _is_seq([value], 1, int) or value < low:
                raise CorpusError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.chains_per_sentence > 3:
            raise CorpusError("chains_per_sentence must be 1..3 (entity cap is 9)")
        if self.n_entities < 3 * self.chains_per_sentence:
            raise CorpusError("n_entities: entity pool too small for the chains per sentence")
        if not (_is_seq(self.mid_tokens, 2, int) and 1 <= self.mid_tokens[0] <= self.mid_tokens[1]):
            raise CorpusError(f"mid_tokens must be two integers 1 <= lo <= hi, got {self.mid_tokens!r}")
        if not (_is_seq(self.splits, 3, (int, float)) and all(f >= 0 for f in self.splits)
                and abs(sum(self.splits) - 1.0) <= 1e-9):
            raise CorpusError(f"splits must be three nonnegative fractions summing to 1, got {self.splits!r}")
        rules = self.composition
        if rules is not None and not (isinstance(rules, (list, tuple))
                                      and all(_is_seq(r, 3, str) for r in rules)):
            raise CorpusError("composition must be a list of [premise1, premise2, implied] name triples")


def _is_seq(value, length: int, kind) -> bool:
    """A list or tuple of ``length`` items of type ``kind``, bools excluded."""
    return isinstance(value, (list, tuple)) and len(value) == length and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in value)


@dataclass
class SynthResult:
    train: list[Sentence]
    valid: list[Sentence]
    test: list[Sentence]
    relations: RelationVocab
    base_names: list[str]
    composed_names: list[str]
    composition: list[tuple[str, str, str]]
    spec: SynthSpec

    def write_files(self, out_dir) -> dict[str, str]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "train": out / "train.jsonl",
            "valid": out / "valid.jsonl",
            "test": out / "test.jsonl",
            "relations": out / "relations.json",
            "inverse_map": out / "inverse_map.json",
            "meta": out / "synth_meta.json",
        }
        write_corpus_file(paths["train"], self.train)
        write_corpus_file(paths["valid"], self.valid)
        write_corpus_file(paths["test"], self.test)
        self.relations.save(paths["relations"], paths["inverse_map"])
        meta = {
            "spec": {**asdict(self.spec), "composition": self.composition},
            "base_relations": self.base_names,
            "composed_relations": self.composed_names,
        }
        with open(paths["meta"], "w", encoding="utf-8") as fh:
            json.dump(meta, fh, ensure_ascii=False, sort_keys=True, indent=2)
            fh.write("\n")
        return {k: str(v) for k, v in paths.items()}


def default_composition(n_relations: int) -> list[tuple[str, str, str]]:
    rules = []
    for i in range(n_relations):
        for j in range(n_relations):
            rules.append((f"rel_{i}", f"rel_{j}", f"comp_{(i + j) % n_relations}"))
    return rules


def _rule_table(rules: Sequence[tuple[str, str, str]]) -> dict[tuple[str, str], str]:
    table: dict[tuple[str, str], str] = {}
    for r1, r2, r3 in rules:
        key = (r1, r2)
        if table.get(key, r3) != r3:
            raise CorpusError(f"inconsistent composition rule: {key} maps to both {table[key]!r} and {r3!r}")
        table[key] = r3
    return table


def synthesize_multihop_corpus(spec: SynthSpec) -> SynthResult:
    """Generate train/valid/test splits of chain sentences, deterministic
    under the spec seed."""
    spec.validate()
    rules = list(spec.composition) if spec.composition is not None else default_composition(spec.n_relations)
    rules = [tuple(r) for r in rules]
    table = _rule_table(rules)
    base_names = sorted({r for rule in rules for r in rule[:2]})
    composed_names = sorted({rule[2] for rule in rules})
    overlap = set(base_names) & set(composed_names)
    if overlap:
        raise CorpusError(f"composition rule reuses premise relations as implied ones: {sorted(overlap)}")
    vocab = RelationVocab([NA_RELATION] + base_names + composed_names, inverse={})

    rng = np.random.default_rng(spec.seed)
    n = spec.n_sentences
    n_train = int(round(n * spec.splits[0]))
    n_valid = int(round(n * spec.splits[1]))
    n_test = n - n_train - n_valid
    train_pool = [f"ent{k:03d}" for k in range(spec.n_entities)]
    test_pool = [f"xent{k:03d}" for k in range(spec.n_entities)]

    def make_split(name: str, count: int, pool: list[str]) -> list[Sentence]:
        return [
            _make_sentence(f"synth-{name}-{spec.seed}-{k:05d}", spec, rules, table, pool, rng)
            for k in range(count)
        ]

    train = make_split("train", n_train, train_pool)
    valid = make_split("valid", n_valid, train_pool)
    test = make_split("test", n_test, test_pool)
    return SynthResult(train, valid, test, vocab, base_names, composed_names, rules, spec)


def _make_sentence(
    sid: str,
    spec: SynthSpec,
    rules: Sequence[tuple[str, str, str]],
    table: dict[tuple[str, str], str],
    pool: Sequence[str],
    rng: np.random.Generator,
) -> Sentence:
    k_chains = spec.chains_per_sentence
    symbols = [pool[i] for i in rng.choice(len(pool), size=3 * k_chains, replace=False)]
    chains = []
    for c in range(k_chains):
        r1, r2, _ = rules[int(rng.integers(len(rules)))]
        chains.append((symbols[3 * c], r1, symbols[3 * c + 1], r2, symbols[3 * c + 2]))

    tokens: list[str] = []
    entities: list[EntityMention] = []
    index_of: dict[str, int] = {}
    order = rng.permutation(k_chains)
    for pos, c in enumerate(order):
        head, r1, mid, r2, tail = chains[c]
        if pos > 0:
            tokens.append(SEPARATOR)
        _append_entity(tokens, entities, index_of, head, 1)
        tokens.append(r1)
        width = int(rng.integers(spec.mid_tokens[0], spec.mid_tokens[1] + 1))
        _append_entity(tokens, entities, index_of, mid, width)
        tokens.append(r2)
        _append_entity(tokens, entities, index_of, tail, 1)

    triples: list[RelationTriple] = []
    for head, r1, mid, r2, tail in chains:
        hi, mi, ti = index_of[head], index_of[mid], index_of[tail]
        triples.append(RelationTriple(hi, mi, r1))
        triples.append(RelationTriple(mi, ti, r2))
        triples.append(RelationTriple(hi, ti, table[(r1, r2)]))
    triples.sort(key=lambda t: (t.subject_idx, t.object_idx))
    return Sentence(sid, tokens, entities, triples)


def _append_entity(
    tokens: list[str],
    entities: list[EntityMention],
    index_of: dict[str, int],
    symbol: str,
    width: int,
) -> None:
    start = len(tokens)
    if width == 1:
        tokens.append(symbol)
    else:
        tokens.extend(f"{symbol}:{t}" for t in range(width))
    index_of[symbol] = len(entities)
    entities.append(EntityMention(start, len(tokens), kb_id=symbol))
