"""Corpus data model and the normalization pipeline: reversed-edge closure,
NA completion, entity caps, duplicate/self-loop removal, the dense-subset
split, vocabulary building, and pretrained-embedding loading.

Input corpora are line-delimited JSON, one sentence per line:

    {"id": str, "tokens": [str],
     "entities": [{"start": int, "end": int, "kb_id": str?}],
     "triples": [{"s": int, "o": int, "r": str, "p": str?}]}

``p`` is the triple provenance (gold / reversed / na-filled) and is omitted
for gold triples, so normalized files round-trip exactly.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .layers import UNK_ROW, EmbeddingTable

logger = logging.getLogger(__name__)

NA_RELATION = "NA"
MAX_ENTITIES = 9
GLOVE_DIM = 50

PROVENANCE_GOLD = "gold"
PROVENANCE_REVERSED = "reversed"
PROVENANCE_NA = "na-filled"
_PROVENANCES = (PROVENANCE_GOLD, PROVENANCE_REVERSED, PROVENANCE_NA)


class CorpusError(ValueError):
    """A data file violates the corpus schema or an invariant."""


class SkipSentence(Exception):
    """Control-flow signal: this sentence is excluded, with a counted reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class EntityMention:
    start: int  # token index, inclusive
    end: int  # token index, exclusive
    kb_id: str | None = None

    def span(self) -> range:
        return range(self.start, self.end)


@dataclass(frozen=True)
class RelationTriple:
    subject_idx: int
    object_idx: int
    relation: str
    provenance: str = PROVENANCE_GOLD


@dataclass
class Sentence:
    id: str
    tokens: list[str]
    entities: list[EntityMention]
    triples: list[RelationTriple]

    @property
    def entity_count(self) -> int:
        return len(self.entities)

    def label_map(self) -> dict[tuple[int, int], str]:
        return {(t.subject_idx, t.object_idx): t.relation for t in self.triples}

    def to_json(self) -> str:
        obj = {
            "id": self.id,
            "tokens": self.tokens,
            "entities": [
                {"start": e.start, "end": e.end, **({"kb_id": e.kb_id} if e.kb_id is not None else {})}
                for e in self.entities
            ],
            "triples": [
                {
                    "s": t.subject_idx,
                    "o": t.object_idx,
                    "r": t.relation,
                    **({"p": t.provenance} if t.provenance != PROVENANCE_GOLD else {}),
                }
                for t in self.triples
            ],
        }
        return json.dumps(obj, ensure_ascii=False)


def _int_field(record, key: str, where: str) -> int:
    """``record[key]``, which must be a JSON integer: a bool, a float or a
    string is a CorpusError naming the field, never rounded or parsed."""
    try:
        value = record[key]
    except (KeyError, TypeError):
        raise CorpusError(f"{where}: missing {key!r}") from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise CorpusError(f"{where}: {key!r} must be a JSON integer, got {json.dumps(value)}")
    return value


def sentence_from_obj(obj: dict) -> Sentence:
    if not isinstance(obj, dict):
        raise CorpusError("sentence record is not an object")
    sid = obj.get("id")
    tokens = obj.get("tokens")
    if not isinstance(sid, str) or not sid:
        raise CorpusError("missing or invalid 'id'")
    if not isinstance(tokens, list) or not tokens or not all(isinstance(t, str) for t in tokens):
        raise CorpusError("missing or invalid 'tokens'")
    entities: list[EntityMention] = []
    for k, e in enumerate(obj.get("entities", [])):
        start, end = (_int_field(e, key, f"entity {k}") for key in ("start", "end"))
        if not (0 <= start < end <= len(tokens)):
            raise CorpusError(f"entity {k}: span [{start}, {end}) outside tokens or empty")
        kb = e.get("kb_id")
        if kb is not None and not isinstance(kb, str):
            raise CorpusError(f"entity {k}: kb_id must be a string")
        entities.append(EntityMention(start, end, kb))
    triples: list[RelationTriple] = []
    for k, t in enumerate(obj.get("triples", [])):
        s, o = (_int_field(t, key, f"triple {k}") for key in ("s", "o"))
        try:
            r = t["r"]
        except (KeyError, TypeError):
            raise CorpusError(f"triple {k}: missing 'r'") from None
        if not isinstance(r, str) or not r:
            raise CorpusError(f"triple {k}: relation must be a nonempty string")
        if not (0 <= s < len(entities)) or not (0 <= o < len(entities)):
            raise CorpusError(f"triple {k}: entity index out of range")
        p = t.get("p", PROVENANCE_GOLD)
        if p not in _PROVENANCES:
            raise CorpusError(f"triple {k}: unknown provenance {p!r}")
        triples.append(RelationTriple(s, o, r, p))
    return Sentence(sid, list(tokens), entities, triples)


@dataclass(frozen=True)
class ParseError:
    line_no: int
    message: str


def parse_corpus_file(path, errors: list[ParseError] | None = None) -> Iterator[Sentence]:
    """Stream sentences from a line-delimited JSON file in file order.

    Malformed lines are recorded (with their 1-based line number) into
    ``errors`` when a list is supplied, otherwise raised.  An unreadable file
    raises immediately.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                sentence = sentence_from_obj(json.loads(line))
            except (json.JSONDecodeError, CorpusError) as exc:
                if errors is None:
                    raise CorpusError(f"{path}:{line_no}: {exc}") from exc
                errors.append(ParseError(line_no, str(exc)))
                continue
            yield sentence


def write_corpus_file(path, sentences: Iterable[Sentence]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for s in sentences:
            fh.write(s.to_json())
            fh.write("\n")
            n += 1
    return n


# ---------------------------------------------------------------------------
# relation vocabulary


class RelationVocab:
    """Bidirectional relation-name <-> class-index map with NA fixed at index
    0 plus the (partial, involutive) inverse-relation map."""

    def __init__(self, names: Sequence[str], inverse: dict[str, str] | None = None):
        names = list(names)
        if not names or names[0] != NA_RELATION:
            raise CorpusError(f"relation vocabulary must start with {NA_RELATION!r}")
        if len(set(names)) != len(names):
            raise CorpusError("duplicate relation names")
        self.names: list[str] = names
        self._index = {name: k for k, name in enumerate(names)}
        inverse = dict(inverse or {})
        for a, b in inverse.items():
            if a == NA_RELATION or b == NA_RELATION:
                raise CorpusError("NA has no inverse")
            if a not in self._index or b not in self._index:
                raise CorpusError(f"inverse map names unknown relation: {a!r} -> {b!r}")
            if inverse.get(b) != a:
                raise CorpusError(f"inverse map is not involutive at {a!r} -> {b!r}")
        self.inverse: dict[str, str] = inverse

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CorpusError(f"relation {name!r} absent from vocabulary") from None

    def name(self, idx: int) -> str:
        return self.names[idx]

    @classmethod
    def from_files(cls, relations_path, inverse_path=None) -> "RelationVocab":
        with open(relations_path, "r", encoding="utf-8") as fh:
            names = json.load(fh)
        inverse = None
        if inverse_path is not None:
            with open(inverse_path, "r", encoding="utf-8") as fh:
                inverse = json.load(fh)
        return cls(names, inverse)

    def save(self, relations_path, inverse_path=None) -> None:
        with open(relations_path, "w", encoding="utf-8") as fh:
            json.dump(self.names, fh, ensure_ascii=False, indent=0)
            fh.write("\n")
        if inverse_path is not None:
            with open(inverse_path, "w", encoding="utf-8") as fh:
                json.dump(self.inverse, fh, ensure_ascii=False, sort_keys=True, indent=0)
                fh.write("\n")


# ---------------------------------------------------------------------------
# normalization


def normalize_sentence(s: Sentence, vocab: RelationVocab) -> Sentence:
    """Apply the full normalization pipeline to one sentence:

    * entities at the identical span are merged (first kb_id wins);
    * partially overlapping spans skip the sentence;
    * self-loop triples are dropped, duplicate pair labels keep the first;
    * every invertible non-NA triple gains its missing reversed twin;
    * every remaining unlabeled ordered pair is filled with NA;
    * sentences with fewer than 2 or more than 9 entities are skipped.

    Raises SkipSentence with a counted reason, or CorpusError for relations
    missing from the vocabulary.  Running it twice is the identity.
    """
    entities, remap = _merge_identical_spans(s.entities)
    _reject_partial_overlaps(s.id, entities)
    m = len(entities)
    if m < 2:
        raise SkipSentence("too_few_entities")
    if m > MAX_ENTITIES:
        raise SkipSentence("too_many_entities")

    labels: dict[tuple[int, int], RelationTriple] = {}
    for t in s.triples:
        if t.relation not in vocab:
            raise CorpusError(f"sentence {s.id}: relation {t.relation!r} absent from vocabulary")
        si, oi = remap[t.subject_idx], remap[t.object_idx]
        if si == oi:
            continue  # self-loop, possibly created by the merge
        key = (si, oi)
        if key in labels:
            continue  # duplicate label for the pair: first one wins
        labels[key] = RelationTriple(si, oi, t.relation, t.provenance)

    for key in sorted(labels):
        t = labels[key]
        inv = vocab.inverse.get(t.relation)
        if inv is None or t.relation == NA_RELATION:
            continue
        rev_key = (t.object_idx, t.subject_idx)
        if rev_key not in labels:
            labels[rev_key] = RelationTriple(rev_key[0], rev_key[1], inv, PROVENANCE_REVERSED)

    triples = [labels.get((i, j)) or RelationTriple(i, j, NA_RELATION, PROVENANCE_NA)
               for i, j in ordered_pairs(m)]
    return Sentence(s.id, list(s.tokens), entities, triples)


def ordered_pairs(m: int) -> list[tuple[int, int]]:
    """Every ordered pair (i, j) of m entities with i != j, in lexicographic
    order: m-1 consecutive pairs per first entity i.  This is the one edge
    order, shared by a normalized sentence's triples, the entity graph and
    the rows of every stack of transition matrices."""
    return [(i, j) for i in range(m) for j in range(m) if j != i]


def _merge_identical_spans(entities: Sequence[EntityMention]) -> tuple[list[EntityMention], list[int]]:
    merged: list[EntityMention] = []
    seen: dict[tuple[int, int], int] = {}
    remap: list[int] = []
    for e in entities:
        key = (e.start, e.end)
        if key in seen:
            remap.append(seen[key])  # first kb_id wins, later duplicates fold in
        else:
            seen[key] = len(merged)
            remap.append(len(merged))
            merged.append(e)
    return merged, remap


def _reject_partial_overlaps(sid: str, entities: Sequence[EntityMention]) -> None:
    spans = sorted((e.start, e.end) for e in entities)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        if s2 < e1:
            raise SkipSentence("overlapping_entities")


def normalize_dataset(
    sentences: Iterable[Sentence], vocab: RelationVocab
) -> tuple[list[Sentence], Counter]:
    """Normalize a whole dataset, counting skip reasons."""
    kept: list[Sentence] = []
    skips: Counter = Counter()
    for s in sentences:
        try:
            kept.append(normalize_sentence(s, vocab))
        except SkipSentence as skip:
            skips[skip.reason] += 1
    return kept, skips


# ---------------------------------------------------------------------------
# dense subset


def is_dense(s: Sentence) -> bool:
    """A sentence is dense iff it has more than 2 entities and the undirected
    graph over its non-NA labels contains a cycle of length >= 3.  Collapsing
    each ordered pair to one undirected edge is what ignores the 2-cycles a
    gold/reversed pair would otherwise form."""
    m = s.entity_count
    if m <= 2:
        return False
    edges = {frozenset((t.subject_idx, t.object_idx)) for t in s.triples if t.relation != NA_RELATION}
    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for edge in sorted(tuple(sorted(e)) for e in edges):
        a, b = find(edge[0]), find(edge[1])
        if a == b:
            return True  # joining two already-connected nodes closes a cycle
        parent[a] = b
    return False


def split_dense_subset(dataset: Sequence[Sentence]) -> tuple[list[Sentence], list[Sentence]]:
    dense = [s for s in dataset if is_dense(s)]
    rest = [s for s in dataset if not is_dense(s)]
    return dense, rest


# ---------------------------------------------------------------------------
# token vocabulary


class Vocabulary:
    """Token -> row map for embedding tables.  Row 0 is padding, row 1 the
    unknown token; everything is case-folded to match lowercase pretrained
    embedding conventions."""

    UNK = UNK_ROW

    def __init__(self, tokens: Sequence[str]):
        self.tokens: list[str] = list(tokens)
        self._index = {tok: k + 2 for k, tok in enumerate(self.tokens)}
        if len(self._index) != len(self.tokens):
            raise CorpusError("duplicate tokens in vocabulary")

    @classmethod
    def build(cls, sentences: Iterable[Sentence]) -> "Vocabulary":
        seen: dict[str, None] = {}
        for s in sentences:
            for tok in s.tokens:
                seen.setdefault(tok.lower(), None)
        return cls(list(seen))

    def __len__(self) -> int:
        return len(self.tokens) + 2

    def id(self, token: str) -> int:
        return self._index.get(token.lower(), self.UNK)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.id(t) for t in tokens]

    def to_list(self) -> list[str]:
        return list(self.tokens)


# ---------------------------------------------------------------------------
# pretrained embeddings


def load_embedding_file(path, vocab: Vocabulary, rng: np.random.Generator) -> EmbeddingTable:
    """Build a word table from a text file of ``token v1 .. v50`` lines.

    Vocabulary words found in the file get the file's vector; missing words
    are randomly initialized like the unknown row.  The padding row stays
    zero and the width is fixed at 50.  A vocabulary word's line with a
    nan or infinite value is a CorpusError naming the file and the line;
    other malformed lines are logged and skipped.
    """
    errors: list[ParseError] = []
    vectors: dict[str, np.ndarray] = {}
    wanted = {tok for tok in vocab.tokens}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            token = parts[0].lower()
            if token not in wanted or token in vectors:
                continue
            values = parts[1:]
            if len(values) != GLOVE_DIM:
                errors.append(ParseError(line_no, f"expected {GLOVE_DIM} floats, got {len(values)}"))
                continue
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                errors.append(ParseError(line_no, "non-numeric embedding value"))
                continue
            if not np.isfinite(vec).all():
                bad = values[int(np.flatnonzero(~np.isfinite(vec))[0])]
                raise CorpusError(f"{path}:{line_no}: non-finite embedding value {bad!r} for {token!r}")
            vectors[token] = vec
    for err in errors:
        logger.warning("%s:%d: %s", path, err.line_no, err.message)
    if not vectors:
        logger.warning("%s: zero overlap with the vocabulary", path)

    table = EmbeddingTable.create(len(vocab), GLOVE_DIM, rng)
    weights = table.weights.data
    for k, token in enumerate(vocab.tokens):
        vec = vectors.get(token)
        if vec is not None:
            weights[k + 2] = vec
    return table
