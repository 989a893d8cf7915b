"""The GP-GNN model: a fully-connected graph over a sentence's entities,
per-edge transition matrices generated from the marked token sequence, a
flag-initialized propagation stack, and a pairwise relation classifier.

Per-pair semantics are the contract: transition matrices are computed once
per sentence per layer and shared across target pairs, while each target
pair propagates its own states, because the layer-0 flag states depend on
which pair is queried.  This module is the one implementation that
training, evaluation and the gradient oracle all run, and it is batched.
The per-pair, per-message loops that define the semantics live in
``tests/reference.py``, and the tests pin this module to them.

The edge encoder takes every context of a batch's equal-length sentences at
once.  The E = m(m-1) contexts of a sentence are one token sequence under E
marker rows, so many share a (token, marker) prefix or suffix.  The
encoder's BiLSTM runs over a prefix forest of each length group's contexts
(``autodiff.SequencePlan``, one per direction, shared by every layer's
encoder) and so computes each distinct prefix's and suffix's state once.
Its outputs are bit for bit those of running every context apart.

Everything after the encoder runs once per batch.  Sentences with the same
m form a group, a disjoint union of graphs: per layer, one op propagates
every target pair of every sentence of the group, each sentence against
its own stack of matrices, gathered from the encoder's output rows at
once.  Layer 1 needs no layer-0 states.  They are zero except the two
flags, so node i of pair (s, o) receives act(A[i,s] @ subject) +
act(A[i,o] @ object) + act(0) from each other edge: 2E products per
sentence where propagating the flag states takes P*E
(``autodiff.propagate_flags``).  For relu and tanh, act(0) = 0 and this is
bit for bit that propagation wherever the two products round alike, as
they do at every width the tests try; for the sigmoid it adds the same
terms in another order.  The groups' pair representations are put back into
sentence and edge order, and one head runs over all of them.  That is the
order in which the per-sentence heads used to draw their dropout masks, so
training draws the same masks from the same stream.  One cross entropy over
every pair and one per-sentence sum then give each sentence's loss.

A sentence's graph structure (its m, edges and marker rows) depends only on
its entity spans, so ``batch_losses`` and ``predict_pairs`` build it afresh
for each sentence on every call; nothing is kept between calls.  The edge
order is ``corpus.ordered_pairs``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .autodiff import (
    ACTIVATIONS,
    FlagPlan,
    SequencePlan,
    ShapeError,
    Tensor,
    _softmax_values,
    concat,
    dropout,
    gather_rows,
    mul,
    no_grad,
    propagate,
    propagate_flags,
    reshape,
    segment_sums,
    softmax_cross_entropy_rows,
    unstack,
)
from .corpus import (
    NA_RELATION,
    CorpusError,
    MAX_ENTITIES,
    RelationVocab,
    Sentence,
    SkipSentence,
    Vocabulary,
    ordered_pairs,
)
from .evaluation import PredictionRecord
from .layers import (
    EmbeddingTable,
    LstmParams,
    MlpParams,
    ParameterStore,
    bilstm_encode_batch,
    embedding_lookup,
    mlp_forward,
)

MARKER_FIRST = 1
MARKER_SECOND = 2


class ConfigError(ValueError):
    """A model hyperparameter violates its constraints."""


def check_int(name: str, value, low: int) -> None:
    """ConfigError naming ``name`` unless ``value`` is an int (not a bool) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def is_number(value) -> bool:
    """An int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# graph over entities


@dataclass
class EntityGraph:
    sentence: Sentence
    m: int
    edges: list[tuple[int, int]]  # corpus.ordered_pairs(m)
    markers: np.ndarray  # (E, l): 1 in edge k's first entity, 2 in its second, 0 elsewhere


def build_entity_graph(sentence: Sentence) -> EntityGraph:
    """The fully connected graph over a sentence's entities, with each
    edge's token markers.  Fewer than 2 entities is a skip signal;
    overlapping entity spans are a CorpusError naming the sentence."""
    m = sentence.entity_count
    if m < 2:
        raise SkipSentence("too_few_entities")
    if m > MAX_ENTITIES:
        raise CorpusError(f"sentence {sentence.id}: {m} entities; normalization should have capped at {MAX_ENTITIES}")
    spans = np.zeros((m, len(sentence.tokens)), dtype=np.intp)
    for k, e in enumerate(sentence.entities):
        spans[k, e.start : e.end] = 1
    if spans.sum(axis=0).max() > 1:
        raise CorpusError(f"sentence {sentence.id}: entity spans overlap; normalize upstream")
    edges = ordered_pairs(m)
    first, second = np.array(edges, dtype=np.intp).T
    return EntityGraph(sentence, m, edges, MARKER_FIRST * spans[first] + MARKER_SECOND * spans[second])


# ---------------------------------------------------------------------------
# generated transition matrices


@dataclass
class EdgeEncoder:
    """One layer's text encoder: BiLSTM over the marked sequence, then an MLP
    whose output reshapes to a d_n x d_n matrix."""

    lstm_fwd: LstmParams
    lstm_bwd: LstmParams
    mlp: MlpParams

    @classmethod
    def create(
        cls, input_dim: int, hidden_size: int, d_n: int, activation: str, rng: np.random.Generator | None
    ) -> "EdgeEncoder":
        return cls(
            lstm_fwd=LstmParams.create(input_dim, hidden_size, rng),
            lstm_bwd=LstmParams.create(input_dim, hidden_size, rng),
            mlp=MlpParams.create([2 * hidden_size, hidden_size, d_n * d_n], activation, rng),
        )

    def named(self) -> Iterable[tuple[str, Tensor]]:
        for name, t in self.lstm_fwd.named():
            yield f"lstm_fwd.{name}", t
        for name, t in self.lstm_bwd.named():
            yield f"lstm_bwd.{name}", t
        for name, t in self.mlp.named():
            yield f"mlp.{name}", t


@dataclass
class TransitionMatrices:
    """A batch's generated matrices.  ``stacks[n]`` holds layer n's as one
    (N, d_n*d_n) row per context, graph by graph, each graph's E rows in
    edge order from row ``starts[k]`` for graph k.  With tied adjacency
    every layer holds the same tensor."""

    stacks: list[Tensor]
    starts: np.ndarray


def encode_edge_rows(
    encoders: Sequence[EdgeEncoder],
    word_table: EmbeddingTable,
    pos_table: EmbeddingTable,
    word_rows: np.ndarray,
    marker_rows: np.ndarray,
    d_n: int,
    drop_ratio: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> list[Tensor]:
    """Run a batch of equal-length contexts through each encoder.  Inputs
    are (N, l) arrays of token ids and marker ids; returns one (N, d_n*d_n)
    tensor per encoder, rows in context order.

    A context's step is the key ``token_id * 3 + marker``.  The distinct
    keys become the input rows, and one ``SequencePlan`` per direction over
    the key ids lets every encoder run its BiLSTM once per distinct prefix
    (forward) and suffix (backward), not once per context and token."""
    if pos_table.rows != 3:
        raise ConfigError(f"marker table must have exactly 3 rows, got {pos_table.rows}")
    for encoder in encoders:
        if encoder.mlp.output_size != d_n * d_n:
            raise ConfigError(f"encoder MLP emits {encoder.mlp.output_size} values, need d_n^2 = {d_n * d_n}")
    if word_rows.shape != marker_rows.shape or word_rows.ndim != 2:
        raise ShapeError(f"context id arrays disagree: {word_rows.shape} vs {marker_rows.shape}")
    keys, ids = np.unique(word_rows * 3 + marker_rows, return_inverse=True)
    ids = ids.reshape(word_rows.shape)
    plans = SequencePlan(ids), SequencePlan(ids, reverse=True)
    rows = concat([embedding_lookup(word_table, keys // 3), embedding_lookup(pos_table, keys % 3)], axis=1)
    out = []
    for encoder in encoders:
        encoded = bilstm_encode_batch(encoder.lstm_fwd, encoder.lstm_bwd, rows, *plans)
        encoded = dropout(encoded, drop_ratio, rng, training)
        out.append(mlp_forward(encoder.mlp, encoded, drop_ratio=drop_ratio, rng=rng, training=training))
    return out


# ---------------------------------------------------------------------------
# propagation


def flag_vectors(d_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The subject flag (ones, then zeros) and its mirror, for an even d_n."""
    subject = np.concatenate([np.ones(d_n // 2), np.zeros(d_n // 2)])
    return subject, subject[::-1].copy()


def flag_states(
    m: int, d_n: int, pairs: Sequence[tuple[int, int]]
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Layer-0 states for a batch of target pairs, stacked as (P*m, d_n).
    Block p holds ones-then-zeros at its subject's row, the mirror at its
    object's row, and zeros for every other node.  Also returns the subject
    and object rows of every block."""
    subject, objekt = flag_vectors(d_n)
    p = len(pairs)
    s_arr = np.fromiter((s for s, _o in pairs), dtype=np.intp, count=p)
    o_arr = np.fromiter((o for _s, o in pairs), dtype=np.intp, count=p)
    if np.any(s_arr == o_arr):
        raise ConfigError("target pair must be two distinct entities")
    base = np.arange(p, dtype=np.intp) * m
    subj_rows = base + s_arr
    obj_rows = base + o_arr
    h0 = np.zeros((p * m, d_n))
    h0[subj_rows] = subject
    h0[obj_rows] = objekt
    return Tensor(h0), subj_rows, obj_rows


@functools.cache
def message_sources(m: int) -> np.ndarray:
    """Source node j of each edge (i, j) of the m-entity graph, read-only."""
    src = np.array([j for _i, j in ordered_pairs(m)], dtype=np.intp)
    src.flags.writeable = False
    return src


@functools.cache
def flag_plan(m: int) -> FlagPlan:
    """Where the first layer's flag messages go for every target pair of
    the m-entity graph, in edge order."""
    return FlagPlan(message_sources(m), ordered_pairs(m))


def propagate_layer(states: Tensor, matrices: Tensor, activation: str) -> Tensor:
    """One message-passing step: h'_i = sum over j != i of act(A[i,j] @ h_j),
    with the activation applied per message before summation.  ``matrices``
    is the (E, d_n, d_n) stack of an m-entity graph in edge order, so
    E = m(m-1) gives m.  ``states`` stacks independent blocks of m nodes,
    (blocks*m, d_n), and every block propagates against that one stack.
    The step is one ``propagate`` tape record, whatever the number of blocks."""
    e = matrices.shape[0] if matrices.ndim == 3 else 0
    m = math.isqrt(e) + 1  # the m >= 1 with m(m-1) = e, if there is one
    if e == 0 or m * (m - 1) != e:
        raise ShapeError(f"expected an (m(m-1), d, d) stack of matrices for m >= 2, got {matrices.shape}")
    rows = states.shape[0]
    if rows % m != 0:
        raise ShapeError(f"{rows} state rows do not split into blocks of {m} nodes")
    # edge order keeps the m-1 edges (i, j) of each node i side by side, as propagate sums them
    return propagate(matrices, states, message_sources(m), activation)


# ---------------------------------------------------------------------------
# the assembled model


@dataclass(frozen=True)
class ModelDims:
    """The model's hyperparameters, each checked here and nowhere else."""

    d_n: int
    layers: int
    hidden_size: int
    activation: str
    dropout: float
    tied: bool
    word_dim: int
    position_dim: int

    def __post_init__(self) -> None:
        for name in ("layers", "hidden_size", "word_dim", "position_dim", "d_n"):
            check_int(name, getattr(self, name), 1)
        if self.d_n % 2 != 0:
            raise ConfigError(f"d_n (node-state width) must be even, got {self.d_n}")
        if not isinstance(self.activation, str) or self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {sorted(ACTIVATIONS)}, got {self.activation!r}")
        if not (is_number(self.dropout) and 0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be a number in [0, 1), got {self.dropout!r}")


class GpGnn:
    """Word/marker tables, per-layer edge encoders (or one shared encoder in
    tied mode), and the classification head, all registered in a store.
    ``rng`` draws the initial weights; without one every weight starts at
    zero, the structure that ``ParameterStore.load`` then fills."""

    def __init__(
        self,
        dims: ModelDims,
        vocab: Vocabulary,
        relations: RelationVocab,
        rng: np.random.Generator | None,
        word_table: EmbeddingTable | None = None,
    ):
        self.dims = dims
        self.vocab = vocab
        self.relations = relations
        if word_table is None:
            word_table = EmbeddingTable.create(len(vocab), dims.word_dim, rng)
        elif word_table.dim != dims.word_dim:
            raise ConfigError(f"word table width {word_table.dim} != configured {dims.word_dim}")
        self.word_table = word_table
        self.pos_table = EmbeddingTable.create(3, dims.position_dim, rng, reserved=False)
        input_dim = dims.word_dim + dims.position_dim
        n_encoders = 1 if dims.tied else dims.layers
        self.encoders = [
            EdgeEncoder.create(input_dim, dims.hidden_size, dims.d_n, dims.activation, rng)
            for _ in range(n_encoders)
        ]
        self.head = MlpParams.create(
            [dims.layers * dims.d_n, dims.hidden_size, len(relations)], dims.activation, rng
        )
        self.store = ParameterStore()
        self.store.register("word_embedding.weights", self.word_table.weights)
        self.store.register("position_embedding.weights", self.pos_table.weights)
        for n, enc in enumerate(self.encoders):
            prefix = "encoder.shared" if dims.tied else f"encoder.layer{n}"
            self.store.register_all(prefix, enc.named())
        self.store.register_all("head", self.head.named())

    def pair_logits(
        self,
        graphs: Sequence[EntityGraph],
        matrices: TransitionMatrices,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Logits for every ordered pair of every graph, one row per pair in
        graph and edge order, from the batch's transition matrices.

        Graphs of equal m propagate together: per layer, one op over all
        their target pairs (``propagate_flags`` for layer 1, ``propagate``
        after it), each graph against its own stack.  A pair's
        representation concatenates, over layers 1..K, the elementwise
        product of its subject's and its object's states; the layer-0 flags
        never enter it.  The head then runs once over every row."""
        d, activation = self.dims.d_n, self.dims.activation
        by_m: dict[int, list[int]] = {}
        for k, graph in enumerate(graphs):
            by_m.setdefault(graph.m, []).append(k)
        total = matrices.stacks[0].shape[0]
        flags = np.stack(flag_vectors(d))
        reps, positions = [], []
        pair_starts = np.cumsum([0] + [len(g.edges) for g in graphs])
        for m in sorted(by_m):
            group = by_m[m]
            e = m * (m - 1)
            rows = (matrices.starts[group][:, None] + np.arange(e)).reshape(-1)
            whole = rows.size == total and np.array_equal(rows, np.arange(total))
            stacks: dict[int, Tensor] = {}  # tied layers share one stack
            states, per_layer = None, []
            for flat in matrices.stacks:
                stack = stacks.get(id(flat))
                if stack is None:
                    picked = flat if whole else gather_rows(flat, rows)
                    stack = stacks[id(flat)] = reshape(picked, (len(group), e, d, d))
                if states is None:
                    states = propagate_flags(stack, flags, flag_plan(m), activation)
                else:
                    states = propagate(stack, states, message_sources(m), activation)
                per_layer.append(states)
            # the group's target pair q is its block q of m states: graph
            # q // e's pair q % e, which is (i, j) = (k // (m-1), sources[k])
            # for k = q % e, in edge order
            pair = np.arange(len(group) * e) % e
            subj_rows = np.arange(pair.size) * m + pair // (m - 1)
            obj_rows = np.arange(pair.size) * m + message_sources(m)[pair]
            blocks = [mul(gather_rows(h, subj_rows), gather_rows(h, obj_rows)) for h in per_layer]
            reps.append(concat(blocks, axis=1) if len(blocks) > 1 else blocks[0])
            positions.append((pair_starts[group][:, None] + np.arange(e)).reshape(-1))
        rep = reps[0]
        if len(reps) > 1:
            # back to graph and edge order, the order the head's dropout
            # draws its masks in
            rep = gather_rows(concat(reps, axis=0), np.argsort(np.concatenate(positions)))
        return mlp_forward(self.head, rep, drop_ratio=self.dims.dropout, rng=rng, training=training)


def _gold_indices(relations: RelationVocab, graph: EntityGraph) -> np.ndarray:
    labels = graph.sentence.label_map()
    targets = np.empty(len(graph.edges), dtype=np.intp)
    for k, pair in enumerate(graph.edges):
        try:
            name = labels[pair]
        except KeyError:
            raise CorpusError(
                f"sentence {graph.sentence.id}: no gold label for pair {pair}; normalize first"
            ) from None
        targets[k] = relations.index(name)
    return targets


def transition_matrices(
    model: GpGnn,
    graphs: Sequence[EntityGraph],
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> TransitionMatrices:
    """Every graph's transition matrices.  Sentences of equal token length
    share one encoder run per layer; with tied adjacency the single encoder
    runs once and every layer shares its matrices."""
    by_length: dict[int, list[int]] = {}
    for idx, graph in enumerate(graphs):
        by_length.setdefault(graph.markers.shape[1], []).append(idx)

    parts: list[list[Tensor]] = [[] for _ in model.encoders]
    starts = np.empty(len(graphs), dtype=np.intp)
    off = 0
    for length in sorted(by_length):
        group = by_length[length]
        ids = [np.asarray(model.vocab.encode(graphs[idx].sentence.tokens), dtype=np.intp) for idx in group]
        word_rows = np.concatenate([np.tile(row, (len(graphs[idx].edges), 1)) for idx, row in zip(group, ids)])
        marker_rows = np.concatenate([graphs[idx].markers for idx in group])
        flat_layers = encode_edge_rows(
            model.encoders, model.word_table, model.pos_table, word_rows, marker_rows, model.dims.d_n,
            drop_ratio=model.dims.dropout, rng=rng, training=training,
        )
        for part, flat in zip(parts, flat_layers):
            part.append(flat)
        for idx in group:
            starts[idx] = off
            off += len(graphs[idx].edges)
    stacks = [concat(part, axis=0) if len(part) > 1 else part[0] for part in parts]
    return TransitionMatrices(stacks * model.dims.layers if model.dims.tied else stacks, starts)


def batch_losses(
    model: GpGnn,
    sentences: Sequence[Sentence],
    training: bool = False,
    rng: np.random.Generator | None = None,
    na_weight: float = 1.0,
) -> list[Tensor]:
    """Per-sentence loss scalars over a batch of sentences: each the sum of
    its pairs' cross entropies (NA pairs weighted by ``na_weight``).  Every
    pair needs a gold label (NA counts).  The batch takes one head, one
    loss and one per-sentence sum; a FloatingPointError raised in them,
    which only a raising np.errstate (as in training) makes, names the
    batch's sentences."""
    if not sentences:
        return []
    graphs = [build_entity_graph(s) for s in sentences]
    targets = np.concatenate([_gold_indices(model.relations, graph) for graph in graphs])
    matrices = transition_matrices(model, graphs, training, rng)
    try:
        logits = model.pair_logits(graphs, matrices, training=training, rng=rng)
        losses = softmax_cross_entropy_rows(logits, targets)
        if na_weight != 1.0:
            losses = mul(losses, Tensor(np.where(targets == 0, na_weight, 1.0)))
        sums = segment_sums(losses, [len(graph.edges) for graph in graphs])
    except FloatingPointError as exc:
        raise FloatingPointError(f"batch of sentences {[s.id for s in sentences]}: {exc}") from None
    return unstack(sums)


def predict_pairs(model: GpGnn, sentences: Sequence[Sentence]) -> list[PredictionRecord]:
    """Evaluation-mode probabilities for every ordered pair of every
    sentence, one record per pair in sentence and edge order; each record's
    probabilities are a row of one array.  A sentence whose probabilities
    are not all finite is a FloatingPointError naming it."""
    if not sentences:
        return []
    graphs = [build_entity_graph(s) for s in sentences]
    with no_grad():
        logits = model.pair_logits(graphs, transition_matrices(model, graphs))
    probs = _softmax_values(logits.data, axis=1)
    results: list[PredictionRecord] = []
    off = 0
    for sentence, graph in zip(sentences, graphs):
        block = probs[off : off + len(graph.edges)]
        off += len(graph.edges)
        if not np.isfinite(block).all():
            raise FloatingPointError(f"sentence {sentence.id!r}: non-finite probabilities")
        labels = sentence.label_map()
        for (s, o), row in zip(graph.edges, block):
            results.append(
                PredictionRecord(
                    sentence_id=sentence.id,
                    subject_idx=s,
                    object_idx=o,
                    probs=row,
                    gold=labels.get((s, o), NA_RELATION),
                    subject_kb=sentence.entities[s].kb_id,
                    object_kb=sentence.entities[o].kb_id,
                )
            )
    return results
