"""The GP-GNN model: a fully-connected graph over a sentence's entities,
per-edge transition matrices generated from the marked token sequence, a
flag-initialized propagation stack, and a pairwise relation classifier.

Per-pair semantics are the contract: transition matrices are computed once
per sentence per layer and shared across target pairs, while propagation is
re-run per target pair because the layer-0 flag states depend on which pair
is queried.  This module is the one implementation that training,
evaluation and the gradient oracle all run, and it is batched: the edge
encoder takes every context of a batch's equal-length sentences at once,
and propagation takes every target pair of a sentence at once.  The
per-pair, per-message loops that define the semantics live in
``tests/reference.py``, and the tests pin this module to them.

The E = m(m-1) contexts of a sentence are one token sequence under E marker
rows, so many share a (token, marker) prefix or suffix.  The encoder's
BiLSTM runs over a prefix forest of each length group's contexts
(``autodiff.SequencePlan``, one per direction, shared by every layer's
encoder) and so computes each distinct prefix's and suffix's state once.
Its outputs are bit for bit those of running every context apart.

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
    reduce_sum,
    reshape,
    softmax_cross_entropy_rows,
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
    """One sentence's generated matrices: per layer, an (E, d_n, d_n) stack
    in edge order.  With tied adjacency every layer holds the same stack."""

    stacks: list[Tensor]


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
        graph: EntityGraph,
        matrices: TransitionMatrices,
        pairs: Sequence[tuple[int, int]],
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Logits for a batch of target pairs of one sentence, sharing the
        sentence's transition matrices.  Row p corresponds to pairs[p].  The
        representation concatenates, over layers 1..K, the elementwise
        product of the subject's and the object's states; the layer-0 flags
        never enter it."""
        states, subj_rows, obj_rows = flag_states(graph.m, self.dims.d_n, pairs)
        per_layer: list[Tensor] = []
        for n in range(self.dims.layers):
            states = propagate_layer(states, matrices.stacks[n], self.dims.activation)
            per_layer.append(states)
        blocks = [
            mul(gather_rows(layer, subj_rows), gather_rows(layer, obj_rows)) for layer in per_layer
        ]
        rep = concat(blocks, axis=1)
        return mlp_forward(self.head, rep, drop_ratio=self.dims.dropout, rng=rng, training=training)


def _loss_from_matrices(
    model: GpGnn,
    graph: EntityGraph,
    matrices: TransitionMatrices,
    training: bool,
    rng: np.random.Generator | None,
    na_weight: float,
) -> Tensor:
    """Sum of the per-pair cross entropies over all ordered entity pairs of
    one sentence.  Every pair needs a gold label (NA counts)."""
    targets = _gold_indices(model.relations, graph)
    logits = model.pair_logits(graph, matrices, graph.edges, training=training, rng=rng)
    losses = softmax_cross_entropy_rows(logits, targets)
    if na_weight != 1.0:
        weights = np.where(targets == 0, na_weight, 1.0)
        losses = mul(losses, Tensor(weights))
    return reduce_sum(losses)


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
) -> list[TransitionMatrices]:
    """Every sentence's transition matrices, in graph order.  Sentences of
    equal token length share one encoder run per layer; with tied adjacency
    the single encoder runs once and every layer shares its matrices."""
    by_length: dict[int, list[int]] = {}
    for idx, graph in enumerate(graphs):
        by_length.setdefault(graph.markers.shape[1], []).append(idx)

    matrices: list[TransitionMatrices | None] = [None] * len(graphs)
    d = model.dims.d_n
    for length in sorted(by_length):
        group = by_length[length]
        ids = [np.asarray(model.vocab.encode(graphs[idx].sentence.tokens), dtype=np.intp) for idx in group]
        word_rows = np.concatenate([np.tile(row, (len(graphs[idx].edges), 1)) for idx, row in zip(group, ids)])
        marker_rows = np.concatenate([graphs[idx].markers for idx in group])
        flat_layers = encode_edge_rows(
            model.encoders, model.word_table, model.pos_table, word_rows, marker_rows, d,
            drop_ratio=model.dims.dropout, rng=rng, training=training,
        )
        off = 0
        for idx in group:
            n_edges = len(graphs[idx].edges)
            stacks = [
                reshape(gather_rows(flat, np.arange(off, off + n_edges)), (n_edges, d, d))
                for flat in flat_layers
            ]
            off += n_edges
            if model.dims.tied:
                stacks = stacks * model.dims.layers
            matrices[idx] = TransitionMatrices(stacks)
    return matrices


def batch_losses(
    model: GpGnn,
    sentences: Sequence[Sentence],
    training: bool = False,
    rng: np.random.Generator | None = None,
    na_weight: float = 1.0,
) -> list[Tensor]:
    """Per-sentence loss scalars over a batch of sentences."""
    graphs = [build_entity_graph(s) for s in sentences]
    matrices = transition_matrices(model, graphs, training, rng)
    losses = []
    for graph, mats in zip(graphs, matrices):
        try:
            losses.append(_loss_from_matrices(model, graph, mats, training=training, rng=rng,
                                              na_weight=na_weight))
        except FloatingPointError as exc:  # only under a raising np.errstate, as in training
            raise FloatingPointError(f"sentence {graph.sentence.id!r}: {exc}") from None
    return losses


def predict_pairs(model: GpGnn, sentences: Sequence[Sentence]) -> list[PredictionRecord]:
    """Evaluation-mode probabilities for every ordered pair of every
    sentence, one record per pair in sentence and edge order.  A sentence
    whose probabilities are not all finite is a FloatingPointError naming it."""
    results: list[PredictionRecord] = []
    graphs = [build_entity_graph(s) for s in sentences]
    with no_grad():
        matrices = transition_matrices(model, graphs)
        for sentence, graph, mats in zip(sentences, graphs, matrices):
            probs = _softmax_values(model.pair_logits(graph, mats, graph.edges).data, axis=1)
            if not np.isfinite(probs).all():
                raise FloatingPointError(f"sentence {sentence.id!r}: non-finite probabilities")
            labels = sentence.label_map()
            for k, (s, o) in enumerate(graph.edges):
                results.append(
                    PredictionRecord(
                        sentence_id=sentence.id,
                        subject_idx=s,
                        object_idx=o,
                        probs=probs[k].copy(),
                        gold=labels.get((s, o), NA_RELATION),
                        subject_kb=sentence.entities[s].kb_id,
                        object_kb=sentence.entities[o].kb_id,
                    )
                )
    return results
