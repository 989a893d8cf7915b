"""Reference implementations of the GP-GNN forward pass, one edge, one
target pair and one message at a time, and of evaluation, one record and
one ranked candidate at a time.

``gpgnn.model`` runs the model batched: every context of a batch's
sentences goes through the encoder together, and every target
pair of a batch's sentences with the same entity count propagates together.  The loops here spell out the same
semantics directly: the marked context of one ordered pair, an LSTM stepped
token by token, one message act(A[i,j] @ h_j) at a time in scalar Python,
one target pair's flag states, representation and classifier.  The tests pin the batched path
to these oracles.  ``gpgnn.evaluation`` ranks bags and writes its files as
arrays; the loops at the end of this module build one dict per bag, one
``RankedFact`` per candidate and one ``json.dumps`` or ``csv`` row per line.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from gpgnn.autodiff import (
    ACTIVATIONS,
    SequencePlan,
    ShapeError,
    Tensor,
    _matmul_rows,
    _result,
    _softmax_values,
    add,
    add_bias,
    concat,
    gather_rows,
    matmul,
    mul,
    no_grad,
    reshape,
    sigmoid,
    tanh,
)
from gpgnn.corpus import NA_RELATION, CorpusError, RelationVocab, Sentence, Vocabulary
from gpgnn.evaluation import P_AT_K, EvaluationError, PredictionRecord
from gpgnn.layers import EmbeddingTable, LstmParams, MlpParams, embedding_lookup, mlp_forward
from gpgnn.model import (
    MARKER_FIRST,
    MARKER_SECOND,
    ConfigError,
    EntityGraph,
    GpGnn,
    TransitionMatrices,
    build_entity_graph,
)


# ---------------------------------------------------------------------------
# the logistic function


def exp_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) with no exp of a large positive number: the form
    ``ACTIVATIONS["sigmoid"]`` had before it became one tanh."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# edges and their contexts


def edge_row(graph: EntityGraph, i: int, j: int) -> int:
    """Row of the ordered pair (i, j) in the graph's edge order."""
    # edges are grouped by target i, then source j ascending with i skipped
    return i * (graph.m - 1) + (j if j < i else j - 1)


def sentence_stacks(matrices: TransitionMatrices, graphs: list[EntityGraph], k: int) -> list[np.ndarray]:
    """Layer by layer, graph k's (E, d_n, d_n) stack, cut out of a batch's
    transition matrices."""
    e = len(graphs[k].edges)
    start = matrices.starts[k]
    d = math.isqrt(matrices.stacks[0].shape[1])
    return [flat.data[start : start + e].reshape(e, d, d) for flat in matrices.stacks]


def transition_matrix(stacks: list[np.ndarray], graph: EntityGraph, n: int, i: int, j: int) -> np.ndarray:
    """Layer n's (d_n, d_n) matrix for the ordered pair (i, j), from a
    graph's ``sentence_stacks``."""
    return stacks[n][edge_row(graph, i, j)]


def edge_markers(sentence: Sentence, edge: tuple[int, int]) -> np.ndarray:
    """Token markers for one ordered pair, one token at a time: 1 inside the
    first entity's span, 2 inside the second entity's span, 0 elsewhere."""
    i, j = edge
    marks = np.zeros(len(sentence.tokens), dtype=np.intp)
    for t in sentence.entities[i].span():
        marks[t] = MARKER_FIRST
    for t in sentence.entities[j].span():
        if marks[t] != 0:
            raise CorpusError(f"sentence {sentence.id}: entity spans overlap; normalize upstream")
        marks[t] = MARKER_SECOND
    return marks


def encode_edge_context(
    sentence: Sentence,
    edge: tuple[int, int],
    word_table: EmbeddingTable,
    pos_table: EmbeddingTable,
    vocab: Vocabulary,
) -> Tensor:
    """Per-token rows [word embedding ; marker embedding] for one edge."""
    if pos_table.rows != 3:
        raise ConfigError(f"marker table must have exactly 3 rows, got {pos_table.rows}")
    ids = vocab.encode(sentence.tokens)
    marks = edge_markers(sentence, edge)
    word = embedding_lookup(word_table, ids)
    pos = embedding_lookup(pos_table, marks)
    return concat([word, pos], axis=1)


# ---------------------------------------------------------------------------
# LSTM


def _rows(v: Tensor) -> Tensor:
    """A (d,) vector as a one-row (1, d) matrix; a matrix as it is."""
    return reshape(v, (1, v.shape[0])) if v.ndim == 1 else v


def _gate(x: Tensor, h: Tensor, w: Tensor, u: Tensor, b: Tensor) -> Tensor:
    z = add_bias(add(matmul(_rows(x), w), matmul(_rows(h), u)), b)
    return reshape(z, (z.shape[1],)) if x.ndim == 1 else z


def mlp_vector(p: MlpParams, x: Tensor) -> Tensor:
    """``mlp_forward`` on one (d,) vector, run as a one-row batch."""
    return reshape(mlp_forward(p, _rows(x)), (p.output_size,))


def lstm_step(p: LstmParams, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step with sigmoid gates and tanh candidate/output squashing,
    each gate from its own parameter blocks.

    Accepts a single input vector (d,) with states (H,), or a batch of rows
    (B,d) with states (B,H); all rows step together.
    """
    d, hd = p.w_i.shape
    if x.shape[-1] != d:
        raise ShapeError(f"lstm_step input width {x.shape} does not match params ({d})")
    if h.shape != c.shape or h.shape[-1] != hd:
        raise ShapeError(f"lstm_step state shapes {h.shape}/{c.shape} do not match H={hd}")
    i = sigmoid(_gate(x, h, p.w_i, p.u_i, p.b_i))
    f = sigmoid(_gate(x, h, p.w_f, p.u_f, p.b_f))
    o = sigmoid(_gate(x, h, p.w_o, p.u_o, p.b_o))
    g = tanh(_gate(x, h, p.w_c, p.u_c, p.b_c))
    c_next = add(mul(f, c), mul(i, g))
    h_next = mul(o, tanh(c_next))
    return h_next, c_next


def bilstm_encode(fwd: LstmParams, bwd: LstmParams, seq: Tensor) -> Tensor:
    """Encode an (l, d) sequence into a (2H,) vector: the forward pass's
    final hidden state concatenated with the backward pass's state at
    position 0.  Both passes start from zero states and take one
    ``lstm_step`` per token."""
    if seq.ndim != 2 or seq.shape[0] < 1:
        raise ShapeError(f"bilstm_encode needs a nonempty (l, d) sequence, got {seq.shape}")
    length, width = seq.shape

    def run(p: LstmParams, order) -> Tensor:
        h = Tensor(np.zeros(p.b_i.shape[0]))
        c = Tensor(np.zeros(p.b_i.shape[0]))
        for t in order:
            h, c = lstm_step(p, reshape(gather_rows(seq, [t]), (width,)), h, c)
        return h

    return concat([run(fwd, range(length)), run(bwd, range(length - 1, -1, -1))], axis=0)


def dense_plans(length: int, batch: int) -> tuple[SequencePlan, SequencePlan]:
    """Both direction plans of ``batch`` sequences over time-major rows, row
    t*batch + k being timestep t of sequence k, with nothing shared: the
    dense batch."""
    ids = np.arange(length * batch).reshape(length, batch).T
    return SequencePlan(ids), SequencePlan(ids, reverse=True)


def dense_lstm_sequence(x: Tensor, w: Tensor, u: Tensor, b: Tensor, batch: int, reverse: bool = False) -> Tensor:
    """``lstm_sequence`` as a dense batch: every sequence steps through every
    timestep, with no state shared between sequences.  ``x`` holds
    time-major rows, row t*batch + k being timestep t of sequence k; returns
    the final (batch, H) hidden state as one tape record whose rule is
    backpropagation through time, one timestep at a time.  Products go
    through ``_matmul_rows``, so a one-row batch rounds as a taller one."""
    if x.ndim != 2 or batch < 1 or x.shape[0] == 0 or x.shape[0] % batch != 0:
        raise ShapeError(f"dense_lstm_sequence needs a nonempty multiple of {batch} time-major rows, got {x.shape}")
    hd = u.shape[0]
    xd, wd, ud = x.data, w.data, u.data
    sigmoid_values, sigmoid_rule = ACTIVATIONS["sigmoid"]
    tanh_rule = ACTIVATIONS["tanh"][1]
    times = range(x.shape[0] // batch)
    blocks = [slice(t * batch, (t + 1) * batch) for t in (reversed(times) if reverse else times)]
    h = c = np.zeros((batch, hd))
    saved = []
    for rows in blocks:
        z = (_matmul_rows(xd[rows], wd) + _matmul_rows(h, ud)) + b.data
        i = sigmoid_values(z[:, :hd])
        f = sigmoid_values(z[:, hd : 2 * hd])
        o = sigmoid_values(z[:, 2 * hd : 3 * hd])
        g = np.tanh(z[:, 3 * hd :])
        cp = c
        c = f * cp + i * g
        tc = np.tanh(c)
        saved.append((h, cp, i, f, o, g, tc))
        h = o * tc

    def rule(gy: np.ndarray):
        gx = np.empty_like(xd)
        gw, gu, gb = np.zeros_like(wd), np.zeros_like(ud), np.zeros_like(b.data)
        gh, gc = gy, np.zeros_like(gy)
        for rows, (hp, cp, i, f, o, g, tc) in zip(reversed(blocks), reversed(saved)):
            gc = gc + tanh_rule(gh * o, tc)
            gz = np.concatenate([sigmoid_rule(gc * g, i), sigmoid_rule(gc * cp, f),
                                 sigmoid_rule(gh * tc, o), tanh_rule(gc * i, g)], axis=1)
            gw += xd[rows].T @ gz
            gu += hp.T @ gz
            gb += gz.sum(axis=0)
            gx[rows] = gz @ wd.T
            gh = gz @ ud.T
            gc = gc * f
        return gx, gw, gu, gb

    return _result(h, (x, w, u, b), rule)


# ---------------------------------------------------------------------------
# propagation for one target pair


@dataclass
class NodeStates:
    """Per-target-pair node representations, one (m, d_n) tensor per layer
    0..K.  Layer 0 carries the subject/object flag vectors."""

    layers: list[Tensor]
    target: tuple[int, int]

    def vec(self, n: int, i: int) -> Tensor:
        layer = self.layers[n]
        return reshape(gather_rows(layer, [i]), (layer.shape[1],))


def initialize_node_states(graph: EntityGraph, target: tuple[int, int], d_n: int) -> NodeStates:
    """Layer-0 states: ones-then-zeros for the subject, the mirror for the
    object, all-zero for every other node."""
    s, o = target
    half = d_n // 2
    h0 = np.zeros((graph.m, d_n))
    h0[s, :half] = 1.0
    h0[o, half:] = 1.0
    return NodeStates(layers=[Tensor(h0)], target=target)


def naive_propagate(states, mats_by_edge, edges, activation):
    """One layer in scalar Python loops, message by message: h'_i = sum
    over j != i of act(A[i,j] @ h_j), for nested-list states (m, d) and
    per-edge matrices (E, d, d) in edge order."""
    m = len(states)
    d = len(states[0])
    out = [[0.0] * d for _ in range(m)]
    for k, (i, j) in enumerate(edges):
        a = mats_by_edge[k]
        for r in range(d):
            msg = 0.0
            for c in range(d):
                msg += a[r][c] * states[j][c]
            if activation == "relu":
                msg = msg if msg > 0.0 else 0.0
            elif activation == "tanh":
                msg = math.tanh(msg)
            elif activation == "sigmoid":
                # exp of a non-positive number only, so nothing overflows
                e = math.exp(-abs(msg))
                msg = 1.0 / (1.0 + e) if msg >= 0.0 else e / (1.0 + e)
            else:
                raise ValueError(f"naive_propagate has no {activation!r} activation")
            out[i][r] += msg
    return out


def run_propagation(
    graph: EntityGraph, mats_by_layer, target: tuple[int, int], d_n: int, layers: int, activation: str
) -> NodeStates:
    """K layers for one target pair; ``mats_by_layer[n]`` holds layer n's
    per-edge matrices in edge order."""
    states = initialize_node_states(graph, target, d_n)
    for n in range(layers):
        nxt = naive_propagate(states.layers[n].data.tolist(), mats_by_layer[n], graph.edges, activation)
        states.layers.append(Tensor(np.array(nxt)))
    return states


# ---------------------------------------------------------------------------
# classification


def pair_representation(states: NodeStates, target: tuple[int, int], layers: int) -> Tensor:
    """Concatenation over layers 1..K of the subject/object elementwise
    product; the layer-0 flags never enter the representation."""
    if len(states.layers) < layers + 1:
        raise ShapeError(f"need states for layers 0..{layers}, have {len(states.layers)}")
    s, o = target
    blocks = [mul(states.vec(k, s), states.vec(k, o)) for k in range(1, layers + 1)]
    return concat(blocks, axis=0)


def classify_pair(rep: Tensor, head: MlpParams, relations: RelationVocab) -> np.ndarray:
    """Probability distribution over all relations (NA included)."""
    if head.output_size != len(relations):
        raise ShapeError(f"classifier emits {head.output_size} logits for {len(relations)} relations")
    return _softmax_values(mlp_vector(head, rep).data, axis=-1)


def neg_log_softmax(logits: np.ndarray, target: int) -> float:
    """-log softmax(logits)[target] for one logit vector, in plain numpy."""
    z = np.asarray(logits, dtype=np.float64)
    top = z.max()
    return float(top + np.log(np.exp(z - top).sum()) - z[target])


# ---------------------------------------------------------------------------
# the whole model, one pair at a time


def edge_matrices(model: GpGnn, graph: EntityGraph) -> list[list]:
    """Per layer, per edge in edge order: the edge's marked context through
    the layer's BiLSTM and MLP, as a nested-list (d_n, d_n) matrix.  Tied
    adjacency runs the one shared encoder for every layer."""
    d = model.dims.d_n
    layers = []
    for n in range(model.dims.layers):
        enc = model.encoders[0 if model.dims.tied else n]
        stack = []
        for edge in graph.edges:
            ctx = encode_edge_context(graph.sentence, edge, model.word_table, model.pos_table, model.vocab)
            vec = mlp_vector(enc.mlp, bilstm_encode(enc.lstm_fwd, enc.lstm_bwd, ctx))
            stack.append(vec.data.reshape(d, d).tolist())
        layers.append(stack)
    return layers


def pair_outputs(model: GpGnn, sentence: Sentence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every ordered pair in edge order, in evaluation mode: the class
    probabilities (E, R), the cross entropy against the gold label (E,), and
    the gold class index (E,)."""
    graph = build_entity_graph(sentence)
    labels = sentence.label_map()
    dims = model.dims
    probs, losses, targets = [], [], []
    with no_grad():
        mats = edge_matrices(model, graph)
        for pair in graph.edges:
            states = run_propagation(graph, mats, pair, dims.d_n, dims.layers, dims.activation)
            rep = pair_representation(states, pair, dims.layers)
            target = model.relations.index(labels[pair])
            probs.append(classify_pair(rep, model.head, model.relations))
            losses.append(neg_log_softmax(mlp_vector(model.head, rep).data, target))
            targets.append(target)
    return np.array(probs), np.array(losses), np.array(targets)


# ---------------------------------------------------------------------------
# evaluation


def record_json(r: PredictionRecord) -> str:
    """One record as a predictions.jsonl line (without the newline)."""
    obj = {
        "sentence_id": r.sentence_id,
        "subject_idx": r.subject_idx,
        "object_idx": r.object_idx,
        "probs": [float(p) for p in r.probs],
        "gold": r.gold,
    }
    if r.subject_kb is not None:
        obj["subject_kb"] = r.subject_kb
    if r.object_kb is not None:
        obj["object_kb"] = r.object_kb
    return json.dumps(obj, ensure_ascii=False)


def write_predictions(path, records) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(record_json(r))
            fh.write("\n")
            n += 1
    return n


def sentence_metrics(records, relations: RelationVocab) -> dict:
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


def score_bags(records) -> dict[tuple[str, str], np.ndarray]:
    """Max-one bag scores, one np.maximum per record in record order."""
    bags: dict[tuple[str, str], np.ndarray] = {}
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


def missing_kb_count(records) -> int:
    return sum(1 for r in records if r.subject_kb is None or r.object_kb is None)


def gold_facts(records) -> set[tuple[str, str, str]]:
    return {
        (r.subject_kb, r.object_kb, r.gold)
        for r in records
        if r.gold != NA_RELATION and r.subject_kb is not None and r.object_kb is not None
    }


@dataclass(frozen=True)
class RankedFact:
    score: float
    bag: tuple[str, str]
    relation_index: int
    relation: str
    correct: bool


def rank_facts(bags, gold, relations: RelationVocab, population: str = "predictions") -> list[RankedFact]:
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
            facts.append(RankedFact(score=float(vec[rel_idx]), bag=key, relation_index=rel_idx,
                                    relation=name, correct=(key[0], key[1], name) in gold))
    facts.sort(key=lambda f: (-f.score, f.bag, f.relation_index))
    return facts


def precision_at_k_percent(ranked: list[RankedFact], k: float, total: int | None = None) -> float:
    if not 0.0 < k <= 100.0:
        raise EvaluationError(f"k must be in (0, 100], got {k}")
    if not ranked:
        raise EvaluationError("empty ranking")
    base = total if total is not None else len(ranked)
    top = min(len(ranked), max(1, math.ceil(k / 100.0 * base)))
    return sum(1 for f in ranked[:top] if f.correct) / top


def pr_curve_points(ranked: list[RankedFact], n_gold: int) -> list[tuple[float, float]]:
    if n_gold <= 0:
        raise EvaluationError("zero gold facts: recall undefined")
    points = []
    hits = 0
    for rank, fact in enumerate(ranked, start=1):
        hits += int(fact.correct)
        points.append((hits / n_gold, hits / rank))
    return points


def write_pr_csv(path, ranked: list[RankedFact], n_gold: int) -> None:
    points = pr_curve_points(ranked, n_gold)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "score", "correct", "precision", "recall"])
        for rank, (fact, (recall, precision)) in enumerate(zip(ranked, points), start=1):
            writer.writerow([rank, repr(fact.score), int(fact.correct), repr(precision), repr(recall)])


def metrics_report(records, relations: RelationVocab, population: str = "predictions"):
    """The report and the ranked facts (None without bags or gold facts)."""
    sent = sentence_metrics(records, relations)
    bags = score_bags(records)
    gold = gold_facts(records)
    report = {
        "accuracy": sent["accuracy"],
        "macro_f1": sent["macro_f1"],
        "p_at": {},
        "counts": {"records": len(records), "bags": len(bags), "excluded_no_kb": missing_kb_count(records),
                   "gold_facts": len(gold), "candidates": 0},
        "decisions": {"macro_f1_excludes_na": True, "accuracy_includes_na": True,
                      "p_at_population": population},
    }
    ranked = None
    if bags and gold:
        ranked = rank_facts(bags, gold, relations, population=population)
        report["counts"]["candidates"] = len(ranked)
        total = len(gold) if population == "gold-size" else None
        for k in P_AT_K:
            report["p_at"][str(k)] = precision_at_k_percent(ranked, float(k), total=total) if ranked else 0.0
    return report, ranked
