import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgnn import autodiff as ad
from gpgnn.autodiff import Tensor
from gpgnn.corpus import CorpusError, SkipSentence
from gpgnn.layers import MlpParams
from gpgnn.model import (
    ConfigError,
    batch_losses,
    build_entity_graph,
    encode_edge_rows,
    flag_plan,
    flag_states,
    flag_vectors,
    message_sources,
    predict_pairs,
    propagate_layer,
    transition_matrices,
)
from gpgnn.corpus import (EntityMention, RelationTriple, RelationVocab, Sentence, normalize_sentence,
                          ordered_pairs)

from conftest import (
    TOY_RELATIONS,
    make_sentence,
    three_entity_sentence,
    tiny_dims,
    tiny_model,
    two_entity_sentence,
)
from reference import (
    bilstm_encode,
    dense_plans,
    classify_pair,
    edge_markers,
    edge_row,
    encode_edge_context,
    initialize_node_states,
    mlp_vector,
    naive_propagate,
    neg_log_softmax,
    pair_outputs,
    pair_representation,
    run_propagation,
    sentence_stacks,
    transition_matrix,
)

# ---------------------------------------------------------------------------
# graph construction


def test_graph_m3_has_six_ordered_edges():
    graph = build_entity_graph(three_entity_sentence())
    assert len(graph.edges) == 6
    assert graph.edges == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_graph_m2_edges():
    graph = build_entity_graph(two_entity_sentence())
    assert graph.edges == [(0, 1), (1, 0)]


def test_graph_entity_count_bounds():
    tokens = [f"t{k}" for k in range(10)]
    nine = make_sentence("nine", tokens, [(k, k + 1) for k in range(9)], [])
    assert build_entity_graph(nine).m == 9
    ten = make_sentence("ten", tokens, [(k, k + 1) for k in range(10)], [])
    with pytest.raises(CorpusError):
        build_entity_graph(ten)
    one = make_sentence("one", tokens, [(0, 1)], [])
    with pytest.raises(SkipSentence):
        build_entity_graph(one)


# ---------------------------------------------------------------------------
# edge contexts


def test_edge_markers_three_way():
    s = three_entity_sentence()  # spans (0,1), (2,3), (5,6)
    graph = build_entity_graph(s)
    assert graph.markers.shape == (6, 6)
    assert graph.markers[edge_row(graph, 0, 1)].tolist() == [1, 0, 2, 0, 0, 0]
    assert graph.markers[edge_row(graph, 1, 0)].tolist() == [2, 0, 1, 0, 0, 0]
    assert graph.markers[edge_row(graph, 2, 0)].tolist() == [2, 0, 0, 0, 0, 1]


def test_edge_markers_reject_overlap():
    s = make_sentence("ov", ["a", "b", "c"], [(0, 2), (1, 3)], [])
    with pytest.raises(CorpusError, match="sentence ov: entity spans overlap"):
        build_entity_graph(s)


@st.composite
def spans_sentences(draw):
    """A sentence of m = 2..9 entities with non-overlapping spans of 1-3
    tokens, 0-2 tokens apart, listed in a random order."""
    m = draw(st.integers(2, 9))
    spans, end = [], 0
    for _ in range(m):
        start = end + draw(st.integers(0, 2))
        end = start + draw(st.integers(1, 3))
        spans.append((start, end))
    length = end + draw(st.integers(0, 2))
    spans = draw(st.permutations(spans))
    entities = [EntityMention(a, b) for a, b in spans]
    return Sentence(f"hyp-{m}", [f"t{k}" for k in range(length)], entities, [])


@given(spans_sentences(), st.data())
@settings(max_examples=200, deadline=None)
def test_graph_markers_match_per_token_loop(sentence, data):
    """The graph's vectorized marker rows equal the per-token reference
    loop, edge by edge; an overlap of any two spans is a CorpusError naming
    the sentence in both."""
    graph = build_entity_graph(sentence)
    m = sentence.entity_count
    assert graph.markers.shape == (m * (m - 1), len(sentence.tokens))
    for k, edge in enumerate(ordered_pairs(m)):
        np.testing.assert_array_equal(graph.markers[k], edge_markers(sentence, edge))

    a, b = data.draw(st.permutations(range(m)))[:2]
    hit = data.draw(st.sampled_from(list(sentence.entities[a].span())))
    entities = list(sentence.entities)
    entities[b] = EntityMention(hit, hit + 1)
    overlapping = Sentence(sentence.id, sentence.tokens, entities, [])
    with pytest.raises(CorpusError, match=f"sentence {sentence.id}: entity spans overlap"):
        build_entity_graph(overlapping)
    with pytest.raises(CorpusError, match=f"sentence {sentence.id}: entity spans overlap"):
        for edge in ordered_pairs(m):
            edge_markers(overlapping, edge)


def test_edge_context_width_and_swap(rng):
    s = three_entity_sentence()
    model = tiny_model([s])
    ctx = encode_edge_context(s, (0, 1), model.word_table, model.pos_table, model.vocab)
    assert ctx.shape == (len(s.tokens), model.dims.word_dim + model.dims.position_dim)
    swapped = encode_edge_context(s, (1, 0), model.word_table, model.pos_table, model.vocab)
    # word halves agree, marker halves swap the 1/2 rows
    np.testing.assert_array_equal(ctx.data[:, :5], swapped.data[:, :5])
    np.testing.assert_array_equal(ctx.data[0, 5:], model.pos_table.weights.data[1])
    np.testing.assert_array_equal(swapped.data[0, 5:], model.pos_table.weights.data[2])


def test_edge_context_requires_three_marker_rows(rng):
    from gpgnn.layers import EmbeddingTable

    s = two_entity_sentence()
    model = tiny_model([s])
    bad = EmbeddingTable.create(4, 2, rng, reserved=False)
    marks = build_entity_graph(s).markers
    words = np.ones_like(marks)
    with pytest.raises(ConfigError, match="3 rows"):
        encode_edge_rows([model.encoders[0]], model.word_table, bad, words, marks, model.dims.d_n)


def test_multi_token_mention_marks_whole_span():
    s = make_sentence(
        "mt", ["new", "york", "hosts", "acme", "corp"], [(0, 2), (3, 5)], [(0, 1, "likes")]
    )
    assert build_entity_graph(s).markers[0].tolist() == [1, 1, 0, 2, 2]


# ---------------------------------------------------------------------------
# transition matrices


def test_matrices_have_d_n_shape_per_edge():
    s = three_entity_sentence()
    model = tiny_model([s])
    graph = build_entity_graph(s)
    mats = transition_matrices(model, [graph])
    assert len(mats.stacks) == 2
    stacks = sentence_stacks(mats, [graph], 0)
    for n in range(2):
        assert mats.stacks[n].shape == (6, 16)
        assert stacks[n].shape == (6, 4, 4)
        assert transition_matrix(stacks, graph, n, 2, 1).shape == (4, 4)
    # per-edge accessor rows match the stacked layout
    row = edge_row(graph, 2, 1)
    assert graph.edges[row] == (2, 1)
    np.testing.assert_array_equal(transition_matrix(stacks, graph, 0, 2, 1), mats.stacks[0].data[row].reshape(4, 4))


def test_zero_final_mlp_layer_gives_zero_matrices():
    s = two_entity_sentence()
    model = tiny_model([s])
    for enc in model.encoders:
        enc.mlp.weights[-1].data[:] = 0.0
        enc.mlp.biases[-1].data[:] = 0.0
    for stack in transition_matrices(model, [build_entity_graph(s)]).stacks:
        np.testing.assert_array_equal(stack.data, 0.0)


def test_untied_layers_differ_tied_layers_match():
    s = three_entity_sentence()
    untied = tiny_model([s], seed=9)
    mats = transition_matrices(untied, [build_entity_graph(s)])
    assert np.abs(mats.stacks[0].data - mats.stacks[1].data).max() > 1e-6

    tied = tiny_model([s], seed=9, tied=True)
    mats = transition_matrices(tied, [build_entity_graph(s)])
    np.testing.assert_array_equal(mats.stacks[0].data, mats.stacks[1].data)


def test_generate_matches_contract_composition():
    """The batched generator equals encode -> bilstm -> mlp -> reshape per edge."""
    s = three_entity_sentence()
    model = tiny_model([s])
    graph = build_entity_graph(s)
    mats = transition_matrices(model, [graph])
    for k, edge in enumerate(graph.edges):
        ctx = encode_edge_context(s, edge, model.word_table, model.pos_table, model.vocab)
        enc = model.encoders[1]
        vec = mlp_vector(enc.mlp, bilstm_encode(enc.lstm_fwd, enc.lstm_bwd, ctx))
        np.testing.assert_allclose(
            mats.stacks[1].data[k].reshape(4, 4), vec.data.reshape(4, 4), atol=1e-12
        )


def test_encoder_output_width_must_be_d_n_squared():
    s = two_entity_sentence()
    model = tiny_model([s])
    marks = build_entity_graph(s).markers
    words = np.ones_like(marks)
    with pytest.raises(ConfigError, match="d_n"):
        encode_edge_rows([model.encoders[0]], model.word_table, model.pos_table, words, marks, d_n=6)


# ---------------------------------------------------------------------------
# node states and propagation


def test_flag_initialization_d4():
    states, subj_rows, obj_rows = flag_states(3, 4, [(0, 2)])
    assert subj_rows.tolist() == [0] and obj_rows.tolist() == [2]
    layer0 = states.data
    np.testing.assert_array_equal(layer0[0], [1, 1, 0, 0])
    np.testing.assert_array_equal(layer0[2], [0, 0, 1, 1])
    np.testing.assert_array_equal(layer0[1], [0, 0, 0, 0])


def test_odd_d_n_rejected():
    with pytest.raises(ConfigError, match="even"):
        tiny_dims(d_n=3)
    with pytest.raises(ConfigError, match="d_n"):
        tiny_dims(d_n=0)


def test_identity_matrices_swap_flags():
    graph = build_entity_graph(two_entity_sentence())
    states, _subj, _obj = flag_states(graph.m, 2, [(0, 1)])
    eye = Tensor(np.stack([np.eye(2), np.eye(2)]))
    nxt = propagate_layer(states, eye, "relu")
    np.testing.assert_array_equal(nxt.data[0], [0, 1])
    np.testing.assert_array_equal(nxt.data[1], [1, 0])


def test_zero_states_stay_zero_under_relu(rng):
    graph = build_entity_graph(three_entity_sentence())
    mats = Tensor(rng.uniform(-1, 1, (6, 4, 4)))
    nxt = propagate_layer(Tensor(np.zeros((3, 4))), mats, "relu")
    np.testing.assert_array_equal(nxt.data, np.zeros((3, 4)))


def test_propagation_needs_an_m_entity_stack_and_whole_blocks():
    with pytest.raises(ad.ShapeError, match=r"m\(m-1\)"):
        propagate_layer(Tensor(np.zeros((3, 2))), Tensor(np.zeros((5, 2, 2))), "relu")
    with pytest.raises(ad.ShapeError, match=r"m\(m-1\)"):
        propagate_layer(Tensor(np.zeros((1, 2))), Tensor(np.zeros((0, 2, 2))), "relu")
    with pytest.raises(ad.ShapeError, match="blocks of 3"):
        propagate_layer(Tensor(np.zeros((4, 2))), Tensor(np.zeros((6, 2, 2))), "relu")


@given(st.integers(2, 5), st.sampled_from([2, 4, 8]), st.sampled_from(["relu", "tanh", "sigmoid"]),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_propagation_matches_naive_loop(m, d_n, activation, blocks, seed):
    """Every block of m nodes (one per target pair) propagates on its own."""
    r = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m) for j in range(m) if j != i]
    mats = r.uniform(-1, 1, (len(edges), d_n, d_n))
    states = r.uniform(-1, 1, (blocks * m, d_n))
    fast = propagate_layer(Tensor(states), Tensor(mats), activation).data
    for b in range(blocks):
        rows = slice(b * m, (b + 1) * m)
        slow = naive_propagate(states[rows].tolist(), mats.tolist(), edges, activation)
        np.testing.assert_allclose(fast[rows], np.array(slow), atol=1e-12)


@given(st.integers(2, 9), st.sampled_from([2, 4, 8, 12]), st.sampled_from(["relu", "tanh", "sigmoid"]),
       st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_flag_layer_is_propagation_of_the_flag_states(m, d_n, activation, graphs, some_pairs, seed):
    """The first layer straight from the flags equals ``propagate_layer`` on
    ``flag_states``, graph by graph, for every target pair or a random few:
    bit for bit for relu and tanh, whose act(0) = 0 adds exact zeros, and
    within (m-1)**2 * 2**-52 for the sigmoid, whose m-1 terms it adds in
    another order."""
    r = np.random.default_rng(seed)
    pairs = ordered_pairs(m)
    if some_pairs:
        pairs = [pairs[k] for k in sorted(r.choice(len(pairs), int(r.integers(1, len(pairs) + 1)), replace=False))]
    stacks = r.uniform(-1, 1, (graphs, m * (m - 1), d_n, d_n))
    plan = flag_plan(m) if not some_pairs else ad.FlagPlan(message_sources(m), pairs)
    fast = ad.propagate_flags(Tensor(stacks), np.stack(flag_vectors(d_n)), plan, activation).data
    states, _subj, _obj = flag_states(m, d_n, pairs)
    slow = np.concatenate([propagate_layer(states, Tensor(stack), activation).data for stack in stacks])
    if activation == "sigmoid":
        np.testing.assert_allclose(fast, slow, rtol=0, atol=(m - 1) ** 2 * 2.0**-52)
    else:
        assert np.array_equal(fast, slow)


def _recorded(out):
    """Every tensor an op produced under ``out``, found through op.inputs."""
    found, todo = {}, [out]
    while todo:
        t = todo.pop()
        if t.op is not None and id(t) not in found:
            found[id(t)] = t
            todo.extend(t.op.inputs)
    return list(found.values())


def test_tape_shape_of_encoder_and_propagation(rng):
    """The encoder records a fixed number of ops whatever the sentence
    length, a propagation layer records one op whatever the number of
    blocks, and ``backward`` leaves ``grad`` on leaves only."""
    from gpgnn.layers import LstmParams, bilstm_encode_batch

    fwd = LstmParams.create(3, 4, rng)
    bwd = LstmParams.create(3, 4, rng)
    counts = []
    for length in (2, 12):
        rows = Tensor(rng.uniform(-1, 1, (length * 5, 3)), requires_grad=True)
        counts.append(len(_recorded(bilstm_encode_batch(fwd, bwd, rows, *dense_plans(length, 5)))))
    assert counts[0] == counts[1]

    m, d = 4, 3
    mats = Tensor(rng.uniform(-1, 1, (m * (m - 1), d, d)), requires_grad=True)
    for blocks in (1, 5):
        states = Tensor(rng.uniform(-1, 1, (blocks * m, d)), requires_grad=True)
        out = propagate_layer(states, mats, "tanh")
        assert _recorded(out) == [out]

    encoded = bilstm_encode_batch(fwd, bwd, rows, *dense_plans(12, 5))
    loss = ad.add(ad.reduce_sum(out), ad.reduce_sum(encoded))
    ad.backward(loss)
    tape = _recorded(loss)
    assert all(t.grad is None for t in tape)
    leaves = [mats, states, rows] + [t for p in (fwd, bwd) for _n, t in p.named()]
    assert all(t.grad is not None for t in leaves)


# ---------------------------------------------------------------------------
# pair representation and classification


def test_pair_representation_k1_worked_case():
    graph = build_entity_graph(two_entity_sentence())
    states = initialize_node_states(graph, (0, 1), 2)
    states.layers.append(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])))
    rep = pair_representation(states, (0, 1), 1)
    assert rep.data.tolist() == [3.0, 8.0]


def test_pair_representation_width_and_zero_blocks(rng):
    graph = build_entity_graph(three_entity_sentence())
    states = initialize_node_states(graph, (0, 2), 4)
    states.layers.append(Tensor(rng.uniform(-1, 1, (3, 4))))
    zero_layer = rng.uniform(-1, 1, (3, 4))
    zero_layer[0] = 0.0
    states.layers.append(Tensor(zero_layer))
    rep = pair_representation(states, (0, 2), 2)
    assert rep.shape == (8,)
    np.testing.assert_array_equal(rep.data[4:], np.zeros(4))  # subject state zero at layer 2
    with pytest.raises(ad.ShapeError, match="layers"):
        pair_representation(states, (0, 2), 3)


def test_classify_pair_distribution_and_uniform(rng):
    head = MlpParams.create([4, 6, len(TOY_RELATIONS)], "relu", rng)
    rep = Tensor(rng.uniform(-1, 1, 4))
    probs = classify_pair(rep, head, TOY_RELATIONS)
    assert np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) < 1e-12

    for w in head.weights:
        w.data[:] = 0.0
    for b in head.biases:
        b.data[:] = 0.0
    probs = classify_pair(rep, head, TOY_RELATIONS)
    np.testing.assert_allclose(probs, np.full(len(TOY_RELATIONS), 1.0 / len(TOY_RELATIONS)), atol=1e-15)


def test_classify_pair_head_width_must_match(rng):
    head = MlpParams.create([4, 6, 3], "relu", rng)
    with pytest.raises(ad.ShapeError, match="logits"):
        classify_pair(Tensor(np.zeros(4)), head, TOY_RELATIONS)


def test_softmax_argmax_shift_invariance(rng):
    logits = rng.uniform(-2, 2, 7)
    base = ad._softmax_values(logits, axis=-1)
    shifted = ad._softmax_values(logits + 123.456, axis=-1)
    assert np.argmax(base) == np.argmax(shifted)
    np.testing.assert_allclose(base, shifted, atol=1e-12)


# ---------------------------------------------------------------------------
# sentence loss


def test_sentence_loss_uniform_head_is_2_ln_R():
    s = two_entity_sentence()
    relations = RelationVocab(["NA", "r1", "r2", "r3", "r4"])
    triples = [RelationTriple(0, 1, "r1"), RelationTriple(1, 0, "r2")]
    s = Sentence(s.id, s.tokens, s.entities, triples)
    model = tiny_model([s], relations=relations)
    for w in model.head.weights:
        w.data[:] = 0.0
    for b in model.head.biases:
        b.data[:] = 0.0
    loss = batch_losses(model, [s])[0]
    assert loss.item() == pytest.approx(2.0 * math.log(5.0), abs=1e-12)


def test_sentence_loss_saturated_predictions_vanish():
    # both ordered pairs share one gold class, so a head whose output bias
    # saturates that logit predicts both pairs perfectly
    base = two_entity_sentence()
    relations = RelationVocab(["NA", "r1"])
    triples = [RelationTriple(0, 1, "r1"), RelationTriple(1, 0, "r1")]
    s = Sentence(base.id, base.tokens, base.entities, triples)
    model = tiny_model([s], relations=relations)
    for w in model.head.weights:
        w.data[:] = 0.0
    for b in model.head.biases:
        b.data[:] = 0.0
    model.head.biases[-1].data[:] = np.array([-20.0, 20.0])
    loss = batch_losses(model, [s])[0]
    assert loss.item() < 1e-6


def test_sentence_loss_decomposes_into_pair_losses():
    s = three_entity_sentence()
    model = tiny_model([s])
    total = batch_losses(model, [s])[0].item()
    graph = build_entity_graph(s)
    labels = s.label_map()
    by_layer = [stack.tolist() for stack in sentence_stacks(transition_matrices(model, [graph]), [graph], 0)]
    parts = 0.0
    for pair in graph.edges:
        states = run_propagation(graph, by_layer, pair, model.dims.d_n, model.dims.layers,
                                 model.dims.activation)
        rep = pair_representation(states, pair, model.dims.layers)
        logits = mlp_vector(model.head, rep)
        parts += neg_log_softmax(logits.data, model.relations.index(labels[pair]))
    assert total == pytest.approx(parts, abs=1e-12)


def test_sentence_loss_missing_gold_label():
    s = three_entity_sentence()
    s = Sentence(s.id, s.tokens, s.entities, s.triples[:-1])
    model = tiny_model([s])
    with pytest.raises(CorpusError, match="no gold label"):
        batch_losses(model, [s])[0]


def test_batch_losses_match_per_sentence_paths():
    sentences = mixed_batch()
    model = tiny_model(sentences)
    batched = [l.item() for l in batch_losses(model, sentences)]
    singles = [batch_losses(model, [s])[0].item() for s in sentences]
    np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=1e-12)


def mixed_batch():
    """m=2 and m=3 sentences of 4, 6, 3 and 4 tokens, in that order; the
    three m=2 sentences mix two lengths."""
    dan = normalize_sentence(
        make_sentence("toy-dan", ["dan", "likes", "eve"], [(0, 1), (2, 3)], [(0, 1, "likes")]),
        TOY_RELATIONS,
    )
    carl = normalize_sentence(
        make_sentence("toy-carl", ["carl", "sees", "the", "bob"], [(0, 1), (3, 4)], [(0, 1, "sees")]),
        TOY_RELATIONS,
    )
    return [two_entity_sentence(), three_entity_sentence(), dan, carl]


def test_mixed_lengths_take_one_encoder_run_in_graph_order(monkeypatch):
    """Whatever token lengths a batch mixes, each encoder records one
    ``bilstm_sequence`` over all its contexts, the stacks hold the graphs
    in batch order, a batch of one m propagates its stacks without
    gathering their rows, and ``predict_pairs`` over the batch is each
    sentence's own call bit for bit."""
    import gpgnn.layers
    import gpgnn.model

    sentences = mixed_batch()
    model = tiny_model(sentences, seed=11, layers=2)
    graphs = [build_entity_graph(s) for s in sentences]
    sizes = [len(g.edges) for g in graphs]
    encoded = []
    bilstm = gpgnn.layers.bilstm_sequence
    monkeypatch.setattr(gpgnn.layers, "bilstm_sequence", lambda *a: encoded.append(a[3].sequences) or bilstm(*a))
    matrices = transition_matrices(model, graphs)
    assert encoded == [sum(sizes)] * 2
    assert matrices.starts.tolist() == [0, 2, 8, 10]

    same_m = [g for g in graphs if g.m == 2]
    assert sorted(g.markers.shape[1] for g in same_m) == [3, 4, 4]
    matrices = transition_matrices(model, same_m)
    gathered = []
    gather = gpgnn.model.gather_rows
    monkeypatch.setattr(gpgnn.model, "gather_rows", lambda x, rows: gathered.append(x) or gather(x, rows))
    model.pair_logits(same_m, matrices)
    assert gathered and not any(x is stack for x in gathered for stack in matrices.stacks)
    monkeypatch.undo()

    batched = np.stack([r.probs for r in predict_pairs(model, sentences)])
    alone = np.concatenate([np.stack([r.probs for r in predict_pairs(model, [s])]) for s in sentences])
    assert np.array_equal(batched, alone)


@pytest.mark.parametrize("layers, tied", [(1, False), (2, False), (1, True), (2, True)],
                         ids=["K1", "K2", "K1-tied", "K2-tied"])
def test_batched_path_matches_per_pair_reference(layers, tied):
    """batch_losses and predict_pairs equal the per-pair reference pipeline:
    edge context, stepped BiLSTM, MLP, per-message propagation for one
    target pair, representation, head, softmax and cross entropy."""
    sentences = mixed_batch()
    model = tiny_model(sentences, seed=11, layers=layers, tied=tied)
    expected = [pair_outputs(model, s) for s in sentences]

    losses = batch_losses(model, sentences)
    weighted = batch_losses(model, sentences, na_weight=0.5)
    for loss, weighted_loss, (_probs, pair_losses, targets) in zip(losses, weighted, expected):
        assert loss.item() == pytest.approx(pair_losses.sum(), abs=1e-12)
        na_scaled = np.where(targets == 0, 0.5, 1.0) * pair_losses
        assert weighted_loss.item() == pytest.approx(na_scaled.sum(), abs=1e-12)

    predicted = predict_pairs(model, sentences)
    reference_probs = np.concatenate([probs for probs, _losses, _targets in expected])
    assert len(predicted) == len(reference_probs)
    np.testing.assert_allclose(
        np.stack([p.probs for p in predicted]), reference_probs, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
def test_batched_path_matches_per_pair_reference_for_each_activation(activation):
    """The mixed-m batch (m = 2 and 3 together) against the per-pair
    reference with the first layer's act(0) = 0 (tanh) and 0.5 (sigmoid),
    tied and untied, K = 2."""
    sentences = mixed_batch()
    for tied in (False, True):
        model = tiny_model(sentences, seed=13, layers=2, tied=tied, activation=activation)
        expected = [pair_outputs(model, s) for s in sentences]
        losses = batch_losses(model, sentences, na_weight=0.5)
        for loss, (_probs, pair_losses, targets) in zip(losses, expected):
            na_scaled = np.where(targets == 0, 0.5, 1.0) * pair_losses
            assert loss.item() == pytest.approx(na_scaled.sum(), abs=1e-12)
        predicted = np.stack([p.probs for p in predict_pairs(model, sentences)])
        np.testing.assert_allclose(predicted, np.concatenate([e[0] for e in expected]), rtol=0, atol=1e-12)


def test_tape_grows_by_two_records_per_sentence():
    """After the encoder the model runs once per batch: 20 sentences of
    one shape record exactly 2 more tape records per extra sentence than 2
    do, the per-sentence loss scalar and the trainer's reshape of it."""
    base = three_entity_sentence()

    def records(n):
        batch = [Sentence(f"copy-{k}", base.tokens, base.entities, base.triples) for k in range(n)]
        model = tiny_model(batch, dropout=0.5)
        losses = batch_losses(model, batch, training=True, rng=np.random.default_rng(0), na_weight=0.5)
        mean = ad.scale(ad.reduce_sum(ad.concat([ad.reshape(l, (1,)) for l in losses], axis=0)), 1.0 / n)
        return len(_recorded(mean))

    assert records(20) - records(2) == 2 * 18


def test_na_weight_downscales_na_pairs():
    s = two_entity_sentence()  # (0,1) gold likes, (1,0) reversed liked_by: no NA
    s3 = three_entity_sentence()  # has NA pairs
    model = tiny_model([s3])
    full = batch_losses(model, [s3])[0].item()
    weighted = batch_losses(model, [s3], na_weight=0.5)[0].item()
    graph = build_entity_graph(s3)
    labels = s3.label_map()
    na_share = 0.0
    logits_all = model.pair_logits([graph], transition_matrices(model, [graph]))
    for k, pair in enumerate(graph.edges):
        target = model.relations.index(labels[pair])
        part = neg_log_softmax(logits_all.data[k], target)
        if target == 0:
            na_share += part
    assert weighted == pytest.approx(full - 0.5 * na_share, abs=1e-10)


def test_permuting_entity_indices_leaves_loss_unchanged():
    s = three_entity_sentence()
    model = tiny_model([s])
    base = batch_losses(model, [s])[0].item()
    perm = [2, 0, 1]  # new index of old entity k
    entities = [None] * 3
    for old, new in enumerate(perm):
        entities[new] = s.entities[old]
    triples = [
        RelationTriple(perm[t.subject_idx], perm[t.object_idx], t.relation, t.provenance)
        for t in s.triples
    ]
    permuted = Sentence(s.id, s.tokens, entities, triples)
    assert batch_losses(model, [permuted])[0].item() == pytest.approx(base, abs=1e-9)


def test_layer0_of_nontarget_nodes_never_enters_pair_representation():
    graph = build_entity_graph(three_entity_sentence())
    states = initialize_node_states(graph, (0, 1), 4)
    rng = np.random.default_rng(0)
    states.layers.append(Tensor(rng.uniform(-1, 1, (3, 4))))
    rep_before = pair_representation(states, (0, 1), 1).data.copy()
    states.layers[0].data[2] += 100.0  # layer-0 state of the non-target node
    rep_after = pair_representation(states, (0, 1), 1).data
    np.testing.assert_array_equal(rep_before, rep_after)


# ---------------------------------------------------------------------------
# full-model gradients


@pytest.mark.parametrize("sentence_fn, tied", [
    pytest.param(two_entity_sentence, False, id="two_entity_sentence"),
    pytest.param(three_entity_sentence, False, id="three_entity_sentence"),
    pytest.param(two_entity_sentence, True, id="two_entity_sentence-tied"),
    pytest.param(three_entity_sentence, True, id="three_entity_sentence-tied"),
])
def test_full_model_grad_check(sentence_fn, tied):
    s = sentence_fn()
    model = tiny_model([s], d_n=2, tied=tied)

    def loss_fn():
        return batch_losses(model, [s], training=False)[0]

    reports = ad.grad_check_params(loss_fn, dict(model.store.named()), step=1e-5, tol=1e-4)
    failed = {n: r.max_rel_error for n, r in reports.items() if not r.passed}
    assert not failed, failed


def test_dropout_training_mode_changes_loss_but_eval_is_deterministic():
    s = three_entity_sentence()
    model = tiny_model([s], dropout=0.5)
    rng = np.random.default_rng(0)
    a = batch_losses(model, [s], training=True, rng=rng)[0].item()
    b = batch_losses(model, [s], training=True, rng=rng)[0].item()
    assert a != b
    assert batch_losses(model, [s])[0].item() == batch_losses(model, [s])[0].item()
