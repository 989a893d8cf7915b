import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgnn import autodiff as ad
from gpgnn.autodiff import ACTIVATIONS, ShapeError, Tensor

from reference import dense_lstm_sequence, exp_sigmoid, neg_log_softmax


def t(values, requires_grad=False):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    out = ad.matmul(t([[1.0, 0.0], [0.0, 1.0]]), t([[3.0], [5.0]]))
    assert out.data.tolist() == [[3.0], [5.0]]


def test_matmul_1x1():
    assert ad.matmul(t([[2.0]]), t([[3.0]])).data.tolist() == [[6.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 2))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a0 = rng.uniform(-1, 1, (3, 4))
    b = t(rng.uniform(-1, 1, (4, 2)))
    report = ad.grad_check(lambda a: ad.reduce_sum(ad.matmul(a, b)), t(a0), step=1e-5, tol=1e-6)
    assert report.passed, report

    a = t(rng.uniform(-1, 1, (3, 4)))
    report = ad.grad_check(lambda bb: ad.reduce_sum(ad.matmul(a, bb)), t(rng.uniform(-1, 1, (4, 2))),
                           step=1e-5, tol=1e-6)
    assert report.passed, report


def test_matmul_rejects_vector_operands():
    a = np.zeros((3, 4))
    with pytest.raises(ad.ShapeError, match="2-d"):
        ad.matmul(t(a), t(np.zeros(4)))
    with pytest.raises(ad.ShapeError, match="2-d"):
        ad.matmul(t(np.zeros(3)), t(a))


# ---------------------------------------------------------------------------
# elementwise family


def test_relu_values():
    assert ad.relu(t([-2.0, 0.0, 3.0])).data.tolist() == [0.0, 0.0, 3.0]


def test_tanh_sigmoid_at_zero():
    assert ad.tanh(t([0.0])).data.tolist() == [0.0]
    assert ad.sigmoid(t([0.0])).data.tolist() == [0.5]


def test_sigmoid_is_stable_for_large_inputs():
    y = ad.sigmoid(t([-800.0, 800.0])).data
    assert np.all(np.isfinite(y))
    assert y[0] == pytest.approx(0.0, abs=1e-300)
    assert y[1] == pytest.approx(1.0)


def test_sigmoid_is_one_tanh_within_2_pow_52_of_the_exp_form():
    """sigma(x) = 0.5 * tanh(0.5 * x) + 0.5 stays within 2**-52 of the exp
    form over a grid of [-800, 800] and 2 M random inputs, is 0.5 at 0, 0
    and 1 at -inf and +inf, keeps NaN, never decreases, and raises no numpy
    signal even at +-1e308."""
    values = ACTIVATIONS["sigmoid"][0]
    rng = np.random.default_rng(52)
    grid = np.linspace(-800.0, 800.0, 1_600_001)
    for x in (grid, rng.standard_normal(1_000_000) * 20.0, rng.uniform(-40.0, 40.0, 1_000_000)):
        with np.errstate(all="raise"):
            y = values(x)
        with np.errstate(under="ignore"):  # the exp form underflows below -745
            assert np.abs(y - exp_sigmoid(x)).max() <= 2.0**-52
    with np.errstate(all="raise"):
        assert np.all(np.diff(values(grid)) >= 0.0)
        ends = values(np.array([0.0, -np.inf, np.inf, -1e308, 1e308, np.nan]))
    assert ends[:5].tolist() == [0.5, 0.0, 1.0, 0.0, 1.0]
    assert np.isnan(ends[5])


def test_reshape_vector_to_matrix_row_major():
    vec = t(np.arange(9.0))
    out = ad.reshape(vec, (3, 3))
    assert out.data.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]


def test_reshape_count_mismatch():
    with pytest.raises(ShapeError):
        ad.reshape(t(np.zeros(8)), (3, 3))


def test_add_mul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.add(t(np.zeros(3)), t(np.zeros(4)))
    with pytest.raises(ShapeError):
        ad.mul(t(np.zeros((2, 2))), t(np.zeros(4)))


def test_concat_axis_agreement():
    out = ad.concat([t(np.ones((2, 3))), t(np.zeros((1, 3)))], axis=0)
    assert out.shape == (3, 3)
    with pytest.raises(ShapeError):
        ad.concat([t(np.ones((2, 3))), t(np.zeros((2, 4)))], axis=0)


@pytest.mark.parametrize("name", ["relu", "tanh", "sigmoid"])
def test_unary_gradients(name):
    rng = np.random.default_rng(7)
    # keep relu inputs away from the kink
    x0 = rng.uniform(-1, 1, 12)
    x0[np.abs(x0) < 1e-3] = 0.5
    fn = ad.activation_fn(name)
    report = ad.grad_check(lambda x: ad.reduce_sum(fn(x)), t(x0))
    assert report.passed, (name, report.max_rel_error)


# ---------------------------------------------------------------------------
# softmax and cross entropy


def test_cross_entropy_uniform_logits():
    for target in range(3):
        loss = ad.softmax_cross_entropy_rows(t([[0.0, 0.0, 0.0]]), [target])
        assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)


def test_cross_entropy_saturated():
    assert ad.softmax_cross_entropy_rows(t([[30.0, 0.0]]), [0]).item() < 1e-9


def test_cross_entropy_matches_direct_formula():
    rng = np.random.default_rng(3)
    logits = rng.uniform(-4, 4, 5)
    for target in range(5):
        expected = -math.log(math.exp(logits[target]) / np.exp(logits).sum())
        got = ad.softmax_cross_entropy_rows(t(logits[None, :]), [target]).item()
        assert got == pytest.approx(expected, abs=1e-12)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        ad.softmax_cross_entropy_rows(t([[0.0, 1.0]]), [2])
    with pytest.raises(ValueError, match="out of range"):
        ad.softmax_cross_entropy_rows(t([[0.0, 1.0]]), [-1])


def test_cross_entropy_backward_is_softmax_minus_onehot():
    logits = t([[0.5, -1.0, 2.0]], requires_grad=True)
    loss = ad.softmax_cross_entropy_rows(logits, [2])
    ad.backward(ad.reduce_sum(loss))
    probs = np.exp(logits.data) / np.exp(logits.data).sum()
    expected = probs.copy()
    expected[0, 2] -= 1.0
    np.testing.assert_allclose(logits.grad, expected, atol=1e-12)


def test_cross_entropy_rows_matches_single():
    rng = np.random.default_rng(11)
    z = rng.uniform(-3, 3, (4, 6))
    targets = [0, 5, 2, 2]
    rows = ad.softmax_cross_entropy_rows(t(z), targets)
    singles = [neg_log_softmax(z[k], targets[k]) for k in range(4)]
    np.testing.assert_allclose(rows.data, singles, atol=1e-12)

    report = ad.grad_check(
        lambda x: ad.reduce_sum(ad.softmax_cross_entropy_rows(x, targets)), t(z)
    )
    assert report.passed


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_softmax_is_a_distribution(seed, n):
    rng = np.random.default_rng(seed)
    y = ad._softmax_values(rng.uniform(-30, 30, n), axis=-1)
    assert np.all(y >= 0)
    assert abs(y.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = t(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.backward(ad.reduce_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_gives_two_x():
    x0 = np.array([1.0, -2.0, 0.5])
    x = t(x0, requires_grad=True)
    ad.backward(ad.reduce_sum(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2.0 * x0, atol=1e-15)


def test_backward_rejects_non_scalar():
    x = t(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        ad.backward(ad.relu(x))


def test_fanout_accumulates_n_fold():
    x0 = np.array([0.3, -0.7, 1.1])
    n = 4
    x = t(x0, requires_grad=True)
    total = x
    for _ in range(n - 1):
        total = ad.add(total, x)
    ad.backward(ad.reduce_sum(total))
    x_single = t(x0, requires_grad=True)
    ad.backward(ad.scale(ad.reduce_sum(x_single), float(n)))
    np.testing.assert_allclose(x.grad, x_single.grad, atol=1e-15)


def test_grad_accumulates_across_backward_calls():
    x = t([1.0, 2.0], requires_grad=True)
    ad.backward(ad.reduce_sum(x))
    ad.backward(ad.reduce_sum(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, 1.0 + 2.0 * x.data)


def test_no_grad_blocks_recording():
    x = t([1.0], requires_grad=True)
    with ad.no_grad():
        y = ad.relu(x)
    assert y.op is None and not y.requires_grad


def test_dropout_inference_is_identity_and_training_masks():
    x = t(np.ones(1000), requires_grad=True)
    assert ad.dropout(x, 0.5, None, training=False) is x
    rng = np.random.default_rng(0)
    y = ad.dropout(x, 0.5, rng, training=True)
    kept = y.data > 0
    assert 380 < kept.sum() < 620
    np.testing.assert_allclose(y.data[kept], 2.0)  # inverted mask rescales
    ad.backward(ad.reduce_sum(y))
    np.testing.assert_allclose(x.grad[kept], 2.0)
    np.testing.assert_allclose(x.grad[~kept], 0.0)


def test_gather_rows_scatter_and_freeze():
    w = t(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = ad.gather_rows(w, [2, 2, 0])
    np.testing.assert_array_equal(out.data[0], out.data[1])
    ad.backward(ad.reduce_sum(out))
    np.testing.assert_array_equal(w.grad[2], [2.0, 2.0, 2.0])  # looked up twice
    np.testing.assert_array_equal(w.grad[0], [1.0, 1.0, 1.0])  # looked up once
    np.testing.assert_array_equal(w.grad[1], [0.0, 0.0, 0.0])  # never looked up
    with pytest.raises(IndexError, match="out of range"):
        ad.gather_rows(w, [4])


def test_bmm_reduce_gradients():
    """The shared-stack batched product lives inside ``propagate``: its
    gradients against the stack and the states, over several blocks, match
    finite differences, as does the gradient of the scalar ``reduce_sum``."""
    rng = np.random.default_rng(9)
    m, d, blocks = 3, 2, 3
    sources = [1, 2, 0, 2, 0, 1]
    stack = rng.uniform(-1, 1, (len(sources), d, d))
    states = rng.uniform(-1, 1, (blocks * m, d))
    w = Tensor(rng.uniform(-1, 1, (blocks * m, d)))
    for act in ("tanh", "sigmoid"):
        report = ad.grad_check(lambda a: ad.reduce_sum(ad.mul(ad.propagate(a, t(states), sources, act), w)), t(stack))
        assert report.passed
        report = ad.grad_check(lambda s: ad.reduce_sum(ad.mul(ad.propagate(t(stack), s, sources, act), w)), t(states))
        assert report.passed
    report = ad.grad_check(lambda x: ad.reduce_sum(ad.mul(x, x)), t(rng.uniform(-1, 1, (2, 3, 4))))
    assert report.passed


def test_bmm_shares_one_stack_across_blocks():
    """Five blocks of m=3 nodes propagate against one stack, which the op
    takes as it is, not tiled per block.  States that take no gradient get
    none, and the stack's gradient does not depend on whether they do."""
    rng = np.random.default_rng(10)
    m, d, blocks = 3, 4, 5
    sources = [1, 2, 0, 2, 0, 1]  # source node j of each edge (i, j), edges of node i side by side
    stack = rng.uniform(-1, 1, (len(sources), d, d))
    states = rng.uniform(-1, 1, (blocks * m, d))
    g = rng.uniform(-1, 1, (blocks * m, d))

    rules = {}
    for states_grad in (True, False):
        a, s = t(stack, requires_grad=True), t(states, requires_grad=states_grad)
        out = ad.propagate(a, s, sources, "tanh")
        assert out.op.inputs[0] is a and out.op.inputs[1] is s
        rules[states_grad] = out.op.rule(g)
    for b in range(blocks):
        for i in range(m):
            edges = range(i * (m - 1), (i + 1) * (m - 1))
            expected = sum(np.tanh(stack[e] @ states[b * m + sources[e]]) for e in edges)
            np.testing.assert_allclose(out.data[b * m + i], expected, atol=1e-15)
    # the stack's gradient sums what each block alone would give it
    alone = [ad.propagate(t(stack, requires_grad=True), t(states[b * m : (b + 1) * m]), sources, "tanh")
             .op.rule(g[b * m : (b + 1) * m])[0] for b in range(blocks)]
    np.testing.assert_allclose(rules[True][0], sum(alone), atol=1e-13)
    assert rules[False][1] is None
    assert rules[True][1].shape == states.shape
    np.testing.assert_array_equal(rules[False][0], rules[True][0])
    with pytest.raises(ShapeError, match="propagate"):
        ad.propagate(t(stack), t(states[:, :3]), sources, "tanh")


COMPLETE_3 = [1, 2, 0, 2, 0, 1]  # the sources of the complete 3-node graph, in edge order
FLAGS_2 = np.array([[1.0, 0.0], [0.0, 1.0]])  # subject and object flags for d = 2


@pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid"])
def test_propagate_over_graphs_and_flag_layer_gradients(act):
    """``propagate`` over G = 3 graphs, each with its own stack and two
    blocks of states, and ``propagate_flags`` over G = 2 graphs, for every
    target pair and for one, pass the finite-difference oracle against each
    operand, and give every graph what it gets alone."""
    rng = np.random.default_rng(11)
    m, d, graphs, blocks = 3, 2, 3, 2
    stacks = rng.uniform(-1, 1, (graphs, 6, d, d))
    states = rng.uniform(-1, 1, (graphs * blocks * m, d))
    w = t(rng.uniform(-1, 1, states.shape))
    report = ad.grad_check(lambda a: ad.reduce_sum(ad.mul(ad.propagate(a, t(states), COMPLETE_3, act), w)), t(stacks))
    assert report.passed, report
    report = ad.grad_check(lambda s: ad.reduce_sum(ad.mul(ad.propagate(t(stacks), s, COMPLETE_3, act), w)), t(states))
    assert report.passed, report

    g = rng.uniform(-1, 1, states.shape)
    out = ad.propagate(t(stacks, True), t(states, True), COMPLETE_3, act)
    g_stacks, g_states = out.op.rule(g)
    rows = blocks * m
    for k in range(graphs):
        alone = ad.propagate(t(stacks[k], True), t(states[k * rows : (k + 1) * rows], True), COMPLETE_3, act)
        np.testing.assert_array_equal(out.data[k * rows : (k + 1) * rows], alone.data)
        ga_stack, ga_states = alone.op.rule(g[k * rows : (k + 1) * rows])
        np.testing.assert_allclose(g_stacks[k], ga_stack, rtol=0, atol=1e-15)
        np.testing.assert_allclose(g_states[k * rows : (k + 1) * rows], ga_states, rtol=0, atol=1e-15)

    for pairs in ([(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)], [(2, 0)]):
        plan = ad.FlagPlan(COMPLETE_3, pairs)
        w = t(rng.uniform(-1, 1, (2 * len(pairs) * m, d)))
        report = ad.grad_check(
            lambda a: ad.reduce_sum(ad.mul(ad.propagate_flags(a, FLAGS_2, plan, act), w)), t(stacks[:2]))
        assert report.passed, report


def test_flag_plan_reads_and_readers():
    """For the pair (0, 2) of the complete 3-node graph: node 0 (the
    subject) hears the object over edge (0, 2), node 1 both flags over
    edges (1, 0) and (1, 2), node 2 the subject over edge (2, 0); every
    message read is listed under its reader, the rest under the zero row."""
    plan = ad.FlagPlan(COMPLETE_3, [(0, 2)])
    zero = plan.messages
    assert plan.messages == 12 and plan.rows == 3
    assert plan.reads.tolist() == [[zero, 2 * 1 + 1], [2 * 2, 2 * 3 + 1], [2 * 4, zero]]
    assert plan.idle.tolist() == [1.0, 0.0, 1.0]
    heard = {int(q): sorted(int(r) for r in rows if r < plan.rows) for q, rows in enumerate(plan.readers)}
    assert {q: r for q, r in heard.items() if r} == {3: [0], 4: [1], 7: [1], 8: [2]}
    with pytest.raises(ShapeError, match="distinct"):
        ad.FlagPlan(COMPLETE_3, [(1, 1)])
    with pytest.raises(ShapeError, match="equally many"):
        ad.FlagPlan([0, 0, 0, 1, 1, 2], [(0, 1)])
    with pytest.raises(ShapeError, match="one edge per"):
        ad.FlagPlan([0, 0, 1, 1], [(0, 1)])
    with pytest.raises(ShapeError, match="propagate_flags"):
        ad.propagate_flags(t(np.zeros((4, 2, 2))), FLAGS_2, plan, "relu")


def test_segment_sums_keep_each_run_order_and_unstack_routes_gradients():
    """Equal runs sum bit for bit as each run alone; unequal runs within
    rounding.  ``unstack`` gives one scalar per element, and each scalar's
    gradient reaches only its element."""
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 3, 13 * 30)
    sums = ad.segment_sums(t(x), [30] * 13).data
    assert sums.tolist() == [x[k * 30 : (k + 1) * 30].sum() for k in range(13)]
    sizes = [2, 6, 30, 12]
    mixed = ad.segment_sums(t(x[:50]), sizes).data
    starts = np.cumsum([0] + sizes)
    np.testing.assert_allclose(mixed, [x[a:b].sum() for a, b in zip(starts, starts[1:])], rtol=1e-15)
    with pytest.raises(ShapeError, match="segment_sums"):
        ad.segment_sums(t(x[:5]), [2, 2])
    v = t(rng.uniform(-1, 1, 4), requires_grad=True)
    parts = ad.unstack(ad.segment_sums(v, [1, 3]))
    assert [p.shape for p in parts] == [(), ()]
    ad.backward(ad.add(parts[1], ad.scale(parts[1], 2.0)))
    assert v.grad.tolist() == [0.0, 3.0, 3.0, 3.0]
    report = ad.grad_check(lambda u: ad.scale(ad.unstack(ad.segment_sums(u, [3, 4]))[1], -2.0),
                           t(rng.uniform(-1, 1, 7)))
    assert report.passed


# ---------------------------------------------------------------------------
# the prefix-shared recurrence


@given(st.integers(1, 8), st.integers(1, 40), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_lstm_sequence_matches_dense_oracle(length, batch, alphabet, reverse, seed):
    """Over key matrices from small alphabets, so that sequences share many
    prefixes, the plan's recurrence gives the dense oracle's outputs bit for
    bit, and gradients of x, w, u and b within 1e-12.  The oracle reads
    every sequence's rows time-major, so its x gradient is summed back onto
    the shared rows."""
    rng = np.random.default_rng(seed)
    width, hd = 3, 4
    ids = rng.integers(0, alphabet, (batch, length))
    table = rng.uniform(-1, 1, (alphabet, width))
    params = [rng.uniform(-1, 1, shape) for shape in ((width, 4 * hd), (hd, 4 * hd), (4 * hd,))]
    weights = Tensor(rng.uniform(-1, 1, (batch, hd)))

    def run(x, op):
        operands = [t(x, requires_grad=True)] + [t(p, requires_grad=True) for p in params]
        out = op(*operands)
        ad.backward(ad.reduce_sum(ad.mul(out, weights)))
        return out.data, [a.grad for a in operands]

    plan = ad.SequencePlan(ids, reverse)
    assert plan.sequences == batch and plan.nodes <= batch * length
    shared, shared_grads = run(table, lambda *a: ad.lstm_sequence(*a, plan))
    dense, dense_grads = run(table[ids.T.reshape(-1)], lambda *a: dense_lstm_sequence(*a, batch, reverse))
    np.testing.assert_array_equal(shared, dense)
    gx = np.zeros_like(table)
    np.add.at(gx, ids.T.reshape(-1), dense_grads[0])
    for got, want in zip(shared_grads, [gx] + dense_grads[1:]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_sequence_plan_shares_prefixes_and_suffixes():
    ids = np.array([[0, 1, 2], [0, 1, 3], [4, 1, 2], [0, 1, 2]])
    forward = ad.SequencePlan(ids)
    assert [len(level) for level in forward.inputs] == [2, 2, 3]
    assert forward.final.tolist() == [0, 1, 2, 0]
    backward = ad.SequencePlan(ids, reverse=True)
    assert [len(level) for level in backward.inputs] == [2, 2, 3]
    assert backward.inputs[0].tolist() == [2, 3]
    # children follow their parents in order, so each parent's run is contiguous
    for parents in forward.parents + backward.parents:
        assert np.all(np.diff(parents) >= 0)
    with pytest.raises(ShapeError, match="sequence plan"):
        ad.SequencePlan(np.zeros((0, 3), dtype=int))
    with pytest.raises(ShapeError, match="input rows"):
        ad.lstm_sequence(t(np.zeros((4, 3))), t(np.zeros((3, 8))), t(np.zeros((2, 8))), t(np.zeros(8)), forward)


def _ragged_and_alone(ids, table, params, reverse, weights):
    """``lstm_sequence`` over the ragged plan of ``ids``, and the dense
    oracle run on each row alone: each one's outputs and its x, w, u and b
    gradients of sum(out * weights), the oracle's summed over the rows."""
    def run(x, op, c):
        operands = [t(x, requires_grad=True)] + [t(p, requires_grad=True) for p in params]
        out = op(*operands)
        ad.backward(ad.reduce_sum(ad.mul(out, Tensor(c))))
        return out.data, [a.grad for a in operands]

    plan = ad.SequencePlan(ids, reverse)
    shared, shared_grads = run(table, lambda *a: ad.lstm_sequence(*a, plan), weights)
    alone, alone_grads = [], [np.zeros_like(table)] + [np.zeros_like(p) for p in params]
    for k, row in enumerate(np.asarray(ids)):
        row = row[row >= 0]
        out, grads = run(table[row], lambda *a: dense_lstm_sequence(*a, 1, reverse), weights[k : k + 1])
        alone.append(out[0])
        np.add.at(alone_grads[0], row, grads[0])
        for total, g in zip(alone_grads[1:], grads[1:]):
            total += g
    return shared, shared_grads, np.array(alone), alone_grads


@given(st.lists(st.integers(1, 8), min_size=1, max_size=24), st.integers(1, 3), st.booleans(),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_ragged_lstm_sequence_matches_each_row_alone(lengths, alphabet, reverse, seed):
    """Rows of lengths 1 to 8 over small alphabets, padded with -1: the
    plan's recurrence gives, bit for bit, what the dense oracle gives for
    each row alone, and x, w, u and b gradients within 1e-12."""
    rng = np.random.default_rng(seed)
    width, hd = 3, 4
    ids = np.full((len(lengths), max(lengths)), -1)
    for k, n in enumerate(lengths):
        ids[k, :n] = rng.integers(0, alphabet, n)
    table = rng.uniform(-1, 1, (alphabet, width))
    params = [rng.uniform(-1, 1, shape) for shape in ((width, 4 * hd), (hd, 4 * hd), (4 * hd,))]
    shared, shared_grads, alone, alone_grads = _ragged_and_alone(
        ids, table, params, reverse, rng.uniform(-1, 1, (len(lengths), hd)))
    np.testing.assert_array_equal(shared, alone)
    for got, want in zip(shared_grads, alone_grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_ragged_plan_ends_sequences_inside_the_forest():
    """[0, 1] is a prefix of [0, 1, 2], so their level-1 node both ends a
    sequence and has a child; [0, 3] ends at a level-1 node that has no
    child, whose child sum is zero.  Outputs and gradients are each row's
    own, in both directions."""
    ids = np.array([[0, 1, -1], [0, 1, 2], [0, 3, -1]])
    plan = ad.SequencePlan(ids)
    assert [level.tolist() for level in plan.inputs] == [[0], [1, 3], [2]]
    assert plan.final.tolist() == [0, 0, 1]
    assert plan.ends[0] is None
    assert plan.ends[1][0].tolist() == [0, 2] and plan.ends[1][1].tolist() == [0, 1]
    assert plan.ends[2][0].tolist() == [1]
    assert plan.children[2](np.array([[5.0]])).tolist() == [[5.0], [0.0]]
    backward = ad.SequencePlan(ids, reverse=True)  # reads [1, 0], [2, 1, 0] and [3, 0]
    assert [level.tolist() for level in backward.inputs] == [[1, 2, 3], [0, 1, 0], [0]]
    rng = np.random.default_rng(3)
    params = [rng.uniform(-1, 1, shape) for shape in ((2, 8), (2, 8), (8,))]
    for reverse in (False, True):
        shared, shared_grads, alone, alone_grads = _ragged_and_alone(
            ids, rng.uniform(-1, 1, (4, 2)), params, reverse, rng.uniform(-1, 1, (3, 2)))
        np.testing.assert_array_equal(shared, alone)
        for got, want in zip(shared_grads, alone_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("ids", [[[0, -1, 1]], [[0, 1], [-1, -1]], [[0, -2]]],
                         ids=["padding-before-an-id", "all-padding-row", "below-minus-one"])
def test_sequence_plan_rejects_bad_padding(ids):
    with pytest.raises(ShapeError, match="padding"):
        ad.SequencePlan(ids)


# ---------------------------------------------------------------------------
# the two-direction record and its worker thread


def _worker_threads() -> list[threading.Thread]:
    return [th for th in threading.enumerate() if th.name.startswith("gpgnn-lstm")]


def bilstm_bit_mismatches(hd: int = 256, seed: int = 0, repeats: int = 2) -> list[str]:
    """Run ``bilstm_sequence`` forward and backward on the threaded and on
    the serial path over one prefix-shared batch, ``repeats`` times each;
    return the names of the output and operand gradients whose bits differ
    (empty when all agree), after checking that the threaded path ran.  It
    sets the module's crossover and spare CPU count itself, so a subprocess
    can call it."""
    rng = np.random.default_rng(seed)
    width = 20
    ids = rng.integers(0, 12, (60, 6))
    plans = ad.SequencePlan(ids), ad.SequencePlan(ids, reverse=True)
    names = ["x", "w_f", "u_f", "b_f", "w_b", "u_b", "b_b"]
    values = [rng.uniform(-1, 1, (12, width))] + [
        rng.uniform(-0.2, 0.2, shape) for shape in ((width, 4 * hd), (hd, 4 * hd), (4 * hd,)) * 2]
    weights = Tensor(rng.uniform(-1, 1, (ids.shape[0], 2 * hd)))

    def run() -> list[np.ndarray]:
        operands = [t(v, requires_grad=True) for v in values]
        out = ad.bilstm_sequence(operands[0], operands[1:4], operands[4:], *plans)
        ad.backward(ad.reduce_sum(ad.mul(out, weights)))
        return [out.data] + [a.grad for a in operands]

    saved = ad.PARALLEL_MIN_MULADDS, ad.spare_cpus
    ad.spare_cpus = lambda: 1
    try:
        ad.PARALLEL_MIN_MULADDS = math.inf
        serial = [run() for _ in range(repeats)]
        ad.PARALLEL_MIN_MULADDS = 0
        threaded = [run() for _ in range(repeats)]
    finally:
        ad.PARALLEL_MIN_MULADDS, ad.spare_cpus = saved
    assert len(_worker_threads()) == 1
    return sorted({name for one in serial + threaded
                   for name, got, want in zip(["out"] + names, one, serial[0])
                   if got.tobytes() != want.tobytes()})


def test_bilstm_threaded_is_bit_for_bit_serial():
    """Output and all 7 operand gradients have the serial path's bits on
    the threaded path, at the suite's BLAS thread count and, in a fresh
    process, at one BLAS thread.  The rows gradient, which both directions
    feed, is among them."""
    assert bilstm_bit_mismatches() == []
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    done = subprocess.run([sys.executable, "-c", "from test_autodiff import bilstm_bit_mismatches as f; "
                           "print(f())"], cwd=tests, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_bilstm_matches_two_lstm_sequences_and_a_concat(rng):
    """Two records over the same rows, as two layers' encoders make, give
    the outputs of two ``lstm_sequence`` records and a concat each, and
    every gradient bit for bit: the rows' four gradients are added in the
    same order, each record's forward direction first."""
    ids = rng.integers(0, 4, (7, 5))
    plans = ad.SequencePlan(ids), ad.SequencePlan(ids, reverse=True)
    values = [rng.uniform(-1, 1, (4, 3))] + [rng.uniform(-1, 1, s) for s in ((3, 8), (2, 8), (8,)) * 4]
    weights = [Tensor(rng.uniform(-1, 1, (7, 4))) for _ in range(2)]

    def loss(encode):
        ops = [t(v, requires_grad=True) for v in values]
        outs = [encode(ops[0], ops[1 + 6 * k : 4 + 6 * k], ops[4 + 6 * k : 7 + 6 * k]) for k in range(2)]
        ad.backward(ad.add(*(ad.reduce_sum(ad.mul(out, w)) for out, w in zip(outs, weights))))
        return [out.data for out in outs] + [op.grad for op in ops]

    one = loss(lambda x, fwd, bwd: ad.bilstm_sequence(x, fwd, bwd, *plans))
    apart = loss(lambda x, fwd, bwd: ad.concat([ad.lstm_sequence(x, *fwd, plans[0]),
                                                 ad.lstm_sequence(x, *bwd, plans[1])], axis=1))
    assert [a.tobytes() for a in one] == [a.tobytes() for a in apart]
    ops = [t(v) for v in values]
    with pytest.raises(ShapeError, match="direction plans disagree"):
        ad.bilstm_sequence(ops[0], ops[1:4], ops[4:7], plans[0], ad.SequencePlan(ids[:3], reverse=True))


def _threaded(monkeypatch):
    monkeypatch.setattr(ad, "PARALLEL_MIN_MULADDS", 0)
    monkeypatch.setattr(ad, "spare_cpus", lambda: 1)


def test_worker_direction_overflow_raises_in_the_caller(rng, monkeypatch):
    """The worker runs under the caller's np.errstate: an overflow in the
    forward direction alone, the one the worker runs, is a
    FloatingPointError in the caller, forward and backward."""
    _threaded(monkeypatch)
    ids = np.array([[0, 1, 2], [0, 1, 2], [3, 2, 1], [1, 1, 0], [2, 3, 0]])  # two equal sequences
    plans = ad.SequencePlan(ids), ad.SequencePlan(ids, reverse=True)
    x = t(rng.uniform(0.5, 1, (4, 3)))
    bwd = [t(rng.uniform(-1, 1, s)) for s in ((3, 8), (2, 8), (8,))]
    huge = [t(np.full((3, 8), 1e308)), t(np.zeros((2, 8))), t(np.zeros(8))]
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            ad.bilstm_sequence(x, huge, bwd, *plans)
    # in the rule: the two equal sequences' output gradients, summed at
    # their shared final node, overflow
    fwd = [t(rng.uniform(-1, 1, s), requires_grad=True) for s in ((3, 8), (2, 8), (8,))]
    out = ad.bilstm_sequence(x, fwd, bwd, *plans)
    g = np.zeros(out.shape)
    g[:, :2] = 1.7e308
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            out.op.rule(g)
    assert len(_worker_threads()) == 1


def test_worker_exception_reaches_the_caller_and_wins():
    """An exception on the worker is raised in the caller, and when both
    sides raise it is the worker's, as on the serial path, whose first
    call runs first; the caller's side still runs to its end."""
    ran = []

    def boom(kind):
        def fail():
            ran.append(kind)
            raise kind("boom")
        return fail

    with pytest.raises(KeyError):
        ad._side_by_side(boom(KeyError), lambda: ran.append("second"), threaded=True)
    with pytest.raises(KeyError):
        ad._side_by_side(boom(KeyError), boom(ValueError), threaded=True)
    with pytest.raises(ValueError):
        ad._side_by_side(lambda: 1, boom(ValueError), threaded=True)
    assert sorted(map(str, ran)) == sorted(map(str, [KeyError, "second", KeyError, ValueError, ValueError]))
    assert ad._side_by_side(lambda: 1, lambda: 2, threaded=True) == (1, 2)


def test_repeated_records_start_one_worker_thread(rng, monkeypatch):
    _threaded(monkeypatch)
    ids = rng.integers(0, 4, (6, 4))
    plans = ad.SequencePlan(ids), ad.SequencePlan(ids, reverse=True)
    before = set(threading.enumerate())
    workers = []
    for _ in range(6):
        ops = [t(rng.uniform(-1, 1, s), requires_grad=True) for s in ((4, 3),) + ((3, 8), (2, 8), (8,)) * 2]
        ad.backward(ad.reduce_sum(ad.bilstm_sequence(ops[0], ops[1:4], ops[4:], *plans)))
        workers.append(_worker_threads())
    assert all(w == workers[0] and len(w) == 1 for w in workers)
    assert set(threading.enumerate()) - before <= set(workers[0])


def test_selection_rule_sends_narrow_plans_to_one_thread(monkeypatch):
    """At the default crossover, a depth-shaped plan (H=32, about 120
    nodes per level) stays serial and a reference-shaped plan (H=256, 300
    contexts of 5 steps) takes the worker when a CPU is spare for it;
    without one nothing does."""
    rng = np.random.default_rng(1)
    depth = [ad.SequencePlan(rng.integers(0, 60, (120, 12)), reverse) for reverse in (False, True)]
    wide = [ad.SequencePlan(rng.integers(0, 40, (300, 5)), reverse) for reverse in (False, True)]
    monkeypatch.setattr(ad, "spare_cpus", lambda: 1)
    assert not ad.takes_worker((4 * 32 * 32,) * 2, depth)
    assert ad.takes_worker((4 * 256 * 256,) * 2, wide)
    monkeypatch.setattr(ad, "spare_cpus", lambda: 0)
    assert not ad.takes_worker((4 * 256 * 256,) * 2, wide)


def test_every_live_thread_but_the_worker_holds_a_cpu(monkeypatch):
    """On 2 CPUs the caller leaves one spare for the worker, but not while
    another thread of the process, such as eval's checkpoint hash, runs."""
    strays = len(set(threading.enumerate()) - {threading.main_thread(), *_worker_threads()})
    monkeypatch.setattr(ad, "usable_cpus", lambda: 2 + strays)
    assert ad.spare_cpus() == 1
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert ad.spare_cpus() == 0
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive() and ad.spare_cpus() == 1


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_linear_is_essentially_exact():
    rng = np.random.default_rng(2)
    report = ad.grad_check(lambda x: ad.scale(ad.reduce_sum(x), 3.0), t(rng.uniform(-1, 1, 5)))
    assert report.max_rel_error < 1e-10


def test_grad_check_detects_wrong_gradient():
    def doubled_gradient(x: Tensor) -> Tensor:
        # forward 3*sum(x), but backward claims twice the true gradient
        data = 3.0 * x.data.sum()
        return Tensor(data, requires_grad=True, op=ad.Op((x,), lambda g: (6.0 * np.ones_like(x.data) * g,)))

    report = ad.grad_check(doubled_gradient, t(np.array([0.4, -0.2, 0.9])))
    assert not report.passed
    assert report.max_rel_error > 0.3


def test_grad_check_rejects_non_finite_probe():
    def exploding(x: Tensor) -> Tensor:
        if x.data[0] > 1.0:
            return Tensor(np.inf, requires_grad=True, op=ad.Op((x,), lambda g: (np.zeros_like(x.data),)))
        return ad.reduce_sum(x)

    with pytest.raises(FloatingPointError):
        ad.grad_check(exploding, t(np.array([1.0 - 1e-6])), step=1e-5)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_random_pipelines_pass_grad_check(seed):
    """Random compositions of the core ops match finite differences."""
    rng = np.random.default_rng(seed)
    w1 = Tensor(rng.uniform(-1, 1, (4, 5)))
    w2 = Tensor(rng.uniform(-1, 1, (5, 3)))
    x0 = rng.uniform(-1, 1, (2, 4))

    def f(x):
        h = ad.tanh(ad.matmul(x, w1))
        z = ad.sigmoid(ad.matmul(h, w2))
        back = ad.reshape(ad.concat([z, z], axis=1), (2, 6))
        return ad.reduce_sum(ad.mul(back, back))

    report = ad.grad_check(f, t(x0))
    assert report.passed, report.max_rel_error


def test_reshape_roundtrip_identity():
    rng = np.random.default_rng(4)
    x = t(rng.uniform(-1, 1, (3, 4)))
    back = ad.reshape(ad.reshape(x, (2, 6)), (3, 4))
    np.testing.assert_array_equal(back.data, x.data)


def test_tape_order_is_topological():
    # every recorded operation's inputs precede it on the traced tape,
    # including through fan-out and re-use
    x = t([1.0, 2.0], requires_grad=True)
    y = ad.relu(x)
    z = ad.add(y, x)
    w = ad.mul(z, y)
    loss = ad.reduce_sum(w)
    order = ad._trace(loss)
    position = {id(node): k for k, node in enumerate(order)}
    assert position[id(loss)] == len(order) - 1
    for node in order:
        if node.op is not None:
            for parent in node.op.inputs:
                assert position[id(parent)] < position[id(node)]
