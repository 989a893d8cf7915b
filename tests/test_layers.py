import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgnn import autodiff as ad
from gpgnn.autodiff import ShapeError, Tensor
from gpgnn.layers import (
    CHECKPOINT_VERSION,
    EmbeddingTable,
    LstmParams,
    MlpParams,
    ParameterStore,
    bilstm_encode_batch,
    embedding_lookup,
    load_checkpoint,
    mlp_forward,
    save_checkpoint,
)

from reference import bilstm_encode, dense_plans, lstm_step, mlp_vector


def zero_lstm(d, h):
    z = lambda *shape: Tensor(np.zeros(shape), requires_grad=True)
    return LstmParams(
        w_i=z(d, h), u_i=z(h, h), b_i=z(h),
        w_f=z(d, h), u_f=z(h, h), b_f=z(h),
        w_o=z(d, h), u_o=z(h, h), b_o=z(h),
        w_c=z(d, h), u_c=z(h, h), b_c=z(h),
    )


# ---------------------------------------------------------------------------
# embeddings


def test_padding_row_is_zero_and_unknown_row_is_not(rng):
    table = EmbeddingTable.create(5, 3, rng)
    out = embedding_lookup(table, [0])
    np.testing.assert_array_equal(out.data, np.zeros((1, 3)))
    assert np.any(embedding_lookup(table, [1]).data != 0)


def test_lookup_repeats_row(rng):
    table = EmbeddingTable.create(5, 3, rng)
    out = embedding_lookup(table, [2, 2])
    np.testing.assert_array_equal(out.data[0], out.data[1])
    np.testing.assert_array_equal(out.data[0], table.weights.data[2])


def test_lookup_gradient_sparsity_matches_finite_differences(rng):
    table = EmbeddingTable.create(6, 4, rng)

    def f(w):
        return ad.reduce_sum(ad.gather_rows(w, [3]))

    report = ad.grad_check(f, table.weights)
    assert report.passed
    table.weights.zero_grad()
    ad.backward(ad.reduce_sum(embedding_lookup(table, [3])))
    grad = table.weights.grad
    np.testing.assert_array_equal(grad[3], np.ones(4))
    for row in (0, 1, 2, 4, 5):
        np.testing.assert_array_equal(grad[row], np.zeros(4))


def test_lookup_index_out_of_range(rng):
    table = EmbeddingTable.create(4, 2, rng)
    with pytest.raises(IndexError, match="out of range"):
        embedding_lookup(table, [4])


def test_marker_table_trains_all_rows(rng):
    table = EmbeddingTable.create(3, 4, rng, reserved=False)
    assert np.any(table.weights.data[0] != 0)
    table.weights.zero_grad()
    ad.backward(ad.reduce_sum(embedding_lookup(table, [0, 1, 2])))
    assert np.all(table.weights.grad == 1.0)


# ---------------------------------------------------------------------------
# LSTM


def test_lstm_step_all_zero_parameters():
    p = zero_lstm(3, 2)
    h, c = lstm_step(p, Tensor(np.zeros(3)), Tensor(np.zeros(2)), Tensor(np.zeros(2)))
    np.testing.assert_array_equal(h.data, np.zeros(2))
    np.testing.assert_array_equal(c.data, np.zeros(2))


def test_lstm_step_zero_params_nonzero_cell():
    p = zero_lstm(3, 1)
    h, c = lstm_step(p, Tensor(np.zeros(3)), Tensor(np.zeros(1)), Tensor(np.ones(1)))
    assert c.item() == pytest.approx(0.5, abs=1e-12)
    assert h.item() == pytest.approx(0.5 * math.tanh(0.5), abs=1e-12)
    assert h.item() == pytest.approx(0.23105857863000487, abs=1e-9)


def test_lstm_step_matches_hand_coded_gate_formulas(rng):
    d, hdim = 4, 3
    p = LstmParams.create(d, hdim, rng)
    x = rng.uniform(-1, 1, d)
    h0 = rng.uniform(-1, 1, hdim)
    c0 = rng.uniform(-1, 1, hdim)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    gates = {}
    for name in ("i", "f", "o", "c"):
        w = getattr(p, f"w_{name}").data
        u = getattr(p, f"u_{name}").data
        b = getattr(p, f"b_{name}").data
        gates[name] = x @ w + h0 @ u + b
    c1 = sig(gates["f"]) * c0 + sig(gates["i"]) * np.tanh(gates["c"])
    h1 = sig(gates["o"]) * np.tanh(c1)

    h, c = lstm_step(p, Tensor(x), Tensor(h0), Tensor(c0))
    np.testing.assert_allclose(c.data, c1, atol=1e-12)
    np.testing.assert_allclose(h.data, h1, atol=1e-12)


def test_lstm_forget_bias_initializes_to_one(rng):
    p = LstmParams.create(3, 4, rng)
    np.testing.assert_array_equal(p.b_f.data, np.ones(4))
    np.testing.assert_array_equal(p.b_i.data, np.zeros(4))


def test_lstm_step_shape_mismatch(rng):
    p = LstmParams.create(3, 2, rng)
    with pytest.raises(ShapeError):
        lstm_step(p, Tensor(np.zeros(4)), Tensor(np.zeros(2)), Tensor(np.zeros(2)))


def test_lstm_step_gradients(rng):
    p = LstmParams.create(3, 2, rng)
    x0 = rng.uniform(-1, 1, 3)

    def f(x):
        h, c = lstm_step(p, x, Tensor(np.zeros(2)), Tensor(np.zeros(2)))
        return ad.reduce_sum(ad.add(h, c))

    assert ad.grad_check(f, Tensor(x0)).passed
    reports = ad.grad_check_params(
        lambda: f(Tensor(x0)), dict(p.named())
    )
    assert all(r.passed for r in reports.values())


# ---------------------------------------------------------------------------
# BiLSTM


def test_bilstm_zero_parameters_gives_zeros(rng):
    fwd, bwd = zero_lstm(3, 2), zero_lstm(3, 2)
    out = bilstm_encode(fwd, bwd, Tensor(rng.uniform(-1, 1, (5, 3))))
    np.testing.assert_array_equal(out.data, np.zeros(4))


def test_bilstm_length_one_is_two_single_steps(rng):
    fwd = LstmParams.create(3, 2, rng)
    bwd = LstmParams.create(3, 2, rng)
    x = rng.uniform(-1, 1, 3)
    out = bilstm_encode(fwd, bwd, Tensor(x[None, :]))
    hf, _ = lstm_step(fwd, Tensor(x), Tensor(np.zeros(2)), Tensor(np.zeros(2)))
    hb, _ = lstm_step(bwd, Tensor(x), Tensor(np.zeros(2)), Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, np.concatenate([hf.data, hb.data]), atol=1e-15)


def test_bilstm_swap_symmetry(rng):
    fwd = LstmParams.create(3, 2, rng)
    bwd = LstmParams.create(3, 2, rng)
    seq = rng.uniform(-1, 1, (6, 3))
    out = bilstm_encode(fwd, bwd, Tensor(seq)).data
    swapped = bilstm_encode(bwd, fwd, Tensor(seq[::-1].copy())).data
    np.testing.assert_allclose(out[:2], swapped[2:], atol=1e-15)
    np.testing.assert_allclose(out[2:], swapped[:2], atol=1e-15)


@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_bilstm_output_width_is_2h_for_every_length(length, seed):
    r = np.random.default_rng(seed)
    fwd = LstmParams.create(3, 4, r)
    bwd = LstmParams.create(3, 4, r)
    out = bilstm_encode(fwd, bwd, Tensor(r.uniform(-1, 1, (length, 3))))
    assert out.shape == (8,)


def test_bilstm_rejects_empty_sequence(rng):
    fwd = LstmParams.create(3, 2, rng)
    with pytest.raises(ShapeError):
        bilstm_encode(fwd, fwd, Tensor(np.zeros((0, 3))))


def test_fused_direction_matches_stepped_lstm(rng):
    from gpgnn.layers import _fused_gates

    p = LstmParams.create(3, 4, rng)
    seq = rng.uniform(-1, 1, (6, 3))
    for reverse, order in ((False, range(6)), (True, range(5, -1, -1))):
        fused = ad.lstm_sequence(Tensor(seq), *_fused_gates(p), dense_plans(6, 1)[reverse]).data[0]
        h = c = Tensor(np.zeros(4))
        for t in order:
            h, c = lstm_step(p, Tensor(seq[t]), h, c)
        np.testing.assert_allclose(fused, h.data, atol=1e-12)


@pytest.mark.parametrize("length", [1, 5])
def test_bilstm_gradients_match_stepped_lstm(rng, length):
    """``backward`` through the batched encoder gives every LSTM parameter
    and every input row the gradient of the token-by-token oracle."""
    batch, width = 3, 3
    fwd = LstmParams.create(width, 4, rng)
    bwd = LstmParams.create(width, 4, rng)
    params = [t for p in (fwd, bwd) for _n, t in p.named()]
    assert len(params) == 24
    rows = Tensor(rng.uniform(-1, 1, (length * batch, width)), requires_grad=True)
    weights = rng.uniform(-1, 1, (batch, 8))

    def grads(loss):
        for t in params + [rows]:
            t.zero_grad()
        ad.backward(loss)
        return [t.grad.copy() for t in params + [rows]]

    batched = bilstm_encode_batch(fwd, bwd, rows, *dense_plans(length, batch))
    fused = grads(ad.reduce_sum(ad.mul(batched, Tensor(weights))))
    parts = []
    for b in range(batch):
        seq = ad.gather_rows(rows, [t * batch + b for t in range(length)])
        parts.append(ad.reduce_sum(ad.mul(bilstm_encode(fwd, bwd, seq), Tensor(weights[b]))))
    stepped = grads(ad.reduce_sum(ad.concat([ad.reshape(x, (1,)) for x in parts], axis=0)))
    for got, want in zip(fused, stepped):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_bilstm_batch_matches_per_sequence(rng):
    fwd = LstmParams.create(3, 4, rng)
    bwd = LstmParams.create(3, 4, rng)
    length, batch = 5, 3
    seqs = rng.uniform(-1, 1, (batch, length, 3))
    rows = np.empty((length * batch, 3))
    for t in range(length):
        rows[t * batch : (t + 1) * batch] = seqs[:, t, :]
    batched = bilstm_encode_batch(fwd, bwd, Tensor(rows), *dense_plans(length, batch)).data
    for b in range(batch):
        single = bilstm_encode(fwd, bwd, Tensor(seqs[b])).data
        np.testing.assert_allclose(batched[b], single, atol=1e-12)


# ---------------------------------------------------------------------------
# MLP


def test_mlp_identity_weights_pass_through_nonnegative_input():
    p = MlpParams(
        weights=[Tensor(np.eye(3), requires_grad=True), Tensor(np.eye(3), requires_grad=True)],
        biases=[Tensor(np.zeros(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)],
        activation="relu",
    )
    x = np.array([[0.5, 0.0, 2.0]])
    np.testing.assert_array_equal(mlp_forward(p, Tensor(x)).data, x)


def test_mlp_zero_weights_emit_bias():
    b = np.array([1.5, -2.0])
    p = MlpParams(
        weights=[Tensor(np.zeros((3, 2)), requires_grad=True)],
        biases=[Tensor(b, requires_grad=True)],
        activation="relu",
    )
    np.testing.assert_array_equal(mlp_forward(p, Tensor(np.ones((2, 3)))).data, [b, b])


def test_mlp_matches_hand_composed_chain(rng):
    p = MlpParams.create([4, 5, 3], "tanh", rng)
    x = rng.uniform(-1, 1, (3, 4))
    hand = np.tanh(x @ p.weights[0].data + p.biases[0].data) @ p.weights[1].data + p.biases[1].data
    np.testing.assert_allclose(mlp_forward(p, Tensor(x)).data, hand, atol=1e-12)


def test_mlp_width_mismatch(rng):
    p = MlpParams.create([4, 3], "relu", rng)
    with pytest.raises(ShapeError):
        mlp_forward(p, Tensor(np.zeros((1, 5))))
    with pytest.raises(ShapeError, match=r"\(B, 4\) rows"):
        mlp_forward(p, Tensor(np.zeros(4)))


def test_mlp_gradients(rng):
    p = MlpParams.create([3, 4, 2], "tanh", rng)
    x0 = rng.uniform(-1, 1, (2, 3))
    reports = ad.grad_check_params(
        lambda: ad.reduce_sum(mlp_forward(p, Tensor(x0))), dict(p.named())
    )
    assert all(r.passed for r in reports.values())


def test_composed_bilstm_mlp_pipeline_grad_check(rng):
    """The stacked encoder pipeline passes at tol 1e-4, step 1e-5."""
    fwd = LstmParams.create(3, 4, rng)
    bwd = LstmParams.create(3, 4, rng)
    mlp = MlpParams.create([8, 6, 4], "tanh", rng)
    seq0 = rng.uniform(-1, 1, (5, 3))

    def f(seq):
        return ad.reduce_sum(mlp_vector(mlp, bilstm_encode(fwd, bwd, seq)))

    report = ad.grad_check(f, Tensor(seq0), step=1e-5, tol=1e-4)
    assert report.passed, report.max_rel_error

    params = dict(fwd.named())
    reports = ad.grad_check_params(lambda: f(Tensor(seq0)), params, step=1e-5, tol=1e-4)
    assert all(r.passed for r in reports.values())


# ---------------------------------------------------------------------------
# parameter store and checkpoints


def test_store_rejects_duplicates_and_gradless(rng):
    store = ParameterStore()
    t = Tensor(np.ones(2), requires_grad=True)
    store.register("a.b", t)
    with pytest.raises(ValueError, match="twice"):
        store.register("a.b", t)
    with pytest.raises(ValueError, match="grad"):
        store.register("c", Tensor(np.ones(2)))


def test_store_named_is_sorted(rng):
    store = ParameterStore()
    for name in ("z.w", "a.w", "m.b"):
        store.register(name, Tensor(np.zeros(1), requires_grad=True))
    assert [n for n, _ in store.named()] == ["a.w", "m.b", "z.w"]


def test_checkpoint_roundtrip(tmp_path, rng):
    tensors = {
        "b.mat": Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True),
        "a.vec": Tensor(rng.uniform(-1, 1, 5), requires_grad=True),
        "c.scalar": Tensor(np.float64(2.5), requires_grad=True),
    }
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, tensors)
    arrays, _digest = load_checkpoint(path)
    assert sorted(arrays) == ["a.vec", "b.mat", "c.scalar"]
    for name, t in tensors.items():
        np.testing.assert_array_equal(arrays[name], t.data)


def test_checkpoint_layout_is_name_sorted_and_versioned(tmp_path, rng):
    import json
    import struct

    tensors = {
        "z": Tensor(np.full(2, 7.0), requires_grad=True),
        "a": Tensor(np.full(3, 1.0), requires_grad=True),
    }
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, tensors)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8 : 8 + hlen])
    assert header["version"] == CHECKPOINT_VERSION
    assert header["tensors"]["a"]["offset"] == 0
    assert header["tensors"]["z"]["offset"] == 3 * 8  # 'a' comes first, 3 doubles
    body = np.frombuffer(raw[8 + hlen :], dtype="<f8")
    np.testing.assert_array_equal(body, [1.0, 1.0, 1.0, 7.0, 7.0])


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    """A write that dies partway (here, a disk that fills after 100 bytes)
    leaves the previous checkpoint byte for byte, and no temporary file."""
    import builtins
    import errno

    import gpgnn.layers

    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"a": Tensor(np.full(3, 1.0))})
    before = path.read_bytes()

    class FullDisk:
        def __init__(self, fh):
            self.fh, self.room = fh, 100

        def write(self, data):
            if len(data) > self.room:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.room -= len(data)
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(gpgnn.layers, "open", lambda *a, **kw: FullDisk(builtins.open(*a, **kw)), raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, {"a": Tensor(np.full(3, 2.0)), "b": Tensor(np.full(50, 2.0))})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]


def test_store_load_rejects_mismatches(tmp_path, rng):
    store = ParameterStore()
    store.register("a", Tensor(np.zeros(3), requires_grad=True))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"a": Tensor(np.zeros(3)), "b": Tensor(np.zeros(1))})
    with pytest.raises(ValueError, match="extra"):
        store.load(path)
