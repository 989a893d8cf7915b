"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every operation records its inputs and a backward
rule on its output tensor, so each forward pass lays down a fresh tape and no
state survives between passes.  ``backward`` linearizes the operations
reachable from a scalar loss into topological order and walks that tape in
reverse.  Gradients accumulate additively, so a tensor used n times receives
the sum of its n contributions.  Only leaves (tensors no op produced, such as
parameters) receive ``grad``; an intermediate gradient lives only until its
op's rule has run.  One ``lstm_sequence`` record covers a whole LSTM run,
and one ``propagate`` record a whole message-passing layer.  The LSTM runs
over a ``SequencePlan``, the prefix forest of its batch's sequences, so a
prefix that several sequences share is computed once; a plan that shares
nothing is the dense batch.  Each activation's values and derivative are
written once, in ``ACTIVATIONS``.  The sigmoid is 0.5 * tanh(0.5 * x) + 0.5,
one tanh pass that never overflows, within 2**-52 (absolute) of
1 / (1 + exp(-x)); the same identity lets ``lstm_sequence`` take all four
LSTM gates of a step from one tanh.

Everything is float64 on purpose: the models built on top are desk-scale, and
exact arithmetic is what makes the central-difference oracle in ``grad_check``
decisive rather than suggestive.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "no_grad",
    "matmul",
    "add",
    "add_bias",
    "mul",
    "scale",
    "relu",
    "tanh",
    "sigmoid",
    "concat",
    "reshape",
    "gather_rows",
    "SequencePlan",
    "lstm_sequence",
    "propagate",
    "reduce_sum",
    "dropout",
    "softmax_cross_entropy_rows",
    "activation_fn",
    "backward",
    "grad_check",
    "grad_check_params",
    "GradCheckReport",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


_recording = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (forward-only evaluation)."""
    global _recording
    prev, _recording = _recording, False
    try:
        yield
    finally:
        _recording = prev


class Op:
    """One tape record: input tensors and the rule mapping the output
    gradient to per-input gradients (None for inputs that take none)."""

    __slots__ = ("inputs", "rule")

    def __init__(self, inputs: tuple["Tensor", ...], rule: Callable):
        self.inputs = inputs
        self.rule = rule


class Tensor:
    """A dense float64 array plus the bookkeeping ``backward`` needs.

    ``grad`` starts as None and accumulates across backward calls; optimizer
    steps are expected to clear it.
    """

    __slots__ = ("data", "requires_grad", "grad", "op")

    def __init__(self, data, requires_grad: bool = False, op: Op | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.op = op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, inputs: tuple[Tensor, ...], rule: Callable) -> Tensor:
    needs = _recording and any(t.requires_grad for t in inputs)
    return Tensor(data, requires_grad=needs, op=Op(inputs, rule) if needs else None)


# ---------------------------------------------------------------------------
# arithmetic


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-d operands: (m,k) x (k,n) -> (m,n)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return _result(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shapes disagree: {a.shape} vs {b.shape}")
    return _result(a.data + b.data, (a, b), lambda g: (g, g))


def add_bias(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-C vector to every row of an (R,C) matrix."""
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"add_bias shapes disagree: {m.shape} + {v.shape}")
    return _result(m.data + v.data, (m, v), lambda g: (g, g.sum(axis=0)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes disagree: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _result(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(a.data * c, (a,), lambda g: (g * c,))


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # sigma(x) = (1 + tanh(x/2)) / 2: one pass of tanh, which never
    # overflows, and halving is exact, so ``lstm_sequence`` can take all
    # four gates from one tanh
    y = np.tanh(0.5 * x)
    y *= 0.5
    y += 0.5
    return y


# name -> (values(x), rule(g, y)): each derivative is written in terms of
# the output y, so an op that saves y can apply it
ACTIVATIONS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], Callable]] = {
    "relu": (lambda x: np.where(x > 0, x, 0.0), lambda g, y: g * (y > 0)),
    "tanh": (np.tanh, lambda g, y: g * (1.0 - y * y)),
    "sigmoid": (_sigmoid_values, lambda g, y: g * y * (1.0 - y)),
}


def _activation(name: str) -> tuple[Callable, Callable]:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; expected one of {sorted(ACTIVATIONS)}") from None


def activation_fn(name: str) -> Callable[[Tensor], Tensor]:
    values, rule = _activation(name)

    def apply(x: Tensor) -> Tensor:
        y = values(x.data)
        return _result(y, (x,), lambda g: (rule(g, y),))

    return apply


relu, tanh, sigmoid = activation_fn("relu"), activation_fn("tanh"), activation_fn("sigmoid")


# ---------------------------------------------------------------------------
# shape manipulation


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    nd = parts[0].ndim
    if axis < 0 or axis >= nd:
        raise ShapeError(f"concat axis {axis} out of range for {nd}-d tensors")
    base = list(parts[0].shape)
    for p in parts[1:]:
        if p.ndim != nd:
            raise ShapeError(f"concat rank mismatch: {parts[0].shape} vs {p.shape}")
        other = list(p.shape)
        if other[:axis] + other[axis + 1 :] != base[:axis] + base[axis + 1 :]:
            raise ShapeError(f"concat shapes disagree off axis {axis}: {parts[0].shape} vs {p.shape}")
    cuts = np.cumsum([p.shape[axis] for p in parts])[:-1]
    out = np.concatenate([p.data for p in parts], axis=axis)
    return _result(out, tuple(parts), lambda g: tuple(np.split(g, cuts, axis=axis)))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"reshape {x.shape} ({x.size} elements) to {shape}")
    old = x.shape
    return _result(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows along axis 0.  The backward pass scatter-adds, so repeated
    indices accumulate."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows indices must be 1-d, got shape {idx.shape}")
    rows = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        bad = int(idx[(idx < 0) | (idx >= rows)][0])
        raise IndexError(f"row index {bad} out of range for {rows} rows")

    def rule(g: np.ndarray):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _result(x.data[idx], (x,), rule)


def reduce_sum(x: Tensor) -> Tensor:
    """The sum of every element, as a scalar."""
    return _result(x.data.sum(), (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))


def dropout(x: Tensor, ratio: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted-mask dropout: active only in training mode, identity otherwise."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"dropout ratio must be in [0, 1), got {ratio}")
    if not training or ratio == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= ratio) / (1.0 - ratio)
    return _result(x.data * mask, (x,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# recurrence


def _matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with each row's bits independent of how many rows ``a``
    has.  numpy sends a one-row product to gemv, which rounds differently
    from gemm, so a single row is multiplied as a pair of rows."""
    if a.shape[0] == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


class _ChildSums:
    """Sums of items by label, for labels 0..k-1 that each hold an item.

    ``labels`` is sorted, and item ``order[k]`` holds ``labels[k]`` (item k
    when ``order`` is None).  ``first`` is one item of every label.  Round r
    adds, to each label that holds more than r+1 items, its item r+2.  Most
    nodes of a prefix forest have one child, so a few gather-adds make the
    sums, where ``np.add.reduceat`` would pay a fixed cost per label.  Items
    in order whose labels are distinct are their own sums."""

    __slots__ = ("first", "rounds")

    def __init__(self, labels: np.ndarray, order: np.ndarray | None = None):
        counts = np.bincount(labels)
        self.first = self.rounds = None
        if order is None:
            if counts.size == labels.size:
                return
            order = np.arange(labels.size)
        starts = np.cumsum(counts) - counts
        self.first = order[starts]
        self.rounds = []
        for k in range(1, int(counts.max())):
            more = np.flatnonzero(counts > k)
            self.rounds.append((more, order[starts[more] + k]))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        if self.first is None:
            return values
        out = values[self.first]
        for labels, items in self.rounds:
            out[labels] += values[items]
        return out


class SequencePlan:
    """The prefix forest of N equal-length sequences, for one direction.

    ``ids`` is an (N, L) array of input row ids: sequence k reads row
    ids[k, t] at timestep t, and ``reverse`` reads t from L-1 down to 0.  Two
    sequences whose inputs agree up to a step share every LSTM state up to
    that step, so level t of the forest holds one node per distinct prefix
    of length t+1, that is per distinct (parent node, input row) pair.  One
    lexicographic sort of the sequences finds them all: a sorted sequence
    starts a new node at level t where its prefix differs from the one
    before it.  Nodes come in prefix order, so each parent's children are
    contiguous.  A plan whose sequences share nothing is the dense batch.

    Per level: ``inputs`` (each node's row id), ``parents`` (each node's node
    in the level before; all 0 at the root level) and ``children`` (the
    sums over each parent's children; None at the root level).  ``final``
    maps each sequence to its node in the last level, and ``final_sums``
    sums over each last-level node's sequences.  ``node_inputs`` is every
    node's row id, level by level; ``input_order``, ``input_runs`` and
    ``input_rows`` group the nodes by input row for ``np.add.reduceat``.
    """

    def __init__(self, ids, reverse: bool = False):
        ids = np.asarray(ids, dtype=np.intp)
        if ids.ndim != 2 or 0 in ids.shape or ids.min() < 0:
            raise ShapeError(f"a sequence plan needs a nonempty (N, L) array of row ids >= 0, got {ids.shape}")
        steps = ids[:, ::-1] if reverse else ids
        order = np.lexsort(steps.T[::-1])
        steps = steps[order]
        starts = np.ones(steps.shape, dtype=bool)  # sorted row k starts a node at level t
        starts[1:] = np.logical_or.accumulate(steps[1:] != steps[:-1], axis=1)
        node = np.cumsum(starts, axis=0) - 1  # sorted row k's node at each level
        self.inputs, self.parents, self.children = [], [], []
        for t in range(steps.shape[1]):
            rows = np.flatnonzero(starts[:, t])
            parent = node[rows, t - 1] if t else np.zeros(rows.size, dtype=np.intp)
            self.children.append(_ChildSums(parent) if t else None)
            self.inputs.append(steps[rows, t])
            self.parents.append(parent)
        self.final = np.empty_like(order)
        self.final[order] = node[:, -1]
        self.final_sums = _ChildSums(node[:, -1], order)
        self.node_inputs = np.concatenate(self.inputs)
        self.input_order = np.argsort(self.node_inputs, kind="stable")
        by_input = self.node_inputs[self.input_order]
        self.input_runs = np.flatnonzero(np.diff(by_input, prepend=-1))
        self.input_rows = by_input[self.input_runs]

    @property
    def sequences(self) -> int:
        return self.final.size

    @property
    def nodes(self) -> int:
        return self.node_inputs.size


def lstm_sequence(x: Tensor, w: Tensor, u: Tensor, b: Tensor, plan: SequencePlan) -> Tensor:
    """An LSTM from zero states over the sequences of a ``SequencePlan``.

    ``x`` holds input rows that the plan's ids index.  ``w`` (D, 4H),
    ``u`` (H, 4H) and ``b`` (4H,) lay out the input, forget, output and
    candidate gate blocks side by side.  The recurrence runs once per plan
    node, a level at a time: ``(x @ w)[input] + (h @ u)[parent] + b``, with
    no ``h @ u`` at the root level, whose parent state is zero.  Returns each
    sequence's final (N, H) hidden state in sequence order as one tape
    record.  Its rule is backpropagation through time over the nodes: a
    parent's state gradients are the sums of its children's.  The input
    gradients come from one product over all nodes, whose x rows are then
    summed per input row.

    The gates take one tanh.  sigma(z) = 0.5 * tanh(0.5 * z) + 0.5, and
    halving a float is exact, so with the i, f and o columns of ``w``,
    ``u`` and ``b`` halved once per call, those columns of z come out as
    exactly 0.5 * z: one ``tanh`` over each level's whole (n, 4H) block,
    then ``* 0.5 + 0.5`` on its first 3H columns, gives the three gates bit
    for bit as ``ACTIVATIONS["sigmoid"]`` would, and the candidate.

    Sharing a state between sequences is exact because nothing random (no
    dropout) touches the inputs or the states: a node's state is a function
    of its prefix alone.
    """
    hd = u.shape[0]
    if x.ndim != 2 or x.shape[0] <= plan.input_rows[-1]:
        raise ShapeError(f"lstm_sequence input rows {x.shape} do not hold the plan's row {plan.input_rows[-1]}")
    if w.shape != (x.shape[1], 4 * hd) or u.shape != (hd, 4 * hd) or b.shape != (4 * hd,):
        raise ShapeError(f"lstm_sequence gate blocks {w.shape}/{u.shape}/{b.shape} do not fit rows {x.shape}")
    xd, wd, ud = x.data, w.data, u.data
    sigmoid_rule = ACTIVATIONS["sigmoid"][1]
    tanh_rule = ACTIVATIONS["tanh"][1]
    half = np.ones(4 * hd)
    half[: 3 * hd] = 0.5
    xw = _matmul_rows(xd, wd * half)
    u_half, b_half = ud * half, b.data * half
    saved = []
    h = c = None
    for inputs, parents in zip(plan.inputs, plan.parents):
        z = xw[inputs]
        if h is not None:
            z += _matmul_rows(h, u_half)[parents]
        z += b_half
        np.tanh(z, out=z)
        ifo, g = z[:, : 3 * hd], z[:, 3 * hd :]
        ifo *= 0.5
        ifo += 0.5
        i, f, o = ifo[:, :hd], ifo[:, hd : 2 * hd], ifo[:, 2 * hd :]
        cp = None if c is None else c[parents]
        c = i * g if cp is None else f * cp + i * g
        tc = np.tanh(c)
        saved.append((h, cp, ifo, g, tc))
        h = o * tc

    def rule(gy: np.ndarray):
        gu = np.zeros_like(ud)
        gh = plan.final_sums(gy)
        gc = np.zeros_like(gh)
        gz_all = np.empty((plan.nodes, 4 * hd))  # the nodes' gate gradients, level by level
        stop = plan.nodes
        for children, (hp, cp, ifo, g, tc) in zip(reversed(plan.children), reversed(saved)):
            i, f, o = ifo[:, :hd], ifo[:, hd : 2 * hd], ifo[:, 2 * hd :]
            gc = gc + tanh_rule(gh * o, tc)
            gz = gz_all[stop - len(g) : stop]
            stop -= len(g)
            gcp = np.zeros_like(gc) if cp is None else gc * cp
            gz[:, : 3 * hd] = sigmoid_rule(np.concatenate([gc * g, gcp, gh * tc], axis=1), ifo)
            gz[:, 3 * hd :] = tanh_rule(gc * i, g)
            if hp is not None:
                gz = children(gz)
                gu += hp.T @ gz
                gh = gz @ ud.T
                gc = children(gc * f)
        gx = np.zeros_like(xd)
        gx[plan.input_rows] = np.add.reduceat((gz_all @ wd.T)[plan.input_order], plan.input_runs)
        return gx, xd[plan.node_inputs].T @ gz_all, gu, gz_all.sum(axis=0)

    return _result(h[plan.final], (x, w, u, b), rule)


# ---------------------------------------------------------------------------
# message passing


def propagate(matrices: Tensor, states: Tensor, sources, activation: str) -> Tensor:
    """One message-passing layer as one tape record.

    ``matrices`` is an (E, d, d) stack and ``states`` stacks B blocks of m
    nodes, (B*m, d).  ``sources`` gives the source node, in 0..m-1, of each
    of the E edges of a block, every node the source of the same number
    c = E/m of edges; m is the number of distinct sources.  Message (g, e)
    is act(matrices[e] @ states[g*m + sources[e]]): one stack serves all B
    blocks and is never copied.  Output row g*m + i sums the c consecutive
    messages (g, i*c) .. (g, i*c + c-1), so the result is (B*m, d).  The
    rule forms the stack's gradient as one (E, d, B) x (E, B, d) product and
    the states' as a sum over each node's c messages; it skips any operand
    that takes no gradient.
    """
    values, act_rule = _activation(activation)
    src = np.asarray(sources, dtype=np.intp)
    md, sd = matrices.data, states.data
    ok = (md.ndim == 3 and sd.ndim == 2 and md.shape[1:] == (sd.shape[1],) * 2
          and src.shape == (md.shape[0],) and src.size > 0 and src.min() >= 0)
    if ok:
        counts = np.bincount(src)
        m = counts.size
        ok = counts.min() == counts.max() and sd.shape[0] > 0 and sd.shape[0] % m == 0
    if not ok:
        raise ShapeError(f"propagate shapes disagree: {md.shape} stack, {sd.shape} states, {src.shape} sources")
    e, d = md.shape[0], sd.shape[1]
    blocks = sd.shape[0] // m
    x = sd.reshape(blocks, m, d)[:, src].reshape(blocks, e, d, 1)
    y = values(md @ x).reshape(sd.shape[0], -1, d)  # (B*m, c, d): the c messages each output row sums
    out = y.sum(axis=1)
    by_source = np.argsort(src, kind="stable")

    def rule(g: np.ndarray):
        gz = act_rule(g[:, None, :], y).reshape(blocks, e, d)
        gm = gz.transpose(1, 2, 0) @ x.reshape(blocks, e, d).swapaxes(0, 1) if matrices.requires_grad else None
        if not states.requires_grad:
            return gm, None
        gx = (md.swapaxes(1, 2) @ gz[..., None])[:, by_source]
        return gm, gx.reshape(sd.shape[0], -1, d).sum(axis=1)

    return _result(out, (matrices, states), rule)


# ---------------------------------------------------------------------------
# softmax and losses


def _softmax_values(z: np.ndarray, axis: int) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_cross_entropy_rows(logits: Tensor, targets) -> Tensor:
    """Per-row cross entropy: (B,C) logits and B integer targets -> (B,) losses."""
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy_rows needs (B,C) logits, got {logits.shape}")
    t = np.asarray(targets, dtype=np.intp)
    b, c = logits.shape
    if t.shape != (b,):
        raise ShapeError(f"targets shape {t.shape} does not match {b} rows")
    if t.size and (t.min() < 0 or t.max() >= c):
        raise ValueError(f"target out of range for {c} classes")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))).reshape(-1)
    losses = lse - z[np.arange(b), t]
    probs = _softmax_values(z, axis=1)

    def rule(g: np.ndarray):
        gz = probs.copy()
        gz[np.arange(b), t] -= 1.0
        return (gz * g[:, None],)

    return _result(losses, (logits,), rule)


# ---------------------------------------------------------------------------
# backward


def _trace(loss: Tensor) -> list[Tensor]:
    """Linearize the graph under ``loss`` so every tensor follows its inputs.
    This ordered list is the tape the reverse pass walks."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node.op is not None:
            for parent in node.op.inputs:
                if id(parent) not in seen:
                    stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Add the gradient of the scalar ``loss`` into ``grad`` of every
    requires_grad leaf (a tensor no op produced) reachable from it.  Only
    leaves receive ``grad``; each intermediate gradient is dropped as soon
    as its op's rule has used it."""
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _trace(loss)
    # No array a rule returns is ever written in place, so the first
    # gradient to reach a node is held by reference and later ones add out
    # of place.
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node.op is None:
            if node.requires_grad:
                # leaves (parameters) own their gradient outright so that
                # in-place optimizer math can never alias another buffer
                node.grad = np.array(g, dtype=np.float64, copy=True) if node.grad is None else node.grad + g
            continue
        grads = node.op.rule(g)
        for parent, gp in zip(node.op.inputs, grads):
            if gp is None or not parent.requires_grad:
                continue
            slot = flowing.get(id(parent))
            flowing[id(parent)] = gp if slot is None else slot + gp


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    max_rel_error: float
    n_checked: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def _relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    # the additive floor keeps near-zero gradients from dividing noise by noise
    return np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-4)


def grad_check(
    f: Callable[[Tensor], Tensor],
    point: Tensor,
    step: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Check the analytic gradient of scalar-valued ``f`` at ``point`` against
    central finite differences, coordinate by coordinate (``grad_check_params``
    with one parameter).  Raises ValueError when ``f`` does not reach
    ``point``."""
    point.requires_grad = True
    report = grad_check_params(lambda: f(point), {"point": point}, step, tol)["point"]
    if point.grad is None:
        raise ValueError("f does not depend on the checked point")
    return report


def _central_differences(loss_fn: Callable[[], Tensor], point: Tensor, step: float) -> np.ndarray:
    numeric = np.zeros_like(point.data)
    flat = point.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    with no_grad():
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            hi = loss_fn().item()
            flat[k] = orig - step
            lo = loss_fn().item()
            flat[k] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise FloatingPointError(f"non-finite value at finite-difference probe {k}")
            num_flat[k] = (hi - lo) / (2.0 * step)
    return numeric


def grad_check_params(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    step: float = 1e-5,
    tol: float = 1e-4,
) -> dict[str, GradCheckReport]:
    """Run the finite-difference oracle for every named parameter of a model.

    ``loss_fn`` takes no arguments and must rebuild its graph per call
    (define-by-run style); it is re-run under ``no_grad`` at the probe
    points, so it must be deterministic (evaluation-mode dropout).  Raises on
    non-finite values at any probe point.
    """
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    backward(loss)
    reports: dict[str, GradCheckReport] = {}
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        rel = _relative_errors(analytic, _central_differences(loss_fn, p, step))
        reports[name] = GradCheckReport(float(rel.max()) if rel.size else 0.0, rel.size, tol)
    return reports
