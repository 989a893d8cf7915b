"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every operation records its inputs and a backward
rule on its output tensor, so each forward pass lays down a fresh tape and no
state survives between passes.  ``backward`` linearizes the operations
reachable from a scalar loss into topological order and walks that tape in
reverse.  Gradients accumulate additively, so a tensor used n times receives
the sum of its n contributions.  Only leaves (tensors no op produced, such as
parameters) receive ``grad``; an intermediate gradient lives only until its
op's rule has run.  One ``lstm_sequence`` record covers a whole LSTM run,
one ``bilstm_sequence`` record a whole bidirectional one, and one
``propagate`` or ``propagate_flags`` record a whole message-passing layer
over many graphs.  ``bilstm_sequence`` may run its forward direction on the
process's one worker thread, started on first use, while the caller runs
the backward direction, with the bits of one thread.  The LSTM runs over a
``SequencePlan``, the prefix forest of its batch's sequences, whatever
their lengths, so a prefix that several sequences share is computed once;
a plan that shares nothing is the dense batch.  Each activation's values
and derivative are written once, in ``ACTIVATIONS``.  The sigmoid is 0.5 * tanh(0.5 * x) + 0.5,
one tanh pass that never overflows, within 2**-52 (absolute) of
1 / (1 + exp(-x)); the same identity lets ``lstm_sequence`` take all four
LSTM gates of a step from one tanh.

Everything is float64 on purpose: the models built on top are desk-scale, and
exact arithmetic is what makes the central-difference oracle in ``grad_check``
decisive rather than suggestive.
"""

from __future__ import annotations

import os
import threading
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
    "bilstm_sequence",
    "PARALLEL_MIN_MULADDS",
    "spare_cpus",
    "takes_worker",
    "usable_cpus",
    "propagate",
    "FlagPlan",
    "propagate_flags",
    "reduce_sum",
    "segment_sums",
    "unstack",
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


def _relu_values(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # a NaN input gives 0 here, where np.maximum would keep it
    if out is None:
        return np.where(x > 0, x, 0.0)
    drop = ~(x > 0)
    if out is not x:
        np.copyto(out, x)
    np.copyto(out, 0.0, where=drop)
    return out


def _sigmoid_values(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # sigma(x) = (1 + tanh(x/2)) / 2: one pass of tanh, which never
    # overflows, and halving is exact, so ``lstm_sequence`` can take all
    # four gates from one tanh
    y = np.multiply(x, 0.5, out=out)
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return y


# name -> (values(x, out=None), rule(g, y)): ``out`` may be x itself, for an
# op that needs only the output; each derivative is written in terms of the
# output y, so an op that saves y can apply it
ACTIVATIONS: dict[str, tuple[Callable[..., np.ndarray], Callable]] = {
    "relu": (_relu_values, lambda g, y: g * (y > 0)),
    "tanh": (lambda x, out=None: np.tanh(x, out=out), lambda g, y: g * (1.0 - y * y)),
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


def segment_sums(x: Tensor, sizes) -> Tensor:
    """The sums of a vector's consecutive runs of ``sizes`` elements, as a
    (len(sizes),) vector.  Runs of one size are summed as the rows of a
    matrix, which numpy sums in the order it sums each run alone."""
    sizes = np.asarray(sizes, dtype=np.intp)
    if x.ndim != 1 or sizes.ndim != 1 or not sizes.size or sizes.min() < 1 or sizes.sum() != x.size:
        raise ShapeError(f"segment_sums of {x.shape} into runs of {sizes.tolist()}")
    if np.all(sizes == sizes[0]):
        out = x.data.reshape(sizes.size, -1).sum(axis=1)
    else:
        out = np.add.reduceat(x.data, np.cumsum(sizes) - sizes)
    return _result(out, (x,), lambda g: (np.repeat(g, sizes),))


def unstack(x: Tensor) -> list[Tensor]:
    """The elements of a vector as scalars, one tape record each."""
    if x.ndim != 1:
        raise ShapeError(f"unstack needs a vector, got {x.shape}")

    def element(k: int) -> Tensor:
        def rule(g: np.ndarray):
            gx = np.zeros(x.shape)
            gx[k] = g
            return (gx,)

        return _result(x.data[k], (x,), rule)

    return [element(k) for k in range(x.size)]


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


def _matmul_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with each column's bits independent of how many columns
    ``b`` has: a one-column product, which numpy sends to gemv, is taken
    as a pair of columns."""
    if b.shape[-1] == 1:
        return (a @ np.concatenate([b, b], axis=-1))[..., :1]
    return a @ b


class _ChildSums:
    """Sums of items by label, for labels 0..size-1.

    ``labels`` is sorted, and item ``order[k]`` holds ``labels[k]`` (item k
    when ``order`` is None).  ``first`` is one item of every label that
    holds one.  Round r adds, to each label that holds more than r+1 items,
    its item r+2.  Most nodes of a prefix forest have one child, so a few
    gather-adds make the sums, where ``np.add.reduceat`` would pay a fixed
    cost per label.  The output has ``size`` rows (default: one past the
    largest label), and a label that holds no item sums to zero: a node
    whose sequences have all ended has no children.  Items in order whose
    labels are distinct and cover 0..size-1 are their own sums."""

    __slots__ = ("first", "rounds", "held", "size")

    def __init__(self, labels: np.ndarray, order: np.ndarray | None = None, size: int = 0):
        counts = np.bincount(labels, minlength=size)
        self.first = self.rounds = self.held = None
        self.size = counts.size
        if order is None:
            if counts.size == labels.size and counts.all():
                return
            order = np.arange(labels.size)
        starts = np.cumsum(counts) - counts
        held = np.flatnonzero(counts)
        if held.size < counts.size:
            self.held = held
        self.first = order[starts[held]]
        self.rounds = []
        for k in range(1, int(counts.max())):
            more = np.flatnonzero(counts > k)
            self.rounds.append((more, order[starts[more] + k]))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        if self.first is None:
            return values
        if self.held is None:
            out = values[self.first]
        else:
            out = np.zeros((self.size,) + values.shape[1:])
            out[self.held] = values[self.first]
        for labels, items in self.rounds:
            out[labels] += values[items]
        return out


class SequencePlan:
    """The prefix forest of N sequences, for one direction.

    ``ids`` is an (N, L) array of input row ids.  Row k holds its sequence's
    ids >= 0 followed only by -1 padding, so sequences may differ in length
    (1 to L).  Sequence k reads row ids[k, t] at timestep t, and ``reverse``
    reads its ids from its own last one down to ids[k, 0].  Two sequences
    whose inputs agree up to a step share every LSTM state up to that step,
    so level t of the forest holds one node per distinct prefix of length
    t+1 among the sequences longer than t, that is per distinct (parent
    node, input row) pair.  One lexicographic sort of the sequences finds
    them all: a sorted sequence starts a new node at level t where its
    prefix differs from the one before it.  Nodes come in prefix order, so
    each parent's children are contiguous; a node whose sequences all end
    at its level has none.  A plan whose sequences share nothing is the
    dense batch.

    Per level: ``inputs`` (each node's row id), ``parents`` (each node's node
    in the level before; all 0 at the root level), ``children`` (the sums
    over each node of the level before of its children, zero for a node
    without; None at the root level) and ``ends``: None where no sequence
    ends, else ``(sequences, nodes, sums)``, the sequences whose last step
    the level holds, the distinct nodes they end at, and the sums over each
    such node of its sequences.  ``final`` maps each sequence to its node in
    the level where it ends.  When every sequence has length L, only the
    last level has ends, and they cover each of its nodes.  ``node_inputs``
    is every node's row id, level by level; ``input_order``, ``input_runs``
    and ``input_rows`` group the nodes by input row for ``np.add.reduceat``.
    """

    def __init__(self, ids, reverse: bool = False):
        ids = np.asarray(ids, dtype=np.intp)
        if ids.ndim != 2 or 0 in ids.shape:
            raise ShapeError(f"a sequence plan needs a nonempty (N, L) array of row ids, got {ids.shape}")
        valid = ids >= 0
        if ids.min() < -1 or not valid[:, 0].all() or (valid[:, 1:] > valid[:, :-1]).any():
            raise ShapeError("a sequence plan needs each row's ids >= 0 followed only by -1 padding, "
                             "and at least one id per row")
        lengths = valid.sum(axis=1)
        ids = ids[:, : lengths.max()]  # no level without nodes
        if reverse:  # each row from its own last id; padding stays at the end
            ids = np.take_along_axis(ids, (lengths[:, None] - 1 - np.arange(ids.shape[1])) % ids.shape[1], axis=1)
        order = np.lexsort(ids.T[::-1])
        steps, lengths = ids[order], lengths[order]
        starts = np.ones(steps.shape, dtype=bool)  # sorted row k starts a node at level t
        starts[1:] = np.logical_or.accumulate(steps[1:] != steps[:-1], axis=1)
        starts &= steps >= 0
        node = np.cumsum(starts, axis=0) - 1  # sorted row k's node at each level it reaches
        self.inputs, self.parents, self.children, self.ends = [], [], [], []
        self.final = np.empty_like(order)
        for t in range(steps.shape[1]):
            rows = np.flatnonzero(starts[:, t])
            parent = node[rows, t - 1] if t else np.zeros(rows.size, dtype=np.intp)
            self.children.append(_ChildSums(parent, size=len(self.inputs[-1])) if t else None)
            self.inputs.append(steps[rows, t])
            self.parents.append(parent)
            ending = np.flatnonzero(lengths == t + 1)
            if ending.size == 0:
                self.ends.append(None)
                continue
            nodes, labels = np.unique(node[ending, t], return_inverse=True)
            self.final[order[ending]] = node[ending, t]
            self.ends.append((order[ending], nodes, _ChildSums(labels, order[ending])))
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


def _check_lstm_operands(x: Tensor, w: Tensor, u: Tensor, b: Tensor, plan: SequencePlan, op: str) -> None:
    hd = u.shape[0]
    if x.ndim != 2 or x.shape[0] <= plan.input_rows[-1]:
        raise ShapeError(f"{op} input rows {x.shape} do not hold the plan's row {plan.input_rows[-1]}")
    if w.shape != (x.shape[1], 4 * hd) or u.shape != (hd, 4 * hd) or b.shape != (4 * hd,):
        raise ShapeError(f"{op} gate blocks {w.shape}/{u.shape}/{b.shape} do not fit rows {x.shape}")


def _lstm_direction(xd: np.ndarray, wd: np.ndarray, ud: np.ndarray, bd: np.ndarray, plan: SequencePlan):
    """One direction's recurrence over ``plan`` on plain arrays: each
    sequence's final (N, H) hidden state, read at the level where the
    sequence ends, and the rule mapping its gradient to the gradients of x,
    w, u and b (see ``lstm_sequence``).  The rule adds the gradients of the
    sequences that end at a level into their nodes' h gradients there, a
    gather-sum per level; with equal lengths that is the last level alone.
    It touches no tape, so either may run on any thread."""
    hd = ud.shape[0]
    sigmoid_rule = ACTIVATIONS["sigmoid"][1]
    tanh_rule = ACTIVATIONS["tanh"][1]
    half = np.ones(4 * hd)
    half[: 3 * hd] = 0.5
    xw = _matmul_rows(xd, wd * half)
    u_half, b_half = ud * half, bd * half
    saved = []
    h = c = None
    y = np.empty((plan.sequences, hd))
    for inputs, parents, ends in zip(plan.inputs, plan.parents, plan.ends):
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
        if ends is not None:
            y[ends[0]] = h[plan.final[ends[0]]]

    def rule(gy: np.ndarray):
        gu = np.zeros_like(ud)
        gh = plan.ends[-1][2](gy)  # every last-level node ends a sequence
        gc = np.zeros_like(gh)
        gz_all = np.empty((plan.nodes, 4 * hd))  # the nodes' gate gradients, level by level
        stop = plan.nodes
        below = reversed([None] + plan.ends[:-1])  # the ends of the level each rule step hands down to
        for children, ends, (hp, cp, ifo, g, tc) in zip(reversed(plan.children), below, reversed(saved)):
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
                if ends is not None:
                    gh[ends[1]] += ends[2](gy)
        gx = np.zeros_like(xd)
        gx[plan.input_rows] = np.add.reduceat((gz_all @ wd.T)[plan.input_order], plan.input_runs)
        return gx, xd[plan.node_inputs].T @ gz_all, gu, gz_all.sum(axis=0)

    return y, rule


def lstm_sequence(x: Tensor, w: Tensor, u: Tensor, b: Tensor, plan: SequencePlan) -> Tensor:
    """An LSTM from zero states over the sequences of a ``SequencePlan``.

    ``x`` holds input rows that the plan's ids index.  ``w`` (D, 4H),
    ``u`` (H, 4H) and ``b`` (4H,) lay out the input, forget, output and
    candidate gate blocks side by side.  The recurrence runs once per plan
    node, a level at a time: ``(x @ w)[input] + (h @ u)[parent] + b``, with
    no ``h @ u`` at the root level, whose parent state is zero.  Returns each
    sequence's final (N, H) hidden state in sequence order, taken at the
    level where it ends, as one tape record.  Its rule is backpropagation
    through time over the nodes: a parent's state gradients are the sums of
    its children's, plus, at a node where sequences end, theirs.  The input
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
    _check_lstm_operands(x, w, u, b, plan, "lstm_sequence")
    y, rule = _lstm_direction(x.data, w.data, u.data, b.data, plan)
    return _result(y, (x, w, u, b), rule)


# The smallest h @ U work per level, in multiply-adds, at which
# ``bilstm_sequence`` hands a direction to the worker thread.  Below it the
# handoff and the two threads' contention for the interpreter lock cost
# more than the overlap saves; see the README for the measured crossover.
PARALLEL_MIN_MULADDS = 2_000_000

_worker_lock = threading.Lock()
_worker = None  # (pid, executor): the process's one worker, once started


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def spare_cpus() -> int:
    """The CPUs this process may use beyond one for each of its live
    threads but the worker, which is idle between records.  The calling
    thread counts, and so does any other, busy or not: the checkpoint hash
    of ``gpgnn eval`` holds a CPU while it runs."""
    worker = _worker is not None and _worker[0] == os.getpid()
    return usable_cpus() - (threading.active_count() - worker)


def takes_worker(u_sizes: Sequence[int], plans: Sequence[SequencePlan]) -> bool:
    """Whether ``bilstm_sequence`` runs a direction on the worker thread:
    the smaller direction's mean h @ U work per level (its plan's nodes per
    level times the u.size = 4H * H multiply-adds of each node) reaches
    ``PARALLEL_MIN_MULADDS``, and a CPU is spare for the worker."""
    levels = len(plans[0].inputs)
    per_level = min(plan.nodes * size for plan, size in zip(plans, u_sizes)) / levels
    return per_level >= PARALLEL_MIN_MULADDS and spare_cpus() >= 1


def _lstm_worker():
    """The process's one worker thread, as an executor of one thread,
    started on first use.  A forked child inherits no threads, so it starts
    its own."""
    global _worker
    with _worker_lock:
        if _worker is None or _worker[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _worker = os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="gpgnn-lstm")
        return _worker[1]


def _side_by_side(first: Callable, second: Callable, threaded: bool):
    """``(first(), second())``.  Threaded, ``first`` runs on the worker
    thread, under a copy of the caller's context so that the caller's
    ``np.errstate`` holds there too, while ``second`` runs here.  The worker
    is always waited for, and its exception wins over this thread's, as on
    the serial path, where ``first`` runs first."""
    if not threaded:
        return first(), second()
    import contextvars

    future = _lstm_worker().submit(contextvars.copy_context().run, first)
    try:
        out = second()
    finally:
        ahead = future.result()
    return ahead, out


def bilstm_sequence(
    x: Tensor,
    fwd: Sequence[Tensor],
    bwd: Sequence[Tensor],
    fwd_plan: SequencePlan,
    bwd_plan: SequencePlan,
) -> Tensor:
    """A bidirectional LSTM as one tape record: ``lstm_sequence`` over
    ``fwd_plan`` with the (w, u, b) of ``fwd``, and over ``bwd_plan`` with
    those of ``bwd``, their final states side by side as (N, H_f + H_b).
    The two plans read one id array in its two directions.

    The directions share nothing but ``x``.  Where ``takes_worker`` says
    the work pays for it, the forward direction's recurrence, and in the
    rule its backpropagation, runs on the process's one worker thread
    while the calling thread runs the backward direction's.  Each direction
    runs the same numpy code on the same operands wherever it runs, so
    outputs and gradients are bit for bit the serial ones.  ``x`` is listed
    once per direction among the record's inputs, so ``backward`` adds its
    two gradients in one fixed order, forward first."""
    if fwd_plan.sequences != bwd_plan.sequences or len(fwd_plan.inputs) != len(bwd_plan.inputs):
        raise ShapeError(f"direction plans disagree: {fwd_plan.sequences} vs {bwd_plan.sequences} sequences "
                         f"of {len(fwd_plan.inputs)} vs {len(bwd_plan.inputs)} steps")
    _check_lstm_operands(x, *fwd, fwd_plan, "bilstm_sequence forward")
    _check_lstm_operands(x, *bwd, bwd_plan, "bilstm_sequence backward")
    threaded = takes_worker((fwd[1].size, bwd[1].size), (fwd_plan, bwd_plan))
    (h_f, rule_f), (h_b, rule_b) = _side_by_side(
        lambda: _lstm_direction(x.data, *(t.data for t in fwd), fwd_plan),
        lambda: _lstm_direction(x.data, *(t.data for t in bwd), bwd_plan),
        threaded)
    split = h_f.shape[1]

    def rule(g: np.ndarray):
        g_f, g_b = _side_by_side(lambda: rule_f(g[:, :split]), lambda: rule_b(g[:, split:]), threaded)
        return g_f + g_b

    return _result(np.concatenate([h_f, h_b], axis=1), (x, *fwd, x, *bwd), rule)


# ---------------------------------------------------------------------------
# message passing


def _graph_stacks(matrices: Tensor) -> np.ndarray:
    """A (G, E, d, d) view of a stack of matrices per graph; one (E, d, d)
    stack is G = 1."""
    md = matrices.data
    return md[None] if md.ndim == 3 else md


def propagate(matrices: Tensor, states: Tensor, sources, activation: str) -> Tensor:
    """One message-passing layer over G graphs as one tape record.

    ``matrices`` is a (G, E, d, d) stack per graph, or one (E, d, d) stack
    (G = 1).  ``states`` stacks G*B blocks of m nodes, (G*B*m, d): graph
    g's B blocks come g-th and propagate against stack g.  ``sources``
    gives the source node, in 0..m-1, of each of the E edges of a block,
    every node the source of the same number c = E/m of edges; m is the
    number of distinct sources.  Message (g, b, e) is
    act(matrices[g, e] @ states[(g*B + b)*m + sources[e]]), taken for all
    B blocks at once as one (d, d) x (d, B) product per edge, taken source
    node by source node, whose bits do not depend on B.  Output row (g*B + b)*m + i sums the c consecutive
    messages (g, b, i*c) .. (g, b, i*c + c-1), in that order.  The rule
    forms each stack's gradient as one (d, B) x (B, d) product per edge and
    the states' as a sum over each node's c messages; it skips any operand
    that takes no gradient.
    """
    values, act_rule = _activation(activation)
    src = np.asarray(sources, dtype=np.intp)
    mg, sd = _graph_stacks(matrices), states.data
    ok = (mg.ndim == 4 and sd.ndim == 2 and mg.shape[2:] == (sd.shape[1],) * 2
          and src.shape == (mg.shape[1],) and src.size > 0 and src.min() >= 0)
    if ok:
        counts = np.bincount(src)
        m = counts.size
        ok = counts.min() == counts.max() and sd.shape[0] > 0 and sd.shape[0] % (mg.shape[0] * m) == 0
    if not ok:
        raise ShapeError(f"propagate shapes disagree: {matrices.shape} stack, {sd.shape} states, {src.shape} sources")
    graphs, e, d = mg.shape[:3]
    blocks = sd.shape[0] // (graphs * m)
    split = (graphs, m, e // m, d, blocks)  # a node's c messages side by side
    # node j's states in graph g's blocks, as one (d, B) matrix
    nodes = sd.reshape(graphs, blocks, m, d).transpose(0, 2, 3, 1)
    from_source = [np.flatnonzero(src == j) for j in range(m)]
    # message products per source node, straight from its states; the
    # activation then overwrites them, so no (G, E, d, B) array is made
    # twice
    y = np.empty((graphs, e, d, blocks))
    for j, edges in enumerate(from_source):
        y[:, edges] = _matmul_cols(mg[:, edges], nodes[:, j, None])
    values(y, out=y)
    out = y.reshape(split).sum(axis=2).transpose(0, 3, 1, 2).reshape(sd.shape)

    def rule(g: np.ndarray):
        per_node = g.reshape(graphs, blocks, m, d).transpose(0, 2, 3, 1)[:, :, None]
        gz = act_rule(per_node, y.reshape(split)).reshape(y.shape)
        gm = np.empty(mg.shape) if matrices.requires_grad else None
        gx = np.empty(nodes.shape) if states.requires_grad else None
        for j, edges in enumerate(from_source):
            gz_j = gz[:, edges]
            if gm is not None:
                gm[:, edges] = gz_j @ nodes[:, j, None].swapaxes(2, 3)
            if gx is not None:
                gx[:, j] = _matmul_cols(mg[:, edges].swapaxes(2, 3), gz_j).sum(axis=1)
        return (None if gm is None else gm.reshape(matrices.shape),
                None if gx is None else gx.transpose(0, 3, 1, 2).reshape(sd.shape))

    return _result(out, (matrices, states), rule)


class FlagPlan:
    """Which first-layer messages each node receives when layer 0 holds
    only two flags.

    A graph has m nodes and E edges whose ``sources`` are as in
    ``propagate``: node i's c edges are edges i*c .. i*c + c-1.  Each of P
    target ``pairs`` (s, o) is a block of m layer-0 states: a subject flag
    at node s, an object flag at node o, zeros elsewhere.  Node i of block
    p then receives act(A[e] @ subject) over its edge e from s,
    act(A[e] @ object) over its edge from o, and act(0) over each of its
    other edges.  Numbering message 2e + k for flag k of edge e:

    - ``reads`` (P*m, 2) names each row's subject and object messages, or
      the zero message 2E where the node has no such edge (i = s, i = o);
    - ``idle`` (P*m,) counts each row's other edges;
    - ``readers`` (2E, width) inverts ``reads``: the rows that read each
      message, padded with the zero row P*m.

    None of this depends on a graph's matrices, so it is built once per
    graph shape."""

    def __init__(self, sources, pairs):
        src = np.asarray(sources, dtype=np.intp)
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        counts = np.bincount(src) if src.ndim == 1 and src.size and src.min() >= 0 else np.zeros(0, np.intp)
        m = counts.size
        if not m or counts.min() != counts.max():
            raise ShapeError(f"a flag plan needs every node the source of equally many edges, got {src}")
        if not pairs.size or pairs.min() < 0 or pairs.max() >= m or np.any(pairs[:, 0] == pairs[:, 1]):
            raise ShapeError(f"flag plan target pairs must be two distinct nodes of {m}, got {pairs.tolist()}")
        e = src.size
        edge_of = np.full((m, m), -1, dtype=np.intp)  # edge_of[i, j]: node i's edge from j
        edge_of[np.arange(e) // counts[0], src] = np.arange(e)
        if np.count_nonzero(edge_of >= 0) != e:
            raise ShapeError(f"a flag plan needs at most one edge per (node, source), got {src}")
        own = edge_of[:, pairs.T].transpose(2, 1, 0)  # (P, 2, m): node i's edge from s and from o
        self.messages = 2 * e
        self.rows = len(pairs) * m
        self.reads = np.where(own >= 0, 2 * own + np.array([[0], [1]]), self.messages)
        self.reads = self.reads.transpose(0, 2, 1).reshape(self.rows, 2)
        self.idle = (counts[0] - (own >= 0).sum(axis=1)).reshape(self.rows).astype(np.float64)
        msg = self.reads.reshape(-1)
        row = np.repeat(np.arange(self.rows), 2)
        keep = np.flatnonzero(msg < self.messages)
        order = keep[np.argsort(msg[keep], kind="stable")]
        per_message = np.bincount(msg[order], minlength=self.messages)
        slot = np.arange(order.size) - np.repeat(np.cumsum(per_message) - per_message, per_message)
        self.readers = np.full((self.messages, max(int(per_message.max()), 1)), self.rows, dtype=np.intp)
        self.readers[msg[order], slot] = row[order]


def propagate_flags(matrices: Tensor, flags, plan: FlagPlan, activation: str) -> Tensor:
    """The first message-passing layer of G graphs straight from two flags,
    as one tape record: ``propagate`` on the layer-0 states that ``plan``
    describes, without them.

    ``matrices`` is a (G, E, d, d) stack per graph or one (E, d, d) stack,
    and ``flags`` the (2, d) subject and object flags.  Each graph's 2E
    flag messages act(A[e] @ flag) come from one product; row r of graph g
    is then the sum of its two messages in ``plan.reads`` (the zero message
    where there is none), plus act(0) times ``plan.idle[r]``.  That is
    2E products per graph where ``propagate`` takes P*E, and the same rule
    for every activation.  With act(0) = 0 (relu, tanh) every term added
    beyond ``propagate``'s is an exact zero, so the two agree bit for bit
    wherever the products round alike; for the sigmoid, act(0) = 0.5, and
    the m-1 terms are added in another order, within (m-1)**2 * 2**-52.
    Returns (G*P*m, d).  The rule gathers each message's readers and sums
    them, with no scatter."""
    values, act_rule = _activation(activation)
    mg, f = _graph_stacks(matrices), np.asarray(flags, dtype=np.float64)
    if mg.ndim != 4 or 2 * mg.shape[1] != plan.messages or mg.shape[2:] != (mg.shape[3],) * 2 \
            or f.shape != (2, mg.shape[3]):
        raise ShapeError(f"propagate_flags shapes disagree: {matrices.shape} stack, {f.shape} flags, "
                         f"a plan of {plan.messages} messages")
    graphs, e, d = mg.shape[:3]
    y = values(mg.reshape(-1, d) @ f.T)  # (G*E*d, 2): column k is flag k's messages
    table = np.zeros((graphs, plan.messages + 1, d))  # message 2e + k, then the zero message
    table[:, :-1] = y.reshape(graphs, e, d, 2).transpose(0, 1, 3, 2).reshape(graphs, -1, d)
    out = table[:, plan.reads[:, 0]] + table[:, plan.reads[:, 1]]
    out += values(np.zeros(1))[0] * plan.idle[:, None]

    def rule(g: np.ndarray):
        rows = np.zeros((graphs, plan.rows + 1, d))  # every row, then the zero row
        rows[:, :-1] = g.reshape(graphs, plan.rows, d)
        gy = rows[:, plan.readers].sum(axis=2).reshape(graphs, e, 2, d).transpose(0, 1, 3, 2)
        return ((act_rule(gy.reshape(y.shape), y) @ f).reshape(matrices.shape),)

    return _result(out.reshape(graphs * plan.rows, d), (matrices,), rule)


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
