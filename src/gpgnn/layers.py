"""Parameterized layers on top of the tensor core: embedding tables, LSTM
parameters, the prefix-shared bidirectional sequence encoder, multi-layer
perceptrons, and a named parameter store with a binary checkpoint format.

All weights initialize uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)], which
keeps activations in a range where the finite-difference oracle is sharp.
Without a generator (``rng=None``) they start at zero and nothing is drawn:
that is the structure a checkpoint then fills.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .autodiff import (
    SequencePlan,
    ShapeError,
    Tensor,
    activation_fn,
    add_bias,
    bilstm_sequence,
    concat,
    dropout,
    gather_rows,
    matmul,
)

CHECKPOINT_VERSION = "gpgnn-ckpt-1"


class CheckpointError(ValueError):
    """A checkpoint file is unreadable or does not fit the model."""


PAD_ROW = 0
UNK_ROW = 1


def uniform_init(rng: np.random.Generator | None, shape: Sequence[int], fan_in: int) -> Tensor:
    if rng is None:
        return Tensor(np.zeros(tuple(shape)), requires_grad=True)
    bound = 1.0 / np.sqrt(float(fan_in))
    return Tensor(rng.uniform(-bound, bound, size=tuple(shape)), requires_grad=True)


# ---------------------------------------------------------------------------
# embeddings


@dataclass
class EmbeddingTable:
    """A (rows, dim) lookup table.

    Vocabulary tables reserve row 0 as padding and row 1 as the unknown
    token.  Row 0 starts at zero and stays there because no token id maps to
    it, so it never receives a gradient; marker tables (``reserved=False``)
    use every row.
    """

    weights: Tensor

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def create(
        cls,
        rows: int,
        dim: int,
        rng: np.random.Generator | None,
        reserved: bool = True,
    ) -> "EmbeddingTable":
        w = uniform_init(rng, (rows, dim), dim)
        if reserved:
            w.data[PAD_ROW] = 0.0
        return cls(w)


def embedding_lookup(table: EmbeddingTable, indices) -> Tensor:
    """Gather rows; the backward pass scatters gradient only into the rows
    that were looked up."""
    return gather_rows(table.weights, indices)


# ---------------------------------------------------------------------------
# LSTM


@dataclass
class LstmParams:
    """Gate parameters for one LSTM direction.

    Each gate block holds an input-to-gate matrix (d, H), a hidden-to-gate
    matrix (H, H) and a bias (H,).  The forget bias initializes to 1.0 so
    fresh cells start out remembering.
    """

    w_i: Tensor
    u_i: Tensor
    b_i: Tensor
    w_f: Tensor
    u_f: Tensor
    b_f: Tensor
    w_o: Tensor
    u_o: Tensor
    b_o: Tensor
    w_c: Tensor
    u_c: Tensor
    b_c: Tensor

    @classmethod
    def create(cls, input_size: int, hidden_size: int, rng: np.random.Generator | None) -> "LstmParams":
        def w() -> Tensor:
            return uniform_init(rng, (input_size, hidden_size), input_size)

        def u() -> Tensor:
            return uniform_init(rng, (hidden_size, hidden_size), hidden_size)

        def b(value: float = 0.0) -> Tensor:
            return Tensor(np.full(hidden_size, value), requires_grad=True)

        return cls(
            w_i=w(), u_i=u(), b_i=b(),
            w_f=w(), u_f=u(), b_f=b(1.0),
            w_o=w(), u_o=u(), b_o=b(),
            w_c=w(), u_c=u(), b_c=b(),
        )

    def named(self) -> Iterable[tuple[str, Tensor]]:
        for gate in ("i", "f", "o", "c"):
            yield f"w_{gate}", getattr(self, f"w_{gate}")
            yield f"u_{gate}", getattr(self, f"u_{gate}")
            yield f"b_{gate}", getattr(self, f"b_{gate}")


def bilstm_encode_batch(
    fwd: LstmParams, bwd: LstmParams, rows: Tensor, fwd_plan: SequencePlan, bwd_plan: SequencePlan
) -> Tensor:
    """Bidirectional encoder over the N sequences of two ``SequencePlan``s
    of the same id array, one per reading direction, whose ids index
    ``rows``.  Each direction runs once per distinct prefix of its plan, not
    once per sequence and timestep.  Returns (N, 2H) in sequence order, as
    one ``bilstm_sequence`` record, which runs the two directions on two
    threads where a level's work pays for it and a CPU is spare, with the
    same bits as on one."""
    return bilstm_sequence(rows, _fused_gates(fwd), _fused_gates(bwd), fwd_plan, bwd_plan)


def _fused_gates(p: LstmParams) -> tuple[Tensor, Tensor, Tensor]:
    # fuse the four gate blocks into one wide matrix per input; the concats
    # are on the tape, so gradients land back in the per-gate tensors
    return (concat([p.w_i, p.w_f, p.w_o, p.w_c], axis=1),
            concat([p.u_i, p.u_f, p.u_o, p.u_c], axis=1),
            concat([p.b_i, p.b_f, p.b_o, p.b_c], axis=0))


# ---------------------------------------------------------------------------
# MLP


@dataclass
class MlpParams:
    """Affine layers with the configured activation between them; the final
    layer emits raw values (logits or generated parameters)."""

    weights: list[Tensor]
    biases: list[Tensor]
    activation: str = "relu"

    @property
    def input_size(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_size(self) -> int:
        return self.weights[-1].shape[1]

    @classmethod
    def create(cls, sizes: Sequence[int], activation: str, rng: np.random.Generator | None) -> "MlpParams":
        if len(sizes) < 2:
            raise ValueError(f"an MLP needs at least input and output widths, got {sizes}")
        ws, bs = [], []
        for d_in, d_out in zip(sizes[:-1], sizes[1:]):
            # biases share the weight init rule; an exactly-zero bias would
            # park relu pre-activations on the kink for all-zero inputs
            ws.append(uniform_init(rng, (d_in, d_out), d_in))
            bs.append(uniform_init(rng, (d_out,), d_in))
        return cls(ws, bs, activation)

    def named(self) -> Iterable[tuple[str, Tensor]]:
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            yield f"layer{k}.w", w
            yield f"layer{k}.b", b


def mlp_forward(
    p: MlpParams,
    x: Tensor,
    drop_ratio: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """Apply the MLP to a batch of rows (B,d).  Dropout, when active, hits
    hidden activations only, never the raw output layer."""
    if x.ndim != 2 or x.shape[1] != p.input_size:
        raise ShapeError(f"mlp_forward needs (B, {p.input_size}) rows, got {x.shape}")
    act = activation_fn(p.activation)
    out = x
    last = len(p.weights) - 1
    for k, (w, b) in enumerate(zip(p.weights, p.biases)):
        out = add_bias(matmul(out, w), b)
        if k != last:
            out = act(out)
            out = dropout(out, drop_ratio, rng, training)
    return out


# ---------------------------------------------------------------------------
# parameter store and checkpoints


class ParameterStore:
    """Hierarchically named trainable tensors.  Names are unique, and
    serialization order is always name-sorted, which is what makes
    checkpoints byte-stable."""

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}

    def register(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} registered twice")
        if not tensor.requires_grad:
            raise ValueError(f"parameter {name!r} does not require grad")
        self._params[name] = tensor
        return tensor

    def register_all(self, prefix: str, named: Iterable[tuple[str, Tensor]]) -> None:
        for name, tensor in named:
            self.register(f"{prefix}.{name}", tensor)

    def named(self) -> list[tuple[str, Tensor]]:
        return sorted(self._params.items())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    def total_parameters(self) -> int:
        return sum(t.size for t in self._params.values())

    def save(self, path) -> None:
        save_checkpoint(path, dict(self._params))

    def load(self, path) -> "BackgroundSha256":
        """Set every parameter to its tensor in the checkpoint at ``path``;
        returns the SHA-256 of the file's bytes, still being computed.  The
        parameters are views of those bytes: nothing may write to them
        before ``hexdigest()`` has returned."""
        arrays, digest = load_checkpoint(path)
        try:
            missing = sorted(set(self._params) - set(arrays))
            extra = sorted(set(arrays) - set(self._params))
            if missing or extra:
                raise CheckpointError(f"{path}: checkpoint mismatch: missing={missing} extra={extra}")
            for name, tensor in self._params.items():
                if arrays[name].shape != tensor.shape:
                    raise CheckpointError(
                        f"{path}: checkpoint shape for {name!r}: {arrays[name].shape} vs {tensor.shape}")
        except BaseException:
            digest.hexdigest()
            raise
        for name, tensor in self._params.items():
            tensor.data = arrays[name]
            tensor.zero_grad()
        return digest


@contextmanager
def atomic_write(path, mode: str = "wb", **kwargs):
    """A file open for writing under a temporary name beside ``path``,
    which replaces ``path`` when the block ends.  If the block raises, the
    temporary file is removed and any previous file at ``path`` is left as
    it was.  No ``fsync``: this guards against a failed write, not a crash
    of the host."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, tensors: dict[str, Tensor]) -> None:
    """Write a name-sorted flat binary of little-endian float64 values behind
    a length-prefixed JSON header mapping name -> shape and byte offset.

    The bytes go through ``atomic_write``, so a write that fails leaves any
    previous checkpoint as it was."""
    names = sorted(tensors)
    entries: dict[str, dict] = {}
    offset = 0
    for name in names:
        shape = tensors[name].shape
        entries[name] = {"shape": list(shape), "offset": offset}
        offset += 8 * math.prod(shape)
    header = json.dumps({"version": CHECKPOINT_VERSION, "tensors": entries}, sort_keys=True).encode()
    with atomic_write(path) as fh:
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for name in names:
            fh.write(np.ascontiguousarray(tensors[name].data, dtype="<f8").tobytes())


class BackgroundSha256:
    """The SHA-256 of some buffers, computed on a second thread, which then
    also finds the first of some named arrays, in name order, that holds a
    value that is not finite.  hashlib and numpy release the GIL over large
    buffers, so both run beside whatever the caller does next.  The buffers
    must not change until ``hexdigest()``, which joins the thread, has
    returned."""

    def __init__(self, *buffers, arrays: dict[str, np.ndarray] | None = None):
        self._hash = hashlib.sha256()
        self._non_finite: str | None = None
        self._thread = threading.Thread(target=self._run, args=(buffers, arrays or {}), name="sha256",
                                        daemon=True)
        self._thread.start()

    def _run(self, buffers, arrays: dict[str, np.ndarray]) -> None:
        for buffer in buffers:
            self._hash.update(buffer)
        self._non_finite = next((name for name in sorted(arrays) if not np.isfinite(arrays[name]).all()), None)

    def hexdigest(self) -> str:
        self._thread.join()
        return self._hash.hexdigest()

    def non_finite(self) -> str | None:
        """The first named array, in name order, with a NaN or an infinity,
        or None; joins the thread."""
        self._thread.join()
        return self._non_finite


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], BackgroundSha256]:
    """Read a file that ``save_checkpoint`` wrote, in one pass: the tensors
    by name, and the SHA-256 of the bytes read, which a second thread
    computes from the moment the file has been checked, and which then
    looks for the first tensor holding a value that is not finite.

    The length prefix is checked against the file's size before anything is
    allocated.  The data then goes by one ``readinto`` into one float64
    array, and every tensor is a writable view of it: aligned to 8 bytes,
    because numpy's matmul skips BLAS for an unaligned operand, and copied
    nowhere.  A short file, a malformed header, or a tensor whose bytes lie
    outside the data, off the 8-byte grid or over another tensor's is a
    CheckpointError naming the path."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(8)
        if len(prefix) < 8:
            raise CheckpointError(f"{path}: {len(prefix)} bytes, too short for the 8-byte header length")
        (hlen,) = struct.unpack("<Q", prefix)
        if hlen > size - 8:
            raise CheckpointError(f"{path}: header of {hlen} bytes runs past the end of the file")
        raw_header = fh.read(hlen)
        nbytes = size - 8 - hlen
        data = np.empty(-(-nbytes // 8), dtype="<f8")
        data_bytes = data.view(np.uint8)[:nbytes]
        got = fh.readinto(data_bytes)
    if len(raw_header) != hlen or got != nbytes:
        raise CheckpointError(f"{path}: the file ended early while it was read")
    try:
        header = json.loads(raw_header.decode())
        version = header.get("version")
        entries = {
            name: (tuple(int(n) for n in e["shape"]), int(e["offset"]))
            for name, e in header["tensors"].items()
        }
    except (ValueError, TypeError, KeyError, AttributeError, OverflowError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint header: {exc!r}") from None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
    arrays: dict[str, np.ndarray] = {}
    end = 0
    for start, name in sorted((start, name) for name, (_shape, start) in entries.items()):
        shape = entries[name][0]
        count = math.prod(shape)
        if start < end or start % 8 or min(shape, default=0) < 0 or start + 8 * count > nbytes:
            raise CheckpointError(
                f"{path}: tensor {name!r} {shape} at byte {start} lies outside the {nbytes} data bytes, "
                "off the 8-byte grid or over another tensor"
            )
        end = start + 8 * count
        arrays[name] = data[start // 8 : end // 8].reshape(shape)
    return arrays, BackgroundSha256(prefix, raw_header, data_bytes, arrays=arrays)
