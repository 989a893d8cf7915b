"""Output checks that do not trust the program under test.

The prediction check recomputes every test-pair probability with a plain
numpy GP-GNN forward pass written from the file formats in the repository
README: ``model.json`` (config, vocabulary, relation names) and
``checkpoint.bin`` (length-prefixed JSON header, then little-endian float64
tensors).  It shares no code with ``gpgnn``.  The training checks read the
run log and probe the loss along one random direction; they go through
``gpgnn``'s public training entry points only because the gradient itself is
the output under test.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Largest allowed |p_program - p_reference| for any probability.  float64
# runs agree to ~1e-15 and a float32 compute path to ~1e-6; every fault
# listed in the README moves some probability by well over 1e-2.
PROB_TOL = 1e-4
# Largest allowed |sum(p) - 1| for one probability vector (float32-safe).
SUM_TOL = 1e-6
# Largest allowed difference between a metric in metrics.json and the value
# recomputed here; both are ratios of the same integer counts.
METRIC_TOL = 1e-12
# Directional-derivative check: central-difference step along a unit
# direction, and the allowed relative disagreement with g.v.  Some of the
# ~1e5 relu inputs of a batch sit within 1e-7 of their kink at trained
# weights; each one crossed shifts the central difference by up to ~1e-3 of
# g.v (7e-4 seen at step 1e-4, 8e-5 at 1e-5).  A sign or scale error moves
# it by far more than the 1e-2 allowed.
FD_STEP = 1e-6
FD_TOL = 1e-2

NA = "NA"


# ---------------------------------------------------------------------------
# reading the program's files


def read_checkpoint(path) -> dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    (hlen,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8 : 8 + hlen].decode("utf-8"))
    base = 8 + hlen
    arrays = {}
    for name, entry in header["tensors"].items():
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        start = base + entry["offset"]
        arrays[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=start).reshape(shape).copy()
    return arrays


def read_jsonl(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def gold_labels(sentence: dict) -> dict[tuple[int, int], str]:
    """Gold relation per ordered pair as written in the corpus file; pairs
    the file leaves unlabelled are NA."""
    labels = {}
    for t in sentence["triples"]:
        labels.setdefault((t["s"], t["o"]), t["r"])
    m = len(sentence["entities"])
    return {(i, j): labels.get((i, j), NA) for i in range(m) for j in range(m) if i != j}


# ---------------------------------------------------------------------------
# the independent forward pass


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


ACTIVATIONS = {"relu": lambda x: np.maximum(x, 0.0), "tanh": np.tanh, "sigmoid": _sigmoid}


class ReferenceModel:
    """GP-GNN in evaluation mode (no dropout), from model.json + checkpoint.bin."""

    def __init__(self, model_dir, dtype=np.float64):
        model_dir = Path(model_dir)
        meta = json.loads((model_dir / "model.json").read_text(encoding="utf-8"))
        cfg = meta["config"]
        self.layers = cfg["layers"]
        self.d_n = cfg["d_n"] if cfg.get("d_n") else (8 if self.layers == 1 else 12)
        self.act = ACTIVATIONS[cfg["activation"]]
        self.tied = cfg["adjacency"] == "tied"
        self.relations = meta["relations"]
        # rows 0 and 1 are padding and unknown; tokens are case-folded
        self.token_row = {tok: k + 2 for k, tok in enumerate(meta["vocab"])}
        self.w = {k: v.astype(dtype) for k, v in read_checkpoint(model_dir / "checkpoint.bin").items()}
        self.dtype = dtype

    def encoder(self, n: int) -> str:
        return "encoder.shared" if self.tied else f"encoder.layer{n}"

    def probabilities(self, sentence: dict) -> dict[tuple[int, int], np.ndarray]:
        m = len(sentence["entities"])
        edges = [(i, j) for i in range(m) for j in range(m) if i != j]
        mats = [edge_matrices(self, self.encoder(n), sentence, edges)
                for n in range(self.layers)]
        return {pair: pair_probabilities(self, mats, edges, m, pair) for pair in edges}


def lstm_direction(w: dict, prefix: str, x: np.ndarray, reverse: bool) -> np.ndarray:
    """Final hidden state of one LSTM direction over x (l, batch, d)."""
    g = {k: w[f"{prefix}.{k}"] for gate in "ifoc" for k in (f"w_{gate}", f"u_{gate}", f"b_{gate}")}
    hidden = g["b_i"].shape[0]
    h = np.zeros((x.shape[1], hidden), dtype=x.dtype)
    c = np.zeros_like(h)
    for t in (range(x.shape[0] - 1, -1, -1) if reverse else range(x.shape[0])):
        pre = {gate: x[t] @ g[f"w_{gate}"] + h @ g[f"u_{gate}"] + g[f"b_{gate}"] for gate in "ifoc"}
        c = _sigmoid(pre["f"]) * c + _sigmoid(pre["i"]) * np.tanh(pre["c"])
        h = _sigmoid(pre["o"]) * np.tanh(c)
    return h


def edge_matrices(ref: ReferenceModel, enc: str, sentence: dict, edges) -> np.ndarray:
    """One d_n x d_n matrix per ordered edge, from the edge's marked tokens."""
    w = ref.w
    tokens = sentence["tokens"]
    rows = [ref.token_row.get(tok.lower(), 1) for tok in tokens]
    marks = np.zeros((len(edges), len(tokens)), dtype=int)
    for k, (i, j) in enumerate(edges):
        ei, ej = sentence["entities"][i], sentence["entities"][j]
        marks[k, ei["start"] : ei["end"]] = 1
        marks[k, ej["start"] : ej["end"]] = 2
    word = w["word_embedding.weights"][rows]  # (l, dw)
    x = np.concatenate(
        [np.broadcast_to(word[None], (len(edges),) + word.shape), w["position_embedding.weights"][marks]],
        axis=2,
    ).transpose(1, 0, 2)  # (l, E, d)
    enc_out = np.concatenate(
        [lstm_direction(w, f"{enc}.lstm_fwd", x, False), lstm_direction(w, f"{enc}.lstm_bwd", x, True)],
        axis=1,
    )
    flat = mlp(ref, f"{enc}.mlp", enc_out)
    return flat.reshape(len(edges), ref.d_n, ref.d_n)


def mlp(ref: ReferenceModel, prefix: str, x: np.ndarray) -> np.ndarray:
    hidden = ref.act(x @ ref.w[f"{prefix}.layer0.w"] + ref.w[f"{prefix}.layer0.b"])
    return hidden @ ref.w[f"{prefix}.layer1.w"] + ref.w[f"{prefix}.layer1.b"]


def initial_states(m: int, d: int, pair: tuple[int, int], dtype=np.float64) -> np.ndarray:
    """Subject flag = ones then zeros, object flag = its mirror, others zero."""
    h = np.zeros((m, d), dtype=dtype)
    h[pair[0], : d // 2] = 1.0
    h[pair[1], d // 2 :] = 1.0
    return h


def propagate(ref: ReferenceModel, mats: np.ndarray, edges, h: np.ndarray) -> np.ndarray:
    """h'_i = sum over j != i of act(A[i,j] @ h_j)."""
    targets = np.array([i for i, _ in edges])
    sources = np.array([j for _, j in edges])
    messages = ref.act(np.einsum("eab,eb->ea", mats, h[sources]))
    out = np.zeros_like(h)
    np.add.at(out, targets, messages)
    return out


def pair_probabilities(ref: ReferenceModel, mats, edges, m: int, pair) -> np.ndarray:
    s, o = pair
    h = initial_states(m, ref.d_n, pair, ref.dtype)
    blocks = []
    for n in range(ref.layers):
        h = propagate(ref, mats[n], edges, h)
        blocks.append(h[s] * h[o])
    logits = mlp(ref, "head", np.concatenate(blocks))
    e = np.exp(logits - logits.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# evaluation output checks


@dataclass
class EvalCheck:
    records: int
    failed: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    max_prob_diff: float = 0.0

    def fail(self, sentence_ids, problem: str) -> None:
        self.failed.update(sentence_ids)
        if len(self.problems) < 20:
            self.problems.append(problem)


def sentence_metrics(pred: list[int], gold: list[int], na: int) -> tuple[float, float]:
    """Accuracy with NA included; macro-F1 over non-NA classes that occur in
    gold or predictions."""
    correct = sum(p == g for p, g in zip(pred, gold))
    classes = sorted(({*pred} | {*gold}) - {na})
    f1s = []
    for c in classes:
        tp = sum(p == c and g == c for p, g in zip(pred, gold))
        fp = sum(p == c and g != c for p, g in zip(pred, gold))
        fn = sum(g == c and p != c for p, g in zip(pred, gold))
        f1s.append(2.0 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    return correct / len(gold), (sum(f1s) / len(f1s) if f1s else 0.0)


def check_eval(model_dir, test_path, eval_dir, dtype=np.float64, reference_cache=None) -> EvalCheck:
    """Check ``gpgnn eval``'s predictions.jsonl and metrics.json for the
    corpus file it scored.  Sentences with any bad record land in ``failed``;
    a problem with the whole output fails every sentence.  Calls that score
    the same ``model_dir`` and corpus may share one ``reference_cache`` dict,
    so the reference forward pass runs once per sentence, not once per call."""
    corpus = read_jsonl(test_path)
    records = read_jsonl(Path(eval_dir) / "predictions.jsonl")
    metrics = json.loads((Path(eval_dir) / "metrics.json").read_text(encoding="utf-8"))
    ids = [s["id"] for s in corpus]
    check = EvalCheck(records=len(records))

    expected = sum(len(s["entities"]) * (len(s["entities"]) - 1) for s in corpus)
    if len(records) != expected:
        check.fail(ids, f"{len(records)} prediction records, expected sum m(m-1) = {expected}")

    ref = ReferenceModel(model_dir, dtype)
    by_sentence: dict[str, dict[tuple[int, int], dict]] = {}
    for r in records:
        key = (r["subject_idx"], r["object_idx"])
        got = by_sentence.setdefault(r["sentence_id"], {})
        if key in got:
            check.fail([r["sentence_id"]], f"{r['sentence_id']}: duplicate record for pair {key}")
        got[key] = r
    unknown = sorted(set(by_sentence) - set(ids))
    if unknown:
        check.fail(ids, f"records for sentences absent from the corpus: {unknown[:3]}")

    rel_index = {name: k for k, name in enumerate(ref.relations)}
    pred, gold = [], []
    for s in corpus:
        sid = s["id"]
        want = gold_labels(s)
        got = by_sentence.get(sid, {})
        if set(got) != set(want):
            check.fail([sid], f"{sid}: pairs {sorted(set(want) ^ set(got))[:3]} missing or extra")
            continue
        if reference_cache is None:
            reference = ref.probabilities(s)
        else:
            if sid not in reference_cache:
                reference_cache[sid] = ref.probabilities(s)
            reference = reference_cache[sid]
        for pair, g in want.items():
            r = got[pair]
            p = np.asarray(r["probs"], dtype=np.float64)
            if r["gold"] != g:
                check.fail([sid], f"{sid} {pair}: gold {r['gold']!r}, corpus says {g!r}")
            if p.shape != (len(ref.relations),) or not np.all(np.isfinite(p)):
                check.fail([sid], f"{sid} {pair}: probabilities malformed or not finite")
                continue
            if p.min() < 0.0 or abs(p.sum() - 1.0) > SUM_TOL:
                check.fail([sid], f"{sid} {pair}: not a probability vector (min {p.min()}, sum {p.sum()})")
            diff = float(np.max(np.abs(p - reference[pair])))
            check.max_prob_diff = max(check.max_prob_diff, diff)
            if not diff <= PROB_TOL:
                check.fail([sid], f"{sid} {pair}: differs from the reference forward pass by {diff:.3e}")
            pred.append(int(np.argmax(p)))
            gold.append(rel_index.get(g, -1))

    if len(gold) == expected and expected:
        acc, f1 = sentence_metrics(pred, gold, rel_index[NA])
        for name, value in (("accuracy", acc), ("macro_f1", f1)):
            if not abs(metrics.get(name, math.nan) - value) <= METRIC_TOL:
                check.fail(ids, f"metrics.json {name} {metrics.get(name)} != recomputed {value}")
    return check


# ---------------------------------------------------------------------------
# training checks


def check_run_log(run_dir, epochs: int) -> list[str]:
    """The run did every configured epoch, and its last epoch's mean
    training loss is below its first's."""
    events = read_jsonl(Path(run_dir) / "run_log.jsonl")
    losses = [e["loss"] for e in events if e.get("event") == "epoch" and e.get("split") == "train"]
    done = [e for e in events if e.get("event") == "done"]
    problems = []
    if not done or done[-1]["epochs_run"] != epochs or len(losses) != epochs:
        problems.append(f"run log shows {len(losses)} epochs, configured {epochs}")
    if not all(math.isfinite(x) for x in losses):
        problems.append(f"non-finite training loss in {losses}")
    elif len(losses) < 2 or not losses[-1] < losses[0]:
        problems.append(f"training loss did not fall: {losses}")
    return problems


def batch_gradient(model, batch, na_weight: float):
    """The training objective on one batch in evaluation mode, as
    ``run_training`` forms it (mean of per-sentence losses): a function
    giving its value at the current weights, the weight arrays, and the
    gradient ``backward`` computes."""
    from gpgnn.autodiff import backward, concat, no_grad, reduce_sum, reshape, scale
    from gpgnn.model import batch_losses

    def mean_loss():
        losses = batch_losses(model, batch, training=False, na_weight=na_weight)
        return scale(reduce_sum(concat([reshape(x, (1,)) for x in losses], axis=0)), 1.0 / len(batch))

    def loss_at() -> float:
        with no_grad():
            return mean_loss().item()

    params = dict(model.store.named())
    model.store.zero_grads()
    backward(mean_loss())
    grads = {name: p.grad.copy() for name, p in params.items()}
    model.store.zero_grads()
    return loss_at, {name: p.data for name, p in params.items()}, grads


@dataclass
class DirectionalCheck:
    finite_difference: float
    analytic: float
    rel_error: float

    @property
    def passed(self) -> bool:
        return self.rel_error <= FD_TOL


def directional_check(loss_at, params: dict, grads: dict, seed: int, step: float = FD_STEP) -> DirectionalCheck:
    """Compare (L(theta + step v) - L(theta - step v)) / 2 step with g.v.

    v is the normalized sum of a seeded random unit vector and the unit
    gradient direction.  A purely random direction in a million dimensions
    has g.v ~ |g| / 1000, which kink crossings and round-off can swamp; the
    gradient component keeps g.v near |g| / sqrt(2), so a wrong sign or
    scale always shows.  ``loss_at()`` evaluates the loss at the current
    parameter values; ``params`` maps names to arrays updated in place;
    ``grads`` maps the same names to the analytic gradient."""
    rng = np.random.default_rng(seed)
    names = sorted(params)
    u = {n: rng.standard_normal(params[n].shape) for n in names}
    u_norm = math.sqrt(sum(float(np.sum(u[n] * u[n])) for n in names))
    g_norm = math.sqrt(sum(float(np.sum(grads[n] * grads[n])) for n in names)) or 1.0
    v = {n: u[n] / u_norm + grads[n] / g_norm for n in names}
    v_norm = math.sqrt(sum(float(np.sum(v[n] * v[n])) for n in names))
    v = {n: v[n] / v_norm for n in names}
    saved = {n: params[n].copy() for n in names}
    values = []
    try:
        for sign in (1.0, -1.0):
            for n in names:
                params[n][...] = saved[n] + sign * step * v[n]
            values.append(loss_at())
    finally:
        for n in names:
            params[n][...] = saved[n]
    fd = (values[0] - values[1]) / (2.0 * step)
    gv = sum(float(np.sum(grads[n] * v[n])) for n in names)
    rel = abs(fd - gv) / max(abs(fd), abs(gv), 1e-12)
    return DirectionalCheck(fd, gv, rel if math.isfinite(rel) else math.inf)
