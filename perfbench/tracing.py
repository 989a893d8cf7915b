"""Spans around calls into gpgnn's layers, for the traced benchmark run.

``Tracer.install`` replaces public functions in gpgnn's modules with
wrappers that record a span (name, start, end, parent, training step) per
call.  Backward time is attributed without touching the program: when a
forward span ends, the tape records reachable from its output, back to its
inputs, are claimed by that span, and each claimed record's backward rule is
swapped for a timed one.  Records claimed by a nested span are walked
through but stay with the inner span, so each record belongs to the
innermost span that recorded it.  Records no span claims are timed as
``autodiff.unattributed`` when ``backward`` starts.

Time spent claiming is subtracted from every open span, so claiming does not
inflate a parent's self time.  The rest of the tracing cost shows as the gap
between the traced and the untraced ``epoch_s``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import gpgnn.cli
import gpgnn.layers
import gpgnn.model
import gpgnn.training

UNATTRIBUTED = "autodiff.unattributed"
MB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "step", "seq", "overhead", "records", "out_bytes")

    def __init__(self, name, start, parent, step, seq):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.step = step
        self.seq = seq
        self.overhead = 0
        self.records = 0
        self.out_bytes = 0

    @property
    def ns(self) -> int:
        return self.end - self.start - self.overhead

    def to_json(self) -> dict:
        return {"name": self.name, "start_ns": self.start, "end_ns": self.end, "parent": self.parent,
                "step": self.step, "self_overhead_ns": self.overhead, "records": self.records,
                "out_bytes": self.out_bytes}


class TimedRule:
    """A tape record's backward rule, timed into its region's bucket."""

    __slots__ = ("rule", "region", "seq", "tracer")

    def __init__(self, rule, region, seq, tracer):
        self.rule = rule
        self.region = region
        self.seq = seq
        self.tracer = tracer

    def __call__(self, g):
        t0 = time.perf_counter_ns()
        out = self.rule(g)
        self.tracer.rule_ns[(self.tracer.step, self.region)] += time.perf_counter_ns() - t0
        return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.step: int | None = None
        self.n_steps = 0
        self.rule_ns: dict[tuple, int] = defaultdict(int)
        self.tape_records: dict[int, int] = {}
        self.checkpoint_bytes: list[int] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self.stack[-1].seq if self.stack else None
        span = Span(name, time.perf_counter_ns(), parent, self.step, len(self.spans))
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order (open: {popped.name})")

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def _charge_overhead(self, t0: int) -> None:
        spent = time.perf_counter_ns() - t0
        for open_span in self.stack:
            open_span.overhead += spent

    # -- tape attribution ---------------------------------------------------

    def claim(self, span: Span, region: str, out, stops) -> None:
        """Claim the records between ``out`` and the tensors in ``stops``."""
        t0 = time.perf_counter_ns()
        stop_ids = {id(t) for t in stops}
        seen: set[int] = set()
        todo = [out]
        while todo:
            t = todo.pop()
            op = getattr(t, "op", None)
            if op is None or id(t) in stop_ids or id(t) in seen:
                continue
            seen.add(id(t))
            if isinstance(op.rule, TimedRule):
                if op.rule.seq < span.seq:
                    continue  # recorded before this span opened
            else:
                op.rule = TimedRule(op.rule, region, span.seq, self)
                span.records += 1
                span.out_bytes += t.data.nbytes
            todo.extend(op.inputs)
        self._charge_overhead(t0)

    def _tape_walk(self, loss) -> int:
        """Count the records under ``loss``; time the ones no span claimed."""
        seen: set[int] = set()
        todo = [loss]
        n = 0
        while todo:
            t = todo.pop()
            if t.op is None or id(t) in seen:
                continue
            seen.add(id(t))
            n += 1
            if not isinstance(t.op.rule, TimedRule):
                t.op.rule = TimedRule(t.op.rule, UNATTRIBUTED, -1, self)
            todo.extend(t.op.inputs)
        return n

    # -- patching -----------------------------------------------------------

    @staticmethod
    def _patch(owner, attr: str, make):
        setattr(owner, attr, make(getattr(owner, attr)))

    def _spanned(self, name, stops=None, region=None):
        """Wrapper factory: a span per call; optionally claim the output's
        records for ``region`` (a name, or a function of the parent span)."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                parent = tracer.stack[-1].name if tracer.stack else None
                span_name = name(parent) if callable(name) else name
                span = tracer.begin(span_name)
                try:
                    out = original(*args, **kwargs)
                finally:
                    tracer.end(span)
                if stops is not None:
                    tracer.claim(span, region or span_name, out, stops(args))
                return out

            return wrapper

        return make

    def install(self) -> "Tracer":
        tracer = self
        m, tr, ly, cl = gpgnn.model, gpgnn.training, gpgnn.layers, gpgnn.cli

        self._patch(m, "bilstm_encode_batch", self._spanned("layers.bilstm", lambda a: [a[2]]))
        self._patch(m, "mlp_forward", self._spanned(
            lambda parent: "model.head" if parent == "model.pair_logits" else "model.encoder_mlp",
            lambda a: [a[1]]))
        self._patch(m.GpGnn, "pair_logits", self._spanned(
            "model.pair_logits", lambda a: list(a[2].stacks), region="model.propagate"))
        self._patch(m, "softmax_cross_entropy_rows", self._spanned("model.loss", lambda a: [a[0]]))
        self._patch(tr, "clip_gradients", self._spanned("training.clip_gradients"))
        self._patch(tr, "evaluate_split", self._spanned("training.validate"))
        self._patch(ly, "load_checkpoint", self._spanned("layers.load_checkpoint"))
        self._patch(cl, "predict_pairs", self._spanned("model.predict_pairs"))
        self._patch(cl, "metrics_report", self._spanned("evaluation.metrics_report"))
        self._patch(cl, "write_predictions", self._spanned("evaluation.write_predictions"))

        def forward(original):
            def wrapper(*args, **kwargs):
                tracer.step = tracer.n_steps
                tracer.n_steps += 1
                with tracer.span("training.forward"):
                    return original(*args, **kwargs)
            return wrapper

        def backward(original):
            def wrapper(loss):
                t0 = time.perf_counter_ns()
                tracer.tape_records[tracer.step] = tracer._tape_walk(loss)
                tracer._charge_overhead(t0)
                with tracer.span("autodiff.backward"):
                    return original(loss)
            return wrapper

        def adam(original):
            def wrapper(*args, **kwargs):
                try:
                    with tracer.span("training.adam_step"):
                        return original(*args, **kwargs)
                finally:
                    tracer.step = None
            return wrapper

        def save(original):
            def wrapper(path, tensors):
                with tracer.span("layers.save_checkpoint"):
                    out = original(path, tensors)
                tracer.checkpoint_bytes.append(os.path.getsize(path))
                return out
            return wrapper

        self._patch(tr, "batch_losses", forward)
        self._patch(tr, "backward", backward)
        self._patch(tr, "adam_step", adam)
        self._patch(ly, "save_checkpoint", save)
        return self

    # -- results ------------------------------------------------------------

    def per_step(self) -> dict[str, list[float]]:
        """Per training step values, one list entry per step."""
        by_step: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.step is not None:
                by_step[s.step].append(s)
        rows: dict[str, list[float]] = defaultdict(list)
        for step, spans in sorted(by_step.items()):
            if step not in self.tape_records:
                continue  # a step that never reached backward
            total = defaultdict(int)
            records = defaultdict(int)
            out_bytes = defaultdict(int)
            for s in spans:
                total[s.name] += s.ns
                region = "model.propagate" if s.name == "model.pair_logits" else s.name
                records[region] += s.records
                out_bytes[region] += s.out_bytes
            total["model.propagate"] = total["model.pair_logits"] - total["model.head"]
            rules = {region: ns for (st, region), ns in self.rule_ns.items() if st == step}
            for region, key in (("layers.bilstm", "layers.bilstm"), ("model.encoder_mlp", "model.encoder_mlp"),
                                ("model.propagate", "model.propagate"), ("model.head", "model.head"),
                                ("model.loss", "model.loss")):
                rows[f"{key}.fwd_ms"].append(total[region] / 1e6)
                rows[f"{key}.bwd_ms"].append(rules.get(region, 0) / 1e6)
            for region in ("layers.bilstm", "model.propagate"):
                rows[f"{region}.tape_records"].append(records[region])
                rows[f"{region}.out_mb"].append(out_bytes[region] / MB)
            rows["autodiff.backward_ms"].append(total["autodiff.backward"] / 1e6)
            rows["autodiff.backward.self_ms"].append((total["autodiff.backward"] - sum(rules.values())) / 1e6)
            rows["autodiff.tape_records"].append(self.tape_records[step])
            rows["training.clip_gradients_ms"].append(total["training.clip_gradients"] / 1e6)
            rows["training.adam_step_ms"].append(total["training.adam_step"] / 1e6)
        return rows

    def per_call(self, name: str) -> list[float]:
        return [s.ns / 1e6 for s in self.spans if s.name == name]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Median per training step (or per call, where stated) of each
        per-layer metric, with its unit."""
        out: dict[str, tuple[float, str]] = {}
        for key, values in self.per_step().items():
            unit = "count" if key.endswith("tape_records") else "MB" if key.endswith("_mb") else "ms"
            out[key] = (statistics.median(values), unit)
        for key, span in (("synth.generate_ms", "synth.generate"), ("corpus.load_ms", "corpus.load"),
                          ("training.build_model_ms", "training.build_model"),
                          ("training.validate_ms", "training.validate"),
                          ("layers.save_checkpoint_ms", "layers.save_checkpoint"),
                          ("layers.load_checkpoint_ms", "layers.load_checkpoint"),
                          ("model.predict_pairs_ms", "model.predict_pairs"),
                          ("evaluation.metrics_report_ms", "evaluation.metrics_report"),
                          ("evaluation.write_predictions_ms", "evaluation.write_predictions")):
            out[key] = (statistics.median(self.per_call(span)), "ms")
        out["layers.checkpoint_mb"] = (statistics.median(self.checkpoint_bytes) / MB, "MB")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json()) + "\n")
