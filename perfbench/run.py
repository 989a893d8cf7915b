#!/usr/bin/env python3
"""End-to-end benchmark of gpgnn: train, then evaluate, on a synthetic corpus.

    python3 perfbench/run.py --workload depth --seed 1 --seconds 55 --trace 0

Run from a checkout that holds ``src/gpgnn``.  The benchmark generates the
workload's corpus from ``--seed`` into files, and the program sees only
those files.  It repeats whole rounds while one more fits in ``--seconds``.
A round builds a fresh model, trains it with ``run_training``, writes
``model.json`` as ``gpgnn train`` does, and then calls ``gpgnn eval`` in
process EVALS_PER_ROUND times.  Every output is checked (see checks.py).
Every round repeats the same deterministic work from the same seed, so a
run holds many timings of identical work; they differ only by how much the
host slowed them, and the metrics take the fastest (README.md, "Noise and
bounds").  The last line of standard output is one JSON object: the
end-to-end metrics with ``--trace 0``, or the per-layer metrics of a traced
run with ``--trace 1``.
"""

from __future__ import annotations

import os
import sys
import time


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat", "r", encoding="ascii") as fh:
        stat = fh.read()
    start_ticks = int(stat[stat.rindex(")") + 2 :].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


# one BLAS thread, set before numpy is imported: on a host whose cores are
# shared, a second thread mostly waits on the scheduler and adds noise
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SPANS = HERE / "_spans"
GRAD_SEED = 20190202
EVALS_PER_ROUND = 8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "gpgnn" / "__init__.py").is_file():
        print(f"error: {SRC / 'gpgnn'} not found; run from a gpgnn checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 1
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = Bench(WORKLOADS[args.workload], args.seed, work, args.trace).run(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


class TimedEvents(list):
    """A run-log event sink for ``run_training`` that notes when each event
    arrives; the validation event closes an epoch."""

    def __init__(self):
        super().__init__()
        self.start = time.perf_counter()
        self.epoch_ends: list[float] = []

    def append(self, event) -> None:
        if event.get("event") == "epoch" and event.get("split") == "valid":
            self.epoch_ends.append(time.perf_counter())
        super().append(event)

    def epoch_seconds(self) -> list[float]:
        return [b - a for a, b in zip([self.start] + self.epoch_ends, self.epoch_ends)]


class Bench:
    def __init__(self, workload, seed: int, work: Path, trace: int):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.setup_s = None
        self.tracer = None
        if trace:
            from tracing import Tracer

            self.tracer = Tracer().install()

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def build(self):
        from gpgnn.training import build_model

        with self.span("training.build_model"):
            return build_model(self.config, self.vocab, self.relations)

    def setup(self) -> None:
        from gpgnn.corpus import RelationVocab, Vocabulary, normalize_dataset, parse_corpus_file

        with self.span("synth.generate"):
            corpus = self.wl.corpus(self.seed)
        self.files = corpus.write_files(self.work / "data")
        with self.span("corpus.load"):
            self.relations = RelationVocab.from_files(self.files["relations"], self.files["inverse_map"])
            self.train = normalize_dataset(parse_corpus_file(self.files["train"]), self.relations)[0]
            self.valid = normalize_dataset(parse_corpus_file(self.files["valid"]), self.relations)[0]
        self.vocab = Vocabulary.build(self.train)
        self.config = self.wl.config(self.seed)
        self.steps_per_round = self.config.epochs * -(-len(self.train) // self.config.batch_size)
        self.test_sentences = sum(1 for _ in open(self.files["test"], encoding="utf-8"))

    def evaluate(self, run_dir: Path, eval_dir: Path) -> tuple[int, float]:
        """``gpgnn eval`` on the test file, in process; its exit code and wall time."""
        from gpgnn import cli

        # gold-size ranks every (bag, relation) candidate: the default ranks
        # those that outscore NA, a count that follows the trained weights
        # and so the seed (README.md, "Noise and bounds")
        argv = ["eval", "--model-dir", str(run_dir), "--data", self.files["test"], "--out", str(eval_dir),
                "--population", "gold-size"]
        gc.collect()  # the last round's garbage is not this call's cost
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            with self.span("eval"):
                code = cli.main(argv)
            return code, time.perf_counter() - t0

    def round(self, k: int) -> dict:
        """Train a fresh model and time each epoch; evaluate it with
        ``gpgnn eval`` EVALS_PER_ROUND times; check every output."""
        import checks
        from gpgnn import cli
        from gpgnn.training import TrainingError, run_training

        gc.collect()
        self.model = self.build()
        run_dir = self.work / f"run{k}"
        events = TimedEvents()
        if self.setup_s is None:
            self.setup_s = process_age()
        try:
            with self.span("train"):
                result = run_training(self.config, self.train, self.valid, self.model,
                                      out_dir=run_dir, log_events=events)
        except TrainingError as exc:
            self.model = None
            return {"train_failed": self.steps_per_round, "eval_failed": EVALS_PER_ROUND * self.test_sentences,
                    "problems": [f"training: {exc}"]}
        cli._write_model_json(run_dir / "model.json", self.config, self.vocab, self.relations)

        problems = checks.check_run_log(run_dir, self.config.epochs)
        if result.epochs_run != self.config.epochs:
            problems.append(f"run_training returned epochs_run={result.epochs_run}")
        out = {"epoch_s": events.epoch_seconds(), "train_failed": self.steps_per_round if problems else 0,
               "eval_failed": 0, "pairs": [], "eval_s": [], "max_prob_diff": 0.0}
        reference_cache = {}  # one set of weights per round, so one reference pass
        for e in range(EVALS_PER_ROUND):
            eval_dir = self.work / f"eval{k}-{e}"
            code, eval_s = self.evaluate(run_dir, eval_dir)
            if code != 0:
                problems.append(f"gpgnn eval exited with {code}")
                out["eval_failed"] += self.test_sentences
                continue
            try:
                ev = checks.check_eval(run_dir, self.files["test"], eval_dir,
                                       reference_cache=reference_cache)
            except (OSError, ValueError, KeyError) as exc:  # unreadable output
                problems.append(f"eval output unreadable: {exc!r}")
                out["eval_failed"] += self.test_sentences
                continue
            problems += ev.problems
            out["eval_failed"] += len(ev.failed)
            out["pairs"].append(ev.records)
            out["eval_s"].append(eval_s)
            out["max_prob_diff"] = max(out["max_prob_diff"], ev.max_prob_diff)
            shutil.rmtree(eval_dir, ignore_errors=True)
        shutil.rmtree(run_dir, ignore_errors=True)
        out["problems"] = problems
        return out

    def run(self, seconds: float) -> dict:
        with self.span("setup"):
            self.setup()
        rounds, took = [], 0.0
        start = time.perf_counter()
        # start another round only if one more should end within the budget
        while not rounds or time.perf_counter() - start + took <= seconds:
            t0 = time.perf_counter()
            rounds.append(self.round(len(rounds)))
            took = time.perf_counter() - t0
        last = rounds[-1]
        grad_error = math.nan
        if self.model is not None:
            import checks

            # the first training batch, at the final weights, in evaluation mode
            batch = self.train[: self.config.batch_size]
            grad = checks.directional_check(
                *checks.batch_gradient(self.model, batch, self.config.na_weight), seed=GRAD_SEED)
            grad_error = grad.rel_error
            if not grad.passed:
                last["problems"].append(f"directional derivative {grad.finite_difference!r} "
                                        f"!= g.v {grad.analytic!r}")
                last["train_failed"] = self.steps_per_round

        attempted = len(rounds) * (self.steps_per_round + EVALS_PER_ROUND * self.test_sentences)
        failed = sum(r["train_failed"] + r["eval_failed"] for r in rounds)
        for k, r in enumerate(rounds):
            for problem in r["problems"][:5]:
                print(f"round {k}: {problem}", file=sys.stderr)
        epochs = [t for r in rounds for t in r.get("epoch_s", [])]
        pairs = [n for r in rounds for n in r.get("pairs", [])]
        eval_s = [t for r in rounds for t in r.get("eval_s", [])]
        if not epochs or not eval_s:
            return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
        # a shared host's slow spells only add time to identical work: take
        # the fastest round at each epoch position, and the fastest eval call
        per_position = zip(*(r["epoch_s"] for r in rounds if "epoch_s" in r))
        epoch_s = statistics.fmean(min(column) for column in per_position)
        pairs_per_s = max(n / t for n, t in zip(pairs, eval_s))
        print(json.dumps({
            "workload": self.wl.name, "seed": self.seed, "rounds": len(rounds), "blas_threads": BLAS_THREADS,
            "epoch_s": [round(t, 3) for t in epochs], "pairs_per_s": [round(n / t) for n, t in zip(pairs, eval_s)],
            "max_prob_diff": max(r.get("max_prob_diff", 0.0) for r in rounds), "grad_rel_error": grad_error,
        }), file=sys.stderr)
        if self.tracer:
            SPANS.mkdir(exist_ok=True)
            self.tracer.write(SPANS / f"{self.wl.name}-{self.seed}.jsonl")
            per_layer = dict(self.tracer.metrics())
            per_layer["trace.epoch_s"] = (epoch_s, "s")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        else:
            metrics = {
                "setup_s": {"value": self.setup_s, "unit": "s"},
                "epoch_s": {"value": epoch_s, "unit": "s"},
                "predict_pairs_per_s": {
                    "value": pairs_per_s, "unit": "pairs/s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
