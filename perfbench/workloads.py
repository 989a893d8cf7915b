"""The benchmark's workloads: one synthetic corpus shape and one training
configuration each (why each exists: BENCHMARK.json and README.md).  Every
corpus is generated from the workload seed, so the same seed gives the same
files; the program only ever sees those files."""

from __future__ import annotations

from dataclasses import dataclass, replace

from gpgnn.synth import SynthResult, SynthSpec, synthesize_multihop_corpus
from gpgnn.training import TrainConfig

POOL = 16  # sentences drawn per sentence kept (see Workload.corpus)


@dataclass(frozen=True)
class Workload:
    name: str
    n_entities: int
    n_relations: int
    chains: int
    mid_tokens: tuple[int, int]
    train: int
    valid: int
    test: int
    epochs: int  # epochs per round; patience is set to the same value

    def spec(self, seed: int) -> SynthSpec:
        """The generator's spec: a pool POOL times the size of each split."""
        n = self.train + self.valid + self.test
        return SynthSpec(
            n_entities=self.n_entities,
            n_relations=self.n_relations,
            n_sentences=POOL * n,
            seed=seed,
            chains_per_sentence=self.chains,
            mid_tokens=self.mid_tokens,
            splits=(self.train / n, self.valid / n, self.test / n),
        )

    def corpus(self, seed: int) -> SynthResult:
        """The workload's corpus for ``seed``.  A sentence's cost grows with
        its token count, so every split keeps, in pool order, the same number
        of sentences of each length its chains allow (the shortest lengths
        take any remainder).  Seeds then change what the sentences say, not
        how much work they make."""
        pool = synthesize_multihop_corpus(self.spec(seed))
        shortest = 6 * self.chains - 1 + self.chains * (self.mid_tokens[0] - 1)
        lengths = range(shortest, shortest + self.chains * (self.mid_tokens[1] - self.mid_tokens[0]) + 1)

        def pick(sentences, count):
            quota = {n: count // len(lengths) + (k < count % len(lengths)) for k, n in enumerate(lengths)}
            chosen = []
            for s in sentences:
                if quota.get(len(s.tokens), 0) > 0:
                    quota[len(s.tokens)] -= 1
                    chosen.append(s)
            if len(chosen) != count:
                raise ValueError(f"seed {seed}: the pool lacks sentences of some length; left over {quota}")
            return chosen

        return replace(pool, train=pick(pool.train, self.train), valid=pick(pool.valid, self.valid),
                       test=pick(pool.test, self.test))

    def config(self, seed: int) -> TrainConfig:
        if self.name == "reference":
            return TrainConfig(layers=2, epochs=self.epochs, patience=self.epochs, seed=seed)
        # the depth experiment's model (scripts/depth_experiment.py, criterion
        # 5) at lr 0.002, not 0.005: README.md, "Workloads"
        return TrainConfig(
            layers=2, learning_rate=0.002, batch_size=12, dropout=0.1, hidden_size=32,
            activation="relu", adjacency="untied", epochs=self.epochs, patience=self.epochs,
            seed=seed, word_dim=16, position_dim=4, na_weight=0.25,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="depth",
            n_entities=30, n_relations=5, chains=2, mid_tokens=(1, 2),
            train=12, valid=8, test=24, epochs=6,
        ),
        Workload(
            name="reference",
            n_entities=20, n_relations=3, chains=1, mid_tokens=(1, 1),
            train=50, valid=10, test=50, epochs=5,
        ),
    )
}
