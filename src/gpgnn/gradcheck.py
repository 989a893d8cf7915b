"""Full-model gradient oracle: check every trainable parameter of a small
model against central finite differences on a toy chain sentence.

The loss is the one training minimizes, built by ``batch_losses``, so the
oracle checks the code that training runs.  Dropout is forced off so
repeated forward passes probe one deterministic function, which is what the
central-difference estimate requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .autodiff import GradCheckReport, Tensor, add, grad_check_params
from .corpus import RelationVocab, Sentence, Vocabulary, normalize_dataset
from .model import GpGnn, ModelDims, batch_losses
from .synth import SynthSpec, synthesize_multihop_corpus
from .training import named_rngs


@dataclass
class FullModelCheck:
    reports: dict[str, GradCheckReport]
    max_rel_error: float
    worst_parameter: str
    n_parameters: int
    n_coordinates: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports.values())


def toy_setup(seed: int = 7, layers: int = 2) -> tuple[GpGnn, list[Sentence], RelationVocab]:
    """A deliberately tiny untied relu model plus one normalized chain
    sentence (3 entities), small enough that per-coordinate finite
    differences finish in seconds."""
    spec = SynthSpec(
        n_entities=6,
        n_relations=2,
        n_sentences=1,
        seed=seed,
        chains_per_sentence=1,
        splits=(1.0, 0.0, 0.0),
    )
    corpus = synthesize_multihop_corpus(spec)
    sentences, skips = normalize_dataset(corpus.train, corpus.relations)
    assert not skips, f"toy corpus should normalize cleanly, got {skips}"
    vocab = Vocabulary.build(sentences)
    dims = ModelDims(
        d_n=4,
        layers=layers,
        hidden_size=6,
        activation="relu",
        dropout=0.0,
        tied=False,
        word_dim=5,
        position_dim=2,
    )
    model = GpGnn(dims, vocab, corpus.relations, named_rngs(seed)["init"])
    return model, sentences, corpus.relations


def full_model_gradcheck(
    seed: int = 7,
    layers: int = 2,
    step: float = 1e-5,
    tol: float = 1e-4,
) -> FullModelCheck:
    """Every parameter gradient of the toy model, against the oracle."""
    model, sentences, _relations = toy_setup(seed=seed, layers=layers)

    def loss_fn() -> Tensor:
        return reduce(add, batch_losses(model, sentences, training=False))

    params = dict(model.store.named())
    reports = grad_check_params(loss_fn, params, step=step, tol=tol)
    worst = max(reports, key=lambda name: reports[name].max_rel_error)
    return FullModelCheck(
        reports=reports,
        max_rel_error=reports[worst].max_rel_error,
        worst_parameter=worst,
        n_parameters=len(params),
        n_coordinates=sum(r.n_checked for r in reports.values()),
    )
