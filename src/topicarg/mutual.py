"""Topic-argument mutual learning and the alternating training loop.

The classifier's semantic vector h is projected to a topic-space distribution
u; agreement with the topic model's z for the same sentence is measured by a
harmonic-KL similarity O in (0, 1] and penalized as sum(1 - O). Each training
iteration first updates the topic model against frozen u targets, then
refreshes z and the extracted topics, then updates the classifier against
frozen z targets.
"""
from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .corpus import LABELS, ArgumentExample, DatasetSplit, Vocabulary, tokenize
from .encoder import (  # perfbench/tracing.py patches some of these names here
    EncoderInputs,
    EncoderParams,
    build_inputs,
    classify_graph,
    encode_all as _encode_all,
    encode_batch,
    encode_batch_graph,
    predict,
    vocabulary_rows,
)
from .evaluate import confusion, metric_report
from .nn import EPS, MlpSpec, SeededRng, init_mlp, mlp_forward, mutual_sum_graph, similarity_graph
from .ntm import NtmParams, infer_topic_distributions, train_ntm_epoch
from .optim import adam, adamw, OptimizerState, optimizer_step
from .topics import ExtractedTopics, extract_topics

logger = logging.getLogger(__name__)


@dataclass
class TrainSchedule:
    max_iterations: int = 20
    ntm_epochs: int = 1
    classifier_epochs: int = 1
    batch_size: int = 16
    seed: int = 13
    patience: int = 5  # early stop on validation macro F1; 0 disables
    kl_warmup_epochs: int = 10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.ntm_epochs < 1 or self.classifier_epochs < 1:
            raise ValueError("per-phase epoch counts must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 0 or self.kl_warmup_epochs < 0:
            raise ValueError("patience and kl_warmup_epochs must be >= 0")


def init_projection(d_h: int, num_topics: int, rng: SeededRng) -> dict[str, np.ndarray]:
    """The affine head that maps h into topic space (one linear layer)."""
    return init_mlp(MlpSpec((d_h, num_topics)), rng, prefix="proj.")


def _projection_graph(params: dict, h) -> ad.Tensor:
    """u = softmax(affine(h)) over a batch; `params` may hold ndarrays or leaves."""
    spec = MlpSpec(params["proj.W0"].shape)
    return ad.softmax(mlp_forward(spec, params, h, prefix="proj."))


def project_to_topic(proj_params: dict, h: np.ndarray) -> np.ndarray:
    """u = softmax(affine(h)) for a (B, d_h) batch."""
    return _projection_graph(proj_params, h).data


@dataclass
class ClassifierEpochStats:
    mean_ce: float
    mean_mutual: float


def train_classifier_epoch(
    enc: EncoderParams,
    inputs: EncoderInputs,
    gold_indices,
    optimizer: OptimizerState,
    batch_size: int,
    rng: SeededRng,
    proj_params: dict | None = None,
    z_targets: np.ndarray | None = None,
    gamma: float = 0.0,
) -> ClassifierEpochStats:
    """One shuffled pass minimizing sum CE (+ gamma * sum(1 - O(u, z))).

    With `proj_params` and `z_targets` unset no mutual machinery runs: the loop
    is plain cross-entropy training and consumes the same RNG draws either way.
    One of them without the other is refused.
    """
    n = len(inputs)
    if n == 0:
        raise ValueError("no training inputs")
    if n != len(gold_indices):
        raise ValueError("inputs and gold labels differ in length")
    if (proj_params is None) != (z_targets is None):
        raise ValueError("proj_params and z_targets must be given together or not at all")
    mutual_on = proj_params is not None
    order = rng.permutation(n)
    onehot_all = np.eye(len(LABELS))
    gold = np.asarray(gold_indices)
    sum_ce = sum_mutual = 0.0
    # the merge shares the underlying arrays, so in-place updates land in both
    # enc.params and proj_params
    stepped = {**enc.params, **proj_params} if mutual_on else enc.params
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        leaves = ad.lift(stepped)
        h = encode_batch_graph(leaves, enc.cfg, inputs[idx])
        probs = classify_graph(leaves, enc.cfg, h)
        onehot = onehot_all[gold[idx]]
        ce_sum = -ad.tensor_sum(ad.constant(onehot) * ad.log(probs + EPS))
        loss = ce_sum
        if mutual_on:
            u = _projection_graph(leaves, h)
            mut = mutual_sum_graph(u, ad.constant(z_targets[idx]))
            loss = loss + gamma * mut
            sum_mutual += float(mut.data)
        loss.backward()
        optimizer_step(optimizer, stepped, ad.grads_of(leaves))
        sum_ce += float(ce_sum.data)
    return ClassifierEpochStats(mean_ce=sum_ce / n, mean_mutual=sum_mutual / n)


@dataclass
class HistoryRow:
    iteration: int
    phase: str  # "ntm" | "classifier"
    epoch: int
    elbo: float | None = None
    kl: float | None = None
    mutual: float | None = None
    cross_entropy: float | None = None
    val_macro_f1: float | None = None


@dataclass
class TrainData:
    """Everything the alternating trainer needs for one split."""

    examples: list[ArgumentExample]
    bows: object  # (N, V) CSR counts from corpus.vectorize_all, aligned with examples
    vocab: Vocabulary
    enc_vocab: Vocabulary
    val_examples: list[ArgumentExample] = field(default_factory=list)
    test_targets: list[str] = field(default_factory=list)  # topics only; no test text

    @classmethod
    def from_split(cls, split: DatasetSplit, vocab, enc_vocab, vectorizer):
        return cls(
            examples=list(split.train),
            bows=vectorizer([ex.tokens for ex in split.train], vocab),
            vocab=vocab,
            enc_vocab=enc_vocab,
            val_examples=list(split.val),
            test_targets=sorted({ex.target for ex in split.test}),
        )

    @cached_property
    def enc_rows(self) -> np.ndarray:
        """Encoder-vocabulary row of each NTM word; built on first use, then kept."""
        return vocabulary_rows(self.enc_vocab, self.vocab)


@dataclass
class TrainResult:
    ntm: NtmParams
    enc: EncoderParams
    proj_params: dict | None
    history: list[HistoryRow]
    topics_by_target: dict[str, ExtractedTopics]
    stopped_at_iteration: int
    selected_iteration: int  # the iteration whose parameters and topics these are
    ntm_steps: int = 0
    classifier_steps: int = 0


def run_arrays(ntm: NtmParams, enc: EncoderParams, proj_params: dict | None) -> dict[str, np.ndarray]:
    """Every array of a run by its checkpoint name: `ntm/<param>`, `ntm/log_freq`,
    `enc/<param>` and, with mutual learning on, `proj/<param>`; the models' own arrays."""
    arrays = {f"ntm/{k}": v for k, v in ntm.params.items()}
    arrays["ntm/log_freq"] = ntm.log_freq
    arrays.update({f"enc/{k}": v for k, v in enc.params.items()})
    arrays.update({f"proj/{k}": v for k, v in (proj_params or {}).items()})
    return arrays


def extract_topics_for_targets(
    ntm: NtmParams,
    enc: EncoderParams,
    data: TrainData,
    targets,
    n_top_terms: int,
    ratio_p: float,
) -> dict[str, ExtractedTopics]:
    """Per-target argmax topic from the current topic-word matrix.

    A target none of whose words is both in the vocabulary and embedded gets
    empty topics with a warning; an `n_top_terms` that some target's masked
    rows cannot fill raises. The embedding table is normalized (zero rows stay
    zero) once per call.
    """
    vectors = enc.word_embeddings[data.enc_rows]
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    normalized = np.divide(vectors, np.where(norms > 0, norms, 1.0))
    out: dict[str, ExtractedTopics] = {}
    for target in targets:
        out[target] = extract_topics(
            ntm.topic_word, normalized, data.vocab,
            tokenize(target, mode="encoder"), n_top_terms, ratio_p,
        )
        if not out[target].terms:
            logger.warning("no topics for target %r: none of its words is embedded", target)
    return out


@contextmanager
def _phase(name: str):
    """Prefix a numeric failure inside the block with the training phase."""
    try:
        yield
    except FloatingPointError as err:
        raise FloatingPointError(f"{name} phase: {err}") from err


@dataclass
class IterationRecord:
    """What one alternating iteration did: its rows, topics and step counts."""

    iteration: int
    rows: list[HistoryRow]  # the last one holds the validation macro F1, if scored
    topics: dict[str, ExtractedTopics]
    ntm_steps: int
    classifier_steps: int


def train_alternating(
    ntm: NtmParams,
    enc: EncoderParams,
    data: TrainData,
    schedule: TrainSchedule,
    *,
    gamma: float = 0.1,
    lr_ntm: float = 2e-3,
    lr_classifier: float = 2e-5,
    n_top_terms: int = 10,
    ratio_p: float = 0.5,
    use_topics: bool = True,
    max_len: int = 128,
) -> TrainResult:
    """Alternating optimization of the topic model and the classifier.

    Per iteration: (a) NTM epochs against frozen u targets, (b) refresh the
    per-sentence z, (c) re-extract explainable topics, (d) classifier epochs
    against the frozen z, (e) score validation. Iterates until
    `max_iterations`, or until `patience` validation rounds in a row bring no
    strict rise in macro F1. With `patience` > 0 the models, topics and step
    counts returned are those of the iteration with the highest validation
    macro F1, the earliest on ties; with `patience` 0, or no validation
    examples, those of the last iteration. With gamma=0 the mutual terms and
    the projection head are structurally absent and no extra randomness is
    consumed, so the two models train exactly as they would independently.
    """
    if not 0.0 <= gamma < np.inf:  # a NaN gamma would silently switch mutual learning off
        raise ValueError(f"gamma must be >= 0 and finite, got {gamma}")
    root = SeededRng(schedule.seed)
    mutual_on = gamma > 0.0
    proj_params = (
        init_projection(enc.cfg.output_dim, ntm.cfg.num_topics, root.child(3)) if mutual_on else None
    )
    rng_ntm, rng_cls = root.child(1), root.child(2)
    opt_ntm, opt_cls = adam(lr_ntm), adamw(lr_classifier)
    # topics for every target the run classifies, the held-out test target too
    targets = sorted({ex.target for ex in data.examples + data.val_examples} | {*data.test_targets})
    gold = [ex.label_index() for ex in data.examples]

    def topics():
        if not use_topics:
            return {}
        return extract_topics_for_targets(ntm, enc, data, targets, n_top_terms, ratio_p)

    def inputs(examples, topics_now):
        return build_inputs(examples, topics_now, data.enc_vocab, max_len, use_topics)

    history: list[HistoryRow] = []
    best_f1: float | None = None
    bad_rounds = 0
    # with patience, the best record so far and a copy of the parameters it left,
    # unless it is the last iteration, whose parameters are the ones returned
    selected = held = None
    arrays = list(run_arrays(ntm, enc, proj_params).values())
    for iteration in range(1, schedule.max_iterations + 1):
        rows: list[HistoryRow] = []
        u_targets = None
        if mutual_on:
            h_all = _encode_all(enc, inputs(data.examples, topics()))
            u_targets = project_to_topic(proj_params, h_all)
        for epoch in range(1, schedule.ntm_epochs + 1):
            global_ntm_epoch = (iteration - 1) * schedule.ntm_epochs + epoch
            kl_w = (
                min(1.0, global_ntm_epoch / schedule.kl_warmup_epochs)
                if schedule.kl_warmup_epochs > 0
                else 1.0
            )
            with _phase("ntm"):
                stats = train_ntm_epoch(
                    ntm, data.bows, opt_ntm, schedule.batch_size, rng_ntm,
                    kl_weight=kl_w, u_targets=u_targets, gamma=gamma,
                )
            rows.append(HistoryRow(
                iteration, "ntm", epoch, elbo=stats.mean_total, kl=stats.mean_kl,
                mutual=stats.mean_mutual if mutual_on else None,
            ))

        z_targets = infer_topic_distributions(ntm, data.bows) if mutual_on else None
        topics_now = topics()
        train_inputs = inputs(data.examples, topics_now)
        for epoch in range(1, schedule.classifier_epochs + 1):
            with _phase("classifier"):
                stats = train_classifier_epoch(
                    enc, train_inputs, gold, opt_cls, schedule.batch_size, rng_cls,
                    proj_params=proj_params, z_targets=z_targets, gamma=gamma,
                )
            rows.append(HistoryRow(
                iteration, "classifier", epoch, cross_entropy=stats.mean_ce,
                mutual=stats.mean_mutual if mutual_on else None,
            ))
        history += rows
        record = IterationRecord(iteration, rows, topics_now, opt_ntm.step_count, opt_cls.step_count)
        if not data.val_examples:
            continue

        preds = predict(enc, inputs(data.val_examples, topics_now))
        golds = [ex.label for ex in data.val_examples]
        val_f1 = rows[-1].val_macro_f1 = metric_report(confusion(golds, preds)).macro_f1
        if best_f1 is None or val_f1 > best_f1:
            best_f1, bad_rounds = val_f1, 0
            if schedule.patience:
                selected = record
                if iteration < schedule.max_iterations:
                    held = held or [np.empty_like(a) for a in arrays]
                    for kept, a in zip(held, arrays):
                        np.copyto(kept, a)
        else:
            bad_rounds += 1
            if schedule.patience and bad_rounds >= schedule.patience:
                break
    if selected is None:
        selected = record
    elif selected is not record:
        for a, kept in zip(arrays, held):
            np.copyto(a, kept)
    return TrainResult(
        ntm, enc, proj_params, history, selected.topics, record.iteration,
        selected.iteration, ntm_steps=selected.ntm_steps,
        classifier_steps=selected.classifier_steps,
    )


def history_to_csv(history: list[HistoryRow], path) -> None:
    """Training history CSV, one row per phase epoch."""

    def fmt(x):
        return "" if x is None else repr(float(x)) if isinstance(x, float) else str(x)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f.name for f in fields(HistoryRow)) + "\n")
        for row in history:
            fh.write(",".join(map(fmt, astuple(row))) + "\n")
