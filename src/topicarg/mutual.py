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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .corpus import ArgumentExample, DatasetSplit, Vocabulary, tokenize
from .encoder import (  # perfbench/tracing.py patches _encode_all and encode_batch by name here
    EncoderParams,
    build_input,
    classify_graph,
    encode_all as _encode_all,
    encode_batch,
    encode_batch_graph,
    predict,
    vocabulary_rows,
)
from .evaluate import confusion, metric_report
from .nn import EPS, MlpSpec, SeededRng, init_mlp, mlp_forward
from .ntm import NtmParams, infer_topic_distributions, train_ntm_epoch
from .optim import adam, adamw, OptimizerState, optimizer_step
from .topics import (
    EmbeddingTable,
    ExtractedTopics,
    best_topic,
    empty_topics,
    rank_terms,
    top_terms,
)

logger = logging.getLogger(__name__)

# Guard for the harmonic denominator in the differentiable path; invisible in
# float64 unless both KLs are essentially zero.
_HARMONIC_GUARD = 1e-30


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


def init_projection(d_h: int, num_topics: int, rng: SeededRng) -> dict[str, np.ndarray]:
    """The affine head that maps h into topic space (one linear layer)."""
    return init_mlp(MlpSpec((d_h, num_topics)), rng, prefix="proj.")


def project_to_topic(proj_params: dict, h: np.ndarray) -> np.ndarray:
    """u = softmax(affine(h)); accepts one vector or a batch."""
    h = np.asarray(h, dtype=np.float64)
    d_h = proj_params["proj.W0"].shape[0]
    num_topics = proj_params["proj.W0"].shape[1]
    logits = mlp_forward(
        MlpSpec((d_h, num_topics)), proj_params, np.atleast_2d(h), prefix="proj."
    ).data
    u = ad.softmax(logits, axis=-1).data
    return u[0] if h.ndim == 1 else u


def _kl_rows_graph(p, q) -> ad.Tensor:
    """Row-wise floored KL between (B, K) distributions; returns (B,)."""
    p = ad.as_tensor(p)
    q = ad.as_tensor(q)
    return ad.tensor_sum(p * (ad.log(p + EPS) - ad.log(q + EPS)), axis=1)


def similarity_graph(u, z) -> ad.Tensor:
    """Differentiable row-wise O(u, z); either side may be a constant."""
    # floored KLs can dip a hair below 0; clamping them keeps O in (0, 1]
    a = ad.relu(_kl_rows_graph(u, z))
    b = ad.relu(_kl_rows_graph(z, u))
    harm = a * b / (a + b + _HARMONIC_GUARD)
    return 1.0 / (1.0 + harm)


def mutual_sum_graph(u, z) -> ad.Tensor:
    """Batch mutual loss sum(1 - O) as a scalar Tensor."""
    return ad.tensor_sum(1.0 - similarity_graph(u, z))


@dataclass
class ClassifierEpochStats:
    mean_ce: float
    mean_mutual: float
    count: int


def train_classifier_epoch(
    enc: EncoderParams,
    inputs,
    gold_indices,
    optimizer: OptimizerState,
    batch_size: int,
    rng: SeededRng,
    proj_params: dict | None = None,
    z_targets: np.ndarray | None = None,
    gamma: float = 0.0,
) -> ClassifierEpochStats:
    """One shuffled pass minimizing sum CE (+ gamma * sum(1 - O(u, z))).

    With `proj_params`/`z_targets` unset no mutual machinery runs: the loop is
    plain cross-entropy training and consumes the same RNG draws either way.
    """
    n = len(inputs)
    if n == 0:
        raise ValueError("no training inputs")
    if n != len(gold_indices):
        raise ValueError("inputs and gold labels differ in length")
    mutual_on = proj_params is not None and z_targets is not None
    order = rng.permutation(n)
    onehot_all = np.eye(enc.cfg.num_classes)
    sum_ce = sum_mutual = 0.0
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        batch_inputs = [inputs[i] for i in idx]
        leaves = ad.lift(enc.params)
        if mutual_on:
            leaves.update(ad.lift(proj_params))
        h = encode_batch_graph(leaves, enc.cfg, batch_inputs)
        probs = classify_graph(leaves, enc.cfg, h)
        onehot = onehot_all[[gold_indices[i] for i in idx]]
        ce_sum = -ad.tensor_sum(ad.constant(onehot) * ad.log(probs + EPS))
        loss = ce_sum
        if mutual_on:
            d_h = enc.cfg.output_dim
            k = proj_params["proj.W0"].shape[1]
            u = ad.softmax(
                mlp_forward(MlpSpec((d_h, k)), leaves, h, prefix="proj."), axis=-1
            )
            mut = mutual_sum_graph(u, ad.constant(z_targets[idx]))
            loss = loss + gamma * mut
            sum_mutual += float(mut.data)
        loss.backward()
        # dict merge shares the underlying arrays, so in-place updates land in
        # both enc.params and proj_params
        stepped = {**enc.params, **proj_params} if mutual_on else enc.params
        optimizer_step(optimizer, stepped, ad.grads_of(leaves))
        sum_ce += float(ce_sum.data)
    return ClassifierEpochStats(mean_ce=sum_ce / n, mean_mutual=sum_mutual / n, count=n)


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
    bows: object  # (N, V) ndarray or CSR aligned with examples
    vocab: Vocabulary
    enc_vocab: Vocabulary
    val_examples: list[ArgumentExample] = field(default_factory=list)

    @classmethod
    def from_split(cls, split: DatasetSplit, vocab, enc_vocab, vectorizer):
        return cls(
            examples=list(split.train),
            bows=vectorizer([ex.tokens for ex in split.train], vocab),
            vocab=vocab,
            enc_vocab=enc_vocab,
            val_examples=list(split.val),
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
    best_val_macro_f1: float | None
    stopped_at_iteration: int
    ntm_steps: int = 0
    classifier_steps: int = 0


def extract_topics_for_targets(
    ntm: NtmParams,
    enc: EncoderParams,
    data: TrainData,
    targets,
    n_top_terms: int,
    ratio_p: float,
) -> dict[str, ExtractedTopics]:
    """Per-target argmax topic from the current topic-word matrix.

    Targets whose words are all out of vocabulary (or unembedded) fall back
    to empty topics with a warning instead of aborting the run. The embedding
    table is normalized, and every topic's words ranked, once per call.
    """
    normalized = EmbeddingTable(enc.word_embeddings[data.enc_rows], data.vocab).normalized()
    ranking = rank_terms(ntm.topic_word)
    out: dict[str, ExtractedTopics] = {}
    for target in targets:
        target_tokens = tokenize(target, mode="encoder")
        try:
            target_ids = data.vocab.ids(target_tokens)
            lists = top_terms(ntm.topic_word, ranking, target_ids, n_top_terms)
            out[target] = best_topic(lists, normalized, data.vocab, target_tokens, ratio_p)
        except ValueError as err:
            logger.warning("topic extraction skipped for target %r: %s", target, err)
            out[target] = empty_topics()
    return out


def build_inputs(examples, topics_by_target, enc_vocab, max_len, use_topics):
    target_tokens = {
        target: tokenize(target, mode="encoder")
        for target in dict.fromkeys(ex.target for ex in examples)
    }
    inputs = []
    for ex in examples:
        topics = topics_by_target.get(ex.target) if use_topics else None
        if topics is not None and not topics.terms:
            topics = None
        inputs.append(
            build_input(ex.tokens, target_tokens[ex.target], topics, enc_vocab, max_len)
        )
    return inputs


@contextmanager
def _phase(name: str):
    """Prefix a numeric failure inside the block with the training phase."""
    try:
        yield
    except FloatingPointError as err:
        raise FloatingPointError(f"{name} phase: {err}") from err


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
    against the frozen z. With gamma=0 the mutual terms and the projection
    head are structurally absent and no extra randomness is consumed, so the
    two models train exactly as they would independently.
    """
    root = SeededRng(schedule.seed)
    rng_ntm = root.child(1)
    rng_cls = root.child(2)
    mutual_on = gamma > 0.0
    proj_params = (
        init_projection(enc.cfg.output_dim, ntm.cfg.num_topics, root.child(3))
        if mutual_on
        else None
    )
    opt_ntm = adam(lr_ntm)
    opt_cls = adamw(lr_classifier)

    targets = sorted({ex.target for ex in data.examples})
    gold = [ex.label_index() for ex in data.examples]
    history: list[HistoryRow] = []
    best_f1: float | None = None
    bad_rounds = 0
    stopped_at = schedule.max_iterations
    topics_now: dict[str, ExtractedTopics] = {}
    global_ntm_epoch = 0

    for iteration in range(1, schedule.max_iterations + 1):
        mutual_term = None
        if mutual_on:
            topics_now = (
                extract_topics_for_targets(ntm, enc, data, targets, n_top_terms, ratio_p)
                if use_topics
                else {}
            )
            inputs_now = build_inputs(
                data.examples, topics_now, data.enc_vocab, max_len, use_topics
            )
            h_all = _encode_all(enc, inputs_now)
            u_targets = project_to_topic(proj_params, h_all)

            def mutual_term(z_tensor, idx, _u=u_targets):
                return mutual_sum_graph(z_tensor, ad.constant(_u[idx]))

        for epoch in range(1, schedule.ntm_epochs + 1):
            global_ntm_epoch += 1
            kl_w = (
                min(1.0, global_ntm_epoch / schedule.kl_warmup_epochs)
                if schedule.kl_warmup_epochs > 0
                else 1.0
            )
            with _phase("ntm"):
                stats = train_ntm_epoch(
                    ntm,
                    data.bows,
                    opt_ntm,
                    schedule.batch_size,
                    rng_ntm,
                    kl_weight=kl_w,
                    mutual_term=mutual_term,
                    gamma=gamma,
                )
            history.append(
                HistoryRow(
                    iteration,
                    "ntm",
                    epoch,
                    elbo=stats.mean_total,
                    kl=stats.mean_kl,
                    mutual=stats.mean_mutual if mutual_on else None,
                )
            )

        z_targets = infer_topic_distributions(ntm, data.bows) if mutual_on else None
        topics_now = (
            extract_topics_for_targets(ntm, enc, data, targets, n_top_terms, ratio_p)
            if use_topics
            else {}
        )
        inputs = build_inputs(data.examples, topics_now, data.enc_vocab, max_len, use_topics)

        for epoch in range(1, schedule.classifier_epochs + 1):
            with _phase("classifier"):
                stats = train_classifier_epoch(
                    enc,
                    inputs,
                    gold,
                    opt_cls,
                    schedule.batch_size,
                    rng_cls,
                    proj_params=proj_params,
                    z_targets=z_targets,
                    gamma=gamma,
                )
            history.append(
                HistoryRow(
                    iteration,
                    "classifier",
                    epoch,
                    mutual=stats.mean_mutual if mutual_on else None,
                    cross_entropy=stats.mean_ce,
                )
            )
        if data.val_examples:
            val_inputs = build_inputs(
                data.val_examples, topics_now, data.enc_vocab, max_len, use_topics
            )
            preds = predict(enc, val_inputs)
            golds = [ex.label for ex in data.val_examples]
            val_f1 = metric_report(confusion(golds, preds)).macro_f1
            history[-1].val_macro_f1 = val_f1
            if best_f1 is None or val_f1 > best_f1:
                best_f1 = val_f1
                bad_rounds = 0
            else:
                bad_rounds += 1
                if schedule.patience and bad_rounds >= schedule.patience:
                    stopped_at = iteration
                    break
        stopped_at = iteration

    return TrainResult(
        ntm=ntm,
        enc=enc,
        proj_params=proj_params,
        history=history,
        topics_by_target=topics_now,
        best_val_macro_f1=best_f1,
        stopped_at_iteration=stopped_at,
        ntm_steps=opt_ntm.step_count,
        classifier_steps=opt_cls.step_count,
    )


def history_to_csv(history: list[HistoryRow], path) -> None:
    """Training history CSV, one row per phase epoch."""

    def fmt(x):
        return "" if x is None else repr(float(x))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,phase,epoch,elbo,kl,mutual,cross_entropy,val_macro_f1\n")
        for row in history:
            fh.write(
                f"{row.iteration},{row.phase},{row.epoch},{fmt(row.elbo)},{fmt(row.kl)},"
                f"{fmt(row.mutual)},{fmt(row.cross_entropy)},{fmt(row.val_macro_f1)}\n"
            )
