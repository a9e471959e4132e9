"""Scalar and array-level oracles that the library itself never calls.

Each restates a formula directly, for one sentence, pair or target at a
time, so tests can check the batched code in `topicarg` against it.
`grad_check` compares autodiff gradients with central finite differences.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from topicarg import autodiff as ad
from topicarg.corpus import (
    SPLIT_TAGS,
    ArgumentExample,
    CorpusFormatError,
    DatasetSplit,
    RawRecord,
    Vocabulary,
    label_of,
    tokenize,
)
from topicarg.encoder import CLS, MARKERS, SEP, UNK
from topicarg.nn import EPS, SeededRng, mlp_forward
from topicarg.ntm import NtmParams, normalize_bow
from topicarg.topics import ExtractedTopics, empty_topics


# nn: finite-difference gradient check, losses and activations on plain arrays


@dataclass
class GradCheckEntry:
    param: str
    index: tuple
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    entries: list[GradCheckEntry] = field(default_factory=list)

    def worst(self) -> GradCheckEntry:
        return max(self.entries, key=lambda e: e.rel_error)


def grad_check(
    loss_fn,
    params: dict[str, np.ndarray],
    *,
    samples: int = 200,
    tolerance: float = 1e-4,
    rng: SeededRng,
    step: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    `loss_fn` maps a dict of leaf Tensors to a scalar Tensor. `samples`
    coordinates are probed, drawn uniformly over all parameter entries.
    """
    leaves = ad.lift(params)
    out = loss_fn(leaves)
    out.backward()
    analytic = {k: np.asarray(g) for k, g in ad.grads_of(leaves).items()}

    coords = []
    names = sorted(params)
    sizes = np.array([params[n].size for n in names])
    total = int(sizes.sum())
    for flat in rng.integers(0, total, samples):
        k = int(np.searchsorted(np.cumsum(sizes), flat, side="right"))
        offset = int(flat - np.concatenate(([0], np.cumsum(sizes)))[k])
        coords.append((names[k], np.unravel_index(offset, params[names[k]].shape)))

    def eval_loss() -> float:
        return float(loss_fn({k: ad.constant(v) for k, v in params.items()}).data)

    entries = []
    for name, index in coords:
        arr = params[name]
        x0 = arr[index]
        h = step * max(1.0, abs(x0))
        arr[index] = x0 + h
        f_plus = eval_loss()
        arr[index] = x0 - h
        f_minus = eval_loss()
        arr[index] = x0
        numeric = (f_plus - f_minus) / (2.0 * h)
        ana = float(analytic[name][index])
        rel = abs(ana - numeric) / max(abs(ana) + abs(numeric), 1e-6)
        entries.append(GradCheckEntry(name, index, ana, numeric, rel))

    max_rel = max((e.rel_error for e in entries), default=0.0)
    return GradCheckReport(max_rel, tolerance, max_rel <= tolerance, entries)


def cross_entropy(predicted: np.ndarray, gold: int) -> float:
    """-log predicted[gold] with the probability floor."""
    p = np.asarray(predicted, dtype=np.float64)
    if abs(p.sum() - 1.0) > 1e-6:
        raise ValueError(f"predicted distribution sums to {p.sum()}, not 1")
    if not 0 <= gold < p.shape[-1]:
        raise IndexError(f"gold index {gold} out of range for {p.shape[-1]} classes")
    return float(-np.log(p[gold] + EPS))


def kl_categorical(p: np.ndarray, q: np.ndarray) -> float:
    """Floored discrete KL: sum p_i * ln((p_i+eps)/(q_i+eps))."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    for name, dist in (("p", p), ("q", q)):
        if abs(dist.sum() - 1.0) > 1e-6:
            raise ValueError(f"{name} sums to {dist.sum()}, not 1")
    return float(np.sum(p * (np.log(p + EPS) - np.log(q + EPS))))


def gaussian_kl(mu: np.ndarray, logvar: np.ndarray) -> float:
    """Closed-form KL(N(mu, diag(exp(logvar))) || N(0, I))."""
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    if mu.shape != logvar.shape:
        raise ValueError(f"shape mismatch: {mu.shape} vs {logvar.shape}")
    return float(0.5 * np.sum(np.exp(logvar) + mu * mu - 1.0 - logvar))


def softplus_np(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def sigmoid_masked(x: np.ndarray) -> np.ndarray:
    """The logistic in two masked branches, each taking exp of a value <= 0:
    1/(1 + exp(-x)) where x >= 0 and exp(x)/(1 + exp(x)) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax; positive outputs summing to 1 along `axis`."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


# ntm: the posterior of the VAE encoder


def infer(ntm: NtmParams, v) -> tuple[np.ndarray, np.ndarray]:
    """Posterior (mu, logvar) for one BoW vector or a batch (dense or sparse)."""
    squeeze = not sparse.issparse(v) and np.ndim(v) == 1
    x = normalize_bow(v if sparse.issparse(v) else sparse.csr_matrix(np.atleast_2d(v)))
    if x.shape[1] != ntm.cfg.vocab_size:
        raise ValueError(f"BoW width {x.shape[1]} != vocabulary size {ntm.cfg.vocab_size}")
    mu = mlp_forward(ntm.cfg.encoder_spec(), ntm.params, x, prefix="enc_mu.").data
    logvar = mlp_forward(ntm.cfg.encoder_spec(), ntm.params, x, prefix="enc_logvar.").data
    if squeeze:
        return mu[0], logvar[0]
    return mu, logvar


# encoder: one input at a time, and one segment tag per input token


def build_input(sentence_tokens, target_tokens, topic_terms, vocab: Vocabulary, max_len: int):
    """One input as (token ids, (sentence, target, topics) lengths).

    [cls] sentence [sep] target [sep] topics, truncating the sentence only; with
    no topic terms their [sep] is dropped. OOV tokens map to the unknown marker.
    """
    topic_terms = list(topic_terms)
    target_tokens = list(target_tokens)
    fixed = 2 + len(target_tokens) + (1 + len(topic_terms) if topic_terms else 0)
    if max_len < fixed:
        raise ValueError(
            f"max_len={max_len} cannot fit the non-sentence segments ({fixed} tokens)"
        )
    sentence_tokens = list(sentence_tokens)[: max_len - fixed]

    def wid(token: str) -> int:
        return vocab.index_of.get(token, vocab.index_of[UNK])

    tokens = [CLS] + sentence_tokens + [SEP] + target_tokens
    if topic_terms:
        tokens += [SEP] + topic_terms
    n_sentence, n_topics = len(sentence_tokens) + 2, len(topic_terms)
    lengths = (n_sentence, len(tokens) - n_sentence - n_topics, n_topics)
    return tuple(wid(t) for t in tokens), lengths


def segment_tags(sentence_tokens, target_tokens, topic_terms, max_len: int) -> tuple[int, ...]:
    """The tag (0 sentence, 1 target, 2 topics) of each token of an encoder input.

    Markers carry the tag of the segment they open or close: [cls] and the
    first [sep] are sentence, the [sep] before the topic terms is target. The
    sentence is cut to fit `max_len`; with no topic terms that [sep] is dropped.
    """
    fixed = 2 + len(target_tokens) + (1 + len(topic_terms) if topic_terms else 0)
    kept = len(list(sentence_tokens)[: max_len - fixed])
    tags = [0] * (kept + 2) + [1] * len(target_tokens)
    if topic_terms:
        tags += [1] + [2] * len(topic_terms)
    return tuple(tags)


# mutual: the harmonic-KL similarity O and the losses built on it


@dataclass
class MutualLossConfig:
    gamma: float = 0.1
    direction_epsilon: float = EPS
    loss_form: str = "one_minus_O"

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.loss_form != "one_minus_O":
            raise ValueError(f"unsupported loss form {self.loss_form!r}")


def similarity_O(u: np.ndarray, z: np.ndarray) -> float:
    """Harmonic-KL similarity: 1 / (1 + A*B/(A+B)); 1 exactly when A=B=0."""
    # floored KLs can dip a hair below zero; treat them as zero
    a = max(kl_categorical(u, z), 0.0)
    b = max(kl_categorical(z, u), 0.0)
    if a + b == 0.0:
        return 1.0
    return 1.0 / (1.0 + a * b / (a + b))


def mutual_loss(pairs, config: MutualLossConfig | None = None) -> float:
    """Sum of (1 - O(u, z)) over the pairs; zero iff every pair matches."""
    if not pairs:
        raise ValueError("mutual_loss needs at least one (u, z) pair")
    return float(sum(1.0 - similarity_O(u, z) for u, z in pairs))


def loss_topic_side(elbo_total: float, l_m: float, gamma: float) -> float:
    return gamma * l_m + elbo_total


def loss_classifier_side(ce_sum: float, l_m: float, gamma: float) -> float:
    return gamma * l_m + ce_sum


# corpus: examples and vocabularies one record at a time, and one
# leave-one-target-out split, tokenized afresh from the records


def example_from_record(record: RawRecord) -> ArgumentExample:
    return ArgumentExample(
        target=record.target,
        tokens=tuple(tokenize(record.sentence, mode="encoder")),
        label=label_of(record),
        text=record.sentence,
    )


def build_vocabulary(records, max_size: int) -> Vocabulary:
    """NTM vocabulary from one ntm-mode `tokenize` call per record."""
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    if not records:
        raise ValueError("cannot build a vocabulary from zero records")
    freq: Counter[str] = Counter()
    for record in records:
        freq.update(tokenize(record.sentence, mode="ntm"))
    ranked = sorted(freq, key=lambda w: (-freq[w], w))[:max_size]
    return Vocabulary({w: i for i, w in enumerate(ranked)}, ranked)


def build_encoder_vocab(records, max_size: int, ntm_vocab: Vocabulary) -> Vocabulary:
    """Encoder vocabulary from one encoder-mode `tokenize` call per record and target."""
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    freq: Counter[str] = Counter()
    for record in records:
        freq.update(tokenize(record.sentence, mode="encoder"))
        freq.update(tokenize(record.target, mode="encoder"))
    ranked = sorted(freq, key=lambda w: (-freq[w], w))[:max_size]
    words = list(MARKERS) + ranked
    words += [w for w in ntm_vocab.id_to_word if w not in words]
    return Vocabulary({w: i for i, w in enumerate(words)}, words)


def make_cross_target_split(records, held_out: str) -> DatasetSplit:
    """Leave-one-target-out split driven by the corpus's own split tags."""
    targets = {r.target for r in records}
    if held_out not in targets:
        raise ValueError(f"unknown target {held_out!r}; corpus has {sorted(targets)}")
    bad = [r for r in records if r.split_tag not in SPLIT_TAGS]
    if bad:
        raise CorpusFormatError(
            f"records carry unknown split tag(s): {sorted({r.split_tag for r in bad})}"
        )
    train = [example_from_record(r) for r in records
             if r.target != held_out and r.split_tag == "train"]
    val = [example_from_record(r) for r in records
           if r.target != held_out and r.split_tag == "val"]
    test = [example_from_record(r) for r in records
            if r.target == held_out and r.split_tag == "test"]
    return DatasetSplit(train=train, val=val, test=test, held_out_target=held_out)


# topics: extraction for one target at a time, through an explicit target
# mask, a fresh sort per topic row and a table normalized for that target


@dataclass
class TargetMask:
    """K x V {0,1} matrix; a column is all-zero iff the word is a target word."""

    mask: np.ndarray

    def masked_ids(self) -> np.ndarray:
        return np.flatnonzero(self.mask[0] == 0)


def build_target_mask(target_tokens, vocab: Vocabulary, num_topics: int) -> TargetMask:
    """All-ones mask with the target's in-vocabulary columns zeroed."""
    row = np.ones(vocab.size)
    for idx in vocab.ids(target_tokens):
        row[idx] = 0.0
    return TargetMask(np.tile(row, (num_topics, 1)))


def filter_topics(topic_word: np.ndarray, mask: TargetMask, n: int) -> np.ndarray:
    """(K, n) top-n key terms per topic among unmasked words.

    Each row sorts its kept columns afresh by weight descending, ties by
    smaller word id. Masked (target-word) columns are excluded outright so
    they can never be chosen, even when other weights are negative.
    """
    topic_word = np.asarray(topic_word, dtype=np.float64)
    k, v = topic_word.shape
    if mask.mask.shape != (k, v):
        raise ValueError(f"mask shape {mask.mask.shape} != topic_word shape {(k, v)}")
    keep = np.flatnonzero(mask.mask[0] == 1)
    if not 1 <= n <= keep.size:
        raise ValueError(f"n={n} out of range [1, {keep.size}] after masking")
    ids = np.empty((k, n), dtype=np.int64)
    for row in range(k):
        ids[row] = keep[np.argsort(-topic_word[row, keep], kind="stable")][:n]
    return ids


def normalize_rows(vectors: np.ndarray) -> np.ndarray:
    """Length-normalized rows for cosine scoring; zero rows stay zero."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return np.divide(vectors, np.where(norms > 0, norms, 1.0))


def score_topic(target_vecs: np.ndarray, topic_vecs: np.ndarray, p: float) -> float:
    """Sum of the top ceil(p * N_t) per-term cosine maxima, divided by N_tau.

    Each topic word contributes its best cosine against any target word; the
    strongest p-fraction of those contributions is kept.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    target_vecs = np.atleast_2d(np.asarray(target_vecs, dtype=np.float64))
    topic_vecs = np.atleast_2d(np.asarray(topic_vecs, dtype=np.float64))
    if target_vecs.shape[0] == 0 or topic_vecs.shape[0] == 0:
        raise ValueError("score_topic needs at least one target and one topic vector")
    cosines = topic_vecs @ target_vecs.T  # (N_t, N_tau), rows pre-normalized
    best_per_term = cosines.max(axis=1)
    keep = math.ceil(p * topic_vecs.shape[0])
    top = np.sort(best_per_term)[::-1][:keep]
    return float(top.sum() / target_vecs.shape[0])


def extract_topics(topic_word, embeddings, vocab: Vocabulary, target_tokens, n, p) -> ExtractedTopics:
    """One target's argmax topic: mask its words, take each topic's top n,
    and score every topic with `score_topic`; ties go to the smaller index.

    `embeddings` holds one raw row per vocabulary word. A target with no
    embedded in-vocabulary word gets empty topics; an n that the masked rows
    cannot fill raises.
    """
    topic_word = np.asarray(topic_word, dtype=np.float64)
    ids = filter_topics(topic_word, build_target_mask(target_tokens, vocab, topic_word.shape[0]), n)
    normalized = normalize_rows(np.asarray(embeddings, dtype=np.float64))
    target_ids = [i for i in vocab.ids(target_tokens) if np.any(normalized[i])]
    if not target_ids:
        return empty_topics()
    scores = [score_topic(normalized[target_ids], normalized[row], p) for row in ids]
    best = int(np.argmax(scores))
    return ExtractedTopics(
        topic_index=best,
        terms=tuple(vocab.id_to_word[i] for i in ids[best]),
        weights=tuple(float(topic_word[best, i]) for i in ids[best]),
        score=scores[best],
    )


# optim: Adam/AdamW in the textbook operation order


def textbook_step(state, params, grads) -> dict[str, np.ndarray]:
    """Whole-array Adam/AdamW step with both bias corrections divided out:
    u = (m/bc1) / (sqrt(v/bc2) + eps) [+ wd*p for AdamW], p -= lr*u.
    Returns the Adam direction (m/bc1) / (sqrt(v/bc2) + eps) of every
    stepped parameter."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    directions = {}
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        direction = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        update = direction
        if state.weight_decay != 0.0:
            update = update + state.weight_decay * p
        p -= state.learning_rate * update
        directions[name] = direction
    return directions


def row_layout_moments(state, name) -> tuple[np.ndarray, np.ndarray]:
    """m and v of parameter `name` in row layout: row r of each holds row r's
    moments, whether the optimizer keeps them packed or not."""
    m, v = state.m[name], state.v[name]
    packed = state.packed.get(name)
    if packed is None:
        return m, v
    n = packed.rows.size
    shape = (packed.slot.size, m.shape[1])
    unpacked = np.zeros(shape), np.zeros(shape)
    for out, a in zip(unpacked, (m, v)):
        out[packed.rows] = a[:n]
    return unpacked
