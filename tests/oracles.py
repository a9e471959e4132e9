"""Scalar and array-level oracles that the library itself never calls.

Each restates a formula directly, for one sentence, pair or target at a
time, so tests can check the batched code in `topicarg` against it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from topicarg.corpus import Vocabulary
from topicarg.nn import EPS, mlp_forward
from topicarg.ntm import NtmParams, normalize_bow
from topicarg.topics import (
    EmbeddingTable,
    ExtractedTopics,
    KeyTermLists,
    best_topic,
    rank_terms,
    top_terms,
)


# nn: losses and activations on plain arrays


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
    x = normalize_bow(v)
    if x.shape[1] != ntm.cfg.vocab_size:
        raise ValueError(f"BoW width {x.shape[1]} != vocabulary size {ntm.cfg.vocab_size}")
    mu = mlp_forward(ntm.cfg.mu_spec(), ntm.params, x, prefix="enc_mu.").data
    logvar = mlp_forward(ntm.cfg.logvar_spec(), ntm.params, x, prefix="enc_logvar.").data
    if squeeze:
        return mu[0], logvar[0]
    return mu, logvar


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


# topics: extraction through an explicit target mask


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


def filter_topics(topic_word: np.ndarray, mask: TargetMask, n: int) -> KeyTermLists:
    """Top-n key terms per topic among unmasked words.

    Ranked by weight descending, ties by smaller word id. Masked
    (target-word) columns are excluded outright so they can never be chosen,
    even when other weights are negative.
    """
    topic_word = np.asarray(topic_word, dtype=np.float64)
    k, v = topic_word.shape
    if mask.mask.shape != (k, v):
        raise ValueError(f"mask shape {mask.mask.shape} != topic_word shape {(k, v)}")
    excluded = np.flatnonzero(mask.mask[0] != 1)
    return top_terms(topic_word, rank_terms(topic_word), excluded, n)


def extract_topics(
    lists: KeyTermLists,
    embeddings: EmbeddingTable,
    target_tokens,
    p: float = 0.5,
) -> ExtractedTopics:
    """Score all K key-term lists against the target; return the argmax list."""
    return best_topic(lists, embeddings.normalized(), embeddings.vocab, target_tokens, p)


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
        if state.algorithm == "adamw" and state.weight_decay != 0.0:
            update = update + state.weight_decay * p
        p -= state.learning_rate * update
        directions[name] = direction
    return directions
