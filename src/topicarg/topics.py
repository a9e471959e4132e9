"""Explainable target-relevant topic extraction.

`extract_topics` excludes the target's own words, takes each topic's top key
terms, scores every topic against the target via per-term cosine maxima
(keeping the best p-fraction, normalized by target length), and returns the
argmax topic's terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Vocabulary


@dataclass
class ExtractedTopics:
    """The argmax topic's key terms for one target."""

    topic_index: int
    terms: tuple[str, ...]
    weights: tuple[float, ...]
    score: float


def empty_topics() -> ExtractedTopics:
    """Placeholder for a target without topics: disabled, or none of its words embedded."""
    return ExtractedTopics(-1, (), (), 0.0)


def top_terms(topic_word: np.ndarray, excluded_ids, n: int) -> np.ndarray:
    """(K, n): per topic, its first n word ids outside `excluded_ids`, by weight
    descending, ties to the smaller id; the weights must be finite.

    Each row is partitioned at n - 1, and only the words weighing at least its
    n-th largest kept weight, every tie included, are stable-sorted: the order
    a full stable sort gives the kept words.
    """
    neg = -np.asarray(topic_word, dtype=np.float64)
    k, v = neg.shape
    finite = np.isfinite(neg).all(axis=1)
    if not finite.all():
        raise ValueError(f"topic {np.argmin(finite)}'s word weights are not all finite")
    excluded = np.unique(np.asarray(excluded_ids, dtype=np.int64))
    if not 1 <= n <= v - excluded.size:
        raise ValueError(f"n={n} out of range [1, {v - excluded.size}] after masking")
    neg[:, excluded] = np.inf
    ids = np.empty((k, n), dtype=np.int64)
    for row, negated in enumerate(neg):
        candidates = np.flatnonzero(negated <= np.partition(negated, n - 1)[n - 1])
        ids[row] = candidates[np.argsort(negated[candidates], kind="stable")][:n]
    return ids


def extract_topics(
    topic_word: np.ndarray,
    normalized: np.ndarray,
    vocab: Vocabulary,
    target_tokens,
    n: int,
    p: float,
) -> ExtractedTopics:
    """The target's argmax topic among the K top-n key-term lists.

    `normalized` holds one unit (or zero) row per vocabulary word. A topic
    scores the sum of its top ceil(p * n) per-term cosine maxima against the
    target's embedded words, divided by their count; ties go to the smaller
    topic index. A target with no embedded in-vocabulary word gets
    `empty_topics()`.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if normalized.shape[0] != vocab.size:
        raise ValueError(f"embedding rows {normalized.shape[0]} != vocabulary size {vocab.size}")
    target_ids = vocab.ids(target_tokens)
    ids = top_terms(topic_word, target_ids, n)
    embedded = [i for i in target_ids if np.any(normalized[i])]
    if not embedded:
        return empty_topics()
    target_vecs = normalized[embedded]
    keep = math.ceil(p * n)
    best_cosines = [(normalized[row] @ target_vecs.T).max(axis=1) for row in ids]
    scores = [float(np.sort(c)[::-1][:keep].sum() / len(embedded)) for c in best_cosines]
    best = int(np.argmax(scores))
    return ExtractedTopics(
        topic_index=best,
        terms=tuple(vocab.id_to_word[i] for i in ids[best]),
        weights=tuple(float(w) for w in topic_word[best, ids[best]]),
        score=scores[best],
    )


def write_topic_report(path, rows: list[tuple[str, ExtractedTopics]]) -> None:
    """Topic report TSV: target, topic index, score, and term:weight pairs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("target\ttopic\tscore\tterms\n")
        for target, extracted in rows:
            terms = " ".join(
                f"{t}:{w:.6f}" for t, w in zip(extracted.terms, extracted.weights)
            )
            fh.write(f"{target}\t{extracted.topic_index}\t{extracted.score:.6f}\t{terms}\n")
