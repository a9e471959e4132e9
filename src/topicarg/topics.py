"""Explainable target-relevant topic extraction.

Pipeline: zero out the target's own words in the topic-word matrix, take each
topic's top key terms, score every topic against the target via per-term
cosine maxima (keeping the best p-fraction, normalized by target length), and
return the argmax topic's terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Vocabulary


@dataclass
class KeyTermLists:
    """Per topic, the chosen word ids with weights in non-increasing order."""

    word_ids: np.ndarray  # (K, n) int
    weights: np.ndarray  # (K, n) float


@dataclass
class EmbeddingTable:
    """One vector per vocabulary word, aligned with the vocabulary's ids."""

    vectors: np.ndarray  # (V, d)
    vocab: Vocabulary

    def __post_init__(self):
        if self.vectors.shape[0] != self.vocab.size:
            raise ValueError(
                f"embedding rows {self.vectors.shape[0]} != vocabulary size {self.vocab.size}"
            )

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def normalized(self) -> np.ndarray:
        """Length-normalized copy used for cosine scoring; zero rows stay zero."""
        norms = np.linalg.norm(self.vectors, axis=1, keepdims=True)
        return np.divide(self.vectors, np.where(norms > 0, norms, 1.0))


@dataclass
class ExtractedTopics:
    """The argmax topic's key terms for one target."""

    topic_index: int
    term_ids: tuple[int, ...]
    terms: tuple[str, ...]
    weights: tuple[float, ...]
    score: float
    per_topic_scores: tuple[float, ...] = ()


def empty_topics() -> ExtractedTopics:
    """Placeholder used when explainable topics are disabled."""
    return ExtractedTopics(-1, (), (), (), 0.0)


def rank_terms(topic_word: np.ndarray) -> np.ndarray:
    """(K, V) word ids per topic by weight descending, ties by smaller id."""
    return np.argsort(-np.asarray(topic_word, dtype=np.float64), axis=1, kind="stable")


def top_terms(topic_word: np.ndarray, ranking: np.ndarray, excluded_ids, n: int) -> KeyTermLists:
    """Per topic, the first n ids of its `rank_terms` row that are not excluded.

    A stable sort restricted to the kept words orders them as the full sort
    does, so one ranking serves every target's exclusions.
    """
    topic_word = np.asarray(topic_word, dtype=np.float64)
    k, v = topic_word.shape
    excluded = np.zeros(v, dtype=bool)
    excluded[np.asarray(excluded_ids, dtype=np.int64)] = True
    n_excluded = int(excluded.sum())
    if not 1 <= n <= v - n_excluded:
        raise ValueError(f"n={n} out of range [1, {v - n_excluded}] after masking")
    ids = np.empty((k, n), dtype=np.int64)
    for row in range(k):
        ranked = ranking[row, : n + n_excluded]
        ids[row] = ranked[~excluded[ranked]][:n]
    return KeyTermLists(ids, np.take_along_axis(topic_word, ids, axis=1))


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


def best_topic(
    lists: KeyTermLists,
    normalized: np.ndarray,
    vocab: Vocabulary,
    target_tokens,
    p: float,
) -> ExtractedTopics:
    """Score all K key-term lists against the target; return the argmax list.

    `normalized` is an `EmbeddingTable.normalized()` table.
    """
    target_ids = [i for i in vocab.ids(target_tokens) if np.any(normalized[i])]
    if not target_ids:
        raise ValueError(
            "target has no token that is both in the vocabulary and embedded"
        )
    target_vecs = normalized[target_ids]
    scores = [
        score_topic(target_vecs, normalized[lists.word_ids[k]], p)
        for k in range(lists.word_ids.shape[0])
    ]
    best = int(np.argmax(scores))  # ties resolve to the smaller topic index
    term_ids = tuple(int(i) for i in lists.word_ids[best])
    return ExtractedTopics(
        topic_index=best,
        term_ids=term_ids,
        terms=tuple(vocab.id_to_word[i] for i in term_ids),
        weights=tuple(float(w) for w in lists.weights[best]),
        score=float(scores[best]),
        per_topic_scores=tuple(float(s) for s in scores),
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
