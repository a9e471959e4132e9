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


def rank_terms(topic_word: np.ndarray) -> np.ndarray:
    """(K, V) word ids per topic by weight descending, ties by smaller id."""
    return np.argsort(-np.asarray(topic_word, dtype=np.float64), axis=1, kind="stable")


def top_terms(ranking: np.ndarray, excluded_ids, n: int) -> np.ndarray:
    """(K, n): per topic, the first n ids of its `rank_terms` row that are not excluded.

    A stable sort restricted to the kept words orders them as the full sort
    does, so one ranking serves every target's exclusions.
    """
    k, v = ranking.shape
    excluded = np.zeros(v, dtype=bool)
    excluded[np.asarray(excluded_ids, dtype=np.int64)] = True
    n_excluded = int(excluded.sum())
    if not 1 <= n <= v - n_excluded:
        raise ValueError(f"n={n} out of range [1, {v - n_excluded}] after masking")
    ids = np.empty((k, n), dtype=np.int64)
    for row in range(k):
        ranked = ranking[row, : n + n_excluded]
        ids[row] = ranked[~excluded[ranked]][:n]
    return ids


def extract_topics(
    topic_word: np.ndarray,
    ranking: np.ndarray,
    normalized: np.ndarray,
    vocab: Vocabulary,
    target_tokens,
    n: int,
    p: float,
) -> ExtractedTopics:
    """The target's argmax topic among the K top-n key-term lists.

    `ranking` is `rank_terms(topic_word)` and `normalized` holds one unit (or
    zero) row per vocabulary word. A topic scores the sum of its top
    ceil(p * n) per-term cosine maxima against the target's embedded words,
    divided by their count; ties go to the smaller topic index. A target with
    no embedded in-vocabulary word gets `empty_topics()`.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if normalized.shape[0] != vocab.size:
        raise ValueError(f"embedding rows {normalized.shape[0]} != vocabulary size {vocab.size}")
    target_ids = vocab.ids(target_tokens)
    ids = top_terms(ranking, target_ids, n)
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
