"""Classification metrics, the evaluation protocols, and NPMI topic coherence.

Macro F1 averages the per-class F1 of all three labels (support, oppose,
none); P+/R+ and P-/R- report precision/recall for support and oppose.
"""
from __future__ import annotations

import logging
from dataclasses import astuple, dataclass
from itertools import chain, repeat

import numpy as np
from scipy import sparse

from .corpus import (
    LABELS,
    LABEL_TO_INDEX,
    DatasetSplit,
    make_cross_target_splits,
    make_in_target_folds,
)

logger = logging.getLogger(__name__)

NPMI_SMOOTHING = 1e-12


def confusion(golds, preds) -> np.ndarray:
    """3x3 counts, rows gold, columns predicted, order (support, oppose, none)."""
    if len(golds) != len(preds):
        raise ValueError(f"length mismatch: {len(golds)} golds vs {len(preds)} preds")
    cm = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    for g, p in zip(golds, preds):
        cm[LABEL_TO_INDEX[g], LABEL_TO_INDEX[p]] += 1
    return cm


@dataclass
class MetricReport:
    macro_f1: float
    precision_support: float
    precision_oppose: float
    recall_support: float
    recall_oppose: float


def metric_report(cm: np.ndarray) -> MetricReport:
    """Per-class precision/recall (0/0 -> 0), macro F1 over all three classes."""
    cm = np.asarray(cm)
    precision, recall, f1 = [], [], []
    for i in range(len(LABELS)):
        pred_total = cm[:, i].sum()
        gold_total = cm[i, :].sum()
        p = cm[i, i] / pred_total if pred_total else 0.0
        r = cm[i, i] / gold_total if gold_total else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(2 * p * r / (p + r) if (p + r) else 0.0)
    return MetricReport(
        macro_f1=float(np.mean(f1)),
        precision_support=float(precision[0]),
        precision_oppose=float(precision[1]),
        recall_support=float(recall[0]),
        recall_oppose=float(recall[1]),
    )


def mean_report(reports) -> MetricReport:
    """Arithmetic mean of each metric across reports."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to average")
    rows = np.array([astuple(r) for r in reports])
    return MetricReport(*[float(x) for x in rows.mean(axis=0)])


def protocol_runs(protocol: str, records, examples, k: int, seed: int):
    """Every run of `protocol` as (name, split, training seed), in report order.

    In-target run i is fold i of the seeded k-fold split, named `fold_i`;
    cross-target run i holds out the i-th target in sorted order and is named
    after it. Run i trains with seed `seed + i`, so `evaluate`, which runs
    every row, and `train`, which picks one, train identical models.
    """
    if protocol == "in_target":
        splits = make_in_target_folds(examples, k, seed)
        names = [f"fold_{i}" for i in range(len(splits))]
    elif protocol == "cross_target":
        splits = make_cross_target_splits(records, examples)
        names = [split.held_out_target for split in splits]
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return [(name, split, seed + i) for i, (name, split) in enumerate(zip(names, splits))]


def run_protocol(fit_predict, runs):
    """Train and score each (name, split, seed) run.

    `fit_predict(name, split, seed)` trains from scratch and returns labels
    for `split.test`. Asserts before each run that its held-out target (if any)
    is absent from train and val. Returns (averaged report, [(name, report)]).
    """
    rows = []
    for name, split, seed in runs:
        assert_no_leakage(split)
        preds = fit_predict(name, split, seed)
        golds = [ex.label for ex in split.test]
        rows.append((name, metric_report(confusion(golds, preds))))
    return mean_report(report for _, report in rows), rows


def assert_no_leakage(split: DatasetSplit) -> None:
    if split.held_out_target is None:
        return
    seen = {ex.target for ex in split.train} | {ex.target for ex in split.val}
    if split.held_out_target in seen:
        raise AssertionError(
            f"held-out target {split.held_out_target!r} leaked into train/val"
        )


def scored_words(topic_words, cutoffs) -> list[str]:
    """A topic's top max(`cutoffs`) words, validated at each cutoff in turn;
    the NPMI at a cutoff pairs up that many of them."""
    words = list(topic_words)[:max(cutoffs, default=0)]
    repeat = next((i for i, w in enumerate(words) if w in words[:i]), len(words))
    for cutoff in cutoffs:
        if cutoff > len(topic_words):
            raise ValueError(f"cutoff {cutoff} exceeds the {len(topic_words)} topic words")
        if cutoff < 2:
            raise ValueError("need at least two words for pairwise NPMI")
        if repeat < cutoff:
            raise ValueError(f"topic word {words[repeat]!r} is repeated in the top {cutoff}")
    return words


def _window_counts(column: dict[str, int], corpus_docs, window: int) -> tuple[int, np.ndarray]:
    """Window total and the integer co-occurrence matrix of the words `column` numbers.

    `corpus_docs` is an iterable of token sequences. Every document yields
    max(len - window, 0) + 1 sliding windows (none if empty). One pass over
    the tokens builds the sparse 0/1 window x word incidence matrix S;
    `counts = S.T @ S` then holds, for columns i and j, the windows
    containing word i (diagonal) or both words.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    docs = list(corpus_docs)
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
    tokens = np.fromiter(
        map(column.get, chain.from_iterable(docs), repeat(-1)),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    n_windows = np.where(lengths > 0, np.maximum(lengths - window, 0) + 1, 0)
    total = int(n_windows.sum())
    if total == 0:
        raise ValueError("corpus has no windows")
    # a word at position p of a doc lies in window starts max(0, p-window+1)
    # through min(p, last start), rows offset by the doc's first window
    doc_of = np.repeat(np.arange(len(lengths)), lengths)
    pos = np.arange(len(tokens)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    hit = tokens >= 0
    doc_of, pos, cols = doc_of[hit], pos[hit], tokens[hit]
    first = (np.cumsum(n_windows) - n_windows)[doc_of]
    lo = first + np.maximum(pos - window + 1, 0)
    hi = first + np.minimum(pos, n_windows[doc_of] - 1) + 1
    spans = hi - lo
    rows = np.arange(spans.sum()) + np.repeat(lo - (np.cumsum(spans) - spans), spans)
    incidence = sparse.csr_array(
        (np.ones(len(rows), dtype=np.int64), (rows, np.repeat(cols, spans))),
        shape=(total, len(column)),
    )
    incidence.sum_duplicates()
    incidence.data[:] = 1  # a word repeated inside a window counts once
    return total, (incidence.T @ incidence).toarray()


@dataclass
class CoherenceReport:
    """Per-topic NPMI at each cutoff plus the per-cutoff averages."""

    cutoffs: tuple[int, ...]
    per_topic: dict[int, dict[int, float]]
    averaged: dict[int, float]

    def to_csv(self, path) -> None:
        rows = [*sorted(self.per_topic.items()), ("mean", self.averaged)]
        _write_table(
            path, "topic," + ",".join(f"npmi@{c}" for c in self.cutoffs),
            [(label, [row[c] for c in self.cutoffs]) for label, row in rows],
        )


def coherence_report(
    topic_word_lists: dict[int, list[str]],
    corpus_docs,
    window: int = 10,
    cutoffs: tuple[int, ...] = (5, 10, 15, 20),
) -> CoherenceReport:
    """Mean pairwise NPMI of every topic at every cutoff, from one pass over the windows."""
    if not topic_word_lists:
        raise ValueError("coherence needs at least one topic")
    scored = {topic: scored_words(words, cutoffs) for topic, words in topic_word_lists.items()}
    vocab = list(dict.fromkeys(chain.from_iterable(scored.values())))
    column = {w: i for i, w in enumerate(vocab)}
    total, counts = _window_counts(column, corpus_docs, window)
    for w, c in zip(vocab, np.diagonal(counts)):
        if c == 0:
            logger.warning("npmi: word %r never occurs in the corpus", w)
    cols = np.array([[column[w] for w in words] for words in scored.values()], dtype=np.int64)
    p = np.diagonal(counts)[cols] / total + NPMI_SMOOTHING
    per_topic = {topic: {} for topic in scored}
    for c in cutoffs:  # every topic's pairs in `combinations` order, one row each
        i, j = np.triu_indices(c, 1)
        p12 = counts[cols[:, i], cols[:, j]] / total + NPMI_SMOOTHING
        block = np.log(p12 / (p[:, i] * p[:, j])) / -np.log(p12)
        # row by row: `block` is F-ordered, and its mean(axis=1) sums in another order
        for row, scores in zip(per_topic.values(), block):
            row[c] = float(np.mean(scores))
    averaged = {
        c: float(np.mean([row[c] for row in per_topic.values()])) for c in cutoffs
    }
    return CoherenceReport(tuple(cutoffs), per_topic, averaged)


def npmi(topic_words, corpus_docs, window: int = 10, cutoff: int = 10) -> float:
    """Mean pairwise NPMI of the top-`cutoff` words under sliding windows.

    Probabilities are window frequencies with additive smoothing; a word that
    never occurs is scored at the smoothing floor and flagged via logging.
    The top words must be distinct. One topic at one cutoff of `coherence_report`.
    """
    return coherence_report({0: topic_words}, corpus_docs, window, (cutoff,)).per_topic[0][cutoff]


def _write_table(path, header: str, rows) -> None:
    """A CSV of `header` and one `label,values` line per (label, values) row,
    the values at 6 decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for label, values in rows:
            fh.write(f"{label}," + ",".join(f"{x:.6f}" for x in values) + "\n")


def report_to_csv(path, rows: list[tuple[str, MetricReport]], mean_row: MetricReport | None = None) -> None:
    """Metric CSV: one row per fold/target plus an optional mean row."""
    if mean_row is not None:
        rows = [*rows, ("mean", mean_row)]
    _write_table(
        path, "unit,macro_f1,p_support,p_oppose,r_support,r_oppose",
        [(name, astuple(report)) for name, report in rows],
    )
