import logging
import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthdata import stance_corpus
from topicarg.corpus import DatasetSplit, LABELS, examples_from_records
from topicarg.evaluate import (
    NPMI_SMOOTHING,
    CoherenceReport,
    MetricReport,
    assert_no_leakage,
    coherence_report,
    confusion,
    mean_report,
    metric_report,
    npmi,
    protocol_runs,
    report_to_csv,
    run_protocol,
)
from topicarg.mutual import HistoryRow, history_to_csv
from topicarg.nn import SeededRng


def _window_sets(corpus_docs, window):
    """Boolean occurrence sets for every sliding window of each document."""
    if window < 1:
        raise ValueError("window must be >= 1")
    for doc in corpus_docs:
        doc = list(doc)
        if not doc:
            continue
        if len(doc) <= window:
            yield set(doc)
            continue
        for start in range(len(doc) - window + 1):
            yield set(doc[start : start + window])


def reference_npmi(topic_words, corpus_docs, window=10, cutoff=10):
    """Window-by-window NPMI: the oracle the one-pass counts must equal exactly."""
    words = list(topic_words)[:cutoff]
    if cutoff > len(topic_words):
        raise ValueError(f"cutoff {cutoff} exceeds the {len(topic_words)} topic words")
    if len(words) < 2:
        raise ValueError("need at least two words for pairwise NPMI")
    occur = {w: 0 for w in words}
    joint = {pair: 0 for pair in combinations(words, 2)}
    total = 0
    wordset = set(words)
    for win in _window_sets(corpus_docs, window):
        total += 1
        present = win & wordset
        for w in present:
            occur[w] += 1
        for pair in combinations(sorted(present), 2):
            key = pair if pair in joint else (pair[1], pair[0])
            if key in joint:
                joint[key] += 1
    if total == 0:
        raise ValueError("corpus has no windows")
    eps = NPMI_SMOOTHING
    scores = []
    for (w1, w2), c12 in joint.items():
        p1 = occur[w1] / total + eps
        p2 = occur[w2] / total + eps
        p12 = c12 / total + eps
        scores.append(np.log(p12 / (p1 * p2)) / -np.log(p12))
    return float(np.mean(scores))


def brute_force_report(cm):
    """Independent per-class reimplementation used as the oracle."""
    f1s = []
    out = {}
    for i, label in enumerate(LABELS):
        tp = cm[i][i]
        fp = sum(cm[r][i] for r in range(3)) - tp
        fn = sum(cm[i][c] for c in range(3)) - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * p * r / (p + r) if p + r else 0.0)
        out[label] = (p, r)
    return sum(f1s) / 3, out


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        golds = ["support", "oppose", "none", "support"]
        cm = confusion(golds, golds)
        assert np.array_equal(cm, np.diag([2, 1, 1]))

    def test_empty_lists(self):
        assert confusion([], []).sum() == 0

    def test_single_off_diagonal(self):
        cm = confusion(["support"], ["oppose"])
        assert cm[0, 1] == 1 and cm.sum() == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion(["support"], [])

    def test_total_equals_example_count(self):
        rng = SeededRng(0)
        golds = [LABELS[int(i)] for i in rng.integers(0, 3, 57)]
        preds = [LABELS[int(i)] for i in rng.integers(0, 3, 57)]
        assert confusion(golds, preds).sum() == 57


class TestMetricReport:
    def test_perfect_diagonal_all_ones(self):
        rep = metric_report(np.diag([5, 3, 9]))
        assert rep.macro_f1 == 1.0
        assert rep.precision_support == rep.recall_support == 1.0
        assert rep.precision_oppose == rep.recall_oppose == 1.0

    def test_hand_computed_four_example_case(self):
        golds = ["support", "support", "oppose", "none"]
        preds = ["support", "oppose", "oppose", "none"]
        rep = metric_report(confusion(golds, preds))
        assert rep.precision_support == 1.0
        assert rep.recall_support == 0.5
        assert rep.precision_oppose == 0.5
        assert rep.recall_oppose == 1.0
        assert rep.macro_f1 == pytest.approx(7 / 9, abs=1e-12)

    def test_absent_class_contributes_zero(self):
        cm = confusion(["support", "oppose"], ["support", "oppose"])
        rep = metric_report(cm)
        assert rep.macro_f1 == pytest.approx(2 / 3)

    def test_matches_brute_force_on_random_matrices(self):
        rng = SeededRng(123)
        for _ in range(300):
            cm = rng.integers(0, 20, (3, 3))
            rep = metric_report(cm)
            macro, per_class = brute_force_report(cm.tolist())
            assert rep.macro_f1 == pytest.approx(macro, abs=1e-12)
            assert rep.precision_support == pytest.approx(per_class["support"][0])
            assert rep.recall_oppose == pytest.approx(per_class["oppose"][1])

    def test_order_independence(self):
        rng = SeededRng(5)
        golds = [LABELS[int(i)] for i in rng.integers(0, 3, 40)]
        preds = [LABELS[int(i)] for i in rng.integers(0, 3, 40)]
        perm = rng.permutation(40)
        rep1 = metric_report(confusion(golds, preds))
        rep2 = metric_report(
            confusion([golds[i] for i in perm], [preds[i] for i in perm])
        )
        assert rep1 == rep2

    def test_mean_report(self):
        a = metric_report(np.diag([1, 1, 1]))
        b = metric_report(confusion(["support"], ["none"]))
        m = mean_report([a, b])
        assert m.macro_f1 == pytest.approx((a.macro_f1 + b.macro_f1) / 2)
        with pytest.raises(ValueError):
            mean_report([])


def oracle_fit_predict(name, split, seed):
    return [ex.label for ex in split.test]


def majority_fit_predict(name, split, seed):
    majority = Counter(ex.label for ex in split.train).most_common(1)[0][0]
    return [majority] * len(split.test)


def imbalanced_examples(n=90):
    # none-heavy label mix, like the real corpus
    records = stance_corpus(n_per_cell=5, seed=2)
    examples = examples_from_records(records)
    extra = [ex for ex in examples if ex.label == "none"]
    return (examples + extra * 3)[:n]


def in_target_runs(examples, k, seed):
    return protocol_runs("in_target", None, examples, k, seed)


def cross_target_runs(records, seed=0):
    return protocol_runs("cross_target", records, examples_from_records(records), 10, seed)


class TestProtocolRuns:
    def test_in_target_rows_are_the_folds_in_order(self):
        from topicarg.corpus import make_in_target_folds

        examples = imbalanced_examples()
        runs = in_target_runs(examples, 5, 3)
        assert [(name, seed) for name, _, seed in runs] == [
            (f"fold_{i}", 3 + i) for i in range(5)
        ]
        assert [split for _, split, _ in runs] == make_in_target_folds(examples, 5, seed=3)

    def test_cross_target_rows_are_the_sorted_targets(self):
        records = stance_corpus(n_per_cell=5, seed=1)
        runs = cross_target_runs(records, seed=7)
        assert [(name, split.held_out_target, seed) for name, split, seed in runs] == [
            ("river dams", "river dams", 7), ("space mining", "space mining", 8)
        ]

    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            protocol_runs("in_target_fold", [], [], 3, 0)


class TestInTargetRunner:
    def test_oracle_predictor_scores_one(self):
        # balanced corpus so every test fold contains all three classes
        examples = examples_from_records(stance_corpus(n_per_cell=20, seed=2))
        averaged, rows = run_protocol(oracle_fit_predict, in_target_runs(examples, 5, 3))
        assert averaged.macro_f1 == 1.0
        assert [name for name, _ in rows] == [f"fold_{i}" for i in range(5)]

    def test_majority_predictor_hand_computed(self):
        examples = imbalanced_examples()
        averaged, rows = run_protocol(majority_fit_predict, in_target_runs(examples, 5, 3))
        from topicarg.corpus import make_in_target_folds

        folds = make_in_target_folds(examples, 5, seed=3)
        for split, (_, rep) in zip(folds, rows):
            majority = Counter(ex.label for ex in split.train).most_common(1)[0][0]
            assert majority == "none"
            n_none = sum(1 for ex in split.test if ex.label == "none")
            p = n_none / len(split.test)
            expected = (2 * p * 1.0 / (p + 1.0)) / 3 if n_none else 0.0
            assert rep.macro_f1 == pytest.approx(expected, abs=1e-12)
        assert averaged == mean_report(rep for _, rep in rows)

    def test_seeded_rerun_identical(self, tmp_path):
        examples = imbalanced_examples()

        def run(path):
            averaged, rows = run_protocol(majority_fit_predict, in_target_runs(examples, 5, 7))
            report_to_csv(path, rows, averaged)
            return path.read_bytes()

        assert run(tmp_path / "a.csv") == run(tmp_path / "b.csv")


class TestCrossTargetRunner:
    def test_oracle_scores_one_and_covers_targets(self):
        records = stance_corpus(n_per_cell=10, seed=1)
        averaged, rows = run_protocol(oracle_fit_predict, cross_target_runs(records))
        assert averaged.macro_f1 == 1.0
        assert [name for name, _ in rows] == ["river dams", "space mining"]

    def test_leakage_assertion_fires(self):
        records = stance_corpus(n_per_cell=5, seed=1)
        examples = examples_from_records(records)
        bad = DatasetSplit(
            train=examples, val=[], test=examples, held_out_target="river dams"
        )
        with pytest.raises(AssertionError, match="leaked"):
            assert_no_leakage(bad)

    def test_runner_checks_every_split(self):
        # a leaking run after a clean one: the runner must stop before fitting it
        records = stance_corpus(n_per_cell=5, seed=1)
        examples = examples_from_records(records)
        clean = cross_target_runs(records)[0]
        bad = DatasetSplit(train=examples, val=[], test=examples, held_out_target="space mining")
        fitted = []

        def fit_predict(name, split, seed):
            fitted.append(split.held_out_target)
            return oracle_fit_predict(name, split, seed)

        with pytest.raises(AssertionError, match="'space mining' leaked"):
            run_protocol(fit_predict, [clean, ("space mining", bad, 1)])
        assert fitted == ["river dams"]


class TestNpmi:
    def test_perfect_cooccurrence_scores_one(self):
        docs = [["x", "y"]] * 3 + [["f1", "f2", "f3"]] * 5
        assert npmi(["x", "y"], docs, window=10, cutoff=2) == pytest.approx(1.0, abs=1e-6)

    def test_tiny_hand_counted_corpus(self):
        docs = [["a", "b", "c"], ["a", "d", "e"], ["b", "f", "g"]]
        # 3 windows; a in 2, b in 2, (a,b) in 1
        eps = NPMI_SMOOTHING
        p_a = 2 / 3 + eps
        p_b = 2 / 3 + eps
        p_ab = 1 / 3 + eps
        expected = math.log(p_ab / (p_a * p_b)) / -math.log(p_ab)
        assert npmi(["a", "b"], docs, window=5, cutoff=2) == pytest.approx(
            expected, abs=1e-9
        )

    def test_independent_words_near_zero(self):
        rng = SeededRng(8)
        docs = []
        for _ in range(20_000):
            doc = ["filler"]
            if rng.uniform(0, 1) < 0.3:
                doc.append("alpha")
            if rng.uniform(0, 1) < 0.3:
                doc.append("beta")
            docs.append(doc)
        assert abs(npmi(["alpha", "beta"], docs, window=10, cutoff=2)) <= 0.05

    def test_negative_for_disjoint_words(self):
        docs = [["a", "f"]] * 10 + [["b", "g"]] * 10
        assert npmi(["a", "b"], docs, window=5, cutoff=2) < -0.9

    def test_bounds_on_random_corpora(self):
        rng = SeededRng(9)
        vocab = [f"v{i}" for i in range(12)]
        docs = [
            [vocab[int(j)] for j in rng.integers(0, 12, int(rng.integers(2, 9)))]
            for _ in range(200)
        ]
        score = npmi(vocab[:6], docs, window=4, cutoff=6)
        assert -1.0 <= score <= 1.0

    def test_pair_symmetry(self):
        docs = [["a", "b", "c"]] * 4 + [["a", "c"]] * 3 + [["b"]] * 2
        assert npmi(["a", "b"], docs, window=3, cutoff=2) == pytest.approx(
            npmi(["b", "a"], docs, window=3, cutoff=2), abs=1e-12
        )

    def test_missing_word_flagged(self, caplog):
        import logging

        docs = [["a", "b"]] * 5
        with caplog.at_level(logging.WARNING):
            score = npmi(["a", "ghost"], docs, window=3, cutoff=2)
        assert "ghost" in caplog.text
        assert -1.0 <= score <= 1.0

    def test_sliding_windows_slide(self):
        # b and c always within one window of each other; a far from c
        docs = [["a", "x", "x", "b", "c"]] * 4
        close = npmi(["b", "c"], docs, window=2, cutoff=2)
        far = npmi(["a", "c"], docs, window=2, cutoff=2)
        assert close > far

    def test_parameter_validation(self):
        docs = [["a", "b"]]
        with pytest.raises(ValueError):
            npmi(["a", "b"], docs, window=0, cutoff=2)
        with pytest.raises(ValueError):
            npmi(["a"], docs, window=2, cutoff=2)
        with pytest.raises(ValueError):
            npmi(["a", "b"], docs, window=2, cutoff=3)
        with pytest.raises(ValueError):
            npmi(["a", "b"], [], window=2, cutoff=2)
        with pytest.raises(ValueError, match="need at least two words"):
            npmi(["a", "b", "c"], docs, window=2, cutoff=-1)

    def test_repeated_topic_word_rejected(self):
        docs = [["a", "b", "c", "a"], ["b", "a"], ["c", "d", "a"]]
        for words in (["a", "b", "a"], ["a", "a", "b"]):
            with pytest.raises(ValueError, match="'a' is repeated"):
                npmi(words, docs, window=3, cutoff=3)
        # a repeat below the cutoff is never scored
        assert npmi(["a", "b", "a"], docs, window=3, cutoff=2) == npmi(
            ["a", "b"], docs, window=3, cutoff=2
        )


class TestCoherenceReport:
    def test_cutoffs_and_csv(self, tmp_path):
        rng = SeededRng(4)
        vocab = [f"v{i}" for i in range(30)]
        docs = [
            [vocab[int(j)] for j in rng.integers(0, 30, 12)] for _ in range(100)
        ]
        lists = {0: vocab[:20], 1: vocab[5:25]}
        rep = coherence_report(lists, docs, window=6, cutoffs=(5, 10, 15, 20))
        assert isinstance(rep, CoherenceReport)
        assert set(rep.per_topic) == {0, 1}
        assert set(rep.averaged) == {5, 10, 15, 20}
        for row in rep.per_topic.values():
            for value in row.values():
                assert -1.0 <= value <= 1.0
        path = tmp_path / "coherence.csv"
        rep.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "topic,npmi@5,npmi@10,npmi@15,npmi@20"
        assert len(lines) == 4  # header + 2 topics + mean

    def test_repeated_topic_word_rejected(self):
        docs = [["a", "b", "c", "d"]] * 3
        with pytest.raises(ValueError, match="'c' is repeated"):
            coherence_report(
                {0: ["a", "b", "d"], 1: ["c", "d", "c"]}, docs, window=3, cutoffs=(2, 3)
            )

    def test_no_topics_is_refused_before_any_window_is_counted(self):
        docs = iter([["a", "b", "c"]])
        with pytest.raises(ValueError, match="at least one topic"):
            coherence_report({}, docs, window=3, cutoffs=(2, 3))
        assert next(docs) == ["a", "b", "c"]

    def test_missing_word_flagged_once_per_call(self, caplog):
        docs = [["a", "b", "c"]] * 5
        lists = {0: ["a", "ghost", "b"], 1: ["ghost", "c", "b"]}
        with caplog.at_level(logging.WARNING):
            coherence_report(lists, docs, window=3, cutoffs=(2, 3))
        assert [r.getMessage() for r in caplog.records] == [
            "npmi: word 'ghost' never occurs in the corpus"
        ]


ALPHABET = [f"w{i}" for i in range(8)]
ABSENT = ["ghost", "phantom"]
docs_strategy = st.lists(st.lists(st.sampled_from(ALPHABET), max_size=16), max_size=8)
topic_strategy = st.lists(
    st.sampled_from(ALPHABET + ABSENT), min_size=2, max_size=len(ALPHABET) + 2, unique=True
)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as err:
        return f"ValueError: {err}"


@settings(max_examples=300, deadline=None)
@given(
    alphabet_size=st.integers(6, 8),
    docs=docs_strategy,
    window=st.integers(1, 12),
    topic=topic_strategy,
    data=st.data(),
)
def test_npmi_equals_reference_exactly(alphabet_size, docs, window, topic, data):
    alphabet = ALPHABET[:alphabet_size]
    docs = [[w for w in doc if w in alphabet] for doc in docs]
    cutoff = data.draw(st.integers(2, len(topic)), label="cutoff")
    assert _outcome(npmi, topic, docs, window=window, cutoff=cutoff) == _outcome(
        reference_npmi, topic, docs, window=window, cutoff=cutoff
    )


# the shapes a caller may hand the corpus in: any iterable of token sequences
DOC_FORMS = {
    "lists": lambda docs: [list(d) for d in docs],
    "tuples": lambda docs: tuple(tuple(d) for d in docs),
    "generator": lambda docs: (d for d in docs),
}


LONG_ALPHABET = [f"u{i}" for i in range(24)]
# 20-word topics, perfbench's size, always scored at cutoff 20: 190 pairs each
long_case = st.tuples(
    st.lists(st.lists(st.sampled_from(LONG_ALPHABET), max_size=40), max_size=6),
    st.lists(
        st.lists(st.sampled_from(LONG_ALPHABET + ABSENT), min_size=20, max_size=20, unique=True),
        min_size=1, max_size=3,
    ),
    st.lists(st.integers(2, 20), max_size=3).map(lambda cutoffs: (*cutoffs, 20)),
)


@st.composite
def short_case(draw):
    """Topics of 2 to 10 words over `ALPHABET`, at cutoffs up to the shortest's length."""
    docs = draw(docs_strategy)
    topics = draw(st.lists(topic_strategy, min_size=1, max_size=4))
    shortest = min(len(t) for t in topics)
    cutoffs = draw(st.lists(st.integers(2, shortest), min_size=1, max_size=4), label="cutoffs")
    return docs, topics, tuple(cutoffs)


@settings(max_examples=600, deadline=None)
@given(
    case=st.one_of(short_case(), long_case),
    window=st.integers(1, 12),
    form=st.sampled_from(sorted(DOC_FORMS)),
)
def test_coherence_report_equals_reference_exactly(case, window, form):
    docs, topics, cutoffs = case
    lists = dict(enumerate(topics))
    try:
        rep = coherence_report(lists, DOC_FORMS[form](docs), window=window, cutoffs=cutoffs)
    except ValueError as err:
        assert str(err) == "corpus has no windows"
        assert not any(docs)
        return
    for t, words in lists.items():
        assert rep.per_topic[t] == {
            c: reference_npmi(words, docs, window=window, cutoff=c) for c in cutoffs
        }
    for c in cutoffs:
        assert rep.averaged[c] == float(np.mean([row[c] for row in rep.per_topic.values()]))


def test_tables_are_written_byte_for_byte(tmp_path):
    reports = [
        ("fold_0", MetricReport(0.5, 1 / 3, 0.25, 2 / 3, 0.125)),
        ("cross_guns", MetricReport(1.0, 0.0, 1e-7, 0.9999995, 0.5)),
    ]
    report_to_csv(tmp_path / "metrics.csv", reports, mean_report(r for _, r in reports))
    report_to_csv(tmp_path / "row.csv", reports[:1])
    CoherenceReport(
        (5, 10), {1: {5: -0.25, 10: 1 / 7}, 0: {5: 0.1234567, 10: -1e-9}}, {5: -0.0632718, 10: 0.5}
    ).to_csv(tmp_path / "coherence.csv")
    history_to_csv(
        [
            HistoryRow(1, "ntm", 1, elbo=123.456, kl=0.1, mutual=None),
            HistoryRow(1, "classifier", 2, mutual=0.25, cross_entropy=1 / 3, val_macro_f1=1.0),
        ],
        tmp_path / "history.csv",
    )
    assert (tmp_path / "metrics.csv").read_bytes() == (
        b"unit,macro_f1,p_support,p_oppose,r_support,r_oppose\n"
        b"fold_0,0.500000,0.333333,0.250000,0.666667,0.125000\n"
        b"cross_guns,1.000000,0.000000,0.000000,1.000000,0.500000\n"
        b"mean,0.750000,0.166667,0.125000,0.833333,0.312500\n"
    )
    assert (tmp_path / "row.csv").read_bytes() == (
        b"unit,macro_f1,p_support,p_oppose,r_support,r_oppose\n"
        b"fold_0,0.500000,0.333333,0.250000,0.666667,0.125000\n"
    )
    assert (tmp_path / "coherence.csv").read_bytes() == (
        b"topic,npmi@5,npmi@10\n"
        b"0,0.123457,-0.000000\n"
        b"1,-0.250000,0.142857\n"
        b"mean,-0.063272,0.500000\n"
    )
    assert (tmp_path / "history.csv").read_bytes() == (
        b"iteration,phase,epoch,elbo,kl,mutual,cross_entropy,val_macro_f1\n"
        b"1,ntm,1,123.456,0.1,,,\n"
        b"1,classifier,2,,,0.25,0.3333333333333333,1.0\n"
    )


def test_report_csv_shape(tmp_path):
    rep = metric_report(np.diag([2, 2, 2]))
    path = tmp_path / "m.csv"
    report_to_csv(path, [("fold_0", rep)], rep)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("unit,macro_f1")
    assert len(lines) == 3
