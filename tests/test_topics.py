import logging
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import build_target_mask, normalize_rows, score_topic
from topicarg.corpus import Vocabulary
from topicarg.mutual import TrainData, extract_topics_for_targets
from topicarg.nn import SeededRng
from topicarg.topics import empty_topics, extract_topics, top_terms


def embedding_table_from_text_file(path, vocab: Vocabulary) -> np.ndarray:
    """Load a "word v1 ... vd" text file; missing words get zero vectors."""
    rows: dict[int, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            word = parts[0]
            if word not in vocab.index_of:
                continue
            vec = np.array([float(x) for x in parts[1:]])
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise ValueError(f"inconsistent embedding width for {word!r}")
            rows[vocab.index_of[word]] = vec
    if dim is None:
        raise ValueError(f"no vocabulary word found in embedding file {path}")
    vectors = np.zeros((vocab.size, dim))
    for idx, vec in rows.items():
        vectors[idx] = vec
    return vectors


def brute_force_top_n(row, mask_row, n):
    """Oracle: full sort of unmasked entries by (-weight, id)."""
    candidates = [(float(-row[i]), i) for i in np.flatnonzero(mask_row == 1)]
    candidates.sort()
    return [i for _, i in candidates[:n]]


def masked_top_terms(topic_word, mask, n):
    """`top_terms` excluding the mask's zero columns."""
    return top_terms(topic_word, mask.masked_ids(), n)


def planted_weights(lists_ids, vocab_size, rng):
    """(K, V) weights whose per-topic top terms are the rows of `lists_ids`, in order."""
    k, n = lists_ids.shape
    topic_word = rng.uniform(0.0, 1.0, (k, vocab_size))
    for topic in range(k):
        topic_word[topic, lists_ids[topic]] = 2.0 + np.arange(n, 0, -1)
    return topic_word


def extract_planted(topic_word, vectors, vocab, target_tokens, n, p=0.5):
    """`topics.extract_topics` with the rows of `vectors` normalized by the oracle."""
    return extract_topics(topic_word, normalize_rows(vectors), vocab, target_tokens, n, p)


def extract_through_mutual(topic_word, vectors, vocab, target, n, p=0.5):
    """`mutual.extract_topics_for_targets` for one target, the NTM vocabulary
    doubling as the encoder's so that the embedding rows are `vectors`."""
    ntm = SimpleNamespace(topic_word=topic_word)
    enc = SimpleNamespace(word_embeddings=vectors)
    data = TrainData(examples=[], bows=None, vocab=vocab, enc_vocab=vocab)
    return extract_topics_for_targets(ntm, enc, data, [target], n, p)[target]


def topic_score(target_vecs, topic_vecs, p):
    """`extract_topics`' score for one topic whose n words embed as the
    (pre-normalized) `topic_vecs`, against target words that embed as
    `target_vecs`; the words are laid out targets first, then the topic's."""
    n_tau, n_t = len(target_vecs), len(topic_vecs)
    vocab = _vocab(n_tau + n_t)
    topic_word = np.concatenate([np.zeros(n_tau), np.arange(n_t, 0, -1.0)])[None, :]
    extracted = extract_topics(
        topic_word, np.vstack([target_vecs, topic_vecs]), vocab,
        vocab.id_to_word[:n_tau], n_t, p,
    )
    assert extracted.terms == tuple(vocab.id_to_word[n_tau:])
    return extracted.score


class TestTargetMask:
    def test_target_columns_zeroed(self, tiny_vocab):
        mask = build_target_mask(["w3", "w7"], tiny_vocab, num_topics=4)
        assert mask.mask.shape == (4, 12)
        assert np.all(mask.mask[:, 3] == 0)
        assert np.all(mask.mask[:, 7] == 0)
        keep = np.delete(np.arange(12), [3, 7])
        assert np.all(mask.mask[:, keep] == 1)

    def test_oov_target_is_all_ones(self, tiny_vocab):
        mask = build_target_mask(["nothere"], tiny_vocab, num_topics=2)
        assert np.all(mask.mask == 1)

    def test_empty_target_is_all_ones(self, tiny_vocab):
        mask = build_target_mask([], tiny_vocab, num_topics=2)
        assert np.all(mask.mask == 1)


class TestFilterTopics:
    def test_unmasked_hand_case(self):
        row = np.array([[5.0, 1.0, 9.0, 2.0]])
        mask = build_target_mask([], _vocab(4), num_topics=1)
        ids = masked_top_terms(row, mask, n=2)
        assert ids[0].tolist() == [2, 0]
        assert row[0, ids[0]].tolist() == [9.0, 5.0]

    def test_masked_hand_case(self):
        row = np.array([[5.0, 1.0, 9.0, 2.0]])
        mask = build_target_mask(["t2"], _vocab(4), num_topics=1)
        ids = masked_top_terms(row, mask, n=2)
        assert ids[0].tolist() == [0, 3]

    def test_full_n_is_permutation(self):
        rng = SeededRng(3)
        mat = rng.normal((4, 9))
        mask = build_target_mask([], _vocab(9), num_topics=4)
        ids = masked_top_terms(mat, mask, n=9)
        for k in range(4):
            assert sorted(ids[k].tolist()) == list(range(9))

    def test_agrees_with_brute_force_oracle(self):
        rng = SeededRng(17)
        vocab = _vocab(30)
        for trial in range(300):
            mat = rng.normal((3, 30))
            if trial % 3 == 0:
                mat = np.round(mat)  # force ties
            elif trial % 3 == 1:
                mat = np.where(np.abs(mat) < 1, np.copysign(0.0, mat), mat)  # +0.0/-0.0 ties
            masked_words = [f"t{int(i)}" for i in rng.integers(0, 30, 4)]
            mask = build_target_mask(masked_words, vocab, num_topics=3)
            room = 30 - len(set(masked_words))
            n = room if trial % 5 == 0 else int(rng.integers(1, room + 1))
            # the first masked word is excluded twice
            ids = top_terms(mat, vocab.ids(masked_words + masked_words[:1]), n)
            for k in range(3):
                assert ids[k].tolist() == brute_force_top_n(
                    mat[k], mask.mask[k], n
                ), f"trial {trial} row {k}"

    def test_no_masked_id_ever_selected_with_negative_weights(self):
        vocab = _vocab(6)
        mat = -np.abs(SeededRng(5).normal((2, 6))) - 1.0  # all negative
        mask = build_target_mask(["t0", "t1"], vocab, num_topics=2)
        ids = masked_top_terms(mat, mask, n=4)
        assert not ({0, 1} & set(ids.ravel().tolist()))

    def test_weights_non_increasing(self):
        rng = SeededRng(8)
        mat = rng.normal((5, 15))
        mask = build_target_mask([], _vocab(15), num_topics=5)
        weights = np.take_along_axis(mat, masked_top_terms(mat, mask, n=7), axis=1)
        for k in range(5):
            assert np.all(np.diff(weights[k]) <= 0)

    def test_n_out_of_range(self):
        mask = build_target_mask(["t0"], _vocab(4), num_topics=1)
        with pytest.raises(ValueError, match="out of range"):
            masked_top_terms(np.ones((1, 4)), mask, n=4)  # only 3 unmasked
        with pytest.raises(ValueError, match="out of range"):
            masked_top_terms(np.ones((1, 4)), mask, n=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_is_refused(self, value):
        """Even in an excluded column: the weights must be finite, or the ranking means nothing."""
        mat = np.ones((3, 5))
        mat[1, 4] = value
        with pytest.raises(ValueError, match="^topic 1's word weights are not all finite$"):
            top_terms(mat, [4], n=2)


class TestScoreTopic:
    """The topic score `extract_topics` computes, and the oracle's, agree on
    each property."""

    def test_identical_words_hand_case(self):
        target = np.array([[1.0, 0.0]])
        topic = np.tile([1.0, 0.0], (10, 1))
        assert topic_score(target, topic, p=0.5) == pytest.approx(5.0)
        assert score_topic(target, topic, p=0.5) == pytest.approx(5.0)

    def test_orthogonal_is_zero(self):
        target = np.array([[1.0, 0.0]])
        topic = np.tile([0.0, 1.0], (8, 1))
        assert topic_score(target, topic, p=0.5) == pytest.approx(0.0)
        assert score_topic(target, topic, p=0.5) == pytest.approx(0.0)

    def test_duplicated_target_halves_score(self):
        rng = SeededRng(2)
        target = rng.normal((1, 5))
        target /= np.linalg.norm(target)
        topic = rng.normal((6, 5))
        topic /= np.linalg.norm(topic, axis=1, keepdims=True)
        single = topic_score(target, topic, p=0.5)
        doubled = topic_score(np.vstack([target, target]), topic, p=0.5)
        assert doubled == pytest.approx(single / 2.0)
        assert single == score_topic(target, topic, p=0.5)

    def test_order_invariance(self):
        rng = SeededRng(4)
        target = rng.normal((3, 5))
        topic = rng.normal((7, 5))
        target /= np.linalg.norm(target, axis=1, keepdims=True)
        topic /= np.linalg.norm(topic, axis=1, keepdims=True)
        base = topic_score(target, topic, p=0.4)
        assert topic_score(target[::-1], topic, p=0.4) == pytest.approx(base)
        assert topic_score(target, topic[::-1], p=0.4) == pytest.approx(base)
        assert score_topic(target, topic, p=0.4) == base

    def test_p_bounds(self):
        v = np.ones((1, 2)) / np.sqrt(2.0)
        for p in (0.0, 1.0):
            with pytest.raises(ValueError, match="p must be in"):
                topic_score(v, v, p=p)
            with pytest.raises(ValueError, match="p must be in"):
                score_topic(v, v, p=p)

    def test_empty_inputs(self):
        # a target with no embedded word gets no topics from the library; the
        # oracle refuses to score it
        vocab = _vocab(3)
        topic_word = np.array([[0.0, 2.0, 1.0]])
        vectors = np.ones((3, 2))
        for target, table in ((["oov"], vectors), ([], vectors), (["t0"], vectors * [[0], [1], [1]])):
            got = extract_topics(topic_word, table, vocab, target, 2, 0.5)
            assert got == empty_topics()
        with pytest.raises(ValueError):
            score_topic(np.zeros((0, 3)), np.ones((2, 3)), p=0.5)


class TestExtractTopics:
    def _setup(self, seed, k=4, n_t=5, dim=8, vocab_size=40):
        """Plant one topic list out of the target's nearest neighbors."""
        rng = SeededRng(seed)
        vocab = _vocab(vocab_size)
        vectors = rng.normal((vocab_size, dim))
        target_word = "t0"
        # words 1..n_t duplicate the target vector; the other topics draw theirs
        # from the rest
        winner = int(rng.integers(0, k))
        lists_ids = np.empty((k, n_t), dtype=np.int64)
        pool = np.arange(1 + n_t, vocab_size)
        for topic in range(k):
            if topic == winner:
                lists_ids[topic] = np.arange(1, 1 + n_t)
            else:
                lists_ids[topic] = pool[rng.permutation(pool.size)[:n_t]]
        for i in range(1, 1 + n_t):
            vectors[i] = vectors[0] * float(rng.uniform(0.5, 2.0))
        topic_word = planted_weights(lists_ids, vocab_size, rng)
        return topic_word, vectors, vocab, [target_word], winner

    def test_nearest_neighbor_topic_selected(self):
        for seed in range(30):
            topic_word, vectors, vocab, target, winner = self._setup(seed)
            extracted = extract_planted(topic_word, vectors, vocab, target, 5)
            assert extracted.topic_index == winner, f"seed {seed}"

    def test_singleton_topic_returned_regardless(self):
        topic_word, vectors, vocab, target, _ = self._setup(3, k=4)
        extracted = extract_planted(topic_word[:1], vectors, vocab, target, 5)
        assert extracted.topic_index == 0
        assert len(extracted.terms) == 5

    def test_permuting_topics_only_moves_bookkeeping(self):
        topic_word, vectors, vocab, target, _ = self._setup(7)
        perm = [2, 0, 3, 1]
        a = extract_planted(topic_word, vectors, vocab, target, 5)
        b = extract_planted(topic_word[perm], vectors, vocab, target, 5)
        assert set(a.terms) == set(b.terms)
        assert perm[b.topic_index] == a.topic_index

    def test_rescaling_embeddings_changes_nothing(self):
        topic_word, vectors, vocab, _, _ = self._setup(9)
        a = extract_through_mutual(topic_word, vectors, vocab, "t0", 5)
        b = extract_through_mutual(topic_word, vectors * 37.5, vocab, "t0", 5)
        assert a.topic_index == b.topic_index
        assert a.score == pytest.approx(b.score)

    def test_unembeddable_target_rejected(self, caplog):
        topic_word, vectors, vocab, _, _ = self._setup(1)
        with caplog.at_level(logging.WARNING, logger="topicarg.mutual"):
            assert extract_through_mutual(topic_word, vectors, vocab, "oov", 5) == empty_topics()
            vectors[0] = 0.0  # in vocab but zero vector
            assert extract_through_mutual(topic_word, vectors, vocab, "t0", 5) == empty_topics()
        assert [r.getMessage() for r in caplog.records] == [
            f"no topics for target {t!r}: none of its words is embedded" for t in ("oov", "t0")
        ]
        with pytest.raises(ValueError, match="out of range"):  # n is checked all the same
            extract_through_mutual(topic_word, vectors, vocab, "t0", 40)

    def test_terms_resolve_to_words(self):
        topic_word, vectors, vocab, target, _ = self._setup(5)
        extracted = extract_planted(topic_word, vectors, vocab, target, 5)
        term_ids = [vocab.index_of[t] for t in extracted.terms]
        assert extracted.weights == tuple(topic_word[extracted.topic_index, term_ids])


class TestEmbeddingTable:
    def test_from_text_file(self, tmp_path, tiny_vocab):
        path = tmp_path / "emb.txt"
        path.write_text("w0 1.0 0.0\nw5 0.0 2.0\nzzz 9.0 9.0\n")
        vectors = embedding_table_from_text_file(path, tiny_vocab)
        assert vectors.shape == (12, 2)
        assert np.allclose(vectors[0], [1.0, 0.0])
        assert np.allclose(vectors[5], [0.0, 2.0])
        assert np.allclose(vectors[1], 0.0)  # missing word stays zero

    def test_normalized_rows(self):
        # words t1, t2 point along the target t0 at lengths 5 and 0.5, t3 is
        # unembedded: unit rows give both cosine 1, and the zero row stays 0
        vocab = _vocab(4)
        vectors = np.array([[3.0, 0.0, 4.0], [3.0, 0.0, 4.0], [0.3, 0.0, 0.4], [0.0, 0.0, 0.0]])
        topic_word = np.array([[0.0, 3.0, 2.0, 1.0]])
        extracted = extract_through_mutual(topic_word, vectors, vocab, "t0", 3, p=0.9)
        assert extracted.terms == ("t1", "t2", "t3")
        assert extracted.score == pytest.approx(2.0)
        assert extract_through_mutual(topic_word, vectors, vocab, "t3", 3) == empty_topics()

    def test_size_mismatch_rejected(self, tiny_vocab):
        topic_word = np.ones((1, 12))
        with pytest.raises(ValueError, match="embedding rows 5 != vocabulary size 12"):
            extract_topics(topic_word, np.ones((5, 3)), tiny_vocab, ["w0"], 2, 0.5)

    def test_inconsistent_width_rejected(self, tmp_path, tiny_vocab):
        path = tmp_path / "emb.txt"
        path.write_text("w0 1.0 0.0\nw5 0.0\n")
        with pytest.raises(ValueError):
            embedding_table_from_text_file(path, tiny_vocab)


def test_empty_topics_placeholder():
    e = empty_topics()
    assert e.terms == ()
    assert e.topic_index == -1


def _vocab(n):
    words = [f"t{i}" for i in range(n)]
    return Vocabulary(
        index_of={w: i for i, w in enumerate(words)},
        id_to_word=words,
    )
