import numpy as np
import pytest

from oracles import build_target_mask, extract_topics, filter_topics
from topicarg.corpus import Vocabulary
from topicarg.nn import SeededRng
from topicarg.topics import EmbeddingTable, empty_topics, score_topic


def embedding_table_from_text_file(path, vocab: Vocabulary) -> EmbeddingTable:
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
    return EmbeddingTable(vectors, vocab)


def brute_force_top_n(row, mask_row, n):
    """Oracle: full sort of unmasked entries by (-weight, id)."""
    candidates = [(float(-row[i]), i) for i in np.flatnonzero(mask_row == 1)]
    candidates.sort()
    return [i for _, i in candidates[:n]]


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
        lists = filter_topics(row, mask, n=2)
        assert lists.word_ids[0].tolist() == [2, 0]
        assert lists.weights[0].tolist() == [9.0, 5.0]

    def test_masked_hand_case(self):
        row = np.array([[5.0, 1.0, 9.0, 2.0]])
        mask = build_target_mask(["t2"], _vocab(4), num_topics=1)
        lists = filter_topics(row, mask, n=2)
        assert lists.word_ids[0].tolist() == [0, 3]

    def test_full_n_is_permutation(self):
        rng = SeededRng(3)
        mat = rng.normal((4, 9))
        mask = build_target_mask([], _vocab(9), num_topics=4)
        lists = filter_topics(mat, mask, n=9)
        for k in range(4):
            assert sorted(lists.word_ids[k].tolist()) == list(range(9))

    def test_agrees_with_brute_force_oracle(self):
        rng = SeededRng(17)
        vocab = _vocab(30)
        for trial in range(300):
            mat = rng.normal((3, 30))
            if trial % 3 == 0:
                mat = np.round(mat)  # force ties
            masked_words = [f"t{int(i)}" for i in rng.integers(0, 30, 4)]
            mask = build_target_mask(masked_words, vocab, num_topics=3)
            n = int(rng.integers(1, 31 - len(set(masked_words))))
            lists = filter_topics(mat, mask, n)
            for k in range(3):
                assert lists.word_ids[k].tolist() == brute_force_top_n(
                    mat[k], mask.mask[k], n
                ), f"trial {trial} row {k}"

    def test_no_masked_id_ever_selected_with_negative_weights(self):
        vocab = _vocab(6)
        mat = -np.abs(SeededRng(5).normal((2, 6))) - 1.0  # all negative
        mask = build_target_mask(["t0", "t1"], vocab, num_topics=2)
        lists = filter_topics(mat, mask, n=4)
        assert not ({0, 1} & set(lists.word_ids.ravel().tolist()))

    def test_weights_non_increasing(self):
        rng = SeededRng(8)
        mask = build_target_mask([], _vocab(15), num_topics=5)
        lists = filter_topics(rng.normal((5, 15)), mask, n=7)
        for k in range(5):
            assert np.all(np.diff(lists.weights[k]) <= 0)

    def test_n_out_of_range(self):
        mask = build_target_mask(["t0"], _vocab(4), num_topics=1)
        with pytest.raises(ValueError):
            filter_topics(np.ones((1, 4)), mask, n=4)  # only 3 unmasked
        with pytest.raises(ValueError):
            filter_topics(np.ones((1, 4)), mask, n=0)


class TestScoreTopic:
    def test_identical_words_hand_case(self):
        target = np.array([[1.0, 0.0]])
        topic = np.tile([1.0, 0.0], (10, 1))
        assert score_topic(target, topic, p=0.5) == pytest.approx(5.0)

    def test_orthogonal_is_zero(self):
        target = np.array([[1.0, 0.0]])
        topic = np.tile([0.0, 1.0], (8, 1))
        assert score_topic(target, topic, p=0.5) == pytest.approx(0.0)

    def test_duplicated_target_halves_score(self):
        rng = SeededRng(2)
        target = rng.normal((1, 5))
        target /= np.linalg.norm(target)
        topic = rng.normal((6, 5))
        topic /= np.linalg.norm(topic, axis=1, keepdims=True)
        single = score_topic(target, topic, p=0.5)
        doubled = score_topic(np.vstack([target, target]), topic, p=0.5)
        assert doubled == pytest.approx(single / 2.0)

    def test_order_invariance(self):
        rng = SeededRng(4)
        target = rng.normal((3, 5))
        topic = rng.normal((7, 5))
        target /= np.linalg.norm(target, axis=1, keepdims=True)
        topic /= np.linalg.norm(topic, axis=1, keepdims=True)
        base = score_topic(target, topic, p=0.4)
        assert score_topic(target[::-1], topic, p=0.4) == pytest.approx(base)
        assert score_topic(target, topic[::-1], p=0.4) == pytest.approx(base)

    def test_p_bounds(self):
        v = np.ones((1, 2))
        with pytest.raises(ValueError):
            score_topic(v, v, p=0.0)
        with pytest.raises(ValueError):
            score_topic(v, v, p=1.0)

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            score_topic(np.zeros((0, 3)), np.ones((2, 3)), p=0.5)


class TestExtractTopics:
    def _setup(self, seed, k=4, n_t=5, dim=8, vocab_size=40):
        """Plant one topic list out of the target's nearest neighbors."""
        rng = SeededRng(seed)
        vocab = _vocab(vocab_size)
        vectors = rng.normal((vocab_size, dim))
        target_word = "t0"
        # words 1..n_t duplicate the target vector; others are random
        winner = int(rng.integers(0, k))
        lists_ids = np.empty((k, n_t), dtype=np.int64)
        pool = list(range(1 + n_t, vocab_size))
        for topic in range(k):
            if topic == winner:
                lists_ids[topic] = np.arange(1, 1 + n_t)
            else:
                chosen = [pool[int(i)] for i in rng.integers(0, len(pool), n_t)]
                lists_ids[topic] = chosen
        for i in range(1, 1 + n_t):
            vectors[i] = vectors[0] * float(rng.uniform(0.5, 2.0))
        table = EmbeddingTable(vectors, vocab)
        from topicarg.topics import KeyTermLists

        lists = KeyTermLists(lists_ids, np.zeros_like(lists_ids, dtype=float))
        return lists, table, [target_word], winner

    def test_nearest_neighbor_topic_selected(self):
        for seed in range(30):
            lists, table, target, winner = self._setup(seed)
            extracted = extract_topics(lists, table, target, p=0.5)
            assert extracted.topic_index == winner, f"seed {seed}"

    def test_singleton_topic_returned_regardless(self):
        lists, table, target, _ = self._setup(3, k=4)
        from topicarg.topics import KeyTermLists

        single = KeyTermLists(lists.word_ids[:1], lists.weights[:1])
        extracted = extract_topics(single, table, target, p=0.5)
        assert extracted.topic_index == 0
        assert len(extracted.terms) == 5

    def test_permuting_topics_only_moves_bookkeeping(self):
        lists, table, target, _ = self._setup(7)
        from topicarg.topics import KeyTermLists

        perm = [2, 0, 3, 1]
        permuted = KeyTermLists(lists.word_ids[perm], lists.weights[perm])
        a = extract_topics(lists, table, target, p=0.5)
        b = extract_topics(permuted, table, target, p=0.5)
        assert set(a.terms) == set(b.terms)
        assert perm[b.topic_index] == a.topic_index

    def test_rescaling_embeddings_changes_nothing(self):
        lists, table, target, _ = self._setup(9)
        scaled = EmbeddingTable(table.vectors * 37.5, table.vocab)
        a = extract_topics(lists, table, target, p=0.5)
        b = extract_topics(lists, scaled, target, p=0.5)
        assert a.topic_index == b.topic_index
        assert a.score == pytest.approx(b.score)

    def test_unembeddable_target_rejected(self):
        lists, table, _, _ = self._setup(1)
        with pytest.raises(ValueError):
            extract_topics(lists, table, ["definitely_oov"], p=0.5)
        table.vectors[0] = 0.0  # in vocab but zero vector
        with pytest.raises(ValueError):
            extract_topics(lists, table, ["t0"], p=0.5)

    def test_terms_resolve_to_words(self):
        lists, table, target, _ = self._setup(5)
        extracted = extract_topics(lists, table, target, p=0.5)
        assert all(
            table.vocab.index_of[t] == i
            for t, i in zip(extracted.terms, extracted.term_ids)
        )


class TestEmbeddingTable:
    def test_from_text_file(self, tmp_path, tiny_vocab):
        path = tmp_path / "emb.txt"
        path.write_text("w0 1.0 0.0\nw5 0.0 2.0\nzzz 9.0 9.0\n")
        table = embedding_table_from_text_file(path, tiny_vocab)
        assert table.vectors.shape == (12, 2)
        assert np.allclose(table.vectors[0], [1.0, 0.0])
        assert np.allclose(table.vectors[5], [0.0, 2.0])
        assert np.allclose(table.vectors[1], 0.0)  # missing word stays zero

    def test_normalized_rows(self, tiny_vocab):
        vectors = np.zeros((12, 3))
        vectors[0] = [3.0, 0.0, 4.0]
        table = EmbeddingTable(vectors, tiny_vocab)
        normed = table.normalized()
        assert np.allclose(np.linalg.norm(normed[0]), 1.0)
        assert np.allclose(normed[1], 0.0)

    def test_size_mismatch_rejected(self, tiny_vocab):
        with pytest.raises(ValueError):
            EmbeddingTable(np.zeros((5, 3)), tiny_vocab)

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
