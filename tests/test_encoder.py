import numpy as np
import pytest

from synthdata import stance_corpus
from topicarg import autodiff as ad
from topicarg.corpus import build_vocabulary
from topicarg.encoder import (
    CLS,
    SEP,
    UNK,
    EncoderConfig,
    EncoderInput,
    build_encoder_vocab,
    build_input,
    classify,
    classify_graph,
    encode,
    encode_batch,
    encode_batch_graph,
    encode_graph,
    init_encoder,
    predict,
    vocabulary_rows,
    write_predictions,
)
from topicarg.nn import EPS, SeededRng, grad_check
from topicarg.topics import EmbeddingTable, ExtractedTopics


@pytest.fixture
def enc_vocab():
    records = stance_corpus(n_per_cell=10, seed=0)
    return build_encoder_vocab(records, max_size=200)


@pytest.fixture
def enc(enc_vocab):
    cfg = EncoderConfig(vocab_size=enc_vocab.size, emb_dim=8, hidden_dim=10, output_dim=6)
    return init_encoder(cfg, SeededRng(2))


def topics_of(*terms):
    return ExtractedTopics(0, tuple(range(len(terms))), tuple(terms), (0.0,) * len(terms), 1.0)


class TestBuildInput:
    def test_three_segment_layout(self, enc_vocab):
        out = build_input(
            ["water", "flood"], ["river", "dams"], topics_of("turbine", "fish"),
            enc_vocab, max_len=32,
        )
        words = [enc_vocab.id_to_word[i] for i in out.token_ids]
        assert words == [CLS, "water", "flood", SEP, "river", "dams", SEP, "turbine", "fish"]
        assert out.segment_ids == (0, 0, 0, 0, 1, 1, 1, 2, 2)
        assert out.n_segments == 3

    def test_empty_topics_two_segments(self, enc_vocab):
        out = build_input(["water"], ["river"], None, enc_vocab, max_len=32)
        words = [enc_vocab.id_to_word[i] for i in out.token_ids]
        assert words == [CLS, "water", SEP, "river"]
        assert out.n_segments == 2

    def test_truncation_removes_sentence_tail_only(self, enc_vocab):
        sentence = ["water"] * 50
        topics = topics_of("turbine", "fish")
        out = build_input(sentence, ["river", "dams"], topics, enc_vocab, max_len=16)
        assert len(out.token_ids) == 16
        words = [enc_vocab.id_to_word[i] for i in out.token_ids]
        assert words[-3:] == [SEP, "turbine", "fish"]  # topics intact
        assert words.count("water") == 16 - 7

    def test_max_len_too_small(self, enc_vocab):
        with pytest.raises(ValueError):
            build_input(["water"], ["river"] * 10, None, enc_vocab, max_len=8)

    def test_oov_maps_to_unk(self, enc_vocab):
        out = build_input(["qqqqzz"], ["river"], None, enc_vocab, max_len=16)
        assert out.token_ids[1] == enc_vocab.index_of[UNK]

    def test_determinism(self, enc_vocab):
        args = (["water", "flood"], ["river"], topics_of("fish"), enc_vocab, 20)
        assert build_input(*args) == build_input(*args)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EncoderInput((1, 2), (0,))


class TestEncoderVocab:
    def test_markers_present_and_first(self, enc_vocab):
        assert enc_vocab.id_to_word[:3] == [CLS, SEP, UNK]

    def test_keeps_stopwords(self, enc_vocab):
        assert "the" in enc_vocab

    def test_union_with_ntm_vocab(self):
        records = stance_corpus(n_per_cell=10, seed=0)
        ntm_vocab = build_vocabulary(records, max_size=30)
        small = build_encoder_vocab(records, max_size=5, ntm_vocab=ntm_vocab)
        assert all(w in small.index_of for w in ntm_vocab.id_to_word)

    def test_max_size_validation(self):
        with pytest.raises(ValueError):
            build_encoder_vocab([], max_size=0)


class TestEncode:
    def test_zero_weights_give_constant_bias(self, enc, enc_vocab):
        for v in enc.params.values():
            v[...] = 0.0
        enc.params["body.b1"][:] = 0.25
        a = encode(enc, build_input(["water"], ["river"], None, enc_vocab, 16))
        b = encode(enc, build_input(["rocket", "metal"], ["ore"], None, enc_vocab, 16))
        assert np.allclose(a, 0.25)
        assert np.array_equal(a, b)

    def test_permutation_within_segment_invariant(self, enc, enc_vocab):
        t = topics_of("fish", "turbine")
        a = encode(enc, build_input(["water", "flood", "river"], ["dams"], t, enc_vocab, 32))
        b = encode(enc, build_input(["river", "water", "flood"], ["dams"], t, enc_vocab, 32))
        assert np.allclose(a, b)

    def test_batch_matches_single(self, enc, enc_vocab):
        inputs = [
            build_input(["water", "flood"], ["river"], None, enc_vocab, 16),
            build_input(["rocket"], ["ore", "metal"], topics_of("probe"), enc_vocab, 16),
        ]
        batch = encode_batch(enc, inputs)
        for i, x in enumerate(inputs):
            assert np.allclose(batch[i], encode(enc, x), atol=1e-12)

    def test_unknown_token_id_rejected(self, enc):
        bad = EncoderInput((10 ** 6,), (0,))
        with pytest.raises(IndexError):
            encode(enc, bad)

    def test_determinism(self, enc, enc_vocab):
        x = build_input(["water"], ["river"], None, enc_vocab, 16)
        assert np.array_equal(encode(enc, x), encode(enc, x))


class TestClassify:
    def test_zero_logits_uniform_and_tie_to_support(self, enc):
        for key in ("cls.W0", "cls.b0"):
            enc.params[key][...] = 0.0
        pred = classify(enc, np.ones(6))
        assert np.allclose(pred.probabilities, 1 / 3)
        assert pred.predicted == "support"

    def test_dominant_logit(self, enc):
        enc.params["cls.W0"][...] = 0.0
        enc.params["cls.b0"][:] = [10.0, 0.0, 0.0]
        pred = classify(enc, np.zeros(6))
        assert pred.predicted == "support"
        assert pred.probabilities[0] > 0.99

    def test_valid_distribution_on_random_h(self, enc):
        rng = SeededRng(3)
        for _ in range(20):
            pred = classify(enc, rng.normal(6))
            assert abs(pred.probabilities.sum() - 1.0) <= 1e-6
            assert pred.predicted in ("support", "oppose", "none")


class TestGradients:
    def test_encode_classify_cross_entropy_fd(self, enc, enc_vocab):
        inputs = [
            build_input(["water", "flood"], ["river"], topics_of("fish"), enc_vocab, 16),
            build_input(["rocket", "ore"], ["metal"], None, enc_vocab, 16),
        ]
        onehot = np.eye(3)[[0, 2]]

        def loss(leaves):
            h = encode_batch_graph(leaves, enc.cfg, inputs)
            probs = classify_graph(leaves, enc.cfg, h)
            return -ad.tensor_sum(ad.constant(onehot) * ad.log(probs + EPS))

        report = grad_check(loss, enc.params, samples=150, rng=SeededRng(4))
        assert report.passed, report.max_rel_error
        assert report.max_rel_error <= 1e-4

    def test_per_example_graph_agrees_with_batch(self, enc, enc_vocab):
        x = build_input(["water", "flood"], ["river"], None, enc_vocab, 16)
        single = encode_graph(enc.params, enc.cfg, x).data
        batch = encode_batch_graph(enc.params, enc.cfg, [x]).data
        assert np.allclose(single, batch, atol=1e-12)


def test_embedding_table_covers_ntm_vocab():
    records = stance_corpus(n_per_cell=10, seed=0)
    ntm_vocab = build_vocabulary(records, max_size=25)
    enc_vocab = build_encoder_vocab(records, max_size=100, ntm_vocab=ntm_vocab)
    cfg = EncoderConfig(vocab_size=enc_vocab.size, emb_dim=8, hidden_dim=10, output_dim=6)
    enc = init_encoder(cfg, SeededRng(7))
    rows = vocabulary_rows(enc_vocab, ntm_vocab)
    table = EmbeddingTable(enc.word_embeddings[rows], ntm_vocab)
    assert table.vectors.shape == (ntm_vocab.size, 8)
    for word, idx in list(ntm_vocab.index_of.items())[:5]:
        assert np.array_equal(
            table.vectors[idx], enc.params["word_emb"][enc_vocab.index_of[word]]
        )


def test_vocabulary_rows_refuses_a_missing_ntm_word():
    records = stance_corpus(n_per_cell=10, seed=0)
    ntm_vocab = build_vocabulary(records, max_size=25)
    enc_vocab = build_encoder_vocab(records, max_size=3)  # NTM words not forced in
    with pytest.raises(ValueError, match=r"encoder vocabulary is missing \d+ NTM word"):
        vocabulary_rows(enc_vocab, ntm_vocab)


def test_predict_and_prediction_tsv(tmp_path, enc, enc_vocab):
    from topicarg.corpus import examples_from_records

    records = stance_corpus(n_per_cell=5, seed=1)[:6]
    examples = examples_from_records(records)
    inputs = [
        build_input(ex.tokens, ex.target.split(), None, enc_vocab, 64) for ex in examples
    ]
    preds = predict(enc, inputs)
    assert len(preds) == 6
    probs = [classify(enc, encode(enc, x)).probabilities for x in inputs]
    path = tmp_path / "preds.tsv"
    write_predictions(path, examples, preds, probs)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 7
    assert lines[0].startswith("target\tsentence\tgold\tpredicted")
