from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import grad_check, segment_tags
from synthdata import stance_corpus
from topicarg import autodiff as ad
from topicarg import encoder as encoder_mod
from topicarg.corpus import LABELS, build_vocabulary
from topicarg.encoder import (
    CLS,
    SEGMENTS,
    SEP,
    UNK,
    EncoderConfig,
    EncoderInput,
    build_encoder_vocab,
    build_input,
    classify_graph,
    encode_batch,
    encode_batch_graph,
    init_encoder,
    labels_of,
    predict,
    predict_proba,
    vocabulary_rows,
    write_predictions,
)
from topicarg.nn import EPS, SeededRng, mlp_forward


# Per-example oracles: one input at a time, each segment pooled in numpy by its
# own mean.
def encode_graph(params: dict, cfg: EncoderConfig, enc_input: EncoderInput) -> ad.Tensor:
    """Encode of one input: h as a (1, d_h) Tensor; pooling is not differentiated."""
    ids = np.asarray(enc_input.token_ids, dtype=np.int64)
    if ids.size and ids.max() >= cfg.vocab_size:
        raise IndexError(f"token id {ids.max()} outside embedding range")
    segs = np.repeat(np.arange(len(SEGMENTS)), enc_input.segment_lengths)
    pools = []
    for seg in range(len(SEGMENTS)):
        members = np.flatnonzero(segs == seg)
        if members.size == 0:
            pools.append(np.zeros(cfg.emb_dim))
            continue
        rows = params["word_emb"][ids[members]] + params["seg_emb"][seg]
        pools.append(rows.mean(axis=0))
    pooled = np.concatenate(pools)[None, :]
    return mlp_forward(cfg.body_spec(), params, pooled, prefix="body.")


def encode(params, enc_input: EncoderInput) -> np.ndarray:
    return encode_graph(params.params, params.cfg, enc_input).data[0]


@dataclass
class ClassPrediction:
    probabilities: np.ndarray  # (3,) over (support, oppose, none)
    predicted: str


def classify(params, h: np.ndarray) -> ClassPrediction:
    """Softmax over three logits; ties broken by label order (support first)."""
    probs = classify_graph(params.params, params.cfg, ad.constant(np.atleast_2d(h))).data[0]
    return ClassPrediction(probabilities=probs, predicted=LABELS[int(np.argmax(probs))])


@pytest.fixture
def enc_vocab():
    records = stance_corpus(n_per_cell=10, seed=0)
    return build_encoder_vocab(records, max_size=200)


@pytest.fixture
def enc(enc_vocab):
    cfg = EncoderConfig(vocab_size=enc_vocab.size, emb_dim=8, hidden_dim=10, output_dim=6)
    return init_encoder(cfg, SeededRng(2))


class TestBuildInput:
    def test_three_segment_layout(self, enc_vocab):
        out = build_input(
            ["water", "flood"], ["river", "dams"], ("turbine", "fish"),
            enc_vocab, max_len=32,
        )
        words = [enc_vocab.id_to_word[i] for i in out.token_ids]
        assert words == [CLS, "water", "flood", SEP, "river", "dams", SEP, "turbine", "fish"]
        assert tuple(np.repeat(np.arange(3), out.segment_lengths)) == (0, 0, 0, 0, 1, 1, 1, 2, 2)
        assert sum(n > 0 for n in out.segment_lengths) == 3

    def test_empty_topics_two_segments(self, enc_vocab):
        out = build_input(["water"], ["river"], (), enc_vocab, max_len=32)
        words = [enc_vocab.id_to_word[i] for i in out.token_ids]
        assert words == [CLS, "water", SEP, "river"]
        assert sum(n > 0 for n in out.segment_lengths) == 2

    def test_truncation_removes_sentence_tail_only(self, enc_vocab):
        sentence = ["water"] * 50
        topics = ("turbine", "fish")
        out = build_input(sentence, ["river", "dams"], topics, enc_vocab, max_len=16)
        assert len(out.token_ids) == 16
        words = [enc_vocab.id_to_word[i] for i in out.token_ids]
        assert words[-3:] == [SEP, "turbine", "fish"]  # topics intact
        assert words.count("water") == 16 - 7

    def test_max_len_too_small(self, enc_vocab):
        with pytest.raises(ValueError):
            build_input(["water"], ["river"] * 10, (), enc_vocab, max_len=8)

    def test_oov_maps_to_unk(self, enc_vocab):
        out = build_input(["qqqqzz"], ["river"], (), enc_vocab, max_len=16)
        assert out.token_ids[1] == enc_vocab.index_of[UNK]

    def test_determinism(self, enc_vocab):
        args = (["water", "flood"], ["river"], ("fish",), enc_vocab, 20)
        assert build_input(*args) == build_input(*args)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EncoderInput((1, 2), (1, 0, 0))

    @pytest.mark.parametrize(
        "segments",
        [(-1, 3, 0), (1, 0, 0, 1), (), (2,), (1, 1), (1.0, 1, 0), (0, 0, 0), (3, 0, 0)],
    )
    def test_segment_outside_the_layout_rejected(self, segments):
        with pytest.raises(ValueError, match=r"must be 3 ints >= 0 summing to len\(token_ids\)=2"):
            EncoderInput((1, 2), segments)


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
        a, b = encode_batch(enc, [
            build_input(["water"], ["river"], (), enc_vocab, 16),
            build_input(["rocket", "metal"], ["ore"], (), enc_vocab, 16),
        ])
        assert np.allclose(a, 0.25)
        assert np.array_equal(a, b)

    def test_permutation_within_segment_invariant(self, enc, enc_vocab):
        t = ("fish", "turbine")
        a, b = encode_batch(enc, [
            build_input(["water", "flood", "river"], ["dams"], t, enc_vocab, 32),
            build_input(["river", "water", "flood"], ["dams"], t, enc_vocab, 32),
        ])
        assert np.allclose(a, b)

    def test_batch_matches_single(self, enc, enc_vocab):
        inputs = [
            build_input(["water", "flood"], ["river"], (), enc_vocab, 16),
            build_input(["rocket"], ["ore", "metal"], ("probe",), enc_vocab, 16),
        ]
        batch = encode_batch(enc, inputs)
        for i, x in enumerate(inputs):
            assert np.allclose(batch[i], encode(enc, x), atol=1e-12)

    def test_unknown_token_id_rejected(self, enc, enc_vocab):
        good = build_input(["water"], ["river"], (), enc_vocab, 16)
        with pytest.raises(IndexError):
            encode_batch(enc, [good, EncoderInput((10 ** 6,), (1, 0, 0))])

    def test_determinism(self, enc, enc_vocab):
        x = build_input(["water"], ["river"], (), enc_vocab, 16)
        assert np.array_equal(encode_batch(enc, [x]), encode_batch(enc, [x]))


class TestClassify:
    @pytest.fixture
    def inputs(self, enc_vocab):
        return [
            build_input(["water", "flood"], ["river"], ("fish",), enc_vocab, 16),
            build_input(["rocket"], ["ore"], (), enc_vocab, 16),
        ]

    def test_zero_logits_uniform_and_tie_to_support(self, enc, inputs):
        for key in ("cls.W0", "cls.b0"):
            enc.params[key][...] = 0.0
        assert np.allclose(predict_proba(enc, inputs), 1 / 3)
        assert predict(enc, inputs) == ["support", "support"]

    def test_dominant_logit(self, enc, inputs):
        enc.params["cls.W0"][...] = 0.0
        enc.params["cls.b0"][:] = [10.0, 0.0, 0.0]
        assert predict(enc, inputs) == ["support", "support"]
        assert np.all(predict_proba(enc, inputs)[:, 0] > 0.99)

    def test_valid_distribution_on_random_h(self, enc):
        h = ad.constant(SeededRng(3).normal((20, 6)))
        probs = classify_graph(enc.params, enc.cfg, h).data
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-6)
        assert set(labels_of(probs)) <= {"support", "oppose", "none"}


class TestGradients:
    def test_encode_classify_cross_entropy_fd(self, enc, enc_vocab):
        inputs = [
            build_input(["water", "flood"], ["river"], ("fish",), enc_vocab, 16),
            build_input(["rocket", "ore"], ["metal"], (), enc_vocab, 16),
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
        x = build_input(["water", "flood"], ["river"], (), enc_vocab, 16)
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
    table = enc.word_embeddings[rows]
    assert table.shape == (ntm_vocab.size, 8)
    for word, idx in list(ntm_vocab.index_of.items())[:5]:
        assert np.array_equal(table[idx], enc.params["word_emb"][enc_vocab.index_of[word]])


def test_vocabulary_rows_refuses_a_missing_ntm_word():
    records = stance_corpus(n_per_cell=10, seed=0)
    ntm_vocab = build_vocabulary(records, max_size=25)
    enc_vocab = build_encoder_vocab(records, max_size=3)  # NTM words not forced in
    with pytest.raises(ValueError, match=r"encoder vocabulary is missing \d+ NTM word"):
        vocabulary_rows(enc_vocab, ntm_vocab)


# the fixtures are only read, so sharing them across examples is safe
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(0, 40),
    chunk=st.integers(1, 17),
    with_topics=st.lists(st.booleans(), min_size=40, max_size=40),
    seed=st.integers(0, 2**16),
)
def test_batched_prediction_matches_per_example_oracle(
    enc, enc_vocab, monkeypatch, n, chunk, with_topics, seed
):
    rng = np.random.default_rng(seed)
    words = enc_vocab.id_to_word[3:]
    inputs = [
        build_input(
            list(rng.choice(words, rng.integers(0, 12))),
            list(rng.choice(words, rng.integers(1, 3))),
            tuple(rng.choice(words, 2)) if with_topics[i] else (),
            enc_vocab,
            32,
        )
        for i in range(n)
    ]
    with monkeypatch.context() as m:
        m.setattr(encoder_mod, "ENCODE_CHUNK", chunk)  # small chunks cross boundaries
        probs = predict_proba(enc, inputs)
        labels = predict(enc, inputs)
    oracle = [classify(enc, encode(enc, x)) for x in inputs]
    assert probs.shape == (n, 3)
    assert np.all(np.abs(probs - np.array([o.probabilities for o in oracle]).reshape(n, 3)) <= 1e-12)
    assert labels == [o.predicted for o in oracle]


_WORDS = st.lists(st.sampled_from(["water", "flood", "river", "qqqqzz"]), max_size=12)


# the fixture is only read, so sharing it across examples is safe
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sentence=_WORDS, target=_WORDS, topic_terms=_WORDS, max_len=st.integers(2, 40))
@example(sentence=[], target=["river"], topic_terms=["fish"], max_len=16)
@example(sentence=["water"], target=[], topic_terms=["fish"], max_len=16)
@example(sentence=["water"], target=["river"], topic_terms=(), max_len=16)
@example(sentence=["water"], target=["river"], topic_terms=("fish", "qqqqzz"), max_len=16)
@example(sentence=["water"] * 12, target=["river"], topic_terms=["fish"], max_len=9)
def test_segment_lengths_give_the_per_token_tags(enc_vocab, sentence, target, topic_terms, max_len):
    fixed = 2 + len(target) + (1 + len(topic_terms) if topic_terms else 0)
    if max_len < fixed:
        with pytest.raises(ValueError, match="cannot fit"):
            build_input(sentence, target, topic_terms, enc_vocab, max_len)
        return
    x = build_input(sentence, target, topic_terms, enc_vocab, max_len)
    tags = segment_tags(sentence, target, topic_terms, max_len)
    assert tuple(np.repeat(np.arange(3), x.segment_lengths)) == tags
    assert len(x.token_ids) == len(tags) <= max_len


def test_labels_break_ties_by_label_order():
    assert labels_of(np.array([[0.4, 0.4, 0.2], [0.3, 0.35, 0.35], [1 / 3] * 3])) == [
        "support", "oppose", "support"
    ]


def test_predict_and_prediction_tsv(tmp_path, enc, enc_vocab):
    from topicarg.corpus import examples_from_records

    records = stance_corpus(n_per_cell=5, seed=1)[:6]
    examples = examples_from_records(records)
    inputs = [
        build_input(ex.tokens, ex.target.split(), (), enc_vocab, 64) for ex in examples
    ]
    preds = predict(enc, inputs)
    assert len(preds) == 6
    probs = predict_proba(enc, inputs)
    path = tmp_path / "preds.tsv"
    write_predictions(path, examples, preds, probs)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 7
    assert lines[0].startswith("target\tsentence\tgold\tpredicted")
