import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import build_input, grad_check, segment_tags
from synthdata import stance_corpus
from topicarg import autodiff as ad
from topicarg import encoder as encoder_mod
from topicarg.corpus import LABELS, ArgumentExample, build_vocabulary, tokenize
from topicarg.encoder import (
    CLS,
    SEGMENTS,
    SEP,
    UNK,
    EncoderConfig,
    EncoderInputs,
    build_encoder_vocab,
    build_inputs,
    classify_graph,
    encode_batch,
    encode_batch_graph,
    init_encoder,
    labels_of,
    non_sentence_length,
    predict,
    predict_proba,
    vocabulary_rows,
    write_predictions,
)
from topicarg.nn import EPS, SeededRng, mlp_forward
from topicarg.topics import ExtractedTopics


# Per-example oracles: one input at a time, as `oracles.build_input` gives it:
# (token ids, segment lengths), each segment pooled in numpy by its own mean.
def encode_graph(params: dict, cfg: EncoderConfig, enc_input) -> ad.Tensor:
    """Encode of one input: h as a (1, d_h) Tensor; pooling is not differentiated."""
    ids = np.asarray(enc_input[0], dtype=np.int64)
    if ids.size and ids.max() >= cfg.vocab_size:
        raise IndexError(f"token id {ids.max()} outside embedding range")
    segs = np.repeat(np.arange(len(SEGMENTS)), enc_input[1])
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


def encode(params, enc_input) -> np.ndarray:
    return encode_graph(params.params, params.cfg, enc_input).data[0]


@dataclass
class ClassPrediction:
    probabilities: np.ndarray  # (3,) over (support, oppose, none)
    predicted: str


def classify(params, h: np.ndarray) -> ClassPrediction:
    """Softmax over three logits; ties broken by label order (support first)."""
    probs = classify_graph(params.params, params.cfg, ad.constant(np.atleast_2d(h))).data[0]
    return ClassPrediction(probabilities=probs, predicted=LABELS[int(np.argmax(probs))])


def as_inputs(built) -> EncoderInputs:
    """`oracles.build_input` results joined into one EncoderInputs."""
    ids = np.array([i for x, _ in built for i in x], dtype=np.int64)
    return EncoderInputs(ids, np.array([n for _, n in built], dtype=np.int64).reshape(-1, 3))


def inputs_of(enc_vocab, *rows, max_len=16) -> EncoderInputs:
    """EncoderInputs of (sentence, target, topic terms) rows, built one at a time."""
    return as_inputs([build_input(*row, enc_vocab, max_len) for row in rows])


def example_of(sentence, target="river dams") -> ArgumentExample:
    return ArgumentExample(target, tuple(sentence), "none", " ".join(sentence))


def topics(*terms) -> ExtractedTopics:
    return ExtractedTopics(0, terms, (1.0,) * len(terms), 0.0)


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
        out = build_inputs([example_of(["water", "flood"])],
                           {"river dams": topics("turbine", "fish")}, enc_vocab, 32, True)
        words = [enc_vocab.id_to_word[i] for i in out.ids]
        assert words == [CLS, "water", "flood", SEP, "river", "dams", SEP, "turbine", "fish"]
        assert out.lengths.tolist() == [[4, 3, 2]]

    def test_empty_topics_two_segments(self, enc_vocab):
        for terms, use_topics in (((), True), (("fish",), False)):
            out = build_inputs([example_of(["water"], "river")], {"river": topics(*terms)},
                               enc_vocab, 32, use_topics)
            assert [enc_vocab.id_to_word[i] for i in out.ids] == [CLS, "water", SEP, "river"]
            assert out.lengths.tolist() == [[3, 1, 0]]

    def test_truncation_removes_sentence_tail_only(self, enc_vocab):
        out = build_inputs([example_of(["water"] * 50), example_of(["flood"] * 3)],
                           {"river dams": topics("turbine", "fish")}, enc_vocab, 16, True)
        words = [enc_vocab.id_to_word[i] for i in out.ids]
        assert out.lengths.tolist() == [[11, 3, 2], [5, 3, 2]]
        assert words[:16][-3:] == [SEP, "turbine", "fish"]  # topics intact
        assert words[:16].count("water") == 16 - 7

    def test_max_len_too_small(self, enc_vocab):
        with pytest.raises(ValueError, match=r"^max_len=8 cannot fit the non-sentence "
                                             r"segments \(12 tokens\)$"):
            build_inputs([example_of(["water"], " ".join(["river"] * 10))], {}, enc_vocab, 8, False)

    def test_oov_maps_to_unk(self, enc_vocab):
        out = build_inputs([example_of(["qqqqzz"], "river")], {}, enc_vocab, 16, False)
        assert out.ids[1] == enc_vocab.index_of[UNK]

    def test_determinism(self, enc_vocab):
        args = ([example_of(["water", "flood"], "river")], {"river": topics("fish")}, enc_vocab,
                20, True)
        a, b = build_inputs(*args), build_inputs(*args)
        assert a.ids.tobytes() == b.ids.tobytes() and a.lengths.tobytes() == b.lengths.tobytes()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EncoderInputs(np.array([1, 2]), np.array([[1, 0, 0]]))

    @pytest.mark.parametrize(
        "segments",
        [(-1, 3, 0), (1, 0, 0, 1), (), (2,), (1, 1), (1.0, 1, 0), (0, 0, 0), (3, 0, 0)],
    )
    def test_segment_outside_the_layout_rejected(self, segments):
        with pytest.raises(ValueError, match=r"must be \(N, 3\) ints >= 0 summing to len\(ids\)=2"):
            EncoderInputs(np.array([1, 2]), np.array([segments]))


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
        a, b = encode_batch(enc, inputs_of(
            enc_vocab, (["water"], ["river"], ()), (["rocket", "metal"], ["ore"], ()),
        ))
        assert np.allclose(a, 0.25)
        assert np.array_equal(a, b)

    def test_permutation_within_segment_invariant(self, enc, enc_vocab):
        t = ("fish", "turbine")
        a, b = encode_batch(enc, inputs_of(
            enc_vocab, (["water", "flood", "river"], ["dams"], t),
            (["river", "water", "flood"], ["dams"], t), max_len=32,
        ))
        assert np.allclose(a, b)

    def test_batch_matches_single(self, enc, enc_vocab):
        rows = [(["water", "flood"], ["river"], ()), (["rocket"], ["ore", "metal"], ("probe",))]
        batch = encode_batch(enc, inputs_of(enc_vocab, *rows))
        for i, row in enumerate(rows):
            assert np.allclose(batch[i], encode(enc, build_input(*row, enc_vocab, 16)), atol=1e-12)

    def test_unknown_token_id_rejected(self, enc, enc_vocab):
        good = build_input(["water"], ["river"], (), enc_vocab, 16)
        with pytest.raises(IndexError):
            encode_batch(enc, as_inputs([good, ((10 ** 6,), (1, 0, 0))]))

    def test_determinism(self, enc, enc_vocab):
        x = inputs_of(enc_vocab, (["water"], ["river"], ()))
        assert np.array_equal(encode_batch(enc, x), encode_batch(enc, x))


class TestClassify:
    @pytest.fixture
    def inputs(self, enc_vocab):
        return inputs_of(
            enc_vocab, (["water", "flood"], ["river"], ("fish",)), (["rocket"], ["ore"], ()),
        )

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
        inputs = inputs_of(
            enc_vocab, (["water", "flood"], ["river"], ("fish",)), (["rocket", "ore"], ["metal"], ()),
        )
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
        batch = encode_batch_graph(enc.params, enc.cfg, as_inputs([x])).data
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
    built = [
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
        probs = predict_proba(enc, as_inputs(built))
        labels = predict(enc, as_inputs(built))
    oracle = [classify(enc, encode(enc, x)) for x in built]
    assert probs.shape == (n, 3)
    assert np.all(np.abs(probs - np.array([o.probabilities for o in oracle]).reshape(n, 3)) <= 1e-12)
    assert labels == [o.predicted for o in oracle]


# the fixture is only read, so sharing it across examples is safe
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lengths=st.lists(st.tuples(*[st.integers(0, 5)] * 3), min_size=1, max_size=12),
    distinct=st.integers(1, 8),
    chunk=st.integers(1, 13),
    seed=st.integers(0, 2**16),
)
@example(lengths=[(0, 0, 0), (3, 0, 2), (0, 2, 0), (1, 1, 0)], distinct=1, chunk=2, seed=0)
def test_pooled_encode_equals_the_per_token_oracle(enc, monkeypatch, lengths, distinct, chunk, seed):
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths, dtype=np.int64)
    # a few distinct ids, so segments repeat them
    ids = rng.choice(rng.choice(enc.cfg.vocab_size, distinct, replace=False), lengths.sum())
    inputs = EncoderInputs(ids, lengths)
    pooled = []
    with monkeypatch.context() as m:
        m.setattr(encoder_mod, "ENCODE_CHUNK", chunk)  # small chunks cross boundaries
        m.setattr(encoder_mod, "mlp_forward",
                  lambda *args, **kw: pooled.append(args[2].data) or mlp_forward(*args, **kw))
        h = encoder_mod.encode_all(enc, inputs)
    per_input = np.split(ids, np.cumsum(lengths.sum(axis=1))[:-1])
    oracle = np.array([encode(enc, (x, n)) for x, n in zip(per_input, lengths)])
    assert np.all(np.abs(h - oracle) <= 1e-12)
    blocks = np.concatenate(pooled).reshape(len(lengths), len(SEGMENTS), enc.cfg.emb_dim)
    assert not blocks[lengths == 0].any()  # an absent segment's block, segment term included
    leaves = ad.lift(enc.params)
    h_graph = encode_batch_graph(leaves, enc.cfg, inputs)
    ad.tensor_sum(h_graph * ad.constant(rng.normal(size=h.shape))).backward()
    grads = ad.grads_of(leaves)
    assert isinstance(grads["word_emb"], ad.RowSparse)
    assert np.array_equal(grads["word_emb"].rows, np.unique(ids))
    assert type(grads["seg_emb"]) is np.ndarray
    assert grads["seg_emb"].shape == (len(SEGMENTS), enc.cfg.emb_dim)


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
    args = ([example_of(sentence, " ".join(target))], {" ".join(target): topics(*topic_terms)},
            enc_vocab, max_len, True)
    if max_len < non_sentence_length(len(target), len(topic_terms)):
        with pytest.raises(ValueError, match="cannot fit"):
            build_inputs(*args)
        return
    x = build_inputs(*args)
    tags = segment_tags(sentence, target, topic_terms, max_len)
    assert tuple(np.repeat(np.arange(3), x.lengths[0])) == tags
    assert len(x.ids) == len(tags) <= max_len


# targets with OOV words, none at all, and one that shares a word with another
_TARGETS = ("river dams", "", "qqqqzz flood", "dams")


def _oracle_inputs(examples, by_target, enc_vocab, max_len, use_topics) -> EncoderInputs:
    return as_inputs([
        build_input(ex.tokens, tokenize(ex.target, mode="encoder"),
                    by_target[ex.target].terms if use_topics else (), enc_vocab, max_len)
        for ex in examples
    ])


def _same(a: EncoderInputs, b: EncoderInputs) -> bool:
    return (a.ids.dtype == b.ids.dtype == a.lengths.dtype == b.lengths.dtype == np.int64
            and a.lengths.shape == b.lengths.shape
            and a.ids.tobytes() == b.ids.tobytes() and a.lengths.tobytes() == b.lengths.tobytes())


# the fixture is only read, so sharing it across examples is safe
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(st.tuples(st.sampled_from(_TARGETS), _WORDS), max_size=8),
    terms=st.fixed_dictionaries({t: _WORDS for t in _TARGETS}),
    max_len=st.integers(2, 40),
    use_topics=st.booleans(),
)
@example(rows=[("", [])], terms={t: [] for t in _TARGETS}, max_len=2, use_topics=True)
@example(rows=[("river dams", ["water"] * 12), ("dams", ["qqqqzz"])],
         terms={**{t: [] for t in _TARGETS}, "river dams": ["fish", "qqqqzz"]},
         max_len=9, use_topics=True)
@example(rows=[("river dams", ["water"])], terms={t: ["fish"] for t in _TARGETS}, max_len=4,
         use_topics=False)
def test_build_inputs_equals_the_per_example_oracle(enc_vocab, rows, terms, max_len, use_topics):
    examples = [example_of(sentence, target) for target, sentence in rows]
    by_target = {t: topics(*ws) for t, ws in terms.items()}
    args = (examples, by_target, enc_vocab, max_len, use_topics)
    try:
        expected = _oracle_inputs(*args)
    except ValueError as err:  # the first example whose target cannot fit names it
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            build_inputs(*args)
        return
    assert _same(build_inputs(*args), expected)


# the fixture is only read, so sharing it across examples is safe
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(st.tuples(st.sampled_from(_TARGETS), _WORDS), max_size=8),
    max_len=st.integers(9, 20),
    data=st.data(),
)
def test_gathered_inputs_equal_the_inputs_built_from_those_examples(enc_vocab, rows, max_len, data):
    examples = [example_of(sentence, target) for target, sentence in rows]
    by_target = {t: topics(*t.split()[:1], "fish") for t in _TARGETS}
    n = len(examples)
    picks = data.draw(st.one_of(
        st.slices(n), st.lists(st.integers(0, n - 1), max_size=12) if n else st.just([])
    ))
    if isinstance(picks, list):
        picks = np.array(picks, dtype=np.int64)
    chosen = [examples[i] for i in np.arange(n)[picks]]
    inputs = build_inputs(examples, by_target, enc_vocab, max_len, True)
    assert _same(inputs[picks], build_inputs(chosen, by_target, enc_vocab, max_len, True))


def test_labels_break_ties_by_label_order():
    assert labels_of(np.array([[0.4, 0.4, 0.2], [0.3, 0.35, 0.35], [1 / 3] * 3])) == [
        "support", "oppose", "support"
    ]


def test_predict_and_prediction_tsv(tmp_path, enc, enc_vocab):
    from topicarg.corpus import examples_from_records

    records = stance_corpus(n_per_cell=5, seed=1)[:6]
    examples = examples_from_records(records)
    inputs = build_inputs(examples, {}, enc_vocab, 64, False)
    preds = predict(enc, inputs)
    assert len(preds) == 6
    probs = predict_proba(enc, inputs)
    path = tmp_path / "preds.tsv"
    write_predictions(path, examples, preds, probs)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 7
    assert lines[0].startswith("target\tsentence\tgold\tpredicted")
