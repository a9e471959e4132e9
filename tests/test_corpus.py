import logging
import re
from collections import Counter
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import oracles
from oracles import example_from_record, make_cross_target_split
from synthdata import stance_corpus, write_tsv
from topicarg import corpus
from topicarg.corpus import (
    ANNOTATION_TO_LABEL,
    CorpusFormatError,
    DatasetSplit,
    RawRecord,
    Vocabulary,
    build_vocabulary,
    examples_from_records,
    label_counts,
    load_tsv,
    SPLIT_TAGS,
    make_cross_target_splits,
    make_in_target_folds,
    target_counts,
    tokenize,
    vectorize_all,
)
from topicarg.encoder import build_encoder_vocab
from topicarg.nn import SeededRng
from topicarg.stopwords import DEFAULT_STOPWORDS

_REFERENCE_PUNCT_RE = re.compile(r"[^\w\s]", flags=re.UNICODE)


def reference_tokenize(text, mode="encoder"):
    """The regex tokenizer `tokenize` must agree with on every input."""
    if mode not in ("ntm", "encoder"):
        raise ValueError(f"unknown tokenize mode {mode!r}")
    tokens = _REFERENCE_PUNCT_RE.sub("", text.lower()).split()
    if mode == "ntm":
        tokens = [t for t in tokens if len(t) >= 2 and t not in DEFAULT_STOPWORDS]
    return tokens


def reference_vectorize_all(token_seqs, vocab):
    """Row-by-row `Counter` BoW stacking that `vectorize_all` must equal byte for byte."""
    data: list[int] = []
    indices: list[int] = []
    indptr = [0]
    for tokens in token_seqs:
        row = Counter(vocab.index_of[t] for t in tokens if t in vocab.index_of)
        for idx in sorted(row):
            indices.append(idx)
            data.append(row[idx])
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data, dtype=np.int64), np.array(indices), np.array(indptr)),
        shape=(len(indptr) - 1, vocab.size),
    )


def rec(target="guns", sentence="a sentence", annotation="NoArgument", split="train"):
    return RawRecord(target, sentence, annotation, split)


class TestLoadTsv:
    def test_round_trip_counts(self, tmp_path):
        records = stance_corpus(n_per_cell=10, seed=3)
        path = tmp_path / "corpus.tsv"
        write_tsv(records, path)
        loaded = load_tsv(path)
        assert len(loaded) == len(records) == 60
        assert label_counts(loaded) == {"support": 20, "oppose": 20, "none": 20}
        assert target_counts(loaded) == {"river dams": 30, "space mining": 30}

    def test_filter_by_target(self, tmp_path):
        records = stance_corpus(n_per_cell=10, seed=3)
        path = tmp_path / "corpus.tsv"
        write_tsv(records, path)
        loaded = load_tsv(path)
        assert sum(1 for r in loaded if r.target == "river dams") == 30

    def test_header_only_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("topic\tsentence\tannotation\tset\n")
        assert load_tsv(path) == []

    def test_unknown_annotation_rejected_and_counted(self, tmp_path, caplog):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "topic\tsentence\tannotation\tset\n"
            "guns\tok sentence\tNoArgument\ttrain\n"
            "guns\tweird sentence\tMaybeArgument\ttrain\n"
        )
        with caplog.at_level(logging.WARNING):
            records = load_tsv(path)
        assert len(records) == 1
        assert "rejected 1" in caplog.text

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "nocol.tsv"
        path.write_text("topic\tsentence\tset\nguns\thello\ttrain\n")
        with pytest.raises(CorpusFormatError, match="annotation"):
            load_tsv(path)

    @pytest.mark.parametrize("column", ["topic", "sentence", "annotation", "set"])
    def test_repeated_required_column_is_refused(self, tmp_path, column):
        """Refused, not read from its last repeat: a second `topic` once loaded target 'y'."""
        path = tmp_path / "twice.tsv"
        path.write_text(f"topic\tsentence\tannotation\tset\t{column}\n"
                        "x\thello world\tNoArgument\ttrain\ty\n")
        with pytest.raises(CorpusFormatError) as err:
            load_tsv(path)
        assert str(err.value) == f"{path}: column {column!r} appears 2 times"

    def test_repeated_other_column_is_ignored(self, tmp_path):
        path = tmp_path / "twice.tsv"
        path.write_text("topic\tnote\tsentence\tannotation\tset\tnote\n"
                        "x\ta\thello world\tNoArgument\ttrain\tb\n")
        assert [r.target for r in load_tsv(path)] == ["x"]

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "short.tsv"
        path.write_text(
            "topic\tsentence\tannotation\tset\n"
            "guns\tgood row\tNoArgument\ttrain\n"
            "guns\tonly two fields\n"
        )
        with pytest.raises(CorpusFormatError, match=":3:"):
            load_tsv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_tsv(tmp_path / "missing.tsv")

    @pytest.mark.parametrize("offset", [0, 38_175])
    def test_invalid_byte_is_named_by_its_file_offset_and_line(self, tmp_path, offset):
        """Past the decoder's first read chunk too, where its own position is chunk-relative."""
        path = tmp_path / "corpus.tsv"
        write_tsv(stance_corpus(n_per_cell=50, seed=9), path)
        data = bytearray(path.read_bytes())
        assert len(data) > offset and data[offset] != ord("\n")
        data[offset] = 0xFF
        path.write_bytes(data)
        line = data.count(b"\n", 0, offset) + 1
        with pytest.raises(ValueError) as err:
            load_tsv(path)
        assert str(err.value) == (
            f"{path} is not UTF-8 text (line {line}: 'utf-8' codec can't decode byte 0xff "
            f"in position {offset}: invalid start byte)"
        )

    def test_extra_columns_ignored(self, tmp_path):
        records = stance_corpus(n_per_cell=5, seed=0)
        with_extra = tmp_path / "extra.tsv"
        without = tmp_path / "plain.tsv"
        write_tsv(records, with_extra, extra_column=True)
        write_tsv(records, without, extra_column=False)
        assert load_tsv(with_extra) == load_tsv(without)


class TestTokenize:
    def test_ntm_strips_punctuation_and_lowercases(self):
        assert tokenize("Guns kill people.", mode="ntm") == ["guns", "kill", "people"]

    def test_empty_text(self):
        assert tokenize("", mode="ntm") == []
        assert tokenize("", mode="encoder") == []

    def test_stopwords_removed_in_ntm_mode(self):
        assert tokenize("The the THE", mode="ntm") == []

    def test_encoder_mode_keeps_stopwords_and_short_tokens(self):
        assert tokenize("The cat, a hat!", mode="encoder") == ["the", "cat", "a", "hat"]

    def test_short_tokens_dropped_in_ntm_mode(self):
        assert tokenize("x yz", mode="ntm") == ["yz"]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tokenize("text", mode="characters")


# Every ASCII character (controls such as \t\v\f and \x1c-\x1f, which
# str.split treats as whitespace, included), non-ASCII letters, punctuation and
# spaces, 'İ' (whose lowercase is two characters, one a combining mark) and
# the Kelvin sign (whose lowercase is ASCII 'k').
TOKENIZE_CHARS = [chr(c) for c in range(128)] + list(
    "éßΩжǅ٣ⅷ«»—’¿。\u00a0\u2028\u3000İ\u212a\u0307"
)
TOKENIZE_WORDS = [
    "The", "ABOUT", "a", "I", "x", "it's", "don't", "alpha", "beta", "Beta",
    "naïve", "café", "İstanbul", "\u212aelvin", "o_o", "42",
]
text_strategy = st.lists(
    st.one_of(
        st.sampled_from(TOKENIZE_WORDS),
        st.text(alphabet=st.sampled_from(TOKENIZE_CHARS), max_size=6),
    ),
    max_size=10,
).map(" ".join)


@settings(max_examples=600, deadline=None)
@given(
    text=text_strategy,
    mode=st.sampled_from(["encoder", "ntm"]),
)
@example(text="a\x1cb\x1dcd\x1e\x1fef\tgh\vij\fkl", mode="ntm")
@example(text="\u212a \u212aelvin THE i", mode="ntm")
@example(text="İ İstanbul'un i", mode="ntm")
@example(text="x y_z, the ... 9", mode="ntm")
def test_tokenize_equals_reference(text, mode):
    tokens = tokenize(text, mode=mode)
    assert type(tokens) is list
    assert tokens == reference_tokenize(text, mode=mode)


# Pieces a sentence is glued from, so that texts meet at every kind of edge:
# 'Σ' lowercases to final 'ς' only after a cased letter (case-ignorable
# characters such as the apostrophe in between) and before no cased letter.
JOIN_PIECES = TOKENIZE_WORDS + ["", "Σ", "ΑΣ", "ΟΔΟΣ", "Α'Σ", "ΣΑ", "Σ.", ".Σ", "'", "--"]
JOIN_CHARS = TOKENIZE_CHARS + ["Σ", "Α"]
sentence_strategy = st.lists(
    st.one_of(
        st.sampled_from(JOIN_PIECES),
        st.text(alphabet=st.sampled_from(JOIN_CHARS), max_size=4),
    ),
    max_size=4,
).map("".join)


@settings(max_examples=600, deadline=None)
@given(
    texts=st.lists(sentence_strategy, max_size=6),
    mode=st.sampled_from(["encoder", "ntm"]),
)
@example(texts=["ΑΣ", "Β"], mode="encoder")
@example(texts=["Α", "ΣΑ"], mode="encoder")
@example(texts=["Α'", "Σ", "'Σ", "ΑΣ'"], mode="encoder")
@example(texts=["a\x1c", "\x1fb", "", "\xa0c\u2028", "\u212aİ"], mode="ntm")
def test_tokenize_of_joined_texts_is_their_tokens_chained(texts, mode):
    assert tokenize(" ".join(texts), mode=mode) == list(
        chain.from_iterable(tokenize(t, mode=mode) for t in texts)
    )


TARGETS = ["guns", "Nuclear Energy", "İstanbul dams", "ΟΔΟΣ", "the, a"]
records_strategy = st.lists(
    st.tuples(st.sampled_from(TARGETS), sentence_strategy), max_size=8
).map(lambda rows: [rec(target=t, sentence=s) for t, s in rows])


@settings(max_examples=300, deadline=None)
@given(
    records=records_strategy,
    max_size=st.integers(1, 40),
    chunk=st.sampled_from([1, 2, 3, corpus._COUNT_CHUNK]),
)
@example(records=[rec(sentence="bb aa cc bb aa")], max_size=1, chunk=1)
@example(records=[rec(sentence=s) for s in ["bb aa", "ΟΔΟΣ aa", "cc, bb", "the é", "aa"]],
         max_size=40, chunk=2)
def test_vocabularies_equal_the_per_record_references(records, max_size, chunk):
    with mock.patch.object(corpus, "_COUNT_CHUNK", chunk):
        if not records:
            with pytest.raises(ValueError, match="zero records"):
                build_vocabulary(records, max_size)
            ntm_vocab = Vocabulary({}, [])
        else:
            ntm_vocab = build_vocabulary(records, max_size)
            expected = oracles.build_vocabulary(records, max_size)
            assert ntm_vocab.id_to_word == expected.id_to_word
            assert ntm_vocab.index_of == expected.index_of
        enc_vocab = build_encoder_vocab(records, max_size, ntm_vocab=ntm_vocab)
        expected = oracles.build_encoder_vocab(records, max_size, ntm_vocab=ntm_vocab)
        assert enc_vocab.id_to_word == expected.id_to_word
        assert enc_vocab.index_of == expected.index_of


def test_count_tokens_joins_ascii_texts_apart_from_the_others():
    texts = ["a b", "é c", "d", "ΑΣ", "e, f", "g"]
    with mock.patch.object(corpus, "_COUNT_CHUNK", 2), \
            mock.patch.object(corpus, "tokenize", wraps=corpus.tokenize) as spy:
        freq = corpus.count_tokens(iter(texts))
    assert [c.args for c in spy.call_args_list] == [("é c ΑΣ",), ("a b d",), ("e, f g",)]
    assert freq == Counter(chain.from_iterable(map(tokenize, texts)))


@settings(max_examples=200, deadline=None)
@given(records=records_strategy)
def test_examples_equal_the_reference_and_share_equal_tokens(records):
    examples = examples_from_records(records)
    assert examples == [example_from_record(r) for r in records]
    first = {}
    for ex in examples:
        for token in ex.tokens:
            assert first.setdefault(token, token) is token


def test_records_and_examples_hold_no_instance_dict():
    assert not hasattr(rec(), "__dict__")
    assert not hasattr(examples_from_records([rec()])[0], "__dict__")


def _csr_bytes(mat):
    return [
        (a.dtype.str, a.tobytes()) for a in (mat.data, mat.indices, mat.indptr)
    ] + [mat.shape, mat.has_sorted_indices]


@settings(max_examples=200, deadline=None)
@given(
    seqs=st.lists(
        st.lists(st.sampled_from([f"w{i}" for i in range(5)] + ["oov", "w"]), max_size=12)
        .flatmap(lambda seq: st.sampled_from([seq, tuple(seq)])),
        max_size=8,
    ),
    size=st.integers(1, 5),
)
def test_vectorize_all_equals_reference_bytes(seqs, size):
    words = [f"w{i}" for i in range(size)]
    vocab = Vocabulary({w: i for i, w in enumerate(words)}, words)
    assert _csr_bytes(vectorize_all(seqs, vocab)) == _csr_bytes(
        reference_vectorize_all(seqs, vocab)
    )


class TestVocabulary:
    def test_frequency_then_lexicographic(self):
        records = [rec(sentence="aa bb bb")]
        vocab = build_vocabulary(records, max_size=10)
        assert vocab.index_of == {"bb": 0, "aa": 1}

    def test_truncation_to_max_size(self):
        records = [rec(sentence="aa bb bb")]
        vocab = build_vocabulary(records, max_size=1)
        assert vocab.index_of == {"bb": 0}

    def test_no_stopword_appears(self):
        records = [rec(sentence="the gun control debate about guns")]
        vocab = build_vocabulary(records, max_size=50)
        assert "the" not in vocab
        assert "about" not in vocab
        assert "gun" in vocab

    def test_size_cap_and_determinism(self):
        records = stance_corpus(n_per_cell=20, seed=1)
        v1 = build_vocabulary(records, max_size=15)
        v2 = build_vocabulary(records, max_size=15)
        assert v1.size == 15
        assert v1.index_of == v2.index_of
        assert v1.id_to_word == v2.id_to_word

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_vocabulary([rec()], max_size=0)
        with pytest.raises(ValueError):
            build_vocabulary([], max_size=5)

    def test_tsv_round_trip(self, tmp_path):
        records = stance_corpus(n_per_cell=5, seed=1)
        vocab = build_vocabulary(records, max_size=20)
        vocab.to_tsv(tmp_path / "vocab.tsv")
        from topicarg.corpus import Vocabulary

        again = Vocabulary.from_tsv(tmp_path / "vocab.tsv")
        assert again.index_of == vocab.index_of
        assert again.id_to_word == vocab.id_to_word


def vectorize(tokens, vocab: Vocabulary) -> np.ndarray:
    """Oracle: bag-of-words counts over the vocabulary; OOV tokens are ignored."""
    counts = np.zeros(vocab.size, dtype=np.int64)
    for t in tokens:
        idx = vocab.index_of.get(t)
        if idx is not None:
            counts[idx] += 1
    return counts


def reference_in_target_folds(examples, k, seed):
    """Oracle: the set-membership fold assembly `make_in_target_folds` replaced."""
    order = SeededRng(seed).permutation(len(examples))
    folds = np.array_split(order, k)
    splits = []
    for i in range(k):
        test_idx = folds[i]
        val_idx = folds[(i + 1) % k]
        rest = set(test_idx) | set(val_idx)
        train_idx = [j for j in order if j not in rest]
        splits.append(
            DatasetSplit(
                train=[examples[j] for j in train_idx],
                val=[examples[j] for j in val_idx],
                test=[examples[j] for j in test_idx],
            )
        )
    return splits


class TestVectorize:
    def test_counts(self, tiny_vocab):
        counts = vectorize(["w0", "w1", "w0"], tiny_vocab)
        assert counts[0] == 2 and counts[1] == 1 and counts[2:].sum() == 0

    def test_all_oov_gives_zero_vector(self, tiny_vocab):
        assert vectorize(["zzz", "qqq"], tiny_vocab).sum() == 0

    def test_purity(self, tiny_vocab):
        tokens = ["w0", "w5", "w5"]
        assert np.array_equal(vectorize(tokens, tiny_vocab), vectorize(tokens, tiny_vocab))

    def test_sum_equals_in_vocab_token_count(self, tiny_vocab):
        tokens = ["w0", "w1", "oov", "w1"]
        assert vectorize(tokens, tiny_vocab).sum() == 3

    def test_vectorize_all_matches_vectorize(self, tiny_vocab):
        seqs = [["w0", "w1"], [], ["w2", "w2", "oov"]]
        mat = vectorize_all(seqs, tiny_vocab)
        assert mat.shape == (3, tiny_vocab.size)
        for i, seq in enumerate(seqs):
            assert np.array_equal(
                np.asarray(mat[i].todense()).ravel(), vectorize(seq, tiny_vocab)
            )


class TestInTargetFolds:
    def _examples(self, n=100):
        return examples_from_records(
            [rec(sentence=f"sentence number {i} of text") for i in range(n)]
        )

    def test_partition_property(self):
        examples = self._examples(100)
        splits = make_in_target_folds(examples, k=10, seed=0)
        assert len(splits) == 10
        all_test = [ex for s in splits for ex in s.test]
        assert len(all_test) == 100
        assert {id(e) for e in all_test} == {id(e) for e in examples}
        for s in splits:
            assert len(s.test) == 10
            ids = {id(e) for e in s.train} | {id(e) for e in s.val} | {id(e) for e in s.test}
            assert len(ids) == 100
            assert not ({id(e) for e in s.train} & {id(e) for e in s.test})
            assert not ({id(e) for e in s.val} & {id(e) for e in s.test})

    def test_same_seed_same_folds(self):
        examples = self._examples(37)
        a = make_in_target_folds(examples, k=5, seed=9)
        b = make_in_target_folds(examples, k=5, seed=9)
        for sa, sb in zip(a, b):
            assert [id(e) for e in sa.test] == [id(e) for e in sb.test]
            assert [id(e) for e in sa.train] == [id(e) for e in sb.train]

    def test_different_seed_differs(self):
        examples = self._examples(50)
        a = make_in_target_folds(examples, k=5, seed=1)
        b = make_in_target_folds(examples, k=5, seed=2)
        assert any(
            [id(e) for e in sa.test] != [id(e) for e in sb.test] for sa, sb in zip(a, b)
        )

    def test_preconditions(self):
        examples = self._examples(5)
        with pytest.raises(ValueError):
            make_in_target_folds(examples, k=10, seed=0)
        with pytest.raises(ValueError):
            make_in_target_folds(examples, k=1, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 120), k=st.integers(3, 12), seed=st.integers(0, 2**16))
    def test_equals_set_membership_oracle(self, n, k, seed):
        k = min(k, n)
        examples = self._examples(n)
        splits = make_in_target_folds(examples, k, seed)
        expected = reference_in_target_folds(examples, k, seed)
        assert splits == expected
        for got, want in zip(splits, expected):
            for role in ("train", "val", "test"):
                assert list(map(id, getattr(got, role))) == list(map(id, getattr(want, role)))

    def test_two_folds_rejected_for_an_empty_train_set(self):
        with pytest.raises(ValueError, match="k must be >= 3 .*training fold"):
            make_in_target_folds(self._examples(10), k=2, seed=0)
        assert all(s.train for s in make_in_target_folds(self._examples(10), k=3, seed=0))


def cross_target_split(records, held_out):
    """The split of `make_cross_target_splits` that holds out `held_out`."""
    splits = make_cross_target_splits(records, examples_from_records(records))
    (split,) = [s for s in splits if s.held_out_target == held_out]
    return split


class TestCrossTargetSplit:
    def test_held_out_excluded_from_train_and_val(self):
        records = stance_corpus(n_per_cell=10, seed=0)
        split = cross_target_split(records, "river dams")
        assert split.held_out_target == "river dams"
        assert all(ex.target != "river dams" for ex in split.train)
        assert all(ex.target != "river dams" for ex in split.val)
        assert all(ex.target == "river dams" for ex in split.test)
        assert split.test, "held-out test slice must not be empty"

    def test_split_tags_respected(self):
        records = stance_corpus(n_per_cell=10, seed=0)
        split = cross_target_split(records, "space mining")
        n_other_train = sum(
            1 for r in records if r.target != "space mining" and r.split_tag == "train"
        )
        n_held_test = sum(
            1 for r in records if r.target == "space mining" and r.split_tag == "test"
        )
        assert len(split.train) == n_other_train
        assert len(split.test) == n_held_test

    def test_all_targets_covered_once(self):
        records = stance_corpus(n_per_cell=10, seed=0)
        targets = sorted({r.target for r in records})
        splits = make_cross_target_splits(records, examples_from_records(records))
        assert [s.held_out_target for s in splits] == targets
        test_targets = [t for s in splits for t in {ex.target for ex in s.test}]
        assert test_targets == targets

    def test_bad_split_tag_raises(self):
        records = [rec(split="holdout"), rec(split="train")]
        with pytest.raises(CorpusFormatError, match=r"\['holdout'\]"):
            make_cross_target_splits(records, examples_from_records(records))

    def test_length_mismatch_raises(self):
        records = stance_corpus(n_per_cell=2, seed=0)
        examples = examples_from_records(records)
        with pytest.raises(ValueError, match="records but"):
            make_cross_target_splits(records, examples[:-1])

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["guns", "nuclear energy", "abortion"]),
                st.sampled_from(SPLIT_TAGS),
                st.sampled_from(sorted(ANNOTATION_TO_LABEL)),
                st.sampled_from(["Guns kill.", "Energy is cheap!", "a b c", "ok"]),
            ),
            max_size=30,
        )
    )
    def test_equals_reference_for_every_sorted_target(self, rows):
        records = [rec(target, sentence, annotation, tag)
                   for target, tag, annotation, sentence in rows]
        splits = make_cross_target_splits(records, examples_from_records(records))
        targets = sorted({r.target for r in records})
        assert len(splits) == len(targets)
        for target, split in zip(targets, splits):
            assert split == make_cross_target_split(records, target)


def test_write_split_jsonl(tmp_path):
    import json

    from topicarg.corpus import write_examples_jsonl

    records = stance_corpus(n_per_cell=10, seed=0)
    split = cross_target_split(records, "river dams")
    path = tmp_path / "split.jsonl"
    rows = [(role, ex) for role in SPLIT_TAGS for ex in getattr(split, role)]
    write_examples_jsonl(path, rows)
    lines = [json.loads(line) for line in path.read_text().strip().split("\n")]
    assert len(lines) == len(split.train) + len(split.val) + len(split.test)
    assert [r["role"] for r in lines] == [role for role, _ in rows]
    assert all(set(r) == {"target", "label", "role", "tokens"} for r in lines)
    assert all(r["tokens"] == list(ex.tokens) for r, (_, ex) in zip(lines, rows))
    test_rows = [r for r in lines if r["role"] == "test"]
    assert all(r["target"] == "river dams" for r in test_rows)


class TestLabelMap:
    def test_total_over_known_annotations(self):
        assert set(ANNOTATION_TO_LABEL.values()) == {"support", "oppose", "none"}
        for annotation in ("Argument_for", "Argument_against", "NoArgument"):
            ex = examples_from_records([rec(annotation=annotation)])[0]
            assert ex.label == ANNOTATION_TO_LABEL[annotation]

    def test_example_tokens_are_encoder_mode(self):
        ex = examples_from_records([rec(sentence="The Guns!")])[0]
        assert ex.tokens == ("the", "guns")
        assert ex.text == "The Guns!"
