"""Deterministic synthetic corpus shaped like UKP ArgMin (Stab et al. 2018).

25,492 sentences over the eight UKP targets with the paper's per-target and
per-label counts, split tags near 70/10/20 and 8-40 tokens per sentence. The
background vocabulary is Zipfian, large enough that the NTM vocabulary caps at
4,888 words and the encoder vocabulary reaches its 30k cap. Each target owns a
block of target-specific words, and sentences name the target itself, so topic
extraction finds every target in the NTM vocabulary; a plain Zipf corpus would
leave every target on the empty-topics fallback.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from topicarg.corpus import LABELS, RawRecord, label_counts, target_counts
from topicarg.stopwords import DEFAULT_STOPWORDS

TARGET_COUNTS = {
    "abortion": 3929,
    "cloning": 3039,
    "death penalty": 3651,
    "gun control": 3341,
    "marijuana legalization": 2475,
    "minimum wage": 2473,
    "nuclear energy": 3576,
    "school uniforms": 3008,
}
LABEL_COUNTS = {"support": 4944, "oppose": 6195, "none": 14353}
ANNOTATION_OF = {"support": "Argument_for", "oppose": "Argument_against", "none": "NoArgument"}
N_SENTENCES = 25492
SENTENCE_LEN = (8, 40)
SPLIT_SHARES = (0.7, 0.1)  # train, val; test takes the rest

BACKGROUND_WORDS = 60000
ZIPF_EXPONENT = 1.05
TARGET_WORDS_EACH = 60  # target-specific words per target
CLASS_WORDS_EACH = 20  # stance indicator words per label
# token mix: stopword, target-specific word, class word, background word
MIX = (0.30, 0.15, 0.05, 0.50)
P_NAMES_TARGET = 0.5

_STOP_SAMPLE = sorted(w for w in DEFAULT_STOPWORDS if len(w) >= 2)[:60]
_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "cr", "dr", "gr", "pl", "st", "tr")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ou", "ea")
_CODAS = ("", "n", "r", "s", "l", "m", "x", "nd")


def _word_list(n: int, exclude: set[str]) -> list[str]:
    """`n` distinct lowercase two-syllable pseudo-words, fixed for every seed."""
    syllables = np.array([o + v + c for o in _ONSETS for v in _NUCLEI for c in _CODAS])
    rng = np.random.Generator(np.random.PCG64(20180731))
    picks = rng.integers(0, len(syllables), (2 * n, 2))
    candidates = np.char.add(syllables[picks[:, 0]], syllables[picks[:, 1]]).tolist()
    words = [w for w in dict.fromkeys(candidates) if w not in exclude][:n]
    if len(words) < n:
        raise AssertionError(f"only {len(words)} distinct pseudo-words, need {n}")
    return words


def _zipf(n: int) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_EXPONENT
    return p / p.sum()


@dataclass
class UkpCorpus:
    """Records plus the planted word lists the generator drew them from."""

    records: list[RawRecord]
    target_words: dict[str, list[str]]
    class_words: dict[str, list[str]]

    def planted_topics(self, k: int, n: int) -> dict[int, list[str]]:
        """`k` planted top-`n` word lists: one per target, then per stance label."""
        lists = list(self.target_words.values()) + list(self.class_words.values())
        if k > len(lists):
            raise ValueError(f"only {len(lists)} planted lists, asked for {k}")
        return {i: lists[i][:n] for i in range(k)}


def generate(seed: int) -> UkpCorpus:
    """The UKP-shaped corpus for `seed`; asserts its shape before returning."""
    rng = np.random.Generator(np.random.PCG64(seed))
    reserved = set(DEFAULT_STOPWORDS) | {w for t in TARGET_COUNTS for w in t.split()}
    n_special = len(TARGET_COUNTS) * TARGET_WORDS_EACH + len(LABELS) * CLASS_WORDS_EACH
    words = _word_list(BACKGROUND_WORDS + n_special, reserved)
    special, background = words[:n_special], np.array(words[n_special:])
    target_words = {
        t: special[i * TARGET_WORDS_EACH:(i + 1) * TARGET_WORDS_EACH]
        for i, t in enumerate(TARGET_COUNTS)
    }
    base = len(TARGET_COUNTS) * TARGET_WORDS_EACH
    class_words = {
        label: special[base + i * CLASS_WORDS_EACH: base + (i + 1) * CLASS_WORDS_EACH]
        for i, label in enumerate(LABELS)
    }
    labels = rng.permutation(np.repeat(np.arange(len(LABELS)), list(LABEL_COUNTS.values())))
    lengths = rng.integers(SENTENCE_LEN[0], SENTENCE_LEN[1] + 1, N_SENTENCES)
    total = int(lengths.sum())
    kinds = rng.choice(len(MIX), size=total, p=MIX)
    bg = background[rng.choice(BACKGROUND_WORDS, size=total, p=_zipf(BACKGROUND_WORDS))]
    stop = np.array(_STOP_SAMPLE)[rng.integers(0, len(_STOP_SAMPLE), total)]
    special_rank = rng.choice(TARGET_WORDS_EACH, size=total, p=_zipf(TARGET_WORDS_EACH))
    class_rank = rng.choice(CLASS_WORDS_EACH, size=total, p=_zipf(CLASS_WORDS_EACH))
    names_target = rng.uniform(size=N_SENTENCES) < P_NAMES_TARGET

    target_of = np.repeat(np.arange(len(TARGET_COUNTS)), list(TARGET_COUNTS.values()))
    token_target = np.repeat(target_of, lengths)
    token_label = np.repeat(labels, lengths)
    target_table = np.array(list(target_words.values()), dtype=object)
    class_table = np.array(list(class_words.values()), dtype=object)
    tokens = bg.astype(object)
    for kind, values in ((0, stop),
                         (1, target_table[token_target, special_rank]),
                         (2, class_table[token_label, class_rank])):
        tokens[kinds == kind] = values[kinds == kind]
    # half the sentences name their target (one of its words) mid-sentence
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    targets = list(TARGET_COUNTS)
    for row in np.flatnonzero(names_target):
        named = targets[target_of[row]].split()
        tokens[starts[row] + lengths[row] // 2] = named[row % len(named)]

    split_of = np.empty(N_SENTENCES, dtype=object)
    first = 0
    for count in TARGET_COUNTS.values():
        order = first + rng.permutation(count)
        n_train = round(count * SPLIT_SHARES[0])
        n_val = round(count * SPLIT_SHARES[1])
        split_of[order[:n_train]] = "train"
        split_of[order[n_train:n_train + n_val]] = "val"
        split_of[order[n_train + n_val:]] = "test"
        first += count
    records = [
        RawRecord(targets[target_of[row]],
                  " ".join(tokens[starts[row]:starts[row] + lengths[row]]) + ".",
                  ANNOTATION_OF[LABELS[labels[row]]], split_of[row])
        for row in range(N_SENTENCES)
    ]
    corpus = UkpCorpus(records, target_words, class_words)
    check_shape(corpus)
    return corpus


def check_shape(corpus: UkpCorpus) -> None:
    """Raise AssertionError unless the corpus has the UKP ArgMin shape."""
    records = corpus.records
    if len(records) != N_SENTENCES:
        raise AssertionError(f"{len(records)} sentences, want {N_SENTENCES}")
    if target_counts(records) != TARGET_COUNTS:
        raise AssertionError(f"per-target counts {target_counts(records)}")
    if label_counts(records) != LABEL_COUNTS:
        raise AssertionError(f"label counts {label_counts(records)}")
    for tag, share in (("train", 0.7), ("val", 0.1), ("test", 0.2)):
        got = sum(r.split_tag == tag for r in records) / len(records)
        if abs(got - share) > 0.01:
            raise AssertionError(f"split {tag} share {got:.3f}, want ~{share}")
    lengths = [len(r.sentence.split()) for r in records]
    if min(lengths) < SENTENCE_LEN[0] or max(lengths) > SENTENCE_LEN[1]:
        raise AssertionError(f"sentence lengths span {min(lengths)}-{max(lengths)}")
    for target in TARGET_COUNTS:
        mine = [r.sentence for r in records if r.target == target]
        for word in target.split() + corpus.target_words[target][:20]:
            if not any(word in s.split() for s in mine[:400]):
                raise AssertionError(f"{word!r} never appears in {target!r} sentences")


def check_vocabularies(corpus: UkpCorpus, vocab, enc_vocab) -> None:
    """Raise AssertionError unless the vocabularies reach the reference sizes."""
    if vocab.size != 4888:
        raise AssertionError(f"NTM vocabulary has {vocab.size} words, want 4888")
    if enc_vocab.size < 30000:
        raise AssertionError(f"encoder vocabulary has {enc_vocab.size} words, want ~30k")
    for target, words in corpus.target_words.items():
        missing = [w for w in target.split() + words[:20] if w not in vocab]
        if missing:
            raise AssertionError(f"{target!r} words outside the NTM vocabulary: {missing}")
