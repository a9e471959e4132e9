"""Sentence-target-topics encoder and the 3-way argument classifier.

The input is [cls] sentence [sep] target [sep] topic-terms: three segments in
a fixed order, so each is described by its length. The built-in reference
encoder mean-pools each segment's token embeddings (one CSR product of
1/count weights with the embedding table), adds the segment's embedding,
concatenates the three pooled vectors, and maps them through a 2-layer MLP to
the semantic vector h. Any deterministic differentiable map with the same
signature can stand in for it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
from scipy import sparse

from . import autodiff as ad
from .corpus import LABELS, Vocabulary, count_tokens, rank_by_count, tokenize
from .nn import MlpSpec, SeededRng, init_mlp, mlp_forward

CLS, SEP, UNK = "<cls>", "<sep>", "<unk>"
MARKERS = (CLS, SEP, UNK)
SEGMENTS = ("sentence", "target", "topics")


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    emb_dim: int = 100
    hidden_dim: int = 128
    output_dim: int = 128  # d_h
    num_classes: int = len(LABELS)

    def body_spec(self) -> MlpSpec:
        return MlpSpec(
            (len(SEGMENTS) * self.emb_dim, self.hidden_dim, self.output_dim), "relu"
        )

    def classifier_spec(self) -> MlpSpec:
        return MlpSpec((self.output_dim, self.num_classes))


@dataclass(frozen=True, eq=False)
class EncoderInputs:
    """Every input's token ids in turn, and its (sentence, target, topics) lengths;
    `inputs[rows]` gathers an index array or slice of inputs in O(their tokens)."""

    ids: np.ndarray  # int64
    lengths: np.ndarray  # (N, 3) int64

    def __post_init__(self):
        n = self.lengths
        bad = n.ndim != 2 or n.shape[1] != len(SEGMENTS) or n.dtype.kind != "i"
        if bad or (n < 0).any() or n.sum() != len(self.ids):
            raise ValueError(
                f"lengths must be (N, 3) ints >= 0 summing to len(ids)={len(self.ids)}"
            )
        sizes = n.sum(axis=1)
        object.__setattr__(self, "starts", np.cumsum(sizes) - sizes)  # of each input in ids

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, rows) -> EncoderInputs:
        lengths = self.lengths[rows]
        sizes = lengths.sum(axis=1)
        # each gathered token's position: its input's start plus its rank in the input
        shift = np.repeat(self.starts[rows] - (np.cumsum(sizes) - sizes), sizes)
        return EncoderInputs(self.ids[shift + np.arange(len(shift))], lengths)


class EncoderParams:
    def __init__(self, cfg: EncoderConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = params

    @property
    def word_embeddings(self) -> np.ndarray:
        return self.params["word_emb"]


def build_encoder_vocab(
    records, max_size: int, ntm_vocab: Vocabulary | None = None
) -> Vocabulary:
    """Encoder-mode vocabulary: markers first, stopwords kept.

    The NTM vocabulary, when given, is force-included so the embedding table
    derived from the encoder covers every word the topic model can emit.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    freq = count_tokens(record.sentence for record in records)
    # every record also counts its target's tokens; tokenize each target once
    for target, n in Counter(record.target for record in records).items():
        tokens = tokenize(target, mode="encoder")
        freq.update({t: n * c for t, c in Counter(tokens).items()})
    words = list(MARKERS) + rank_by_count(freq)[:max_size]
    if ntm_vocab is not None:
        present = set(words)
        words += [w for w in ntm_vocab.id_to_word if w not in present]
    return Vocabulary(index_of={w: i for i, w in enumerate(words)}, id_to_word=words)


def non_sentence_length(n_target: int, n_topics: int) -> int:
    """[cls], [sep] and the target, plus [sep] and the topic terms when there are any."""
    return 2 + n_target + (1 + n_topics if n_topics else 0)


def build_inputs(examples, topics_by_target, enc_vocab: Vocabulary, max_len: int,
                 use_topics: bool) -> EncoderInputs:
    """[cls] sentence [sep] target [sep] topics for every example, in one pass.

    Only the sentence is truncated; with no topic terms their [sep] is dropped.
    OOV tokens map to the unknown marker.
    """
    tails = {}  # per target: the sentence's room, [sep] target [sep] topics, topic count
    for target in dict.fromkeys(ex.target for ex in examples):
        tokens = tokenize(target, mode="encoder")
        terms = topics_by_target[target].terms if use_topics else ()
        fixed = non_sentence_length(len(tokens), len(terms))
        if max_len < fixed:
            raise ValueError(
                f"max_len={max_len} cannot fit the non-sentence segments ({fixed} tokens)"
            )
        tail = [SEP, *tokens, SEP, *terms] if terms else [SEP, *tokens]
        tails[target] = max_len - fixed, tail, len(terms)
    parts, lengths = [], []
    for ex in examples:
        room, tail, n_topics = tails[ex.target]
        sentence = ex.tokens[:room]
        parts += ((CLS,), sentence, tail)
        lengths.append((len(sentence) + 2, len(tail) - 1 - n_topics, n_topics))
    lengths = np.array(lengths, dtype=np.int64).reshape(-1, len(SEGMENTS))
    index_of = enc_vocab.index_of
    ids = map(index_of.get, chain.from_iterable(parts), repeat(index_of[UNK]))
    return EncoderInputs(np.fromiter(ids, np.int64, int(lengths.sum())), lengths)


def init_encoder(cfg: EncoderConfig, rng: SeededRng) -> EncoderParams:
    bound = np.sqrt(6.0 / (cfg.vocab_size + cfg.emb_dim))
    params: dict[str, np.ndarray] = {
        "word_emb": rng.child(0).uniform(-bound, bound, (cfg.vocab_size, cfg.emb_dim)),
        "seg_emb": rng.child(1).uniform(-0.1, 0.1, (len(SEGMENTS), cfg.emb_dim)),
    }
    params.update(init_mlp(cfg.body_spec(), rng.child(2), prefix="body."))
    params.update(init_mlp(cfg.classifier_spec(), rng.child(3), prefix="cls."))
    return EncoderParams(cfg, params)


def encode_batch_graph(params: dict, cfg: EncoderConfig, inputs: EncoderInputs) -> ad.Tensor:
    """Batched encode: one CSR pooling product over the embedding table.

    Row 3i + s of the pooling matrix weighs input i's segment-s token ids by
    1/count; `inputs.ids` holds them in that order. Pooling costs O(tokens),
    and an absent segment pools to zeros, its segment embedding included.
    Returns (B, d_h).
    """
    if not inputs:
        raise ValueError("encode_batch_graph needs at least one input")
    n_seg = len(SEGMENTS)
    counts = inputs.lengths.ravel()
    pool = sparse.csr_matrix(
        (1.0 / np.repeat(counts, counts), inputs.ids, np.concatenate(([0], np.cumsum(counts)))),
        shape=(counts.size, cfg.vocab_size),
    )
    present = np.tile(np.eye(n_seg), (len(inputs), 1)) * (counts > 0)[:, None]
    words = ad.csr_matmul(pool, params["word_emb"])  # (B*3, emb_dim)
    pooled = words + ad.matmul(ad.constant(present), params["seg_emb"])
    stacked = ad.reshape(pooled, (len(inputs), n_seg * cfg.emb_dim))
    return mlp_forward(cfg.body_spec(), params, stacked, prefix="body.")


def encode_batch(params: EncoderParams, inputs) -> np.ndarray:
    return encode_batch_graph(params.params, params.cfg, inputs).data


ENCODE_CHUNK = 256  # inputs per encode_batch call in encode_all


def encode_all(params: EncoderParams, inputs) -> np.ndarray:
    """(N, d_h) semantic vectors, encoding ENCODE_CHUNK inputs at a time."""
    parts = [
        encode_batch(params, inputs[i : i + ENCODE_CHUNK])
        for i in range(0, len(inputs), ENCODE_CHUNK)
    ]
    return np.concatenate(parts) if parts else np.zeros((0, params.cfg.output_dim))


def classify_graph(params: dict, cfg: EncoderConfig, h: ad.Tensor) -> ad.Tensor:
    return ad.softmax(mlp_forward(cfg.classifier_spec(), params, h, prefix="cls."))


def predict_proba(params: EncoderParams, inputs) -> np.ndarray:
    """(N, 3) class probabilities over LABELS."""
    h = ad.constant(encode_all(params, inputs))
    return classify_graph(params.params, params.cfg, h).data


def labels_of(probabilities: np.ndarray) -> list[str]:
    """Argmax label per row; ties broken by label order (support first)."""
    return [LABELS[i] for i in np.argmax(probabilities, axis=1)]


def predict(params: EncoderParams, inputs) -> list[str]:
    return labels_of(predict_proba(params, inputs))


def vocabulary_rows(enc_vocab: Vocabulary, vocab: Vocabulary) -> np.ndarray:
    """The encoder-vocabulary row of every NTM word, in NTM id order."""
    missing = [w for w in vocab.id_to_word if w not in enc_vocab.index_of]
    if missing:
        raise ValueError(
            f"encoder vocabulary is missing {len(missing)} NTM word(s), e.g. {missing[:3]}"
        )
    return np.array([enc_vocab.index_of[w] for w in vocab.id_to_word])


def write_predictions(path, examples, predictions, probabilities) -> None:
    """Prediction TSV: target, sentence, gold, predicted, p(support|oppose|none)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("target\tsentence\tgold\tpredicted\tp_support\tp_oppose\tp_none\n")
        for ex, pred, probs in zip(examples, predictions, probabilities):
            fh.write(
                f"{ex.target}\t{ex.text}\t{ex.label}\t{pred}"
                f"\t{probs[0]:.6f}\t{probs[1]:.6f}\t{probs[2]:.6f}\n"
            )
