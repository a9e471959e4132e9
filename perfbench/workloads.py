"""The three workloads: set-up, one timed repeat, output checks and a digest.

Each workload object is built by its set-up (the constructor), hands the timed
region fresh inputs through `fresh()`, runs the timed work in `timed()`, and
judges the result with `problems()` (empty when valid) and `digest()`.
Everything is at the reference configuration: NTM V=4,888, hidden 256, latent
64, K=10; encoder vocabulary ~30k x 100; batch 16; gamma 0.1; topics on.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

from topicarg import corpus, encoder, evaluate, mutual, ntm
from topicarg.nn import SeededRng

import ukpcorpus

NTM_VOCAB = 4888
ENC_VOCAB = 30000
NUM_TOPICS = 10
LATENT_DIM = 64
NTM_HIDDEN = 256
EMB_DIM = 100
ENC_HIDDEN = 128
ENC_OUTPUT = 128
BATCH_SIZE = 16
GAMMA = 0.1
LR_NTM = 2e-3
LR_CLASSIFIER = 2e-5
N_TOP_TERMS = 10
RATIO_P = 0.5
MAX_LEN = 128
FOLDS = 10
FOLD_SEED = 13
NPMI_WINDOW = 10
NPMI_CUTOFFS = (5, 10, 15, 20)
TOPIC_WORDS = 20

# Slice sizes keep one repeat near 2.5 s, so a 40 s run holds 15-20 repeats.
TRAIN_EXAMPLES = 256  # 16 NTM steps + 16 classifier steps per iteration
VAL_EXAMPLES = 32  # keeps the 8:1 train:val ratio of a 10-fold split
PREDICT_STRIDE = 8  # every 8th sentence: 3,187 of 25,492, all 8 targets
COHERENCE_STRIDE = 8  # every 8th sentence: 3,187 of 25,492


class Prepared:
    """Corpus, vocabularies, BoW rows and freshly initialised models for a seed."""

    def __init__(self, seed: int):
        self.corpus = ukpcorpus.generate(seed)
        records = self.corpus.records
        self.vocab = corpus.build_vocabulary(records, NTM_VOCAB)
        self.enc_vocab = encoder.build_encoder_vocab(records, ENC_VOCAB, ntm_vocab=self.vocab)
        ukpcorpus.check_vocabularies(self.corpus, self.vocab, self.enc_vocab)
        self.examples = corpus.examples_from_records(records)
        self.bows = corpus.vectorize_all([ex.tokens for ex in self.examples], self.vocab)
        self.log_freq = ntm.compute_log_freq(self.bows)
        root = SeededRng(seed)
        self.ntm = ntm.init_ntm(
            ntm.NtmConfig(self.vocab.size, NUM_TOPICS, LATENT_DIM, NTM_HIDDEN),
            self.log_freq, root.child(10),
        )
        self.enc = encoder.init_encoder(
            encoder.EncoderConfig(self.enc_vocab.size, EMB_DIM, ENC_HIDDEN, ENC_OUTPUT),
            root.child(11),
        )
        self.targets = sorted(ukpcorpus.TARGET_COUNTS)


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _param_bytes(params: dict) -> list:
    return [x for name in sorted(params) for x in (name, np.ascontiguousarray(params[name]).tobytes())]


def _finite(x) -> bool:
    return x is None or math.isfinite(x)


def _topic_problems(topics: dict, targets: list[str]) -> list[str]:
    found = sorted(t for t, extracted in topics.items() if extracted.terms)
    return [] if found == targets else [f"topics for {len(found)} of {len(targets)} targets"]


class TrainIter:
    """One alternating iteration on a fixed slice of fold 0's train split."""

    name = "train-iter"

    def __init__(self, seed: int):
        self.seed = seed
        self.prep = Prepared(seed)
        split = corpus.make_in_target_folds(self.prep.examples, FOLDS, FOLD_SEED)[0]
        sub = corpus.DatasetSplit(split.train[:TRAIN_EXAMPLES], split.val[:VAL_EXAMPLES], [])
        self.data = mutual.TrainData.from_split(
            sub, self.prep.vocab, self.prep.enc_vocab, corpus.vectorize_all
        )
        self.examples = len(self.data.examples)

    def fresh(self):
        """Copies of the initial models; training updates them in place."""
        p = self.prep
        return (
            ntm.NtmParams(p.ntm.cfg, {k: v.copy() for k, v in p.ntm.params.items()}, p.log_freq),
            encoder.EncoderParams(p.enc.cfg, {k: v.copy() for k, v in p.enc.params.items()}),
        )

    def timed(self, models):
        ntm_params, enc_params = models
        schedule = mutual.TrainSchedule(
            max_iterations=1, batch_size=BATCH_SIZE, seed=self.seed, patience=0
        )
        return mutual.train_alternating(
            ntm_params, enc_params, self.data, schedule,
            gamma=GAMMA, lr_ntm=LR_NTM, lr_classifier=LR_CLASSIFIER,
            n_top_terms=N_TOP_TERMS, ratio_p=RATIO_P, use_topics=True, max_len=MAX_LEN,
        )

    def problems(self, result) -> list[str]:
        out = []
        for row in result.history:
            if not all(_finite(x) for x in (row.elbo, row.kl, row.mutual, row.cross_entropy)):
                out.append(f"non-finite loss in history row {row}")
        f1 = result.history[-1].val_macro_f1
        if f1 is None or not 0.0 <= f1 <= 1.0:
            out.append(f"validation macro F1 {f1}")
        steps = math.ceil(self.examples / BATCH_SIZE)
        if (result.ntm_steps, result.classifier_steps) != (steps, steps):
            out.append(f"steps {result.ntm_steps}/{result.classifier_steps}, want {steps}")
        for params in (result.ntm.params, result.enc.params, result.proj_params):
            if not all(np.isfinite(v).all() for v in params.values()):
                out.append("non-finite trained parameter")
        return out + _topic_problems(result.topics_by_target, self.prep.targets)

    def digest(self, result) -> str:
        return _sha(
            _param_bytes(result.ntm.params) + _param_bytes(result.enc.params)
            + _param_bytes(result.proj_params) + [result.history]
        )


class PredictCorpus:
    """Forward only: z for every row, topic extraction, inputs and labels."""

    name = "predict-corpus"

    def __init__(self, seed: int):
        self.prep = Prepared(seed)
        rows = np.arange(0, len(self.prep.examples), PREDICT_STRIDE)
        self.data = mutual.TrainData(
            [self.prep.examples[i] for i in rows], self.prep.bows[rows],
            self.prep.vocab, self.prep.enc_vocab,
        )
        self.examples = len(rows)

    def fresh(self):
        return self.prep.ntm, self.prep.enc

    def timed(self, models):
        ntm_params, enc_params = models
        z = ntm.infer_topic_distributions(ntm_params, self.data.bows)
        topics = mutual.extract_topics_for_targets(
            ntm_params, enc_params, self.data, self.prep.targets, N_TOP_TERMS, RATIO_P
        )
        inputs = mutual.build_inputs(
            self.data.examples, topics, self.data.enc_vocab, MAX_LEN, True
        )
        return z, topics, encoder.predict(enc_params, inputs)

    def problems(self, result) -> list[str]:
        z, topics, preds = result
        out = []
        if z.shape != (self.examples, NUM_TOPICS) or not np.isfinite(z).all() or (z < 0).any():
            out.append("z is not a finite non-negative (N, K) array")
        elif np.abs(z.sum(axis=1) - 1.0).max() > 1e-9:
            out.append("a z row does not sum to 1")
        if len(preds) != self.examples or not set(preds) <= set(corpus.LABELS):
            out.append("predictions do not cover every sentence with a known label")
        return out + _topic_problems(topics, self.prep.targets)

    def digest(self, result) -> str:
        z, topics, preds = result
        extracted = sorted((t, x.topic_index, x.terms) for t, x in topics.items())
        return _sha([np.ascontiguousarray(z).tobytes(), extracted, preds])


class Coherence:
    """Tokenize sentences in ntm mode and score K=10 planted topics with NPMI."""

    name = "coherence"

    def __init__(self, seed: int):
        self.prep = Prepared(seed)
        self.sentences = [r.sentence for r in self.prep.corpus.records[::COHERENCE_STRIDE]]
        self.topics = self.prep.corpus.planted_topics(NUM_TOPICS, TOPIC_WORDS)
        self.examples = len(self.sentences)

    def fresh(self):
        return None

    def timed(self, _):
        docs = [corpus.tokenize(s, mode="ntm") for s in self.sentences]
        return evaluate.coherence_report(self.topics, docs, window=NPMI_WINDOW, cutoffs=NPMI_CUTOFFS)

    def problems(self, report) -> list[str]:
        if sorted(report.per_topic) != list(range(NUM_TOPICS)):
            return [f"NPMI for topics {sorted(report.per_topic)}"]
        values = [row[c] for row in report.per_topic.values() for c in NPMI_CUTOFFS]
        values += list(report.averaged.values())
        if not all(math.isfinite(v) and -1.0 <= v <= 1.0 for v in values):
            return ["an NPMI value is outside [-1, 1]"]
        return []

    def digest(self, report) -> str:
        return _sha([sorted((t, sorted(row.items())) for t, row in report.per_topic.items())])


WORKLOADS = {w.name: w for w in (TrainIter, PredictCorpus, Coherence)}
