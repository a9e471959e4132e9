"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 9 needs the real corpus (set UKP_ARGMIN_PATH) and is skipped
without it.
"""
import math
import os
import time
from collections import Counter

import numpy as np
import pytest
from scipy import sparse

from oracles import (
    build_target_mask,
    grad_check,
    mutual_loss,
    normalize_rows,
    similarity_O,
    softmax,
)
from synthdata import (
    greedy_match_overlap,
    planted_top_words,
    planted_topic_corpus,
    stance_corpus,
)
from topicarg import autodiff as ad
from topicarg.corpus import (
    build_vocabulary,
    examples_from_records,
    label_counts,
    load_tsv,
    make_in_target_folds,
    target_counts,
    vectorize_all,
)
from topicarg.encoder import (
    EncoderConfig,
    build_encoder_vocab,
    classify_graph,
    encode_batch_graph,
    init_encoder,
    predict,
)
from topicarg.evaluate import (
    confusion,
    metric_report,
    npmi,
    protocol_runs,
    report_to_csv,
    run_protocol,
)
from topicarg.mutual import (
    TrainData,
    TrainSchedule,
    build_inputs,
    extract_topics_for_targets,
    mutual_sum_graph,
    train_alternating,
    train_classifier_epoch,
)
from topicarg.nn import EPS, MlpSpec, SeededRng, mlp_forward
from topicarg.ntm import (
    NtmConfig,
    NtmEpochStats,
    NtmParams,
    compute_log_freq,
    elbo_batch_graph,
    init_ntm,
    train_ntm_epoch,
)
from topicarg.optim import adam, adamw
from topicarg.topics import extract_topics, top_terms


def report(num: int, description: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:2d} {'PASS' if passed else 'FAIL'}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert passed, line


def random_distribution(rng, k=6):
    return softmax(rng.normal(k) * 2.0)


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    worst = {}

    # (a) NTM ELBO at V=50, K=5, H=16
    ntm = init_ntm(
        NtmConfig(vocab_size=50, num_topics=5, latent_dim=16, hidden_dim=32),
        np.log(np.full(50, 1 / 50)),
        SeededRng(1001),
    )
    counts = SeededRng(1002).integers(0, 4, (4, 50)).astype(float)
    noise = SeededRng(1003).normal((4, 16))

    def ntm_loss(leaves):
        recon, kl, _ = elbo_batch_graph(
            leaves, ntm.cfg, ntm.log_freq, sparse.csr_matrix(counts), noise
        )
        return recon + kl

    rep = grad_check(ntm_loss, ntm.params, samples=200, tolerance=1e-4, rng=SeededRng(1004))
    worst["ntm_elbo"] = rep.max_rel_error
    assert rep.passed

    # (b) encoder + classifier cross-entropy at d_h=32
    records = stance_corpus(n_per_cell=4, seed=11)
    vocab = build_vocabulary(records, max_size=40)
    enc_vocab = build_encoder_vocab(records, max_size=120, ntm_vocab=vocab)
    enc = init_encoder(
        EncoderConfig(enc_vocab.size, emb_dim=16, hidden_dim=32, output_dim=32),
        SeededRng(1005),
    )
    examples = examples_from_records(records)[:6]
    inputs = build_inputs(examples, {}, enc_vocab, 64, use_topics=False)
    onehot = np.eye(3)[[ex.label_index() for ex in examples]]

    def ce_loss(leaves):
        h = encode_batch_graph(leaves, enc.cfg, inputs)
        probs = classify_graph(leaves, enc.cfg, h)
        return -ad.tensor_sum(ad.constant(onehot) * ad.log(probs + EPS))

    rep = grad_check(ce_loss, enc.params, samples=200, tolerance=1e-4, rng=SeededRng(1006))
    worst["encoder_ce"] = rep.max_rel_error
    assert rep.passed

    # (c) classifier-side loss with gamma * (1 - O) through the projection
    from topicarg.mutual import init_projection

    proj = init_projection(32, 5, SeededRng(1007))
    z_targets = softmax(SeededRng(1008).normal((len(inputs), 5)), axis=-1)
    gamma = 0.1
    both = {**enc.params, **proj}

    def side_loss(leaves):
        h = encode_batch_graph(leaves, enc.cfg, inputs)
        probs = classify_graph(leaves, enc.cfg, h)
        ce = -ad.tensor_sum(ad.constant(onehot) * ad.log(probs + EPS))
        u = ad.softmax(mlp_forward(MlpSpec((32, 5)), leaves, h, prefix="proj."))
        return ce + gamma * mutual_sum_graph(u, ad.constant(z_targets))

    rep = grad_check(side_loss, both, samples=200, tolerance=1e-4, rng=SeededRng(1009))
    worst["classifier_side"] = rep.max_rel_error
    assert rep.passed

    elapsed = time.monotonic() - start
    detail = ", ".join(f"{k} max_rel={v:.2e}" for k, v in worst.items())
    report(
        1,
        "gradient correctness (ELBO, encoder CE, mutual-coupled loss) <= 1e-4",
        max(worst.values()) <= 1e-4 and elapsed < 120,
        f"{detail}, {elapsed:.1f}s",
    )


def train_ntm(
    cfg: NtmConfig,
    log_freq: np.ndarray,
    corpus_bows,
    *,
    epochs: int,
    rng: SeededRng,
    learning_rate: float = 2e-3,
    batch_size: int = 16,
    restarts: int = 1,
    probe_epochs: int = 10,
    kl_warmup_epochs: int = 10,
) -> tuple[NtmParams, list[NtmEpochStats]]:
    """Standalone NTM training with deterministic restart selection.

    VAE topic models can leave topics dead depending on the initialization.
    Each restart trains from its own seeded init for `probe_epochs`; the one
    with the lowest epoch loss continues to `epochs`. Fully reproducible for a
    fixed `rng` seed path.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")

    def kl_weight(epoch_index: int) -> float:
        if kl_warmup_epochs <= 0:
            return 1.0
        return min(1.0, (epoch_index + 1) / kl_warmup_epochs)

    candidates = []
    for r in range(restarts):
        ntm = init_ntm(cfg, log_freq, rng.child(r, 0))
        opt = adam(learning_rate)
        epoch_rng = rng.child(r, 1)
        stats = [
            train_ntm_epoch(ntm, corpus_bows, opt, batch_size, epoch_rng, kl_weight(e))
            for e in range(min(probe_epochs, epochs))
        ]
        candidates.append((stats[-1].mean_total, r, ntm, opt, epoch_rng, stats))
    _, _, ntm, opt, epoch_rng, stats = min(candidates, key=lambda c: (c[0], c[1]))
    for e in range(len(stats), epochs):
        stats.append(
            train_ntm_epoch(ntm, corpus_bows, opt, batch_size, epoch_rng, kl_weight(e))
        )
    return ntm, stats


def test_criterion_2_planted_topic_recovery():
    start = time.monotonic()
    bows, true_topic_word, _ = planted_topic_corpus(
        n_docs=2000, vocab_size=200, num_topics=5, seed=7,
        doc_len=(60, 120), alpha=0.05, background=0.2,
    )
    bows = bows.astype(float)
    log_freq = compute_log_freq(bows)
    ntm, stats = train_ntm(
        NtmConfig(vocab_size=200, num_topics=5, latent_dim=16, hidden_dim=64),
        log_freq,
        sparse.csr_matrix(bows),
        epochs=45,
        rng=SeededRng(507),
        learning_rate=5e-3,
        batch_size=16,
        restarts=4,
        probe_epochs=15,
        kl_warmup_epochs=10,
    )
    learned = [list(np.argsort(-row, kind="stable")[:10]) for row in ntm.topic_word]
    overlap = greedy_match_overlap(learned, planted_top_words(true_topic_word, 10))

    totals = np.array([s.mean_total for s in stats])
    smoothed = np.convolve(totals, np.ones(3) / 3, mode="valid")
    non_increasing = bool(np.all(np.diff(smoothed) <= 1e-9))
    elapsed = time.monotonic() - start
    report(
        2,
        "planted-topic recovery >= 6/10 and smoothed loss non-increasing",
        overlap >= 6.0 and non_increasing and elapsed < 300,
        f"overlap={overlap}/10, non_increasing={non_increasing}, {elapsed:.1f}s",
    )


def test_criterion_3_topic_extraction_correctness():
    rng = SeededRng(31)
    vocab_size, k = 40, 4
    words = [f"t{i}" for i in range(vocab_size)]
    from topicarg.corpus import Vocabulary

    vocab = Vocabulary(
        index_of={w: i for i, w in enumerate(words)},
        id_to_word=words,
    )

    def brute_force(row, mask_row, n):
        order = sorted(
            ((float(-row[i]), i) for i in np.flatnonzero(mask_row == 1))
        )
        return [i for _, i in order[:n]]

    mismatches = collisions = 0
    for trial in range(1000):
        mat = rng.normal((k, vocab_size))
        if trial % 4 == 0:
            mat = np.round(mat, 1)  # provoke ties
        drawn = [int(i) for i in rng.integers(0, vocab_size, 5)]
        target_ids = set(drawn)
        mask = build_target_mask([words[i] for i in target_ids], vocab, k)
        room = vocab_size - len(target_ids)
        n = room if trial % 10 == 0 else int(rng.integers(1, room + 1))
        ids = top_terms(mat, drawn + drawn[:1], n)  # the first id excluded twice
        for row in range(k):
            if ids[row].tolist() != brute_force(mat[row], mask.mask[row], n):
                mismatches += 1
            if target_ids & set(ids[row].tolist()):
                collisions += 1

    # constructed nearest-neighbor selection, 100 synthetic-embedding trials
    selection_hits = 0
    n_t, dim = 6, 10
    for trial in range(100):
        trial_rng = SeededRng(3100 + trial)
        vectors = trial_rng.normal((vocab_size, dim))
        winner = int(trial_rng.integers(0, k))
        lists_ids = np.empty((k, n_t), dtype=np.int64)
        pool = np.arange(1 + n_t, vocab_size)
        for topic in range(k):
            if topic == winner:
                lists_ids[topic] = np.arange(1, 1 + n_t)
            else:
                lists_ids[topic] = pool[trial_rng.permutation(pool.size)[:n_t]]
        for i in range(1, 1 + n_t):
            vectors[i] = vectors[0] * float(trial_rng.uniform(0.5, 2.0))
        # each topic's planted list outweighs every other word, in list order
        topic_word = trial_rng.uniform(0.0, 1.0, (k, vocab_size))
        for topic in range(k):
            topic_word[topic, lists_ids[topic]] = 2.0 + np.arange(n_t, 0, -1)
        extracted = extract_topics(
            topic_word, normalize_rows(vectors), vocab, [words[0]], n_t, 0.5
        )
        if extracted.topic_index == winner:
            selection_hits += 1

    report(
        3,
        "top_terms == brute force (1000x), zero target collisions, "
        "nearest-neighbor topic selected 100/100",
        mismatches == 0 and collisions == 0 and selection_hits == 100,
        f"mismatches={mismatches}, collisions={collisions}, hits={selection_hits}/100",
    )


def test_criterion_4_mutual_learning_algebra():
    rng = SeededRng(41)
    identity_ok = all(
        abs(similarity_O(u, u) - 1.0) <= 1e-9
        for u in (random_distribution(rng) for _ in range(200))
    )
    symmetry_ok = all(
        abs(similarity_O(u, z) - similarity_O(z, u)) <= 1e-12
        for u, z in (
            (random_distribution(rng), random_distribution(rng)) for _ in range(200)
        )
    )

    # A = B = 1 via the symmetric two-component construction
    lo, hi = 0.5 + 1e-12, 1.0 - 1e-12
    for _ in range(200):
        mid = (lo + hi) / 2
        if (2 * mid - 1) * math.log(mid / (1 - mid)) < 1.0:
            lo = mid
        else:
            hi = mid
    a = (lo + hi) / 2
    u, z = np.array([a, 1 - a]), np.array([1 - a, a])
    construction_ok = abs(similarity_O(u, z) - 2.0 / 3.0) <= 1e-6

    monotone_ok = True
    for _ in range(100):
        u, z = random_distribution(rng), random_distribution(rng)
        ts = np.linspace(0.0, 1.0, 11)
        losses = [mutual_loss([(u, (1 - t) * z + t * u)]) for t in ts]
        if not all(x > y for x, y in zip(losses, losses[1:])):
            monotone_ok = False
            break

    report(
        4,
        "similarity algebra: O(u,u)=1, symmetric, A=B=1 -> 2/3, mixture monotone",
        identity_ok and symmetry_ok and construction_ok and monotone_ok,
        f"O(A=B=1)={similarity_O(np.array([a, 1 - a]), np.array([1 - a, a])):.8f}",
    )


def _ablation_setup(seed=90):
    records = stance_corpus(n_per_cell=8, seed=seed)
    examples = examples_from_records(records)
    vocab = build_vocabulary(records, max_size=40)
    enc_vocab = build_encoder_vocab(records, max_size=120, ntm_vocab=vocab)
    bows = vectorize_all([ex.tokens for ex in examples], vocab)
    log_freq = compute_log_freq(bows)
    ntm = init_ntm(NtmConfig(vocab.size, 4, 6, 10), log_freq, SeededRng(900))
    enc = init_encoder(
        EncoderConfig(enc_vocab.size, emb_dim=8, hidden_dim=10, output_dim=6),
        SeededRng(901),
    )
    data = TrainData(examples=examples, bows=bows, vocab=vocab, enc_vocab=enc_vocab)
    return ntm, enc, data


def test_criterion_5_ablation_consistency():
    schedule = TrainSchedule(
        max_iterations=2, ntm_epochs=2, classifier_epochs=2, batch_size=8,
        seed=77, patience=0, kl_warmup_epochs=4,
    )
    ntm_a, enc_a, data_a = _ablation_setup()
    result = train_alternating(
        ntm_a, enc_a, data_a, schedule, gamma=0.0,
        lr_ntm=2e-3, lr_classifier=1e-3, n_top_terms=4, ratio_p=0.5, max_len=64,
    )

    ntm_b, enc_b, data_b = _ablation_setup()
    root = SeededRng(schedule.seed)
    rng_ntm, rng_cls = root.child(1), root.child(2)
    opt_ntm, opt_cls = adam(2e-3), adamw(1e-3)
    gold = [ex.label_index() for ex in data_b.examples]
    targets = sorted({ex.target for ex in data_b.examples})
    global_epoch = 0
    for _ in range(schedule.max_iterations):
        for _ in range(schedule.ntm_epochs):
            global_epoch += 1
            train_ntm_epoch(
                ntm_b, data_b.bows, opt_ntm, schedule.batch_size, rng_ntm,
                kl_weight=min(1.0, global_epoch / schedule.kl_warmup_epochs),
            )
        topics = extract_topics_for_targets(ntm_b, enc_b, data_b, targets, 4, 0.5)
        inputs = build_inputs(data_b.examples, topics, data_b.enc_vocab, 64, True)
        for _ in range(schedule.classifier_epochs):
            train_classifier_epoch(
                enc_b, inputs, gold, opt_cls, schedule.batch_size, rng_cls
            )

    ntm_bitwise = all(
        np.array_equal(ntm_a.params[k], ntm_b.params[k]) for k in ntm_a.params
    )
    enc_bitwise = all(
        np.array_equal(enc_a.params[k], enc_b.params[k]) for k in enc_a.params
    )
    no_projection = result.proj_params is None

    # -ET: encoder input holds exactly two segments when topics are disabled
    topics = extract_topics_for_targets(ntm_a, enc_a, data_a, targets, 4, 0.5)
    inputs_no_topics = build_inputs(
        data_a.examples, topics, data_a.enc_vocab, 64, use_topics=False
    )
    two_segments = bool(((inputs_no_topics.lengths > 0).sum(axis=1) == 2).all())

    report(
        5,
        "gamma=0 trajectories bitwise-equal to structurally disabled mutual "
        "learning; --no-topics inputs have exactly two segments",
        ntm_bitwise and enc_bitwise and no_projection and two_segments,
        f"ntm_bitwise={ntm_bitwise}, enc_bitwise={enc_bitwise}, two_segments={two_segments}",
    )


def test_criterion_6_end_to_end_overfit():
    start = time.monotonic()
    records = stance_corpus(n_per_cell=50, seed=9)  # 300 sentences, 2 targets
    examples = examples_from_records(records)
    vocab = build_vocabulary(records, max_size=100)
    enc_vocab = build_encoder_vocab(records, max_size=200, ntm_vocab=vocab)
    train = [ex for r, ex in zip(records, examples) if r.split_tag == "train"]
    val = [ex for r, ex in zip(records, examples) if r.split_tag == "val"]
    bows = vectorize_all([ex.tokens for ex in train], vocab)
    log_freq = compute_log_freq(bows)
    ntm = init_ntm(NtmConfig(vocab.size, 5, 8, 32), log_freq, SeededRng(70))
    enc = init_encoder(
        EncoderConfig(enc_vocab.size, emb_dim=16, hidden_dim=24, output_dim=16),
        SeededRng(71),
    )
    data = TrainData(
        examples=train, bows=bows, vocab=vocab, enc_vocab=enc_vocab, val_examples=val
    )
    schedule = TrainSchedule(
        max_iterations=3, ntm_epochs=2, classifier_epochs=8, batch_size=16,
        seed=72, patience=0,
    )
    result = train_alternating(
        ntm, enc, data, schedule, gamma=0.1,
        lr_ntm=2e-3, lr_classifier=5e-3, n_top_terms=6, ratio_p=0.5, max_len=64,
    )
    train_inputs = build_inputs(train, result.topics_by_target, enc_vocab, 64, True)
    train_f1 = metric_report(
        confusion([ex.label for ex in train], predict(enc, train_inputs))
    ).macro_f1
    val_inputs = build_inputs(val, result.topics_by_target, enc_vocab, 64, True)
    val_f1 = metric_report(
        confusion([ex.label for ex in val], predict(enc, val_inputs))
    ).macro_f1
    elapsed = time.monotonic() - start
    report(
        6,
        "end-to-end overfit: train macro F1 >= 0.95, val macro F1 >= 0.80 (I=3)",
        train_f1 >= 0.95 and val_f1 >= 0.80 and elapsed < 300,
        f"train={train_f1:.4f}, val={val_f1:.4f}, {elapsed:.1f}s",
    )


def test_criterion_7_metric_oracle():
    golds = ["support", "support", "oppose", "none"]
    preds = ["support", "oppose", "oppose", "none"]
    rep = metric_report(confusion(golds, preds))
    hand_exact = (
        abs(rep.macro_f1 - 7 / 9) <= 1e-15
        and rep.precision_support == 1.0
        and rep.recall_support == 0.5
        and rep.precision_oppose == 0.5
        and rep.recall_oppose == 1.0
    )

    def brute_force(cm):
        f1s = []
        for i in range(3):
            tp = cm[i][i]
            col = sum(cm[r][i] for r in range(3))
            row = sum(cm[i][c] for c in range(3))
            p = tp / col if col else 0.0
            r = tp / row if row else 0.0
            f1s.append(2 * p * r / (p + r) if p + r else 0.0)
        return sum(f1s) / 3

    rng = SeededRng(71)
    random_ok = True
    for _ in range(1000):
        cm = rng.integers(0, 25, (3, 3))
        if abs(metric_report(cm).macro_f1 - brute_force(cm.tolist())) > 1e-12:
            random_ok = False
            break

    report(
        7,
        "metric oracle: 4-example macro F1 = 7/9 exactly; 1000 random "
        "confusion matrices match brute force",
        hand_exact and random_ok,
        f"macro_f1={rep.macro_f1!r}",
    )


def test_criterion_8_protocol_integrity(tmp_path):
    records = stance_corpus(n_per_cell=20, seed=12)
    examples = examples_from_records(records)

    # folds partition the example set exactly
    folds = make_in_target_folds(examples, k=10, seed=5)
    test_ids = [id(ex) for split in folds for ex in split.test]
    partition_ok = len(test_ids) == len(examples) and set(test_ids) == {
        id(ex) for ex in examples
    }

    # the runner asserts no leakage on every cross-target split
    cross_runs = protocol_runs("cross_target", records, examples, 10, 0)

    def oracle(name, split, seed):
        assert split.held_out_target not in {ex.target for ex in split.train}
        return [ex.label for ex in split.test]

    averaged, rows = run_protocol(oracle, cross_runs)
    leakage_ok = averaged.macro_f1 == 1.0 and [name for name, _ in rows] == [
        "river dams", "space mining"
    ]

    from topicarg.corpus import DatasetSplit

    sabotage_caught = False
    leaking = [
        (name, DatasetSplit(train=examples, val=[], test=examples, held_out_target=name), seed)
        for name, _, seed in cross_runs
    ]
    try:
        run_protocol(oracle, leaking)
    except AssertionError:
        sabotage_caught = True

    # byte-identical seeded reruns of both protocol reports
    def majority(name, split, seed):
        top = Counter(ex.label for ex in split.train).most_common(1)[0][0]
        return [top] * len(split.test)

    def in_target_bytes(path):
        avg, rows = run_protocol(majority, protocol_runs("in_target", records, examples, 5, 17))
        report_to_csv(path, rows, avg)
        return path.read_bytes()

    def cross_bytes(path):
        avg, rows = run_protocol(majority, protocol_runs("cross_target", records, examples, 10, 0))
        report_to_csv(path, rows, avg)
        return path.read_bytes()

    rerun_ok = in_target_bytes(tmp_path / "a.csv") == in_target_bytes(
        tmp_path / "b.csv"
    ) and cross_bytes(tmp_path / "c.csv") == cross_bytes(tmp_path / "d.csv")

    report(
        8,
        "protocol integrity: leakage asserted, folds partition exactly, "
        "seeded reruns byte-identical",
        partition_ok and leakage_ok and sabotage_caught and rerun_ok,
        f"partition={partition_ok}, sabotage_caught={sabotage_caught}, rerun={rerun_ok}",
    )


UKP_PATH = os.environ.get("UKP_ARGMIN_PATH", "")

# Per-target (sentences, none, support, oppose); the nuclear-energy sentence
# count is the label-column sum, consistent with the dataset and the total.
UKP_EXPECTED = {
    "abortion": (3929, 2427, 680, 822),
    "cloning": (3039, 1494, 706, 839),
    "death penalty": (3651, 2083, 457, 1111),
    "gun control": (3341, 1889, 787, 665),
    "marijuana legalization": (2475, 1262, 587, 626),
    "minimum wage": (2473, 1346, 576, 551),
    "nuclear energy": (3576, 2118, 606, 852),
    "school uniforms": (3008, 1734, 545, 729),
}


@pytest.mark.skipif(
    not UKP_PATH, reason="set UKP_ARGMIN_PATH to the UKP ArgMin TSV to enable"
)
def test_criterion_9_corpus_counts():
    records = load_tsv(UKP_PATH)
    labels = label_counts(records)
    targets = {t.lower(): c for t, c in target_counts(records).items()}
    per_label = {}
    for record in records:
        key = record.target.lower()
        per_label.setdefault(key, Counter())[record.annotation] += 1

    total_ok = len(records) == 25_492
    label_ok = labels == {"none": 14_353, "support": 4_944, "oppose": 6_195}
    per_target_ok = True
    for name, (total, n_none, n_support, n_oppose) in UKP_EXPECTED.items():
        got = per_label.get(name, Counter())
        if (
            targets.get(name) != total
            or got["NoArgument"] != n_none
            or got["Argument_for"] != n_support
            or got["Argument_against"] != n_oppose
        ):
            per_target_ok = False
    report(
        9,
        "UKP ArgMin counts: 25,492 total; 14,353/4,944/6,195 per label; "
        "per-target counts exact",
        total_ok and label_ok and per_target_ok,
        f"total={len(records)}, labels={labels}",
    )


def test_criterion_10_npmi_sanity():
    # perfect association
    docs = [["x", "y"]] * 4 + [["f1", "f2", "f3", "f4"]] * 7
    perfect = npmi(["x", "y"], docs, window=10, cutoff=2)
    perfect_ok = abs(perfect - 1.0) <= 1e-6

    # independent planted words over 100k windows
    rng = SeededRng(101)
    docs = []
    for _ in range(100_000):
        doc = ["filler"]
        if rng.uniform(0, 1) < 0.3:
            doc.append("alpha")
        if rng.uniform(0, 1) < 0.3:
            doc.append("beta")
        docs.append(doc)
    independent = npmi(["alpha", "beta"], docs, window=10, cutoff=2)
    independent_ok = abs(independent) <= 0.05

    # tiny hand-counted corpus: 3 windows, occurrences 2/2, joint 1
    docs = [["a", "b", "c"], ["a", "d", "e"], ["b", "f", "g"]]
    eps = 1e-12
    expected = math.log((1 / 3 + eps) / ((2 / 3 + eps) * (2 / 3 + eps))) / -math.log(
        1 / 3 + eps
    )
    tiny = npmi(["a", "b"], docs, window=5, cutoff=2)
    tiny_ok = abs(tiny - expected) <= 1e-9

    report(
        10,
        "NPMI sanity: perfect pair = 1.0, independent pair within +-0.05, "
        "hand-counted corpus exact",
        perfect_ok and independent_ok and tiny_ok,
        f"perfect={perfect:.8f}, independent={independent:.4f}, tiny={tiny:.9f}",
    )
