import contextlib
import copy
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    MutualLossConfig,
    extract_topics,
    grad_check,
    kl_categorical,
    loss_classifier_side,
    loss_topic_side,
    mutual_loss,
    similarity_O,
    softmax,
)
from synthdata import stance_corpus
from topicarg import autodiff as ad
from topicarg import mutual as mutual_mod
from topicarg import ntm as ntm_mod
from topicarg.corpus import (
    Vocabulary,
    build_vocabulary,
    examples_from_records,
    make_cross_target_splits,
    tokenize,
    vectorize_all,
)
from topicarg.encoder import (
    EncoderConfig,
    build_encoder_vocab,
    init_encoder,
    vocabulary_rows,
)
from topicarg.mutual import (
    TrainData,
    TrainSchedule,
    build_inputs,
    extract_topics_for_targets,
    history_to_csv,
    init_projection,
    mutual_sum_graph,
    project_to_topic,
    similarity_graph,
    train_alternating,
    train_classifier_epoch,
)
from topicarg.nn import EPS, SeededRng
from topicarg.ntm import NtmConfig, compute_log_freq, init_ntm, train_ntm_epoch
from topicarg.optim import adam, adamw, optimizer_step


def random_distribution(rng, k=6):
    return softmax(rng.normal(k) * 2.0)


def symmetric_pair_with_kl(target_kl: float) -> tuple[np.ndarray, np.ndarray]:
    """Bisect a in (0.5, 1) so that u=[a,1-a], z=[1-a,a] has KL(u,z)=target.

    By symmetry KL(u,z) = KL(z,u) = (2a-1) ln(a/(1-a)), so this constructs the
    A = B = target case exactly.
    """
    lo, hi = 0.5 + 1e-12, 1.0 - 1e-12

    def directed_kl(a):
        return (2 * a - 1) * math.log(a / (1 - a))

    for _ in range(200):
        mid = (lo + hi) / 2
        if directed_kl(mid) < target_kl:
            lo = mid
        else:
            hi = mid
    a = (lo + hi) / 2
    return np.array([a, 1 - a]), np.array([1 - a, a])


class TestSimilarity:
    def test_identity_is_exactly_one(self):
        for seed in range(20):
            u = random_distribution(SeededRng(seed))
            assert similarity_O(u, u) == 1.0

    def test_symmetry_is_bitwise(self):
        rng = SeededRng(5)
        for _ in range(50):
            u, z = random_distribution(rng), random_distribution(rng)
            assert similarity_O(u, z) == similarity_O(z, u)

    def test_constructed_unit_kls_give_two_thirds(self):
        u, z = symmetric_pair_with_kl(1.0)
        assert kl_categorical(u, z) == pytest.approx(1.0, abs=1e-6)
        assert kl_categorical(z, u) == pytest.approx(1.0, abs=1e-6)
        assert similarity_O(u, z) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_opposite_near_one_hot_is_near_zero(self):
        tiny = 1e-6
        u = np.array([1.0 - tiny, tiny])
        z = np.array([tiny, 1.0 - tiny])
        # hand evaluation with the floored KL: A = B, O = 1/(1 + A/2)
        a = (1 - tiny) * math.log((1 - tiny + EPS) / (tiny + EPS)) + tiny * math.log(
            (tiny + EPS) / (1 - tiny + EPS)
        )
        expected = 1.0 / (1.0 + a / 2.0)
        assert similarity_O(u, z) == pytest.approx(expected, abs=1e-9)
        assert similarity_O(u, z) < 0.15  # the floor bounds how close to 0 it gets

    def test_bounded_in_unit_interval(self):
        rng = SeededRng(9)
        for _ in range(100):
            o = similarity_O(random_distribution(rng), random_distribution(rng))
            assert 0.0 < o <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            similarity_O(np.array([1.0]), np.array([0.5, 0.5]))

    def test_graph_matches_scalar(self):
        rng = SeededRng(12)
        for _ in range(20):
            u, z = random_distribution(rng), random_distribution(rng)
            g = similarity_graph(ad.constant(u[None, :]), ad.constant(z[None, :]))
            assert float(g.data[0]) == pytest.approx(similarity_O(u, z), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    z_logits=st.lists(st.floats(-8, 8), min_size=2, max_size=10),
    noise=st.lists(st.floats(-1, 1), min_size=10, max_size=10),
    scale=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1.0]),
    u_first=st.booleans(),
)
def test_graph_similarity_stays_in_unit_interval(z_logits, noise, scale, u_first):
    """O in (0, 1], equal to the clamped scalar O, with finite gradients, also
    when u is z plus tiny noise and the floored KLs dip below zero."""
    z_logits = np.array(z_logits)
    logits = ad.Tensor(z_logits + scale * np.array(noise[: len(z_logits)]))
    u = ad.softmax(ad.reshape(logits, (1, -1)))
    z = softmax(z_logits)
    pair = (u, ad.constant(z[None, :]))
    o = similarity_graph(*(pair if u_first else pair[::-1]))
    value = float(o.data[0])
    assert 0.0 < value <= 1.0
    assert value == pytest.approx(similarity_O(u.data[0], z), abs=1e-12)
    ad.tensor_sum(o).backward()
    assert np.all(np.isfinite(logits.grad))


class TestMutualLoss:
    def test_matched_pairs_are_zero(self):
        u = random_distribution(SeededRng(1))
        assert mutual_loss([(u, u), (u, u)]) == 0.0

    def test_one_third_from_unit_kl_pair(self):
        u, z = symmetric_pair_with_kl(1.0)
        assert mutual_loss([(u, z)]) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_bounded_by_pair_count(self):
        rng = SeededRng(2)
        pairs = [(random_distribution(rng), random_distribution(rng)) for _ in range(8)]
        loss = mutual_loss(pairs)
        assert 0.0 <= loss < len(pairs)

    def test_strictly_decreases_along_mixture_path(self):
        rng = SeededRng(3)
        for _ in range(100):
            u, z = random_distribution(rng), random_distribution(rng)
            ts = np.linspace(0.0, 1.0, 11)
            losses = [mutual_loss([(u, (1 - t) * z + t * u)]) for t in ts]
            assert all(a > b for a, b in zip(losses, losses[1:])), losses
            assert losses[-1] == 0.0

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            mutual_loss([])

    def test_config_validation(self):
        assert MutualLossConfig().gamma == 0.1
        with pytest.raises(ValueError):
            MutualLossConfig(gamma=-0.1)
        with pytest.raises(ValueError):
            MutualLossConfig(loss_form="sum_O")


class TestSideLosses:
    def test_topic_side_gamma_zero_is_elbo(self):
        assert loss_topic_side(12.5, 99.0, 0.0) == 12.5

    def test_topic_side_default_gamma(self):
        assert loss_topic_side(10.0, 2.0, 0.1) == pytest.approx(10.2)

    def test_topic_side_matched_pairs(self):
        assert loss_topic_side(7.0, 0.0, 0.1) == 7.0

    def test_classifier_side_gamma_zero(self):
        assert loss_classifier_side(3.0, 50.0, 0.0) == 3.0

    def test_classifier_side_zero_case(self):
        assert loss_classifier_side(0.0, 0.0, 0.1) == 0.0

    def test_classifier_side_linearity(self):
        base = loss_classifier_side(5.0, 2.0, 0.1)
        assert loss_classifier_side(5.0, 4.0, 0.1) == pytest.approx(base + 0.1 * 2.0)


class TestProjection:
    def test_zero_weights_give_uniform(self):
        proj = init_projection(6, 4, SeededRng(0))
        for v in proj.values():
            v[...] = 0.0
        u = project_to_topic(proj, np.ones((1, 6)))
        assert np.allclose(u, 0.25)

    def test_k10_output(self):
        proj = init_projection(5, 10, SeededRng(1))
        assert project_to_topic(proj, np.zeros((1, 5)))[0].shape == (10,)

    def test_rows_sum_to_one(self):
        proj = init_projection(5, 7, SeededRng(2))
        u = project_to_topic(proj, SeededRng(3).normal((9, 5)))
        assert np.allclose(u.sum(axis=1), 1.0, atol=1e-6)


def _training_setup(n_per_cell=8, seed=0, gamma=0.1):
    records = stance_corpus(n_per_cell=n_per_cell, seed=seed)
    examples = examples_from_records(records)
    vocab = build_vocabulary(records, max_size=40)
    enc_vocab = build_encoder_vocab(records, max_size=100, ntm_vocab=vocab)
    bows = vectorize_all([ex.tokens for ex in examples], vocab)
    log_freq = compute_log_freq(bows)
    ntm = init_ntm(NtmConfig(vocab.size, 4, 6, 10), log_freq, SeededRng(100))
    enc = init_encoder(
        EncoderConfig(enc_vocab.size, emb_dim=8, hidden_dim=10, output_dim=6),
        SeededRng(101),
    )
    data = TrainData(
        examples=examples, bows=bows, vocab=vocab, enc_vocab=enc_vocab,
        val_examples=examples[:6],
    )
    return ntm, enc, data


class TestClassifierEpoch:
    def test_deterministic_and_learns(self):
        def run():
            ntm, enc, data = _training_setup()
            topics = extract_topics_for_targets(ntm, enc, data, sorted({e.target for e in data.examples}), 4, 0.5)
            inputs = build_inputs(data.examples, topics, data.enc_vocab, 64, True)
            gold = [ex.label_index() for ex in data.examples]
            opt = adamw(5e-3)
            rng = SeededRng(7)
            stats = [
                train_classifier_epoch(enc, inputs, gold, opt, 8, rng)
                for _ in range(8)
            ]
            return enc, stats

        (enc_a, stats_a), (enc_b, stats_b) = run(), run()
        for key in enc_a.params:
            assert np.array_equal(enc_a.params[key], enc_b.params[key])
        assert stats_a[-1].mean_ce == stats_b[-1].mean_ce
        assert stats_a[-1].mean_ce < stats_a[0].mean_ce

    def test_mutual_grads_flow_through_projection(self):
        ntm, enc, data = _training_setup()
        topics = extract_topics_for_targets(ntm, enc, data, sorted({e.target for e in data.examples}), 4, 0.5)
        inputs = build_inputs(data.examples, topics, data.enc_vocab, 64, True)
        gold = [ex.label_index() for ex in data.examples]
        proj = init_projection(6, 4, SeededRng(8))
        z_targets = softmax(SeededRng(9).normal((len(inputs), 4)), axis=-1)
        before = copy.deepcopy(proj)
        train_classifier_epoch(
            enc, inputs, gold, adamw(1e-3), 8, SeededRng(10),
            proj_params=proj, z_targets=z_targets, gamma=0.5,
        )
        assert any(not np.array_equal(before[k], proj[k]) for k in proj)

    @pytest.mark.parametrize("given", ["proj_params", "z_targets"])
    def test_half_given_mutual_inputs_are_refused(self, given):
        ntm, enc, data = _training_setup()
        inputs = build_inputs(data.examples, {}, data.enc_vocab, 64, False)
        gold = [ex.label_index() for ex in data.examples]
        mutual = {
            "proj_params": init_projection(6, 4, SeededRng(8)),
            "z_targets": softmax(SeededRng(9).normal((len(inputs), 4)), axis=-1),
        }
        before = copy.deepcopy(enc.params)
        with pytest.raises(ValueError, match="^proj_params and z_targets must be given together"):
            train_classifier_epoch(
                enc, inputs, gold, adamw(1e-3), 8, SeededRng(10), gamma=0.5,
                **{given: mutual[given]},
            )
        assert all(np.array_equal(before[k], enc.params[k]) for k in before)

    def test_input_length_mismatch(self):
        ntm, enc, data = _training_setup()
        inputs = build_inputs(data.examples[:2], {}, data.enc_vocab, 64, False)
        with pytest.raises(ValueError, match="no training inputs"):
            train_classifier_epoch(enc, inputs[:0], [], adamw(1e-3), 4, SeededRng(0))
        with pytest.raises(ValueError, match="differ in length"):
            train_classifier_epoch(enc, inputs, [0], adamw(1e-3), 4, SeededRng(0))


def test_ntm_epoch_mutual_term_equals_a_hand_rolled_loop():
    """`u_targets` adds gamma * sum(1 - O(z, u[idx])) to each batch's loss, and
    nothing else changes: same batches, same draws, same graph order."""
    ntm, _, data = _training_setup()
    hand = copy.deepcopy(ntm)
    plain = copy.deepcopy(ntm)
    n = data.bows.shape[0]
    u = softmax(SeededRng(5).normal((n, ntm.cfg.num_topics)) * 2.0, axis=-1)
    stats = train_ntm_epoch(
        ntm, data.bows, adam(2e-3), 8, SeededRng(6), kl_weight=0.5, u_targets=u, gamma=0.1
    )

    opt, rng = adam(2e-3), SeededRng(6)
    order = rng.permutation(n)
    sum_recon = sum_kl = sum_mutual = 0.0
    for start in range(0, n, 8):
        idx = order[start : start + 8]
        noise = rng.normal((len(idx), hand.cfg.latent_dim))
        leaves = ad.lift(hand.params)
        recon, kl, z = ntm_mod.elbo_batch_graph(
            leaves, hand.cfg, hand.log_freq, data.bows[idx], noise
        )
        loss = recon + 0.5 * kl
        mut = mutual_sum_graph(z, ad.constant(u[idx]))
        loss = loss + 0.1 * mut
        loss.backward()
        optimizer_step(opt, hand.params, ad.grads_of(leaves))
        sum_recon += float(recon.data)
        sum_kl += float(kl.data)
        sum_mutual += float(mut.data)

    for key in ntm.params:
        assert ntm.params[key].tobytes() == hand.params[key].tobytes(), key
    assert stats == ntm_mod.NtmEpochStats(
        mean_total=(sum_recon + sum_kl) / n, mean_kl=sum_kl / n, mean_mutual=sum_mutual / n
    )
    assert stats.mean_mutual > 0
    # the term is live: without it the same epoch ends elsewhere
    train_ntm_epoch(plain, data.bows, adam(2e-3), 8, SeededRng(6), kl_weight=0.5)
    assert any(not np.array_equal(plain.params[k], ntm.params[k]) for k in ntm.params)


class TestClassifierSideGradient:
    def test_full_loss_fd_through_projection_and_similarity(self):
        ntm, enc, data = _training_setup(n_per_cell=4)
        topics = extract_topics_for_targets(
            ntm, enc, data, sorted({e.target for e in data.examples}), 4, 0.5
        )
        inputs = build_inputs(data.examples[:5], topics, data.enc_vocab, 64, True)
        gold = np.eye(3)[[ex.label_index() for ex in data.examples[:5]]]
        proj = init_projection(6, ntm.cfg.num_topics, SeededRng(11))
        z_targets = softmax(SeededRng(12).normal((5, ntm.cfg.num_topics)), axis=-1)
        gamma = 0.1
        params = {**enc.params, **proj}

        def loss(leaves):
            from topicarg.encoder import classify_graph, encode_batch_graph
            from topicarg.nn import MlpSpec, mlp_forward

            h = encode_batch_graph(leaves, enc.cfg, inputs)
            probs = classify_graph(leaves, enc.cfg, h)
            ce = -ad.tensor_sum(ad.constant(gold) * ad.log(probs + EPS))
            u = ad.softmax(
                mlp_forward(MlpSpec((6, ntm.cfg.num_topics)), leaves, h, prefix="proj."),
            )
            return ce + gamma * mutual_sum_graph(u, ad.constant(z_targets))

        report = grad_check(loss, params, samples=200, rng=SeededRng(13))
        assert report.passed, report.max_rel_error
        assert report.max_rel_error <= 1e-4


class TestAlternating:
    def test_gamma_zero_matches_independent_training_bitwise(self):
        schedule = TrainSchedule(
            max_iterations=2, ntm_epochs=2, classifier_epochs=1, batch_size=8,
            seed=21, patience=0, kl_warmup_epochs=4,
        )
        ntm_a, enc_a, data_a = _training_setup()
        data_a.val_examples = []
        result = train_alternating(
            ntm_a, enc_a, data_a, schedule, gamma=0.0,
            lr_ntm=2e-3, lr_classifier=1e-3, n_top_terms=4, ratio_p=0.5, max_len=64,
        )
        assert result.proj_params is None

        # structurally independent loops driven by the same seeds
        ntm_b, enc_b, data_b = _training_setup()
        root = SeededRng(schedule.seed)
        rng_ntm, rng_cls = root.child(1), root.child(2)
        opt_ntm, opt_cls = adam(2e-3), adamw(1e-3)
        gold = [ex.label_index() for ex in data_b.examples]
        targets = sorted({ex.target for ex in data_b.examples})
        global_epoch = 0
        for _ in range(schedule.max_iterations):
            for _ in range(schedule.ntm_epochs):
                global_epoch += 1
                kl_w = min(1.0, global_epoch / schedule.kl_warmup_epochs)
                train_ntm_epoch(
                    ntm_b, data_b.bows, opt_ntm, schedule.batch_size, rng_ntm, kl_weight=kl_w
                )
            topics = extract_topics_for_targets(ntm_b, enc_b, data_b, targets, 4, 0.5)
            inputs = build_inputs(data_b.examples, topics, data_b.enc_vocab, 64, True)
            for _ in range(schedule.classifier_epochs):
                train_classifier_epoch(
                    enc_b, inputs, gold, opt_cls, schedule.batch_size, rng_cls
                )
        for key in ntm_a.params:
            assert np.array_equal(ntm_a.params[key], ntm_b.params[key]), key
        for key in enc_a.params:
            assert np.array_equal(enc_a.params[key], enc_b.params[key]), key

    def test_identical_seeds_identical_history(self):
        schedule = TrainSchedule(
            max_iterations=2, ntm_epochs=1, classifier_epochs=1, batch_size=8,
            seed=33, patience=0,
        )

        def run():
            ntm, enc, data = _training_setup(gamma=0.1)
            return train_alternating(
                ntm, enc, data, schedule, gamma=0.1,
                lr_ntm=2e-3, lr_classifier=1e-3, n_top_terms=4, ratio_p=0.5, max_len=64,
            ).history

        h1, h2 = run(), run()
        assert h1 == h2

    def test_tracing_changes_no_arithmetic(self, monkeypatch):
        """perfbench's tracer wraps functions where they are looked up and only
        reads the clock, so a traced run equals an untraced one bitwise."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from tracing import Tracer

        schedule = TrainSchedule(
            max_iterations=2, ntm_epochs=1, classifier_epochs=1, batch_size=8,
            seed=33, patience=0,
        )

        def run(tracer):
            ntm, enc, data = _training_setup(gamma=0.1)
            with tracer.installed() if tracer else contextlib.nullcontext():
                result = mutual_mod.train_alternating(
                    ntm, enc, data, schedule, gamma=0.1,
                    lr_ntm=2e-3, lr_classifier=1e-3, n_top_terms=4, ratio_p=0.5, max_len=64,
                )
            params = [
                (k, v.tobytes())
                for part in (result.ntm.params, result.enc.params, result.proj_params)
                for k, v in sorted(part.items())
            ]
            return params, repr([dataclasses.astuple(row) for row in result.history])

        tracer = Tracer()
        assert run(None) == run(tracer)
        names = {span[0] for span in tracer.spans}
        assert {"mutual.iteration", "optim.step", "autodiff.backward"} <= names

    def test_mutual_reduces_mutual_loss(self):
        schedule = TrainSchedule(
            max_iterations=4, ntm_epochs=1, classifier_epochs=1, batch_size=8,
            seed=5, patience=0,
        )
        ntm, enc, data = _training_setup()
        result = train_alternating(
            ntm, enc, data, schedule, gamma=0.5,
            lr_ntm=2e-3, lr_classifier=5e-3, n_top_terms=4, ratio_p=0.5, max_len=64,
        )
        cls_rows = [r for r in result.history if r.phase == "classifier"]
        assert cls_rows[-1].mutual < cls_rows[0].mutual

    def test_history_csv_round_shape(self, tmp_path):
        schedule = TrainSchedule(
            max_iterations=1, ntm_epochs=2, classifier_epochs=1, batch_size=8,
            seed=5, patience=0,
        )
        ntm, enc, data = _training_setup()
        result = train_alternating(
            ntm, enc, data, schedule, gamma=0.1,
            lr_ntm=2e-3, lr_classifier=1e-3, n_top_terms=4, ratio_p=0.5, max_len=64,
        )
        path = tmp_path / "history.csv"
        history_to_csv(result.history, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iteration,phase,epoch,elbo,kl,mutual,cross_entropy,val_macro_f1"
        assert len(lines) == 1 + 3  # 2 ntm epochs + 1 classifier epoch
        assert result.history[-1].val_macro_f1 is not None

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TrainSchedule(max_iterations=0)
        with pytest.raises(ValueError):
            TrainSchedule(ntm_epochs=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [("batch_size", 0, "batch_size must be >= 1"),
         ("patience", -1, "patience and kl_warmup_epochs must be >= 0"),
         ("kl_warmup_epochs", -2, "patience and kl_warmup_epochs must be >= 0")],
    )
    def test_schedule_refuses_out_of_range_counts(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainSchedule(**{field: value})

    @pytest.mark.parametrize("gamma", [float("nan"), -0.1, float("inf")])
    def test_gamma_below_zero_or_nan_refused(self, gamma):
        ntm, enc, data = _training_setup()
        before = {k: v.copy() for k, v in ntm.params.items()}
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            train_alternating(ntm, enc, data, TrainSchedule(max_iterations=1), gamma=gamma)
        assert all(np.array_equal(before[k], ntm.params[k]) for k in before)


def reference_extract_for_targets(ntm, enc, data, targets, n_top_terms, ratio_p):
    """Each target extracted on its own by the oracle."""
    vectors = enc.word_embeddings[vocabulary_rows(data.enc_vocab, data.vocab)]
    return {
        target: extract_topics(
            ntm.topic_word, vectors, data.vocab, tokenize(target, mode="encoder"),
            n_top_terms, ratio_p,
        )
        for target in targets
    }


_EXTRACTION_SETUP = _training_setup()


@settings(max_examples=60, deadline=None)
@given(
    weights=st.sampled_from(["normal", "ties"]),
    unembedded=st.integers(0, 10),
    n_top_terms=st.integers(1, 41),
    ratio_p=st.floats(0.01, 0.99),
    extra_words=st.lists(st.integers(0, 39), max_size=6),
    seed=st.integers(0, 2**16),
)
def test_extraction_equals_per_target_oracle(
    weights, unembedded, n_top_terms, ratio_p, extra_words, seed
):
    rng = np.random.default_rng(seed)
    ntm, enc, data = copy.deepcopy(_EXTRACTION_SETUP)
    shape = ntm.topic_word.shape
    if weights == "ties":  # repeated values, both signs of zero, negatives
        ntm.topic_word[...] = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=shape)
    else:
        ntm.topic_word[...] = rng.normal(size=shape)
    words = data.vocab.id_to_word
    for w in rng.choice(words, size=unembedded, replace=False):
        enc.params["word_emb"][data.enc_vocab.index_of[w]] = 0.0
    targets = sorted({e.target for e in data.examples}) + [
        "flat earth",  # out of vocabulary: no topics
        " ".join(words[i % len(words)] for i in extra_words),
    ]
    try:
        want = reference_extract_for_targets(ntm, enc, data, targets, n_top_terms, ratio_p)
    except ValueError as err:  # some target leaves fewer than n_top_terms words
        assert "out of range" in str(err)
        with pytest.raises(ValueError, match="out of range"):
            extract_topics_for_targets(ntm, enc, data, targets, n_top_terms, ratio_p)
        return
    assert extract_topics_for_targets(ntm, enc, data, targets, n_top_terms, ratio_p) == want


def test_extraction_maps_the_vocabularies_once_per_train_data(monkeypatch):
    ntm, enc, data = _training_setup()
    calls = []

    def counted(enc_vocab, vocab):
        calls.append(1)
        return vocabulary_rows(enc_vocab, vocab)

    monkeypatch.setattr(mutual_mod, "vocabulary_rows", counted)
    targets = sorted({e.target for e in data.examples})
    first = extract_topics_for_targets(ntm, enc, data, targets, 4, 0.5)
    assert extract_topics_for_targets(ntm, enc, data, targets, 4, 0.5) == first
    assert first == reference_extract_for_targets(ntm, enc, data, targets, 4, 0.5)
    assert len(calls) == 1


def test_extraction_refuses_an_encoder_vocabulary_missing_ntm_words():
    ntm, enc, data = _training_setup()
    words = [w for w in data.enc_vocab.id_to_word if w != data.vocab.id_to_word[0]]
    short = Vocabulary({w: i for i, w in enumerate(words)}, words)
    data = dataclasses.replace(data, enc_vocab=short)
    with pytest.raises(ValueError, match=r"encoder vocabulary is missing 1 NTM word"):
        extract_topics_for_targets(ntm, enc, data, ["guns"], 4, 0.5)


def test_row_sparse_gradients_train_as_their_dense_form(monkeypatch, tmp_path):
    # batches of 2 leave both tables under half live after their first step
    schedule = TrainSchedule(
        max_iterations=2, ntm_epochs=2, classifier_epochs=1, batch_size=2,
        seed=33, patience=0,
    )
    grads_of = ad.grads_of
    kinds = set()
    unpacked = set()  # tables whose moments a RowSparse step unpacked

    def watched(step):
        def call(state, params, grads):
            packed = set(state.packed)
            step(state, params, grads)
            unpacked.update(
                k for k in packed - set(state.packed) if isinstance(grads[k], ad.RowSparse)
            )

        return call

    for module in (mutual_mod, ntm_mod):
        monkeypatch.setattr(module, "optimizer_step", watched(module.optimizer_step))

    def run(tag, densify):
        def collect(leaves):
            grads = grads_of(leaves)
            kinds.update(type(g).__name__ for g in grads.values())
            return {k: np.asarray(g) for k, g in grads.items()} if densify else grads

        monkeypatch.setattr(ad, "grads_of", collect)
        ntm, enc, data = _training_setup()
        result = train_alternating(
            ntm, enc, data, schedule, gamma=0.1,
            lr_ntm=2e-3, lr_classifier=1e-3, n_top_terms=4, ratio_p=0.5, max_len=64,
        )
        history_to_csv(result.history, tmp_path / f"{tag}.csv")
        return {**ntm.params, **enc.params, **result.proj_params}

    sparse = run("sparse", densify=False)
    assert "RowSparse" in kinds
    # the sparse run crosses the packing bound of both tables' moments
    assert {"word_emb", "enc_mu.W0"} <= unpacked, unpacked
    dense = run("dense", densify=True)
    assert sparse.keys() == dense.keys()
    for k in sparse:
        assert sparse[k].tobytes() == dense[k].tobytes(), k
    assert (tmp_path / "sparse.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()


def test_train_alternating_twice_gives_identical_bytes(tmp_path):
    schedule = TrainSchedule(
        max_iterations=2, ntm_epochs=1, classifier_epochs=1, batch_size=8,
        seed=21, patience=0,
    )

    def run(tag):
        ntm, enc, data = _training_setup(gamma=0.1)
        result = train_alternating(
            ntm, enc, data, schedule, gamma=0.1,
            lr_ntm=2e-3, lr_classifier=1e-3, n_top_terms=4, ratio_p=0.5, max_len=64,
        )
        history_to_csv(result.history, tmp_path / f"{tag}.csv")
        return {**ntm.params, **enc.params, **result.proj_params}

    first, second = run("first"), run("second")
    assert first.keys() == second.keys()
    for k in first:
        assert first[k].tobytes() == second[k].tobytes(), k
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()


def test_held_out_target_gets_topics_and_no_training_input_changes():
    records = stance_corpus(n_per_cell=8, seed=0)
    examples = examples_from_records(records)
    vocab = build_vocabulary(records, max_size=40)
    enc_vocab = build_encoder_vocab(records, max_size=100, ntm_vocab=vocab)
    split = make_cross_target_splits(records, examples)[1]
    held_out = split.held_out_target
    schedule = TrainSchedule(max_iterations=2, batch_size=8, seed=5, patience=0)

    def run(split):
        data = TrainData.from_split(split, vocab, enc_vocab, vectorize_all)
        ntm = init_ntm(NtmConfig(vocab.size, 4, 6, 10), compute_log_freq(data.bows), SeededRng(100))
        enc = init_encoder(EncoderConfig(enc_vocab.size, 8, 10, 6), SeededRng(101))
        result = train_alternating(
            ntm, enc, data, schedule, gamma=0.1,
            lr_ntm=2e-3, lr_classifier=5e-3, n_top_terms=4, ratio_p=0.5, max_len=64,
        )
        return data, result

    data, result = run(split)
    assert data.test_targets == [held_out]
    assert held_out not in {ex.target for ex in data.examples + data.val_examples}
    assert result.topics_by_target[held_out].terms
    test_inputs = build_inputs(split.test, result.topics_by_target, enc_vocab, 64, True)
    assert len(test_inputs) and (test_inputs.lengths > 0).all()
    # without the test targets the run trains bitwise the same; only the
    # held-out target's topics are missing
    _, blind = run(dataclasses.replace(split, test=[]))
    with_topics = _trained_state(result)
    assert _trained_state(blind)[:2] == with_topics[:2]
    assert blind.topics_by_target == {
        t: x for t, x in result.topics_by_target.items() if t != held_out
    }


def _stopping_run(seed, gamma, max_iterations, patience):
    ntm, enc, data = _training_setup()
    schedule = TrainSchedule(
        max_iterations=max_iterations, ntm_epochs=1, classifier_epochs=1, batch_size=8,
        seed=seed, patience=patience,
    )
    return train_alternating(
        ntm, enc, data, schedule, gamma=gamma,
        lr_ntm=2e-3, lr_classifier=5e-3, n_top_terms=4, ratio_p=0.5, max_len=64,
    )


def _selected_f1(result):
    """The validation macro F1 of the iteration the run returned; None without validation."""
    rows = [row for row in result.history if row.iteration == result.selected_iteration]
    return rows[-1].val_macro_f1


def _trained_state(result, through=None):
    """Everything a run returns, its history cut after iteration `through`."""
    params = {**result.ntm.params, **result.enc.params, **(result.proj_params or {})}
    return (
        {k: v.tobytes() for k, v in params.items()},
        repr([row for row in result.history if through is None or row.iteration <= through]),
        repr(sorted(result.topics_by_target.items())),
        _selected_f1(result),
        result.selected_iteration,
        result.ntm_steps,
        result.classifier_steps,
    )


def _val_f1s(result):
    return [row.val_macro_f1 for row in result.history if row.val_macro_f1 is not None]


@pytest.mark.parametrize("gamma", [0.0, 0.1])
@pytest.mark.parametrize("patience", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_early_stop_equals_the_run_cut_at_its_stop(seed, patience, gamma):
    """A run that stops at k after selecting iteration j returns bitwise the
    run that was only ever given j iterations."""
    stopped = _stopping_run(seed, gamma, max_iterations=8, patience=patience)
    k = stopped.stopped_at_iteration
    f1s = _val_f1s(stopped)
    assert len(f1s) == k < 8
    # a round is bad unless it strictly beats every earlier round (a tie is bad);
    # the run stops at the first iteration that ends `patience` bad rounds in a row
    bad = [i > 0 and f1s[i] <= max(f1s[:i]) for i in range(len(f1s))]
    assert k == next(
        i + 1 for i in range(patience, len(bad)) if all(bad[i - patience + 1 : i + 1])
    )
    # the selected iteration is the first to reach the best F1
    j = f1s.index(max(f1s)) + 1
    assert stopped.selected_iteration == j < k
    assert _selected_f1(stopped) == max(f1s)
    # the RNG streams do not depend on max_iterations, so the iterations up to j
    # are bitwise those of the run cut at j
    cut = _stopping_run(seed, gamma, max_iterations=j, patience=0)
    assert cut.stopped_at_iteration == cut.selected_iteration == j
    assert _trained_state(stopped, through=j) == _trained_state(cut)


@pytest.mark.parametrize("seed", [1, 2])  # seed 2 ties its best F1 at iterations 2 and 3
def test_patience_that_never_runs_out_returns_the_best_iteration(seed):
    run = _stopping_run(seed, 0.1, max_iterations=5, patience=5)
    f1s = _val_f1s(run)
    assert run.stopped_at_iteration == len(f1s) == 5
    j = f1s.index(max(f1s)) + 1
    assert run.selected_iteration == j < 5  # an earlier best, not the last iteration
    cut = _stopping_run(seed, 0.1, max_iterations=j, patience=0)
    assert _trained_state(run, through=j) == _trained_state(cut)
    last = _stopping_run(seed, 0.1, max_iterations=5, patience=0)
    assert last.selected_iteration == 5
    assert _trained_state(last)[0] != _trained_state(run)[0]


def test_a_run_without_validation_selects_its_last_iteration():
    def run(patience):
        ntm, enc, data = _training_setup()
        data.val_examples = []
        schedule = TrainSchedule(
            max_iterations=3, ntm_epochs=1, classifier_epochs=1, batch_size=8,
            seed=2, patience=patience,
        )
        return train_alternating(
            ntm, enc, data, schedule, gamma=0.1,
            lr_ntm=2e-3, lr_classifier=5e-3, n_top_terms=4, ratio_p=0.5, max_len=64,
        )

    patient = run(2)
    assert patient.selected_iteration == patient.stopped_at_iteration == 3
    assert _selected_f1(patient) is None
    assert _trained_state(patient) == _trained_state(run(0))
