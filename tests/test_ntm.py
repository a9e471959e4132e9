import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from oracles import gaussian_kl, infer, softmax, softplus_np
from synthdata import planted_topic_corpus
from topicarg import autodiff as ad
from topicarg.nn import SeededRng, grad_check, mlp_forward
from topicarg.ntm import (
    NtmConfig,
    NtmParams,
    compute_log_freq,
    elbo_batch_graph,
    infer_topic_distributions,
    init_ntm,
    train_ntm_epoch,
)
from topicarg.optim import adam


# Array-level oracles: the VAE restated in numpy, one sentence or a batch.
@dataclass
class LatentSample:
    mu: np.ndarray
    logvar: np.ndarray
    noise: np.ndarray
    theta_hat: np.ndarray


@dataclass
class ElboParts:
    total: float
    reconstruction: float
    kl: float


def reparameterize(mu, logvar, rng: SeededRng) -> LatentSample:
    """theta_hat = softplus(mu + exp(logvar/2) * noise), noise ~ N(0, I)."""
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    if mu.shape != logvar.shape:
        raise ValueError(f"shape mismatch: {mu.shape} vs {logvar.shape}")
    noise = rng.normal(mu.shape)
    theta_hat = softplus_np(mu + np.exp(0.5 * logvar) * noise)
    return LatentSample(mu=mu, logvar=logvar, noise=noise, theta_hat=theta_hat)


def topic_distribution(ntm: NtmParams, sample: LatentSample) -> np.ndarray:
    """Softmax over the topic head's logits; a valid length-K distribution."""
    theta = np.atleast_2d(sample.theta_hat)
    logits = mlp_forward(ntm.cfg.topic_head_spec(), ntm.params, theta, prefix="topic_head.").data
    z = softmax(logits, axis=-1)
    return z[0] if sample.theta_hat.ndim == 1 else z


def decode(ntm: NtmParams, z) -> np.ndarray:
    """Log word probabilities log_softmax(m + z @ T)."""
    z = np.asarray(z, dtype=np.float64)
    logits = ntm.log_freq + np.atleast_2d(z) @ ntm.topic_word
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return logp[0] if z.ndim == 1 else logp


def elbo_loss(ntm: NtmParams, v, rng: SeededRng, num_samples: int = 1) -> ElboParts:
    """Per-sentence negative ELBO, Monte Carlo averaged over `num_samples`."""
    if num_samples < 1:
        raise ValueError("need at least one Monte Carlo sample")
    v = np.asarray(v, dtype=np.float64)
    mu, logvar = infer(ntm, v)
    recon = 0.0
    for _ in range(num_samples):
        z = topic_distribution(ntm, reparameterize(mu, logvar, rng))
        recon -= float(np.dot(v, decode(ntm, z)))
    recon /= num_samples
    kl = gaussian_kl(mu, logvar)
    return ElboParts(total=recon + kl, reconstruction=recon, kl=kl)


def dense_topic_distributions(ntm: NtmParams, counts) -> np.ndarray:
    """Zero-noise z with a dense first layer: rows normalized, then x @ W0 by BLAS."""
    totals = counts.sum(axis=1, keepdims=True)
    x = counts / np.where(totals > 0, totals, 1.0)
    mu = mlp_forward(ntm.cfg.mu_spec(), ntm.params, x, prefix="enc_mu.").data
    zeros = np.zeros_like(mu)
    return topic_distribution(ntm, LatentSample(mu, zeros, zeros, softplus_np(mu)))


def small_ntm(vocab_size=20, num_topics=3, latent_dim=5, hidden_dim=8, seed=0):
    cfg = NtmConfig(vocab_size, num_topics, latent_dim, hidden_dim)
    log_freq = np.log(np.full(vocab_size, 1.0 / vocab_size))
    return init_ntm(cfg, log_freq, SeededRng(seed))


def zeroed(ntm: NtmParams) -> NtmParams:
    for v in ntm.params.values():
        v[...] = 0.0
    return ntm


class TestLogFreq:
    def test_hand_evaluated_two_words(self):
        m = compute_log_freq(np.array([[1, 1]], dtype=float))
        assert np.allclose(m, [math.log(2 / 4), math.log(2 / 4)])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            compute_log_freq(np.zeros((3, 4)))

    def test_uniform_counts_give_uniform_m(self):
        m = compute_log_freq(np.full((5, 8), 2.0))
        assert np.allclose(m, m[0])
        assert np.allclose(np.exp(m).sum(), 1.0)

    def test_accepts_sparse(self):
        from scipy import sparse

        dense = np.array([[0, 2], [1, 0]], dtype=float)
        assert np.allclose(
            compute_log_freq(sparse.csr_matrix(dense)), compute_log_freq(dense)
        )


class TestInfer:
    def test_zero_weight_encoders_output_bias(self):
        ntm = zeroed(small_ntm())
        ntm.params["enc_mu.b1"][:] = 0.7
        ntm.params["enc_logvar.b1"][:] = -0.3
        mu, logvar = infer(ntm, np.ones(20))
        assert np.allclose(mu, 0.7)
        assert np.allclose(logvar, -0.3)

    def test_count_normalization_invariance(self):
        ntm = small_ntm()
        v = SeededRng(1).integers(0, 5, 20).astype(float)
        mu1, lv1 = infer(ntm, v)
        mu2, lv2 = infer(ntm, 2 * v)
        assert np.allclose(mu1, mu2)
        assert np.allclose(lv1, lv2)

    def test_shape_mismatch(self):
        ntm = small_ntm()
        with pytest.raises(ValueError):
            infer(ntm, np.ones(7))

    def test_batch_agrees_with_single(self):
        ntm = small_ntm()
        batch = SeededRng(2).integers(0, 4, (6, 20)).astype(float)
        mu_b, lv_b = infer(ntm, batch)
        for i in range(6):
            mu_i, lv_i = infer(ntm, batch[i])
            assert np.allclose(mu_b[i], mu_i)
            assert np.allclose(lv_b[i], lv_i)


class TestReparameterize:
    def test_zero_noise_is_softplus_of_mu(self):
        mu = np.array([0.5, -1.0, 2.0])
        sample = reparameterize(mu, np.zeros(3), SeededRng(1))
        forced = LatentSample(mu, np.zeros(3), np.zeros(3), softplus_np(mu))
        assert np.allclose(forced.theta_hat, softplus_np(mu))
        # the invariant holds for the actual draw too
        assert np.allclose(
            sample.theta_hat,
            softplus_np(mu + np.exp(0.5 * sample.logvar) * sample.noise),
        )

    def test_same_seed_identical_samples(self):
        mu, lv = np.ones(4), np.full(4, -0.5)
        s1 = reparameterize(mu, lv, SeededRng(7))
        s2 = reparameterize(mu, lv, SeededRng(7))
        assert np.array_equal(s1.noise, s2.noise)
        assert np.array_equal(s1.theta_hat, s2.theta_hat)

    def test_monte_carlo_mean_of_preactivation(self):
        # pre-activation mean over n draws must sit within 3*sigma/sqrt(n) of mu
        mu = np.array([0.3, -0.7])
        logvar = np.array([math.log(0.25), math.log(4.0)])
        n = 100_000
        rng = SeededRng(11)
        draws = mu + np.exp(0.5 * logvar) * rng.normal((n, 2))
        std = np.exp(0.5 * logvar)
        assert np.all(np.abs(draws.mean(axis=0) - mu) <= 3 * std / math.sqrt(n))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reparameterize(np.zeros(3), np.zeros(4), SeededRng(0))


class TestTopicDistribution:
    def test_zero_weight_head_gives_uniform(self):
        ntm = zeroed(small_ntm())
        z = topic_distribution(ntm, reparameterize(np.zeros(5), np.zeros(5), SeededRng(0)))
        assert np.allclose(z, 1.0 / 3)

    def test_k_10_length(self):
        ntm = small_ntm(num_topics=10)
        sample = reparameterize(np.zeros(5), np.zeros(5), SeededRng(3))
        assert topic_distribution(ntm, sample).shape == (10,)

    def test_valid_distribution_on_random_params(self):
        for seed in range(10):
            ntm = small_ntm(seed=seed)
            sample = reparameterize(
                SeededRng(seed).normal(5), SeededRng(seed + 1).normal(5), SeededRng(2)
            )
            z = topic_distribution(ntm, sample)
            assert np.all(z > 0)
            assert abs(z.sum() - 1.0) <= 1e-6


class TestDecode:
    def test_zero_topic_word_gives_unigram(self):
        ntm = small_ntm()
        ntm.params["topic_word"][...] = 0.0
        logp = decode(ntm, np.full(3, 1 / 3))
        assert np.allclose(np.exp(logp), softmax(ntm.log_freq))

    def test_one_hot_topic_selects_row(self):
        ntm = small_ntm()
        z = np.zeros(3)
        z[1] = 1.0
        logp = decode(ntm, z)
        expected_logits = ntm.log_freq + ntm.topic_word[1]
        assert np.allclose(np.exp(logp), softmax(expected_logits))

    def test_normalization_on_random_params(self):
        for seed in range(10):
            ntm = small_ntm(seed=seed)
            z = softmax(SeededRng(seed).normal(3))
            assert abs(np.exp(decode(ntm, z)).sum() - 1.0) <= 1e-6


class TestElbo:
    def test_zero_bow_reduces_to_kl(self):
        ntm = small_ntm()
        parts = elbo_loss(ntm, np.zeros(20), SeededRng(0))
        assert parts.reconstruction == 0.0
        assert parts.total == pytest.approx(parts.kl)
        assert parts.kl >= 0.0

    def test_forced_standard_posterior_has_zero_kl(self):
        ntm = zeroed(small_ntm())
        parts = elbo_loss(ntm, np.ones(20), SeededRng(0))
        assert parts.kl == 0.0

    def test_perfect_single_word_model(self):
        ntm = zeroed(small_ntm(vocab_size=2))
        ntm.log_freq = np.array([25.0, -25.0])  # softmax puts ~1 on word 0
        v = np.array([6.0, 0.0])
        parts = elbo_loss(ntm, v, SeededRng(0))
        assert parts.reconstruction == pytest.approx(0.0, abs=1e-6)

    def test_multi_sample_average(self):
        ntm = small_ntm()
        v = SeededRng(5).integers(0, 4, 20).astype(float)
        parts = elbo_loss(ntm, v, SeededRng(6), num_samples=16)
        assert parts.total == pytest.approx(parts.reconstruction + parts.kl)
        with pytest.raises(ValueError):
            elbo_loss(ntm, v, SeededRng(6), num_samples=0)

    def test_graph_matches_array_path(self):
        ntm = small_ntm()
        counts = SeededRng(3).integers(0, 4, (4, 20)).astype(float)
        noise = SeededRng(4).normal((4, 5))
        recon, kl, _ = elbo_batch_graph(
            ad.lift(ntm.params, requires_grad=False), ntm.cfg, ntm.log_freq, counts, noise
        )
        manual_recon = manual_kl = 0.0
        for i in range(4):
            mu, lv = infer(ntm, counts[i])
            theta = softplus_np(mu + np.exp(0.5 * lv) * noise[i])
            z = topic_distribution(ntm, LatentSample(mu, lv, noise[i], theta))
            manual_recon -= float(np.dot(counts[i], decode(ntm, z)))
            manual_kl += 0.5 * float(np.sum(np.exp(lv) + mu * mu - 1.0 - lv))
        assert float(recon.data) == pytest.approx(manual_recon, rel=1e-12)
        assert float(kl.data) == pytest.approx(manual_kl, rel=1e-12)

    def test_elbo_gradients_vs_finite_differences(self):
        ntm = small_ntm(vocab_size=20, num_topics=3, latent_dim=5, hidden_dim=6)
        counts = SeededRng(8).integers(0, 3, (3, 20)).astype(float)
        noise = SeededRng(9).normal((3, 5))

        def loss(leaves):
            recon, kl, _ = elbo_batch_graph(leaves, ntm.cfg, ntm.log_freq, counts, noise)
            return recon + kl

        report = grad_check(loss, ntm.params, samples=150, rng=SeededRng(10))
        assert report.passed, report.max_rel_error
        assert report.max_rel_error <= 1e-4


class TestTrainEpoch:
    def test_determinism_bitwise(self):
        def run():
            ntm = small_ntm(seed=2)
            bows = SeededRng(3).integers(0, 5, (40, 20)).astype(float)
            opt = adam(2e-3)
            for _ in range(3):
                train_ntm_epoch(ntm, bows, opt, batch_size=16, rng=SeededRng(4))
            return ntm

        a, b = run(), run()
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key]), key

    def test_loss_decreases_on_planted_corpus(self):
        bows, _, _ = planted_topic_corpus(n_docs=200, vocab_size=40, num_topics=3, seed=5)
        log_freq = compute_log_freq(bows.astype(float))
        ntm = init_ntm(NtmConfig(40, 3, 8, 16), log_freq, SeededRng(6))
        opt = adam(2e-3)
        rng = SeededRng(7)
        losses = [
            train_ntm_epoch(ntm, bows.astype(float), opt, 16, rng, kl_weight=1.0).mean_total
            for _ in range(12)
        ]
        assert losses[-1] < losses[0]

    def test_stats_count_and_types(self):
        ntm = small_ntm()
        bows = SeededRng(1).integers(0, 3, (10, 20)).astype(float)
        stats = train_ntm_epoch(ntm, bows, adam(1e-3), 4, SeededRng(2), kl_weight=0.5)
        assert stats.count == 10
        assert stats.kl_weight == 0.5
        assert stats.mean_mutual == 0.0

    def test_empty_corpus_rejected(self):
        ntm = small_ntm()
        with pytest.raises(ValueError):
            train_ntm_epoch(ntm, np.zeros((0, 20)), adam(1e-3), 4, SeededRng(2))


class TestInferTopicDistributions:
    def test_rows_are_distributions_and_deterministic(self):
        ntm = small_ntm()
        bows = SeededRng(5).integers(0, 4, (9, 20)).astype(float)
        z1 = infer_topic_distributions(ntm, bows)
        z2 = infer_topic_distributions(ntm, bows)
        assert z1.shape == (9, 3)
        assert np.allclose(z1.sum(axis=1), 1.0, atol=1e-6)
        assert np.array_equal(z1, z2)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 24),
        density=st.floats(0.0, 1.0),
        as_sparse=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_sparse_first_layer_matches_dense(self, rows, density, as_sparse, seed):
        ntm = small_ntm(seed=seed % 7)
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 5, (rows, 20)) * (rng.random((rows, 20)) < density)
        bows = sparse.csr_matrix(counts) if as_sparse else counts
        z = infer_topic_distributions(ntm, bows)
        # empty rows included: they see only the biases on both paths
        assert np.abs(z - dense_topic_distributions(ntm, counts.astype(float))).max() <= 1e-12


def test_topic_word_shape_validation():
    cfg = NtmConfig(vocab_size=6, num_topics=2, latent_dim=3, hidden_dim=4)
    params = init_ntm(cfg, np.zeros(6), SeededRng(0)).params
    params["topic_word"] = np.zeros((3, 6))
    with pytest.raises(ValueError):
        NtmParams(cfg, params, np.zeros(6))


def test_export_topic_word_tsv(tmp_path, tiny_vocab):
    ntm = small_ntm(vocab_size=12)
    from topicarg.ntm import export_topic_word_tsv

    path = tmp_path / "topic_word.tsv"
    export_topic_word_tsv(ntm, tiny_vocab, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "topic\tword\tweight"
    assert len(lines) == 1 + 3 * 12
    topic, word, weight = lines[1].split("\t")
    assert topic == "0" and word == "w0"
    assert float(weight) == ntm.topic_word[0, 0]
