"""VAE neural topic model.

Two encoder MLPs map a count-normalized BoW vector to the posterior mean and
log-variance; the reparameterized latent goes through softplus, then a linear
head and softmax give the sentence's topic distribution z. Decoding scores
word w as log_softmax(m + z @ T)[w], with m the fixed smoothed log-frequency
vector and T the K x V topic-word matrix. Training minimizes the negative
ELBO: reconstruction cross-entropy plus the Gaussian KL to the prior.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import autodiff as ad
from .corpus import Vocabulary
from .nn import MlpSpec, SeededRng, init_mlp, mlp_forward, mutual_sum_graph
from .optim import OptimizerState, optimizer_step


@dataclass(frozen=True)
class NtmConfig:
    vocab_size: int
    num_topics: int = 10
    latent_dim: int = 64
    hidden_dim: int = 256

    def encoder_spec(self) -> MlpSpec:
        """The shape of both posterior encoders, mean and log-variance."""
        return MlpSpec((self.vocab_size, self.hidden_dim, self.latent_dim), "softplus")

    def topic_head_spec(self) -> MlpSpec:
        return MlpSpec((self.latent_dim, self.num_topics))


@dataclass
class NtmEpochStats:
    mean_total: float
    mean_kl: float
    mean_mutual: float


class NtmParams:
    """Trainable state plus the fixed log-frequency vector."""

    def __init__(self, cfg: NtmConfig, params: dict[str, np.ndarray], log_freq: np.ndarray):
        if params["topic_word"].shape != (cfg.num_topics, cfg.vocab_size):
            raise ValueError("topic_word must be K x V")
        if log_freq.shape != (cfg.vocab_size,):
            raise ValueError("log_freq must have length V")
        self.cfg = cfg
        self.params = params
        self.log_freq = log_freq

    @property
    def topic_word(self) -> np.ndarray:
        return self.params["topic_word"]


def init_ntm(cfg: NtmConfig, log_freq: np.ndarray, rng: SeededRng) -> NtmParams:
    params: dict[str, np.ndarray] = {}
    params.update(init_mlp(cfg.encoder_spec(), rng.child(0), prefix="enc_mu."))
    params.update(init_mlp(cfg.encoder_spec(), rng.child(1), prefix="enc_logvar."))
    params.update(init_mlp(cfg.topic_head_spec(), rng.child(2), prefix="topic_head."))
    bound = np.sqrt(6.0 / (cfg.num_topics + cfg.vocab_size))
    params["topic_word"] = rng.child(3).uniform(
        -bound, bound, (cfg.num_topics, cfg.vocab_size)
    )
    return NtmParams(cfg, params, np.asarray(log_freq, dtype=np.float64))


def compute_log_freq(corpus_bows) -> np.ndarray:
    """Add-one smoothed log unigram frequencies: ln((c_i + 1) / (total + V)).

    `corpus_bows` is an (N, V) count matrix, dense or CSR.
    """
    counts = np.asarray(corpus_bows.sum(axis=0), dtype=np.float64).ravel()
    total = counts.sum()
    if total <= 0:
        raise ValueError("corpus has no in-vocabulary tokens")
    return np.log((counts + 1.0) / (total + counts.shape[0]))


def normalize_bow(counts: sparse.csr_matrix) -> sparse.csr_matrix:
    """CSR count rows scaled to sum 1, as a new CSR matrix; all-zero rows stay zero."""
    x = counts.astype(np.float64)
    totals = np.asarray(x.sum(axis=1), dtype=np.float64).ravel()
    x.data /= np.repeat(np.where(totals > 0, totals, 1.0), np.diff(x.indptr))
    return x


def elbo_batch_graph(
    leaves: dict[str, ad.Tensor],
    cfg: NtmConfig,
    log_freq: np.ndarray,
    counts,
    noise: np.ndarray,
) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor]:
    """Differentiable batch ELBO; returns (recon_sum, kl_sum, z) Tensors.

    `counts` are CSR BoW rows. Only the reconstruction term reads them as a
    dense (B, V) block.
    """
    x = normalize_bow(counts)
    mu = mlp_forward(cfg.encoder_spec(), leaves, x, prefix="enc_mu.")
    logvar = mlp_forward(cfg.encoder_spec(), leaves, x, prefix="enc_logvar.")
    std = ad.exp(0.5 * logvar)
    theta = ad.softplus(mu + std * ad.constant(noise))
    logits = mlp_forward(cfg.topic_head_spec(), leaves, theta, prefix="topic_head.")
    z = ad.softmax(logits)
    word_logits = ad.matmul(z, leaves["topic_word"]) + ad.constant(log_freq)
    logp = ad.log_softmax(word_logits)
    recon_sum = -ad.tensor_sum(ad.constant(counts.toarray()) * logp)
    kl_sum = 0.5 * ad.tensor_sum(ad.exp(logvar) + mu * mu - 1.0 - logvar)
    return recon_sum, kl_sum, z


def train_ntm_epoch(
    ntm: NtmParams,
    corpus_bows,
    optimizer: OptimizerState,
    batch_size: int,
    rng: SeededRng,
    kl_weight: float = 1.0,
    u_targets: np.ndarray | None = None,
    gamma: float = 0.0,
) -> NtmEpochStats:
    """One shuffled pass minimizing recon + kl_weight * kl (+ gamma * sum(1 - O(z, u))).

    `u_targets` are the classifier's frozen (N, K) topic-space distributions,
    one per row of `corpus_bows`; with them unset no mutual machinery runs.
    `corpus_bows` is the CSR count matrix `corpus.vectorize_all` builds.
    """
    n = corpus_bows.shape[0]
    if n == 0:
        raise ValueError("empty corpus")
    order = rng.permutation(n)
    sum_recon = sum_kl = sum_mutual = 0.0
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        counts = corpus_bows[idx]
        noise = rng.normal((len(idx), ntm.cfg.latent_dim))
        leaves = ad.lift(ntm.params)
        recon, kl, z = elbo_batch_graph(leaves, ntm.cfg, ntm.log_freq, counts, noise)
        loss = recon + kl_weight * kl
        if u_targets is not None:
            mut = mutual_sum_graph(z, ad.constant(u_targets[idx]))
            loss = loss + gamma * mut
            sum_mutual += float(mut.data)
        loss.backward()
        optimizer_step(optimizer, ntm.params, ad.grads_of(leaves))
        sum_recon += float(recon.data)
        sum_kl += float(kl.data)
    return NtmEpochStats(
        mean_total=(sum_recon + sum_kl) / n,
        mean_kl=sum_kl / n,
        mean_mutual=sum_mutual / n,
    )


def infer_topic_distributions(ntm: NtmParams, corpus_bows) -> np.ndarray:
    """Zero-noise z for every CSR count row: the deterministic posterior-mean path.

    With no noise z depends on mu alone, so the log-variance encoder is not run.
    """
    cfg, params = ntm.cfg, ntm.params
    mu = mlp_forward(cfg.encoder_spec(), params, normalize_bow(corpus_bows), prefix="enc_mu.")
    logits = mlp_forward(cfg.topic_head_spec(), params, ad.softplus(mu), prefix="topic_head.")
    return ad.softmax(logits).data


def export_topic_word_tsv(ntm: NtmParams, vocab: Vocabulary, path) -> None:
    """Full K x V matrix as rows of (topic id, word, weight) for audit/coherence."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("topic\tword\tweight\n")
        for k in range(ntm.cfg.num_topics):
            for i, word in enumerate(vocab.id_to_word):
                fh.write(f"{k}\t{word}\t{float(ntm.topic_word[k, i])!r}\n")
