"""Dense networks, seeded randomness and the mutual-learning similarity graphs.

Training and inference build their math as autodiff graphs via `mlp_forward`
and the ops in :mod:`topicarg.autodiff`; array-level restatements of the
numeric contracts (softmax, cross-entropy, the KL divergences) and the
finite-difference gradient check are test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import autodiff as ad

# Probability floor used inside every log and KL ratio.
EPS = 1e-8

# Guard for the harmonic denominator in the differentiable path; invisible in
# float64 unless both KLs are essentially zero.
_HARMONIC_GUARD = 1e-30

_ACTIVATIONS = {"relu": ad.relu, "softplus": ad.softplus}


class SeededRng:
    """PCG64 generator with a spawnable integer seed path.

    Identical seed paths give identical draw sequences; `child` derives an
    independent, reproducible stream without disturbing this one.
    """

    def __init__(self, *seed_path: int):
        if not seed_path:
            raise ValueError("seed path must contain at least one integer")
        self.seed_path = tuple(int(s) for s in seed_path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed_path))
        )

    def child(self, *key: int) -> "SeededRng":
        return SeededRng(*self.seed_path, *key)

    def normal(self, shape=None) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, shape=None):
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"SeededRng{self.seed_path}"


@dataclass(frozen=True)
class MlpSpec:
    """Shape of a dense network: widths [in, h1, ..., out], a hidden activation
    and a linear output layer."""

    layer_widths: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        if len(self.layer_widths) < 2:
            raise ValueError("an MLP needs at least one layer (two widths)")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("layer widths must be >= 1")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1


def init_mlp(spec: MlpSpec, rng: SeededRng, prefix: str = "") -> dict[str, np.ndarray]:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    params: dict[str, np.ndarray] = {}
    for i, (n_in, n_out) in enumerate(
        zip(spec.layer_widths[:-1], spec.layer_widths[1:])
    ):
        bound = np.sqrt(6.0 / (n_in + n_out))
        params[f"{prefix}W{i}"] = rng.uniform(-bound, bound, (n_in, n_out))
        params[f"{prefix}b{i}"] = np.zeros(n_out)
    return params


def mlp_forward(spec: MlpSpec, params: dict, x, prefix: str = "") -> ad.Tensor:
    """Run the MLP on a (B, d) batch; `params` may hold ndarrays or Tensors.

    A scipy CSR `x` is a constant whose first layer costs O(nonzeros).
    """
    h = x if sparse.issparse(x) else ad.as_tensor(x)
    if h.shape[-1] != spec.layer_widths[0]:
        raise ValueError(
            f"input width {h.shape[-1]} != first layer width {spec.layer_widths[0]}"
        )
    act = _ACTIVATIONS[spec.activation]
    for i in range(spec.n_layers):
        w = ad.as_tensor(params[f"{prefix}W{i}"])
        b = ad.as_tensor(params[f"{prefix}b{i}"])
        h = (ad.csr_matmul(h, w) if sparse.issparse(h) else ad.matmul(h, w)) + b
        if i < spec.n_layers - 1:
            h = act(h)
    return h


def _kl_rows_graph(p, q) -> ad.Tensor:
    """Row-wise floored KL between (B, K) distributions; returns (B,)."""
    p = ad.as_tensor(p)
    q = ad.as_tensor(q)
    return ad.tensor_sum(p * (ad.log(p + EPS) - ad.log(q + EPS)), axis=1)


def similarity_graph(u, z) -> ad.Tensor:
    """Differentiable row-wise O(u, z); either side may be a constant."""
    # floored KLs can dip a hair below 0; clamping them keeps O in (0, 1]
    a = ad.relu(_kl_rows_graph(u, z))
    b = ad.relu(_kl_rows_graph(z, u))
    harm = a * b / (a + b + _HARMONIC_GUARD)
    return 1.0 / (1.0 + harm)


def mutual_sum_graph(u, z) -> ad.Tensor:
    """Batch mutual loss sum(1 - O) as a scalar Tensor."""
    return ad.tensor_sum(1.0 - similarity_graph(u, z))
