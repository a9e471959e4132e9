"""Dense networks, seeded randomness, and finite-difference checking.

Training and inference build their math as autodiff graphs via `mlp_forward`
and the ops in :mod:`topicarg.autodiff`; array-level restatements of the
numeric contracts (softmax, cross-entropy, the KL divergences) are test
oracles.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import autodiff as ad

# Probability floor used inside every log and KL ratio.
EPS = 1e-8

_ACTIVATIONS = {
    "relu": ad.relu,
    "tanh": ad.tanh,
    "softplus": ad.softplus,
    "identity": lambda t: t,
}


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
    """Shape of a dense network: widths [in, h1, ..., out] plus activations."""

    layer_widths: tuple[int, ...]
    activation: str = "relu"
    output_activation: str = "identity"

    def __post_init__(self):
        if len(self.layer_widths) < 2:
            raise ValueError("an MLP needs at least one layer (two widths)")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("layer widths must be >= 1")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.output_activation not in ("identity", "softmax"):
            raise ValueError(f"unknown output activation {self.output_activation!r}")

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
    """Run the MLP; `params` values may be ndarrays (inference) or Tensors.

    A scipy sparse `x` is a constant whose first layer costs O(nonzeros).
    """
    if sparse.issparse(x):
        h = x
    else:
        h = ad.as_tensor(x)
        if h.data.ndim == 1:
            h = ad.reshape(h, (1, -1))
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
    if spec.output_activation == "softmax":
        h = ad.softmax(h, axis=-1)
    return h


@dataclass
class GradCheckEntry:
    param: str
    index: tuple
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    entries: list[GradCheckEntry] = field(default_factory=list)

    def worst(self) -> GradCheckEntry:
        return max(self.entries, key=lambda e: e.rel_error)


def grad_check(
    loss_fn,
    params: dict[str, np.ndarray],
    *,
    samples: int = 200,
    tolerance: float = 1e-4,
    rng: SeededRng,
    step: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    `loss_fn` maps a dict of leaf Tensors to a scalar Tensor. `samples`
    coordinates are probed, drawn uniformly over all parameter entries.
    """
    leaves = ad.lift(params)
    out = loss_fn(leaves)
    out.backward()
    analytic = {k: np.asarray(g) for k, g in ad.grads_of(leaves).items()}

    coords = []
    names = sorted(params)
    sizes = np.array([params[n].size for n in names])
    total = int(sizes.sum())
    for flat in rng.integers(0, total, samples):
        k = int(np.searchsorted(np.cumsum(sizes), flat, side="right"))
        offset = int(flat - np.concatenate(([0], np.cumsum(sizes)))[k])
        coords.append((names[k], np.unravel_index(offset, params[names[k]].shape)))

    def eval_loss() -> float:
        return float(loss_fn(ad.lift(params, requires_grad=False)).data)

    entries = []
    for name, index in coords:
        arr = params[name]
        x0 = arr[index]
        h = step * max(1.0, abs(x0))
        arr[index] = x0 + h
        f_plus = eval_loss()
        arr[index] = x0 - h
        f_minus = eval_loss()
        arr[index] = x0
        numeric = (f_plus - f_minus) / (2.0 * h)
        ana = float(analytic[name][index])
        rel = abs(ana - numeric) / max(abs(ana) + abs(numeric), 1e-6)
        entries.append(GradCheckEntry(name, index, ana, numeric, rel))

    max_rel = max((e.rel_error for e in entries), default=0.0)
    return GradCheckReport(max_rel, tolerance, max_rel <= tolerance, entries)
