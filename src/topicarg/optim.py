"""Adam and AdamW with bias correction; updates are in place."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import RowSparse


@dataclass
class OptimizerState:
    algorithm: str  # "adam" | "adamw"
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ("adam", "adamw"):
            raise ValueError(f"unknown optimizer {self.algorithm!r}")


def adam(learning_rate: float, beta1: float = 0.9, beta2: float = 0.999) -> OptimizerState:
    return OptimizerState("adam", learning_rate, beta1, beta2)


def adamw(
    learning_rate: float,
    weight_decay: float = 0.01,
    beta1: float = 0.9,
    beta2: float = 0.999,
) -> OptimizerState:
    return OptimizerState("adamw", learning_rate, beta1, beta2, weight_decay=weight_decay)


# Elements per block: 16k float64 = 128 KiB, so a block of p, g, m, v and the
# two scratch buffers stays in L2 while all of its ufuncs run over it.
_CHUNK = 16384


def optimizer_step(
    state: OptimizerState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray | RowSparse],
) -> None:
    """One Adam/AdamW step over every entry of `params`.

    AdamW applies decoupled weight decay against the pre-update values, so a
    zero gradient still shrinks a parameter by lr * weight_decay * value.

    The update runs in place, block by block over the flattened arrays, with
    the textbook operation order kept element for element::

        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        u = (m/bc1) / (sqrt(v/bc2) + eps)  [+ wd*p for AdamW]
        p -= lr*u

    so results are bitwise-equal to evaluating those expressions on whole
    arrays. A `RowSparse` gradient is stepped as its dense form would be:
    blocks hold whole rows, and rows it does not touch take the g = 0 update
    (moments decay, AdamW still decays p) without a dense g being built or
    read. Every gradient (a `RowSparse` one through its values) is checked
    for finiteness, and every stepped parameter for C-contiguity, before
    anything is mutated.
    """
    finite = np.empty(_CHUNK, dtype=bool)
    for name, g in grads.items():
        # block by block into one buffer, in whatever layout g has
        for block in np.nditer(
            g.values if isinstance(g, RowSparse) else g,
            flags=["external_loop", "buffered", "zerosize_ok"],
            buffersize=_CHUNK,
        ):
            if not np.isfinite(block, out=finite[: block.size]).all():
                raise FloatingPointError(
                    f"non-finite gradient for parameter {name!r} at step {state.step_count + 1}"
                )
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if not p.flags.c_contiguous:
            # reshape(-1) would copy, and the in-place update would be lost
            raise ValueError(f"parameter {name!r} is not C-contiguous")
        if g.shape != p.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter {name!r} {p.shape}"
            )
    state.step_count += 1
    t = state.step_count
    b1, b2, eps, lr = state.beta1, state.beta2, state.eps, state.learning_rate
    c1, c2 = 1.0 - b1, 1.0 - b2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    decay = state.weight_decay if state.algorithm == "adamw" else 0.0
    scratch_a = np.empty(_CHUNK)
    scratch_b = np.empty(_CHUNK)
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_m = state.m[name].reshape(-1)
        flat_v = state.v[name].reshape(-1)
        sparse = isinstance(g, RowSparse)
        if sparse:
            width = p.shape[1]
            rows_per_block = max(1, _CHUNK // max(width, 1))
            size = rows_per_block * width
            # g.rows[bounds[i]:bounds[i + 1]] are the touched rows of block i
            bounds = np.searchsorted(
                g.rows, np.arange(0, p.shape[0] + rows_per_block, rows_per_block)
            )
        else:
            size = _CHUNK
            flat_g = g.reshape(-1)  # a copy when g is strided; it is only read
        if size > scratch_a.size:
            scratch_a = np.empty(size)
            scratch_b = np.empty(size)
        for i, lo in enumerate(range(0, flat_p.size, size)):
            hi = min(lo + size, flat_p.size)
            pc, mc, vc = flat_p[lo:hi], flat_m[lo:hi], flat_v[lo:hi]
            a, u = scratch_a[: hi - lo], scratch_b[: hi - lo]
            np.multiply(mc, b1, out=mc)
            if sparse:
                # a = g*c1 over the block: +0.0, as 0.0*c1 is, on untouched rows
                local = g.rows[bounds[i] : bounds[i + 1]] - i * rows_per_block
                gv = g.values[bounds[i] : bounds[i + 1]]
                a_rows = a.reshape(-1, width)
                a.fill(0.0)
                a_rows[local] = gv * c1
            else:
                gc = flat_g[lo:hi]
                np.multiply(gc, c1, out=a)
            np.add(mc, a, out=mc)
            np.multiply(vc, b2, out=vc)
            if sparse:
                # untouched rows still hold 0.0, which (0.0*c2)*0.0 also is
                a_rows[local] = (gv * c2) * gv
            else:
                np.multiply(gc, c2, out=a)
                np.multiply(a, gc, out=a)
            np.add(vc, a, out=vc)
            np.divide(vc, bc2, out=a)
            np.sqrt(a, out=a)
            np.add(a, eps, out=a)
            np.divide(mc, bc1, out=u)
            np.divide(u, a, out=u)
            if decay != 0.0:
                np.multiply(pc, decay, out=a)
                np.add(u, a, out=u)
            np.multiply(u, lr, out=u)
            np.subtract(pc, u, out=pc)
