"""Adam and AdamW with bias correction; updates are in place."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import RowSparse


@dataclass
class OptimizerState:
    """Hyper-parameters, the step count and the moments of one optimizer.

    `live[name]`, for a parameter whose moments a `RowSparse` step created,
    marks the rows any gradient has touched since: only those rows can hold
    nonzero moments. A dense gradient drops the entry, and a name without
    one has every row live.
    """

    algorithm: str  # "adam" | "adamw"
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    live: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ("adam", "adamw"):
            raise ValueError(f"unknown optimizer {self.algorithm!r}")
        # `not (x > 0)` also rejects NaN. Untouched rows are skipped exactly
        # only under these bounds: eps = 0 would make their update 0/0.
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate!r}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps!r}")
        if not self.weight_decay >= 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay!r}")


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

# A block of a row-sparse parameter is updated in place when at least this
# share of its rows is live, and otherwise has its live rows gathered,
# updated and scattered back. Per row, the gathered path costs about 1.5x
# (Adam, 256 wide) to 1.8x (AdamW, 100 wide) an in-place update, and AdamW
# also decays the dead rows around gathered ones, so gathering pays below
# about 0.6 (Adam) and 0.43 (AdamW) live rows in standalone timings
# (CHANGES.md). The shares below sit at or just under those break-evens.
_IN_PLACE_SHARE = 0.6
_IN_PLACE_SHARE_DECAY = 0.4


class _Step:
    """The constants of one step, its scratch buffers and its block updates."""

    def __init__(self, state: OptimizerState):
        t = state.step_count
        self.b1, self.b2 = state.beta1, state.beta2
        self.c1, self.c2 = 1.0 - state.beta1, 1.0 - state.beta2
        self.bc1 = 1.0 - state.beta1**t
        self.bc2 = 1.0 - state.beta2**t
        self.eps, self.lr = state.eps, state.learning_rate
        self.decay = state.weight_decay if state.algorithm == "adamw" else 0.0
        self.in_place_share = _IN_PLACE_SHARE_DECAY if self.decay else _IN_PLACE_SHARE
        self.a, self.u = np.empty(_CHUNK), np.empty(_CHUNK)

    def reserve(self, size: int) -> None:
        if size > self.a.size:
            self.a, self.u = np.empty(size), np.empty(size)

    def update(self, pc, mc, vc, gc=None, rows=None, values=None) -> None:
        """The textbook update of flat blocks pc, mc, vc, in place. The
        gradient is the flat block `gc`, or else zero apart from rows `rows`
        of the block (viewed as rows of `values`' width), which hold `values`."""
        b1, b2, c1, c2 = self.b1, self.b2, self.c1, self.c2
        a, u = self.a[: pc.size], self.u[: pc.size]
        np.multiply(mc, b1, out=mc)
        if gc is None:
            # a = g*c1 over the block: +0.0, as 0.0*c1 is, on untouched rows
            a_rows = a.reshape(-1, values.shape[1])
            a.fill(0.0)
            a_rows[rows] = values * c1
        else:
            np.multiply(gc, c1, out=a)
        np.add(mc, a, out=mc)
        np.multiply(vc, b2, out=vc)
        if gc is None:
            # untouched rows still hold 0.0, which (0.0*c2)*0.0 also is
            a_rows[rows] = (values * c2) * values
        else:
            np.multiply(gc, c2, out=a)
            np.multiply(a, gc, out=a)
        np.add(vc, a, out=vc)
        np.divide(vc, self.bc2, out=a)
        np.sqrt(a, out=a)
        np.add(a, self.eps, out=a)
        np.divide(mc, self.bc1, out=u)
        np.divide(u, a, out=u)
        if self.decay != 0.0:
            np.multiply(pc, self.decay, out=a)
            np.add(u, a, out=u)
        np.multiply(u, self.lr, out=u)
        np.subtract(pc, u, out=pc)

    def decay_only(self, flat_p) -> None:
        """`update` on rows with m = v = 0 and g = 0, where u is exactly 0.0:
        m and v stay +0.0, and p -= lr*(0.0 + decay*p) (nothing for Adam)."""
        if self.decay == 0.0:
            return
        for lo in range(0, flat_p.size, _CHUNK):
            pc = flat_p[lo : lo + _CHUNK]
            a = self.a[: pc.size]
            np.multiply(pc, self.decay, out=a)
            np.add(a, 0.0, out=a)
            np.multiply(a, self.lr, out=a)
            np.subtract(pc, a, out=pc)


def _step_dense(step: _Step, p, m, v, g) -> None:
    flat_p, flat_m, flat_v = p.reshape(-1), m.reshape(-1), v.reshape(-1)
    flat_g = g.reshape(-1)  # a copy when g is strided; it is only read
    for lo in range(0, flat_p.size, _CHUNK):
        hi = lo + _CHUNK
        step.update(flat_p[lo:hi], flat_m[lo:hi], flat_v[lo:hi], gc=flat_g[lo:hi])


def _step_row_sparse(step: _Step, p, m, v, g: RowSparse, live) -> None:
    """Walk p in blocks of whole rows (`live` None: every row is live). A
    block with at least `in_place_share` live rows is updated in place. The
    live rows of the other blocks are pooled, up to a block's worth at a
    time, gathered, updated and scattered back, after the rows around them
    took `decay_only`. Rows that are not live have m = v = 0 and g = 0, so
    every path gives each element the same operations."""
    n_rows, width = p.shape
    per_block = max(1, _CHUNK // max(width, 1))
    step.reserve(per_block * width)
    flat_p, flat_m, flat_v = p.reshape(-1), m.reshape(-1), v.reshape(-1)
    live_rows = np.arange(n_rows) if live is None else np.flatnonzero(live)
    edges = np.arange(0, n_rows + per_block, per_block)
    # g.rows[touched[i]:touched[i + 1]] are the touched rows of block i, and
    # live_rows[at[i]:at[i + 1]] its live rows
    touched = np.searchsorted(g.rows, edges).tolist()
    at = np.searchsorted(live_rows, edges).tolist()
    edges = [min(e, n_rows) for e in edges.tolist()]

    def gathered(b0, b1):
        rows = live_rows[at[b0] : at[b1]]
        pg, mg, vg = p[rows], m[rows], v[rows]
        step.decay_only(flat_p[edges[b0] * width : edges[b1] * width])
        t0, t1 = touched[b0], touched[b1]
        local = np.searchsorted(rows, g.rows[t0:t1])
        step.update(
            pg.reshape(-1), mg.reshape(-1), vg.reshape(-1), rows=local, values=g.values[t0:t1]
        )
        p[rows], m[rows], v[rows] = pg, mg, vg

    pooled = None  # the first block whose live rows wait to be gathered
    for i in range(len(edges) - 1):
        lo, hi = edges[i], edges[i + 1]
        in_place = at[i + 1] - at[i] >= step.in_place_share * (hi - lo)
        if pooled is not None and (in_place or at[i + 1] - at[pooled] > per_block):
            gathered(pooled, i)
            pooled = None
        if in_place:
            t0, t1 = touched[i], touched[i + 1]
            block = slice(lo * width, hi * width)
            local = g.rows[t0:t1] - lo
            step.update(
                flat_p[block], flat_m[block], flat_v[block], rows=local, values=g.values[t0:t1]
            )
        elif pooled is None:
            pooled = i
    if pooled is not None:
        gathered(pooled, len(edges) - 1)


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
    arrays. A `RowSparse` gradient is stepped as its dense form would be,
    without a dense g being built or read. Rows it has never touched (since
    the optimizer created m and v) still have m = v = +0.0, and with g = 0
    their update is exactly u = 0.0: for Adam a no-op, which is skipped, and
    for AdamW p -= lr*(0.0 + wd*p), which is all they are given. Every
    gradient (a `RowSparse` one through its values) is checked for
    finiteness, and every stepped parameter for C-contiguity, before
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
    step = _Step(state)
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        sparse = isinstance(g, RowSparse)
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
            if sparse:
                state.live[name] = np.zeros(p.shape[0], dtype=bool)
        if not sparse:
            state.live.pop(name, None)
            _step_dense(step, p, state.m[name], state.v[name], g)
            continue
        live = state.live.get(name)
        if live is not None:
            live[g.rows] = True
        _step_row_sparse(step, p, state.m[name], state.v[name], g, live)
