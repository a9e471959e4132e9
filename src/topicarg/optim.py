"""Adam and AdamW with bias correction; updates are in place."""
from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from .autodiff import RowSparse


@dataclass
class PackedRows:
    """The layout of a packed parameter's moments: m[:n] and v[:n] hold rows
    `rows` of the row layout (n = rows.size, in the order they first became
    live), slot[r] is row r's index among them (-1 while r is dead), and the
    rows past n that m and v have room for are +0.0."""

    rows: np.ndarray
    slot: np.ndarray

    def make_live(self, rows: np.ndarray) -> None:
        new = rows[self.slot[rows] < 0]
        self.slot[new] = np.arange(self.rows.size, self.rows.size + new.size)
        self.rows = np.concatenate([self.rows, new])


@dataclass
class OptimizerState:
    """Hyper-parameters, the step count and the moments of one optimizer.

    A row is live once a gradient has touched it since its parameter's
    moments were created: only live rows can hold nonzero moments. A
    `RowSparse` step creates m and v packed, with `packed[name]` as their
    layout, and they stay packed while fewer than `_PACKED_SHARE` of the rows
    are live. Past that, or when a dense gradient arrives, they are unpacked
    into row layout once. `live[name]` then marks the live rows of a
    parameter whose moments a `RowSparse` step created; a dense gradient
    drops the entry, and a name with neither entry has every row live.
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
    packed: dict[str, PackedRows] = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ("adam", "adamw"):
            raise ValueError(f"unknown optimizer {self.algorithm!r}")
        # `not (x > 0)` also rejects NaN. Untouched rows are skipped exactly
        # only under these bounds: a scaled eps of 0 would make their update 0/0.
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate!r}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        # the step adds eps*sqrt(1 - beta2**t) >= eps*sqrt(1 - beta2) to sqrt(v)
        if not self.eps * math.sqrt(1.0 - self.beta2) > 0.0:
            raise ValueError(
                f"eps * sqrt(1 - beta2) must be > 0, got eps={self.eps!r}, beta2={self.beta2!r}"
            )
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
# updated and scattered back. Per row, the gathered path costs about 1.7x
# (256 wide) to 1.8x (100 wide) an in-place update, so gathering pays below
# about 0.58 and 0.56 live rows in interleaved standalone timings
# (CHANGES.md). The share sits just under both break-evens.
_IN_PLACE_SHARE = 0.55

# A row-sparse parameter's moments stay packed while fewer than this share of
# its rows are live. Packed, m and v hold the live rows alone, whereas numpy
# backs full-size arrays of 4 MiB or more with 2 MiB huge pages, each made
# resident whole by one scattered row write; and a packed step skips the m
# and v gathers of the block walk. In steady-state sweeps (CHANGES.md: rows
# going live in random order, 300 or 200 of them touched per step) packed
# steps took 0.73-0.78x the walk's time from 0.1 to 0.5 live, 0.89x (30003x100
# AdamW) and 0.81x (4888x256 Adam) at 0.6, and 1.14-1.32x and 1.04-1.12x at
# 0.8. The share sits at half, below that break-even, so a packed buffer
# never outgrows half its table, and the full fold, whose tables end 91-100%
# live, runs the walk for most of its steps.
_PACKED_SHARE = 0.5


class _Step:
    """The constants of one step, its scratch buffers and its block update."""

    def __init__(self, state: OptimizerState):
        t = state.step_count
        self.b1, self.b2 = state.beta1, state.beta2
        self.c1, self.c2 = 1.0 - state.beta1, 1.0 - state.beta2
        bc1 = 1.0 - state.beta1**t
        bc2 = 1.0 - state.beta2**t
        # Kingma & Ba (2015, sec. 2): the bias corrections folded into the
        # step size and into eps, which __post_init__ keeps above 0
        self.alpha = state.learning_rate * math.sqrt(bc2) / bc1
        self.eps_hat = state.eps * math.sqrt(bc2)
        # AdamW's decoupled decay as one multiply (Loshchilov & Hutter 2019)
        decay = state.weight_decay if state.algorithm == "adamw" else 0.0
        self.shrink = 1.0 - state.learning_rate * decay if decay else None
        self.a, self.u = np.empty(_CHUNK), np.empty(_CHUNK)

    def reserve(self, size: int) -> None:
        if size > self.a.size:
            self.a, self.u = np.empty(size), np.empty(size)

    def update(self, pc, mc, vc, gc=None, rows=None, values=None) -> None:
        """The Adam update of flat blocks pc, mc, vc, in place. The gradient
        is the flat block `gc`, or else zero apart from rows `rows` of the
        block (viewed as rows of `values`' width), which hold `values`."""
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
        np.sqrt(vc, out=a)
        np.add(a, self.eps_hat, out=a)
        np.multiply(mc, self.alpha, out=u)
        np.divide(u, a, out=u)
        np.subtract(pc, u, out=pc)


def _step_dense(step: _Step, p, m, v, g) -> None:
    flat_p, flat_m, flat_v = p.reshape(-1), m.reshape(-1), v.reshape(-1)
    flat_g = g.reshape(-1)  # a copy when g is strided; it is only read
    for lo in range(0, flat_p.size, _CHUNK):
        hi = lo + _CHUNK
        step.update(flat_p[lo:hi], flat_m[lo:hi], flat_v[lo:hi], gc=flat_g[lo:hi])


def _step_row_sparse(step: _Step, p, m, v, g: RowSparse, live) -> None:
    """Walk p in blocks of whole rows (`live` None: every row is live). A
    block with at least `_IN_PLACE_SHARE` live rows is updated in place. The
    live rows of the other blocks are pooled, up to a block's worth at a
    time, gathered, updated and scattered back. Rows that are not live have
    m = v = 0 and g = 0, so their update is exactly 0.0 and they are skipped."""
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
        t0, t1 = touched[b0], touched[b1]
        local = np.searchsorted(rows, g.rows[t0:t1])
        step.update(
            pg.reshape(-1), mg.reshape(-1), vg.reshape(-1), rows=local, values=g.values[t0:t1]
        )
        p[rows], m[rows], v[rows] = pg, mg, vg

    pooled = None  # the first block whose live rows wait to be gathered
    for i in range(len(edges) - 1):
        lo, hi = edges[i], edges[i + 1]
        in_place = at[i + 1] - at[i] >= _IN_PLACE_SHARE * (hi - lo)
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


def _step_packed(step: _Step, p, m, v, g: RowSparse, packed: PackedRows) -> None:
    """Walk the n packed rows of m and v in blocks, updating each block in
    place against p's rows gathered and scattered back. The dead rows are
    skipped, as in `_step_row_sparse`."""
    width = p.shape[1]
    n = packed.rows.size
    per_block = max(1, _CHUNK // max(width, 1))
    step.reserve(per_block * width)
    local = packed.slot[g.rows]
    by_slot = np.argsort(local, kind="stable")
    local, values = local[by_slot], g.values[by_slot]
    edges = range(0, n + per_block, per_block)
    # local[touched[i]:touched[i + 1]] are the touched slots of block i
    touched = np.searchsorted(local, edges).tolist()
    for i, lo in enumerate(edges[:-1]):
        hi = min(lo + per_block, n)
        rows = packed.rows[lo:hi]
        pg = p[rows]
        t0, t1 = touched[i], touched[i + 1]
        step.update(
            pg.reshape(-1), m[lo:hi].reshape(-1), v[lo:hi].reshape(-1),
            rows=local[t0:t1] - lo, values=values[t0:t1],
        )
        p[rows] = pg


def _reserve_packed(state: OptimizerState, name: str, n: int, n_rows: int) -> None:
    """Room for n packed rows in m and v, doubled whenever it runs short, up
    to the most rows a packed parameter of n_rows rows can have live."""
    most = math.ceil(_PACKED_SHARE * n_rows)
    for moments in (state.m, state.v):
        held = moments[name]
        if held.shape[0] < n:
            grown = _mapped_zeros((min(max(n, 2 * held.shape[0]), most), held.shape[1]))
            grown[: held.shape[0]] = held
            moments[name] = grown


def _mapped_zeros(shape: tuple) -> np.ndarray:
    """Zeros in an anonymous mapping of their own. Untouched pages take no
    memory, and the mapping goes back to the system when the array is freed,
    so a packed buffer outgrown or unpacked leaves no hole in the heap. (With
    `np.zeros` buffers, which the heap served, a full-fold iteration peaked
    24-28 MiB higher; CHANGES.md.)"""
    size = math.prod(shape)
    buffer = mmap.mmap(-1, max(size * 8, 1))
    return np.frombuffer(buffer, dtype=np.float64, count=size).reshape(shape)


def _unpack(state: OptimizerState, name: str, rows: np.ndarray, shape: tuple) -> None:
    """Move the packed rows `rows` of m and v to row layout, one array at a
    time. Rows past the room m and v have are new, so their moments are 0."""
    for moments in (state.m, state.v):
        held = moments[name][: rows.size]
        full = np.zeros(shape)
        full[rows[: held.shape[0]]] = held
        moments[name] = full


def _check_row_sparse(name: str, g: RowSparse, n_rows: int, width: int) -> None:
    rows = g.rows
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError(f"RowSparse rows for parameter {name!r} are not a 1-D integer array")
    if g.values.shape != (rows.size, width):
        raise ValueError(
            f"RowSparse values for parameter {name!r} have shape {g.values.shape},"
            f" not {(rows.size, width)}"
        )
    if rows.size and not (rows[0] >= 0 and rows[-1] < n_rows and np.all(rows[1:] > rows[:-1])):
        raise ValueError(
            f"RowSparse rows for parameter {name!r} are not sorted, unique and in [0, {n_rows})"
        )


def optimizer_step(
    state: OptimizerState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray | RowSparse],
) -> None:
    """One Adam/AdamW step over every entry of `params`.

    AdamW applies decoupled weight decay against the pre-update values, so a
    zero gradient still shrinks a parameter by the factor 1 - lr*weight_decay.

    The step is evaluated in Kingma & Ba's (2015, sec. 2) efficient order,
    with the bias corrections bc1 = 1 - b1**t and bc2 = 1 - b2**t folded into
    a step size and a scaled eps::

        p *= 1 - lr*wd  (AdamW only, over the whole parameter)
        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        p -= (lr*sqrt(bc2)/bc1) * m / (sqrt(v) + eps*sqrt(bc2))

    in place, block by block over the flattened arrays, bitwise-equal to
    evaluating those expressions on whole arrays. In real arithmetic this is
    the textbook p -= lr*((m/bc1) / (sqrt(v/bc2) + eps) [+ wd*p]); in floats
    p differs from it by a few ulp per step, while m and v are bitwise equal.
    A `RowSparse` gradient is stepped as its dense form would be, without a
    dense g being built or read. Rows it has never touched (since the
    optimizer created m and v) still have m = v = +0.0, and with g = 0 their
    Adam update is exactly 0.0/(0.0 + eps_hat) = +0.0, so it is skipped: AdamW
    gives them the decay multiply alone. Every gradient (a `RowSparse` one
    through its values) is checked for finiteness, every `RowSparse` for
    sorted, unique, in-range rows and values of their shape, and every
    stepped parameter for C-contiguity, before anything is mutated.
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
        if isinstance(g, RowSparse):
            _check_row_sparse(name, g, *p.shape)
    state.step_count += 1
    step = _Step(state)
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        sparse = isinstance(g, RowSparse)
        if name not in state.m:
            # a RowSparse step creates them packed, with room for no row yet
            shape = (0, p.shape[1]) if sparse else p.shape
            state.m[name], state.v[name] = np.zeros(shape), np.zeros(shape)
            if sparse:
                state.packed[name] = PackedRows(
                    np.zeros(0, dtype=np.intp), np.full(p.shape[0], -1, dtype=np.intp)
                )
        if step.shrink is not None:
            np.multiply(p, step.shrink, out=p)
        packed = state.packed.get(name)
        if packed is not None:
            if sparse:
                packed.make_live(g.rows)
                if packed.rows.size < _PACKED_SHARE * p.shape[0]:
                    _reserve_packed(state, name, packed.rows.size, p.shape[0])
                    _step_packed(step, p, state.m[name], state.v[name], g, packed)
                    continue
                state.live[name] = packed.slot >= 0
            _unpack(state, name, packed.rows, p.shape)
            del state.packed[name]
        m, v = state.m[name], state.v[name]
        if not sparse:
            state.live.pop(name, None)
            _step_dense(step, p, m, v, g)
            continue
        live = state.live.get(name)
        if live is not None:
            live[g.rows] = True
        _step_row_sparse(step, p, m, v, g, live)
