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
    live), slot[r] is row r's index among them (-1 while r is dead), and
    their rows past n are +0.0."""

    rows: np.ndarray
    slot: np.ndarray

    def make_live(self, rows: np.ndarray) -> None:
        new = rows[self.slot[rows] < 0]
        self.slot[new] = np.arange(self.rows.size, self.rows.size + new.size)
        self.rows = np.concatenate([self.rows, new])


@dataclass
class OptimizerState:
    """Hyper-parameters, the step count and the moments of one AdamW
    optimizer, which is Adam at weight_decay 0.

    A row is live once a gradient has touched it since its parameter's
    moments were created: only live rows can hold nonzero moments. A
    `RowSparse` step creates m and v packed, with `packed[name]` as their
    layout, and they stay packed while fewer than `_PACKED_SHARE` of the rows
    are live. Past that, or when a dense gradient arrives, they are unpacked
    into row layout once, and every row is stepped in place from then on.
    """

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    packed: dict[str, PackedRows] = field(default_factory=dict)

    def __post_init__(self):
        # `not (x > 0)` also rejects NaN. Untouched rows are skipped exactly
        # only under these bounds: a scaled eps of 0 would make their update 0/0.
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        # the step adds eps*sqrt(1 - beta2**t) >= eps*sqrt(1 - beta2) to sqrt(v)
        if not self.eps * math.sqrt(1.0 - self.beta2) > 0.0:
            raise ValueError(
                f"eps * sqrt(1 - beta2) must be > 0, got eps={self.eps!r}, beta2={self.beta2!r}"
            )
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")


def adam(learning_rate: float, beta1: float = 0.9, beta2: float = 0.999) -> OptimizerState:
    return OptimizerState(learning_rate, beta1, beta2)


def adamw(
    learning_rate: float,
    weight_decay: float = 0.01,
    beta1: float = 0.9,
    beta2: float = 0.999,
) -> OptimizerState:
    return OptimizerState(learning_rate, beta1, beta2, weight_decay=weight_decay)


# Elements per block: 16k float64 = 128 KiB, so a block of p, g, m, v and the
# two scratch buffers stays in L2 while all of its ufuncs run over it.
_CHUNK = 16384

# A row-sparse parameter's moments stay packed while fewer than this share of
# its rows are live. Packed, m and v hold the live rows alone, whereas numpy
# backs full-size arrays of 4 MiB or more with 2 MiB huge pages, each made
# resident whole by one scattered row write; and a packed step visits only
# the live rows. In steady-state timings (CHANGES.md: rows live in random
# order, 300 or 200 of them touched per step) a packed step is as fast as
# the in-place walk at 0.6 live for 30003x100 AdamW and at 0.7 for 4888x256
# Adam, and slower past that. The share sits at half, below both, and the
# full fold, whose tables end 91-100% live, walks whole tables for most of
# its steps.
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
        decay = state.weight_decay
        self.shrink = 1.0 - state.learning_rate * decay if decay else None
        self.a, self.u = np.empty(_CHUNK), np.empty(_CHUNK)

    def reserve(self, size: int) -> None:
        if size > self.a.size:
            self.a, self.u = np.empty(size), np.empty(size)

    def update(self, pc, mc, vc, gc=None, decay=True) -> None:
        """The Adam update of flat blocks pc, mc, vc, in place, after AdamW's
        decay of pc unless `decay` is False, with the gradient block `gc`, or
        with g = 0 when `gc` is None."""
        a, u = self.a[: pc.size], self.u[: pc.size]
        if decay and self.shrink is not None:
            # exact block by block, as the update term below never reads p
            np.multiply(pc, self.shrink, out=pc)
        np.multiply(mc, self.b1, out=mc)
        np.multiply(vc, self.b2, out=vc)
        if gc is None:
            # g's terms are +0.0: m + 0.0 turns -0.0 into +0.0, while v + 0.0
            # is v, as v holds no -0.0
            np.add(mc, 0.0, out=mc)
        else:
            np.multiply(gc, self.c1, out=a)
            np.add(mc, a, out=mc)
            np.multiply(gc, self.c2, out=a)
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


def _step_row_sparse(step: _Step, p, m, v, g: RowSparse, packed: PackedRows | None, live) -> None:
    """Walk m and v in blocks of whole rows, updating each block in place
    with g = 0, against p's matching rows: row i of m and v is row i of p,
    or with `packed` row packed.rows[i] for i < `live`, the rows live before
    this step, gathered and scattered back. The touched rows are gathered
    before the walk, stepped with their gradient rows and scattered back over
    what the walk made of them; a row first touched now is stepped that once,
    from its zero moments. While packed, AdamW decays the whole of p first,
    as the walk skips the dead rows."""
    slots = g.rows if packed is None else packed.slot[g.rows]
    touched = p[g.rows], m[slots], v[slots]
    if packed is not None and step.shrink is not None:
        np.multiply(p, step.shrink, out=p)
    n, width = p.shape if packed is None else (live, p.shape[1])
    per_block = max(1, _CHUNK // max(width, 1))
    step.reserve(per_block * width)
    for lo in range(0, n, per_block):
        hi = min(lo + per_block, n)
        pb = p[lo:hi] if packed is None else p[packed.rows[lo:hi]]
        step.update(
            pb.reshape(-1), m[lo:hi].reshape(-1), v[lo:hi].reshape(-1), decay=packed is None
        )
        if packed is not None:
            p[packed.rows[lo:hi]] = pb
    _step_dense(step, *touched, g.values)
    p[g.rows], m[slots], v[slots] = touched


def _mapped_zeros(shape: tuple) -> np.ndarray:
    """Zeros in an anonymous mapping of their own. Untouched pages take no
    memory, so packed m and v, mapped at their table's shape, hold only the
    slots a step has written; and the mapping goes back to the system when the
    array is freed, so a packed buffer, once unpacked, leaves no hole in the
    heap. (With `np.zeros` buffers, which the heap served, a full-fold
    iteration peaked 24-28 MiB higher; CHANGES.md.)"""
    size = math.prod(shape)
    buffer = mmap.mmap(-1, max(size * 8, 1))
    return np.frombuffer(buffer, dtype=np.float64, count=size).reshape(shape)


def _unpack(state: OptimizerState, name: str, rows: np.ndarray, shape: tuple) -> None:
    """Move the packed rows `rows` of m and v to row layout, one array at a time."""
    for moments in (state.m, state.v):
        full = np.zeros(shape)
        full[rows] = moments[name][: rows.size]
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

        p *= 1 - lr*wd  (AdamW only)
        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        p -= (lr*sqrt(bc2)/bc1) * m / (sqrt(v) + eps*sqrt(bc2))

    in place, block by block over the flattened arrays, bitwise-equal to
    evaluating those expressions on whole arrays. In real arithmetic this is
    the textbook p -= lr*((m/bc1) / (sqrt(v/bc2) + eps) [+ wd*p]); in floats
    p differs from it by a few ulp per step, while m and v are bitwise equal.
    A `RowSparse` gradient is stepped as its dense form would be, without a
    dense g being built or read: on the rows it does not touch, m = b1*m + 0.0
    and v = b2*v. That is exact because v never holds -0.0: the optimizer's
    own v never does, and a caller-set v must not. Rows it has never touched
    (since the optimizer created m and v) still have m = v = +0.0, and with
    g = 0 their Adam update is exactly 0.0/(0.0 + eps_hat) = +0.0; while the
    moments are packed such rows are skipped, and AdamW gives them the decay
    multiply alone. Before anything is mutated, `grads` is checked for naming
    exactly the parameters, so that AdamW's decay reaches each of them; every
    gradient (a `RowSparse` one through its values) for finiteness, every
    `RowSparse` for sorted, unique, in-range rows and values of their shape,
    every parameter for C-contiguity, and its m and v, when it has them, for
    being C-contiguous float64 arrays of its shape, packed or not.
    """
    if grads.keys() != params.keys():
        raise ValueError(
            f"gradients {sorted(grads.keys() - params.keys())} name no parameter and"
            f" parameters {sorted(params.keys() - grads.keys())} have no gradient"
        )
    for name, g in grads.items():
        p = params[name]
        if not np.isfinite(g.values if isinstance(g, RowSparse) else g).all():
            raise FloatingPointError(
                f"non-finite gradient for parameter {name!r} at step {state.step_count + 1}"
            )
        if not p.flags.c_contiguous:
            # reshape(-1) would copy, and the in-place update would be lost
            raise ValueError(f"parameter {name!r} is not C-contiguous")
        if g.shape != p.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter {name!r} {p.shape}"
            )
        if isinstance(g, RowSparse):
            _check_row_sparse(name, g, *p.shape)
        if name in state.m or name in state.v:
            for moment, held in (("m", state.m.get(name)), ("v", state.v.get(name))):
                if not (
                    isinstance(held, np.ndarray) and held.dtype == np.float64
                    and held.shape == p.shape and held.flags.c_contiguous
                ):
                    raise ValueError(
                        f"{moment} of parameter {name!r} is not a C-contiguous float64"
                        f" array of shape {p.shape}"
                    )
    state.step_count += 1
    step = _Step(state)
    for name, p in params.items():
        g = grads[name]
        sparse = isinstance(g, RowSparse)
        if name not in state.m:
            if sparse:
                state.m[name], state.v[name] = _mapped_zeros(p.shape), _mapped_zeros(p.shape)
                state.packed[name] = PackedRows(
                    np.zeros(0, dtype=np.intp), np.full(p.shape[0], -1, dtype=np.intp)
                )
            else:
                state.m[name], state.v[name] = np.zeros(p.shape), np.zeros(p.shape)
        packed = state.packed.get(name)
        live = 0 if packed is None else packed.rows.size
        if packed is not None:
            if sparse:
                packed.make_live(g.rows)
            if not sparse or packed.rows.size >= _PACKED_SHARE * p.shape[0]:
                _unpack(state, name, packed.rows, p.shape)
                del state.packed[name]
                packed = None
        if sparse:
            _step_row_sparse(step, p, state.m[name], state.v[name], g, packed, live)
        else:
            _step_dense(step, p, state.m[name], state.v[name], g)
