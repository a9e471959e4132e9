"""Reverse-mode automatic differentiation over numpy arrays.

A deliberately small operator set: dense linear algebra, a product with a
constant CSR left operand (a bag-of-words batch, or the encoder's pooling of
token embeddings), the activations the models need, softmax and log-softmax
over the last axis, and sums. Everything is float64 and single-threaded, so
two runs from the same seed give bitwise-identical results.

Each op declares one (parent, vjp) edge per operand; only parents that need a
gradient keep theirs, so a constant's vjp is never built or called.
`Tensor.backward` is the one router: in reverse topological order it calls
each edge's vjp on the node's gradient and accumulates the result into the
parent. Gradients are dense arrays, except that a leaf fed only through
`csr_matmul` gets a `RowSparse` gradient holding just the rows a batch
touches; the router densifies one sent to a non-leaf.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of -|x| never overflows; np.minimum keeps a NaN's sign, unlike -abs
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class RowSparse:
    """A gradient that is zero outside a few rows of a 2-D leaf, as
    `csr_matmul` gives the leaf it multiplies.

    `rows` are sorted and unique, `values[i]` is row `rows[i]` of the dense
    gradient, and `shape` is the dense shape. `Tensor.backward` densifies one
    sent to a non-leaf, so no vjp ever receives one; `np.asarray` gives the
    dense array.
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple):
        self.rows = rows
        self.values = values
        self.shape = shape

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape)
        dense[self.rows] = self.values
        return dense if dtype is None else dense.astype(dtype, copy=False)


def _accumulate(current, update):
    if current is None:
        return update
    if isinstance(current, RowSparse) or isinstance(update, RowSparse):
        return np.asarray(current) + np.asarray(update)
    return current + update


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus one (parent, vjp) edge per parent needing a gradient.

    `Tensor(x)` is a leaf: it needs a gradient and has no edges.
    """

    __slots__ = ("data", "grad", "requires_grad", "_edges")

    def __init__(self, data, requires_grad=True, edges=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._edges = edges

    @property
    def shape(self):
        return self.data.shape

    def backward(self) -> None:
        """Backpropagate from a scalar output; fills .grad on reachable leaves."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._edges:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            for parent, vjp in node._edges:
                grad = vjp(node.grad)
                if parent._edges and isinstance(grad, RowSparse):
                    grad = np.asarray(grad)  # RowSparse lands only on leaves
                parent.grad = _accumulate(parent.grad, grad)

    # operator sugar; non-Tensor operands become constants
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x, requires_grad=False)


def constant(x) -> Tensor:
    return as_tensor(x)


def lift(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """Wrap a parameter dict in leaf Tensors, one graph per training step."""
    return {k: Tensor(v) for k, v in params.items()}


def grads_of(leaves: dict[str, Tensor]) -> dict[str, np.ndarray | RowSparse]:
    """Collect leaf gradients after backward(); missing grads are zeros.

    A gradient that only CSR matmuls produced is a `RowSparse`; any mix with
    another gradient is dense.
    """
    return {
        k: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for k, t in leaves.items()
    }


def _result(data, *edges) -> Tensor:
    """The op's output, keeping only the (parent, vjp) edges whose parent
    needs a gradient; with none left it is a constant."""
    kept = tuple(e for e in edges if e[0].requires_grad)
    return Tensor(data, requires_grad=bool(kept), edges=kept)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _result(
        a.data + b.data,
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _result(
        a.data * b.data,
        (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _result(
        a.data / b.data,
        (a, lambda g: _unbroadcast(g / b.data, a.data.shape)),
        (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)),
    )


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(
            f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}"
        )
    return _result(a.data @ b.data, (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def csr_matmul(x, b) -> Tensor:
    """`x @ b` for a constant scipy CSR matrix `x`, in O(nonzeros of x).

    b's gradient is `x.T @ g`, which is zero outside x's stored columns (a
    bag-of-words batch touches few words): it is computed over those columns
    only and, for a leaf, handed on as a `RowSparse`. Any other `x` format is
    refused: its index arrays would be read as CSR's. So is a column index
    outside [0, x.shape[1]), which scipy would read past b's end.
    """
    if not (sparse.issparse(x) and x.format == "csr"):
        raise ValueError(f"csr_matmul takes a scipy CSR x, got {type(x).__name__}")
    b = as_tensor(b)
    if b.data.ndim != 2 or x.shape[1] != b.data.shape[0]:
        raise ValueError(f"csr_matmul shapes {x.shape} @ {b.data.shape} do not align")
    if x.indices.size and (x.indices.min() < 0 or x.indices.max() >= x.shape[1]):
        raise IndexError(f"csr_matmul column index out of range [0, {x.shape[1]})")

    def vjp(g):
        cols, compact = np.unique(x.indices, return_inverse=True)
        # x.T restricted to the present columns, built from x's own arrays
        xt = sparse.csc_matrix((x.data, compact, x.indptr), shape=(cols.size, x.shape[0]))
        return RowSparse(cols, np.asarray(xt @ g), b.data.shape)

    return _result(np.asarray(x @ b.data), (b, vjp))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _result(out, (a, lambda g: g * out))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _result(np.log(a.data), (a, lambda g: g / a.data))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _result(np.maximum(a.data, 0.0), (a, lambda g: g * (a.data > 0.0)))


def softplus(a) -> Tensor:
    a = as_tensor(a)
    return _result(np.logaddexp(0.0, a.data), (a, lambda g: g * _sigmoid(a.data)))


def softmax(a) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    return _result(out, (a, lambda g: out * (g - (g * out).sum(axis=-1, keepdims=True))))


def log_softmax(a) -> Tensor:
    a = as_tensor(a)
    m = a.data.max(axis=-1, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True)) + m
    out = a.data - lse
    return _result(out, (a, lambda g: g - np.exp(out) * g.sum(axis=-1, keepdims=True)))


def tensor_sum(a, axis=None) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        g = g if axis is None else np.expand_dims(g, axis)
        return np.broadcast_to(g, a.data.shape).copy()

    return _result(a.data.sum(axis=axis), (a, vjp))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _result(a.data.reshape(shape), (a, lambda g: g.reshape(a.data.shape)))
