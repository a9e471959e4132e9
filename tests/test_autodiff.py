"""Every differentiable op is checked against central finite differences."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy import sparse

from oracles import sigmoid_masked
from topicarg import autodiff as ad
from topicarg.nn import SeededRng


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
    return g


def check_op(build, x0, rtol=1e-4):
    """build(tensor) -> tensor; compares backward grads to finite differences."""
    x0 = np.asarray(x0, dtype=np.float64)
    leaf = ad.Tensor(x0.copy())
    out = build(leaf)
    weights = np.cos(np.arange(out.data.size)).reshape(out.data.shape)
    ad.tensor_sum(out * ad.constant(weights)).backward()

    def f(x):
        return float((build(ad.constant(x)).data * weights).sum())

    num = numeric_grad(f, x0.copy())
    assert np.allclose(leaf.grad, num, rtol=rtol, atol=1e-7), (
        f"max err {np.abs(leaf.grad - num).max()}"
    )


def take_rows(t, ids):
    """A row gather (an embedding lookup) as `csr_matmul` of a 0/1 selector."""
    ids = np.asarray(ids, dtype=np.int64)
    select = sparse.csr_matrix(
        (np.ones(ids.size), ids, np.arange(ids.size + 1)), shape=(ids.size, t.shape[0])
    )
    return ad.csr_matmul(select, t)


RNG = SeededRng(77)
_M_RIGHT = RNG.normal((4, 2))
_M_LEFT = RNG.normal((2, 3))
_B_MAT = RNG.normal((5, 3))

OPS = [
    ("exp", lambda t: ad.exp(t), RNG.normal((3, 4)) * 0.5),
    ("log", lambda t: ad.log(t), RNG.uniform(0.5, 2.0, (3, 4))),
    ("relu", lambda t: ad.relu(t), RNG.normal((3, 4)) + 0.05),
    ("softplus", lambda t: ad.softplus(t), RNG.normal((3, 4))),
    ("softmax", lambda t: ad.softmax(t), RNG.normal((3, 4))),
    ("log_softmax", lambda t: ad.log_softmax(t), RNG.normal((3, 4))),
    ("sum_all", lambda t: ad.tensor_sum(t), RNG.normal((3, 4))),
    ("sum_axis0", lambda t: ad.tensor_sum(t, axis=0), RNG.normal((3, 4))),
    ("reshape", lambda t: ad.reshape(t, (2, 6)), RNG.normal((3, 4))),
    ("neg_chain", lambda t: -t * 2.0 + 1.5, RNG.normal((3, 4))),
    ("div_const", lambda t: t / 3.0, RNG.normal((3, 4))),
    ("rdiv", lambda t: 2.0 / t, RNG.uniform(0.5, 2.0, (3, 4))),
    ("matmul_left", lambda t: ad.matmul(t, ad.constant(_M_RIGHT)), RNG.normal((3, 4))),
    ("matmul_right", lambda t: ad.matmul(ad.constant(_M_LEFT), t), RNG.normal((3, 4))),
    ("take_rows", lambda t: take_rows(t, [0, 2, 2, 1]), RNG.normal((3, 4))),
    ("broadcast_add", lambda t: ad.constant(_B_MAT) + t, RNG.normal(3)),
    ("broadcast_mul", lambda t: ad.constant(_B_MAT) * t, RNG.normal(3)),
]


@pytest.mark.parametrize("name,build,x0", OPS, ids=[o[0] for o in OPS])
def test_op_gradients(name, build, x0):
    check_op(build, x0)


# signed zeros, infinities, NaNs of both signs, subnormals, and magnitudes
# past 709, where exp overflows, and past 745, where exp(-|x|) underflows to 0
SIGMOID_EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 2.2e-308,
    -2.2e-308, 709.8, -709.8, 710.0, -710.0, 745.2, -745.2, 1e308, -1e308,
]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from(SIGMOID_EDGES)
        | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        # raw bit patterns: any NaN payload, quiet or signaling
        | st.integers(0, 2**64 - 1).map(lambda bits: np.uint64(bits).view(np.float64)),
        max_size=300,
    )
)
@example(SIGMOID_EDGES)
def test_sigmoid_equals_masked_oracle_bytewise(values):
    x = np.array(values, dtype=np.float64)
    assert ad._sigmoid(x).tobytes() == sigmoid_masked(x).tobytes()


def test_div_gradient_both_sides():
    a0 = RNG.uniform(0.5, 2.0, (3, 4))
    b0 = RNG.uniform(0.5, 2.0, (3, 4))
    a, b = ad.Tensor(a0.copy()), ad.Tensor(b0.copy())
    ad.tensor_sum(a / b).backward()
    num_a = numeric_grad(lambda x: float((x / b0).sum()), a0.copy())
    num_b = numeric_grad(lambda x: float((a0 / x).sum()), b0.copy())
    assert np.allclose(a.grad, num_a, rtol=1e-5)
    assert np.allclose(b.grad, num_b, rtol=1e-5)


def test_grad_accumulates_over_reuse():
    x = ad.Tensor(np.array([2.0]))
    y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
    ad.tensor_sum(y).backward()
    assert np.allclose(x.grad, [7.0])


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_constants_do_not_collect_grads():
    c = ad.constant(np.ones(3))
    x = ad.Tensor(np.ones(3))
    ad.tensor_sum(x * c).backward()
    assert c.grad is None
    assert np.allclose(x.grad, np.ones(3))


def test_matmul_rejects_non_2d():
    with pytest.raises(ValueError):
        ad.matmul(ad.constant(np.ones(3)), ad.constant(np.ones((3, 2))))


def test_softmax_rows_sum_to_one():
    out = ad.softmax(ad.constant(RNG.normal((6, 5)) * 50))
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(out.data > 0)


def test_log_softmax_matches_softmax_log():
    x = RNG.normal((4, 5))
    assert np.allclose(
        ad.log_softmax(ad.constant(x)).data, np.log(ad.softmax(ad.constant(x)).data)
    )


def test_deep_chain_backward_is_iterative():
    # long add chain must not hit the recursion limit
    x = ad.Tensor(np.array([1.0]))
    acc = x
    for _ in range(5000):
        acc = acc + x
    ad.tensor_sum(acc).backward()
    assert np.allclose(x.grad, [5001.0])


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 40),
    width=st.integers(1, 9),
    ids=st.lists(st.integers(0, 10_000), max_size=60),
    gathers=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
def test_take_rows_gradient_equals_dense_scatter_bitwise(rows, width, ids, gathers, seed):
    rng = np.random.default_rng(seed)
    idx = np.asarray([i % rows for i in ids], dtype=np.int64)  # unsorted, repeated, empty
    leaf = ad.Tensor(rng.normal(size=(rows, width)))
    upstream = [rng.normal(size=(idx.size, width)) for _ in range(gathers)]
    outs = [take_rows(leaf, idx) for _ in range(gathers)]
    sum(ad.tensor_sum(o * ad.constant(u)) for o, u in zip(outs, upstream)).backward()
    dense = None
    for u in upstream:  # the dense scatter each gather used to accumulate
        buf = np.zeros((rows, width))
        np.add.at(buf, idx, u)
        dense = buf if dense is None else dense + buf
    # one gather stays row-sparse; a second one on the same leaf densifies
    assert isinstance(leaf.grad, ad.RowSparse) == (gathers == 1)
    assert np.asarray(leaf.grad).tobytes() == dense.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    batch=st.integers(1, 24),
    n=st.integers(1, 600),
    m=st.integers(1, 300),
    zeros=st.sampled_from(["none", "columns", "rows", "all"]),
    seed=st.integers(0, 2**16),
)
def test_csr_matmul_gradient_is_row_sparse_over_present_columns(batch, n, m, zeros, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(batch, n))
    if zeros in ("columns", "rows"):
        a[:, rng.random(n) < 0.8] = 0.0  # like a bag-of-words batch
    if zeros == "rows":
        a[rng.random(batch) < 0.5] = 0.0  # empty documents
    elif zeros == "all":
        a[:] = 0.0
    leaf = ad.Tensor(rng.normal(size=(n, m)))
    upstream = rng.normal(size=(batch, m))
    out = ad.csr_matmul(sparse.csr_matrix(a), leaf)
    # sums in another order than BLAS: within 1e-12 of the dense product's scale
    assert np.all(np.abs(out.data - a @ leaf.data) <= 1e-12 * (np.abs(a) @ np.abs(leaf.data)))
    ad.tensor_sum(out * ad.constant(upstream)).backward()  # out's gradient is upstream
    assert isinstance(leaf.grad, ad.RowSparse)
    assert np.array_equal(leaf.grad.rows, np.flatnonzero(a.any(axis=0)))
    dense = a.T @ upstream
    bound = 1e-12 * (np.abs(a.T) @ np.abs(upstream))
    assert np.all(np.abs(leaf.grad.values - dense[leaf.grad.rows]) <= bound[leaf.grad.rows])
    assert np.all(np.asarray(leaf.grad)[~a.any(axis=0)] == 0.0)


@settings(max_examples=200, deadline=None)
@given(
    batch=st.integers(1, 12),
    n=st.integers(1, 40),
    density=st.floats(0.0, 1.0),
    empty=st.floats(0.0, 1.0),
    zeros=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
@example(batch=3, n=5, density=0.0, empty=0.0, zeros=0.0, seed=0)
@example(batch=4, n=2, density=1.0, empty=0.5, zeros=1.0, seed=1)
def test_csr_matmul_leaf_gradient_sums_each_row_in_entry_order(
    batch, n, density, empty, zeros, seed
):
    # any other order or starting value than a dense scatter-add over x's
    # stored entries shows at these magnitudes and signed zeros
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-150, 151, size=(batch, n))
    a = rng.normal(size=(batch, n)) * scale * (rng.random((batch, n)) < density)
    a[rng.random(batch) < empty] = 0.0  # empty documents
    x = sparse.csr_matrix(a)
    g = rng.normal(size=(batch, 3)) * 10.0 ** rng.integers(-150, 151, size=(batch, 3))
    signed_zero = rng.random(g.shape) < zeros
    g[signed_zero] = np.where(rng.random(int(signed_zero.sum())) < 0.5, -0.0, 0.0)
    leaf = ad.Tensor(rng.normal(size=(n, 3)))
    ad.tensor_sum(ad.csr_matmul(x, leaf) * ad.constant(g)).backward()
    dense = np.zeros((n, 3))
    entry_rows = np.repeat(np.arange(batch), np.diff(x.indptr))
    np.add.at(dense, x.indices, x.data[:, None] * g[entry_rows])
    assert isinstance(leaf.grad, ad.RowSparse)
    assert np.array_equal(leaf.grad.rows, np.unique(x.indices))
    assert leaf.grad.values.tobytes() == dense[leaf.grad.rows].tobytes()


@pytest.mark.parametrize("form", [sparse.csc_matrix, sparse.coo_matrix, np.asarray])
def test_csr_matmul_refuses_other_formats(form):
    x = form(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
    with pytest.raises(ValueError, match="CSR"):
        ad.csr_matmul(x, ad.Tensor(np.ones((3, 2))))


def test_csr_matmul_rejects_misaligned_shapes():
    with pytest.raises(ValueError):
        ad.csr_matmul(sparse.csr_matrix(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))


@pytest.mark.parametrize("column", [3, -1])
def test_csr_matmul_refuses_out_of_range_columns(column):
    # scipy checks no column index against the shape, and would read past b
    x = sparse.csr_matrix((np.ones(2), [0, column], [0, 2]), shape=(1, 3))
    with pytest.raises(IndexError, match=r"out of range \[0, 3\)"):
        ad.csr_matmul(x, ad.Tensor(np.ones((3, 2))))


def test_row_sparse_gradient_only_lands_on_leaves():
    table = ad.Tensor(RNG.normal((5, 3)))
    doubled = table * 2.0
    ad.tensor_sum(take_rows(doubled, [4, 1, 4])).backward()
    assert isinstance(doubled.grad, np.ndarray)
    expected = np.zeros((5, 3))
    expected[[1, 4]] = [[2.0] * 3, [4.0] * 3]
    assert np.array_equal(table.grad, expected)


GRAPH_OPS = ["matmul", "add", "mul", "softplus", "softmax", "take_rows"]


def _random_graph(leaves, ids, perm, ops, upstream):
    """A chain over leaves E (r, k), W (k, k), b (k,) and s (t, k): a gather
    from E, then `ops` in order, each reusing its leaf; a gather from the
    chain itself sends a row-sparse gradient to a non-leaf."""
    h = take_rows(leaves["E"], ids)
    for op in ops:
        if op == "matmul":
            h = ad.matmul(h, leaves["W"])
        elif op == "add":
            h = h + leaves["b"]
        elif op == "mul":
            h = h * leaves["s"]
        elif op == "softplus":
            h = ad.softplus(h)
        elif op == "softmax":
            h = ad.softmax(h)
        else:
            h = take_rows(h, perm)
    return ad.tensor_sum(h * ad.constant(upstream))


@settings(max_examples=80, deadline=None)
@given(
    r=st.integers(1, 6),
    t=st.integers(1, 5),
    k=st.integers(1, 4),
    ops=st.lists(st.sampled_from(GRAPH_OPS), max_size=8),
    frozen=st.sampled_from(["E", "W", "b", "s"]),
    seed=st.integers(0, 2**16),
)
def test_a_constant_operand_leaves_other_gradients_bitwise_unchanged(
    r, t, k, ops, frozen, seed
):
    rng = np.random.default_rng(seed)
    values = {
        "E": rng.normal(size=(r, k)), "W": rng.normal(size=(k, k)),
        "b": rng.normal(size=k), "s": rng.normal(size=(t, k)),
    }
    ids, perm = rng.integers(0, r, size=t), rng.integers(0, t, size=t)
    upstream = rng.normal(size=(t, k))
    grads = {}
    for const in (None, frozen):
        leaves = {n: ad.constant(v) if n == const else ad.Tensor(v) for n, v in values.items()}
        _random_graph(leaves, ids, perm, ops, upstream).backward()
        grads[const] = {n: leaf.grad for n, leaf in leaves.items()}
    assert grads[frozen][frozen] is None
    for name in values.keys() - {frozen}:
        full, pruned = grads[None][name], grads[frozen][name]
        assert (full is None) == (pruned is None)
        if full is not None:
            assert type(full) is type(pruned)
            assert np.asarray(full).tobytes() == np.asarray(pruned).tobytes()
