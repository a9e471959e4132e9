import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicarg.autodiff import RowSparse
from topicarg.nn import SeededRng
from topicarg.optim import _CHUNK, OptimizerState, adam, adamw, optimizer_step


def reference_step(state, params, grads):
    """Whole-array Adam/AdamW step: the oracle the fused step must equal bitwise."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.algorithm == "adamw" and state.weight_decay != 0.0:
            update = update + state.weight_decay * p
        p -= state.learning_rate * update


def test_zero_gradient_is_fixed_point_for_adam():
    params = {"w": np.array([1.5, -2.0])}
    state = adam(0.1)
    optimizer_step(state, params, {"w": np.zeros(2)})
    assert np.array_equal(params["w"], [1.5, -2.0])
    assert state.step_count == 1


def test_adam_first_step_is_bias_corrected_lr():
    params = {"w": np.array([0.0])}
    state = adam(0.1)
    optimizer_step(state, params, {"w": np.array([1.0])})
    # m_hat = 1, v_hat = 1 after correction, so the step is ~lr
    assert params["w"][0] == pytest.approx(-0.1, rel=1e-6)


def test_adamw_zero_gradient_decays_decoupled():
    params = {"w": np.array([2.0])}
    state = adamw(0.1, weight_decay=0.5)
    optimizer_step(state, params, {"w": np.array([0.0])})
    assert params["w"][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_adam_ignores_weight_decay():
    params = {"w": np.array([2.0])}
    state = adam(0.1)
    optimizer_step(state, params, {"w": np.array([0.0])})
    assert params["w"][0] == 2.0


def test_nonfinite_gradient_names_parameter():
    params = {"bad_param": np.array([1.0])}
    state = adam(0.1)
    with pytest.raises(FloatingPointError, match="bad_param"):
        optimizer_step(state, params, {"bad_param": np.array([np.nan])})


def test_trajectories_are_deterministic():
    def run():
        rng = SeededRng(9)
        params = {"w": rng.normal((4, 3)), "b": rng.normal(3)}
        state = adamw(1e-2, weight_decay=0.01)
        grad_rng = SeededRng(10)
        for _ in range(25):
            grads = {k: grad_rng.normal(v.shape) for k, v in params.items()}
            optimizer_step(state, params, grads)
        return params

    a, b = run(), run()
    assert np.array_equal(a["w"], b["w"])
    assert np.array_equal(a["b"], b["b"])


def test_descends_a_quadratic():
    params = {"x": np.array([5.0])}
    state = adam(0.05)
    for _ in range(500):
        optimizer_step(state, params, {"x": 2.0 * params["x"]})
    assert abs(params["x"][0]) < 1e-2


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        OptimizerState("sgd", 0.1)


SHAPES = [(), (1,), (3, 4), (_CHUNK - 1,), (_CHUNK,), (_CHUNK + 1,), (2, _CHUNK // 2 + 1)]


def _strided(g: np.ndarray) -> np.ndarray:
    """The same values as `g` in a non-contiguous view: a column slice of a
    wider array, like the ones `concat`'s backward hands out."""
    wide = np.zeros((g.size, 2))
    wide[:, 0] = g.reshape(-1)
    view = wide[:, 0].reshape(g.shape)
    assert g.size <= 1 or not view.flags.c_contiguous
    return view


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(["adam", "adamw"]),
    weight_decay=st.sampled_from([0.0, 0.01, 0.7]),
    shape=st.sampled_from(SHAPES),
    steps=st.integers(1, 4),
    strided=st.booleans(),
    scale=st.sampled_from([0.0, 1e-12, 1.0, 1e6]),
    lr=st.floats(1e-5, 1.0),
    beta1=st.floats(0.0, 0.99),
    beta2=st.floats(0.5, 0.9999),
    seed=st.integers(0, 2**16),
)
def test_fused_step_equals_reference_bitwise(
    algorithm, weight_decay, shape, steps, strided, scale, lr, beta1, beta2, seed
):
    rng = np.random.default_rng(seed)
    fused = OptimizerState(algorithm, lr, beta1, beta2, weight_decay=weight_decay)
    ref = copy.deepcopy(fused)
    p_fused = {"w": rng.normal(size=shape), "b": rng.normal(size=3)}
    p_ref = copy.deepcopy(p_fused)
    for _ in range(steps):
        grads = {k: scale * rng.normal(size=v.shape) for k, v in p_fused.items()}
        strided_grads = {k: _strided(g) if strided else g for k, g in grads.items()}
        optimizer_step(fused, p_fused, strided_grads)
        reference_step(ref, p_ref, grads)
        assert fused.step_count == ref.step_count
        for k in p_ref:
            assert np.array_equal(p_fused[k], p_ref[k])
            assert np.array_equal(fused.m[k], ref.m[k])
            assert np.array_equal(fused.v[k], ref.v[k])


def test_non_contiguous_parameter_rejected():
    base = np.ones((4, 6))
    params = {"ok": np.ones(3), "w": base[:, :3]}
    state = adam(0.1)
    with pytest.raises(ValueError, match="'w'.*contiguous"):
        optimizer_step(state, params, {"ok": np.ones(3), "w": np.ones((4, 3))})
    assert np.array_equal(base, np.ones((4, 6)))
    assert np.array_equal(params["ok"], np.ones(3))
    assert state.step_count == 0 and not state.m and not state.v


def test_gradient_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="'w'"):
        optimizer_step(adam(0.1), {"w": np.ones(3)}, {"w": np.ones((1, 3))})


def test_failed_step_leaves_state_untouched():
    rng = np.random.default_rng(0)
    params = {"a": rng.normal(size=(5, 4)), "z": rng.normal(size=7)}
    state = adamw(0.1, weight_decay=0.1)
    optimizer_step(state, params, {k: rng.normal(size=v.shape) for k, v in params.items()})
    before = copy.deepcopy((params, state.m, state.v, state.step_count))
    # "a" comes first, so a step that mutated while it checked would touch it
    grads = {"a": rng.normal(size=(5, 4)), "z": np.full(7, np.inf)}
    with pytest.raises(FloatingPointError, match="'z' at step 2"):
        optimizer_step(state, params, grads)
    after = (params, state.m, state.v, state.step_count)
    for b, a in zip(before[:3], after[:3]):
        assert b.keys() == a.keys()
        assert all(np.array_equal(b[k], a[k]) for k in b)
    assert after[3] == before[3] == 1


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 4])
def test_non_finite_found_in_any_block(index, bad, strided):
    g = np.zeros(2 * _CHUNK + 5)
    g[index] = bad
    if strided:
        g = _strided(g)
    state = adam(0.1)
    with pytest.raises(FloatingPointError, match="'w' at step 1"):
        optimizer_step(state, {"w": np.ones(g.shape)}, {"w": g})
    assert state.step_count == 0 and not state.m


# (rows, width): blocks of whole rows, width 7 leaves a ragged _CHUNK, one row
# wider than _CHUNK, and a width that divides it
SPARSE_SHAPES = [(1, 5), (6, 3), (2 * (_CHUNK // 7) + 9, 7), (3, _CHUNK + 3), (40, 1024)]


def _touched_rows(rng, n_rows: int, width: int, touched: str) -> np.ndarray:
    if touched == "none":
        return np.zeros(0, dtype=np.int64)
    if touched == "all":
        return np.arange(n_rows)
    per_block = max(1, _CHUNK // width)
    # both sides of every block boundary, plus a random sprinkle
    edges = [r for b in range(per_block, n_rows, per_block) for r in (b - 1, b)]
    extra = rng.choice(n_rows, size=min(n_rows, 5), replace=False)
    return np.unique(np.concatenate([edges, extra, [0, n_rows - 1]]).astype(np.int64))


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(["adam", "adamw"]),
    weight_decay=st.sampled_from([0.0, 0.01, 0.7]),
    shape=st.sampled_from(SPARSE_SHAPES),
    touched=st.sampled_from(["none", "some", "all"]),
    signed_zero_m=st.booleans(),
    steps=st.integers(1, 3),
    lr=st.floats(1e-5, 1.0),
    beta1=st.floats(0.0, 0.99),
    beta2=st.floats(0.5, 0.9999),
    seed=st.integers(0, 2**16),
)
def test_row_sparse_step_equals_reference_on_dense_form_bytewise(
    algorithm, weight_decay, shape, touched, signed_zero_m, steps, lr, beta1, beta2, seed
):
    rng = np.random.default_rng(seed)
    fused = OptimizerState(algorithm, lr, beta1, beta2, weight_decay=weight_decay)
    ref = copy.deepcopy(fused)
    p_fused = {"w": rng.normal(size=shape), "b": rng.normal(size=3)}
    if signed_zero_m:
        # moments of +0.0 and -0.0: an untouched row's m*b1 + 0.0 makes both +0.0
        fused.m["w"] = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        fused.v["w"] = np.zeros(shape)
        fused.m["b"], fused.v["b"] = np.zeros(3), np.zeros(3)
        ref.m, ref.v = copy.deepcopy(fused.m), copy.deepcopy(fused.v)
    p_ref = copy.deepcopy(p_fused)
    for _ in range(steps):
        rows = _touched_rows(rng, shape[0], shape[1], touched)
        values = rng.normal(size=(rows.size, shape[1]))
        values[rng.random(values.shape) < 0.1] = 0.0
        sparse = RowSparse(rows, values, shape)
        b_grad = rng.normal(size=3)
        optimizer_step(fused, p_fused, {"w": sparse, "b": b_grad})
        reference_step(ref, p_ref, {"w": np.asarray(sparse), "b": b_grad})
        assert fused.step_count == ref.step_count
        for k in p_ref:
            assert p_fused[k].tobytes() == p_ref[k].tobytes()
            assert fused.m[k].tobytes() == ref.m[k].tobytes()
            assert fused.v[k].tobytes() == ref.v[k].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_row_sparse_values_stop_the_step(bad):
    rng = np.random.default_rng(1)
    params = {"a": rng.normal(size=4), "w": rng.normal(size=(6, 3))}
    state = adam(0.1)
    optimizer_step(state, params, {"a": rng.normal(size=4), "w": rng.normal(size=(6, 3))})
    before = copy.deepcopy((params, state.m, state.v))
    values = rng.normal(size=(2, 3))
    values[1, 2] = bad
    grads = {"a": rng.normal(size=4), "w": RowSparse(np.array([1, 4]), values, (6, 3))}
    with pytest.raises(FloatingPointError, match="'w' at step 2"):
        optimizer_step(state, params, grads)
    for b, a in zip(before, (params, state.m, state.v)):
        assert all(b[k].tobytes() == a[k].tobytes() for k in b)
    assert state.step_count == 1


# values a parameter may hold in rows no gradient touches: signed zeros and
# subnormals, whose bits an inexact skip of those rows would change
SPECIAL_P = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.5, -2.5])


def _draw_gradient(rng, shape, draw):
    """One gradient for a (rows, width) parameter: a RowSparse over a fresh
    row set, or with "dense" a dense array whose rows are half all-zero."""
    n_rows, width = shape
    if draw == "dense":
        g = rng.normal(size=shape)
        g[rng.random(n_rows) < 0.5] = 0.0
        return g
    share = {"none": 0.0, "few": 0.05, "half": 0.5, "most": 0.9}[draw]
    rows = np.flatnonzero(rng.random(n_rows) < share)
    values = rng.normal(size=(rows.size, width))
    values[rng.random(values.shape) < 0.1] = 0.0
    return RowSparse(rows, values, shape)


@settings(max_examples=80, deadline=None)
@given(
    algorithm=st.sampled_from(["adam", "adamw"]),
    weight_decay=st.sampled_from([0.0, 0.01, 0.7]),
    shape=st.sampled_from(SPARSE_SHAPES),
    draws=st.lists(st.sampled_from(["none", "few", "half", "most", "dense"]), min_size=1, max_size=6),
    lr=st.floats(1e-5, 1.0),
    beta1=st.floats(0.0, 0.99),
    beta2=st.floats(0.5, 0.9999),
    seed=st.integers(0, 2**16),
)
def test_live_row_step_equals_reference_from_fresh_state(
    algorithm, weight_decay, shape, draws, lr, beta1, beta2, seed
):
    rng = np.random.default_rng(seed)
    fused = OptimizerState(algorithm, lr, beta1, beta2, weight_decay=weight_decay)
    ref = copy.deepcopy(fused)
    p = rng.normal(size=shape)
    special = rng.random(shape) < 0.5
    p[special] = rng.choice(SPECIAL_P, size=int(special.sum()))
    p_fused, p_ref = {"w": p}, {"w": p.copy()}
    touched = np.zeros(shape[0], dtype=bool)
    for draw in draws:
        g = _draw_gradient(rng, shape, draw)
        if isinstance(g, RowSparse):
            touched[g.rows] = True
        else:
            touched |= np.any(g != 0.0, axis=1)
        optimizer_step(fused, p_fused, {"w": g})
        reference_step(ref, p_ref, {"w": np.asarray(g)})
        assert fused.step_count == ref.step_count
        assert p_fused["w"].tobytes() == p_ref["w"].tobytes()
        assert fused.m["w"].tobytes() == ref.m["w"].tobytes()
        assert fused.v["w"].tobytes() == ref.v["w"].tobytes()
        # the moments of never-touched rows are still all +0.0 bits
        untouched = np.zeros((int((~touched).sum()), shape[1]))
        assert fused.m["w"][~touched].tobytes() == untouched.tobytes()
        assert fused.v["w"][~touched].tobytes() == untouched.tobytes()


@pytest.mark.parametrize(
    "field, value",
    [
        ("learning_rate", 0.0), ("learning_rate", -1e-3), ("learning_rate", np.nan),
        ("beta1", -0.1), ("beta1", 1.0), ("beta1", np.nan),
        ("beta2", -0.1), ("beta2", 1.0), ("beta2", np.nan),
        ("eps", 0.0), ("eps", -1e-8), ("eps", np.nan),
        ("weight_decay", -0.01), ("weight_decay", np.nan),
    ],
)
def test_invalid_hyper_parameter_named(field, value):
    kwargs = {"learning_rate": 1e-3, field: value}
    with pytest.raises(ValueError, match=field):
        OptimizerState("adamw", **kwargs)


def test_constructors_validate():
    with pytest.raises(ValueError, match="learning_rate"):
        adam(-1e-3)
    with pytest.raises(ValueError, match="weight_decay"):
        adamw(1e-3, weight_decay=-0.5)
    assert OptimizerState("adam", 1e-3, beta1=0.0, beta2=0.0).beta1 == 0.0
