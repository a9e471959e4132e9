import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import row_layout_moments, textbook_step
from topicarg import optim
from topicarg.autodiff import RowSparse
from topicarg.nn import SeededRng
from topicarg.optim import _CHUNK, _PACKED_SHARE, OptimizerState, adam, adamw, optimizer_step


def reference_step(state, params, grads):
    """Whole-array Adam/AdamW step in Kingma & Ba's efficient order: the
    oracle the fused step must equal bitwise."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    alpha = state.learning_rate * math.sqrt(bc2) / bc1
    eps_hat = state.eps * math.sqrt(bc2)
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
        if state.weight_decay != 0.0:
            p *= 1.0 - state.learning_rate * state.weight_decay
        p -= alpha * m / (np.sqrt(v) + eps_hat)


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
    weight_decay, shape, steps, strided, scale, lr, beta1, beta2, seed
):
    rng = np.random.default_rng(seed)
    fused = OptimizerState(lr, beta1, beta2, weight_decay=weight_decay)
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


def _snapshot(state, params):
    """Everything a step may mutate, as bytes."""
    arrays = [{k: a.tobytes() for k, a in d.items()} for d in (params, state.m, state.v)]
    packed = {k: (s.rows.tobytes(), s.slot.tobytes()) for k, s in state.packed.items()}
    return arrays, packed, state.step_count


def test_failed_step_leaves_state_untouched():
    rng = np.random.default_rng(0)
    params = {"a": rng.normal(size=(5, 4)), "e": rng.normal(size=(8, 3)), "z": rng.normal(size=7)}
    state = adamw(0.1, weight_decay=0.1)
    grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
    grads["e"] = RowSparse(np.array([2, 5]), rng.normal(size=(2, 3)), (8, 3))
    optimizer_step(state, params, grads)
    assert set(state.packed) == {"e"}
    before = _snapshot(state, params)
    # "a" and "e" come first, so a step that mutated while it checked would
    # touch them, and rows 0, 1 would take "e" to half live and unpack it
    grads = {
        "a": rng.normal(size=(5, 4)),
        "e": RowSparse(np.array([0, 1]), rng.normal(size=(2, 3)), (8, 3)),
        "z": np.full(7, np.inf),
    }
    with pytest.raises(FloatingPointError, match="'z' at step 2"):
        optimizer_step(state, params, grads)
    assert _snapshot(state, params) == before
    assert state.step_count == 1


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


# the values a caller-set m draws from: -0.0 stays -0.0 times any b1, and
# -5e-324 times b1 <= 0.5 rounds to -0.0, which an untouched row's m*b1 + 0.0
# makes +0.0, while a touched row's m*b1 + (-0.0*c1) keeps it
CALLER_M = {"none": None, "signed_zero": [0.0, -0.0], "negative_subnormal": [0.0, -5e-324]}


@settings(max_examples=60, deadline=None)
@given(
    weight_decay=st.sampled_from([0.0, 0.01, 0.7]),
    shape=st.sampled_from(SPARSE_SHAPES),
    touched=st.sampled_from(["none", "some", "all"]),
    caller_m=st.sampled_from(list(CALLER_M)),
    steps=st.integers(1, 3),
    lr=st.floats(1e-5, 1.0),
    beta1=st.floats(0.0, 0.99),
    beta2=st.floats(0.5, 0.9999),
    seed=st.integers(0, 2**16),
)
@example(0.0, (6, 3), "some", "negative_subnormal", 3, 0.1, 0.0, 0.999, 0)
@example(0.01, (2 * (_CHUNK // 7) + 9, 7), "some", "negative_subnormal", 2, 0.1, 0.5, 0.999, 1)
@example(0.0, (40, 1024), "all", "signed_zero", 2, 0.1, 0.9, 0.999, 2)
@example(0.7, (40, 1024), "some", "signed_zero", 3, 0.1, 0.0, 0.5, 3)
def test_row_sparse_step_equals_reference_on_dense_form_bytewise(
    weight_decay, shape, touched, caller_m, steps, lr, beta1, beta2, seed
):
    rng = np.random.default_rng(seed)
    fused = OptimizerState(lr, beta1, beta2, weight_decay=weight_decay)
    ref = copy.deepcopy(fused)
    p_fused = {"w": rng.normal(size=shape), "b": rng.normal(size=3)}
    if CALLER_M[caller_m] is not None:
        fused.m["w"] = rng.choice(CALLER_M[caller_m], size=shape)
        fused.v["w"] = np.zeros(shape)
        fused.m["b"], fused.v["b"] = np.zeros(3), np.zeros(3)
        ref.m, ref.v = copy.deepcopy(fused.m), copy.deepcopy(fused.v)
    p_ref = copy.deepcopy(p_fused)
    for _ in range(steps):
        rows = _touched_rows(rng, shape[0], shape[1], touched)
        values = rng.normal(size=(rows.size, shape[1]))
        zeros = rng.random(values.shape) < 0.1
        values[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        sparse = RowSparse(rows, values, shape)
        b_grad = rng.normal(size=3)
        optimizer_step(fused, p_fused, {"w": sparse, "b": b_grad})
        reference_step(ref, p_ref, {"w": np.asarray(sparse), "b": b_grad})
        assert fused.step_count == ref.step_count
        for k in p_ref:
            m, v = row_layout_moments(fused, k)
            assert p_fused[k].tobytes() == p_ref[k].tobytes()
            assert m.tobytes() == ref.m[k].tobytes()
            assert v.tobytes() == ref.v[k].tobytes()


def _packed_setup():
    """A dense parameter, then a 6-row one whose moments are packed with
    rows 0 and 3 live, after one AdamW step."""
    rng = np.random.default_rng(1)
    params = {"a": rng.normal(size=4), "w": rng.normal(size=(6, 3))}
    state = adamw(0.1, weight_decay=0.1)
    grads = {"a": rng.normal(size=4), "w": RowSparse(np.array([0, 3]), rng.normal(size=(2, 3)), (6, 3))}
    optimizer_step(state, params, grads)
    assert set(state.packed) == {"w"}
    return rng, params, state


def test_packed_walk_steps_only_rows_live_before_the_step(monkeypatch):
    """The g = 0 walk of packed moments covers the k rows live before a step,
    k x width elements; rows first touched in the step are stepped only with
    their gradient rows. Every step still equals `reference_step` bytewise."""
    walked = []
    update = optim._Step.update

    def counting_update(self, pc, mc, vc, gc=None, decay=True):
        if gc is None:
            walked.append(pc.size)
        update(self, pc, mc, vc, gc, decay)

    monkeypatch.setattr(optim._Step, "update", counting_update)
    rng = np.random.default_rng(3)
    shape = (40, 3)
    fused = adamw(0.1, weight_decay=0.1)
    ref = copy.deepcopy(fused)
    p_fused = {"w": rng.normal(size=shape)}
    p_ref = copy.deepcopy(p_fused)
    # (touched rows, rows live before the step): all new, mixed, all new again
    for rows, live_before in (([2, 5, 9], 0), ([5, 11, 30], 3), ([0, 1], 5)):
        walked.clear()
        g = RowSparse(np.array(rows), rng.normal(size=(len(rows), 3)), shape)
        optimizer_step(fused, p_fused, {"w": g})
        reference_step(ref, p_ref, {"w": np.asarray(g)})
        assert "w" in fused.packed
        assert sum(walked) == live_before * shape[1]
        m, v = row_layout_moments(fused, "w")
        assert p_fused["w"].tobytes() == p_ref["w"].tobytes()
        assert m.tobytes() == ref.m["w"].tobytes()
        assert v.tobytes() == ref.v["w"].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_row_sparse_values_stop_the_step(bad):
    rng, params, state = _packed_setup()
    before = _snapshot(state, params)
    values = rng.normal(size=(2, 3))
    values[1, 2] = bad
    grads = {"a": rng.normal(size=4), "w": RowSparse(np.array([1, 4]), values, (6, 3))}
    with pytest.raises(FloatingPointError, match="'w' at step 2"):
        optimizer_step(state, params, grads)
    assert _snapshot(state, params) == before
    assert state.step_count == 1


@pytest.mark.parametrize(
    "rows, values_shape, match",
    [
        ([4, 1], (2, 3), "sorted"),
        ([1, 1], (2, 3), "unique"),
        ([-1, 2], (2, 3), "in \\[0, 6\\)"),
        ([2, 6], (2, 3), "in \\[0, 6\\)"),
        ([1, 4], (3, 3), "shape \\(3, 3\\)"),
        ([1, 4], (2, 4), "shape \\(2, 4\\)"),
        ([1.0, 4.0], (2, 3), "integer"),
        ([[1, 4]], (2, 3), "integer"),
    ],
)
def test_malformed_row_sparse_stops_the_step(rows, values_shape, match):
    rng, params, state = _packed_setup()
    before = _snapshot(state, params)
    g = RowSparse(np.array(rows), rng.normal(size=values_shape), (6, 3))
    with pytest.raises(ValueError, match=f"'w'.*{match}"):
        optimizer_step(state, params, {"a": rng.normal(size=4), "w": g})
    assert _snapshot(state, params) == before
    assert state.step_count == 1


# values a parameter may hold in rows no gradient touches: signed zeros and
# subnormals, whose bits an inexact skip of those rows would change
SPECIAL_P = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.5, -2.5])


def _draw_gradient(rng, shape, draw, scale=1.0):
    """One gradient for a (rows, width) parameter: a RowSparse over a fresh
    row set, or with "dense" a dense array whose rows are half all-zero."""
    n_rows, width = shape
    if draw == "dense":
        g = scale * rng.normal(size=shape)
        g[rng.random(n_rows) < 0.5] = 0.0
        return g
    share = {"none": 0.0, "few": 0.05, "half": 0.5, "most": 0.9}[draw]
    rows = np.flatnonzero(rng.random(n_rows) < share)
    values = scale * rng.normal(size=(rows.size, width))
    values[rng.random(values.shape) < 0.1] = 0.0
    return RowSparse(rows, values, shape)


@settings(max_examples=80, deadline=None)
@given(
    weight_decay=st.sampled_from([0.0, 0.01, 0.7]),
    shape=st.sampled_from(SPARSE_SHAPES),
    draws=st.lists(st.sampled_from(["none", "few", "half", "most", "dense"]), min_size=1, max_size=6),
    lr=st.floats(1e-5, 1.0),
    beta1=st.floats(0.0, 0.99),
    beta2=st.floats(0.5, 0.9999),
    seed=st.integers(0, 2**16),
)
def test_live_row_step_equals_reference_from_fresh_state(
    weight_decay, shape, draws, lr, beta1, beta2, seed
):
    rng = np.random.default_rng(seed)
    fused = OptimizerState(lr, beta1, beta2, weight_decay=weight_decay)
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
        m, v = row_layout_moments(fused, "w")
        assert fused.step_count == ref.step_count
        assert p_fused["w"].tobytes() == p_ref["w"].tobytes()
        assert m.tobytes() == ref.m["w"].tobytes()
        assert v.tobytes() == ref.v["w"].tobytes()
        # the moments of never-touched rows are still all +0.0 bits
        untouched = np.zeros((int((~touched).sum()), shape[1]))
        assert m[~touched].tobytes() == untouched.tobytes()
        assert v[~touched].tobytes() == untouched.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    weight_decay=st.sampled_from([0.0, 0.01, 0.7]),
    shape=st.sampled_from(SPARSE_SHAPES),
    draws=st.lists(st.sampled_from(["none", "few", "half", "most", "dense"]), min_size=1, max_size=6),
    scale=st.sampled_from([1e-12, 1.0, 1e6]),
    lr=st.floats(1e-5, 1.0),
    beta1=st.floats(0.0, 0.99),
    beta2=st.floats(0.5, 0.9999),
    seed=st.integers(0, 2**16),
)
def test_step_stays_within_rounding_of_textbook_order(
    weight_decay, shape, draws, scale, lr, beta1, beta2, seed
):
    """The folded bias corrections and the multiplicative decay change only
    rounding. From identical state, m and v equal the textbook order's
    bitwise, and p lies within a few ulp of it plus a few eps of the terms
    the step subtracts: lr*|direction| and, for AdamW, lr*wd*|p|. (While
    the two cancel, |lr*u| is far smaller than what was rounded.)"""
    rng = np.random.default_rng(seed)
    fused = OptimizerState(lr, beta1, beta2, weight_decay=weight_decay)
    ref = copy.deepcopy(fused)
    p = rng.normal(size=shape)
    special = rng.random(shape) < 0.5
    p[special] = rng.choice(SPECIAL_P, size=int(special.sum()))
    p_fused, p_ref = {"w": p}, {"w": p.copy()}
    for draw in draws:
        g = _draw_gradient(rng, shape, draw, scale)
        before = p_ref["w"].copy()
        optimizer_step(fused, p_fused, {"w": g})
        direction = textbook_step(ref, p_ref, {"w": np.asarray(g)})["w"]
        m, v = row_layout_moments(fused, "w")
        assert fused.step_count == ref.step_count
        assert m.tobytes() == ref.m["w"].tobytes()
        assert v.tobytes() == ref.v["w"].tobytes()
        size = lr * (np.abs(direction) + weight_decay * np.abs(before))
        bound = 4 * np.spacing(np.abs(p_ref["w"])) + 16 * np.finfo(float).eps * size
        assert np.all(np.abs(p_fused["w"] - p_ref["w"]) <= bound)
        # the next step starts from identical state again
        np.copyto(p_fused["w"], p_ref["w"])


# a zero-row table, tables with an odd and an even row count (which a step
# can take exactly to half live), and two tables of several blocks
LAYOUT_SHAPES = [(0, 3), (1, 5), (7, 3), (8, 3), (2 * (_CHUNK // 7) + 9, 7), (40, 1024)]


def _layout_gradient(rng, shape, draw, live):
    """A gradient that takes a table with live mask `live` to the live count
    `draw` names: "below" ends one row short of the packing bound, "at" on
    it; "empty" touches no row and "dense" is a dense array."""
    n_rows, width = shape
    if draw == "dense":
        g = rng.normal(size=shape)
        g[rng.random(n_rows) < 0.5] = 0.0
        return g
    bound = math.ceil(_PACKED_SHARE * n_rows)
    target = {"empty": 0, "few": 1, "below": bound - 1, "at": bound, "most": n_rows}[draw]
    dead = np.flatnonzero(~live)
    new = rng.permutation(dead)[: max(0, target - (n_rows - dead.size))]
    old = np.flatnonzero(live & (rng.random(n_rows) < 0.5)) if draw != "empty" else []
    rows = np.union1d(new, old).astype(np.intp)
    return RowSparse(rows, rng.normal(size=(rows.size, width)), shape)


@settings(max_examples=80, deadline=None)
@given(
    weight_decay=st.sampled_from([0.0, 0.7]),
    shape=st.sampled_from(LAYOUT_SHAPES),
    draws=st.lists(
        st.sampled_from(["empty", "few", "below", "at", "most", "dense"]), min_size=1, max_size=6
    ),
    lr=st.floats(1e-5, 1.0),
    seed=st.integers(0, 2**16),
)
@example(0.7, (8, 3), ["few", "below", "at", "most"], 0.1, 0)
@example(0.7, (2 * (_CHUNK // 7) + 9, 7), ["few", "below", "few", "most"], 0.1, 1)
@example(0.0, (40, 1024), ["few", "dense", "few"], 0.1, 2)
@example(0.7, (0, 3), ["empty", "few", "dense", "empty"], 0.1, 3)
@example(0.7, (7, 3), ["empty", "below", "empty", "at"], 0.1, 4)
def test_layout_switch_equals_reference_bytewise(weight_decay, shape, draws, lr, seed):
    """Moments stay packed, in first-touch order, exactly while fewer than
    `_PACKED_SHARE` of the rows are live and no dense gradient has come;
    stepping equals `reference_step` bytewise across every switch."""
    rng = np.random.default_rng(seed)
    fused = OptimizerState(lr, weight_decay=weight_decay)
    ref = copy.deepcopy(fused)
    p_fused = {"w": rng.normal(size=shape)}
    p_ref = copy.deepcopy(p_fused)
    live = np.zeros(shape[0], dtype=bool)
    first_touch = []
    dense_seen = False
    for draw in draws:
        g = _layout_gradient(rng, shape, draw, live)
        if isinstance(g, RowSparse):
            first_touch += [r for r in g.rows.tolist() if not live[r]]
            live[g.rows] = True
        else:
            dense_seen = True
        optimizer_step(fused, p_fused, {"w": g})
        reference_step(ref, p_ref, {"w": np.asarray(g)})
        m, v = row_layout_moments(fused, "w")
        assert p_fused["w"].tobytes() == p_ref["w"].tobytes()
        assert m.tobytes() == ref.m["w"].tobytes()
        assert v.tobytes() == ref.v["w"].tobytes()
        # packed or not, m and v have the table's shape from the first step
        assert fused.m["w"].shape == fused.v["w"].shape == shape
        packed = fused.packed.get("w")
        stays_packed = not dense_seen and live.sum() < _PACKED_SHARE * shape[0]
        assert (packed is not None) == stays_packed
        if packed is None:
            continue
        n = len(first_touch)
        assert packed.rows.tolist() == first_touch
        assert np.array_equal(packed.slot[first_touch], np.arange(n))
        assert np.all(packed.slot[~live] == -1)
        for a, full in ((fused.m["w"], m), (fused.v["w"], v)):
            assert a[:n].tobytes() == full[first_touch].tobytes()
            assert a[n:].tobytes() == np.zeros_like(a[n:]).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    weight_decay=st.sampled_from([0.0, 0.7]),
    shape=st.sampled_from(LAYOUT_SHAPES),
    draws=st.lists(
        st.sampled_from(["empty", "few", "below", "at", "most", "dense"]), min_size=1, max_size=6
    ),
    scale=st.sampled_from([1.0, 1e-170]),
    beta1=st.sampled_from([0.0, 0.5, 0.9]),
    beta2=st.sampled_from([0.0, 0.5, 0.999]),
    seed=st.integers(0, 2**16),
)
def test_v_never_holds_negative_zero(weight_decay, shape, draws, scale, beta1, beta2, seed):
    """An untouched row's v*b2 + 0.0 equals v*b2 only while v holds no -0.0,
    so the step adds no + 0.0 to v. Its own v never holds one, whatever the
    signs of the zeros in g and however small g's squares underflow."""
    rng = np.random.default_rng(seed)
    state = OptimizerState(0.1, beta1, beta2, weight_decay=weight_decay)
    params = {"w": rng.normal(size=shape)}
    live = np.zeros(shape[0], dtype=bool)
    for draw in draws:
        g = _layout_gradient(rng, shape, draw, live)
        values = g.values if isinstance(g, RowSparse) else g
        values *= scale
        zeros = rng.random(values.shape) < 0.3
        values[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        if isinstance(g, RowSparse):
            live[g.rows] = True
        optimizer_step(state, params, {"w": g})
        assert not np.signbit(state.v["w"]).any()


@pytest.mark.parametrize(
    "moment, bad, match",
    [
        ("m", np.zeros((2, 2)), "m of parameter 'w'.*shape \\(3, 2\\)"),
        ("v", np.zeros((3, 4))[:, ::2], "v of parameter 'w'.*C-contiguous"),
        ("m", np.zeros((3, 2), dtype=np.float32), "m of parameter 'w'.*float64"),
        ("v", None, "v of parameter 'w'"),
    ],
    ids=["shape", "strided", "float32", "missing"],
)
def test_malformed_moment_stops_the_step(moment, bad, match):
    """A caller-set m or v that the step could not update in place is refused
    before "a", which comes first, or the step count changes."""
    params = {"a": np.ones(4), "w": np.ones((3, 2))}
    state = adam(0.1)
    state.m["w"], state.v["w"] = np.zeros((3, 2)), np.zeros((3, 2))
    moments = getattr(state, moment)
    if bad is None:
        del moments["w"]
    else:
        moments["w"] = bad
    before = _snapshot(state, params)
    with pytest.raises(ValueError, match=match):
        optimizer_step(state, params, {"a": np.ones(4), "w": np.ones((3, 2))})
    assert _snapshot(state, params) == before
    assert state.step_count == 0


@pytest.mark.parametrize(
    "field, value",
    [
        ("learning_rate", 0.0), ("learning_rate", -1e-3), ("learning_rate", np.nan),
        ("learning_rate", np.inf),
        ("beta1", -0.1), ("beta1", 1.0), ("beta1", np.nan),
        ("beta2", -0.1), ("beta2", 1.0), ("beta2", np.nan),
        ("eps", 0.0), ("eps", -1e-8), ("eps", np.nan), ("eps", 5e-324),
        ("weight_decay", -0.01), ("weight_decay", np.nan), ("weight_decay", np.inf),
    ],
)
def test_invalid_hyper_parameter_named(field, value):
    kwargs = {"learning_rate": 1e-3, field: value}
    with pytest.raises(ValueError, match=field):
        OptimizerState(**kwargs)


def test_constructors_validate():
    with pytest.raises(ValueError, match="learning_rate"):
        adam(-1e-3)
    with pytest.raises(ValueError, match="learning_rate must be finite"):
        adam(float("inf"))
    with pytest.raises(ValueError, match="weight_decay"):
        adamw(1e-3, weight_decay=-0.5)
    assert OptimizerState(1e-3, beta1=0.0, beta2=0.0).beta1 == 0.0


@pytest.mark.parametrize(
    "grad_names, match",
    [
        (("a", "e", "x"), r"gradients \['x'\] name no parameter and parameters \[\] have"),
        (("a",), r"gradients \[\] name no parameter and parameters \['e'\] have no gradient"),
    ],
    ids=["gradient_without_a_parameter", "parameter_without_a_gradient"],
)
def test_gradients_must_name_exactly_the_parameters(grad_names, match):
    rng = np.random.default_rng(5)
    params = {"a": rng.normal(size=(5, 4)), "e": rng.normal(size=(8, 3))}
    state = adamw(0.1, weight_decay=0.1)
    optimizer_step(state, params, {
        "a": rng.normal(size=(5, 4)), "e": RowSparse(np.array([2]), rng.normal(size=(1, 3)), (8, 3)),
    })
    before = _snapshot(state, params)
    grads = {name: np.ones(params.get(name, np.ones(2)).shape) for name in grad_names}
    with pytest.raises(ValueError, match=match):
        optimizer_step(state, params, grads)
    assert _snapshot(state, params) == before
    assert state.step_count == 1
