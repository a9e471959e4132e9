import math

import numpy as np
import pytest

from oracles import (
    GradCheckReport,
    cross_entropy,
    gaussian_kl,
    grad_check,
    kl_categorical,
    softmax,
)
from topicarg import autodiff as ad
from topicarg.nn import EPS, MlpSpec, SeededRng, init_mlp, mlp_forward


class TestSeededRng:
    def test_identical_seed_identical_draws(self):
        a = SeededRng(42).normal((4, 4))
        b = SeededRng(42).normal((4, 4))
        assert np.array_equal(a, b)

    def test_children_are_independent_and_reproducible(self):
        r = SeededRng(42)
        c1 = r.child(1).normal(8)
        c2 = r.child(2).normal(8)
        assert not np.array_equal(c1, c2)
        assert np.array_equal(c1, SeededRng(42).child(1).normal(8))

    def test_empty_seed_path_rejected(self):
        with pytest.raises(ValueError):
            SeededRng()


class TestMlp:
    def test_identity_initialized_linear_layer(self):
        spec = MlpSpec((2, 2))
        params = {"W0": np.eye(2), "b0": np.zeros(2)}
        out = mlp_forward(spec, params, np.array([[1.0, 2.0]]))
        assert np.allclose(out.data, [[1.0, 2.0]])

    def test_zero_weights_zero_bias(self):
        spec = MlpSpec((3, 4, 2), "relu")
        params = {k: np.zeros_like(v) for k, v in init_mlp(spec, SeededRng(0)).items()}
        out = mlp_forward(spec, params, np.ones((5, 3)))
        assert np.allclose(out.data, 0.0)

    def test_width_mismatch_raises(self):
        spec = MlpSpec((3, 2))
        params = init_mlp(spec, SeededRng(0))
        with pytest.raises(ValueError):
            mlp_forward(spec, params, np.ones((1, 4)))

    def test_two_layer_gradients_vs_finite_differences(self):
        spec = MlpSpec((4, 6, 3), "softplus")
        params = init_mlp(spec, SeededRng(5))
        x = SeededRng(6).normal((7, 4))

        def loss(leaves):
            out = mlp_forward(spec, leaves, x)
            return ad.tensor_sum(out * out)

        report = grad_check(loss, params, samples=120, rng=SeededRng(7))
        assert report.passed, report.max_rel_error
        assert report.max_rel_error <= 1e-4

    def test_input_gradient_vs_finite_differences(self):
        spec = MlpSpec((4, 6, 3), "softplus")
        params = init_mlp(spec, SeededRng(5))
        x = SeededRng(8).normal((2, 4))
        wrapped = {"x": x, **params}

        def loss(leaves):
            out = mlp_forward(spec, leaves, leaves["x"])
            return ad.tensor_sum(out * out)

        report = grad_check(loss, wrapped, samples=80, rng=SeededRng(9))
        assert report.passed, report.max_rel_error

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MlpSpec((4,))
        with pytest.raises(ValueError):
            MlpSpec((4, 0))
        for activation in ("sigmoid", "tanh", "identity"):  # relu and softplus only
            with pytest.raises(ValueError):
                MlpSpec((4, 2), activation=activation)


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        assert np.allclose(softmax(np.zeros(3)), [1 / 3] * 3)

    def test_extreme_logits_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert abs(out[0] - 1.0) <= 1e-6
        assert out[1] <= 1e-6

    def test_hand_evaluated_log_logits(self):
        out = softmax(np.log([1.0, 2.0, 3.0]))
        assert np.allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_shift_invariance(self):
        x = SeededRng(3).normal(9)
        assert np.allclose(softmax(x), softmax(x + 123.456), atol=1e-6)

    def test_sums_to_one_random(self):
        for i in range(50):
            x = SeededRng(i).normal((4, 6)) * 10
            s = softmax(x, axis=-1)
            assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-6)
            assert np.all(s > 0)


class TestCrossEntropy:
    def test_one_hot_correct_is_near_zero(self):
        assert cross_entropy(np.array([1.0, 0.0, 0.0]), 0) < 1e-7

    def test_uniform_is_ln3(self):
        assert cross_entropy(np.full(3, 1 / 3), 1) == pytest.approx(math.log(3), abs=1e-6)

    def test_hand_evaluated_quarter(self):
        assert cross_entropy(np.array([0.5, 0.25, 0.25]), 1) == pytest.approx(
            math.log(4), abs=1e-6
        )

    def test_gold_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.array([0.5, 0.5]), 2)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.2]), 0)

    def test_nonnegative(self):
        for i in range(25):
            p = softmax(SeededRng(i).normal(5))
            assert cross_entropy(p, i % 5) >= 0.0


class TestKlCategorical:
    def test_identity_zero(self):
        assert kl_categorical([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)

    def test_hand_evaluated_ln2(self):
        assert kl_categorical([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2), abs=1e-6
        )

    def test_asymmetry(self):
        p, q = [0.9, 0.1], [0.1, 0.9]
        assert kl_categorical(p, q) != kl_categorical(q, p) or kl_categorical(
            p, q
        ) == pytest.approx(kl_categorical(q, p))
        # for this symmetric swap the values coincide; perturb to break it
        p2, q2 = [0.8, 0.2], [0.1, 0.9]
        assert kl_categorical(p2, q2) != kl_categorical(q2, p2)

    def test_self_kl_tiny_everywhere(self):
        for i in range(50):
            p = softmax(SeededRng(i).normal(6))
            assert abs(kl_categorical(p, p)) <= 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_categorical([1.0], [0.5, 0.5])


class TestGaussianKl:
    def test_standard_prior_is_zero(self):
        assert gaussian_kl(np.zeros(4), np.zeros(4)) == 0.0

    def test_unit_mean(self):
        assert gaussian_kl(np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)

    def test_variance_four(self):
        expected = 0.5 * (4.0 - 1.0 - math.log(4.0))
        assert gaussian_kl(np.array([0.0]), np.array([math.log(4.0)])) == pytest.approx(
            expected
        )

    def test_nonnegative_random(self):
        rng = SeededRng(11)
        for _ in range(100):
            assert gaussian_kl(rng.normal(6), rng.normal(6)) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_kl(np.zeros(3), np.zeros(4))


class TestGradCheck:
    def test_quadratic_analytic_case(self):
        params = {"x": np.array([3.0])}

        def loss(leaves):
            return ad.tensor_sum(leaves["x"] * leaves["x"] * 0.5)

        report = grad_check(loss, params, samples=5, rng=SeededRng(1), tolerance=1e-6)
        assert report.passed
        entry = report.entries[0]
        assert entry.analytic == pytest.approx(3.0, abs=1e-9)
        assert entry.numeric == pytest.approx(3.0, abs=1e-6)

    def test_corrupted_gradient_detected(self):
        params = {"x": np.array([1.0, 2.0])}

        def loss(leaves):
            # wrong backward on purpose: detach via data round-trip
            corrupted = ad.Tensor(leaves["x"].data * 2.0)  # breaks the graph
            return ad.tensor_sum(corrupted * corrupted) + ad.tensor_sum(
                leaves["x"] * 0.001
            )

        report = grad_check(loss, params, samples=10, rng=SeededRng(2))
        assert not report.passed

    def test_report_is_dataclass_with_entries(self):
        params = {"x": np.arange(4.0)}

        def loss(leaves):
            return ad.tensor_sum(ad.exp(leaves["x"]))

        report = grad_check(loss, params, samples=8, rng=SeededRng(3))
        assert isinstance(report, GradCheckReport)
        assert len(report.entries) == 8
        assert report.worst().rel_error == report.max_rel_error


def test_probability_floor_constant():
    assert EPS == 1e-8
