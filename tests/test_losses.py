"""Loss family: frozen hand values, identities, monotonicity, gradients."""

import math

import numpy as np
import pytest

from attentab import autodiff as ad
from attentab.errors import ConfigError, LabelError
from attentab.losses import (
    LOGPROB_FLOOR,
    FocalParams,
    alpha_from_frequencies,
    balanced_ce_loss,
    ce_loss,
    focal_loss,
)

from helpers import grad_check


def logprob_rows(p_true, n_classes=2):
    """Valid logprob rows with the requested true-class probability at column 0."""
    rows = []
    for p in np.atleast_1d(p_true):
        rest = (1.0 - p) / (n_classes - 1)
        rows.append([math.log(p)] + [math.log(rest)] * (n_classes - 1))
    return ad.Tensor(np.array(rows))


class TestFrozenValues:
    def test_ce_at_point_nine(self):
        loss = ce_loss(None, logprob_rows([0.9]), np.array([0]))
        assert abs(loss.item() - 0.1053605) < 1e-6

    def test_ce_perfect_prediction_is_zero(self):
        lp = ad.Tensor(np.array([[0.0, -50.0]]))
        assert ce_loss(None, lp, np.array([0])).item() == 0.0

    def test_focal_at_point_nine(self):
        # 0.25 * (1 - 0.9)^2 * (-ln 0.9) = 2.634013e-4
        params = FocalParams(gamma=2.0, alpha=np.array([0.25, 0.25]))
        loss = focal_loss(None, logprob_rows([0.9]), np.array([0]), params)
        assert abs(loss.item() - 2.634013e-4) < 1e-9

    def test_balanced_weights_by_true_class(self):
        lp = logprob_rows([0.9, 0.9])
        labels = np.array([0, 1])
        lp.data[1] = lp.data[1][::-1]  # second row: true class 1 at 0.9
        loss = balanced_ce_loss(None, lp, labels, np.array([2.0, 0.5]))
        per = loss.per_example.data
        assert abs(per[0] - 2.0 * 0.1053605) < 1e-6
        assert abs(per[1] - 0.5 * 0.1053605) < 1e-6

    def test_logprob_floor_bounds_the_loss(self):
        lp = ad.Tensor(np.array([[-100.0, 0.0]]))
        loss = ce_loss(None, lp, np.array([0]))
        assert abs(loss.item() - (-LOGPROB_FLOOR)) < 1e-9
        assert abs(loss.item() - 27.6310211) < 1e-6


class TestAlphaWeights:
    def test_inverse_frequency_frozen_vector(self):
        alpha = alpha_from_frequencies(np.array([543, 73, 384]))
        np.testing.assert_allclose(alpha, [0.6138735, 4.5662100, 0.8680556], atol=1e-6)

    def test_balanced_counts_give_unit_weights(self):
        np.testing.assert_allclose(alpha_from_frequencies([250, 250]), [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(alpha_from_frequencies([500]), [1.0], atol=1e-12)

    def test_rare_class_gets_the_largest_weight(self, rng):
        counts = rng.integers(10, 1000, size=5)
        alpha = alpha_from_frequencies(counts)
        assert np.argmax(alpha) == np.argmin(counts)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ConfigError):
            alpha_from_frequencies([100, 0])
        with pytest.raises(ConfigError):
            alpha_from_frequencies([])


class TestIdentities:
    def test_focal_gamma_zero_alpha_one_is_ce_bit_exact(self, rng):
        for _ in range(100):
            n, c = int(rng.integers(1, 9)), int(rng.integers(2, 5))
            logits = ad.Tensor(rng.normal(size=(n, c)))
            lp = ad.softmax_logprob(None, logits)
            labels = rng.integers(0, c, size=n)
            ce = ce_loss(None, lp, labels)
            fl = focal_loss(None, lp, labels, FocalParams(gamma=0.0, alpha=np.ones(c)))
            assert fl.per_example.data.tobytes() == ce.per_example.data.tobytes()
            assert fl.scalar.data.tobytes() == ce.scalar.data.tobytes()

    def test_focal_gamma_zero_gradients_match_ce_bit_exact(self, rng):
        logits = ad.Parameter(rng.normal(size=(5, 3)))
        labels = rng.integers(0, 3, size=5)

        def run(kind):
            logits.zero_grad()
            tape = ad.Tape()
            lp = ad.softmax_logprob(tape, logits)
            if kind == "ce":
                loss = ce_loss(tape, lp, labels)
            else:
                loss = focal_loss(tape, lp, labels, FocalParams(0.0, np.ones(3)))
            tape.backward(loss.scalar)
            return logits.grad.copy()

        assert run("ce").tobytes() == run("focal").tobytes()

    def test_balanced_with_unit_alpha_is_ce(self, rng):
        for _ in range(20):
            lp = ad.softmax_logprob(None, ad.Tensor(rng.normal(size=(6, 4))))
            labels = rng.integers(0, 4, size=6)
            ce = ce_loss(None, lp, labels)
            bal = balanced_ce_loss(None, lp, labels, np.ones(4))
            assert bal.per_example.data.tobytes() == ce.per_example.data.tobytes()

    def test_scalar_is_mean_of_per_example(self, rng):
        lp = ad.softmax_logprob(None, ad.Tensor(rng.normal(size=(7, 3))))
        labels = rng.integers(0, 3, size=7)
        loss = focal_loss(None, lp, labels, FocalParams(2.0, np.array([0.2, 1.0, 3.0])))
        assert abs(loss.item() - loss.per_example.data.mean()) < 1e-12
        assert (loss.per_example.data >= 0.0).all()


class TestMonotonicity:
    def test_focal_decreases_as_p_true_rises(self):
        grid = np.linspace(0.01, 0.99, 50)
        params = FocalParams(gamma=2.0, alpha=np.ones(2))
        vals = [
            focal_loss(None, logprob_rows([p]), np.array([0]), params).item()
            for p in grid
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ce_decreases_as_p_true_rises(self):
        grid = np.linspace(0.01, 0.99, 50)
        vals = [ce_loss(None, logprob_rows([p]), np.array([0])).item() for p in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_focal_decreases_in_gamma_for_easy_examples(self):
        # confident correct predictions: a larger focusing exponent shrinks the loss
        for p in (0.5, 0.7, 0.9, 0.99):
            vals = [
                focal_loss(
                    None, logprob_rows([p]), np.array([0]), FocalParams(g, np.ones(2))
                ).item()
                for g in (0.0, 0.5, 1.0, 2.0, 5.0)
            ]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_focusing_downweights_easy_relative_to_hard(self):
        params = FocalParams(gamma=2.0, alpha=np.ones(2))
        easy = focal_loss(None, logprob_rows([0.9]), np.array([0]), params).item()
        hard = focal_loss(None, logprob_rows([0.1]), np.array([0]), params).item()
        ce_easy = ce_loss(None, logprob_rows([0.9]), np.array([0])).item()
        ce_hard = ce_loss(None, logprob_rows([0.1]), np.array([0])).item()
        assert hard / easy > ce_hard / ce_easy * 10.0


class TestValidation:
    def test_label_out_of_range(self, rng):
        lp = ad.softmax_logprob(None, ad.Tensor(rng.normal(size=(2, 3))))
        with pytest.raises(LabelError):
            ce_loss(None, lp, np.array([0, 3]))
        with pytest.raises(LabelError):
            ce_loss(None, lp, np.array([-1, 0]))

    def test_label_batch_mismatch(self, rng):
        lp = ad.softmax_logprob(None, ad.Tensor(rng.normal(size=(2, 3))))
        with pytest.raises(LabelError):
            ce_loss(None, lp, np.array([0, 1, 2]))

    def test_bad_focal_params(self, rng):
        lp = ad.softmax_logprob(None, ad.Tensor(rng.normal(size=(2, 3))))
        labels = np.array([0, 1])
        with pytest.raises(ConfigError):
            focal_loss(None, lp, labels, FocalParams(-1.0, np.ones(3)))
        with pytest.raises(ConfigError):
            focal_loss(None, lp, labels, FocalParams(2.0, np.ones(4)))
        with pytest.raises(ConfigError):
            focal_loss(None, lp, labels, FocalParams(2.0, np.array([1.0, 0.0, 1.0])))

    def test_balanced_alpha_shape(self, rng):
        lp = ad.softmax_logprob(None, ad.Tensor(rng.normal(size=(2, 3))))
        with pytest.raises(ConfigError):
            balanced_ce_loss(None, lp, np.array([0, 1]), np.ones(2))


class TestGradients:
    @pytest.mark.parametrize("kind", ["ce", "balanced", "focal", "focal_fractional"])
    def test_losses_match_finite_differences(self, rng, kind):
        logits = ad.Parameter(rng.normal(size=(4, 3)))
        labels = rng.integers(0, 3, size=4)
        alpha = 0.2 + rng.random(3)

        def build(tape):
            lp = ad.softmax_logprob(tape, logits)
            if kind == "ce":
                return ce_loss(tape, lp, labels).scalar
            if kind == "balanced":
                return balanced_ce_loss(tape, lp, labels, alpha).scalar
            gamma = 1.5 if kind == "focal_fractional" else 2.0
            return focal_loss(tape, lp, labels, FocalParams(gamma, alpha)).scalar

        assert grad_check(build, [logits], rng, samples=6) < 1e-4
