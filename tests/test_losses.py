"""Loss family: frozen hand values, identities, monotonicity, gradients.

Every objective is the one ``focal_nll`` op; cross-entropy is gamma 0 with
unit alpha and the balanced loss is gamma 0.
"""

import math

import numpy as np
import pytest

from attentab import autodiff as ad
from attentab.errors import ConfigError, LabelError, ShapeError
from attentab.losses import LOGPROB_FLOOR, alpha_from_frequencies, focal_nll
from attentab.train import LOSS_KINDS, batch_loss

from helpers import grad_check


def logprob_rows(p_true, n_classes=2):
    """Valid logprob rows with the requested true-class probability at column 0."""
    rows = []
    for p in np.atleast_1d(p_true):
        rest = (1.0 - p) / (n_classes - 1)
        rows.append([math.log(p)] + [math.log(rest)] * (n_classes - 1))
    return ad.Tensor(np.array(rows))


def ce(lp, labels):
    return focal_nll(None, lp, labels, np.ones(lp.shape[1]), 0.0)


def focal(lp, labels, gamma, alpha=None):
    alpha = np.ones(lp.shape[1]) if alpha is None else alpha
    return focal_nll(None, lp, labels, alpha, gamma)


def logprob_grad(lp_data, label, alpha, gamma):
    """d loss / d logprob for a single-row batch, taken from the tape."""
    lp = ad.Parameter(lp_data)
    tape = ad.Tape()
    tape.backward(focal_nll(tape, lp, np.array([label]), alpha, gamma).scalar)
    return lp.grad


SPECS = {
    "cce": lambda c: {"kind": "cce"},
    "balanced": lambda c: {"kind": "balanced", "alpha": [1.0] * c},
    "focal": lambda c: {"kind": "focal", "gamma": 0, "alpha": [1.0] * c},
}


class TestFrozenValues:
    def test_ce_at_point_nine(self):
        loss = ce(logprob_rows([0.9]), np.array([0]))
        assert abs(loss.item() - 0.1053605) < 1e-6

    def test_ce_perfect_prediction_is_zero(self):
        lp = ad.Tensor(np.array([[0.0, -50.0]]))
        assert ce(lp, np.array([0])).item() == 0.0

    def test_focal_at_point_nine(self):
        # 0.25 * (1 - 0.9)^2 * (-ln 0.9) = 2.634013e-4
        loss = focal(logprob_rows([0.9]), np.array([0]), 2.0, np.array([0.25, 0.25]))
        assert abs(loss.item() - 2.634013e-4) < 1e-9

    def test_focal_gradient_at_point_nine(self):
        # -0.25 * (0.1^2 + 2 * 0.1 * 0.9 * (-ln 0.9)) = -0.0072412232
        g = logprob_grad(logprob_rows([0.9]).data, 0, np.array([0.25, 0.25]), 2.0)
        assert abs(g[0, 0] - (-0.0072412232)) < 1e-10
        assert g[0, 1] == 0.0

    def test_balanced_weights_by_true_class(self):
        lp = logprob_rows([0.9, 0.9])
        labels = np.array([0, 1])
        lp.data[1] = lp.data[1][::-1]  # second row: true class 1 at 0.9
        loss = focal_nll(None, lp, labels, np.array([2.0, 0.5]), 0.0)
        per = loss.per_example.data
        assert abs(per[0] - 2.0 * 0.1053605) < 1e-6
        assert abs(per[1] - 0.5 * 0.1053605) < 1e-6

    def test_logprob_floor_bounds_the_loss(self):
        lp = ad.Tensor(np.array([[-100.0, 0.0]]))
        loss = ce(lp, np.array([0]))
        assert abs(loss.item() - (-LOGPROB_FLOOR)) < 1e-9
        assert abs(loss.item() - 27.6310211) < 1e-6

    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    def test_floored_row_passes_no_gradient(self, gamma):
        g = logprob_grad(np.array([[-100.0, 0.0]]), 0, np.ones(2), gamma)
        np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_certain_row_gradient_is_finite(self, gamma):
        # p_true rounds to 1, where d/dp (1 - p) ** gamma diverges for gamma < 1
        g = logprob_grad(np.array([[0.0, -50.0]]), 0, np.ones(2), gamma)
        assert np.all(np.isfinite(g))
        assert g[0, 0] == (-1.0 if gamma == 0.0 else 0.0)


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
            labels = rng.integers(0, c, size=n)
            base = batch_loss(None, logits, labels, SPECS["cce"](c))
            fl = batch_loss(None, logits, labels, SPECS["focal"](c))
            assert fl.per_example.data.tobytes() == base.per_example.data.tobytes()
            assert fl.scalar.data.tobytes() == base.scalar.data.tobytes()

    def test_focal_gamma_zero_gradients_match_ce_bit_exact(self, rng):
        logits = ad.Parameter(rng.normal(size=(5, 3)))
        labels = rng.integers(0, 3, size=5)

        def run(kind):
            logits.zero_grad()
            tape = ad.Tape()
            tape.backward(batch_loss(tape, logits, labels, SPECS[kind](3)).scalar)
            return logits.grad.tobytes()

        assert run("cce") == run("focal") == run("balanced")

    def test_balanced_with_unit_alpha_is_ce(self, rng):
        for _ in range(20):
            logits = ad.Tensor(rng.normal(size=(6, 4)))
            labels = rng.integers(0, 4, size=6)
            base = batch_loss(None, logits, labels, SPECS["cce"](4))
            bal = batch_loss(None, logits, labels, SPECS["balanced"](4))
            assert bal.per_example.data.tobytes() == base.per_example.data.tobytes()
            assert bal.scalar.data.tobytes() == base.scalar.data.tobytes()

    def test_scalar_is_mean_of_per_example(self, rng):
        lp = ad.softmax_logprob(None, ad.Tensor(rng.normal(size=(7, 3))))
        labels = rng.integers(0, 3, size=7)
        loss = focal(lp, labels, 2.0, np.array([0.2, 1.0, 3.0]))
        assert abs(loss.item() - loss.per_example.data.mean()) < 1e-12
        assert (loss.per_example.data >= 0.0).all()

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_tape_holds_softmax_and_one_loss_record(self, rng, kind):
        spec = {"kind": kind, "alpha": [0.5, 1.0, 2.0], "gamma": 2.0}
        tape = ad.Tape()
        batch_loss(tape, ad.Parameter(rng.normal(size=(4, 3))), rng.integers(0, 3, size=4), spec)
        assert len(tape) == 2


class TestMonotonicity:
    def test_focal_decreases_as_p_true_rises(self):
        grid = np.linspace(0.01, 0.99, 50)
        vals = [focal(logprob_rows([p]), np.array([0]), 2.0).item() for p in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ce_decreases_as_p_true_rises(self):
        grid = np.linspace(0.01, 0.99, 50)
        vals = [ce(logprob_rows([p]), np.array([0])).item() for p in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_focal_decreases_in_gamma_for_easy_examples(self):
        # confident correct predictions: a larger focusing exponent shrinks the loss
        for p in (0.5, 0.7, 0.9, 0.99):
            vals = [
                focal(logprob_rows([p]), np.array([0]), g).item()
                for g in (0.0, 0.5, 1.0, 2.0, 5.0)
            ]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_focusing_downweights_easy_relative_to_hard(self):
        easy = focal(logprob_rows([0.9]), np.array([0]), 2.0).item()
        hard = focal(logprob_rows([0.1]), np.array([0]), 2.0).item()
        ce_easy = ce(logprob_rows([0.9]), np.array([0])).item()
        ce_hard = ce(logprob_rows([0.1]), np.array([0])).item()
        assert hard / easy > ce_hard / ce_easy * 10.0


class TestValidation:
    def test_label_out_of_range(self, rng):
        lp = ad.softmax_logprob(None, ad.Tensor(rng.normal(size=(2, 3))))
        with pytest.raises(LabelError):
            ce(lp, np.array([0, 3]))
        with pytest.raises(LabelError):
            ce(lp, np.array([-1, 0]))

    def test_label_batch_mismatch(self, rng):
        lp = ad.softmax_logprob(None, ad.Tensor(rng.normal(size=(2, 3))))
        with pytest.raises(LabelError):
            ce(lp, np.array([0, 1, 2]))

    def test_bad_focal_params(self, rng):
        lp = ad.softmax_logprob(None, ad.Tensor(rng.normal(size=(2, 3))))
        labels = np.array([0, 1])
        with pytest.raises(ConfigError):
            focal(lp, labels, -1.0, np.ones(3))
        with pytest.raises(ConfigError):
            focal(lp, labels, 2.0, np.ones(4))
        with pytest.raises(ConfigError):
            focal(lp, labels, 2.0, np.array([1.0, 0.0, 1.0]))

    def test_balanced_alpha_shape(self, rng):
        logits = ad.Tensor(rng.normal(size=(2, 3)))
        with pytest.raises(ConfigError):
            batch_loss(None, logits, np.array([0, 1]), {"kind": "balanced", "alpha": [1.0, 1.0]})

    def test_positive_logprob_rejected_when_focusing(self):
        with pytest.raises(ShapeError):
            focal(ad.Tensor(np.array([[0.1, -1.0]])), np.array([0]), 2.0)


class TestGradients:
    @pytest.mark.parametrize("kind", ["ce", "balanced", "focal", "focal_fractional"])
    def test_losses_match_finite_differences(self, rng, kind):
        logits = ad.Parameter(rng.normal(size=(4, 3)))
        labels = rng.integers(0, 3, size=4)
        alpha = list(0.2 + rng.random(3))
        spec = {
            "ce": {"kind": "cce"},
            "balanced": {"kind": "balanced", "alpha": alpha},
            "focal": {"kind": "focal", "alpha": alpha, "gamma": 2.0},
            "focal_fractional": {"kind": "focal", "alpha": alpha, "gamma": 1.5},
        }[kind]

        def build(tape):
            return batch_loss(tape, logits, labels, spec).scalar

        assert grad_check(build, [logits], rng, samples=6) < 1e-4
