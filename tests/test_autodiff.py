"""Tape mechanics, per-op forward values and gradients, batch norm, Adam."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attentab import autodiff as ad
from attentab.errors import BatchTooSmallError, ConfigError, GraphError, ShapeError

from helpers import FD_H, grad_check, op_fd_cases, weighted_sum_loss


# --------------------------------------------------------------------- tape


class TestTape:
    def test_backward_rejects_non_scalar(self):
        tape = ad.Tape()
        p = ad.Parameter(np.ones((2, 3)))
        out = ad.relu(tape, p)
        with pytest.raises(GraphError):
            tape.backward(out)

    def test_grad_of_sum_of_squares_is_two_p(self, rng):
        p = ad.Parameter(rng.normal(size=(3, 4)))
        tape = ad.Tape()
        loss = ad.reduce_sum(tape, ad.mul(tape, p, p))
        tape.backward(loss)
        np.testing.assert_allclose(p.grad, 2.0 * p.data, rtol=0, atol=0)

    def test_shared_parameter_accumulates_across_uses(self, rng):
        p = ad.Parameter(rng.normal(size=(2, 2)))
        tape = ad.Tape()
        # p enters the loss through two separate records: d/dp (sum(p) + sum(2p)) = 3
        loss = ad.reduce_sum(
            tape, ad.add(tape, ad.scale(tape, p, 2.0), ad.add_const(tape, p, 0.0))
        )
        tape.backward(loss)
        np.testing.assert_array_equal(p.grad, np.full((2, 2), 3.0))

    def test_dead_branch_contributes_nothing(self, rng):
        p = ad.Parameter(rng.normal(size=(2, 3)))
        tape = ad.Tape()
        ad.relu(tape, p)  # recorded but never reaches the loss
        loss = ad.reduce_sum(tape, ad.mul(tape, p, p))
        tape.backward(loss)
        np.testing.assert_allclose(p.grad, 2.0 * p.data, rtol=0, atol=0)

    def test_backward_accumulates_until_zero_grad(self, rng):
        p = ad.Parameter(rng.normal(size=(3,)))

        def run():
            tape = ad.Tape()
            loss = ad.reduce_sum(tape, ad.mul(tape, p, p))
            tape.backward(loss)

        run()
        first = p.grad.copy()
        run()
        np.testing.assert_array_equal(p.grad, 2.0 * first)
        p.zero_grad()
        np.testing.assert_array_equal(p.grad, np.zeros(3))

    def test_constants_collect_no_gradient(self, rng):
        p = ad.Parameter(rng.normal(size=(2, 2)))
        c = ad.Tensor(rng.normal(size=(2, 2)))
        tape = ad.Tape()
        loss = ad.reduce_sum(tape, ad.mul(tape, p, c))
        tape.backward(loss)
        np.testing.assert_array_equal(p.grad, c.data)
        assert not hasattr(c, "grad")


# ------------------------------------------------------------ forward values


class TestForwardValues:
    def test_linear_matches_triple_loop(self, rng):
        x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
        out = ad.linear(None, ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data
        want = np.empty((3, 2))
        for i in range(3):
            for j in range(2):
                acc = b[j]
                for k in range(4):
                    acc += x[i, k] * w[k, j]
                want[i, j] = acc
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)

    def test_linear_shape_mismatch(self, rng):
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(
                None,
                ad.Tensor(rng.normal(size=(3, 4))),
                ad.Tensor(rng.normal(size=(5, 2))),
                ad.Tensor(rng.normal(size=2)),
            )

    def test_relu_clamps_negatives(self):
        out = ad.relu(None, ad.Tensor(np.array([[-2.0, 0.0, 3.5]])))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 3.5]])

    def test_glu_matches_scalar_sigmoid_loop(self, rng):
        x = rng.normal(size=(4, 6))
        out = ad.glu(None, ad.Tensor(x)).data
        for b in range(4):
            for j in range(3):
                want = x[b, j] / (1.0 + np.exp(-x[b, 3 + j]))
                assert abs(out[b, j] - want) < 1e-12

    def test_glu_saturated_gate_is_exactly_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.glu(None, ad.Tensor([[3.0, -1000.0]]))
        assert out.data[0, 0] == 0.0

    def test_glu_rejects_odd_width(self, rng):
        with pytest.raises(ShapeError, match="even"):
            ad.glu(None, ad.Tensor(rng.normal(size=(2, 5))))

    def test_softmax_logprob_two_way_tie(self):
        out = ad.softmax_logprob(None, ad.Tensor(np.zeros((1, 2)))).data
        np.testing.assert_allclose(out, np.log(0.5) * np.ones((1, 2)), atol=1e-12)

    def test_softmax_logprob_extreme_logits_stay_finite(self):
        out = ad.softmax_logprob(None, ad.Tensor(np.array([[1000.0, 0.0]]))).data
        assert np.isfinite(out).all()
        assert abs(out[0, 0]) < 1e-12 and abs(out[0, 1] + 1000.0) < 1e-9

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_softmax_logprob_rows_exponentiate_to_one(self, row):
        out = ad.softmax_logprob(None, ad.Tensor(np.array([row]))).data
        assert abs(np.exp(out).sum() - 1.0) < 1e-9

    def test_log_rejects_non_positive(self):
        with pytest.raises(ShapeError):
            ad.log(None, ad.Tensor(np.array([[0.0, 1.0]])))

    def test_mask_fill_fills_and_blocks_gradient(self):
        keep = np.array([[True, False, True]])
        x = ad.Parameter(np.array([[1.0, 2.0, 3.0]]))
        tape = ad.Tape()
        out = ad.mask_fill(tape, x, keep, -9.0)
        np.testing.assert_array_equal(out.data, [[1.0, -9.0, 3.0]])
        tape.backward(ad.reduce_sum(tape, out))
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 1.0]])

    def test_embedding_duplicate_codes_accumulate(self):
        table = ad.Parameter(np.arange(10.0).reshape(5, 2))
        tape = ad.Tape()
        out = ad.embedding(tape, table, np.array([0, 0, 3]))
        np.testing.assert_array_equal(out.data, [[0.0, 1.0], [0.0, 1.0], [6.0, 7.0]])
        tape.backward(ad.reduce_sum(tape, out))
        want = np.zeros((5, 2))
        want[0] = 2.0  # looked up twice
        want[3] = 1.0
        np.testing.assert_array_equal(table.grad, want)

    def test_embedding_out_of_range_code(self):
        with pytest.raises(ShapeError):
            ad.embedding(None, ad.Tensor(np.ones((4, 2))), np.array([0, 4]))

    def test_concat_then_slice_round_trips(self, rng):
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 4))
        cat = ad.concat_cols(None, [ad.Tensor(a), ad.Tensor(b)])
        np.testing.assert_array_equal(ad.slice_cols(None, cat, 0, 2).data, a)
        np.testing.assert_array_equal(ad.slice_cols(None, cat, 2, 6).data, b)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_elementwise_ops_match_numpy(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=(2, 3)), r.normal(size=(2, 3))
        ta, tb = ad.Tensor(a), ad.Tensor(b)
        np.testing.assert_array_equal(ad.add(None, ta, tb).data, a + b)
        np.testing.assert_array_equal(ad.mul(None, ta, tb).data, a * b)
        np.testing.assert_array_equal(ad.reduce_sum(None, ta, axis=0).data, a.sum(axis=0))


# ----------------------------------------------------------------- gradients


class TestGradients:
    def test_every_primitive_matches_finite_differences(self, rng):
        worst = {}
        for _ in range(5):
            for name, build_loss, params in op_fd_cases(rng):
                err = grad_check(build_loss, params, rng, samples=4)
                worst[name] = max(worst.get(name, 0.0), err)
        bad = {k: v for k, v in worst.items() if v >= 1e-4}
        assert not bad, f"gradient mismatch: {bad}"

    def test_relu_gradient_away_from_kink(self, rng):
        x = ad.Parameter(np.array([[-1.0, 2.0, -0.5, 0.3]]))
        build = weighted_sum_loss(ad.relu, x, np.array([[1.0, 2.0, 3.0, 4.0]]))
        assert grad_check(build, [x], rng, samples=4, h=FD_H) < 1e-6

    def test_backward_is_bit_deterministic(self, rng):
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(6, 3))

        def grads():
            px, pw = ad.Parameter(x.copy()), ad.Parameter(w.copy())
            tape = ad.Tape()
            h = ad.relu(tape, ad.linear(tape, px, pw, ad.Tensor(np.zeros(3))))
            loss = ad.reduce_sum(tape, ad.mul(tape, h, h))
            tape.backward(loss)
            return px.grad.copy(), pw.grad.copy()

        g1, g2 = grads(), grads()
        assert g1[0].tobytes() == g2[0].tobytes()
        assert g1[1].tobytes() == g2[1].tobytes()


# ---------------------------------------------------------------- batch norm


class TestBatchNorm:
    def test_train_output_is_standardized(self, rng):
        bn = ad.BatchNorm(3)
        x = ad.Tensor(rng.normal(loc=5.0, scale=2.0, size=(8, 3)))
        out = bn(None, x, training=True).data
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        # biased variance of the output is var/(var + eps), just under 1
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-4

    def test_constant_column_maps_to_zero(self):
        bn = ad.BatchNorm(2)
        x = ad.Tensor(np.column_stack([np.full(6, 7.0), np.arange(6.0)]))
        out = bn(None, x, training=True).data
        np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12)

    def test_virtual_batches_normalize_each_chunk(self, rng):
        x = rng.normal(loc=3.0, size=(8, 3))
        bn = ad.BatchNorm(3, virtual_batch=3)
        out = bn(None, ad.Tensor(x), training=True).data
        for start, stop in ((0, 3), (3, 6), (6, 8)):  # trailing chunk holds 2 rows
            chunk, want = x[start:stop], out[start:stop]
            manual = (chunk - chunk.mean(axis=0)) / np.sqrt(chunk.var(axis=0) + bn.eps)
            np.testing.assert_allclose(want, manual, atol=1e-12)

    def test_running_update_follows_momentum_formula(self, rng):
        bn = ad.BatchNorm(2, momentum=0.3)
        x = rng.normal(size=(5, 2))
        bn(None, ad.Tensor(x), training=True)
        np.testing.assert_allclose(bn.running_mean, 0.3 * x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(
            bn.running_var, 0.7 * 1.0 + 0.3 * x.var(axis=0), atol=1e-12
        )

    def test_momentum_one_makes_eval_reproduce_train(self, rng):
        bn = ad.BatchNorm(4, momentum=1.0)
        x = ad.Tensor(rng.normal(size=(16, 4)))
        train_out = bn(None, x, training=True).data
        eval_out = bn(None, x, training=False).data
        np.testing.assert_allclose(eval_out, train_out, atol=1e-6)

    def test_single_row_train_batch_rejected(self):
        bn = ad.BatchNorm(3)
        with pytest.raises(BatchTooSmallError):
            bn(None, ad.Tensor(np.ones((1, 3))), training=True)
        # eval mode has no such restriction
        bn(None, ad.Tensor(np.ones((1, 3))), training=False)

    def test_eval_uses_running_statistics(self, rng):
        bn = ad.BatchNorm(2)
        bn.running_mean[...] = [1.0, -2.0]
        bn.running_var[...] = [4.0, 0.25]
        x = np.array([[3.0, -1.0]])
        out = bn(None, ad.Tensor(x), training=False).data
        want = (x - [1.0, -2.0]) / np.sqrt(np.array([4.0, 0.25]) + bn.eps)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_shared_affine_keeps_buffers_local(self, rng):
        registry = {}
        owner = ad.BatchNorm(3, name="owner", registry=registry)
        borrower = ad.BatchNorm(
            3, momentum=1.0, name="borrower", affine=(owner.gamma, owner.beta), registry=registry
        )
        # the borrower registers only its own running statistics
        assert list(registry) == [
            "owner.gamma",
            "owner.beta",
            "owner.running_mean",
            "owner.running_var",
            "borrower.running_mean",
            "borrower.running_var",
        ]
        assert registry["borrower.running_mean"] is borrower.running_mean
        assert registry["borrower.running_var"] is borrower.running_var
        borrower(None, ad.Tensor(rng.normal(loc=9.0, size=(6, 3))), training=True)
        # the borrower's pass must not disturb the owner's running estimates
        np.testing.assert_array_equal(owner.running_mean, np.zeros(3))
        assert borrower.running_mean.mean() > 1.0

    def test_registry_rejects_a_repeated_name(self):
        registry = {}
        ad.BatchNorm(3, name="bn", registry=registry)
        with pytest.raises(ConfigError, match="bn.gamma"):
            ad.BatchNorm(3, name="bn", registry=registry)

    def test_shared_affine_shape_mismatch(self):
        owner = ad.BatchNorm(3)
        with pytest.raises(ShapeError):
            ad.BatchNorm(4, affine=(owner.gamma, owner.beta))


# ---------------------------------------------------------------------- adam


class TestAdam:
    def test_rejects_non_positive_lr(self):
        with pytest.raises(ConfigError):
            ad.Adam([ad.Parameter(np.ones(1))], lr=0.0)

    def test_zero_gradient_leaves_parameters_unchanged(self, rng):
        p = ad.Parameter(rng.normal(size=(2, 2)))
        before = p.data.copy()
        opt = ad.Adam([p], lr=0.1)
        opt.zero_grad()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_matches_hand_formula(self):
        p = ad.Parameter(np.array([1.0, -2.0]))
        opt = ad.Adam([p], lr=0.1)
        p.grad[...] = [0.5, -0.25]
        opt.step()
        g = np.array([0.5, -0.25])
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        want = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.data, want, atol=1e-15)
        # bias correction makes the first move essentially -lr * sign(g)
        np.testing.assert_allclose(p.data, [0.9, -1.9], atol=1e-8)

    def test_duplicate_parameters_update_once(self, rng):
        data = rng.normal(size=3)
        p_twice = ad.Parameter(data.copy())
        p_once = ad.Parameter(data.copy())
        opt_twice = ad.Adam([p_twice, p_twice], lr=0.05)
        opt_once = ad.Adam([p_once], lr=0.05)
        g = rng.normal(size=3)
        p_twice.grad[...] = g
        p_once.grad[...] = g
        opt_twice.step()
        opt_once.step()
        assert len(opt_twice.params) == 1
        np.testing.assert_array_equal(p_twice.data, p_once.data)

    def test_lr_is_mutable_between_steps(self):
        # constant gradient keeps m_hat / sqrt(v_hat) at 1, so each move is ~lr
        p = ad.Parameter(np.zeros(1))
        opt = ad.Adam([p], lr=0.1)
        p.grad[...] = 1.0
        opt.step()
        first_move = -p.data[0]
        opt.lr = 0.05
        p.grad[...] = 1.0
        opt.step()
        second_move = -p.data[0] - first_move
        assert abs(first_move - 0.1) < 1e-6
        assert abs(second_move - 0.05) < 1e-6

    def test_trajectory_is_bit_deterministic(self, rng):
        start = rng.normal(size=(3, 2))
        grads = [rng.normal(size=(3, 2)) for _ in range(5)]

        def run():
            p = ad.Parameter(start.copy())
            opt = ad.Adam([p], lr=0.02)
            for g in grads:
                p.zero_grad()
                p.grad[...] = g
                opt.step()
            return p.data.copy()

        assert run().tobytes() == run().tobytes()
