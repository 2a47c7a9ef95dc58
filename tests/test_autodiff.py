"""Tape mechanics, per-op forward values and gradients, batch norm, Adam."""

import ast
import inspect
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attentab import autodiff as ad
from attentab import losses
from attentab.errors import BatchTooSmallError, ConfigError, GraphError, ShapeError

from attentab.data import encode, fit_schema, stratified_split
from attentab.tabnet import TabNetClassifier, TabNetConfig
from attentab.train import TrainConfig, fit, train_step

from conftest import continuous_schema
from helpers import (
    FD_H,
    AdamReference,
    add_const,
    batch_norm_train_reference,
    embedding,
    glu_backward_reference,
    glu_reciprocal,
    grad_check,
    log,
    mask_fill,
    op_fd_cases,
    reduce_sum,
    table_from_rows,
    weighted_sum_loss,
)


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
        loss = reduce_sum(tape, ad.mul(tape, p, p))
        tape.backward(loss)
        np.testing.assert_allclose(p.grad, 2.0 * p.data, rtol=0, atol=0)

    def test_shared_parameter_accumulates_across_uses(self, rng):
        p = ad.Parameter(rng.normal(size=(2, 2)))
        tape = ad.Tape()
        # p enters the loss through two separate records: d/dp (sum(p) + sum(2p)) = 3
        loss = reduce_sum(
            tape, ad.add(tape, ad.scale(tape, p, 2.0), ad.scale(tape, p, 1.0))
        )
        tape.backward(loss)
        np.testing.assert_array_equal(p.grad, np.full((2, 2), 3.0))

    def test_dead_branch_contributes_nothing(self, rng):
        p = ad.Parameter(rng.normal(size=(2, 3)))
        tape = ad.Tape()
        ad.relu(tape, p)  # recorded but never reaches the loss
        loss = reduce_sum(tape, ad.mul(tape, p, p))
        tape.backward(loss)
        np.testing.assert_allclose(p.grad, 2.0 * p.data, rtol=0, atol=0)

    def test_backward_accumulates_until_zero_grad(self, rng):
        p = ad.Parameter(rng.normal(size=(3,)))

        def run():
            tape = ad.Tape()
            loss = reduce_sum(tape, ad.mul(tape, p, p))
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
        loss = reduce_sum(tape, ad.mul(tape, p, c))
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

    def test_glu_bit_identical_to_reciprocal_sigmoid(self, rng):
        x = rng.normal(scale=4.0, size=(1024, 48))
        x[:, 24:30] = rng.uniform(-2000.0, -709.0, size=(1024, 6))  # exp(-gate) overflows
        x[:, 30] = [-709.0, -709.5, -745.0, -1e300, 0.0, -0.0, 710.0, 1e300] * 128
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.glu(None, ad.Tensor(x)).data
        assert np.array_equal(out, glu_reciprocal(x))

    def test_glu_backward_bit_identical_to_reference(self, rng):
        x = rng.normal(scale=4.0, size=(1024, 48))
        x[:, 24:30] = rng.uniform(-2000.0, -709.0, size=(1024, 6))
        g = rng.normal(size=(1024, 24))
        tape = ad.Tape()
        ad.glu(tape, ad.Tensor(x))
        (gx,) = tape._records[-1].backward(g)
        assert np.array_equal(gx, glu_backward_reference(x, g))

    def test_glu_residual_bit_identical_to_add_then_scale(self, rng):
        # the residual block as the add and scale records it replaced
        x, r, g = rng.normal(size=(64, 10)), rng.normal(size=(64, 5)), rng.normal(size=(64, 5))
        tape = ad.Tape()
        got = ad.glu(tape, ad.Tensor(x), residual=ad.Tensor(r))
        gx, gr = tape._records[-1].backward(g)
        assert len(tape) == 1
        plain = ad.glu(None, ad.Tensor(x)).data
        assert np.array_equal(got.data, (plain + r) * ad.SQRT_HALF)
        assert np.array_equal(gr, g * ad.SQRT_HALF)
        assert np.array_equal(gx, glu_backward_reference(x, g * ad.SQRT_HALF))

    def test_apply_prior_bit_identical_to_mul_then_mask_fill(self, rng):
        prior, scores = rng.random((6, 5)), rng.normal(size=(6, 5))
        prior[prior < 0.3] = 0.0
        prior[:, 0] = 0.0
        g = rng.normal(size=(6, 5))
        tape = ad.Tape()
        got = ad.apply_prior(tape, ad.Tensor(prior), ad.Tensor(scores))
        gp, gs = tape._records[-1].backward(g)
        keep = prior > 0.0
        assert np.array_equal(got.data, np.where(keep, prior * scores, ad.EXCLUDED_SCORE))
        # spent features pass no gradient, not even to their prior
        assert np.array_equal(gp, (g * keep) * scores)
        assert np.array_equal(gs, (g * keep) * prior)
        assert not gp[:, 0].any()

    def test_apply_prior_without_a_prior_passes_scores_through(self):
        scores = ad.Tensor(np.array([[1.0, -2.0]]))
        tape = ad.Tape()
        assert ad.apply_prior(tape, None, scores) is scores
        assert len(tape) == 0

    def test_linear_bit_identical_to_matmul_plus_bias(self, rng):
        x, w, b = rng.normal(size=(300, 17)), rng.normal(size=(17, 9)), rng.normal(size=9)
        out = ad.linear(None, ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data
        assert np.array_equal(out, x @ w + b)

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

    def test_mask_fill_fills_and_blocks_gradient(self):
        keep = np.array([[True, False, True]])
        x = ad.Parameter(np.array([[1.0, 2.0, 3.0]]))
        tape = ad.Tape()
        out = mask_fill(tape, x, keep, -9.0)
        np.testing.assert_array_equal(out.data, [[1.0, -9.0, 3.0]])
        tape.backward(reduce_sum(tape, out))
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 1.0]])

    def test_embedding_duplicate_codes_accumulate(self):
        table = ad.Parameter(np.arange(10.0).reshape(5, 2))
        tape = ad.Tape()
        out = ad.embed_columns(tape, [table], [np.array([0, 0, 3])])
        np.testing.assert_array_equal(out.data, [[0.0, 1.0], [0.0, 1.0], [6.0, 7.0]])
        tape.backward(reduce_sum(tape, out))
        want = np.zeros((5, 2))
        want[0] = 2.0  # looked up twice
        want[3] = 1.0
        np.testing.assert_array_equal(table.grad, want)

    def test_concat_then_slice_round_trips(self, rng):
        # a continuous column, a table lookup and another continuous column
        a, b = rng.normal(size=3), rng.normal(size=3)
        table, codes = rng.normal(size=(5, 4)), np.array([4, 0, 4])
        cat = ad.embed_columns(None, [None, ad.Tensor(table), None], [a, codes, b])
        np.testing.assert_array_equal(ad.slice_cols(None, cat, 0, 1).data[:, 0], a)
        np.testing.assert_array_equal(ad.slice_cols(None, cat, 1, 5).data, table[codes])
        np.testing.assert_array_equal(ad.slice_cols(None, cat, 5, 6).data[:, 0], b)

    def test_embed_columns_records_only_parameter_tables(self, rng):
        table, frozen = ad.Parameter(rng.normal(size=(3, 2))), ad.Tensor(rng.normal(size=(3, 2)))
        codes = np.array([2, 1])
        tape = ad.Tape()
        ad.embed_columns(tape, [frozen, None], [codes, rng.normal(size=2)])
        assert len(tape) == 0
        ad.embed_columns(tape, [frozen, table, None], [codes, codes, rng.normal(size=2)])
        assert [(r.op, r.inputs) for r in tape._records] == [("embed_columns", (table,))]

    def test_embed_columns_backward_bit_identical_to_add_at(self, rng):
        # 300 rows over 7 codes: every table row sums many gradients
        tables = [ad.Parameter(rng.normal(size=(7, w))) for w in (1, 4, 3)]
        codes = [rng.integers(0, 7, size=300) for _ in tables]
        values = [codes[0], rng.normal(size=300), codes[1], codes[2]]
        g = rng.normal(scale=1e3, size=(300, 9)) * rng.random((300, 9)) ** 8
        tape = ad.Tape()
        out = ad.embed_columns(tape, [tables[0], None, tables[1], tables[2]], values)
        got = tape._records[-1].backward(g)

        old = ad.Tape()
        parts = [embedding(old, t, c) for t, c in zip(tables, codes)]
        assert np.array_equal(
            out.data,
            np.concatenate([parts[0].data, values[1][:, None], parts[1].data, parts[2].data], axis=1),
        )
        starts = [0, 2, 6]
        for t, start, rec, grad in zip(tables, starts, old._records, got):
            (want,) = rec.backward(g[:, start : start + t.data.shape[1]])
            assert np.array_equal(grad, want)

    @pytest.mark.parametrize("n_steps", [1, 4])
    def test_mean_entropy_bit_identical_to_retired_chain(self, rng, n_steps):
        # the value and each mask's gradient equal the per-step add_const,
        # log, mul and reduce_sum chain, exact zeros included
        masks = [
            ad.Parameter(rng.random((5, 6)) * (rng.random((5, 6)) > 0.5)) for _ in range(n_steps)
        ]
        tape = ad.Tape()
        got = ad.mean_entropy(tape, masks, 1e-10)
        tape.backward(ad.scale(tape, got, 0.37))
        new_grads = [m.grad.copy() for m in masks]

        for m in masks:
            m.zero_grad()
        tape = ad.Tape()
        total = None
        for m in masks:
            ent = reduce_sum(tape, ad.mul(tape, m, log(tape, add_const(tape, m, 1e-10))))
            total = ent if total is None else ad.add(tape, total, ent)
        want = ad.scale(tape, total, -1.0 / (n_steps * 5))
        tape.backward(ad.scale(tape, want, 0.37))
        assert (masks[0].data == 0.0).any()
        assert np.array_equal(got.data, want.data)
        for new, m in zip(new_grads, masks):
            assert np.array_equal(new, m.grad)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_elementwise_ops_match_numpy(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=(2, 3)), r.normal(size=(2, 3))
        ta, tb = ad.Tensor(a), ad.Tensor(b)
        np.testing.assert_array_equal(ad.add(None, ta, tb).data, a + b)
        np.testing.assert_array_equal(ad.mul(None, ta, tb).data, a * b)


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

    def test_every_op_of_a_train_step_has_a_finite_difference_case(self, monkeypatch):
        # a case named after the op, or after it plus a suffix, checks it;
        # focal_nll's cases live in test_losses
        ops = []
        record = ad.Tape.record

        def recording(tape, op, *args):
            ops.append(op)
            return record(tape, op, *args)

        rows = [[str(i), "abc"[i % 3], "uv"[i % 2], repr(i / 7.0), "xy"[i * 7 % 3 % 2]]
                for i in range(24)]
        table = table_from_rows(["id", "c0", "c1", "x", "label"], rows)
        ds = encode(table, fit_schema(table, "label"))
        model = TabNetClassifier(TabNetConfig(n_d=2, n_a=2, n_steps=2, virtual_batch=8), ds.schema)
        monkeypatch.setattr(ad.Tape, "record", recording)
        fit(model, ds, stratified_split(ds, 0.25, 0), TrainConfig(
            max_epochs=1, batch_size=24, patience=1, lr_patience=1, loss_kind="focal"
        ))
        assert {"embed_columns", "mean_entropy", "relax_prior", "apply_prior", "focal_nll"} <= set(ops)
        names = [name for name, _, _ in op_fd_cases(np.random.default_rng(0))] + ["focal_nll"]
        missing = {op for op in ops if not any(n == op or n.startswith(op + "_") for n in names)}
        assert not missing

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
            loss = reduce_sum(tape, ad.mul(tape, h, h))
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
        out = bn(None, x).data
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        # biased variance of the output is var/(var + eps), just under 1
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-4

    def test_constant_column_maps_to_zero(self):
        bn = ad.BatchNorm(2)
        x = ad.Tensor(np.column_stack([np.full(6, 7.0), np.arange(6.0)]))
        out = bn(None, x).data
        np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12)

    def test_virtual_batches_normalize_each_chunk(self, rng):
        x = rng.normal(loc=3.0, size=(8, 3))
        bn = ad.BatchNorm(3, virtual_batch=3)
        out = bn(None, ad.Tensor(x)).data
        for start, stop in ((0, 3), (3, 6), (6, 8)):  # trailing chunk holds 2 rows
            chunk, want = x[start:stop], out[start:stop]
            manual = (chunk - chunk.mean(axis=0)) / np.sqrt(chunk.var(axis=0) + bn.eps)
            np.testing.assert_allclose(want, manual, atol=1e-12)

    @pytest.mark.parametrize("virtual_batch", [None, 128, 5])
    def test_train_chunks_bit_identical_to_np_var(self, rng, virtual_batch):
        x = rng.normal(loc=3.0, scale=2.0, size=(1030, 7))
        bn = ad.BatchNorm(7, momentum=0.3, virtual_batch=virtual_batch)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, size=7)
        bn.beta.data[...] = rng.normal(size=7)
        out = bn(None, ad.Tensor(x)).data
        vb = virtual_batch or len(x)
        running_mean, running_var = np.zeros(7), np.ones(7)
        for start in range(0, len(x), vb):
            chunk = x[start : start + vb]
            mean, var = chunk.mean(axis=0), chunk.var(axis=0)
            xhat = (chunk - mean) * (1.0 / np.sqrt(var + bn.eps))
            assert np.array_equal(out[start : start + vb], xhat * bn.gamma.data + bn.beta.data)
            running_mean = 0.7 * running_mean + 0.3 * mean
            running_var = 0.7 * running_var + 0.3 * var
        assert np.array_equal(bn.running_mean, running_mean)
        assert np.array_equal(bn.running_var, running_var)

    @pytest.mark.parametrize("virtual_batch", [None, 128, 5])
    def test_train_mode_bit_identical_to_reference(self, rng, virtual_batch):
        # 1,030 rows leave a 6-row trailing chunk at virtual batch 128; two
        # calls check that the running statistics keep accumulating alike
        F = 24
        bn = ad.BatchNorm(F, momentum=0.3, virtual_batch=virtual_batch)
        ref = ad.BatchNorm(F, momentum=0.3, virtual_batch=virtual_batch)
        for p in (bn.gamma, ref.gamma):
            p.data[...] = np.linspace(0.5, 1.5, F)
        for p in (bn.beta, ref.beta):
            p.data[...] = np.linspace(-1.0, 1.0, F)
        for _ in range(2):
            x = ad.Tensor(rng.normal(loc=3.0, scale=2.0, size=(1030, F)))
            g = rng.normal(size=(1030, F))
            tape = ad.Tape()
            out = bn(tape, x).data
            grads = tape._records[-1].backward(g)
            want_out, want_backward = batch_norm_train_reference(ref, x.data)
            assert np.array_equal(out, want_out)
            assert np.array_equal(bn.running_mean, ref.running_mean)
            assert np.array_equal(bn.running_var, ref.running_var)
            for got, want in zip(grads, want_backward(g)):
                assert np.array_equal(got, want)

    def test_tape_holds_one_batch_sized_array(self, rng):
        # the record keeps the output and each chunk's mean and inv; the
        # backward rebuilds xhat, so no second batch-sized array stays alive
        x = ad.Tensor(rng.normal(size=(1024, 114)))
        bn = ad.BatchNorm(114, virtual_batch=128)
        tape = ad.Tape()
        tracemalloc.start()
        try:
            out = bn(tape, x)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.data.nbytes == x.data.nbytes
        assert held < 1.25 * x.data.nbytes

    def test_running_update_follows_momentum_formula(self, rng):
        bn = ad.BatchNorm(2, momentum=0.3)
        x = rng.normal(size=(5, 2))
        bn(None, ad.Tensor(x))
        np.testing.assert_allclose(bn.running_mean, 0.3 * x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(
            bn.running_var, 0.7 * 1.0 + 0.3 * x.var(axis=0), atol=1e-12
        )

    def test_momentum_one_makes_eval_reproduce_train(self, rng):
        bn = ad.BatchNorm(4, momentum=1.0)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, size=4)
        bn.beta.data[...] = rng.normal(size=4)
        x = ad.Tensor(rng.normal(size=(16, 4)))
        train_out = bn(None, x).data
        scale, shift = bn.eval_affine()
        np.testing.assert_allclose(x.data * scale + shift, train_out, atol=1e-6)

    def test_single_row_train_batch_rejected(self):
        bn = ad.BatchNorm(3)
        with pytest.raises(BatchTooSmallError):
            bn(None, ad.Tensor(np.ones((1, 3))))
        # the eval map has no such restriction
        scale, shift = bn.eval_affine()
        out = np.ones((1, 3)) * scale + shift
        np.testing.assert_allclose(out, 1.0 / np.sqrt(1.0 + bn.eps), atol=1e-12)

    def test_eval_uses_running_statistics(self, rng):
        bn = ad.BatchNorm(2)
        bn.running_mean[...] = [1.0, -2.0]
        bn.running_var[...] = [4.0, 0.25]
        bn.gamma.data[...] = [2.0, 0.5]
        bn.beta.data[...] = [0.1, -0.3]
        x = np.array([[3.0, -1.0]])
        scale, shift = bn.eval_affine()
        want = (x - [1.0, -2.0]) / np.sqrt(np.array([4.0, 0.25]) + bn.eps) * [2.0, 0.5]
        np.testing.assert_allclose(x * scale + shift, want + [0.1, -0.3], atol=1e-12)

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
        borrower(None, ad.Tensor(rng.normal(loc=9.0, size=(6, 3))))
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

    def test_model_trajectory_bit_identical_to_per_parameter_reference(self, rng):
        # two same-seed models, one on the flat store and one on the old
        # per-parameter Adam, follow the same real gradients; the shared
        # fc and batch-norm affines collect gradient from every step
        schema = continuous_schema(6, ["a", "b", "c"])
        cfg = TabNetConfig(n_d=4, n_a=4, n_steps=2, virtual_batch=16, seed=3, lambda_sparse=1e-3)
        flat_model, ref_model = TabNetClassifier(cfg, schema), TabNetClassifier(cfg, schema)
        assert flat_model.transformers[1][0].fc is flat_model.shared_fcs[0]
        flat = ad.Adam(flat_model.parameters(), lr=0.05)
        ref = AdamReference(ref_model.parameters(), lr=0.05)
        X, y = rng.normal(size=(40, 6)), rng.integers(0, 3, size=40)
        for lr in (0.05, 0.05, 0.01, 0.2, 0.2, 0.003):
            flat.lr = ref.lr = lr
            for model, opt in ((flat_model, flat), (ref_model, ref)):
                train_step(model, opt, X, y, {"kind": "cce"})
            for (name, got), (_, want) in zip(flat_model.state_arrays(), ref_model.state_arrays()):
                assert np.array_equal(got, want), name

    def test_stepping_a_superseded_optimizer_raises(self):
        p = ad.Parameter(np.zeros(3))
        first = ad.Adam([p], lr=0.1)
        second = ad.Adam([p], lr=0.1)
        p.grad[...] = 1.0
        with pytest.raises(GraphError, match="another optimizer"):
            first.step()
        second.step()
        np.testing.assert_allclose(p.data, -0.1, atol=1e-8)

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


# ----------------------------------------------------------------- structure

REPO = Path(__file__).resolve().parents[1]


def names_read_in(*dirs):
    """Every name and attribute read in the Python files under ``dirs``;
    a def's own name and an import are not reads."""
    names = set()
    for d in dirs:
        for path in sorted((REPO / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


class TestStructure:
    @pytest.mark.parametrize("module", [ad, losses], ids=["autodiff", "losses"])
    def test_every_public_function_is_used_outside_the_tests(self, module):
        public = [
            name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")
        ]
        assert public
        assert not set(public) - names_read_in("src", "perfbench")

    def test_every_recorded_op_has_a_finite_difference_case(self):
        # a case named after the op, or after it plus a suffix, checks it;
        # focal_nll's cases live in test_losses
        ops = set()
        for module in (ad, losses):
            ops |= set(re.findall(r'\.record\(\s*"(\w+)"', inspect.getsource(module)))
        assert {"linear", "glu", "apply_prior", "batch_norm_train", "focal_nll"} <= ops
        names = [name for name, _, _ in op_fd_cases(np.random.default_rng(0))] + ["focal_nll"]
        assert not {op for op in ops if not any(n == op or n.startswith(op + "_") for n in names)}
