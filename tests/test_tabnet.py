"""Architecture invariants: masks, priors, sharing, explain, persistence."""

import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from attentab import autodiff as ad
from attentab.container import MODEL_MAGIC, read_container, write_container
from attentab.data import RawTable, encode, fit_schema
from attentab.errors import (
    AttentabError,
    ConfigError,
    EncodingError,
    ModelStateError,
    PersistenceError,
)
from attentab.tabnet import (
    EVAL_BATCH,
    AttentiveTransformer,
    FeatureTransformer,
    GLUBlock,
    MaskReport,
    TabNetClassifier,
    TabNetConfig,
    load_model,
    save_model,
)
from attentab.train import batch_loss

from helpers import grad_check
from conftest import continuous_schema

FIXTURES = Path(__file__).parent / "fixtures"
COMMITTED_MODEL = (FIXTURES / "mini_model.attb").read_bytes()
COMMITTED_HEADER_END = 13 + struct.unpack("<Q", COMMITTED_MODEL[5:13])[0]


def mixed_dataset(n_rows=24, seed=0):
    """Small dataset with one categorical and two continuous columns."""
    rng = np.random.default_rng(seed)
    rows = [
        [
            str(rng.integers(100)),
            rng.choice(["a", "b", "c"]),
            repr(float(rng.normal())),
            repr(float(rng.normal())),
            f"c{rng.integers(3)}",
        ]
        for _ in range(n_rows)
    ]
    t = RawTable(columns=["id", "cat", "x0", "x1", "label"], rows=rows)
    return encode(t, fit_schema(t, "label"))


def small_model(n_steps=3, seed=0, **kw):
    ds = mixed_dataset()
    cfg = TabNetConfig(n_d=4, n_a=4, n_steps=n_steps, seed=seed, **kw)
    return TabNetClassifier(cfg, ds.schema), ds


class TestConfig:
    def test_defaults_validate(self):
        TabNetConfig().validate()

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_d": 0},
            {"n_a": -1},
            {"n_steps": 0},
            {"gamma_relax": 0.9},
            {"lambda_sparse": -1e-6},
            {"embed_dims": 0},
            {"embed_dims": [1, 0]},
            {"virtual_batch": 1},
            {"n_d": True},
            {"gamma_relax": "1.3"},
            {"lambda_sparse": None},
            {"embed_dims": "4"},
            {"embed_dims": [2, 1.0]},
            {"embed_dims": []},
            {"virtual_batch": 128.0},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": "1"},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            TabNetConfig(**kw).validate()

    def test_embed_dims_list_must_match_categorical_count(self):
        ds = mixed_dataset()
        with pytest.raises(ConfigError, match="embed_dims"):
            TabNetClassifier(TabNetConfig(embed_dims=[2, 2]), ds.schema)


class TestEmbedding:
    def test_model_width_arithmetic(self):
        ds = mixed_dataset()
        model = TabNetClassifier(TabNetConfig(embed_dims=5), ds.schema)
        assert model.d_model == 5 + 2  # one embedded categorical plus two floats
        table = model.embeddings["cat"]
        assert table.data.shape == (3 + 1, 5)  # reserved row for unseen values

    def test_continuous_columns_pass_through(self, rng, tiny_schema):
        model = TabNetClassifier(TabNetConfig(n_d=2, n_a=2, n_steps=1), tiny_schema)
        X = rng.normal(size=(6, 4))
        np.testing.assert_array_equal(model.embed(None, X).data, X)

    def test_categorical_codes_look_up_table_rows(self):
        model, ds = small_model()
        table = model.embeddings["cat"].data
        X = ds.features[:5]
        embedded = model.embed(None, X).data
        cat_j = [name for name, _, _ in model._columns].index("cat")
        width = table.shape[1]
        np.testing.assert_array_equal(
            embedded[:, cat_j : cat_j + width], table[X[:, cat_j].astype(int)]
        )

    def test_reserved_code_is_valid(self):
        model, ds = small_model()
        X = ds.features[:1].copy()
        X[0, 0] = 3.0  # cardinality of "cat": legal reserved code for unseen values
        model.embed(None, X)

    def test_code_out_of_range_names_column(self):
        model, ds = small_model()
        X = ds.features[:1].copy()
        X[0, 0] = 4.0
        with pytest.raises(EncodingError, match="cat"):
            model.embed(None, X)

    def test_non_integer_code_rejected(self):
        model, ds = small_model()
        X = ds.features[:1].copy()
        X[0, 0] = 0.5
        with pytest.raises(EncodingError, match="cat"):
            model.embed(None, X)

    def test_column_count_mismatch(self):
        model, _ = small_model()
        with pytest.raises(EncodingError):
            model.embed(None, np.zeros((2, 7)))

    def test_attribution_map_covers_embedded_space(self):
        model, _ = small_model()
        spans = model.attribution_map()
        assert [name for name, _ in spans] == ["cat", "x0", "x1"]
        stops = [s.stop for _, s in spans]
        assert stops[-1] == model.d_model


class TestMasksAndPrior:
    def test_mask_rows_are_distributions(self):
        model, ds = small_model()
        for training in (True, False):
            out = model.forward(None, ds.features, training=training)
            assert len(out.masks) == model.config.n_steps
            for m in out.masks:
                data = m.data
                assert (data >= 0.0).all()
                np.testing.assert_allclose(data.sum(axis=1), 1.0, atol=1e-6)

    def test_prior_recurrence_excludes_used_features(self):
        # gamma_relax=1: prior_i = prod_{j<i} (1 - M_j) is non-increasing, and a
        # fully used feature (mask 1) must never be selected again
        model, ds = small_model(n_steps=3, gamma_relax=1.0)
        for att in model.attentives:
            att.fc.w.data *= 50.0  # wide scores saturate sparsemax to one-hot rows
        out = model.forward(None, ds.features, training=False)
        masks = [m.data for m in out.masks]
        prior = np.ones_like(masks[0])
        saturated_seen = 0
        for i in range(len(masks)):
            if i > 0:
                new_prior = prior * (1.0 - masks[i - 1])
                assert (new_prior <= prior + 1e-12).all()
                prior = np.clip(new_prior, 0.0, None)
            used_up = prior <= 0.0
            saturated_seen += int(used_up.sum())
            assert (masks[i][used_up] <= 1e-12).all()
        assert saturated_seen > 0  # the probe actually exercised exhaustion

    def test_gamma_relax_softens_reuse(self):
        # with gamma > 1 a fully used feature keeps a positive budget
        model, ds = small_model(n_steps=2, gamma_relax=1.3)
        out = model.forward(None, ds.features, training=False)
        m0 = out.masks[0].data
        prior_1 = 1.3 - m0
        assert (prior_1 > 0.0).all()

    def test_zero_prior_entry_yields_zero_mask(self, rng):
        att = AttentiveTransformer(rng, n_a=3, d_features=4, virtual_batch=None, name="t")
        a_prev = ad.Tensor(rng.normal(size=(5, 3)))
        prior = np.ones((5, 4))
        prior[:, 2] = 0.0
        mask = att(None, a_prev, ad.Tensor(prior), True)
        assert (mask.data[:, 2] == 0.0).all()
        np.testing.assert_allclose(mask.data.sum(axis=1), 1.0, atol=1e-9)

    def test_sparsity_matches_entropy_formula(self):
        model, ds = small_model()
        out = model.forward(None, ds.features, training=False)
        masks = np.stack([m.data for m in out.masks])
        want = -(masks * np.log(masks + 1e-10)).sum() / (
            model.config.n_steps * ds.features.shape[0]
        )
        assert abs(out.sparsity.data - want) < 1e-12
        assert out.sparsity.data >= 0.0

    def test_output_shapes(self):
        model, ds = small_model()
        out = model.forward(None, ds.features[:7], training=False)
        assert out.logits.data.shape == (7, 3)
        assert all(d.data.shape == (7, 4) for d in out.decisions)
        assert all((d.data >= 0.0).all() for d in out.decisions)
        assert all(m.data.shape == (7, model.d_model) for m in out.masks)

    def test_fixed_masks_localize_information(self, rng):
        # zero the mask over one raw column in every step: perturbing that
        # column must not move the logits
        model, ds = small_model(n_steps=2)
        X = ds.features[:6].copy()
        span = dict(model.attribution_map())["x1"]
        D = model.d_model
        mask = np.full((6, D), 1.0)
        mask[:, span] = 0.0
        mask /= mask.sum(axis=1, keepdims=True)

        def logits(X, step_mask):
            # stub attentive transformers replay the fixed mask at every step
            model.attentives = [lambda tape, a_prev, prior, training: ad.Tensor(step_mask)] * 2
            return model.forward(None, X, training=False).logits.data

        base = logits(X, mask)
        X2 = X.copy()
        x1_j = [name for name, _, _ in model._columns].index("x1")
        X2[:, x1_j] += 10.0
        moved = logits(X2, mask)
        np.testing.assert_allclose(moved, base, atol=1e-9)
        # sanity: the same perturbation with the column unmasked does move them
        open_mask = np.full((6, D), 1.0 / D)
        base_open = logits(X, open_mask)
        moved_open = logits(X2, open_mask)
        assert np.abs(moved_open - base_open).max() > 1e-6


class TestSharing:
    def test_shared_blocks_reuse_parameter_objects(self):
        model, _ = small_model()
        t0, t1 = model.transformers[0], model.transformers[1]
        assert t0.blocks[0].fc is t1.blocks[0].fc is model.shared_fcs[0]
        assert t0.blocks[0].bn.gamma is t1.blocks[0].bn.gamma
        assert t0.blocks[0].bn is not t1.blocks[0].bn  # buffers stay per call site
        assert t0.blocks[2].fc is not t1.blocks[2].fc

    def test_shared_stack_is_one_function_in_train_mode(self):
        model, ds = small_model()
        x = model.input_bn(None, model.embed(None, ds.features), True)
        b0 = model.transformers[0].blocks[0]
        b1 = model.transformers[1].blocks[0]
        out0 = b0(None, x, True).data
        out1 = b1(None, x, True).data
        np.testing.assert_array_equal(out0, out1)

    def test_no_duplicate_state_names(self):
        model, _ = small_model()
        names = [name for name, _ in model.state_arrays()]
        assert len(names) == len(set(names))

    def test_parameter_list_has_no_duplicates(self):
        model, _ = small_model()
        ids = [id(p) for p in model.parameters()]
        assert len(ids) == len(set(ids))

    def test_residual_scales_by_sqrt_half(self, rng):
        first = GLUBlock(rng, 4, 3, None, "a")
        second = GLUBlock(rng, 3, 3, None, "b")
        second.fc.w.data[...] = 0.0
        second.fc.b.data[...] = 0.0
        ft = FeatureTransformer([first, second])
        x = ad.Tensor(rng.normal(size=(5, 4)))
        h1 = first(None, x, False).data
        out = ft(None, x, False).data
        np.testing.assert_allclose(out, math.sqrt(0.5) * h1, atol=1e-12)


class TestForwardComposition:
    def test_single_step_matches_hand_wiring(self):
        model, ds = small_model(n_steps=1)
        X = ds.features[:8]
        cfg = model.config

        feats = model.input_bn(None, model.embed(None, X), False)
        split = model.transformers[0](None, feats, False)
        a0 = ad.slice_cols(None, split, cfg.n_d, cfg.n_d + cfg.n_a)
        prior = ad.Tensor(np.ones((8, model.d_model)))
        mask = model.attentives[0](None, a0, prior, False)
        masked = ad.mul(None, mask, feats)
        out = model.transformers[1](None, masked, False)
        d = ad.relu(None, ad.slice_cols(None, out, 0, cfg.n_d))
        logits = model.final(None, d)

        got = model.forward(None, X, training=False)
        np.testing.assert_array_equal(got.logits.data, logits.data)
        np.testing.assert_array_equal(got.masks[0].data, mask.data)
        np.testing.assert_array_equal(got.decisions[0].data, d.data)

    def test_chunked_prediction_matches_single_pass(self):
        model, ds = small_model()
        X = ds.features
        whole = model.forward(None, X, training=False).logits.data
        chunked = model.predict_logits(X, batch_size=5)
        np.testing.assert_allclose(chunked, whole, atol=1e-12)
        preds = model.predict(X)
        np.testing.assert_array_equal(preds, np.argmax(whole, axis=1))

    def test_construction_is_seed_deterministic(self):
        a, _ = small_model(seed=11)
        b, _ = small_model(seed=11)
        c, _ = small_model(seed=12)
        for (name_a, arr_a), (name_b, arr_b) in zip(a.state_arrays(), b.state_arrays()):
            assert name_a == name_b
            assert arr_a.tobytes() == arr_b.tobytes()
        assert any(
            arr_a.tobytes() != arr_c.tobytes()
            for (_, arr_a), (_, arr_c) in zip(a.state_arrays(), c.state_arrays())
        )


class TestExplain:
    def fitted(self, n_steps=3):
        model, ds = small_model(n_steps=n_steps)
        model.fitted = True
        return model, ds

    def test_requires_fitted_model(self):
        model, ds = small_model()
        with pytest.raises(ModelStateError):
            model.explain(ds.features)

    def test_importances_are_distributions(self):
        model, ds = self.fitted()
        report = model.explain(ds.features)
        assert (report.instance_importance >= 0.0).all()
        np.testing.assert_allclose(report.instance_importance.sum(axis=1), 1.0, atol=1e-9)
        assert abs(report.global_importance.sum() - 1.0) < 1e-9
        assert report.feature_names == ["cat", "x0", "x1"]
        assert report.step_weights.shape == (ds.n_rows, 3)

    def test_empty_input_rejected(self):
        model, ds = self.fitted()
        empty = ds.features[:0]
        with pytest.raises(ConfigError, match="empty"):
            model.explain(empty)
        with pytest.raises(ConfigError, match="empty"):
            model.predict_logits(empty)

    def test_rows_beyond_one_chunk_match_separate_calls(self):
        model, ds = self.fitted()
        rng = np.random.default_rng(3)
        n = EVAL_BATCH + 904
        X = np.column_stack(
            [rng.integers(0, 4, size=n).astype(float), rng.normal(size=(n, 2))]
        )  # columns cat (3 codes + unseen), x0, x1
        k = 1234
        whole, head, tail = model.explain(X), model.explain(X[:k]), model.explain(X[k:])
        pairs = list(zip(whole.per_step_masks, head.per_step_masks, tail.per_step_masks))
        pairs += [
            (whole.step_weights, head.step_weights, tail.step_weights),
            (whole.instance_importance, head.instance_importance, tail.instance_importance),
        ]
        for got, a, b in pairs:
            assert got.shape[0] == n
            np.testing.assert_allclose(got, np.vstack([a, b]), rtol=0, atol=1e-12)

    def test_single_step_importance_is_the_mask(self):
        model, ds = self.fitted(n_steps=1)
        report = model.explain(ds.features)
        mask = model.forward(None, ds.features, training=False).masks[0].data
        want = np.empty_like(report.instance_importance)
        for j, (_, span) in enumerate(model.attribution_map()):
            want[:, j] = mask[:, span].sum(axis=1)
        want /= want.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(report.instance_importance, want, atol=1e-9)

    def test_step_weights_are_decision_magnitudes(self):
        model, ds = self.fitted()
        report = model.explain(ds.features)
        out = model.forward(None, ds.features, training=False)
        want = np.stack([d.data.sum(axis=1) for d in out.decisions], axis=1)
        np.testing.assert_array_equal(report.step_weights, want)

    def test_top_orders_by_share_then_name(self):
        report = MaskReport(
            per_step_masks=[],
            step_weights=np.zeros((1, 1)),
            instance_importance=np.array([[0.4, 0.4, 0.2]]),
            global_importance=np.array([0.4, 0.4, 0.2]),
            feature_names=["b", "a", "c"],
        )
        assert report.top(2) == [("a", 0.4), ("b", 0.4)]
        assert [n for n, _ in report.top(10)] == ["a", "b", "c"]


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model, ds = small_model()
        model.fitted = True
        model.train_info = {"loss": {"kind": "cce"}, "best_epoch": 4}
        path = str(tmp_path / "m.attb")
        save_model(path, model)
        loaded = load_model(path)
        for (name_a, arr_a), (name_b, arr_b) in zip(
            model.state_arrays(), loaded.state_arrays()
        ):
            assert name_a == name_b and arr_a.tobytes() == arr_b.tobytes()
        assert loaded.fitted is True
        assert loaded.train_info == model.train_info
        assert loaded.config == model.config
        assert loaded.schema.to_dict() == model.schema.to_dict()
        got = loaded.predict_logits(ds.features)
        want = model.predict_logits(ds.features)
        assert got.tobytes() == want.tobytes()

    def test_committed_model_re_saves_byte_identically(self, tmp_path):
        # mini_model.attb was written by an earlier release: n_d=n_a=2,
        # n_steps=2, one categorical and one continuous column, seed 5, after
        # one train-mode forward so the BN running statistics are not at
        # their defaults. Re-saving it pins array names, order and shapes.
        committed = FIXTURES / "mini_model.attb"
        again = tmp_path / "again.attb"
        save_model(str(again), load_model(str(committed)))
        assert again.read_bytes() == committed.read_bytes()

    def test_tampered_magic_rejected(self, tmp_path):
        model, _ = small_model()
        path = tmp_path / "m.attb"
        save_model(str(path), model)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError):
            load_model(str(path))

    @given(st.integers(0, len(COMMITTED_MODEL) - 1))
    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_truncation_at_any_offset_is_a_persistence_error(self, tmp_path, cut):
        path = tmp_path / "cut.attb"
        path.write_bytes(COMMITTED_MODEL[:cut])
        with pytest.raises(PersistenceError):
            load_model(str(path))

    @given(st.integers(0, 8 * COMMITTED_HEADER_END - 1))
    @settings(
        max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_header_bit_flip_loads_or_raises_a_typed_error(self, tmp_path, bit):
        blob = bytearray(COMMITTED_MODEL)
        blob[bit // 8] ^= 1 << (bit % 8)
        path = tmp_path / "flip.attb"
        path.write_bytes(bytes(blob))
        try:
            load_model(str(path))
        except AttentabError:
            pass

    def test_mistyped_config_names_the_file(self, tmp_path):
        model, _ = small_model()
        path = str(tmp_path / "m.attb")
        save_model(path, model)
        header, arrays = read_container(path, MODEL_MAGIC)
        header["config"]["n_dd"] = header["config"].pop("n_d")
        del header["arrays"]
        write_container(path, MODEL_MAGIC, header, list(arrays.items()))
        with pytest.raises(PersistenceError, match="m.attb.*n_dd"):
            load_model(path)

    def test_load_state_names_missing_arrays(self):
        model, _ = small_model()
        state = model.snapshot()
        state.pop("final/w")
        with pytest.raises(PersistenceError, match="final/w"):
            model.load_state(state)

    def test_load_state_rejects_shape_drift(self):
        model, _ = small_model()
        state = model.snapshot()
        state["final/w"] = state["final/w"][:, :1]
        with pytest.raises(PersistenceError, match="final/w"):
            model.load_state(state)

    def test_snapshot_is_a_deep_copy(self):
        model, _ = small_model()
        state = model.snapshot()
        before = state["final/w"].copy()
        model.final.w.data += 1.0
        np.testing.assert_array_equal(state["final/w"], before)


class TestEndToEndGradient:
    def test_tiny_network_matches_finite_differences(self, rng):
        schema = continuous_schema(4, ["a", "b", "c"])
        cfg = TabNetConfig(n_d=2, n_a=2, n_steps=2, seed=3, lambda_sparse=1e-2)
        model = TabNetClassifier(cfg, schema)
        data_rng = np.random.default_rng(7)
        X = data_rng.normal(size=(3, 4))
        labels = data_rng.integers(0, 3, size=3)

        def build(tape):
            out = model.forward(tape, X, training=True)
            lv = batch_loss(tape, out.logits, labels, {"kind": "cce"})
            return ad.add(
                tape, lv.scalar, ad.scale(tape, out.sparsity, cfg.lambda_sparse)
            )

        worst = grad_check(build, model.parameters(), rng, samples=2, h=1e-5)
        assert worst < 1e-3
