"""Architecture invariants: masks, priors, sharing, explain, persistence."""

import math
import struct
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from attentab import autodiff as ad
from attentab import tabnet
from attentab.container import MODEL_MAGIC, read_container, write_container
from attentab.data import KIND_CATEGORICAL, encode, fit_schema
from attentab.errors import (
    AttentabError,
    ConfigError,
    EncodingError,
    GraphError,
    ModelStateError,
    PersistenceError,
)
from attentab.tabnet import (
    EVAL_BATCH,
    FcBn,
    MaskReport,
    TabNetClassifier,
    TabNetConfig,
    load_model,
    save_model,
)
from attentab.train import batch_loss, train_step, training_loss

from helpers import (
    AdamReference,
    grad_check,
    reference_attentive,
    reference_batch_norm,
    reference_feature_transformer,
    reference_forward,
    reference_glu_block,
    table_from_rows,
)
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
    t = table_from_rows(["id", "cat", "x0", "x1", "label"], rows)
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
        # step 0 spends feature 2 entirely (gamma_relax=1 leaves it a zero
        # prior); step 1 scores it highest and every other feature negative,
        # where a zero product alone would still win the row
        cfg = TabNetConfig(n_d=2, n_a=2, n_steps=2, gamma_relax=1.0)
        model = SimpleNamespace(config=cfg, final=lambda tape, agg: agg)
        feats = ad.Tensor(rng.normal(size=(5, 4)))
        step_scores = [np.zeros((5, 4)), np.full((5, 4), -1.0)]
        for scores in step_scores:
            scores[:, 2] = 100.0
        # each transformer is one GLU layer whose map is all ones
        transformers = [[lambda tape, x: ad.Tensor(np.ones((5, 8)))] for _ in range(3)]
        attentives = [lambda tape, a_prev, s=s: ad.Tensor(s) for s in step_scores]
        for tape in (None, ad.Tape()):
            out = tabnet._decision_steps(tape, model, feats, transformers, attentives)
            assert (out.masks[0].data[:, 2] == 1.0).all()
            assert (out.masks[1].data[:, 2] == 0.0).all()
            np.testing.assert_allclose(out.masks[1].data.sum(axis=1), 1.0, atol=1e-9)

    def test_sparsity_matches_entropy_formula(self):
        model, ds = small_model()
        out = model.forward(None, ds.features, training=True)
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

    def test_fixed_masks_localize_information(self, monkeypatch):
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
            # a stub sparsemax replays the fixed mask at every step
            monkeypatch.setattr(tabnet, "sparsemax", lambda tape, z: ad.Tensor(step_mask))
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
        assert t0[0].fc is t1[0].fc is model.shared_fcs[0]
        assert t0[0].bn.gamma is t1[0].bn.gamma
        assert t0[0].bn is not t1[0].bn  # buffers stay per call site
        assert t0[2].fc is not t1[2].fc

    def test_shared_stack_is_one_function_in_train_mode(self):
        model, ds = small_model()
        x = model.input_bn(None, model.embed(None, ds.features))
        b0 = model.transformers[0][0]
        b1 = model.transformers[1][0]
        out0 = b0(None, x).data
        out1 = b1(None, x).data
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
        # a zero second layer adds nothing, in train mode (where batch norm
        # maps its constant input to beta = 0) and over the folded eval
        # maps alike, whose first GLU is held to the layered reference
        first = FcBn(rng, 4, 6, None, "a")
        second = FcBn(rng, 3, 6, None, "b")
        second.fc.w.data[...] = 0.0
        second.fc.b.data[...] = 0.0
        x = ad.Tensor(rng.normal(size=(5, 4)))
        # eval first: a train-mode call moves the running statistics
        folded = [tabnet._fold(first), tabnet._fold(second)]
        for layers, h1 in (
            (folded, reference_glu_block(first, x).data),
            ([first, second], ad.glu(None, first(None, x)).data),
        ):
            got = tabnet._glu_stack(None, layers, x)
            np.testing.assert_allclose(got.data, math.sqrt(0.5) * h1, atol=1e-12)


class TestForwardComposition:
    def test_single_step_matches_hand_wiring(self):
        model, ds = small_model(n_steps=1)
        X = ds.features[:8]
        cfg = model.config

        feats = reference_batch_norm(model.input_bn, model.embed(None, X))
        split = reference_feature_transformer(model.transformers[0], feats)
        a0 = ad.slice_cols(None, split, cfg.n_d, cfg.n_d + cfg.n_a)
        prior = ad.Tensor(np.ones((8, model.d_model)))
        mask = reference_attentive(model.attentives[0], a0, prior)
        masked = ad.mul(None, mask, feats)
        out = reference_feature_transformer(model.transformers[1], masked)
        d = ad.relu(None, ad.slice_cols(None, out, 0, cfg.n_d))
        logits = model.final(None, d)

        # eval mode folds each batch norm into the layer before it, which
        # reorders the float operations
        got = model.forward(None, X, training=False)
        close = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.logits.data, logits.data, **close)
        np.testing.assert_allclose(got.masks[0].data, mask.data, **close)
        np.testing.assert_allclose(got.decisions[0].data, d.data, **close)

    def test_eval_forward_with_a_tape_rejected(self):
        model, ds = small_model()
        with pytest.raises(GraphError, match="eval-mode"):
            model.forward(ad.Tape(), ds.features, training=False)

    def test_chunked_prediction_matches_single_pass(self):
        model, ds = small_model()
        X = ds.features
        whole = model.forward(None, X, training=False).logits.data
        chunked = model.predict_logits(X, batch_size=5)
        np.testing.assert_allclose(chunked, whole, atol=1e-12)
        preds = model.predict(X)
        np.testing.assert_array_equal(preds, np.argmax(whole, axis=1))

    def test_predict_memory_stays_within_a_few_chunks(self):
        # the peak above the logits is one chunk's working set (features,
        # the n_steps masks of this chunk and of the one before it, and the
        # sparsemax temporaries), whatever the row count; scoring all
        # 4 x EVAL_BATCH rows at once peaks near 40 blocks
        model = TabNetClassifier(
            TabNetConfig(n_d=8, n_a=8, n_steps=3), continuous_schema(100, ["a", "b", "c"])
        )
        X = np.random.default_rng(0).normal(size=(4 * EVAL_BATCH + 100, 100))
        block = EVAL_BATCH * model.d_model * 8
        tracemalloc.start()
        try:
            logits = model.predict_logits(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < logits.nbytes + 16 * block

    def test_predict_drops_each_chunk_before_the_next(self):
        # logits go straight into one [n, n_classes] array and each chunk's
        # output is freed before the next chunk is scored: 10.0 blocks above
        # the logits measured, 13.2 while the previous chunk's masks lived on
        model = TabNetClassifier(
            TabNetConfig(n_d=8, n_a=8, n_steps=3), continuous_schema(100, ["a", "b", "c"])
        )
        X = np.random.default_rng(0).normal(size=(4 * EVAL_BATCH + 100, 100))
        block = EVAL_BATCH * model.d_model * 8
        tracemalloc.start()
        try:
            logits = model.predict_logits(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < logits.nbytes + 12 * block

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_batch_size_below_one_rejected(self, batch_size):
        model, ds = small_model()
        with pytest.raises(ConfigError, match="batch_size"):
            model.predict_logits(ds.features, batch_size=batch_size)
        with pytest.raises(ConfigError, match="batch_size"):
            next(model._eval_chunks(ds.features, batch_size))

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


def two_categorical_dataset(n_rows=40, seed=0):
    """Two categorical columns (3 and 4 values) and two continuous ones."""
    rng = np.random.default_rng(seed)
    rows = [
        [
            str(i),
            rng.choice(["a", "b", "c"]),
            rng.choice(["u", "v", "w", "z"]),
            repr(float(rng.normal(3.0, 2.0))),
            repr(float(rng.normal())),
            f"c{rng.integers(3)}",
        ]
        for i in range(n_rows)
    ]
    t = table_from_rows(["id", "cat", "kind", "x0", "x1", "label"], rows)
    return encode(t, fit_schema(t, "label"))


def randomize_state(model, rng):
    """Non-trivial BN statistics, scales, shifts and biases everywhere."""
    for name, value in model.registry.items():
        arr = value.data if isinstance(value, ad.Parameter) else value
        if name.endswith(".running_var"):
            arr[...] = 0.3 + 2.0 * rng.random(arr.shape)
        elif name.endswith(".gamma"):
            arr[...] = 0.5 + rng.random(arr.shape)
        elif name.endswith((".running_mean", ".beta", "/b")):
            arr[...] = rng.normal(scale=0.5, size=arr.shape)


CLOSE = dict(rtol=1e-12, atol=1e-12)


def assert_matches_reference(got, want):
    np.testing.assert_allclose(got.logits.data, want.logits.data, **CLOSE)
    for a, b in zip(got.masks, want.masks, strict=True):
        np.testing.assert_allclose(a.data, b.data, **CLOSE)
    for a, b in zip(got.decisions, want.decisions, strict=True):
        np.testing.assert_allclose(a.data, b.data, **CLOSE)
    assert got.sparsity is None


def reference_grid(test):
    """The configurations on which both modes are held to the layered
    reference: one and four steps, both embed_dims forms, one BN chunk and
    ghost chunks, relaxed priors and exhausted ones."""
    test = pytest.mark.parametrize("n_steps", [1, 4])(test)
    test = pytest.mark.parametrize("embed_dims", [3, [2, 1]], ids=["int", "list"])(test)
    test = pytest.mark.parametrize("virtual_batch", [None, 128, 16])(test)
    return pytest.mark.parametrize("saturate", [False, True], ids=["relaxed", "saturated"])(test)


def grid_model(n_steps, embed_dims, virtual_batch, saturate):
    ds = two_categorical_dataset()
    cfg = TabNetConfig(
        n_d=4, n_a=3, n_steps=n_steps, embed_dims=embed_dims,
        virtual_batch=virtual_batch, gamma_relax=1.0 if saturate else 1.3, seed=4,
    )
    model = TabNetClassifier(cfg, ds.schema)
    randomize_state(model, np.random.default_rng(n_steps))
    if saturate:
        for att in model.attentives:
            att.fc.w.data *= 50.0  # wide scores saturate sparsemax to one-hot rows
    X = ds.features.copy()
    X[0, 1] = model.embeddings["kind"].data.shape[0] - 1  # reserved unseen code
    return model, X, ds.labels


def assert_priors_exhausted(masks):
    prior = np.ones_like(masks[0].data)
    for mask in masks[:-1]:
        prior = prior * (1.0 - mask.data)
    assert (prior == 0.0).any()  # exhausted priors reached the exclusion


def one_train_step_ops(n_categorical, n_steps):
    """The ops one `train_step` records on a model with ``n_categorical``
    categorical columns and one continuous column."""
    rng = np.random.default_rng(n_categorical)
    rows = [
        [str(i)] + [f"k{rng.integers(3)}" for _ in range(n_categorical)]
        + [repr(float(rng.normal())), "ab"[i % 2]]
        for i in range(16)
    ]
    columns = ["id"] + [f"c{k}" for k in range(n_categorical)] + ["x", "label"]
    table = table_from_rows(columns, rows)
    ds = encode(table, fit_schema(table, "label"))
    assert sum(c.kind == KIND_CATEGORICAL for c in ds.schema.columns) == n_categorical
    cfg = TabNetConfig(n_d=2, n_a=2, n_steps=n_steps, embed_dims=2, lambda_sparse=1e-3)
    model = TabNetClassifier(cfg, ds.schema)
    tape = train_step(model, ad.Adam(model.parameters()), ds.features, ds.labels, {"kind": "cce"})
    return [r.op for r in tape._records]


class TestTapeRecords:
    @pytest.mark.parametrize("n_steps", [1, 4])
    def test_one_gather_and_one_penalty_record_per_train_step(self, n_steps):
        counts = []
        for n_categorical in (1, 5):
            ops = one_train_step_ops(n_categorical, n_steps)
            assert ops.count("embed_columns") == 1
            assert ops.count("mean_entropy") == 1
            counts.append(len(ops))
        assert counts[0] == counts[1]  # no record per categorical column

    @pytest.mark.parametrize("n_steps", [1, 4])
    def test_one_record_per_glu_layer_and_prior_update(self, n_steps):
        # a residual is part of its GLU's record, and steps after the first
        # apply the prior in one record; the only add records join the
        # decisions and the loss to its penalty, whose weight is the only scale
        ops = one_train_step_ops(1, n_steps)
        assert ops.count("glu") == 4 * (n_steps + 1)
        assert ops.count("apply_prior") == n_steps - 1
        assert ops.count("add") == n_steps
        assert ops.count("scale") == 1
        assert ops.count("mul") == n_steps  # each mask times the features


class TestEvalPlan:
    """Eval mode folds every batch norm into the map before it; the layered
    computation it replaced is kept in helpers as the oracle."""

    @reference_grid
    def test_matches_layered_reference(self, n_steps, embed_dims, virtual_batch, saturate):
        model, X, _ = grid_model(n_steps, embed_dims, virtual_batch, saturate)
        got = model.forward(None, X, training=False)
        want = reference_forward(model, X)
        assert_matches_reference(got, want)
        if saturate and n_steps > 1:
            assert_priors_exhausted(want.masks)

    @reference_grid
    def test_train_mode_bit_identical_to_layered_reference(
        self, n_steps, embed_dims, virtual_batch, saturate
    ):
        # the model gathers every column in one record, starts the step loop
        # from no prior, updates it in one record and records the entropy
        # penalty once after the loop; the reference keeps one embedding
        # record per table and a concat, the all-ones prior, three records
        # per prior update and four per step's entropy
        model, X, y = grid_model(n_steps, embed_dims, virtual_batch, saturate)
        ref, _, _ = grid_model(n_steps, embed_dims, virtual_batch, saturate)
        spec = {"kind": "focal", "gamma": 2.0, "alpha": np.array([0.5, 1.0, 2.0])}
        outs = []
        def model_forward(m, X, tape, training):
            return m.forward(tape, X, training)

        for m, forward in ((model, model_forward), (ref, reference_forward)):
            tape = ad.Tape()
            out = forward(m, X, tape, True)
            loss = batch_loss(tape, out.logits, y, spec).scalar
            tape.backward(ad.add(tape, loss, ad.scale(tape, out.sparsity, 0.1)))
            outs.append(out)
        got, want = outs
        assert np.array_equal(got.logits.data, want.logits.data)
        assert np.array_equal(got.sparsity.data, want.sparsity.data)
        for a, b in zip(got.masks + got.decisions, want.masks + want.decisions, strict=True):
            assert np.array_equal(a.data, b.data)
        assert any(p.grad.any() for p in model.parameters())
        for p, q in zip(model.parameters(), ref.parameters(), strict=True):
            assert p.name == q.name and np.array_equal(p.grad, q.grad), p.name
        for (name, a), (_, b) in zip(model.state_arrays(), ref.state_arrays(), strict=True):
            assert np.array_equal(a, b), name  # running statistics moved alike
        if saturate and n_steps > 1:
            assert_priors_exhausted(want.masks)

    def test_plan_follows_state_changes_between_calls(self):
        model, ds = small_model()
        X = ds.features
        before = model.predict_logits(X)
        model.registry["ft/2/own/0/fc/w"].data[0, 0] += 0.5
        after_param = model.predict_logits(X)
        assert not np.array_equal(after_param, before)
        np.testing.assert_allclose(
            after_param, reference_forward(model, X).logits.data, **CLOSE
        )
        model.registry["att/0/bn.running_var"][...] *= 4.0
        after_var = model.predict_logits(X)
        assert not np.array_equal(after_var, after_param)
        np.testing.assert_allclose(after_var, reference_forward(model, X).logits.data, **CLOSE)


def per_raw_column(model, embedded):
    """Sum an embedded-space [B, D] array over each raw column's slice."""
    return np.column_stack([embedded[:, span].sum(axis=1) for _, span in model.attribution_map()])


def mask_importance(model, X):
    """Per-row raw-column importance from one eval forward's masks, each
    step weighted by its summed decision output."""
    out = model.forward(None, X, training=False)
    embedded = sum(d.data.sum(axis=1, keepdims=True) * m.data for m, d in zip(out.masks, out.decisions))
    return per_raw_column(model, embedded / embedded.sum(axis=1, keepdims=True))


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
        with pytest.raises(ConfigError, match="empty"):
            model.forward(None, empty, training=False)

    def test_rows_as_lists_score_like_the_matrix(self):
        model, ds = self.fitted()
        rows = ds.features.tolist()
        assert np.array_equal(model.predict_logits(rows), model.predict_logits(ds.features))
        want = model.explain(ds.features).instance_importance
        assert np.array_equal(model.explain(rows).instance_importance, want)

    @pytest.mark.parametrize(
        "bad, match",
        [
            (lambda X: [list(X[0]), list(X[1, :2])], "numeric matrix"),  # ragged
            (lambda X: [["a", "0.5", "1.0"]], "numeric matrix"),
            (lambda X: [[0.0, None, 1.0]], "'x0': non-finite"),  # None reads as NaN
            (lambda X: 3.0, "matrix of encoded rows"),
            (lambda X: np.where(np.arange(3) == 0, np.nan, X), "'cat': non-finite"),
            (lambda X: np.where(np.arange(3) == 1, np.nan, X), "'x0': non-finite"),
            (lambda X: np.where(np.arange(3) == 2, -np.inf, X), "'x1': non-finite"),
            (lambda X: np.where(np.arange(3) == 0, 1e30, X), "'cat': code out of range"),
        ],
    )
    def test_bad_rows_raise_encoding_error(self, bad, match):
        # checked before any numpy call can fail untyped, warn on a cast, or
        # let a non-finite value reach sparsemax as a numeric failure
        model, ds = self.fitted()
        X = bad(ds.features[:4])
        for score in (model.predict_logits, model.explain, model.predict):
            with pytest.raises(EncodingError, match=match):
                score(X)
        with pytest.raises(EncodingError, match=match):
            model.forward(None, X, training=False)

    def test_rows_beyond_one_chunk_match_separate_calls(self):
        model, ds = self.fitted()
        rng = np.random.default_rng(3)
        n = EVAL_BATCH + 904
        X = np.column_stack(
            [rng.integers(0, 4, size=n).astype(float), rng.normal(size=(n, 2))]
        )  # columns cat (3 codes + unseen), x0, x1
        k = 1234
        whole, head, tail = model.explain(X), model.explain(X[:k]), model.explain(X[k:])
        pairs = [
            (whole.step_weights, head.step_weights, tail.step_weights),
            (whole.instance_importance, head.instance_importance, tail.instance_importance),
            # the masks of one unchunked forward per side, weighted by hand
            (whole.instance_importance, mask_importance(model, X[:k]), mask_importance(model, X[k:])),
        ]
        for got, a, b in pairs:
            assert got.shape[0] == n
            np.testing.assert_allclose(got, np.vstack([a, b]), rtol=0, atol=1e-12)

    def test_memory_holds_no_per_step_masks(self):
        # above the [n, n_raw] importances and [n, n_steps] step weights,
        # the peak is one chunk's working set: 10.7 blocks measured, against
        # 58.7 while explain kept every row's n_steps masks (48 blocks here)
        model = TabNetClassifier(
            TabNetConfig(n_d=8, n_a=8, n_steps=3), continuous_schema(100, ["a", "b", "c"])
        )
        model.fitted = True
        X = np.random.default_rng(0).normal(size=(16 * EVAL_BATCH, 100))
        block = EVAL_BATCH * model.d_model * 8
        tracemalloc.start()
        try:
            report = model.explain(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = report.instance_importance.nbytes + report.step_weights.nbytes
        assert peak < outputs + 16 * block

    def test_rows_without_decision_output_take_the_mask_average(self):
        # zeroed step transformers make every decision output relu(0) = 0,
        # so no step carries weight and each row falls back to its masks' mean
        model, ds = self.fitted()
        for name, arr in model.state_arrays():
            if name.startswith(("shared/", "ft/")) and not name.endswith(("gamma", "running_var")):
                arr[...] = 0.0
        report = model.explain(ds.features)
        out = model.forward(None, ds.features, training=False)
        assert not report.step_weights.any()
        want = per_raw_column(model, np.mean([m.data for m in out.masks], axis=0))
        np.testing.assert_allclose(report.instance_importance, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.instance_importance.sum(axis=1), 1.0, atol=1e-12)

    def test_fallback_touches_only_the_degenerate_rows(self):
        model, ds = self.fitted()
        X = ds.features
        out = model.forward(None, X, training=False)
        dead = np.arange(len(X)) % 3 == 0
        for d in out.decisions:
            d.data[dead] = 0.0
        instance = np.empty((len(X), 3))
        weights = tabnet._attribute(out, model.attribution_map(), instance)
        assert not weights[dead].any() and weights[~dead].all()
        want = per_raw_column(model, np.mean([m.data for m in out.masks], axis=0))
        np.testing.assert_allclose(instance[dead], want[dead], rtol=0, atol=1e-12)
        live = model.explain(X[~dead]).instance_importance
        np.testing.assert_allclose(instance[~dead], live, rtol=0, atol=1e-12)
        np.testing.assert_allclose(instance.sum(axis=1), 1.0, atol=1e-12)

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

    def test_optimizer_stays_coupled_through_load_state(self, tmp_path, rng):
        # Adam rebinds each parameter to a view of its flat vector; the
        # rebinding keeps every value, and load_state writes through the
        # views, so a step after restoring a snapshot still moves the model
        # exactly as the old per-parameter Adam moves an uncoupled copy
        committed = str(FIXTURES / "mini_model.attb")
        model, ref_model = load_model(committed), load_model(committed)
        opt = ad.Adam(model.parameters(), lr=0.05)
        ref = AdamReference(ref_model.parameters(), lr=0.05)
        again = tmp_path / "again.attb"
        save_model(str(again), model)
        assert again.read_bytes() == COMMITTED_MODEL
        X = np.column_stack([
            rng.integers(0, model.embeddings[name].data.shape[0], size=16)
            if kind == KIND_CATEGORICAL else rng.normal(size=16)
            for name, kind, _ in model._columns
        ]).astype(np.float64)
        y = rng.integers(0, model.n_classes, size=16)

        def step(m, o):
            tape = ad.Tape()
            logits = m.forward(tape, X, training=True).logits
            o.zero_grad()
            tape.backward(batch_loss(tape, logits, y, {"kind": "cce"}).scalar)
            o.step()

        start = model.snapshot()
        for m, o in ((model, opt), (ref_model, ref)):
            step(m, o)
            m.load_state(start)
        restored = model.snapshot()
        step(model, opt)
        step(ref_model, ref)
        moved = dict(model.state_arrays())
        assert any(
            not np.array_equal(moved[p.name], restored[p.name]) for p in model.parameters()
        )
        for (name, got), (_, want) in zip(model.state_arrays(), ref_model.state_arrays()):
            assert np.array_equal(got, want), name

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

    @pytest.mark.parametrize("dims", [[1.5], [True], [1.0]], ids=["fraction", "bool", "float"])
    def test_non_integer_embed_dims_name_the_file(self, tmp_path, dims):
        # the committed model has one categorical column of width 1
        header, arrays = read_container(str(FIXTURES / "mini_model.attb"), MODEL_MAGIC)
        header["config"]["embed_dims"] = dims
        del header["arrays"]
        path = str(tmp_path / "m.attb")
        write_container(path, MODEL_MAGIC, header, list(arrays.items()))
        with pytest.raises(PersistenceError, match="m.attb.*embed_dims"):
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
            return training_loss(tape, model, X, labels, {"kind": "cce"})

        worst = grad_check(build, model.parameters(), rng, samples=2, h=1e-5)
        assert worst < 1e-3
