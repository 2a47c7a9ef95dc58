"""TabNet-style attentive tabular classifier.

The model embeds categorical codes, batch-normalizes the feature matrix,
then runs a sequence of decision steps. Each step selects features with a
sparsemax mask produced by an attentive transformer (scaled by a cumulative
prior so features get "spent"), transforms the masked features through a
GLU stack, and contributes relu(d) to the aggregate decision. Mask entropy
is returned as a sparsity penalty for the training loss.

Conventions the original TabNet write-up leaves open follow the common
reference implementation: prior update P <- P * (gamma_relax - M), residual
connections scaled by sqrt(0.5), relu(d) aggregation, entropy sparsity
penalty, and ghost batch normalization inside the transformer blocks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import (
    SQRT_HALF,
    BatchNorm,
    Parameter,
    Registry,
    Tape,
    Tensor,
    add,
    add_const,
    concat_cols,
    embedding,
    glu,
    linear,
    log,
    mask_fill,
    mul,
    reduce_sum,
    register,
    relu,
    scale,
    slice_cols,
    sparsemax,
)
from .container import MODEL_MAGIC, decoding, read_container, write_container
from .data import KIND_CATEGORICAL, KIND_CONTINUOUS, FeatureSchema
from .errors import (
    ConfigError,
    EncodingError,
    ModelStateError,
    PersistenceError,
    check_int,
    check_number,
)

# A prior of exactly zero must keep a feature out of the mask even when its
# score would top the row (a zero product wins sparsemax whenever every
# kept score is negative), so exhausted features are pushed far below any
# reachable score instead of relying on the multiplicative zero.
EXCLUDED_SCORE = -1e30

SPARSITY_EPS = 1e-10

# rows per eval-mode forward in predict_logits, explain and evaluation, so
# memory stays bounded however many rows are scored
EVAL_BATCH = 4096


@dataclass
class TabNetConfig:
    """Architecture hyperparameters."""

    n_d: int = 16
    n_a: int = 16
    n_steps: int = 4
    gamma_relax: float = 1.3
    lambda_sparse: float = 1e-4
    embed_dims: int | list[int] = 1
    virtual_batch: int | None = None
    seed: int = 0

    def validate(self) -> None:
        for name in ("n_d", "n_a", "n_steps"):
            check_int(name, getattr(self, name), 1)
        check_number("gamma_relax", self.gamma_relax)
        if self.gamma_relax < 1.0:
            raise ConfigError(f"gamma_relax must be >= 1, got {self.gamma_relax}")
        check_number("lambda_sparse", self.lambda_sparse)
        if self.lambda_sparse < 0.0:
            raise ConfigError(f"lambda_sparse must be >= 0, got {self.lambda_sparse}")
        if isinstance(self.embed_dims, (list, tuple)):
            if not self.embed_dims:
                raise ConfigError("embed_dims list must not be empty")
            for d in self.embed_dims:
                check_int("embed_dims", d, 1)
        else:
            check_int("embed_dims", self.embed_dims, 1)
        if self.virtual_batch is not None:
            check_int("virtual_batch", self.virtual_batch, 2)
        check_int("seed", self.seed, 0)


class LinearLayer:
    """Dense layer with Glorot-uniform weights and zero biases."""

    def __init__(
        self,
        rng: np.random.Generator,
        in_dim: int,
        out_dim: int,
        name: str,
        registry: Registry | None = None,
    ):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        w = rng.uniform(-limit, limit, size=(in_dim, out_dim))
        self.w = register(registry, Parameter(w, name=f"{name}/w"))
        self.b = register(registry, Parameter(np.zeros(out_dim), name=f"{name}/b"))

    def __call__(self, tape: Tape | None, x: Tensor) -> Tensor:
        return linear(tape, x, self.w, self.b)


class GLUBlock:
    """linear -> batch norm -> gated linear unit.

    A block can borrow its linear layer and its BN scale/shift from another
    block (parameter sharing across decision steps). Borrowed pieces were
    registered by their creator and are not registered again; BN running
    statistics always stay local to the block, so each call site normalizes
    with statistics of its own input distribution.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        in_dim: int,
        out_dim: int,
        virtual_batch: int | None,
        name: str,
        shared_fc: LinearLayer | None = None,
        shared_affine: tuple[Parameter, Parameter] | None = None,
        registry: Registry | None = None,
    ):
        self.fc = (
            LinearLayer(rng, in_dim, 2 * out_dim, f"{name}/fc", registry)
            if shared_fc is None
            else shared_fc
        )
        self.bn = BatchNorm(
            2 * out_dim,
            virtual_batch=virtual_batch,
            name=f"{name}/bn",
            affine=shared_affine,
            registry=registry,
        )

    def __call__(self, tape: Tape | None, x: Tensor, training: bool) -> Tensor:
        return glu(tape, self.bn(tape, self.fc(tape, x), training))


class FeatureTransformer:
    """Four GLU blocks; the first two borrow shared parameters, the last two
    are step-specific. Blocks after the first add a residual scaled by
    sqrt(0.5) so repeated application keeps variance roughly constant.
    """

    def __init__(self, blocks: list[GLUBlock]):
        self.blocks = blocks

    def __call__(self, tape: Tape | None, x: Tensor, training: bool) -> Tensor:
        h = self.blocks[0](tape, x, training)
        for block in self.blocks[1:]:
            h = scale(tape, add(tape, block(tape, h, training), h), SQRT_HALF)
        return h


class AttentiveTransformer:
    """Produces the step mask: sparsemax(prior * BN(FC(a_prev)))."""

    def __init__(
        self,
        rng: np.random.Generator,
        n_a: int,
        d_features: int,
        virtual_batch: int | None,
        name: str,
        registry: Registry | None = None,
    ):
        self.fc = LinearLayer(rng, n_a, d_features, f"{name}/fc", registry)
        self.bn = BatchNorm(
            d_features, virtual_batch=virtual_batch, name=f"{name}/bn", registry=registry
        )

    def __call__(self, tape: Tape | None, a_prev: Tensor, prior: Tensor, training: bool) -> Tensor:
        h = self.bn(tape, self.fc(tape, a_prev), training)
        scores = mul(tape, prior, h)
        keep = prior.data > 0.0
        if not keep.all():
            scores = mask_fill(tape, scores, keep, EXCLUDED_SCORE)
        return sparsemax(tape, scores)


@dataclass
class ForwardOutput:
    logits: Tensor
    masks: list[Tensor]  # n_steps tensors [B, D]
    decisions: list[Tensor]  # n_steps tensors [B, n_d], already relu'd
    sparsity: Tensor  # scalar mask-entropy penalty


@dataclass
class MaskReport:
    """Interpretability artifacts in raw-column space."""

    per_step_masks: list[np.ndarray]  # embedded space, [B, D] each
    step_weights: np.ndarray  # [B, n_steps]
    instance_importance: np.ndarray  # [B, n_raw], rows sum to 1
    global_importance: np.ndarray  # [n_raw], sums to 1
    feature_names: list[str]

    def top(self, k: int) -> list[tuple[str, float]]:
        order = sorted(
            range(len(self.feature_names)),
            key=lambda j: (-self.global_importance[j], self.feature_names[j]),
        )
        return [
            (self.feature_names[j], float(self.global_importance[j]))
            for j in order[: max(k, 0)]
        ]


class TabNetClassifier:
    """Sequential-attention classifier over an encoded feature matrix."""

    def __init__(self, config: TabNetConfig, schema: FeatureSchema):
        config.validate()
        self.config = config
        self.schema = schema
        self.fitted = False
        self.train_info: dict | None = None

        active = schema.feature_columns()
        if not active:
            raise ConfigError("schema has no active feature columns")
        self.n_classes = len(schema.labels)
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.n_classes}")

        cat_cols = [c for c in active if c.kind == KIND_CATEGORICAL]
        if isinstance(config.embed_dims, int):
            dims = [config.embed_dims] * len(cat_cols)
        else:
            dims = list(config.embed_dims)
            if len(dims) != len(cat_cols):
                raise ConfigError(
                    f"embed_dims lists {len(dims)} widths for {len(cat_cols)} "
                    "categorical columns"
                )

        rng = np.random.default_rng(config.seed)
        # Filled in construction order, which is the persisted array order.
        self.registry: Registry = {}
        reg = self.registry

        # Embedding tables carry one extra row: the reserved code for values
        # unseen at fit time equals the fitted cardinality.
        self.embeddings: dict[str, Parameter] = {}
        self._columns: list[tuple[str, str, int]] = []  # (name, kind, width)
        dim_iter = iter(dims)
        for col in active:
            if col.kind == KIND_CONTINUOUS:
                self._columns.append((col.name, KIND_CONTINUOUS, 1))
            else:
                width = next(dim_iter)
                self.embeddings[col.name] = register(
                    reg,
                    Parameter(
                        rng.normal(0.0, 0.1, size=(int(col.cardinality) + 1, width)),
                        name=f"embed/{col.name}",
                    ),
                )
                self._columns.append((col.name, KIND_CATEGORICAL, width))
        self.d_model = sum(width for _, _, width in self._columns)

        width = config.n_d + config.n_a
        vb = config.virtual_batch
        self.input_bn = BatchNorm(self.d_model, name="input_bn", registry=reg)
        self.shared_fcs = [
            LinearLayer(rng, self.d_model, 2 * width, "shared/0/fc", reg),
            LinearLayer(rng, width, 2 * width, "shared/1/fc", reg),
        ]
        self.shared_affines = [
            (
                register(reg, Parameter(np.ones(2 * width), name=f"shared/{k}/bn.gamma")),
                register(reg, Parameter(np.zeros(2 * width), name=f"shared/{k}/bn.beta")),
            )
            for k in range(2)
        ]
        # Transformer 0 is the initial splitter producing a[0]; 1..n_steps
        # serve the decision steps.
        self.transformers = [
            FeatureTransformer(
                [
                    GLUBlock(
                        rng, self.d_model, width, vb, f"ft/{t}/shared/0",
                        shared_fc=self.shared_fcs[0], shared_affine=self.shared_affines[0],
                        registry=reg,
                    ),
                    GLUBlock(
                        rng, width, width, vb, f"ft/{t}/shared/1",
                        shared_fc=self.shared_fcs[1], shared_affine=self.shared_affines[1],
                        registry=reg,
                    ),
                    GLUBlock(rng, width, width, vb, f"ft/{t}/own/0", registry=reg),
                    GLUBlock(rng, width, width, vb, f"ft/{t}/own/1", registry=reg),
                ]
            )
            for t in range(config.n_steps + 1)
        ]
        self.attentives = [
            AttentiveTransformer(rng, config.n_a, self.d_model, vb, f"att/{i}", reg)
            for i in range(config.n_steps)
        ]
        self.final = LinearLayer(rng, config.n_d, self.n_classes, "final", reg)

    # ---------------------------------------------------------------- state

    def parameters(self) -> list[Parameter]:
        return [v for v in self.registry.values() if isinstance(v, Parameter)]

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        """All persistent arrays (trainable parameters plus BN buffers)."""
        return [
            (name, v.data if isinstance(v, Parameter) else v)
            for name, v in self.registry.items()
        ]

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        missing = self.registry.keys() - arrays.keys()
        extra = arrays.keys() - self.registry.keys()
        if missing or extra:
            raise PersistenceError(
                f"state mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        for name, current in self.state_arrays():
            incoming = arrays[name]
            if incoming.shape != current.shape:
                raise PersistenceError(
                    f"array {name!r}: shape {incoming.shape} != expected {current.shape}"
                )
            current[...] = incoming

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.state_arrays()}

    # -------------------------------------------------------------- forward

    def embed(self, tape: Tape | None, X: np.ndarray) -> Tensor:
        """Encoded matrix -> dense features: continuous columns pass through,
        categorical codes go through their embedding tables."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self._columns):
            raise EncodingError(
                f"expected matrix with {len(self._columns)} columns, got shape {X.shape}"
            )
        parts: list[Tensor] = []
        for j, (name, kind, _) in enumerate(self._columns):
            col = X[:, j]
            if kind == KIND_CONTINUOUS:
                parts.append(Tensor(col[:, None].copy()))
            else:
                table = self.embeddings[name]
                codes = col.astype(np.int64)
                if np.any(codes != col):
                    raise EncodingError(f"column {name!r}: non-integer categorical code")
                if codes.size and (codes.min() < 0 or codes.max() >= table.data.shape[0]):
                    raise EncodingError(
                        f"column {name!r}: code out of range 0..{table.data.shape[0] - 1}"
                    )
                parts.append(embedding(tape, table, codes))
        return concat_cols(tape, parts)

    def attribution_map(self) -> list[tuple[str, slice]]:
        """Raw column name -> slice of embedded columns, in raw order."""
        out = []
        start = 0
        for name, _, width in self._columns:
            out.append((name, slice(start, start + width)))
            start += width
        return out

    def forward(self, tape: Tape | None, X: np.ndarray, training: bool) -> ForwardOutput:
        """Full pipeline: embed, normalize, then n_steps masked decision steps."""
        cfg = self.config
        feats = self.input_bn(tape, self.embed(tape, X), training)
        B = feats.data.shape[0]

        split = self.transformers[0](tape, feats, training)
        a_prev = slice_cols(tape, split, cfg.n_d, cfg.n_d + cfg.n_a)
        prior = Tensor(np.ones((B, self.d_model)))

        masks: list[Tensor] = []
        decisions: list[Tensor] = []
        agg: Tensor | None = None
        entropy_sum: Tensor | None = None
        for i in range(cfg.n_steps):
            mask = self.attentives[i](tape, a_prev, prior, training)
            prior = mul(tape, prior, add_const(tape, scale(tape, mask, -1.0), cfg.gamma_relax))
            masks.append(mask)

            masked = mul(tape, mask, feats)
            out = self.transformers[i + 1](tape, masked, training)
            d = relu(tape, slice_cols(tape, out, 0, cfg.n_d))
            a_prev = slice_cols(tape, out, cfg.n_d, cfg.n_d + cfg.n_a)
            decisions.append(d)
            agg = d if agg is None else add(tape, agg, d)

            ent = reduce_sum(tape, mul(tape, mask, log(tape, add_const(tape, mask, SPARSITY_EPS))))
            entropy_sum = ent if entropy_sum is None else add(tape, entropy_sum, ent)

        logits = self.final(tape, agg)
        sparsity = scale(tape, entropy_sum, -1.0 / (cfg.n_steps * B))
        return ForwardOutput(logits=logits, masks=masks, decisions=decisions, sparsity=sparsity)

    def _eval_chunks(
        self, X: np.ndarray, batch_size: int = EVAL_BATCH, indices: np.ndarray | None = None
    ):
        """Eval-mode forwards over bounded-memory row chunks of ``X``, or of
        ``X[indices]`` gathered one chunk at a time: yields (output slice,
        ForwardOutput) pairs."""
        n = X.shape[0] if indices is None else len(indices)
        if n == 0:
            raise ConfigError("cannot score an empty row set")
        for start in range(0, n, batch_size):
            rows = slice(start, start + batch_size)
            chunk = X[rows] if indices is None else X[indices[rows]]
            yield rows, self.forward(None, chunk, training=False)

    def predict_logits(self, X: np.ndarray, batch_size: int = EVAL_BATCH) -> np.ndarray:
        """Eval-mode logits, computed in bounded-memory chunks."""
        return np.concatenate(
            [out.logits.data for _, out in self._eval_chunks(X, batch_size)], axis=0
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_logits(X), axis=1)

    # -------------------------------------------------------------- explain

    def explain(self, X: np.ndarray) -> MaskReport:
        """Aggregate step masks into instance/global feature importances,
        attributed back to raw columns. Runs in the same row chunks as
        ``predict_logits``; every quantity but the global mean is per row."""
        if not self.fitted:
            raise ModelStateError("explain requires a fitted model")
        n_rows, n_steps = X.shape[0], self.config.n_steps
        attribution = self.attribution_map()
        masks = [np.empty((n_rows, self.d_model)) for _ in range(n_steps)]
        step_weights = np.empty((n_rows, n_steps))
        instance = np.empty((n_rows, len(attribution)))
        for rows, out in self._eval_chunks(X):
            chunk_masks = [m.data for m in out.masks]
            weights = np.stack([d.data.sum(axis=1) for d in out.decisions], axis=1)

            embedded = np.zeros_like(chunk_masks[0])
            for i, mask in enumerate(chunk_masks):
                embedded += weights[:, i : i + 1] * mask
                masks[i][rows] = mask
            row_sums = embedded.sum(axis=1, keepdims=True)
            # Rows whose every decision output is zero carry no weighting
            # signal; fall back to the plain mask average (rows of which sum to 1).
            degenerate = row_sums[:, 0] <= 0.0
            if degenerate.any():
                fallback = np.mean(chunk_masks, axis=0)
                embedded[degenerate] = fallback[degenerate]
                row_sums = embedded.sum(axis=1, keepdims=True)
            embedded /= row_sums

            step_weights[rows] = weights
            for r, (_, cols) in enumerate(attribution):
                instance[rows, r] = embedded[:, cols].sum(axis=1)
        return MaskReport(
            per_step_masks=masks,
            step_weights=step_weights,
            instance_importance=instance,
            global_importance=instance.mean(axis=0),
            feature_names=[name for name, _ in attribution],
        )


# ------------------------------------------------------------- persistence


def save_model(path: str, model: TabNetClassifier) -> None:
    header = {
        "format": "attentab-model",
        "version": 1,
        "config": asdict(model.config),
        "schema": model.schema.to_dict(),
        "schema_hash": model.schema.hash(),
        "n_classes": model.n_classes,
        "fitted": model.fitted,
        "train_info": model.train_info,
    }
    write_container(path, MODEL_MAGIC, header, model.state_arrays())


def load_model(path: str) -> TabNetClassifier:
    header, arrays = read_container(path, MODEL_MAGIC)
    with decoding(path):
        config = TabNetConfig(**header["config"])
        if isinstance(config.embed_dims, list):
            config.embed_dims = [int(d) for d in config.embed_dims]
        schema = FeatureSchema.from_dict(header["schema"])
        model = TabNetClassifier(config, schema)
        if model.n_classes != header["n_classes"]:
            raise PersistenceError(
                f"header claims {header['n_classes']} classes, schema implies {model.n_classes}"
            )
        model.load_state(arrays)
    model.fitted = bool(header.get("fitted", False))
    model.train_info = header.get("train_info")
    return model
