"""TabNet-style attentive tabular classifier.

The model embeds categorical codes, batch-normalizes the feature matrix,
then runs a sequence of decision steps. Each step selects features with a
sparsemax mask produced by an attentive transformer (scaled by a cumulative
prior so features get "spent"), transforms the masked features through a
GLU stack, and contributes relu(d) to the aggregate decision. Train and
eval mode embed the columns with one gather (``embed_columns``) and run one
step loop (:func:`_decision_steps`) over the same GLU-stack code; eval mode
differs only in its tables and maps, with every fc + BN pair folded into one
linear map. Train mode adds the mask-entropy sparsity penalty for the
training loss as one record after the loop.

Conventions the original TabNet write-up leaves open follow the common
reference implementation: prior update P <- P * (gamma_relax - M), residual
connections scaled by sqrt(0.5), relu(d) aggregation, entropy sparsity
penalty, and ghost batch normalization inside the transformer blocks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .autodiff import (
    BatchNorm,
    Parameter,
    Registry,
    Tape,
    Tensor,
    add,
    apply_prior,
    embed_columns,
    glu,
    linear,
    mean_entropy,
    mul,
    register,
    relax_prior,
    relu,
    slice_cols,
    sparsemax,
)
from .container import MODEL_MAGIC, decoding, read_container, write_container
from .data import KIND_CATEGORICAL, KIND_CONTINUOUS, FeatureSchema
from .errors import (
    ConfigError,
    EncodingError,
    GraphError,
    ModelStateError,
    PersistenceError,
    check_int,
    check_number,
)

SPARSITY_EPS = 1e-10

# rows per eval-mode forward in predict_logits, explain and evaluation, so
# memory stays bounded however many rows are scored; a [1024, 114] float64
# block (the pump-shaped width) is 0.9 MiB and stays within a 2 MiB L2 cache
EVAL_BATCH = 1024


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


class FcBn:
    """A linear layer and the batch norm after it: one GLU layer's input
    map in a feature transformer, or an attentive transformer's scores
    before the prior.

    A layer can borrow its linear layer and its BN scale/shift from another
    (parameter sharing across decision steps). Borrowed pieces were
    registered by their creator and are not registered again; BN running
    statistics always stay local to the layer, so each call site normalizes
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
            LinearLayer(rng, in_dim, out_dim, f"{name}/fc", registry)
            if shared_fc is None
            else shared_fc
        )
        self.bn = BatchNorm(
            out_dim,
            virtual_batch=virtual_batch,
            name=f"{name}/bn",
            affine=shared_affine,
            registry=registry,
        )

    def __call__(self, tape: Tape | None, x: Tensor) -> Tensor:
        return self.bn(tape, self.fc(tape, x))


# A map of one layer's input, fc -> BN in train mode or its folded linear
# map in eval mode, called as layer(tape, x).
Layer = Callable[[Tape | None, Tensor], Tensor]


def _glu_stack(tape: Tape | None, layers: Sequence[Layer], x: Tensor) -> Tensor:
    """A feature transformer: a GLU over each layer's map of the previous
    output. Layers after the first add a residual scaled by sqrt(0.5), so
    repeated application keeps variance roughly constant."""
    h = glu(tape, layers[0](tape, x))
    for layer in layers[1:]:
        h = glu(tape, layer(tape, h), residual=h)
    return h


@dataclass
class ForwardOutput:
    logits: Tensor
    masks: list[Tensor]  # n_steps tensors [B, D]
    decisions: list[Tensor]  # n_steps tensors [B, n_d], already relu'd
    sparsity: Tensor | None  # scalar mask-entropy penalty; None in eval mode


@dataclass
class MaskReport:
    """Interpretability artifacts in raw-column space."""

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
        # serve the decision steps. Each lists the fc -> BN layers of its GLU
        # stack: two borrow the shared parameters, two are step-specific.
        shared = list(zip(self.shared_fcs, self.shared_affines))
        self.transformers = [
            [
                FcBn(rng, fc.w.shape[0], 2 * width, vb, f"ft/{t}/shared/{k}", fc, affine, reg)
                for k, (fc, affine) in enumerate(shared)
            ]
            + [FcBn(rng, width, 2 * width, vb, f"ft/{t}/own/{k}", registry=reg) for k in range(2)]
            for t in range(config.n_steps + 1)
        ]
        # step i's feature scores before the prior: BN(FC(a[i]))
        self.attentives = [
            FcBn(rng, config.n_a, self.d_model, vb, f"att/{i}", registry=reg)
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

    def _column_values(self, X: np.ndarray) -> list[np.ndarray]:
        """Check an encoded matrix and split it by column: a continuous
        column as floats, a categorical one as its int64 codes. Eval mode
        calls this once per chunk, so the checks cost one pass over it."""
        try:
            X = np.asarray(X, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise EncodingError(f"encoded rows must form a numeric matrix: {exc}") from None
        if X.ndim != 2 or X.shape[1] != len(self._columns):
            raise EncodingError(
                f"expected matrix with {len(self._columns)} columns, got shape {X.shape}"
            )
        if not np.isfinite(X).all():
            name = self._columns[int(np.argmin(np.isfinite(X).all(axis=0)))][0]
            raise EncodingError(f"column {name!r}: non-finite value")
        values = list(X.T)
        cats = [j for j, (_, kind, _) in enumerate(self._columns) if kind == KIND_CATEGORICAL]
        if cats and len(X):
            names = [self._columns[j][0] for j in cats]
            n_codes = np.array([self.embeddings[name].data.shape[0] for name in names])
            floats = X[:, cats]
            # range first: a cast of a code beyond int64 is undefined
            bad = (floats.min(axis=0) < 0) | (floats.max(axis=0) >= n_codes)
            if bad.any():
                k = int(np.argmax(bad))
                raise EncodingError(f"column {names[k]!r}: code out of range 0..{n_codes[k] - 1}")
            codes = floats.astype(np.int64)
            bad = (codes != floats).any(axis=0)
            if bad.any():
                name = names[int(np.argmax(bad))]
                raise EncodingError(f"column {name!r}: non-integer categorical code")
            for k, j in enumerate(cats):
                values[j] = codes[:, k]
        return values

    def embed(self, tape: Tape | None, X: np.ndarray) -> Tensor:
        """Encoded matrix -> dense features: continuous columns pass through,
        categorical codes go through their embedding tables."""
        tables = [self.embeddings.get(name) for name, _, _ in self._columns]
        return embed_columns(tape, tables, self._column_values(X))

    def attribution_map(self) -> list[tuple[str, slice]]:
        """Raw column name -> slice of embedded columns, in raw order."""
        out = []
        start = 0
        for name, _, width in self._columns:
            out.append((name, slice(start, start + width)))
            start += width
        return out

    def forward(self, tape: Tape | None, X: np.ndarray, training: bool) -> ForwardOutput:
        """Full pipeline: embed, normalize, then n_steps masked decision steps.
        Eval mode (``training=False``) runs tape-free over an :class:`_EvalPlan`
        folded from the current parameters and running statistics."""
        if not training:
            if tape is not None:
                raise GraphError("eval-mode forward has no backward; call it with tape=None")
            _require_rows(_row_count(X))
            return _EvalPlan(self).forward(X)
        feats = self.input_bn(tape, self.embed(tape, X))
        out = _decision_steps(tape, self, feats, self.transformers, self.attentives)
        out.sparsity = mean_entropy(tape, out.masks, SPARSITY_EPS)
        return out

    def _eval_chunks(
        self, X: np.ndarray, batch_size: int = EVAL_BATCH, indices: np.ndarray | None = None
    ):
        """Eval-mode forwards over bounded-memory row chunks of ``X``, or of
        ``X[indices]`` gathered one chunk at a time: yields (output slice,
        ForwardOutput) pairs. A consumer drops each output before asking
        for the next, so only one chunk's masks are alive at a time."""
        check_int("batch_size", batch_size, 1)
        n = _row_count(X) if indices is None else len(indices)
        _require_rows(n)
        plan = _EvalPlan(self)
        for start in range(0, n, batch_size):
            rows = slice(start, start + batch_size)
            chunk = X[rows] if indices is None else X[indices[rows]]
            yield rows, plan.forward(chunk)

    def predict_logits(self, X: np.ndarray, batch_size: int = EVAL_BATCH) -> np.ndarray:
        """Eval-mode logits, computed in bounded-memory chunks."""
        logits = np.empty((_row_count(X), self.n_classes))
        for rows, out in self._eval_chunks(X, batch_size):
            logits[rows] = out.logits.data
            del out  # free this chunk's masks before the next is scored
        return logits

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_logits(X), axis=1)

    # -------------------------------------------------------------- explain

    def explain(self, X: np.ndarray) -> MaskReport:
        """Aggregate step masks into instance/global feature importances,
        attributed back to raw columns. Runs in the same row chunks as
        ``predict_logits``, and each chunk's masks die with the chunk, so
        memory beyond the per-row outputs is one chunk's working set. The
        per-step masks themselves come from ``forward(None, X, training=False)``."""
        if not self.fitted:
            raise ModelStateError("explain requires a fitted model")
        n_rows, n_steps = _row_count(X), self.config.n_steps
        attribution = self.attribution_map()
        step_weights = np.empty((n_rows, n_steps))
        instance = np.empty((n_rows, len(attribution)))
        for rows, out in self._eval_chunks(X):
            # _attribute's working arrays die when it returns; dropping the
            # output too leaves nothing of this chunk alive for the next
            step_weights[rows] = _attribute(out, attribution, instance[rows])
            del out
        return MaskReport(
            step_weights=step_weights,
            instance_importance=instance,
            global_importance=instance.mean(axis=0),
            feature_names=[name for name, _ in attribution],
        )


def _attribute(
    out: ForwardOutput, attribution: list[tuple[str, slice]], instance: np.ndarray
) -> np.ndarray:
    """Return one chunk's step weights (each step's summed decision output)
    and write each row's importance of each raw column into ``instance``:
    the masks averaged with those weights, rows normalized to sum to 1,
    summed over each column's slice."""
    chunk_masks = [m.data for m in out.masks]
    weights = np.stack([d.data.sum(axis=1) for d in out.decisions], axis=1)
    embedded = np.zeros_like(chunk_masks[0])
    for i, mask in enumerate(chunk_masks):
        embedded += weights[:, i : i + 1] * mask
    row_sums = embedded.sum(axis=1, keepdims=True)
    # Rows whose every decision output is zero carry no weighting
    # signal; fall back to the plain mask average (rows of which sum to 1).
    degenerate = row_sums[:, 0] <= 0.0
    if degenerate.any():
        fallback = np.mean(chunk_masks, axis=0)
        embedded[degenerate] = fallback[degenerate]
        row_sums = embedded.sum(axis=1, keepdims=True)
    embedded /= row_sums
    for r, (_, cols) in enumerate(attribution):
        instance[:, r] = embedded[:, cols].sum(axis=1)
    return weights


def _decision_steps(
    tape: Tape | None, model: TabNetClassifier, feats: Tensor,
    transformers: Sequence[Sequence[Layer]], attentives: Sequence[Layer],
) -> ForwardOutput:
    """The decision steps of both modes over normalized features, through
    the GLU stacks of ``transformers`` (0 is the initial splitter) and step
    i's scores before the prior, ``attentives[i]``, into the model's output
    layer. The output carries no sparsity penalty."""
    cfg = model.config
    n_d, n_a = cfg.n_d, cfg.n_a
    a_prev = slice_cols(tape, _glu_stack(tape, transformers[0], feats), n_d, n_d + n_a)
    prior = agg = None  # the prior is all ones before the first step
    masks, decisions = [], []
    for i in range(cfg.n_steps):
        mask = sparsemax(tape, apply_prior(tape, prior, attentives[i](tape, a_prev)))
        prior = relax_prior(tape, prior, mask, cfg.gamma_relax)
        masks.append(mask)

        out = _glu_stack(tape, transformers[i + 1], mul(tape, mask, feats))
        d = relu(tape, slice_cols(tape, out, 0, n_d))
        a_prev = slice_cols(tape, out, n_d, n_d + n_a)
        decisions.append(d)
        agg = d if agg is None else add(tape, agg, d)

    logits = model.final(tape, agg)
    return ForwardOutput(logits=logits, masks=masks, decisions=decisions, sparsity=None)


# ---------------------------------------------------------- eval-mode plan


def _row_count(X) -> int:
    """Rows of an eval-mode input, which may be any sequence of rows."""
    try:
        return len(X)
    except TypeError:
        raise EncodingError(f"expected a matrix of encoded rows, got {type(X).__name__}") from None


def _require_rows(n: int) -> None:
    """The one empty-input check of every eval-mode entry point."""
    if n == 0:
        raise ConfigError("cannot score an empty row set")


def _fold(layer: FcBn) -> Layer:
    """``layer`` in eval mode, ``bn(fc(x))``, as one linear map ``x @ w + b``."""
    scale, shift = layer.bn.eval_affine()
    w, b = layer.fc.w.data * scale, layer.fc.b.data * scale + shift
    return partial(linear, w=Tensor(w), b=Tensor(b))


class _EvalPlan:
    """Eval-mode layers of a model for :func:`_decision_steps`, with every
    batch norm folded into the map before it.

    Each fc + BN layer of a feature transformer or an attentive transformer
    becomes one linear map (:func:`_fold`), which train mode's GLU stack
    and step loop then run. ``input_bn`` folds into every row of each
    embedding table, the reserved unseen-code row included, and into a scale
    and shift per continuous column; train mode's gather, ``embed_columns``,
    then reads the folded tables. Folding reorders float operations, so
    outputs agree with the layer-by-layer eval computation to about 1e-12,
    not bit for bit. A plan reads the model's arrays when it is built and is
    never cached: training changes them every step.
    """

    def __init__(self, model: TabNetClassifier):
        self.model = model
        scale, shift = model.input_bn.eval_affine()
        # per raw column its folded table, or None for a continuous column,
        # whose (raw column, scale, shift) is in affines
        self.tables: list[Tensor | None] = []
        self.affines: list[tuple[int, float, float]] = []
        for j, ((name, _, _), (_, cols)) in enumerate(zip(model._columns, model.attribution_map())):
            table = model.embeddings.get(name)
            if table is None:
                self.affines.append((j, scale[cols.start], shift[cols.start]))
            else:
                table = Tensor(table.data * scale[cols] + shift[cols])
            self.tables.append(table)
        self.transformers = [[_fold(layer) for layer in ft] for ft in model.transformers]
        self.attentives = [_fold(att) for att in model.attentives]

    def embed(self, X: np.ndarray) -> Tensor:
        values = self.model._column_values(X)
        for j, s, shift in self.affines:
            values[j] = values[j] * s + shift
        return embed_columns(None, self.tables, values)

    def forward(self, X: np.ndarray) -> ForwardOutput:
        return _decision_steps(None, self.model, self.embed(X), self.transformers, self.attentives)


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
        schema = FeatureSchema.from_dict(header["schema"])
        model = TabNetClassifier(config, schema)
        if model.n_classes != header["n_classes"]:
            raise PersistenceError(
                f"header claims {header['n_classes']} classes, schema implies {model.n_classes}"
            )
        model.load_state(arrays)
        model.fitted, model.train_info = header.get("fitted", False), header.get("train_info")
        if not isinstance(model.fitted, bool):
            raise PersistenceError(f"'fitted' must be true or false, got {model.fitted!r}")
        if not isinstance(model.train_info, (dict, type(None))):
            raise PersistenceError(f"'train_info' must be an object, got {model.train_info!r}")
    return model
