"""Shared oracles and gradient-check utilities for the test suite."""

from __future__ import annotations

import csv
from collections import Counter
from typing import Sequence

import numpy as np

from attentab.autodiff import (
    EXCLUDED_SCORE,
    SQRT_HALF,
    Parameter,
    Tape,
    Tensor,
    _as2d,
    add,
    glu,
    mul,
    relu,
    scale,
    slice_cols,
    sparsemax,
)
from attentab.data import (
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    KIND_DROP,
    KIND_TARGET,
    ColumnSchema,
    EncodedDataset,
    FeatureSchema,
    RawTable,
)
from attentab.errors import ConfigError, EncodingError, LabelError, SchemaError, ShapeError
from attentab.tabnet import SPARSITY_EPS, ForwardOutput

FD_H = 1e-5
REL_FLOOR = 1e-6


# ------------------------------------------------------ retired generic ops
#
# Generic tape ops the model recorded before one `embed_columns` record
# replaced its per-column `embedding` records and their `concat_cols`, one
# `mean_entropy` record replaced the per-step `add_const`, `log`, `mul`
# and `reduce_sum` chain, and one `apply_prior` record replaced the prior's
# `mul` and `mask_fill`. Kept verbatim as oracle code: `reference_forward`
# records them, `reduce_sum` is the finite-difference harness's reduction
# to a scalar loss, and `mask_fill` makes the exact zeros of the
# `mean_entropy` cases.


def reduce_sum(tape: Tape | None, x: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor(x.data.sum(axis=axis))
    if tape is not None:
        shape = x.data.shape

        def bwd(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

        tape.record("reduce_sum", (x,), out, bwd)
    return out


def add_const(tape: Tape | None, x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data + c)
    if tape is not None:
        tape.record("add_const", (x,), out, lambda g: (g,))
    return out


def log(tape: Tape | None, x: Tensor) -> Tensor:
    if np.any(x.data <= 0):
        raise ShapeError("log: input must be strictly positive")
    out = Tensor(np.log(x.data))
    if tape is not None:
        xd = x.data
        tape.record("log", (x,), out, lambda g: (g / xd,))
    return out


def mask_fill(tape: Tape | None, x: Tensor, keep: np.ndarray, fill: float) -> Tensor:
    """Replace entries where ``keep`` is False by ``fill``; gradient passes on kept entries."""
    if keep.shape != x.shape:
        raise ShapeError(f"mask_fill: mask shape {keep.shape} does not match {x.shape}")
    out = Tensor(np.where(keep, x.data, fill))
    if tape is not None:
        tape.record("mask_fill", (x,), out, lambda g: (g * keep,))
    return out


def embedding(tape: Tape | None, table: Tensor, codes: np.ndarray) -> Tensor:
    """Row lookup table[codes]; backward scatter-adds into the table."""
    td = _as2d("table", "embedding", table)
    codes = np.asarray(codes, dtype=np.int64)
    if codes.min(initial=0) < 0 or codes.max(initial=0) >= td.shape[0]:
        raise ShapeError(
            f"embedding: codes outside [0, {td.shape[0]}) for table shape {table.shape}"
        )
    out = Tensor(td[codes])
    if tape is not None:
        shape = td.shape

        def bwd(g):
            gt = np.zeros(shape)
            np.add.at(gt, codes, g)
            return (gt,)

        tape.record("embedding", (table,), out, bwd)
    return out


def concat_cols(tape: Tape | None, parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_cols: need at least one part")
    widths = []
    rows = parts[0].data.shape[0]
    for p in parts:
        pd = _as2d("part", "concat_cols", p)
        if pd.shape[0] != rows:
            raise ShapeError(
                f"concat_cols: row counts differ ({rows} vs {pd.shape[0]})"
            )
        widths.append(pd.shape[1])
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    if tape is not None:
        bounds = np.cumsum([0] + widths)

        def bwd(g):
            return tuple(g[:, bounds[i] : bounds[i + 1]] for i in range(len(widths)))

        tape.record("concat_cols", tuple(parts), out, bwd)
    return out


def rel_err(a: float, b: float, floor: float = REL_FLOOR) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def grad_check(build_loss, params, rng, samples=5, h=FD_H, floor=REL_FLOOR):
    """Compare tape gradients of every parameter against central finite
    differences of the scalar loss. ``build_loss(tape)`` must rebuild the
    loss from current parameter values; returns the worst relative error.
    """
    tape = Tape()
    loss = build_loss(tape)
    for p in params:
        p.zero_grad()
    tape.backward(loss)
    worst = 0.0
    for p in params:
        flat = p.data.ravel()
        gflat = p.grad.ravel()
        count = min(samples, flat.size)
        for i in rng.choice(flat.size, size=count, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = build_loss(None).item()
            flat[i] = orig - h
            down = build_loss(None).item()
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            worst = max(worst, rel_err(fd, float(gflat[i]), floor))
    return worst


def weighted_sum_loss(op, x: Parameter, weights: np.ndarray):
    """Loss builder reducing an op's output to a scalar via fixed weights,
    so finite differences probe every output entry."""
    w = np.asarray(weights, dtype=np.float64)

    def build(tape):
        out = op(tape, x)
        assert out.data.shape == w.shape
        return reduce_sum(tape, mul(tape, out, Tensor(w)))

    return build


# ------------------------------------------------------------ sparsemax oracles


def sparsemax_sort_threshold(row: np.ndarray) -> tuple[int, float]:
    """The sort rule of Martins & Astudillo (2016) for one row: with the
    scores sorted in decreasing order, the support size is the largest k
    with 1 + k * z_(k) > z_(1) + ... + z_(k), and the threshold is
    tau = (z_(1) + ... + z_(k) - 1) / k. Tries every k in a plain loop."""
    srt = np.sort(np.asarray(row, dtype=np.float64))[::-1]
    k_star = 1
    for k in range(1, srt.size + 1):
        if 1.0 + k * srt[k - 1] > srt[:k].sum():
            k_star = k
    return k_star, (srt[:k_star].sum() - 1.0) / k_star


def sparsemax_rowloop(z: np.ndarray) -> np.ndarray:
    """Naive per-row oracle: try every support size k, keep the one whose
    threshold is consistent. Independent of the vectorized implementation."""
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros_like(z)
    for b in range(z.shape[0]):
        _, tau = sparsemax_sort_threshold(z[b])
        out[b] = np.maximum(z[b] - tau, 0.0)
    return out


def sparsemax_bisect(z: np.ndarray, iters: int = 200) -> np.ndarray:
    """Second oracle: find tau by bisection on sum(max(z - tau, 0)) = 1,
    a different algorithm entirely (no sorting)."""
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros_like(z)
    for b in range(z.shape[0]):
        row = z[b]
        lo, hi = row.min() - 1.0, row.max()
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if np.maximum(row - mid, 0.0).sum() > 1.0:
                lo = mid
            else:
                hi = mid
        out[b] = np.maximum(row - 0.5 * (lo + hi), 0.0)
    return out


def sparsemax_negate_sort(z: np.ndarray) -> np.ndarray:
    """The sort-based forward `autodiff.sparsemax` ran before it became a
    one-sort, in-place computation, kept verbatim as the bit-identity
    oracle: negate, sort, negate back, then a fresh array per step."""
    zd = np.asarray(z, dtype=np.float64)
    shifted = zd - zd.max(axis=1, keepdims=True)
    z_sorted = -np.sort(-shifted, axis=1)
    cumsum = np.cumsum(z_sorted, axis=1)
    ranks = np.arange(1, zd.shape[1] + 1, dtype=np.float64)
    support = 1.0 + ranks * z_sorted > cumsum
    k = support.sum(axis=1)
    tau = (cumsum[np.arange(zd.shape[0]), k - 1] - 1.0) / k
    return np.maximum(shifted - tau[:, None], 0.0)


def sparsemax_negate_sort_op(tape: Tape | None, z: Tensor) -> Tensor:
    """A taped sparsemax whose forward is :func:`sparsemax_negate_sort`
    (every row over its full width) and whose backward is the formula of
    `autodiff.sparsemax`, so a model trained through it is the oracle for
    one trained through the library op."""
    out = Tensor(sparsemax_negate_sort(z.data))
    if tape is not None:
        pos = out.data > 0

        def bwd(g):
            mean_on_support = (g * pos).sum(axis=1, keepdims=True) / pos.sum(
                axis=1, keepdims=True
            )
            return (np.where(pos, g - mean_on_support, 0.0),)

        tape.record("sparsemax", (z,), out, bwd)
    return out


def glu_reciprocal(x: np.ndarray) -> np.ndarray:
    """The forward `autodiff.glu` ran before it built its sigmoid in one
    buffer, kept verbatim as the bit-identity oracle."""
    half = x.shape[1] // 2
    a, gate = x[:, :half], x[:, half:]
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-gate))
    return a * sig


def glu_backward_reference(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The backward `autodiff.glu` ran before it wrote into its output
    halves, kept verbatim as the bit-identity oracle."""
    half = x.shape[1] // 2
    a = x[:, :half]
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-x[:, half:]))
    gx = np.empty_like(x)
    gx[:, :half] = g * sig
    gx[:, half:] = g * a * sig * (1.0 - sig)
    return gx


def batch_norm_train_reference(bn, x: np.ndarray):
    """Train-mode forward of `autodiff.BatchNorm` as it ran before it wrote
    chunks into preallocated buffers, kept verbatim as the bit-identity
    oracle: ``chunk.mean``, a fresh array per step, and a backward of fresh
    temporaries. Reads ``bn``'s gamma, beta, eps, momentum and virtual
    batch, updates its running statistics, and returns the output and the
    backward ``g -> (dx, dgamma, dbeta)``."""
    gamma, beta = bn.gamma.data.copy(), bn.beta.data.copy()
    n_rows = x.shape[0]
    vb = bn.virtual_batch or n_rows
    out = np.empty_like(x)
    chunks = []
    for start in range(0, n_rows, vb):
        stop = min(start + vb, n_rows)
        chunk = x[start:stop]
        mean = chunk.mean(axis=0)
        d = chunk - mean
        var = (d * d).sum(axis=0) / len(chunk)
        inv = 1.0 / np.sqrt(var + bn.eps)
        xhat = d * inv
        out[start:stop] = xhat * gamma + beta
        chunks.append((start, stop, xhat, inv))
        m = bn.momentum
        bn.running_mean[...] = (1.0 - m) * bn.running_mean + m * mean
        bn.running_var[...] = (1.0 - m) * bn.running_var + m * var

    def backward(g):
        gx = np.empty_like(g)
        dgamma = np.zeros_like(gamma)
        dbeta = np.zeros_like(beta)
        for start, stop, xhat, inv in chunks:
            gc = g[start:stop]
            n = stop - start
            dbeta += gc.sum(axis=0)
            dgamma += (gc * xhat).sum(axis=0)
            dxhat = gc * gamma
            gx[start:stop] = (inv / n) * (
                n * dxhat
                - dxhat.sum(axis=0)
                - xhat * (dxhat * xhat).sum(axis=0)
            )
        return gx, dgamma, dbeta

    return out, backward


class AdamReference:
    """`autodiff.Adam` as it ran before it kept one flat vector: one m and
    one v array per parameter and five numpy statements per parameter per
    step, kept verbatim as the bit-identity oracle. Updates the given
    parameters' own ``data`` arrays in place and never rebinds them."""

    def __init__(self, params, lr=0.02, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def sparsemax_margin(z: np.ndarray) -> float:
    """Distance of the closest coordinate to its row's support boundary;
    inputs this close to a kink make finite differences invalid."""
    out = sparsemax(None, Tensor(z)).data
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    margin = np.inf
    for b in range(z.shape[0]):
        support = out[b] > 0
        tau = (shifted[b][support].sum() - 1.0) / support.sum()
        margin = min(margin, np.abs(shifted[b] - tau).min())
    return float(margin)


# --------------------------------------------------- per-op FD case registry


def _away_from(rng, shape, kink, clearance=2e-3):
    """Normal draw resampled until no entry sits within `clearance` of the
    kink location(s), keeping central differences on one smooth branch."""
    kinks = np.atleast_1d(np.asarray(kink, dtype=np.float64))
    while True:
        x = rng.normal(size=shape)
        dist = np.min(np.abs(x[..., None] - kinks), axis=-1)
        if dist.min() > clearance:
            return x


def _sparsemax_safe(rng, shape, clearance=2e-3):
    while True:
        z = rng.normal(scale=2.0, size=shape)
        if sparsemax_margin(z) > clearance:
            return z


def op_fd_cases(rng):
    """One kink-safe random FD case per differentiable primitive.

    Returns a list of (name, build_loss, params); build_loss(tape) rebuilds
    the scalar loss from current parameter values.
    """
    from attentab import autodiff as ad

    B, F = 3, 4
    cases = []

    def add_case(name, op, x_data, out_shape=None):
        x = ad.Parameter(x_data)
        w = rng.normal(size=out_shape if out_shape is not None else x_data.shape)
        cases.append((name, weighted_sum_loss(op, x, w), [x]))

    x0 = ad.Parameter(rng.normal(size=(B, F)))
    w0 = ad.Parameter(rng.normal(size=(F, 2)))
    b0 = ad.Parameter(rng.normal(size=2))
    wsum = ad.Tensor(rng.normal(size=(B, 2)))

    def linear_loss(tape):
        return reduce_sum(tape, ad.mul(tape, ad.linear(tape, x0, w0, b0), wsum))

    cases.append(("linear", linear_loss, [x0, w0, b0]))

    add_case("relu", ad.relu, _away_from(rng, (B, F), 0.0))
    add_case("glu", ad.glu, rng.normal(size=(B, 2 * F)), out_shape=(B, F))
    xglu = ad.Parameter(rng.normal(size=(B, 2 * F)))
    res = ad.Parameter(rng.normal(size=(B, F)))
    wglu = ad.Tensor(rng.normal(size=(B, F)))

    def glu_residual_loss(tape):
        return reduce_sum(tape, ad.mul(tape, ad.glu(tape, xglu, residual=res), wglu))

    cases.append(("glu_residual", glu_residual_loss, [xglu, res]))
    add_case("sparsemax", ad.sparsemax, _sparsemax_safe(rng, (B, F)))
    add_case("softmax_logprob", ad.softmax_logprob, rng.normal(size=(B, F)))

    y0 = ad.Parameter(rng.normal(size=(B, F)))
    y1 = ad.Parameter(rng.normal(size=(B, F)))
    wpair = ad.Tensor(rng.normal(size=(B, F)))
    for name, op2 in (("add", ad.add), ("mul", ad.mul)):
        def pair_loss(tape, op2=op2):
            return reduce_sum(tape, ad.mul(tape, op2(tape, y0, y1), wpair))

        cases.append((name, pair_loss, [y0, y1]))

    add_case("scale", lambda t, x: ad.scale(t, x, -1.7), rng.normal(size=(B, F)))
    keep = rng.random((B, F)) > 0.4
    add_case("mask_fill", lambda t, x: mask_fill(t, x, keep, -3.0), rng.normal(size=(B, F)))

    # two tables of different widths around a continuous column; each table
    # reads one of its rows twice, so the scatter-add must accumulate
    t0 = ad.Parameter(rng.normal(size=(5, 2)))
    t1 = ad.Parameter(rng.normal(size=(4, 3)))
    codes0 = rng.integers(0, 5, size=B)
    codes0[1] = codes0[0]
    codes1 = rng.integers(0, 4, size=B)
    codes1[2] = codes1[0]
    cont = rng.normal(size=B)
    wemb = ad.Tensor(rng.normal(size=(B, 6)))

    def embed_loss(tape):
        out = ad.embed_columns(tape, [t0, None, t1], [codes0, cont, codes1])
        return reduce_sum(tape, ad.mul(tape, out, wemb))

    cases.append(("embed_columns", embed_loss, [t0, t1]))

    add_case("slice_cols", lambda t, x: ad.slice_cols(t, x, 1, 3), rng.normal(size=(B, F)), out_shape=(B, 2))

    bn = ad.BatchNorm(F, name="fd_bn_train")
    bn.running_mean[...] = rng.normal(size=F)
    bn.running_var[...] = 0.5 + rng.random(F)
    xbn = ad.Parameter(rng.normal(size=(6, F)))
    wbn = ad.Tensor(rng.normal(size=(6, F)))

    def bn_loss(tape):
        return reduce_sum(tape, ad.mul(tape, bn(tape, xbn), wbn))

    cases.append(("batch_norm_train", bn_loss, [xbn, bn.gamma, bn.beta]))

    # the first step's prior (None, all ones) and a later one; masks and
    # priors in [0, 1] as the decision steps make them
    mask = ad.Parameter(rng.random((B, F)))
    prior = ad.Parameter(rng.random((B, F)))
    wprior = ad.Tensor(rng.normal(size=(B, F)))
    for name, given in (("relax_prior_first", None), ("relax_prior_later", prior)):
        def prior_loss(tape, given=given):
            return reduce_sum(tape, ad.mul(tape, ad.relax_prior(tape, given, mask, 1.3), wprior))

        cases.append((name, prior_loss, [mask] if given is None else [prior, mask]))

    # a prior in (0, 1], and one with exact zeros in every row; as in the
    # mean_entropy cases below, the zeros come from a mask_fill, so no
    # central difference crosses the exclusion, and the excluded scores
    # (at EXCLUDED_SCORE) weigh nothing, so they do not swamp the loss
    scores = ad.Parameter(rng.normal(size=(B, F)))
    relaxed = ad.Parameter(rng.uniform(0.05, 1.0, size=(B, F)))
    exhausted = ad.Parameter(rng.uniform(0.05, 1.0, size=(B, F)))
    unspent = rng.random((B, F)) > 0.3
    unspent[:, 0] = False
    for name, prior, wscores in (
        ("apply_prior_relaxed", relaxed, rng.normal(size=(B, F))),
        ("apply_prior_exhausted", exhausted, rng.normal(size=(B, F)) * unspent),
    ):
        def apply_prior_loss(tape, prior=prior, wscores=ad.Tensor(wscores)):
            if prior is exhausted:
                prior = mask_fill(tape, prior, unspent, 0.0)
            return reduce_sum(tape, ad.mul(tape, ad.apply_prior(tape, prior, scores), wscores))

        cases.append((name, apply_prior_loss, [prior, scores]))

    # masks with exact zeros in every row, over one step and three; the
    # zeros come from a mask_fill, which passes no gradient there, so no
    # central difference steps below zero (sparsemax would hide a gradient
    # error that is constant over a row's support)
    for n_steps in (1, 3):
        entries = [ad.Parameter(rng.uniform(0.05, 1.0, size=(B, F))) for _ in range(n_steps)]
        kept = [rng.random((B, F)) > 0.4 for _ in range(n_steps)]
        for k in kept:
            k[:, 0], k[:, 1] = False, True

        def entropy_loss(tape, entries=entries, kept=kept):
            masks = [mask_fill(tape, p, k, 0.0) for p, k in zip(entries, kept)]
            return ad.mean_entropy(tape, masks, 1e-10)

        cases.append((f"mean_entropy_{n_steps}_steps", entropy_loss, entries))

    return cases


# ----------------------------------------------- layered forward reference
#
# The layer-by-layer forward of both modes as it ran before train and eval
# mode shared one step loop, kept as the equivalence oracle: one embedding
# record per categorical column joined by a concat_cols, the all-ones prior
# before the first step, the prior update as a scale, an add_const and a
# mul, each residual as an add and a scale after the GLU, the attentive
# transformer applying the prior as a mul and a mask_fill, and each step's
# mask entropy as an add_const, log, mul and reduce_sum. Train mode runs
# the layers' train batch norm on the given tape and must match the model bit
# for bit. Eval mode writes out the old `BatchNorm` eval formula, so the
# oracle shares no arithmetic with the folded `_EvalPlan`.


def reference_batch_norm(bn, x, tape=None, training=False):
    if training:
        return bn(tape, x)
    inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
    xhat = (x.data - bn.running_mean) * inv
    return Tensor(xhat * bn.gamma.data + bn.beta.data)


def reference_glu_block(block, x, tape=None, training=False):
    return glu(tape, reference_batch_norm(block.bn, block.fc(tape, x), tape, training))


def reference_feature_transformer(ft, x, tape=None, training=False):
    h = reference_glu_block(ft[0], x, tape, training)
    for block in ft[1:]:
        h = scale(tape, add(tape, reference_glu_block(block, h, tape, training), h), SQRT_HALF)
    return h


def reference_attentive(att, a_prev, prior, tape=None, training=False):
    h = reference_batch_norm(att.bn, att.fc(tape, a_prev), tape, training)
    scores = mul(tape, prior, h)
    keep = prior.data > 0.0
    if not keep.all():
        scores = mask_fill(tape, scores, keep, EXCLUDED_SCORE)
    return sparsemax(tape, scores)


def reference_embed(model, X: np.ndarray, tape=None) -> Tensor:
    parts: list[Tensor] = []
    for (name, kind, _), col in zip(model._columns, model._column_values(X)):
        if kind == KIND_CONTINUOUS:
            parts.append(Tensor(col[:, None].copy()))
        else:
            parts.append(embedding(tape, model.embeddings[name], col))
    return concat_cols(tape, parts)


def reference_forward(model, X: np.ndarray, tape=None, training=False) -> ForwardOutput:
    """Full pipeline: embed, normalize, then n_steps masked decision steps."""
    cfg = model.config
    feats = reference_batch_norm(model.input_bn, reference_embed(model, X, tape), tape, training)
    B = feats.data.shape[0]

    split = reference_feature_transformer(model.transformers[0], feats, tape, training)
    a_prev = slice_cols(tape, split, cfg.n_d, cfg.n_d + cfg.n_a)
    prior = Tensor(np.ones((B, model.d_model)))

    masks: list[Tensor] = []
    decisions: list[Tensor] = []
    agg: Tensor | None = None
    entropy_sum: Tensor | None = None
    for i in range(cfg.n_steps):
        mask = reference_attentive(model.attentives[i], a_prev, prior, tape, training)
        prior = mul(tape, prior, add_const(tape, scale(tape, mask, -1.0), cfg.gamma_relax))
        masks.append(mask)

        masked = mul(tape, mask, feats)
        out = reference_feature_transformer(model.transformers[i + 1], masked, tape, training)
        d = relu(tape, slice_cols(tape, out, 0, cfg.n_d))
        a_prev = slice_cols(tape, out, cfg.n_d, cfg.n_d + cfg.n_a)
        decisions.append(d)
        agg = d if agg is None else add(tape, agg, d)

        ent = reduce_sum(tape, mul(tape, mask, log(tape, add_const(tape, mask, SPARSITY_EPS))))
        entropy_sum = ent if entropy_sum is None else add(tape, entropy_sum, ent)

    logits = model.final(tape, agg)
    sparsity = scale(tape, entropy_sum, -1.0 / (cfg.n_steps * B))
    return ForwardOutput(logits=logits, masks=masks, decisions=decisions, sparsity=sparsity)


def table_from_rows(columns: Sequence[str], rows: Sequence[Sequence[str | None]]) -> RawTable:
    """A column-major RawTable from row literals, transposed the way
    `load_csv` transposes a file's rows; no rows give one empty column per
    name, as a header-only file does."""
    cells = list(zip(*rows, strict=True)) if rows else [()] * len(columns)
    return RawTable(columns=list(columns), cells=cells, n_rows=len(rows))


# Cardinalities of the pump table's categorical columns (funder, installer,
# ward, lga, region, basin, ...), Zipf-skewed like them.
PUMP_CARDINALITIES = (
    2000, 1800, 1500, 1200, 900, 600, 400, 250, 125, 65, 37, 21, 20,
    18, 14, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 3,
)


def write_pump_shaped_csvs(values_path, labels_path, n_rows: int, seed: int = 0) -> None:
    """A values/labels CSV pair shaped like the pump table: an ``id``, 10
    continuous and 26 Zipf-skewed categorical columns with 3% of feature
    cells missing, and a ``status_group`` label file in its own row order."""
    rng = np.random.default_rng(seed)
    columns = [np.char.mod("%.4f", rng.normal(0.0, 10.0 ** (j % 4), n_rows)) for j in range(10)]
    for j, k in enumerate(PUMP_CARDINALITIES):
        p = 1.0 / np.arange(1, k + 1) ** 1.1
        columns.append(np.char.add(f"cat_{j}_v", rng.choice(k, n_rows, p=p / p.sum()).astype(str)))
    cells = np.stack(columns, axis=1).astype(object)
    cells[rng.random(cells.shape) < 0.03] = ""
    ids = rng.permutation(10 * n_rows)[:n_rows].astype(str)
    header = ["id"] + [f"num_{j}" for j in range(10)] + [f"cat_{j}" for j in range(26)]
    classes = ["functional", "non functional", "functional needs repair"]
    labels = rng.choice(classes, n_rows, p=[0.543, 0.384, 0.073])
    order = rng.permutation(n_rows)
    for path, head, body in (
        (values_path, header, np.column_stack([ids, cells])),
        (labels_path, ["id", "status_group"], np.column_stack([ids[order], labels[order]])),
    ):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(head)
            out.writerows(body.tolist())


# ------------------------------------------- per-cell preprocessing reference
#
# The per-cell `fit_schema`/`encode` that the hash-per-column versions in
# `attentab.data` replaced, kept verbatim as the equivalence oracle: both must
# produce the same schema JSON and byte-equal arrays, and raise the same error
# class and message, on every input.

def _looks_float_formatted(value: str) -> bool:
    return any(ch in value for ch in ".eE")


def _parses_finite_float(value: str) -> bool:
    try:
        f = float(value)
    except ValueError:
        return False
    return np.isfinite(f)


def _infer_kind(values: list[str | None], distinct_threshold: int) -> str:
    """Continuous iff every present value parses as a finite float and the
    column either uses decimal/scientific notation somewhere or has more
    distinct values than the threshold; categorical otherwise."""
    present = [v for v in values if v is not None]
    if not present:
        return KIND_CATEGORICAL
    if not all(_parses_finite_float(v) for v in present):
        return KIND_CATEGORICAL
    if any(_looks_float_formatted(v) for v in present):
        return KIND_CONTINUOUS
    if len(set(present)) > distinct_threshold:
        return KIND_CONTINUOUS
    return KIND_CATEGORICAL


def _modal_value(present: list[str], order: list[str]) -> str:
    counts = Counter(present)
    best = max(counts.values())
    for v in order:  # deterministic tie-break: first appearance wins
        if counts[v] == best:
            return v
    raise AssertionError("unreachable")


def reference_fit_schema(
    table: RawTable,
    target_column: str,
    drop_threshold: float = 0.5,
    *,
    encode_order: str = "first-appearance",
    impute_strategy: str = "mode",
    id_columns: tuple[str, ...] = ("id",),
    continuous_distinct_threshold: int = 100,
) -> FeatureSchema:
    """Fit per-column metadata from a training table.

    Columns whose missing fraction exceeds ``drop_threshold`` are dropped.
    Remaining columns with missing values get an imputation value: the modal
    value under the ``mode`` strategy, or the median (continuous columns
    only) under ``median``. Categorical encodings are assigned by first
    appearance, or alphabetically when ``encode_order="alphabetical"``.
    """
    if target_column not in table.columns:
        raise SchemaError(f"target column {target_column!r} not found in table")
    if encode_order not in ("first-appearance", "alphabetical"):
        raise ConfigError(f"unknown encode_order {encode_order!r}")
    if impute_strategy not in ("mode", "median"):
        raise ConfigError(f"unknown impute_strategy {impute_strategy!r}")
    if table.n_rows == 0:
        raise SchemaError("cannot fit a schema on an empty table")

    columns: list[ColumnSchema] = []
    for name in table.columns:
        values = table.column(name)
        n_missing = sum(1 for v in values if v is None)
        missing_fraction = n_missing / len(values)
        present = [v for v in values if v is not None]

        if name == target_column:
            if n_missing:
                raise SchemaError(f"target column {name!r} has {n_missing} missing values")
            columns.append(ColumnSchema(name=name, kind=KIND_TARGET))
            continue
        if name in id_columns:
            columns.append(
                ColumnSchema(
                    name=name,
                    kind=KIND_DROP,
                    missing_fraction=missing_fraction,
                    drop_reason="identifier column",
                )
            )
            continue

        kind = _infer_kind(values, continuous_distinct_threshold)
        if not present:
            import logging

            logging.getLogger(__name__).warning(
                "column %r has no observed values; dropping it", name
            )
            columns.append(
                ColumnSchema(
                    name=name,
                    kind=KIND_DROP,
                    missing_fraction=1.0,
                    drop_reason="all values missing",
                    inferred_kind=kind,
                )
            )
            continue
        if missing_fraction > drop_threshold:
            columns.append(
                ColumnSchema(
                    name=name,
                    kind=KIND_DROP,
                    missing_fraction=missing_fraction,
                    drop_reason=(
                        f"missing fraction {missing_fraction:.4f} exceeds "
                        f"threshold {drop_threshold}"
                    ),
                    inferred_kind=kind,
                )
            )
            continue

        first_seen: list[str] = []
        seen = set()
        for v in present:
            if v not in seen:
                seen.add(v)
                first_seen.append(v)

        imputation = None
        if n_missing:
            if impute_strategy == "median" and kind == KIND_CONTINUOUS:
                med = float(np.median([float(v) for v in present]))
                imputation = repr(med)
            else:
                imputation = _modal_value(present, first_seen)

        if kind == KIND_CONTINUOUS:
            columns.append(
                ColumnSchema(
                    name=name,
                    kind=kind,
                    imputation=imputation,
                    missing_fraction=missing_fraction,
                )
            )
        else:
            ordered = sorted(first_seen) if encode_order == "alphabetical" else first_seen
            encoding = {v: i for i, v in enumerate(ordered)}
            columns.append(
                ColumnSchema(
                    name=name,
                    kind=kind,
                    cardinality=len(encoding),
                    encoding=encoding,
                    imputation=imputation,
                    missing_fraction=missing_fraction,
                )
            )

    observed_labels = sorted(set(table.column(target_column)))  # type: ignore[arg-type]
    return FeatureSchema(
        columns=columns,
        target=target_column,
        labels=observed_labels,
        drop_threshold=drop_threshold,
        encode_order=encode_order,
        impute_strategy=impute_strategy,
        id_columns=list(id_columns),
        continuous_distinct_threshold=continuous_distinct_threshold,
    )


def reference_encode(table: RawTable, schema: FeatureSchema) -> EncodedDataset:
    """Apply a fitted schema: impute, encode categoricals, map labels.

    Unseen categorical values map to a reserved code equal to the fitted
    cardinality. No missing values survive (asserted by construction).
    """
    active = schema.feature_columns()
    n = table.n_rows
    features = np.empty((n, len(active)), dtype=np.float64)
    for j, col in enumerate(active):
        values = table.column(col.name)
        out = features[:, j]
        if col.kind == KIND_CONTINUOUS:
            for i, v in enumerate(values):
                if v is None:
                    v = col.imputation
                    if v is None:
                        raise EncodingError(
                            f"column {col.name!r}: missing value but no imputation fitted"
                        )
                try:
                    out[i] = float(v)
                except ValueError:
                    raise EncodingError(
                        f"column {col.name!r}: cannot parse {v!r} as a number"
                    ) from None
            for i, v in enumerate(values):
                if not np.isfinite(out[i]):
                    v = col.imputation if v is None else v
                    raise EncodingError(f"column {col.name!r}: non-finite value {v!r}")
        else:
            enc = col.encoding or {}
            reserved = col.cardinality
            for i, v in enumerate(values):
                if v is None:
                    v = col.imputation
                    if v is None:
                        raise EncodingError(
                            f"column {col.name!r}: missing value but no imputation fitted"
                        )
                out[i] = enc.get(v, reserved)

    label_to_code = {name: i for i, name in enumerate(schema.labels)}
    labels = np.empty(n, dtype=np.int64)
    for i, v in enumerate(table.column(schema.target)):
        if v is None or v not in label_to_code:
            raise LabelError(f"unknown label {v!r} at row {i}")
        labels[i] = label_to_code[v]
    class_counts = np.bincount(labels, minlength=len(schema.labels)).astype(np.int64)
    return EncodedDataset(
        features=features, labels=labels, class_counts=class_counts, schema=schema
    )
