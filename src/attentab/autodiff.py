"""Reverse-mode differentiable computation over float64 numpy arrays.

Every operation takes an optional :class:`Tape` as its first argument and
returns a fresh :class:`Tensor`. When a tape is given, the op appends one
record (inputs, output, backward closure) to it; records are appended in
execution order, so a single reverse sweep propagates gradients without an
explicit topological sort. Passing ``tape=None`` runs the forward math only,
which is how inference avoids bookkeeping.

All data is float64. Gradient correctness of every op is pinned by central
finite differences in the test suite.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import BatchTooSmallError, ConfigError, GraphError, NumericsError, ShapeError


class Tensor:
    """Dense float64 array node in a recorded computation."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Parameter(Tensor):
    """Trainable leaf: holds its value, an accumulated gradient, and a name."""

    __slots__ = ("grad", "name")

    def __init__(self, data, name: str = ""):
        super().__init__(data)
        self.grad = np.zeros_like(self.data)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


# A model's ordered ``name -> array`` registry: every trainable Parameter
# and every persisted buffer, in construction order.
Registry = dict[str, Parameter | np.ndarray]


def register(registry: Registry | None, value, name: str | None = None):
    """Add ``value`` (a :class:`Parameter`, keyed by its own name, or a
    buffer keyed by ``name``) to ``registry`` and return it.

    Each array is registered once, by the constructor that creates it, so a
    borrowed (shared) array is never listed twice and a repeated name is a
    wiring error. ``registry=None`` leaves a standalone layer unregistered.
    """
    if registry is not None:
        key = value.name if isinstance(value, Parameter) else name
        if key in registry:
            raise ConfigError(f"array {key!r} registered twice")
        registry[key] = value
    return value


class _Record:
    __slots__ = ("op", "inputs", "output", "backward")

    def __init__(self, op, inputs, output, backward):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward = backward


class Tape:
    """Append-only list of operation records from one forward pass.

    Records are stored in execution order, so every input node precedes its
    consumers and ``backward`` can sweep the list once in reverse. Gradients
    of trainable :class:`Parameter` leaves accumulate into ``.grad``, which
    lets shared parameters (used by several records) collect contributions
    from every use.
    """

    def __init__(self):
        self._records: list[_Record] = []

    def __len__(self) -> int:
        return len(self._records)

    def record(
        self,
        op: str,
        inputs: Sequence[Tensor],
        output: Tensor,
        backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    ) -> None:
        self._records.append(_Record(op, tuple(inputs), output, backward))

    def backward(self, loss: Tensor) -> None:
        """Propagate d(loss)/d(node) to every trainable parameter on the tape."""
        if loss.data.size != 1:
            raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
        grads: dict[int, tuple[Tensor, np.ndarray]] = {
            id(loss): (loss, np.ones_like(loss.data))
        }
        for rec in reversed(self._records):
            entry = grads.pop(id(rec.output), None)
            if entry is None:
                continue  # dead branch: output never reached the loss
            for node, g in zip(rec.inputs, rec.backward(entry[1])):
                if g is None:
                    continue
                held = grads.get(id(node))
                grads[id(node)] = (node, g if held is None else held[1] + g)
        for node, g in grads.values():
            if isinstance(node, Parameter):
                node.grad += g


def _as2d(name: str, op: str, t: Tensor) -> np.ndarray:
    if t.data.ndim != 2:
        raise ShapeError(f"{op}: {name} must be 2-d, got shape {t.shape}")
    return t.data


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not match")


# ---------------------------------------------------------------------------
# layer primitives


def linear(tape: Tape | None, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x of shape [B, In], w [In, Out], b [Out]."""
    xd = _as2d("x", "linear", x)
    wd = _as2d("w", "linear", w)
    if xd.shape[1] != wd.shape[0]:
        raise ShapeError(
            f"linear: x has shape {x.shape} but w expects {wd.shape[0]} input columns "
            f"(w shape {w.shape})"
        )
    if b.data.shape != (wd.shape[1],):
        raise ShapeError(f"linear: b has shape {b.shape}, expected ({wd.shape[1]},)")
    z = xd @ wd
    z += b.data
    out = Tensor(z)
    if tape is not None:
        def bwd(g):
            return g @ wd.T, xd.T @ g, g.sum(axis=0)

        tape.record("linear", (x, w, b), out, bwd)
    return out


def relu(tape: Tape | None, x: Tensor) -> Tensor:
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0))
    if tape is not None:
        tape.record("relu", (x,), out, lambda g: (g * mask,))
    return out


SQRT_HALF = math.sqrt(0.5)


def glu(tape: Tape | None, x: Tensor, residual: Tensor | None = None) -> Tensor:
    """Gated linear unit on the last axis: first half times sigmoid of second half.

    With a ``residual`` r the output is the residual block ``(a * sig + r)
    * sqrt(0.5)``, built in the one output buffer and recorded once; its
    backward hands r the incoming gradient times sqrt(0.5), and the gate
    the same scaled gradient, as an add record followed by a scale gives.
    """
    xd = _as2d("x", "glu", x)
    if xd.shape[1] % 2 != 0:
        raise ShapeError(f"glu: last dimension must be even, got shape {x.shape}")
    half = xd.shape[1] // 2
    a, gate = xd[:, :half], xd[:, half:]
    # exp(-gate) overflows to inf for gates below about -709; 1 / (1 + inf)
    # is then 0.0, within 1e-307 of the true sigmoid, so the overflow is
    # expected and its warning would only read like a numeric failure. The
    # sigmoid 1 / (1 + exp(-gate)) is built in one buffer.
    sig = np.negative(gate)
    with np.errstate(over="ignore"):
        np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    out = a * sig
    if residual is not None:
        if residual.shape != out.shape:
            raise ShapeError(f"glu: residual has shape {residual.shape}, expected {out.shape}")
        out += residual.data
        out *= SQRT_HALF
    result = Tensor(out)
    if tape is not None:
        def bwd(g):
            if residual is not None:
                g = g * SQRT_HALF
            gx = np.empty_like(xd)
            np.multiply(g, sig, out=gx[:, :half])
            # g * a * sig * (1 - sig), left to right, in one contiguous
            # buffer: in-place ops on the strided half run slower
            ggate = g * a
            ggate *= sig
            ggate *= 1.0 - sig
            gx[:, half:] = ggate
            return (gx,) if residual is None else (gx, g)

        tape.record("glu", (x,) if residual is None else (x, residual), result, bwd)
    return result


# Sparsemax looks for each row's support in its SPARSEMAX_LEAD largest
# scores first and widens only the rows whose support may reach past them.
# TabNet masks keep few columns: on pump-shaped eval blocks a lead of 16 sent
# 75% of a served model's rows to the full width, while 32 sent almost none.
SPARSEMAX_LEAD = 32
# Relative margin, against 1 + |sum of the lead scores|, by which the support
# test must fail at the last lead column before a row's support counts as
# ending there. Past that column the float test can only pass again through
# rounding, of order width**2 * 2**-52 in the same units, far below it.
SUPPORT_SLACK = 1e-9


def _support_threshold(z_sorted: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort-rule threshold ``tau`` of each row of descending scores, with
    both sides of the support test at the last column, ``1 + k * z_(k)``
    and the sum of the k largest."""
    cumsum = np.cumsum(z_sorted, axis=1)
    ranks = np.arange(1, z_sorted.shape[1] + 1, dtype=np.float64)
    # support test 1 + k * z_(k) > sum of the k largest, in one buffer
    support = np.multiply(ranks, z_sorted)
    support += 1.0
    k = np.count_nonzero(np.greater(support, cumsum), axis=1)
    tau = (cumsum[np.arange(z_sorted.shape[0]), k - 1] - 1.0) / k
    return tau, support[:, -1], cumsum[:, -1]


def sparsemax(tape: Tape | None, z: Tensor) -> Tensor:
    """Row-wise Euclidean projection onto the probability simplex.

    Rows come back non-negative, summing to one, and typically sparse.
    The backward routes gradient only through the support set: on support,
    g minus the support mean of g; zero elsewhere.

    The threshold follows the sort rule of Martins & Astudillo (2016): with
    the scores sorted in decreasing order, the support size k counts the
    columns where ``1 + k * z_(k) > z_(1) + ... + z_(k)``, and ``tau =
    (z_(1) + ... + z_(k) - 1) / k``. The rule runs on the
    ``SPARSEMAX_LEAD`` leading sorted columns of every row. A row whose test
    holds at the last of them, or fails there by less than
    ``SUPPORT_SLACK``, runs it again over its full width, and that ``tau``
    replaces the lead one. The result equals the full-width computation bit
    for bit:

    * Without rounding the test reads ``sum over i <= k of (z_(i) - z_(k))
      < 1``. The sum never falls as k grows, so a row whose test fails at
      column ``SPARSEMAX_LEAD`` has no support past it.
    * ``np.cumsum`` adds in sequence, so the lead block's partial sums are
      the same floats as the first ``SPARSEMAX_LEAD`` of the full width's,
      and every test and ``tau`` of a row whose support ends in the lead
      is computed from the same floats as over the full width.
    * Rounding can let the test pass again past a column where it failed
      by an ulp or so (scores tied at the threshold), and the full width
      counts such columns. Rows that close to passing at the last lead
      column take the full width, which is why ``SUPPORT_SLACK`` exists.

    A row of width at most ``SPARSEMAX_LEAD`` takes the one full-width pass.
    """
    zd = _as2d("z", "sparsemax", z)
    z_sorted = np.sort(zd, axis=1)  # NaN sorts last, so both ends show a non-finite row
    if not np.isfinite(z_sorted[:, [0, -1]]).all():
        # non-finite scores mean upstream state has already gone numerically
        # bad; classify as a numeric failure, not a programming error
        raise NumericsError("sparsemax: input must be finite")
    # shift-invariant: shift each row by its maximum, its last sorted column,
    # in the columns the rule reads; subtraction is monotone, so it commutes with sorting
    top = z_sorted[:, -1:].copy()
    lead = z_sorted[:, -SPARSEMAX_LEAD:]
    lead -= top
    tau, lhs, total = _support_threshold(lead[:, ::-1])
    if zd.shape[1] > SPARSEMAX_LEAD:
        wide = lhs > total - SUPPORT_SLACK * (1.0 - total)
        if wide.any():
            rows = z_sorted[wide]
            rows[:, :-SPARSEMAX_LEAD] -= top[wide]
            tau[wide] = _support_threshold(rows[:, ::-1])[0]
    shifted = np.subtract(zd, top, out=z_sorted)  # the sort's buffer is free again
    shifted -= tau[:, None]
    out = Tensor(np.maximum(shifted, 0.0, out=shifted))
    if tape is not None:
        pos = out.data > 0

        def bwd(g):
            mean_on_support = (g * pos).sum(axis=1, keepdims=True) / pos.sum(
                axis=1, keepdims=True
            )
            return (np.where(pos, g - mean_on_support, 0.0),)

        tape.record("sparsemax", (z,), out, bwd)
    return out


def softmax_logprob(tape: Tape | None, x: Tensor) -> Tensor:
    """Row-wise log-softmax, computed with max subtraction for stability."""
    xd = _as2d("x", "softmax_logprob", x)
    shifted = xd - xd.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = Tensor(shifted - lse)
    if tape is not None:
        probs = np.exp(out.data)

        def bwd(g):
            return (g - probs * g.sum(axis=1, keepdims=True),)

        tape.record("softmax_logprob", (x,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# elementwise and reduction primitives


def add(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    out = Tensor(a.data + b.data)
    if tape is not None:
        tape.record("add", (a, b), out, lambda g: (g, g))
    return out


def mul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    out = Tensor(a.data * b.data)
    if tape is not None:
        ad, bd = a.data, b.data
        tape.record("mul", (a, b), out, lambda g: (g * bd, g * ad))
    return out


def scale(tape: Tape | None, x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c)
    if tape is not None:
        tape.record("scale", (x,), out, lambda g: (g * c,))
    return out


def relax_prior(tape: Tape | None, prior: Tensor | None, mask: Tensor, gamma: float) -> Tensor:
    """The decision-step prior update ``prior * (gamma - mask)`` as one record;
    ``prior=None`` is the all-ones prior before the first step."""
    update = gamma - mask.data
    if prior is not None:
        _same_shape("relax_prior", prior, mask)
        update *= prior.data
    out = Tensor(update)
    if tape is not None and prior is None:
        tape.record("relax_prior", (mask,), out, lambda g: (g * -1.0,))
    elif tape is not None:
        md, pd = mask.data, prior.data
        tape.record("relax_prior", (prior, mask), out, lambda g: (g * (gamma - md), (g * pd) * -1.0))
    return out


# A prior of exactly zero must keep a feature out of the mask even when its
# score would top the row (a zero product wins sparsemax whenever every
# kept score is negative), so exhausted features are pushed far below any
# reachable score instead of relying on the multiplicative zero.
EXCLUDED_SCORE = -1e30


def apply_prior(tape: Tape | None, prior: Tensor | None, scores: Tensor) -> Tensor:
    """A decision step's scores ``prior * scores``, with every feature whose
    prior is not positive set to ``EXCLUDED_SCORE``, as one record;
    ``prior=None`` is the all-ones prior before the first step and passes
    the scores through. The backward zeroes the excluded entries' gradient
    ``g`` and returns ``(g * scores, g * prior)``."""
    if prior is None:
        return scores
    _same_shape("apply_prior", prior, scores)
    pd, sd = prior.data, scores.data
    out = pd * sd
    keep = pd > 0.0
    if keep.all():
        keep = None
    else:
        out[~keep] = EXCLUDED_SCORE
    result = Tensor(out)
    if tape is not None:
        def bwd(g):
            if keep is not None:
                g = g * keep
            return g * sd, g * pd

        tape.record("apply_prior", (prior, scores), result, bwd)
    return result


def mean_entropy(tape: Tape | None, masks: Sequence[Tensor], eps: float) -> Tensor:
    """The mask-entropy penalty ``-(e_1 + ... + e_n) / (n * B)`` over ``n``
    masks of ``B`` rows, ``e_i = sum(M_i * log(M_i + eps))``, as one record.
    Each mask's gradient, ``G * log(M + eps) + (G * M) / (M + eps)`` with
    ``G`` the incoming gradient times ``-1 / (n * B)``, is the float sum a
    chain of add-constant, log, multiply and sum records delivers."""
    c = -1.0 / (len(masks) * masks[0].data.shape[0])
    shifted = [m.data + eps for m in masks]
    logs = [np.log(s) for s in shifted]
    sums = [(m.data * lg).sum() for m, lg in zip(masks, logs)]
    out = Tensor(sum(sums[1:], sums[0]) * c)  # ((e_1 + e_2) + e_3) + ...
    if tape is not None:
        def bwd(g):
            gc = g * c
            return [gc * lg + (gc * m.data) / s for m, lg, s in zip(masks, logs, shifted)]

        tape.record("mean_entropy", masks, out, bwd)
    return out


def embed_columns(
    tape: Tape | None, tables: Sequence[Tensor | None], values: Sequence[np.ndarray]
) -> Tensor:
    """Columns side by side in one block: column j is the row lookup
    ``tables[j][values[j]]`` by codes the caller has checked, or ``values[j]``
    itself where ``tables[j]`` is None. One record covers every
    :class:`Parameter` table; its backward scatter-adds each table's rows
    with ``np.bincount`` over the flat indices ``code * width + k``, which
    sums in row order, as a sequential ``np.add.at`` does."""
    widths = [1 if t is None else t.data.shape[1] for t in tables]
    out = np.empty((len(values[0]), sum(widths)))
    learned = []  # (table, first column, codes) per Parameter table
    start = 0
    for table, col, width in zip(tables, values, widths, strict=True):
        if table is None:
            out[:, start] = col
        else:
            out[:, start : start + width] = table.data[col]
            if isinstance(table, Parameter):
                learned.append((table, start, col))
        start += width
    result = Tensor(out)
    if tape is not None and learned:
        def bwd(g):
            grads = []
            for table, start, codes in learned:
                rows, width = table.data.shape
                flat = (codes[:, None] * width + np.arange(width)).ravel()
                part = g[:, start : start + width].ravel()
                grads.append(np.bincount(flat, part, rows * width).reshape(rows, width))
            return grads

        tape.record("embed_columns", [t for t, _, _ in learned], result, bwd)
    return result


def slice_cols(tape: Tape | None, x: Tensor, start: int, stop: int) -> Tensor:
    xd = _as2d("x", "slice_cols", x)
    if not (0 <= start <= stop <= xd.shape[1]):
        raise ShapeError(f"slice_cols: [{start}:{stop}] out of range for shape {x.shape}")
    out = Tensor(xd[:, start:stop].copy())
    if tape is not None:
        shape = xd.shape

        def bwd(g):
            gx = np.zeros(shape)
            gx[:, start:stop] = g
            return (gx,)

        tape.record("slice_cols", (x,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# batch normalization


class BatchNorm:
    """Per-feature normalization with running statistics.

    A call (train mode) normalizes each virtual batch (a fixed-size chunk of
    rows; the trailing remainder forms its own chunk) to zero mean and unit
    variance before the affine map, and folds the chunk statistics into the
    running estimates with the given momentum. ``virtual_batch=None`` means
    one chunk spanning the whole batch. Eval mode is the affine map of
    :meth:`eval_affine` over the running statistics, whose variance is the
    biased (1/n) estimate, so with momentum 1.0 it reproduces the call.
    """

    def __init__(
        self,
        num_features: int,
        eps: float = 1e-5,
        momentum: float = 0.01,
        virtual_batch: int | None = None,
        name: str = "bn",
        affine: "tuple[Parameter, Parameter] | None" = None,
        registry: Registry | None = None,
    ):
        if virtual_batch is not None and virtual_batch < 1:
            raise ConfigError(f"virtual_batch must be >= 1, got {virtual_batch}")
        if affine is None:
            self.gamma = Parameter(np.ones(num_features), name=f"{name}.gamma")
            self.beta = Parameter(np.zeros(num_features), name=f"{name}.beta")
            register(registry, self.gamma)
            register(registry, self.beta)
        else:
            # gamma/beta borrowed from another layer: running statistics stay
            # local to this call site, the trainable scale/shift are shared
            self.gamma, self.beta = affine
            if self.gamma.data.shape != (num_features,):
                raise ShapeError(
                    f"batch_norm {name}: shared affine has {self.gamma.data.shape[0]} "
                    f"features, expected {num_features}"
                )
        # plain arrays, updated in place so registry entries stay live
        self.running_mean = register(registry, np.zeros(num_features), f"{name}.running_mean")
        self.running_var = register(registry, np.ones(num_features), f"{name}.running_var")
        self.eps = eps
        self.momentum = momentum
        self.virtual_batch = virtual_batch
        self.name = name

    def eval_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """Eval mode as ``x * scale + shift``: with s = gamma / sqrt(running_var
        + eps), scale is s and shift is beta - running_mean * s. A linear layer
        before the norm folds it in as weights W * s and bias b * s + shift."""
        s = self.gamma.data / np.sqrt(self.running_var + self.eps)
        return s, self.beta.data - self.running_mean * s

    def __call__(self, tape: Tape | None, x: Tensor) -> Tensor:
        xd = _as2d("x", "batch_norm", x)
        if xd.shape[1] != self.gamma.data.shape[0]:
            raise ShapeError(
                f"batch_norm {self.name}: got {xd.shape[1]} features, "
                f"expected {self.gamma.data.shape[0]}"
            )
        n_rows = xd.shape[0]
        if n_rows < 2:
            raise BatchTooSmallError(
                f"batch_norm {self.name}: train mode needs at least 2 rows, got {n_rows}"
            )
        vb = self.virtual_batch or n_rows
        gamma, beta, m = self.gamma.data, self.beta.data, self.momentum
        # Each chunk is written straight into its rows of ``out`` through
        # one chunk-sized ``xhat`` buffer; every value is the float sequence
        # of the textbook formulas (chunk.mean, np.var, (x - mean) * inv *
        # gamma + beta). The tape keeps each chunk's mean and inv, not
        # xhat: the backward rebuilds it from x by the same two operations,
        # so a train step holds one batch-sized array per norm, not two.
        out = np.empty_like(xd)
        rows = min(vb, n_rows)
        xhat = np.empty((rows, xd.shape[1]))
        chunks = []  # (start, stop, mean, inv_std)
        for start in range(0, n_rows, vb):
            stop = min(start + vb, n_rows)
            chunk, o, xh = xd[start:stop], out[start:stop], xhat[: stop - start]
            mean = chunk.sum(axis=0) / len(chunk)
            np.subtract(chunk, mean, out=xh)
            # biased, as eval mode consumes it; squared in the output rows
            var = np.multiply(xh, xh, out=o).sum(axis=0) / len(chunk)
            inv = 1.0 / np.sqrt(var + self.eps)
            xh *= inv
            np.multiply(xh, gamma, out=o)
            o += beta
            chunks.append((start, stop, mean, inv))
            self.running_mean *= 1.0 - m
            self.running_mean += m * mean
            self.running_var *= 1.0 - m
            self.running_var += m * var
        result = Tensor(out)
        if tape is not None:
            def bwd(g):
                # gx = (inv / n) * (n * dxhat - dxhat.sum(0) - xhat * (dxhat * xhat).sum(0))
                # with dxhat = g * gamma, through three chunk-sized buffers
                gx = np.empty_like(g)
                dgamma = np.zeros_like(gamma)
                dbeta = np.zeros_like(beta)
                buf_x, buf_a, buf_b = (np.empty((rows, g.shape[1])) for _ in range(3))
                for start, stop, mean, inv in chunks:
                    n = stop - start
                    gc, o = g[start:stop], gx[start:stop]
                    xh, dxhat, tmp = buf_x[:n], buf_a[:n], buf_b[:n]
                    np.subtract(xd[start:stop], mean, out=xh)
                    xh *= inv
                    dbeta += gc.sum(axis=0)
                    dgamma += np.multiply(gc, xh, out=tmp).sum(axis=0)
                    np.multiply(gc, gamma, out=dxhat)
                    proj = np.multiply(dxhat, xh, out=tmp).sum(axis=0)
                    np.multiply(n, dxhat, out=o)
                    o -= dxhat.sum(axis=0)
                    o -= np.multiply(xh, proj, out=tmp)
                    o *= inv / n
                return gx, dgamma, dbeta

            tape.record("batch_norm_train", (x, self.gamma, self.beta), result, bwd)
        return result


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam over a fixed parameter list; deterministic given identical inputs.

    The optimizer owns one flat float64 vector of parameter values and one of
    gradients. On construction it copies each parameter into its slice and
    rebinds the parameter's ``data`` and ``grad`` to reshaped views of it, so
    a step is a few whole-vector ops and ``zero_grad`` one fill. Anything
    that writes a parameter in place (the tape, ``load_state``) writes the
    optimizer's vector too.
    """

    def __init__(self, params: Sequence[Parameter], lr: float = 0.02):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        # shared layers may surface the same Parameter twice; one slot each
        seen: set[int] = set()
        self.params = [p for p in params if not (id(p) in seen or seen.add(id(p)))]
        self.lr = lr
        size = sum(p.data.size for p in self.params)
        self._data = np.empty(size)
        self._grad = np.empty(size)
        start = 0
        for p in self.params:
            stop = start + p.data.size
            self._data[start:stop] = p.data.reshape(-1)
            self._grad[start:stop] = p.grad.reshape(-1)
            p.data = self._data[start:stop].reshape(p.data.shape)
            p.grad = self._grad[start:stop].reshape(p.grad.shape)
            start = stop
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._update = np.empty(size)
        self._denom = np.empty(size)
        self._t = 0

    def zero_grad(self) -> None:
        self._grad.fill(0.0)

    def step(self) -> None:
        """m, v and the parameter move as per-parameter Adam computes them:
        ``lr * (m / bc1) / (sqrt(v / bc2) + eps)``, elementwise, in that order."""
        if not all(p.data.base is self._data for p in self.params):
            # a later optimizer took the parameters over; stepping this one
            # would move a vector no parameter reads
            raise GraphError("Adam: parameters were rebound by another optimizer built over them")
        self._t += 1
        bc1 = 1.0 - ADAM_BETA1**self._t
        bc2 = 1.0 - ADAM_BETA2**self._t
        g, m, v, u, den = self._grad, self._m, self._v, self._update, self._denom
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=u)
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=u)
        v += np.multiply(u, g, out=u)
        np.sqrt(np.divide(v, bc2, out=den), out=den)
        den += ADAM_EPS
        np.multiply(self.lr, np.divide(m, bc1, out=u), out=u)
        self._data -= np.divide(u, den, out=u)
