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
    out = Tensor(xd @ wd + b.data)
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


def glu(tape: Tape | None, x: Tensor) -> Tensor:
    """Gated linear unit on the last axis: first half times sigmoid of second half."""
    xd = _as2d("x", "glu", x)
    if xd.shape[1] % 2 != 0:
        raise ShapeError(f"glu: last dimension must be even, got shape {x.shape}")
    half = xd.shape[1] // 2
    a, gate = xd[:, :half], xd[:, half:]
    # exp(-gate) overflows to inf for gates below about -709; 1 / (1 + inf)
    # is then 0.0, within 1e-307 of the true sigmoid, so the overflow is
    # expected and its warning would only read like a numeric failure
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-gate))
    out = Tensor(a * sig)
    if tape is not None:
        def bwd(g):
            gx = np.empty_like(xd)
            gx[:, :half] = g * sig
            gx[:, half:] = g * a * sig * (1.0 - sig)
            return (gx,)

        tape.record("glu", (x,), out, bwd)
    return out


def sparsemax(tape: Tape | None, z: Tensor) -> Tensor:
    """Row-wise Euclidean projection onto the probability simplex.

    Rows come back non-negative, summing to one, and typically sparse.
    The backward routes gradient only through the support set: on support,
    g minus the support mean of g; zero elsewhere.
    """
    zd = _as2d("z", "sparsemax", z)
    if not np.all(np.isfinite(zd)):
        # non-finite scores mean upstream state has already gone numerically
        # bad; classify as a numeric failure, not a programming error
        raise NumericsError("sparsemax: input must be finite")
    shifted = zd - zd.max(axis=1, keepdims=True)  # projection is shift-invariant
    z_sorted = -np.sort(-shifted, axis=1)
    cumsum = np.cumsum(z_sorted, axis=1)
    ranks = np.arange(1, zd.shape[1] + 1, dtype=np.float64)
    support = 1.0 + ranks * z_sorted > cumsum
    k = support.sum(axis=1)
    tau = (cumsum[np.arange(zd.shape[0]), k - 1] - 1.0) / k
    out = Tensor(np.maximum(shifted - tau[:, None], 0.0))
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

    Train mode normalizes each virtual batch (a fixed-size chunk of rows;
    the trailing remainder forms its own chunk) to zero mean and unit
    variance before the affine map, and folds the chunk statistics into the
    running estimates with the given momentum. Eval mode normalizes with the
    running statistics. ``virtual_batch=None`` means one chunk spanning the
    whole batch. The running variance stored is the biased (1/n) estimate,
    so momentum 1.0 makes a following eval pass reproduce the train output.
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

    def __call__(self, tape: Tape | None, x: Tensor, training: bool) -> Tensor:
        xd = _as2d("x", "batch_norm", x)
        if xd.shape[1] != self.gamma.data.shape[0]:
            raise ShapeError(
                f"batch_norm {self.name}: got {xd.shape[1]} features, "
                f"expected {self.gamma.data.shape[0]}"
            )
        if training:
            return self._train_forward(tape, x)
        return self._eval_forward(tape, x)

    def _train_forward(self, tape: Tape | None, x: Tensor) -> Tensor:
        xd = x.data
        n_rows = xd.shape[0]
        if n_rows < 2:
            raise BatchTooSmallError(
                f"batch_norm {self.name}: train mode needs at least 2 rows, got {n_rows}"
            )
        vb = self.virtual_batch or n_rows
        gamma, beta = self.gamma.data, self.beta.data
        out = np.empty_like(xd)
        chunks = []  # (start, stop, xhat, inv_std)
        for start in range(0, n_rows, vb):
            stop = min(start + vb, n_rows)
            chunk = xd[start:stop]
            mean = chunk.mean(axis=0)
            var = chunk.var(axis=0)  # biased; matches what eval mode consumes
            inv = 1.0 / np.sqrt(var + self.eps)
            xhat = (chunk - mean) * inv
            out[start:stop] = xhat * gamma + beta
            chunks.append((start, stop, xhat, inv))
            m = self.momentum
            self.running_mean[...] = (1.0 - m) * self.running_mean + m * mean
            self.running_var[...] = (1.0 - m) * self.running_var + m * var
        result = Tensor(out)
        if tape is not None:
            def bwd(g):
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

            tape.record("batch_norm_train", (x, self.gamma, self.beta), result, bwd)
        return result

    def _eval_forward(self, tape: Tape | None, x: Tensor) -> Tensor:
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        xhat = (x.data - self.running_mean) * inv
        result = Tensor(xhat * self.gamma.data + self.beta.data)
        if tape is not None:
            gamma = self.gamma.data

            def bwd(g):
                return g * gamma * inv, (g * xhat).sum(axis=0), g.sum(axis=0)

            tape.record("batch_norm_eval", (x, self.gamma, self.beta), result, bwd)
        return result


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam over a fixed parameter list; deterministic given identical inputs."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.02,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ConfigError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        # shared layers may surface the same Parameter twice; one slot each
        seen: set[int] = set()
        self.params = [p for p in params if not (id(p) in seen or seen.add(id(p)))]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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


SQRT_HALF = math.sqrt(0.5)
