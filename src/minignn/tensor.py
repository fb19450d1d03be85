"""Dense float64 tensors with reverse-mode automatic differentiation.

Every op on a tensor that requires a gradient links its output to its
inputs and backward rule, so the graph lives as long as the loss does.
``backward(loss)`` walks the graph in reverse topological order from a
scalar loss; gradients accumulate additively across multiple uses of a
tensor, and a second ``backward`` call adds another full pass of gradients
on top of the first (callers zero grads between steps).

Broadcasting is restricted to one rule: a binary elementwise op may pair
an (n, d) tensor with a (d,) tensor, in which case the (d,) operand is
applied to every row and its gradient is the row-sum of the output
gradient. All other shape combinations must match exactly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NumericsError(ArithmeticError):
    """A non-finite value appeared where finite values are required."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "inputs", "backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.inputs: tuple[Tensor, ...] = ()
        self.backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_GRAD_ENABLED = True


@contextmanager
def no_grad():
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _GRAD_ENABLED and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.inputs = inputs
        out.backward_fn = backward_fn
    return out


def _topological_order(root: Tensor) -> list[Tensor]:
    """Iterative DFS post-order: every tensor after the inputs it needs a grad for."""
    order: list[Tensor] = []
    seen = {root}
    stack = [(root, iter(root.inputs))]
    while stack:
        node, pending = stack[-1]
        for inp in pending:
            if inp.requires_grad and inp not in seen:
                seen.add(inp)
                stack.append((inp, iter(inp.inputs)))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def backward(loss: Tensor) -> None:
    """Populate .grad on every leaf tensor reachable from loss.

    A leaf is a requires_grad tensor that no op made. Op outputs keep no
    .grad, so each intermediate gradient is freed once passed back. loss
    must be scalar (shape ()). Gradients are added into any existing .grad
    buffers, so repeated calls accumulate. A backward rule may return None
    for an input that needs no gradient (a constant operand).
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    flows: dict[Tensor, np.ndarray] = {loss: np.ones(())}
    for t in reversed(_topological_order(loss)):
        g = flows.pop(t)  # complete: every consumer of t was visited before it
        if t.backward_fn is None:
            t.grad = g if t.grad is None else t.grad + g
            continue
        for inp, gi in zip(t.inputs, t.backward_fn(g)):
            if inp.requires_grad:
                flows[inp] = flows[inp] + gi if inp in flows else gi


# --- elementwise / broadcast helpers -------------------------------------

def _check_broadcast(a: Tensor, b: Tensor, opname: str) -> bool:
    """Return True when b is row-broadcast over a; raise on mismatch."""
    if a.shape == b.shape:
        return False
    if a.data.ndim == 2 and b.shape == (a.shape[1],):
        return True
    raise ShapeError(f"{opname}: incompatible shapes {a.shape} and {b.shape}")


def _reduce_broadcast(g: np.ndarray, broadcast: bool) -> np.ndarray:
    return g.sum(axis=0) if broadcast else g


# --- primitive ops --------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward_fn(g):
        return g @ b.data.T, a.data.T @ g

    return _record(out, (a, b), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    bc = _check_broadcast(a, b, "add")
    out = Tensor(a.data + b.data)

    def backward_fn(g):
        return g, _reduce_broadcast(g, bc) if b.requires_grad else None

    return _record(out, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    bc = _check_broadcast(a, b, "sub")
    out = Tensor(a.data - b.data)

    def backward_fn(g):
        return g, -_reduce_broadcast(g, bc) if b.requires_grad else None

    return _record(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    bc = _check_broadcast(a, b, "mul")
    out = Tensor(a.data * b.data)

    def backward_fn(g):
        return (g * b.data if a.requires_grad else None,
                _reduce_broadcast(g * a.data, bc) if b.requires_grad else None)

    return _record(out, (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)

    def backward_fn(g):
        return (g * c,)

    return _record(out, (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    mask = a.data > 0.0  # subgradient 0 at 0

    def backward_fn(g):
        return (g * mask,)

    return _record(out, (a,), backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(s)

    def backward_fn(g):
        return (g * s * (1.0 - s),)

    return _record(out, (a,), backward_fn)


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    out = Tensor(e)

    def backward_fn(g):
        return (g * e,)

    return _record(out, (a,), backward_fn)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))

    def backward_fn(g):
        return (g / a.data,)

    return _record(out, (a,), backward_fn)


def powc(a: Tensor, p: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    p = float(p)
    out = Tensor(a.data ** p)

    def backward_fn(g):
        return (g * p * a.data ** (p - 1.0),)

    return _record(out, (a,), backward_fn)


def absolute(a: Tensor) -> Tensor:
    out = Tensor(np.abs(a.data))
    sgn = np.sign(a.data)

    def backward_fn(g):
        return (g * sgn,)

    return _record(out, (a,), backward_fn)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(np.concatenate([a.data, b.data], axis=1))
    da = a.shape[1]

    def backward_fn(g):
        return g[:, :da], g[:, da:]

    return _record(out, (a, b), backward_fn)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())

    def backward_fn(g):
        return (np.full(a.shape, g),)

    return _record(out, (a,), backward_fn)


def sum_rows(a: Tensor) -> Tensor:
    """Sum over axis 0: (n, d) -> (d,)."""
    if a.data.ndim != 2:
        raise ShapeError(f"sum_rows expects a matrix, got shape {a.shape}")
    out = Tensor(a.data.sum(axis=0))
    n = a.shape[0]

    def backward_fn(g):
        return (np.broadcast_to(g, (n,) + g.shape).copy(),)

    return _record(out, (a,), backward_fn)


def sum_cols(a: Tensor) -> Tensor:
    """Sum over axis 1, keepdims: (n, d) -> (n, 1)."""
    if a.data.ndim != 2:
        raise ShapeError(f"sum_cols expects a matrix, got shape {a.shape}")
    out = Tensor(a.data.sum(axis=1, keepdims=True))
    d = a.shape[1]

    def backward_fn(g):
        return (np.broadcast_to(g, (g.shape[0], d)).copy(),)

    return _record(out, (a,), backward_fn)


class Rows:
    """An int64 row index into n rows, shared by the ops that scatter through it.

    A scatter adds row i of its input into row idx[i] of an (n, ...) output
    with one np.bincount over the flattened index idx[:, None] * d + arange(d),
    d being the row width. bincount visits its input in storage order, so every
    output element gets the same sum, bit for bit, as the loop
    ``for i: out[idx[i]] += x[i]``. The flattened index is built once per
    width and kept, so the layers of a batch and their backward passes share it.
    """

    __slots__ = ("idx", "n", "_flat")

    def __init__(self, idx, n: int):
        self.idx = np.asarray(idx, dtype=np.int64)
        self.n = int(n)
        self._flat: dict[int, np.ndarray] = {}

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """Sum the rows of x into n rows: out[idx[i]] += x[i], in row order."""
        d = math.prod(x.shape[1:])
        flat = self._flat.get(d)
        if flat is None:
            flat = self._flat[d] = (self.idx[:, None] * d + np.arange(d)).reshape(-1)
        out = np.bincount(flat, weights=x.reshape(-1), minlength=self.n * d)
        if out.size != self.n * d:
            raise IndexError(f"row index out of range for {self.n} rows")
        return out.reshape((self.n,) + x.shape[1:])


def _rows(idx, n: int, opname: str) -> Rows:
    """idx as a Rows into n rows; a raw integer array is wrapped on the spot."""
    if not isinstance(idx, Rows):
        return Rows(idx, n)
    if idx.n != n:
        raise ShapeError(f"{opname}: index into {idx.n} rows used for {n} rows")
    return idx


def gather_rows(a: Tensor, idx: Rows | np.ndarray) -> Tensor:
    rows = _rows(idx, a.shape[0], "gather_rows")
    out = Tensor(a.data[rows.idx])

    def backward_fn(g):
        return (rows.scatter(g),)

    return _record(out, (a,), backward_fn)


def segment_sum(a: Tensor, idx: Rows | np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of a into num_segments buckets given by idx.

    Rows are accumulated in storage order of a (``Rows.scatter``); callers
    that need a canonical summation order sort their rows first.
    ``layers.GraphView`` owns the Rows of a graph, so every layer of a batch
    shares their flattened indices.
    """
    rows = _rows(idx, num_segments, "segment_sum")
    if a.data.ndim != 2 or rows.idx.shape != (a.shape[0],):
        raise ShapeError(f"segment_sum: data {a.shape} vs index {rows.idx.shape}")
    out = Tensor(rows.scatter(a.data))

    def backward_fn(g):
        return (g[rows.idx],)

    return _record(out, (a,), backward_fn)


# --- verification ---------------------------------------------------------

def assert_finite(a: Tensor, context: str) -> None:
    if not np.isfinite(a.data).all():
        raise NumericsError(f"non-finite values in {context}")


def finite_diff_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic grad of f at x and central differences.

    f maps the Tensor x to a scalar Tensor. The relative error per
    coordinate is |analytic - numeric| / max(1, |analytic|).

    A step that straddles a kink (the zero of a relu or absolute value)
    makes the two one-sided slopes disagree; such a coordinate is
    re-estimated at h/10, at most twice. The decision looks only at f.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    x.zero_grad()
    out = f(x)
    if out.data.shape != ():
        raise ShapeError(f"finite_diff_check: f returned shape {out.data.shape}")
    if not np.isfinite(out.data):
        raise NumericsError("finite_diff_check: f returned a non-finite value")
    backward(out)
    f0 = float(out.data)
    analytic = x.grad if x.grad is not None else np.zeros(x.shape)

    flat = x.data.reshape(-1)
    numeric = np.zeros(flat.shape)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            for step in (h, h / 10.0, h / 100.0):
                flat[i] = orig + step
                f_plus = float(f(x).data)
                flat[i] = orig - step
                f_minus = float(f(x).data)
                flat[i] = orig
                numeric[i] = (f_plus - f_minus) / (2.0 * step)
                # gap between the one-sided slopes (f_plus - f0)/step and (f0 - f_minus)/step
                if abs(f_plus - 2.0 * f0 + f_minus) / step <= 1e-5 * max(1.0, abs(numeric[i])):
                    break
    numeric = numeric.reshape(x.shape)
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))
