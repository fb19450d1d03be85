"""Dense float64 tensors with reverse-mode automatic differentiation.

An op on a tensor that requires a gradient gives its output a ``Node``: its
backward rule and, per input, the input's Node, the input itself if a leaf,
or None if it needs no gradient. Rules keep only the arrays they read, so an
op output is freed when the forward drops it unless a rule reads it. What
the rules read lives as long as the loss, so ``backward`` may run again; each
call adds a full pass of gradients (callers zero grads between steps). Under
``no_grad``, or when no input requires a gradient, an op returns its output
as soon as it is computed and keeps nothing: no Node, no rule, no array.

Broadcasting is restricted to three rules, all for the second operand of a
binary elementwise op on an (n, d) tensor. A (d,) operand is applied to
every row, and its gradient is the sum of the output gradient over rows.
An (n, 1) operand is applied to every column, and its gradient is the sum
over columns, kept as a column. An (m, d) operand that ``add`` or ``mul``
is given with a row index (a ``Rows`` or an int array of length n) is read
through it, b[rows], and its gradient is scattered back through the same
index; the op then keeps no (n, d) gathered copy for its backward rule.
All other shape combinations must match exactly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

_FLOAT64 = np.dtype(np.float64)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NumericsError(ArithmeticError):
    """A non-finite value appeared where finite values are required."""


class Node:
    """An op output's backward rule and inputs: Nodes, leaf Tensors, or None (no grad)."""

    __slots__ = ("inputs", "backward_fn")

    def __init__(self, inputs: tuple, backward_fn):
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        # an op's float64 result is kept as it is; np.asarray would return it unchanged
        self.data = data if type(data) is np.ndarray and data.dtype is _FLOAT64 \
            else np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.node: Node | None = None

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
    """Attach out's Node; the op calls this only with grad on and an input needing it."""
    out.requires_grad = True
    out.node = Node(tuple([(t.node or t) if t.requires_grad else None for t in inputs]),
                    backward_fn)
    return out


def _topological_order(root: Node | Tensor) -> list[Node | Tensor]:
    """Iterative DFS post-order: every Node after the inputs it passes a grad to."""
    order, seen = [], {root}
    stack = [(root, iter(root.inputs if isinstance(root, Node) else ()))]
    while stack:
        node, pending = stack[-1]
        for inp in pending:
            if inp is not None and inp not in seen:
                seen.add(inp)
                stack.append((inp, iter(inp.inputs if isinstance(inp, Node) else ())))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def backward(loss: Tensor) -> None:
    """Populate .grad on every leaf tensor reachable from a scalar loss.

    A leaf is a requires_grad tensor that no op made. Op outputs keep no
    .grad, so each intermediate gradient is freed once passed back. Gradients
    are added into any existing .grad buffers, so repeated calls accumulate.
    A rule may return None for an input that needs no gradient.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    root = loss.node or loss
    flows: dict[Node | Tensor, np.ndarray] = {root: np.ones(())}
    for t in reversed(_topological_order(root)):
        g = flows.pop(t)  # complete: every consumer of t was visited before it
        if isinstance(t, Tensor):
            t.grad = g if t.grad is None else t.grad + g
            continue
        for inp, gi in zip(t.inputs, t.backward_fn(g)):
            if inp is not None:
                flows[inp] = flows[inp] + gi if inp in flows else gi


# --- elementwise / broadcast helpers -------------------------------------

def _check_broadcast(a: Tensor, b: Tensor, opname: str) -> int | None:
    """The axis b repeats along to match a (0: a (d,) row, 1: an (n, 1) column), or None."""
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return None
    if len(sa) == 2 and sb == (sa[1],):
        return 0
    if len(sa) == 2 and sb == (sa[0], 1):
        return 1
    raise ShapeError(f"{opname}: incompatible shapes {sa} and {sb}")


def _reduce_broadcast(g: np.ndarray, axis: int | None) -> np.ndarray:
    return g if axis is None else g.sum(axis=axis, keepdims=axis == 1)


def _check_read_rows(a: Tensor, b: Tensor, idx, opname: str) -> Rows:
    """idx as a Rows into b's rows, such that b[idx] has a's shape."""
    sa, sb = a.data.shape, b.data.shape
    if len(sb) != 2:
        raise ShapeError(f"{opname}: a row index reads a matrix, got shape {sb}")
    rows = _rows(idx, sb[0], opname)
    if sa != rows.idx.shape + sb[1:]:
        raise ShapeError(f"{opname}: incompatible shapes {sa} and {sb} "
                         f"read through {rows.idx.shape[0]} rows")
    return rows


# --- primitive ops --------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    if len(sa) != 2 or len(sb) != 2 or sa[1] != sb[0]:
        raise ShapeError(f"matmul: incompatible shapes {sa} and {sb}")
    out = Tensor(a.data @ b.data)
    if not (_GRAD_ENABLED and (a.requires_grad or b.requires_grad)): return out
    x = a.data if b.requires_grad else None  # each operand is read for the other's gradient
    w = b.data if a.requires_grad else None

    def backward_fn(g):
        return None if w is None else g @ w.T, None if x is None else x.T @ g

    return _record(out, (a, b), backward_fn)


def add(a: Tensor, b: Tensor, rows: Rows | np.ndarray | None = None) -> Tensor:
    """a + b, or a + b[rows] with rows given."""
    if rows is not None:
        rows = _check_read_rows(a, b, rows, "add")
        out = Tensor(a.data + b.data.take(rows.idx, axis=0))
        if not (_GRAD_ENABLED and (a.requires_grad or b.requires_grad)): return out
        need_b = b.requires_grad

        def backward_fn(g):
            return g, rows.scatter(g) if need_b else None

        return _record(out, (a, b), backward_fn)
    bc = _check_broadcast(a, b, "add")
    out = Tensor(a.data + b.data)
    if not (_GRAD_ENABLED and (a.requires_grad or b.requires_grad)): return out
    need_b = b.requires_grad

    def backward_fn(g):
        return g, _reduce_broadcast(g, bc) if need_b else None

    return _record(out, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    bc = _check_broadcast(a, b, "sub")
    out = Tensor(a.data - b.data)
    if not (_GRAD_ENABLED and (a.requires_grad or b.requires_grad)): return out
    need_b = b.requires_grad

    def backward_fn(g):
        return g, -_reduce_broadcast(g, bc) if need_b else None

    return _record(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor, rows: Rows | np.ndarray | None = None) -> Tensor:
    """a * b, or a * b[rows] with rows given."""
    if rows is not None:
        rows = _check_read_rows(a, b, rows, "mul")
        out = Tensor(a.data * b.data.take(rows.idx, axis=0))
        if not (_GRAD_ENABLED and (a.requires_grad or b.requires_grad)): return out
        x = a.data if b.requires_grad else None
        y = b.data if a.requires_grad else None  # b's m rows, gathered again in backward

        def backward_fn(g):
            return (None if y is None else g * y.take(rows.idx, axis=0),
                    None if x is None else rows.scatter(g * x))

        return _record(out, (a, b), backward_fn)
    bc = _check_broadcast(a, b, "mul")
    out = Tensor(a.data * b.data)
    if not (_GRAD_ENABLED and (a.requires_grad or b.requires_grad)): return out
    x = a.data if b.requires_grad else None  # each factor is read for the other's gradient
    y = b.data if a.requires_grad else None

    def backward_fn(g):
        return (None if y is None else g * y,
                None if x is None else _reduce_broadcast(g * x, bc))

    return _record(out, (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    if not (_GRAD_ENABLED and a.requires_grad): return out

    def backward_fn(g):
        return (g * c,)

    return _record(out, (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    if not (_GRAD_ENABLED and a.requires_grad): return out
    mask = a.data > 0.0  # subgradient 0 at 0

    def backward_fn(g):
        return (g * mask,)

    return _record(out, (a,), backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    s = np.negative(a.data, out=np.empty(a.data.shape))  # 1 / (1 + exp(-x)), in one buffer
    np.exp(s, out=s)
    s += 1.0
    out = Tensor(np.divide(1.0, s, out=s))
    if not (_GRAD_ENABLED and a.requires_grad): return out

    def backward_fn(g):
        return (g * s * (1.0 - s),)

    return _record(out, (a,), backward_fn)


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))
    if not (_GRAD_ENABLED and a.requires_grad): return out
    e = out.data

    def backward_fn(g):
        return (g * e,)

    return _record(out, (a,), backward_fn)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))
    if not (_GRAD_ENABLED and a.requires_grad): return out
    x = a.data

    def backward_fn(g):
        return (g / x,)

    return _record(out, (a,), backward_fn)


def powc(a: Tensor, p: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    p = float(p)
    out = Tensor(a.data ** p)
    if not (_GRAD_ENABLED and a.requires_grad): return out
    x = a.data

    def backward_fn(g):
        return (g * p * x ** (p - 1.0),)

    return _record(out, (a,), backward_fn)


def absolute(a: Tensor) -> Tensor:
    out = Tensor(np.abs(a.data))
    if not (_GRAD_ENABLED and a.requires_grad): return out
    sgn = np.sign(a.data)

    def backward_fn(g):
        return (g * sgn,)

    return _record(out, (a,), backward_fn)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    if len(sa) != 2 or len(sb) != 2 or sa[0] != sb[0]:
        raise ShapeError(f"concat_cols: incompatible shapes {sa} and {sb}")
    out = Tensor(np.concatenate([a.data, b.data], axis=1))
    if not (_GRAD_ENABLED and (a.requires_grad or b.requires_grad)): return out
    da = sa[1]

    def backward_fn(g):
        return g[:, :da], g[:, da:]

    return _record(out, (a, b), backward_fn)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())
    if not (_GRAD_ENABLED and a.requires_grad): return out
    shape = a.data.shape

    def backward_fn(g):
        return (np.full(shape, g),)

    return _record(out, (a,), backward_fn)


def sum_rows(a: Tensor) -> Tensor:
    """Sum over axis 0: (n, d) -> (d,)."""
    if a.data.ndim != 2:
        raise ShapeError(f"sum_rows expects a matrix, got shape {a.shape}")
    out = Tensor(a.data.sum(axis=0))
    if not (_GRAD_ENABLED and a.requires_grad): return out
    n = a.data.shape[0]

    def backward_fn(g):
        return (np.broadcast_to(g, (n,) + g.shape).copy(),)

    return _record(out, (a,), backward_fn)


def sum_cols(a: Tensor) -> Tensor:
    """Sum over axis 1, keepdims: (n, d) -> (n, 1)."""
    if a.data.ndim != 2:
        raise ShapeError(f"sum_cols expects a matrix, got shape {a.shape}")
    out = Tensor(a.data.sum(axis=1, keepdims=True))
    if not (_GRAD_ENABLED and a.requires_grad): return out
    d = a.data.shape[1]

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
    rows = _rows(idx, a.data.shape[0], "gather_rows")
    out = Tensor(a.data.take(rows.idx, axis=0))
    if not (_GRAD_ENABLED and a.requires_grad): return out

    def backward_fn(g):
        return (rows.scatter(g),)

    return _record(out, (a,), backward_fn)


def segment_sum(a: Tensor, idx: Rows | np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of a into num_segments buckets given by idx.

    Rows are accumulated in storage order of a (``Rows.scatter``); callers
    that need a canonical summation order sort their rows first.
    ``graph.GraphView`` owns the Rows of a batch, so every layer of a batch
    shares their flattened indices.
    """
    rows = _rows(idx, num_segments, "segment_sum")
    if a.data.ndim != 2 or rows.idx.shape != a.data.shape[:1]:
        raise ShapeError(f"segment_sum: data {a.shape} vs index {rows.idx.shape}")
    out = Tensor(rows.scatter(a.data))
    if not (_GRAD_ENABLED and a.requires_grad): return out

    def backward_fn(g):
        return (g.take(rows.idx, axis=0),)

    return _record(out, (a,), backward_fn)


# --- verification ---------------------------------------------------------

def assert_finite(a: Tensor, context: str) -> None:
    if not np.isfinite(a.data).all():
        raise NumericsError(f"non-finite values in {context}")


def finite_diff_check(f, x: Tensor, h: float = 1e-5, grad_f0=None) -> float:
    """Max relative error between analytic grad of f at x and central differences.

    f maps the Tensor x to a scalar Tensor. The relative error per
    coordinate is |analytic - numeric| / max(1, |analytic|). A caller that
    already ran backward through f at x passes ``grad_f0``, the pair
    (x.grad, f(x)), and f is then evaluated only at the shifted points.

    A step that straddles a kink (the zero of a relu or absolute value)
    makes the two one-sided slopes disagree; such a coordinate is
    re-estimated at h/10, at most twice. The decision looks only at f.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    if grad_f0 is None:
        x.zero_grad()
        out = f(x)
        if out.data.shape != ():
            raise ShapeError(f"finite_diff_check: f returned shape {out.data.shape}")
        if np.isfinite(out.data):  # a non-finite f fails below, with no backward
            backward(out)
        grad_f0 = x.grad, out.data
    grad, f0 = grad_f0
    if not np.isfinite(f0):
        raise NumericsError("finite_diff_check: f returned a non-finite value")
    f0 = float(f0)
    analytic = grad if grad is not None else np.zeros(x.shape)

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
