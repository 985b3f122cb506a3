"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Small by design: enough operations for attention-style message passing,
GRU updates and categorical heads, at graph sizes where clarity beats speed.
Reductions over an axis sum their inputs in sorted order, so any computation
whose inputs are a permutation of another's produces bit-identical values.

A tape entry is the list of (parent node id, vjp) pairs of one op's tracked
inputs, in input order; a parameter's entry is empty. The backward sweep
calls each pair's vjp on the node's gradient and adds the result into that
parent's gradient, in input order.

One computation is one tape op. `rows`, `take` and `pick` are one gather
whose backward is one scatter-add. `take` and `pick` read their operand flat
(`ids` index `a.reshape(-1)`), so a gather from a tensor of any shape needs
no reshape first. `logsumexp` is one op whose value and gradient repeat the
arithmetic of its composed chain (`sub`, `exp`, `tsum`, `log`, `add`) in the
same order. `tsum` and `logsumexp` over all entries read their operand flat
along axis 0, so each has one code path.

`matmul` has one backward rule at every operand rank: a 1-D `a` is read as
one row and a 1-D `b` as one column, as numpy reads them, and the gradients
of those 2-D views are two products, `_lhs_grad` and `_rhs_grad`, that
`matmul_blocks` calls for its block and weight gradients too.

Memory rule: a backward closure holds arrays, shapes and indices, never a
`Tensor`, and the tape keeps node ids, not tensors. A tracked tensor points
to its tape, so one captured tensor would make the tape a reference cycle
that only the cyclic garbage collector frees. Without cycles, a tape and
every activation its closures hold are freed by reference counting as soon
as the last tensor recorded on it is dropped; `training.fit` relies on this
to hold one tape at a time. The backward sweep likewise drops each node's
gradient once it has passed it on, so only the parameters' gradients last.
A closure that needs only an operand's shape holds the shape, so `tsum` and
`matmul` keep alive no operand that their gradients do not read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    pass


class NonFiniteError(FloatingPointError):
    """Raised when an operation produces NaN or Inf."""


class Parameter:
    """A named, trainable array. Mutated in place by the optimizer."""

    __slots__ = ("name", "data")

    def __init__(self, name: str, data):
        self.name = name
        self.data = np.array(data, dtype=np.float64)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def _check_finite(data: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced a non-finite value")
    return data


def _stable_sum(data: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    # Canonical (sorted) summation order: permutation-invariant forward values.
    # numpy's reduction order follows the memory layout, so fix that too.
    return np.sort(np.ascontiguousarray(data), axis=axis).sum(axis=axis, keepdims=keepdims)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand."""
    grad = np.asarray(grad, dtype=np.float64)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tape:
    """Records the operation graph of one forward pass.

    Nodes are appended in creation order, which is a topological order, so
    the backward sweep visits each node exactly once in reverse.
    """

    def __init__(self):
        self._entries: list[list[tuple[int, object]]] = []
        self._param_nodes: dict[str, int] = {}
        self._param_shapes: dict[str, tuple] = {}

    def _add(self, parents: list[tuple[int, object]]) -> int:
        self._entries.append(parents)
        return len(self._entries) - 1

    def watch(self, param: Parameter) -> "Tensor":
        """Lift a parameter onto the tape (idempotent per parameter name: every
        call returns a tensor on the same node)."""
        nid = self._param_nodes.get(param.name)
        if nid is None:
            nid = self._add([])
            self._param_nodes[param.name] = nid
            self._param_shapes[param.name] = param.data.shape
        return Tensor(param.data, self, nid)

    def register(self, param: Parameter) -> None:
        """Register a parameter so backward reports a gradient even if unused."""
        self.watch(param)

    def gradients(self, loss: "Tensor") -> dict[str, np.ndarray]:
        """Backward pass from a scalar loss; one gradient per registered parameter."""
        if loss.tape is not self:
            raise ValueError("loss was not recorded on this tape")
        if loss.data.shape != ():
            raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
        grads: list = [None] * len(self._entries)
        grads[loss.nid] = np.array(1.0)
        for nid in range(loss.nid, -1, -1):
            gout, parents = grads[nid], self._entries[nid]
            if gout is None or not parents:
                continue
            grads[nid] = None   # spent: only parameter nodes keep theirs
            for pid, vjp in parents:
                pg = vjp(gout)
                grads[pid] = pg if grads[pid] is None else grads[pid] + pg
        out = {}
        for name, nid in self._param_nodes.items():
            g = grads[nid]
            if g is None:
                g = np.zeros(self._param_shapes[name])
            out[name] = np.asarray(g, dtype=np.float64).reshape(self._param_shapes[name])
        return out


class Tensor:
    """Immutable float64 array, optionally tracked on a tape."""

    __slots__ = ("data", "tape", "nid")

    def __init__(self, data, tape: Tape | None = None, nid: int | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.nid = nid

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, tracked={self.tape is not None})"

    def item(self) -> float:
        return float(self.data)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Network:
    """A config and the named parameters it implies. A subclass defines
    `param_specs(config)`: (name, shape, fan_in) of every parameter, in
    initialization order."""

    def __init__(self, config, params: dict[str, Parameter]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config, rng: np.random.Generator):
        return cls(config, {name: Parameter(name, uniform_init(rng, shape, fan_in))
                            for name, shape, fan_in in cls.param_specs(config)})

    def _get(self, tape: Tape | None, name: str) -> Tensor:
        """The parameter as a tensor: watched on `tape`, untracked without one."""
        if tape is None:
            return Tensor(self.params[name].data)
        return tape.watch(self.params[name])


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _common_tape(*tensors) -> Tape | None:
    tape = None
    for t in tensors:
        if isinstance(t, Tensor) and t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError("operands belong to different tapes")
    return tape


def _result(op: str, data, inputs: list[Tensor], vjps: list) -> Tensor:
    """Create the result of the op named `op`; record it when any input is
    tracked.

    `vjps[i]` maps the output gradient to input i's gradient; the tape
    entry is the (node id, vjp) pairs of the tracked inputs, in input order.
    """
    data = _check_finite(np.asarray(data, dtype=np.float64), op)
    tape = _common_tape(*inputs)
    if tape is None:
        return Tensor(data)
    return Tensor(data, tape, tape._add([(t.nid, v) for t, v in zip(inputs, vjps)
                                         if t.tape is not None]))


# ---------------------------------------------------------------------------
# elementwise / linear ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    sa, sb = a.data.shape, b.data.shape
    return _result("add", out, [a, b], [
        lambda g: _unbroadcast(g, sa),
        lambda g: _unbroadcast(g, sb),
    ])


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    sa, sb = a.data.shape, b.data.shape
    return _result("sub", out, [a, b], [
        lambda g: _unbroadcast(g, sa),
        lambda g: _unbroadcast(-g, sb),
    ])


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _result("neg", -a.data, [a], [lambda g: -g])


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    out = ad * bd
    return _result("mul", out, [a, b], [
        lambda g: _unbroadcast(g * bd, ad.shape),
        lambda g: _unbroadcast(g * ad, bd.shape),
    ])


def _lhs_grad(g, b):
    """The gradient of `a` in `a @ b`, for 2-D `b` and the output gradient
    `g`; a stack of `a` gets it slice by slice."""
    return g @ b.T


def _rhs_grad(a, g):
    """The gradient of the (k, n) `b` in `a @ b`: one product over all the
    rows of `a` and of the output gradient `g`."""
    return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def matmul(a, b) -> Tensor:
    """Matrix product of 1-D or 2-D operands, or of a stack of matrices
    (B, ..., m, k) with one (k, n) matrix. numpy multiplies a stack slice by
    slice, so each slice of the result has the bits of its own product.

    The backward is one rule at every rank: as numpy does, a 1-D `a` is read
    as one row and a 1-D `b` as one column, and the gradients of those 2-D
    views are `_lhs_grad` and `_rhs_grad`, which `matmul_blocks` shares."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    an, bn = ad.ndim, bd.ndim
    if an == 0 or bn not in (1, 2) or (an > 2 and bn != 2):
        raise ShapeError("matmul requires 1-D or 2-D operands, or a stack and a matrix")
    try:
        out = ad @ bd
    except ValueError as exc:
        raise ShapeError(str(exc)) from None
    a2 = ad.reshape(1, -1) if an == 1 else ad
    b2 = bd.reshape(-1, 1) if bn == 1 else bd
    sa, sb, out2 = ad.shape, bd.shape, a2.shape[:-1] + b2.shape[1:]
    return _result("matmul", out, [a, b], [
        lambda g: _lhs_grad(g.reshape(out2), b2).reshape(sa),
        lambda g: _rhs_grad(a2, g.reshape(out2)).reshape(sb),
    ])


def matmul_blocks(parts, w) -> Tensor:
    """Products of (1, P_i, k) blocks with one (k, n) matrix, joined along the
    rows: (1, sum P_i, n). Each block is multiplied by `w` alone, so its rows
    carry the bits of its own `matmul` (BLAS takes a one-row block through its
    matrix-vector path, whose bits differ inside a larger product). Each
    block's gradient is its own `_lhs_grad`; `w`'s is one `_rhs_grad` over
    all the rows, the rules `matmul` applies."""
    parts, w = [as_tensor(p) for p in parts], as_tensor(w)
    wd = w.data
    if not parts or wd.ndim != 2 or any(
            p.data.ndim != 3 or p.data.shape[0] != 1 or p.data.shape[2] != wd.shape[0]
            for p in parts):
        raise ShapeError("matmul_blocks needs (1, P, k) blocks and a (k, n) matrix, "
                         f"got {[p.data.shape for p in parts]} and {wd.shape}")
    datas = [p.data for p in parts]
    out = np.concatenate([d @ wd for d in datas], axis=1)
    offsets = np.cumsum([0] + [d.shape[1] for d in datas])

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]
        return lambda g: _lhs_grad(g[:, lo:hi], wd)

    return _result("matmul_blocks", out, parts + [w],
                   [make_vjp(i) for i in range(len(parts))]
                   + [lambda g: _rhs_grad(np.concatenate(datas, axis=1), g)])


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis if axis >= 0 else p.data.ndim + axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            sl = [slice(None)] * g.ndim
            sl[axis if axis >= 0 else g.ndim + axis] = slice(lo, hi)
            return g[tuple(sl)]

        return vjp

    return _result("concat", out, parts, [make_vjp(i) for i in range(len(parts))])


def stack(parts, axis: int = 0) -> Tensor:
    """Stack equal-shape tensors along a new axis (the leading one by default)."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("stack of zero tensors")
    out = np.stack([p.data for p in parts], axis=axis)

    def make_vjp(i):
        return lambda g: np.take(g, i, axis=axis)

    return _result("stack", out, parts, [make_vjp(i) for i in range(len(parts))])


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    return _result("reshape", a.data.reshape(shape), [a], [lambda g: g.reshape(old)])


def tile_row(v, k: int) -> Tensor:
    """Repeat each last-axis vector k times: (..., d) becomes (..., k, d)."""
    v = as_tensor(v)
    if v.data.ndim < 1:
        raise ShapeError("tile_row expects a tensor of at least one axis")
    out = np.repeat(np.expand_dims(v.data, -2), k, axis=-2)
    return _result("tile_row", out, [v], [lambda g: g.sum(axis=-2)])


def _gather(op: str, a: Tensor, table: np.ndarray, ids) -> Tensor:
    """`table[ids]`, where `table` is a reshape of `a`'s data. The backward
    is one scatter-add of the gradient into a zero table."""
    shape = a.data.shape

    def vjp(g):
        acc = np.zeros_like(table)
        np.add.at(acc, ids, g)
        return acc.reshape(shape)

    return _result(op, table[ids], [a], [vjp])


def rows(a, ids) -> Tensor:
    """Gather rows of a tensor whose leading axes are read as one row axis:
    `ids` index the rows of `a.reshape(-1, a.shape[-1])`. Also the embedding
    lookup."""
    a = as_tensor(a)
    if a.data.ndim < 2:
        raise ShapeError("rows expects a tensor of at least two axes")
    return _gather("rows", a, a.data.reshape(-1, a.data.shape[-1]),
                   np.asarray(ids, dtype=int))


def take(a, ids) -> Tensor:
    """Gather entries of a tensor read flat: `ids` index `a.reshape(-1)`."""
    a = as_tensor(a)
    return _gather("take", a, a.data.reshape(-1), np.asarray(ids, dtype=int))


def pick(a, i: int) -> Tensor:
    """Entry i of a tensor read flat, as a scalar."""
    a = as_tensor(a)
    return _gather("pick", a, a.data.reshape(-1), i)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    return _result("relu", np.where(mask, a.data, 0.0), [a], [lambda g: g * mask])


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    scale = np.where(mask, 1.0, slope)
    return _result("leaky_relu", a.data * scale, [a], [lambda g: g * scale])


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _result("sigmoid", out, [a], [lambda g: g * out * (1.0 - out)])


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _result("tanh", out, [a], [lambda g: g * (1.0 - out * out)])


def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)  # inf is caught by the finiteness check
    return _result("exp", out, [a], [lambda g: g * out])


def log(a) -> Tensor:
    a = as_tensor(a)
    data = a.data
    with np.errstate(divide="raise", invalid="raise"):
        try:
            out = np.log(data)
        except FloatingPointError:
            raise NonFiniteError("log of a non-positive value") from None
    return _result("log", out, [a], [lambda g: g / data])


def _flat_axis(data: np.ndarray, axis):
    """`data` and `axis`, or, for axis None, `data` read flat and axis 0."""
    return (data.reshape(-1), 0) if axis is None else (data, axis)


def tsum(a, axis=None) -> Tensor:
    """Sorted sum over `axis`, or over all entries when None."""
    a = as_tensor(a)
    shape = a.data.shape
    x, ax = _flat_axis(a.data, axis)
    sx = x.shape
    return _result("tsum", _stable_sum(x, ax), [a], [
        lambda g: np.broadcast_to(np.expand_dims(g, ax), sx).reshape(shape).copy()])


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def softmax(a, axis: int = -1) -> Tensor:
    return masked_softmax(a, True, axis)


def masked_softmax(a, mask, axis: int = -1) -> Tensor:
    """Softmax along `axis` over the entries where the boolean `mask` (which
    broadcasts against `a`) is true; masked entries get probability exactly 0
    and gradient exactly 0. Every slice along `axis` needs an unmasked entry.
    """
    a = as_tensor(a)
    if a.data.size == 0:
        raise ShapeError("masked softmax of an empty tensor")
    try:
        keep = np.broadcast_to(np.asarray(mask, dtype=bool), a.data.shape)
    except ValueError:
        raise ShapeError(f"mask {np.shape(mask)} does not broadcast to "
                         f"{a.data.shape}") from None
    if not keep.any(axis=axis).all():
        raise ShapeError("masked softmax over a fully masked slice")
    # The smallest entry is a finite floor for the masked max: no -inf anywhere.
    top = np.max(a.data, axis=axis, keepdims=True, where=keep, initial=a.data.min())
    e = np.where(keep, np.exp(np.where(keep, a.data - top, 0.0)), 0.0)
    out = e / _stable_sum(e, axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - inner)

    return _result("masked_softmax", out, [a], [vjp])


def einsum(spec: str, a, b) -> Tensor:
    """Two-operand Einstein summation with an explicit output, e.g.
    "nhk,hk->nh". Each index of an operand must appear in the other operand
    or in the output, and at most once per term."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        inputs, out_idx = spec.replace(" ", "").split("->")
        ia, ib = inputs.split(",")
    except ValueError:
        raise ShapeError(f"einsum spec {spec!r} is not 'ab,bc->ac' form") from None
    for term in (ia, ib, out_idx):
        if not all(c.isalpha() for c in term) or len(set(term)) != len(term):
            raise ShapeError(f"einsum term {term!r} must be distinct letters")
    if not set(ia) <= set(ib) | set(out_idx) or not set(ib) <= set(ia) | set(out_idx):
        raise ShapeError(f"einsum {spec!r} sums an index over one operand alone")
    if len(ia) != a.data.ndim or len(ib) != b.data.ndim:
        raise ShapeError(f"einsum {spec!r} does not match shapes "
                         f"{a.data.shape} and {b.data.shape}")
    sizes = dict(zip(ia, a.data.shape))
    if any(sizes.setdefault(c, n) != n for c, n in zip(ib, b.data.shape)):
        raise ShapeError(f"einsum {spec!r}: shapes {a.data.shape} and "
                         f"{b.data.shape} disagree on an index")
    if not set(out_idx) <= set(sizes):
        raise ShapeError(f"einsum {spec!r} outputs an index no operand has")
    ad, bd = a.data, b.data
    out = np.einsum(f"{ia},{ib}->{out_idx}", ad, bd)
    return _result("einsum", out, [a, b], [
        lambda g: np.einsum(f"{out_idx},{ib}->{ia}", g, bd),
        lambda g: np.einsum(f"{out_idx},{ia}->{ib}", g, ad),
    ])


def logsumexp(a, axis=None) -> Tensor:
    """Stabilized log-sum-exp over `axis`, or over all entries when None, as
    one op. Value and gradient have the bits of the composed chain
    `add(log(tsum(exp(sub(a, top)))), top)`: the sum is sorted and the
    gradient is `g / sum * exp(a - top)`."""
    a = as_tensor(a)
    shape = a.data.shape
    x, ax = _flat_axis(a.data, axis)
    top = x.max(axis=ax, keepdims=True)
    e = np.exp(x - top)
    s = _stable_sum(e, axis=ax, keepdims=True)
    return _result("logsumexp", np.squeeze(np.log(s) + top, axis=ax), [a],
                   [lambda g: (np.expand_dims(g, ax) / s * e).reshape(shape)])


def gru_cell(h, m, params: dict) -> Tensor:
    """Gated recurrent update of state h given aggregated message m.

    params maps 'wz','uz','bz','wr','ur','br','wc','uc','bc' to tensors;
    w* act on h, u* on m. Output: (1 - z) * h + z * tanh((r * h) Wc + m Uc + bc).
    """
    h, m = as_tensor(h), as_tensor(m)
    if h.data.shape != m.data.shape:
        raise ShapeError(f"state {h.data.shape} and message {m.data.shape} differ")
    z = sigmoid(add(add(matmul(h, params["wz"]), matmul(m, params["uz"])), params["bz"]))
    r = sigmoid(add(add(matmul(h, params["wr"]), matmul(m, params["ur"])), params["br"]))
    c = tanh(add(add(matmul(mul(r, h), params["wc"]), matmul(m, params["uc"])), params["bc"]))
    one_minus_z = sub(1.0, z)
    return add(mul(one_minus_z, h), mul(z, c))


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(fn, params: dict[str, Parameter], eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    `fn(tape)` must rebuild the same scalar loss on every call; it receives
    None when evaluated purely numerically.
    """
    base1 = fn(None)
    base2 = fn(None)
    v1 = base1.data if isinstance(base1, Tensor) else np.asarray(base1)
    v2 = base2.data if isinstance(base2, Tensor) else np.asarray(base2)
    if not np.array_equal(v1, v2):
        raise ValueError("fn is not deterministic under fixed inputs")

    tape = Tape()
    for p in params.values():
        tape.register(p)
    loss = fn(tape)
    grads = tape.gradients(loss)

    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = fn(None)
            flat[i] = orig - eps
            lo = fn(None)
            flat[i] = orig
            hi = hi.item() if isinstance(hi, Tensor) else float(hi)
            lo = lo.item() if isinstance(lo, Tensor) else float(lo)
            fd = (hi - lo) / (2.0 * eps)
            err = abs(gflat[i] - fd) / (abs(fd) + 1e-8)
            worst = max(worst, err)
    return worst
