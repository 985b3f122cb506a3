"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Small by design: enough operations for attention-style message passing,
GRU updates and categorical heads, at graph sizes where clarity beats speed.
Reductions over an axis sum their inputs in sorted order, so any computation
whose inputs are a permutation of another's produces bit-identical values.
Where numpy sums the axis in sequence (it is not effectively innermost) and
a shape rule says it pays, a comparator network sorts it and a left fold
from +0.0 adds it, with the bits of `np.sort(x, axis).sum(axis)`.

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

A fused op records a composed chain (`mlp2`, `log_softmax`, `gru_cell`,
`gated_messages`, `attention_round`) as one entry through `_fused`. Its value
and each input's gradient repeat the chain's arithmetic in the order the
chain's backward sweep did it, bit for bit. Every intermediate the chain
checked for finiteness is checked under the same op name, the output under
the fused op's name; a reshape's values are its input's, so it is not
checked twice. Its backward holds no more than the chain's closures did.

The sweep adds a node's gradient contributions in reverse order of when its
consumers were made, and a fused op hands back one contribution per input,
the chain's inner ones already added. So an input that the chain read more
than once must have no consumer made after the op. `DenoiserNet` therefore
gathers a GRU round's `h` outside the op, and makes the GAT round's
per-token edge products, two reads of `edge_embed`, outside it too.

`attention_round` keeps its logits and softmax dense, and forms its
products, their sum and their gradients over padded neighbour lists
(`NeighbourLists`, built once per forward by the caller; a raw mask is
wrapped in them first, so there is one mask path): a pair outside the mask
forms no product, and a padded slot adds an exact zero, so the bits are the
dense round's. The same shape rule picks the lists' width, and width n, the
dense layout, where lists would not pay.

Every op checks its output for finiteness, by its sum first and by
`np.isfinite` only when the sum is not finite.

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

import bisect
import functools
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
    # A sum is finite only if every entry is, so only a sum that is not (an
    # entry that is not, or finite entries that overflow) needs the exact
    # test. Where warnings are errors, the sum's overflow warning sends the
    # check to the exact test too.
    try:
        finite = math.isfinite(np.add.reduce(data, axis=None))
    except RuntimeWarning:
        finite = False
    if not finite and not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced a non-finite value")
    return data


# The shape rule of the sorted sum and of the neighbour lists, in estimated
# microseconds, measured on a 2-core x86 host (numpy 2.4, one BLAS thread):
# one numpy call over E float64 values costs about 0.45 + E / 2200, and
# np.sort plus sum along a width-w axis that is not innermost about
# 2.5 + (0.036 + 0.002 w) per lane (one slice along the axis), for w from 2
# to 16. A comparator network makes 2 C(w) + w + 1 calls over the lanes
# after a set-up of about 3, so it pays from about 73 lanes at width 2,
# 195 at 4, 707 at 8, 2,776 at 12 and 21,617 at 16.
def _call_us(values: int) -> float:
    return 0.45 + values / 2200


def _sort_us(width: int, lanes: int) -> float:
    return 2.5 + (0.036 + 0.002 * width) * lanes


def _network_us(width: int, lanes: int) -> float:
    return 3.0 + (2 * len(_merge_network(width)) + width + 1) * _call_us(lanes)


def _sum_us(width: int, lanes: int) -> float:
    """The cost of `_stable_sum` over a width-`width` axis that is not
    innermost, with `lanes` lanes."""
    return min(_network_us(width, lanes), _sort_us(width, lanes))


@functools.cache
def _merge_network(width: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sort over `width` slots, as (low, high) slot
    pairs in order: the network for the next power of two, less the
    comparators that reach past the last slot (those slots would hold +inf)."""
    pairs, p = [], 1
    while p < width:
        k = p
        while k >= 1:
            for j in range(k % p, width - k, 2 * k):
                for i in range(min(k, width - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def _stable_sum(data: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """The sum over `axis` in sorted order: permutation-invariant values.

    numpy sums an axis that is not effectively innermost in sequence, from
    +0.0, so where the shape rule says it pays, the axis is sorted by a
    comparator network (`np.minimum` and `np.maximum` across its slots) and
    folded left from +0.0, with the bits of `np.sort(x, axis).sum(axis)`.
    Elsewhere, and along an effectively innermost axis, which numpy sums
    pairwise, it is that expression, on a contiguous copy: numpy's
    reduction order follows the memory layout."""
    axis %= data.ndim
    width = data.shape[axis]
    lanes = data.size // width if width else 0
    if (width == 0 or math.prod(data.shape[axis + 1:]) == 1
            or _network_us(width, lanes) >= _sort_us(width, lanes)):
        return np.sort(np.ascontiguousarray(data), axis=axis).sum(axis=axis, keepdims=keepdims)
    slots = [data[(slice(None),) * axis + (i,)] for i in range(width)]
    for lo, hi in _merge_network(width):
        slots[lo], slots[hi] = np.minimum(slots[lo], slots[hi]), np.maximum(slots[lo], slots[hi])
    total = np.zeros(slots[0].shape, dtype=data.dtype)
    for slot in slots:
        total += slot
    return np.expand_dims(total, axis) if keepdims else total


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand; a gradient
    of that shape already is returned as it is."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape == shape:
        return grad
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

    def __mul__(self, other):
        return mul(self, other)

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
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(op: str, data, inputs: list[Tensor], vjps: list) -> Tensor:
    """Create the result of the op named `op`; record it when any input is
    tracked.

    `vjps[i]` maps the output gradient to input i's gradient; the tape
    entry is the (node id, vjp) pairs of the tracked inputs, in input order.
    """
    data = _check_finite(np.asarray(data, dtype=np.float64), op)
    tape, entry = None, []
    for t, vjp in zip(inputs, vjps):
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif t.tape is not tape:
                raise ValueError("operands belong to different tapes")
            entry.append((t.nid, vjp))
    if tape is None:
        return Tensor(data)
    return Tensor(data, tape, tape._add(entry))


def _fused(op: str, out, inputs: list[Tensor], backward) -> Tensor:
    """Record a composed chain as the one op named `op`. `backward(g)`
    returns every input's gradient for the output gradient `g`; it runs
    once per output gradient, and each input's vjp reads its own entry. An
    entry is let go once read, so no gradient outlives the sweep's visit."""
    tracked = [i for i, t in enumerate(inputs) if t.tape is not None]
    held_g, held = None, {}

    def make_vjp(i):
        def vjp(g):
            nonlocal held_g, held
            if held_g is not g or i not in held:
                grads = backward(g)
                held_g, held = g, {j: grads[j] for j in tracked}
            grad = held.pop(i)
            if not held:
                held_g = None
            return grad

        return vjp

    return _result(op, out, inputs, [make_vjp(i) for i in range(len(inputs))])


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
    sa, sb = ad.shape, bd.shape
    return _result("mul", out, [a, b], [
        lambda g: _unbroadcast(g * bd, sa),
        lambda g: _unbroadcast(g * ad, sb),
    ])


def _lhs_grad(g, b):
    """The gradient of `a` in `a @ b`, for 2-D `b` and the output gradient
    `g`; a stack of `a` gets it slice by slice."""
    return g @ b.T


def _rhs_grad(a, g):
    """The gradient of the (k, n) `b` in `a @ b`: one product over all the
    rows of `a` and of the output gradient `g`."""
    return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _product(ad: np.ndarray, bd: np.ndarray):
    """`ad @ bd` for the operands `matmul` takes, and the two functions from
    the output gradient to the gradients of `ad` and of `bd`."""
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
    return (out, lambda g: _lhs_grad(g.reshape(out2), b2).reshape(sa),
            lambda g: _rhs_grad(a2, g.reshape(out2)).reshape(sb))


def matmul(a, b) -> Tensor:
    """Matrix product of 1-D or 2-D operands, or of a stack of matrices
    (B, ..., m, k) with one (k, n) matrix. numpy multiplies a stack slice by
    slice, so each slice of the result has the bits of its own product.

    The backward is one rule at every rank: as numpy does, a 1-D `a` is read
    as one row and a 1-D `b` as one column, and the gradients of those 2-D
    views are `_lhs_grad` and `_rhs_grad`, which `matmul_blocks` shares."""
    a, b = as_tensor(a), as_tensor(b)
    out, grad_a, grad_b = _product(a.data, b.data)
    return _result("matmul", out, [a, b], [grad_a, grad_b])


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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid(a.data)
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
    out = _masked_softmax(a.data, mask, axis)
    return _result("masked_softmax", out, [a], [lambda g: _softmax_grad(g, out, axis)])


def _masked_softmax(x: np.ndarray, mask, axis: int) -> np.ndarray:
    """The value of `masked_softmax`."""
    if x.size == 0:
        raise ShapeError("masked softmax of an empty tensor")
    try:
        keep = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    except ValueError:
        raise ShapeError(f"mask {np.shape(mask)} does not broadcast to {x.shape}") from None
    if not keep.any(axis=axis).all():
        raise ShapeError("masked softmax over a fully masked slice")
    # The smallest entry is a finite floor for the masked max: no -inf anywhere.
    top = np.max(x, axis=axis, keepdims=True, where=keep, initial=x.min())
    e = np.where(keep, np.exp(np.where(keep, x - top, 0.0)), 0.0)
    return e / _stable_sum(e, axis=axis, keepdims=True)


def _softmax_grad(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """The gradient of a softmax's input, from its output `out` and the
    output gradient `g`."""
    inner = (g * out).sum(axis=axis, keepdims=True)
    return out * (g - inner)


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


def _exp_sum(x: np.ndarray, ax: int):
    """The parts of a stabilized log-sum-exp over `ax`: the max, the shifted
    exponentials and their sorted sum, all with `ax` kept."""
    top = x.max(axis=ax, keepdims=True)
    e = np.exp(x - top)
    return top, e, _stable_sum(e, axis=ax, keepdims=True)


def logsumexp(a, axis=None) -> Tensor:
    """Stabilized log-sum-exp over `axis`, or over all entries when None, as
    one op. Value and gradient have the bits of the composed chain
    `add(log(tsum(exp(sub(a, top)))), top)`: the sum is sorted and the
    gradient is `g / sum * exp(a - top)`."""
    a = as_tensor(a)
    shape = a.data.shape
    x, ax = _flat_axis(a.data, axis)
    top, e, s = _exp_sum(x, ax)
    return _result("logsumexp", np.squeeze(np.log(s) + top, axis=ax), [a],
                   [lambda g: (np.expand_dims(g, ax) / s * e).reshape(shape)])


# ---------------------------------------------------------------------------
# fused chains: one op each, with the values, the gradients and the checks
# of the composed ops they replace (see the module docstring)
# ---------------------------------------------------------------------------

def log_softmax(a) -> Tensor:
    """Log-probabilities over the last axis, as one op: the composed
    `sub(a, reshape(logsumexp(a, axis=-1), shape[:-1] + (1,)))`."""
    a = as_tensor(a)
    x = a.data
    if x.ndim == 0:
        raise ShapeError("log_softmax needs at least one axis")
    top, e, s = _exp_sum(x, x.ndim - 1)
    lse = _check_finite(np.log(s) + top, "logsumexp")

    def backward(g):
        g_lse = _unbroadcast(-g, s.shape)       # lse has the shape of s
        return [g + g_lse / s * e]

    return _fused("log_softmax", x - lse, [a], backward)


def _mlp2(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
          b2: np.ndarray):
    """`relu(x @ w1 + b1) @ w2 + b2` on arrays, each intermediate checked
    under its op's name, and the function from the output gradient to the
    gradients of (x, w1, b1, w2, b2). The output is left to the caller to
    check."""
    first, grad_x, grad_w1 = _product(x, w1)
    _check_finite(first, "matmul")
    pre = _check_finite(first + b1, "add")
    mask = pre > 0
    hidden = _check_finite(np.where(mask, pre, 0.0), "relu")
    second, grad_hidden, grad_w2 = _product(hidden, w2)
    _check_finite(second, "matmul")
    s1, s2, sb1, sb2 = first.shape, second.shape, np.shape(b1), np.shape(b2)

    def backward(g):
        g2 = _unbroadcast(g, s2)
        g_pre = grad_hidden(g2) * mask
        g1 = _unbroadcast(g_pre, s1)
        return [grad_x(g1), grad_w1(g1), _unbroadcast(g_pre, sb1), grad_w2(g2),
                _unbroadcast(g, sb2)]

    return second + b2, backward


def mlp2(x, w1, b1, w2, b2) -> Tensor:
    """`relu(x @ w1 + b1) @ w2 + b2`, as one op: the composed
    `add(matmul(relu(add(matmul(x, w1), b1)), w2), b2)`."""
    inputs = [as_tensor(t) for t in (x, w1, b1, w2, b2)]
    out, backward = _mlp2(*(t.data for t in inputs))
    return _fused("mlp2", out, inputs, backward)


MESSAGE_PARAMS = ("f1", "f1b", "f2", "f2b", "g1", "g1b", "g2", "g2b")


def gated_messages(h_src, h_dst, edges, mask, params: dict) -> Tensor:
    """The gated-GRU messages of B views of m nodes, summed per node, as one
    op: (B, m, d).

    Pair (a, b) of view v is row a * m + b of the (B, m*m, d) `h_src` (a's
    state), `h_dst` (b's state) and `edges` (the pair's edge embedding).
    With `x` their concatenation, its message is
    `sigmoid(mlp_g(x)) * mask[v, a, b] * mlp_f(x)`, so a pair outside the
    boolean (B, m, m) `mask` adds an exact zero; node a's messages are
    summed over b in sorted order. `params` maps f1, f1b, f2, f2b (mlp_f)
    and g1, g1b, g2, g2b (mlp_g) to tensors. It is the composed `concat`,
    two `mlp2`, `sigmoid`, `mul`, `mul`, `reshape` and `tsum`."""
    parts = [as_tensor(t) for t in (h_src, h_dst, edges)]
    ps = [as_tensor(params[k]) for k in MESSAGE_PARAMS]
    mask = np.asarray(mask, dtype=bool)
    B, m = mask.shape[0], mask.shape[1]
    keep = mask.reshape(B, m * m, 1).astype(np.float64)
    x = _check_finite(np.concatenate([t.data for t in parts], axis=2), "concat")
    msg, msg_backward = _mlp2(x, *(p.data for p in ps[:4]))
    _check_finite(msg, "add")
    logits, gate_backward = _mlp2(x, *(p.data for p in ps[4:]))
    _check_finite(logits, "add")
    gate = _check_finite(_sigmoid(logits), "sigmoid")
    kept = _check_finite(gate * keep, "mul")
    gated = _check_finite(kept * msg, "mul")
    d = msg.shape[2]
    offsets = np.cumsum([0] + [t.data.shape[2] for t in parts])

    def backward(g):
        g_gated = np.broadcast_to(np.expand_dims(g, 2), (B, m, m, d)).reshape(B, m * m, d)
        g_kept = _unbroadcast(g_gated * msg, kept.shape)
        g_logits = _unbroadcast(g_kept * keep, gate.shape) * gate * (1.0 - gate)
        gate_grads = gate_backward(g_logits)
        msg_grads = msg_backward(_unbroadcast(g_gated * kept, msg.shape))
        g_x = gate_grads[0] + msg_grads[0]
        return ([g_x[:, :, lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
                + msg_grads[1:] + gate_grads[1:])

    return _fused("gated_messages", _stable_sum(gated.reshape(B, m, m, d), axis=2),
                  parts + ps, backward)


def _pair_mask(mask, B: int, n: int) -> np.ndarray:
    """The (B, n, n) pairs that some head attends, from a boolean mask that
    broadcasts to (B, n, n, heads)."""
    keep = np.asarray(mask, dtype=bool)
    try:
        keep = np.broadcast_to(keep, (B, n, n, keep.shape[-1] if keep.ndim else 1))
    except ValueError:
        raise ShapeError(f"mask {keep.shape} does not broadcast to {(B, n, n)}") from None
    return keep.any(axis=3)


def _list_width(counts: np.ndarray, d: int, edge_terms: bool) -> int:
    """The padded width of lists of `counts` entries each, (B, n), over
    states of width d, by the shape rule: the width whose estimated round,
    forward and backward, costs least. Lists longer than the width form
    their own group, padded to the longest. Width n is the dense layout,
    which gathers nothing. A dense round makes 5 passes over its B n n d
    products; a list round makes 8 over its B n w d, and each group of
    lists costs about 40 more in set-up and small calls. With edge terms,
    the lists also pay 2 passes over the dense B n n d: the bound that
    covers the sums they do not form, or the edge gradient's zeros and
    scatter. So, measured on the host above, lists pay for the ordering
    network's layers at paper widths from one prefix, and for a GAT round
    at paper widths only over stacks of several views. At d = 1 the slot
    axis would be innermost, which numpy sums pairwise, so the layout is
    dense."""
    R, n = counts.size, counts.shape[-1]
    best, least = n, 5 * _call_us(R * n * d) + _sum_us(n, R * d)
    if d == 1 or least <= 40:
        return n
    lengths = sorted(counts.reshape(-1).tolist())
    top, fixed = lengths[-1], 40 + (2 * _call_us(R * n * d) if edge_terms else 0)
    for width in sorted(set(lengths[:bisect.bisect_left(lengths, n)])):
        us = fixed + 8 * _call_us(R * width * d) + _sum_us(width, R * d)
        long = R - bisect.bisect_right(lengths, width)
        if long:
            us += 40 + 8 * _call_us(long * top * d) + _sum_us(top, long * d)
        if us < least:
            best, least = width, us
    return best


class _PaddedLists:
    """The (B, n, n) pairs of `keep` as padded lists, one per node: list
    (b, i) holds the partners j of node i of slice b, keep[b, i, j], in
    ascending order, then other nodes of the slice, whose pairs are not
    attended. Row lists read keep as (b, i, j), column lists (`by_column`)
    as (b, j, i): list (b, j) then holds the nodes i that attend j.

    `groups` are (targets, nodes, pairs): `nodes` the flat node ids
    b * n + partner of each slot, and `pairs` the flat ids (b * n + i) * n + j
    of each slot's pair. The first group holds every list, (B, n, width),
    with targets None; lists longer than the width form a second group,
    (G, longest), whose targets are their flat ids b * n + i. In the dense
    layout (width n) the first group is the only one, and its nodes and
    pairs are None: every node, in order."""

    def __init__(self, keep: np.ndarray, d: int, edge_terms: bool, by_column: bool):
        B, n, _ = keep.shape
        self.shape, self.by_column = (B, n), by_column
        counts = keep.sum(axis=2)
        self.width = _list_width(counts, d, edge_terms)
        if self.width == n:
            self.groups = [(None, None, None)]
            return
        order = np.argsort(~keep, axis=2, kind="stable")       # partners first
        lists = np.arange(B * n)                                 # flat id b * n + i
        base = lists - lists % n                                 # b * n

        def ids(targets, partners):
            nodes = base[targets, None] + partners
            at = targets[:, None] % n
            return nodes, (nodes * n + at if by_column else targets[:, None] * n + partners)

        nodes, pairs = ids(lists, order.reshape(B * n, n)[:, :self.width])
        self.groups = [(None, nodes.reshape(B, n, -1), pairs.reshape(B, n, -1))]
        long = np.flatnonzero(counts > self.width)
        if long.size:
            top = counts.reshape(-1)[long].max()
            self.groups.append((long,) + ids(long, order.reshape(B * n, n)[long, :top]))

    def slot_axis(self, targets) -> int:
        """The axis of a group's slots: 2 over every list, 1 over the long
        ones. The dense column layout keeps the pairs' (b, i, j) order, with
        its slots i along axis 1, so that the sums over i are numpy's sums
        over that axis."""
        return 1 if targets is not None or (self.by_column and self.width == self.shape[1]) else 2

    def of_nodes(self, values: np.ndarray, nodes) -> np.ndarray:
        """The (B, n, ...) node `values` at the slots' nodes: (B, n, width,
        ...) or (G, longest, ...); in the dense layout, laid out to
        broadcast against the pairs, (B, 1, n, ...) for rows and (B, n, 1,
        ...) for columns."""
        B, n = self.shape
        if nodes is None:
            return values.reshape(((B, n, 1) if self.by_column else (B, 1, n)) + values.shape[2:])
        return values.reshape((B * n,) + values.shape[2:])[nodes]

    def of_pairs(self, values: np.ndarray, pairs) -> np.ndarray:
        """The (B, n, n, ...) pair `values`, laid out (b, i, j), at the
        slots' pairs: (B, n, width, ...) or (G, longest, ...), or all of
        them as they are in the dense layout."""
        if pairs is None:
            return values
        B, n = self.shape
        return values.reshape((B * n * n,) + values.shape[3:])[pairs]


class NeighbourLists:
    """The pairs that `attention_round` attends, from a boolean `mask` that
    broadcasts to (B, n, n, heads), for rounds over (B, n, d) states of
    `shape`. A caller builds them once and passes them to every round in
    place of the mask. `rows` lay the pairs out by the attending node i,
    for the messages' sum and the attention gradient; `columns`, built on
    first use by a backward, by the attended node j, for the message
    gradients. Each picks its own width by the shape rule, which weighs
    `edge_terms`: whether the rounds add per-pair edge messages."""

    def __init__(self, mask, shape, edge_terms: bool = False):
        B, n, d = shape
        self.mask, self.shape, self.edge_terms = mask, tuple(shape), edge_terms
        self._keep = _pair_mask(mask, B, n)
        self.rows = _PaddedLists(self._keep, d, edge_terms, by_column=False)

    @functools.cached_property
    def columns(self) -> _PaddedLists:
        return _PaddedLists(self._keep.swapaxes(1, 2), self.shape[2], self.edge_terms,
                            by_column=True)


def attention_round(h, w, a_src, a_dst, mask, bias=None, edge_logits=None,
                    edge_msgs=None, slope: float = 0.2) -> Tensor:
    """One round of masked multi-head attention with a residual, over B
    stacked graphs of n nodes, as one op: (B, n, d).

    `h` is (B, n, d), `w` the (d, H*k) projection of H heads of width k
    (H*k = d), and `a_src` and `a_dst` the (H, k) source and target
    attention vectors, or (k,) for one head. With `Wh = h @ w (+ bias)` laid
    out (B, -, j, H, k), the logits are `s_i + r_j (+ edge_logits_ij)`, of
    shape (B, i, j, H); `alpha` is the softmax over j of their leaky ReLU
    where the boolean `mask`, broadcast to (B, n, n, H), holds; and the
    round returns `h + relu(sum_j alpha_ij * (Wh_j (+ edge_msgs_ij)))`,
    summed over j in sorted order. The optional per-pair terms are
    `edge_logits`, (B, n, n), added to every head's logits, and `edge_msgs`,
    (B, n, n, d), added to the messages. `mask` is `NeighbourLists` built
    for h's shape, which rounds over the same pairs share; a raw mask is
    wrapped in `NeighbourLists` first, so there is one mask path.

    It is the composed `matmul`, (`add`,) `reshape`, two `einsum`s, `add`,
    (`add`,) (`add`,) `leaky_relu`, `masked_softmax`, `reshape`, `mul`,
    `tsum`, `reshape`, `relu` and `add`. The logits and the softmax are
    dense; the products alpha * messages, their sum and their gradients are
    formed over the neighbour lists, rows for the sum and the attention
    gradient, columns for the message gradients, so a pair outside the mask
    forms none. Its exact zero changes no sum: the sorted sum and the
    gradients' sums over i fold from +0.0, and a padded slot adds alpha = 0
    times a finite message. The `edge_msgs + Wh` sums the lists do not form
    are finite when max|edge_msgs| + max|Wh| is, and are formed and checked
    when it is not. Its backward holds what theirs did, and never the
    (B, n, n, H, k) products `alpha * Wh`."""
    extras = [None if t is None else as_tensor(t) for t in (bias, edge_logits, edge_msgs)]
    inputs = [as_tensor(t) for t in (h, w, a_src, a_dst)] + [t for t in extras if t is not None]
    x, wd, src, dst = (t.data for t in inputs[:4])
    bias, edge_logits, edge_msgs = (None if t is None else t.data for t in extras)
    if x.ndim != 3 or src.shape != dst.shape or src.ndim not in (1, 2):
        raise ShapeError(f"attention over {x.shape} with attention vectors "
                         f"{src.shape} and {dst.shape}")
    B, n, d = x.shape
    heads, k = (1,) + src.shape if src.ndim == 1 else src.shape
    if heads * k != d:
        raise ShapeError(f"{heads} heads of width {k} do not make a width of {d}")
    lists = (mask if isinstance(mask, NeighbourLists)
             else NeighbourLists(mask, x.shape, edge_msgs is not None))
    if lists.shape != x.shape:
        raise ShapeError(f"neighbour lists for {lists.shape} given states {x.shape}")
    src2, dst2 = src.reshape(heads, k), dst.reshape(heads, k)

    first, grad_x, grad_w = _product(x, wd)
    _check_finite(first, "matmul")
    if bias is not None:
        first = _check_finite(first + bias, "add")
    wh = first.reshape(B, 1, n, heads, k)
    s = _check_finite(np.einsum("bxnhk,hk->bnxh", wh, src2), "einsum")
    r = _check_finite(np.einsum("bxnhk,hk->bxnh", wh, dst2), "einsum")
    logits = _check_finite(s + r, "add")
    if edge_logits is not None:
        logits = _check_finite(logits + edge_logits.reshape(B, n, n, 1), "add")
    scale = np.where(logits > 0, 1.0, slope)
    alpha = _check_finite(_masked_softmax(_check_finite(logits * scale, "leaky_relu"),
                                          lists.mask, 2), "masked_softmax")
    rows = lists.rows
    if edge_msgs is not None and rows.width < n and not math.isfinite(
            float(max(edge_msgs.max(), -edge_msgs.min())) + float(max(first.max(), -first.min()))):
        _check_finite(edge_msgs.reshape(B, n, n, heads, k) + wh, "add")

    def messages(nodes, pairs):
        """Wh (+ edge_msgs) at the row lists' slots, (..., H, k), and
        whether it is a new array, which the caller may overwrite: it is a
        view of Wh in the dense layout without edge terms."""
        msgs = rows.of_nodes(first, nodes)
        if edge_msgs is not None:
            msgs = rows.of_pairs(edge_msgs, pairs) + msgs
        return (msgs.reshape(msgs.shape[:-1] + (heads, k)),
                nodes is not None or edge_msgs is not None)

    # the products overwrite the messages where they are new arrays; the
    # backward gathers the messages again, as the composed chain's held Wh
    # and edge terms, and holds no (..., H, k) array of its own
    summed = None
    for targets, nodes, pairs in rows.groups:
        msgs, new = messages(nodes, pairs)
        if edge_msgs is not None:
            _check_finite(msgs, "add")
        products = _check_finite(np.multiply(rows.of_pairs(alpha, pairs)[..., None], msgs,
                                             out=msgs if new else None), "mul")
        part = _stable_sum(products, axis=rows.slot_axis(targets))
        if targets is None:
            summed = part
        else:
            summed.reshape(B * n, heads, k)[targets] = part
    _check_finite(summed, "tsum")
    merged = summed.reshape(B, n, d)
    positive = merged > 0
    out = _check_finite(np.where(positive, merged, 0.0), "relu") + x

    # the backward reads these arrays and the shapes of the rest
    shapes = [t.data.shape for t in inputs]
    has_bias, has_edge_logits, has_edge_msgs = (t is not None for t in extras)
    first_shape, s_shape, r_shape = first.shape, s.shape, r.shape

    def backward(g):
        g_summed = (g * positive).reshape(B, n, heads, k)
        # the attention gradient over the row lists; a pair outside them
        # has alpha = 0, so its gradient reaches no logit
        g_alpha = None if rows.width == n else np.zeros((B * n * n, heads))
        for targets, nodes, pairs in rows.groups:
            g_out = (g_summed[:, :, None] if targets is None
                     else g_summed.reshape(B * n, 1, heads, k)[targets])
            msgs, new = messages(nodes, pairs)
            part = np.multiply(g_out, msgs, out=msgs if new else None).sum(axis=-1)
            if pairs is None:
                g_alpha = part
            else:
                g_alpha[pairs] = part
        g_logits = _softmax_grad(g_alpha.reshape(B, n, n, heads), alpha, 2) * scale
        g_s = _unbroadcast(g_logits, s_shape)
        g_r = _unbroadcast(g_logits, r_shape)
        # the message gradients over the column lists, summed over i in order
        cols = lists.columns
        g_msgs = None
        g_edge = np.zeros((B * n * n, heads, k)) if has_edge_msgs else None
        for targets, nodes, pairs in cols.groups:
            g_in = cols.of_nodes(g_summed, nodes)
            g_in = np.multiply(g_in, cols.of_pairs(alpha, pairs)[..., None],
                               out=None if nodes is None else g_in)
            part = g_in.sum(axis=cols.slot_axis(targets))
            if targets is None:
                g_msgs = part.reshape(B * n, heads, k)
            else:
                g_msgs[targets] = part
            if has_edge_msgs:
                if pairs is None:
                    g_edge = g_in
                else:
                    g_edge[pairs] = g_in
        # wh's consumers add their gradients last-made first, as the
        # composed backward sweep does: the messages, then r, then s
        g_wh = (g_msgs.reshape(B, 1, n, heads, k) + np.einsum("bxnh,hk->bxnhk", g_r, dst2)
                + np.einsum("bnxh,hk->bxnhk", g_s, src2))
        g_first = g_wh.reshape(first_shape)
        grads = [g + grad_x(g_first), grad_w(g_first),
                 np.einsum("bnxh,bxnhk->hk", g_s, wh), np.einsum("bxnh,bxnhk->hk", g_r, wh)]
        if has_bias:
            grads.append(_unbroadcast(g_first, shapes[4]))
        if has_edge_logits:
            grads.append(_unbroadcast(g_logits, (B, n, n, 1)))
        if has_edge_msgs:
            grads.append(g_edge)
        return [grad.reshape(shape) for grad, shape in zip(grads, shapes)]

    return _fused("attention_round", out, inputs, backward)


GRU_PARAMS = ("wz", "uz", "bz", "wr", "ur", "br", "wc", "uc", "bc")


def gru_cell(h, m, params: dict) -> Tensor:
    """Gated recurrent update of state h given aggregated message m, as one op.

    params maps 'wz','uz','bz','wr','ur','br','wc','uc','bc' to tensors;
    w* act on h, u* on m. Output: (1 - z) * h + z * tanh((r * h) Wc + m Uc + bc),
    with z = sigmoid(h Wz + m Uz + bz) and r = sigmoid(h Wr + m Ur + br),
    each product, sum and activation computed and checked as its own op
    would be.
    """
    h, m = as_tensor(h), as_tensor(m)
    if h.data.shape != m.data.shape:
        raise ShapeError(f"state {h.data.shape} and message {m.data.shape} differ")
    ps = [as_tensor(params[k]) for k in GRU_PARAMS]
    hd, md = h.data, m.data
    wz, uz, bz, wr, ur, br, wc, uc, bc = (p.data for p in ps)

    def pre_activation(x, w, u, b):
        """`x @ w + m @ u + b`, and the gradient functions of its products."""
        xw, grad_x, grad_w = _product(x, w)
        _check_finite(xw, "matmul")
        mu, grad_m, grad_u = _product(md, u)
        _check_finite(mu, "matmul")
        return _check_finite(_check_finite(xw + mu, "add") + b, "add"), (
            grad_x, grad_w, grad_m, grad_u)

    az, dz = pre_activation(hd, wz, uz, bz)
    z = _check_finite(_sigmoid(az), "sigmoid")
    ar, dr = pre_activation(hd, wr, ur, br)
    r = _check_finite(_sigmoid(ar), "sigmoid")
    rh = _check_finite(r * hd, "mul")
    ac, dc = pre_activation(rh, wc, uc, bc)
    c = _check_finite(np.tanh(ac), "tanh")
    keep_h = _check_finite(1.0 - z, "sub")
    out = _check_finite(keep_h * hd, "mul") + _check_finite(z * c, "mul")
    sz, sr, sc = bz.shape, br.shape, bc.shape

    def backward(g):
        # Contributions to h, m and z are added in the order the composed
        # chain's backward sweep adds them: its last-made consumer first.
        g_z = g * c - g * hd
        g_ac = g * z * (1.0 - c * c)
        g_h = g * keep_h
        g_rh = dc[0](g_ac)
        g_ar = g_rh * hd * r * (1.0 - r)
        g_h = g_h + g_rh * r
        g_az = g_z * z * (1.0 - z)
        g_m = dc[2](g_ac) + dr[2](g_ar) + dz[2](g_az)
        g_h = g_h + dr[0](g_ar) + dz[0](g_az)
        return [g_h, g_m,
                dz[1](g_az), dz[3](g_az), _unbroadcast(g_az, sz),
                dr[1](g_ar), dr[3](g_ar), _unbroadcast(g_ar, sr),
                dc[1](g_ac), dc[3](g_ac), _unbroadcast(g_ac, sc)]

    return _fused("gru_cell", out, [h, m] + ps, backward)


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
