"""Each fused autodiff op against the composed chain it replaced, which is
kept here as the reference: values and every input's gradient must be equal
bit for bit, and the op must record one tape entry."""

import weakref

import numpy as np
import pytest

from agd import autodiff as ad
from agd.autodiff import NonFiniteError, Parameter, Tape, Tensor


# ---------------------------------------------------------------------------
# the composed chains
# ---------------------------------------------------------------------------

def composed_mlp2(x, w1, b1, w2, b2):
    return ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(x, w1), b1)), w2), b2)


def composed_log_softmax(logits):
    shape = logits.data.shape
    lse = ad.logsumexp(logits, axis=len(shape) - 1)
    return ad.sub(logits, ad.reshape(lse, shape[:-1] + (1,)))


def composed_step_log_probs(sel):
    """The ordering network's step log-probs before `log_softmax`."""
    return ad.sub(sel, ad.logsumexp(sel))


def composed_gru_cell(h, m, p):
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(h, p["wz"]), ad.matmul(m, p["uz"])), p["bz"]))
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(h, p["wr"]), ad.matmul(m, p["ur"])), p["br"]))
    c = ad.tanh(ad.add(ad.add(ad.matmul(ad.mul(r, h), p["wc"]), ad.matmul(m, p["uc"])),
                       p["bc"]))
    return ad.add(ad.mul(ad.sub(1.0, z), h), ad.mul(z, c))


def composed_gated_messages(h_src, h_dst, edges, mask, p):
    B, m = mask.shape[:2]
    keep = mask.reshape(B, m * m, 1).astype(np.float64)
    inp = ad.concat([h_src, h_dst, edges], axis=2)
    msg = composed_mlp2(inp, p["f1"], p["f1b"], p["f2"], p["f2b"])
    gate = ad.sigmoid(composed_mlp2(inp, p["g1"], p["g1b"], p["g2"], p["g2b"]))
    gated = ad.mul(ad.mul(gate, keep), msg)
    return ad.tsum(ad.reshape(gated, (B, m, m, msg.shape[-1])), axis=2)


def composed_ordering_round(h, w, a_src, a_dst, mask, slope=0.2):
    """The ordering network's layer: H heads, no bias, no edge terms."""
    b, n, _ = h.shape
    heads, k = a_src.shape
    wh = ad.reshape(ad.matmul(h, w), (b, 1, n, heads, k))
    s = ad.einsum("bxnhk,hk->bnxh", wh, a_src)
    r = ad.einsum("bxnhk,hk->bxnh", wh, a_dst)
    alpha = ad.masked_softmax(ad.leaky_relu(ad.add(s, r), slope=slope), mask, axis=2)
    msgs = ad.mul(ad.reshape(alpha, (b, n, n, heads, 1)), wh)
    merged = ad.reshape(ad.tsum(msgs, axis=2), (b, n, heads * k))
    return ad.add(ad.relu(merged), h)


def composed_gat_round(h, w, a_src, a_dst, mask, bias, edge_logits=None, edge_msgs=None,
                       slope=0.2):
    """The denoiser's GAT layer, in its own (B, m, m) layout with no head
    axis; `mask` is (B, m, m)."""
    B, m, d = h.shape
    msgs = ad.reshape(ad.add(ad.matmul(h, w), bias), (B, 1, m, d))
    logits = ad.add(ad.einsum("bxnd,d->bnx", msgs, a_src),
                    ad.einsum("bxnd,d->bxn", msgs, a_dst))
    if edge_logits is not None:
        logits = ad.add(logits, edge_logits)
        msgs = ad.add(edge_msgs, msgs)
    alpha = ad.masked_softmax(ad.leaky_relu(logits, slope=slope), mask, axis=2)
    out = ad.tsum(ad.mul(ad.reshape(alpha, (B, m, m, 1)), msgs), axis=2)
    return ad.add(ad.relu(out), h)


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

def _run(fn, arrays, untracked=()):
    """fn over `arrays` watched on a fresh tape (the names in `untracked`
    passed as plain tensors): (value, {name: gradient}, tape entries fn made)."""
    tape = Tape()
    tensors = {name: Tensor(a) if name in untracked else tape.watch(Parameter(name, a))
               for name, a in arrays.items()}
    before = len(tape._entries)
    out = fn(tensors)
    entries = len(tape._entries) - before
    weights = np.random.default_rng(99).normal(size=out.shape)
    grads = tape.gradients(ad.tsum(ad.mul(out, weights)))
    return out.data, {k: g for k, g in grads.items() if k not in untracked}, entries


def assert_same_bits(fused, composed, arrays, untracked=()):
    value, grads, entries = _run(fused, arrays, untracked)
    ref_value, ref_grads, _ = _run(composed, arrays, untracked)
    assert entries == 1
    assert value.shape == ref_value.shape
    assert np.array_equal(value, ref_value)
    assert grads.keys() == ref_grads.keys() and grads
    for name in grads:
        assert grads[name].shape == ref_grads[name].shape, name
        assert np.array_equal(grads[name], ref_grads[name]), name


def _mask(rng, shape, p=0.4):
    """A random boolean (..., n, n) neighbour mask, self included."""
    mask = rng.random(shape) < p
    return mask | np.eye(shape[-1], dtype=bool)


# tiny widths are the test and train-tiny-gru configs; the rest are the paper defaults
WIDTHS = {"tiny": (6, 8), "tiny-gru": (14, 16), "paper": (128, 256)}


# ---------------------------------------------------------------------------
# mlp2 and log_softmax
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width", ["tiny", "paper"])
@pytest.mark.parametrize("lead", [(5,), (1, 1), (3, 7), (2, 4, 9)])
def test_mlp2_equals_the_composed_chain(width, lead):
    d, mh = WIDTHS[width]
    rng = np.random.default_rng(len(lead) + d)
    arrays = {"x": rng.normal(size=lead + (3 * d,)), "w1": rng.normal(size=(3 * d, mh)) * 0.1,
              "b1": rng.normal(size=mh), "w2": rng.normal(size=(mh, 5)) * 0.1,
              "b2": rng.normal(size=5)}
    order = list(arrays)
    assert_same_bits(lambda t: ad.mlp2(*(t[k] for k in order)),
                     lambda t: composed_mlp2(*(t[k] for k in order)), arrays)


def test_mlp2_broadcast_biases_and_an_untracked_input():
    rng = np.random.default_rng(3)
    arrays = {"x": rng.normal(size=(2, 6, 10)), "w1": rng.normal(size=(10, 8)),
              "b1": rng.normal(size=(2, 1, 8)), "w2": rng.normal(size=(8, 1)),
              "b2": rng.normal(size=(1, 1, 1))}
    order = list(arrays)
    for untracked in [(), ("x",), ("w1", "b2")]:
        assert_same_bits(lambda t: ad.mlp2(*(t[k] for k in order)),
                         lambda t: composed_mlp2(*(t[k] for k in order)), arrays, untracked)


@pytest.mark.parametrize("shape", [(1,), (7,), (1, 3), (4, 1), (3, 20), (2, 5, 3, 4)])
def test_log_softmax_equals_the_composed_chain(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.normal(size=shape) * 3.0
    x.reshape(-1)[0] = -900.0                         # an exp that underflows to 0
    assert_same_bits(lambda t: ad.log_softmax(t["x"]),
                     lambda t: composed_log_softmax(t["x"]), {"x": x})
    if len(shape) == 1:
        assert_same_bits(lambda t: ad.log_softmax(t["x"]),
                         lambda t: composed_step_log_probs(t["x"]), {"x": x})


# ---------------------------------------------------------------------------
# gru_cell and gated_messages
# ---------------------------------------------------------------------------

def _gru_arrays(rng, lead, d):
    arrays = {"h": rng.normal(size=lead + (d,)), "m": rng.normal(size=lead + (d,))}
    arrays.update({k: rng.normal(size=(d, d)) / np.sqrt(d)
                   for k in ("wz", "uz", "wr", "ur", "wc", "uc")})
    arrays.update({k: rng.normal(size=d) for k in ("bz", "br", "bc")})
    return arrays


def _gru(cell):
    return lambda t: cell(t["h"], t["m"], {k: t[k] for k in ad.GRU_PARAMS})


@pytest.mark.parametrize("width", ["tiny", "tiny-gru", "paper"])
@pytest.mark.parametrize("lead", [(), (5,), (1, 4), (3, 9)])
def test_gru_cell_equals_the_composed_chain(width, lead):
    d = WIDTHS[width][0]
    arrays = _gru_arrays(np.random.default_rng(d + len(lead)), lead, d)
    assert_same_bits(_gru(ad.gru_cell), _gru(composed_gru_cell), arrays)


@pytest.mark.parametrize("untracked", [("h",), ("m",), ("wz", "bc")])
def test_gru_cell_with_untracked_inputs(untracked):
    arrays = _gru_arrays(np.random.default_rng(21), (2, 5), 6)
    assert_same_bits(_gru(ad.gru_cell), _gru(composed_gru_cell), arrays, untracked)


def test_gru_preactivation_overflow_names_the_inner_op():
    # h @ wz and m @ uz are finite, their sum is not; sigmoid(inf) would be
    # a finite 1.0, so only the check of the inner add can catch it
    d = 3
    arrays = _gru_arrays(np.random.default_rng(22), (), d)
    arrays.update(h=np.ones(d), m=np.ones(d), wz=np.full((d, d), 1e308 / d),
                  uz=np.full((d, d), 1e308 / d))
    tensors = {k: Tensor(v) for k, v in arrays.items()}
    with np.errstate(over="ignore"):
        assert np.isfinite(arrays["h"] @ arrays["wz"]).all()
        for cell in (composed_gru_cell, ad.gru_cell):
            with pytest.raises(NonFiniteError, match="^add produced a non-finite value$"):
                _gru(cell)(tensors)


def _message_arrays(rng, B, m, d, mh):
    arrays = {"h_src": rng.normal(size=(B, m * m, d)), "h_dst": rng.normal(size=(B, m * m, d)),
              "edges": rng.normal(size=(B, m * m, d)),
              "f1": rng.normal(size=(3 * d, mh)) / np.sqrt(3 * d), "f1b": rng.normal(size=mh),
              "f2": rng.normal(size=(mh, d)) / np.sqrt(mh), "f2b": rng.normal(size=d),
              "g1": rng.normal(size=(3 * d, mh)) / np.sqrt(3 * d), "g1b": rng.normal(size=mh),
              "g2": rng.normal(size=(mh, 1)) / np.sqrt(mh), "g2b": rng.normal(size=1)}
    mask = rng.random((B, m, m)) < 0.4
    mask[:, np.arange(m), np.arange(m)] = False
    return arrays, mask


def _messages(op, mask):
    return lambda t: op(t["h_src"], t["h_dst"], t["edges"], mask,
                        {k: t[k] for k in ad.MESSAGE_PARAMS})


@pytest.mark.parametrize("width", ["tiny", "tiny-gru", "paper"])
@pytest.mark.parametrize("B, m", [(1, 1), (1, 5), (3, 4), (2, 11)])
def test_gated_messages_equal_the_composed_chain(width, B, m):
    d, mh = WIDTHS[width]
    arrays, mask = _message_arrays(np.random.default_rng(B * m + d), B, m, d, mh)
    assert_same_bits(_messages(ad.gated_messages, mask),
                     _messages(composed_gated_messages, mask), arrays)


def test_gated_messages_with_an_untracked_input():
    arrays, mask = _message_arrays(np.random.default_rng(31), 2, 4, 6, 8)
    for untracked in [("edges",), ("h_src", "g2b")]:
        assert_same_bits(_messages(ad.gated_messages, mask),
                         _messages(composed_gated_messages, mask), arrays, untracked)


# ---------------------------------------------------------------------------
# attention_round: the ordering layout (H heads) and the GAT layout (one head)
# ---------------------------------------------------------------------------

def _ordering_arrays(rng, b, n, heads, k):
    d = heads * k
    return {"h": rng.normal(size=(b, n, d)), "w": rng.normal(size=(d, d)) / np.sqrt(d),
            "a_src": rng.normal(size=(heads, k)), "a_dst": rng.normal(size=(heads, k))}


@pytest.mark.parametrize("b, n, heads, k", [
    (1, 1, 1, 2), (1, 2, 1, 2), (3, 5, 2, 6),          # the test configs
    (1, 12, 6, 32), (4, 9, 6, 32), (2, 20, 6, 32),     # the paper widths
])
def test_attention_round_equals_the_ordering_layer(b, n, heads, k):
    rng = np.random.default_rng(b * n + k)
    arrays = _ordering_arrays(rng, b, n, heads, k)
    mask = _mask(rng, (n, n))[:, :, None]
    args = lambda t: (t["h"], t["w"], t["a_src"], t["a_dst"], mask)
    assert_same_bits(lambda t: ad.attention_round(*args(t), slope=0.2),
                     lambda t: composed_ordering_round(*args(t)), arrays)
    assert_same_bits(lambda t: ad.attention_round(*args(t), slope=0.2),
                     lambda t: composed_ordering_round(*args(t)), arrays, ("h",))


@pytest.mark.parametrize("edges", [True, False])
@pytest.mark.parametrize("B, m, d", [
    (1, 1, 6), (1, 4, 6), (3, 5, 14),                  # the test configs
    (1, 9, 128), (2, 12, 128), (1, 16, 128),           # the paper widths
])
def test_attention_round_equals_the_gat_layer(B, m, d, edges):
    rng = np.random.default_rng(B * m + d + edges)
    arrays = {"h": rng.normal(size=(B, m, d)), "w": rng.normal(size=(d, d)) / np.sqrt(d),
              "a_src": rng.normal(size=d), "a_dst": rng.normal(size=d),
              "bias": rng.normal(size=d)}
    if edges:
        arrays.update(edge_logits=rng.normal(size=(B, m, m)),
                      edge_msgs=rng.normal(size=(B, m, m, d)))
    mask = _mask(rng, (B, m, m))
    extra = lambda t: (t.get("edge_logits"), t.get("edge_msgs"))
    fused = lambda t: ad.attention_round(t["h"], t["w"], t["a_src"], t["a_dst"],
                                         mask[..., None], t["bias"], *extra(t), slope=0.2)
    composed = lambda t: composed_gat_round(t["h"], t["w"], t["a_src"], t["a_dst"], mask,
                                            t["bias"], *extra(t))
    assert_same_bits(fused, composed, arrays)
    assert_same_bits(fused, composed, arrays, ("edge_msgs",) if edges else ("bias",))


def test_attention_round_refuses_mismatched_heads():
    rng = np.random.default_rng(5)
    arrays = _ordering_arrays(rng, 1, 3, 2, 4)
    with pytest.raises(ad.ShapeError):
        ad.attention_round(arrays["h"], arrays["w"], np.ones((3, 4)), np.ones((3, 4)), True)
    with pytest.raises(ad.ShapeError):
        ad.attention_round(arrays["h"], arrays["w"], arrays["a_src"], np.ones(8), True)


def test_attention_backward_keeps_no_message_product(monkeypatch):
    # The (b, n, n, H, k) products alpha * Wh are summed over j and read by
    # no gradient, so once the op returns nothing holds them; the sorted sum
    # is handed the products themselves.
    seen = []
    stable_sum = ad._stable_sum

    def spy(data, axis, keepdims=False):
        if data.ndim == 5:
            seen.append(weakref.ref(data))
        return stable_sum(data, axis, keepdims)

    monkeypatch.setattr(ad, "_stable_sum", spy)
    rng = np.random.default_rng(6)
    arrays = _ordering_arrays(rng, 2, 6, 2, 4)
    tape = Tape()
    t = {k: tape.watch(Parameter(k, v)) for k, v in arrays.items()}
    out = ad.attention_round(t["h"], t["w"], t["a_src"], t["a_dst"],
                             _mask(rng, (6, 6))[:, :, None])
    assert len(seen) == 1 and seen[0]() is None
    assert out.tape is tape
    assert tape.gradients(ad.tsum(out)).keys() == arrays.keys()
