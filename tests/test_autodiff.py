import gc
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

from agd import autodiff as ad
from agd.autodiff import (NonFiniteError, Parameter, ShapeError, Tape, Tensor,
                          grad_check, gru_cell, uniform_init)


def test_softmax_symmetry():
    s = ad.softmax(Tensor([0.0, 0.0]))
    assert np.allclose(s.data, [0.5, 0.5])
    assert abs(s.data.sum() - 1.0) < 1e-9


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 7)))
    s = ad.softmax(x, axis=-1)
    assert np.all(s.data >= 0)
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-9)


def test_leaky_relu_definition():
    y = ad.leaky_relu(Tensor([-1.0, 2.0]), slope=0.2)
    assert np.allclose(y.data, [-0.2, 2.0])


def test_matmul_against_scalar_loop():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 2))
    out = ad.matmul(Tensor(a), Tensor(b)).data
    ref = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(3):
                ref[i, j] += a[i, k] * b[k, j]
    assert np.allclose(out, ref, atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_nonfinite_is_an_error():
    with pytest.raises(NonFiniteError):
        ad.log(Tensor([0.0]))
    with pytest.raises(NonFiniteError):
        ad.exp(Tensor([1e6]))


def test_nonfinite_error_names_the_op():
    with pytest.raises(NonFiniteError, match="^exp produced a non-finite value$"):
        ad.exp(Tensor([800.0]))


def test_backward_sum_gives_ones():
    w = Parameter("w", np.array([1.0, -2.0, 3.0]))
    tape = Tape()
    loss = ad.tsum(tape.watch(w))
    grads = tape.gradients(loss)
    assert np.array_equal(grads["w"], np.ones(3))


def test_backward_quadratic_gives_w():
    w = Parameter("w", np.array([1.5, -0.5, 2.0]))
    tape = Tape()
    wt = tape.watch(w)
    loss = ad.mul(ad.tsum(ad.mul(wt, wt)), 0.5)
    grads = tape.gradients(loss)
    assert np.allclose(grads["w"], w.data, atol=1e-12)


def test_unused_parameter_gets_zero_gradient():
    w = Parameter("w", np.ones(3))
    u = Parameter("u", np.ones((2, 2)))
    tape = Tape()
    wt = tape.watch(w)
    tape.register(u)
    grads = tape.gradients(ad.tsum(wt))
    assert np.array_equal(grads["u"], np.zeros((2, 2)))


def test_non_scalar_loss_rejected():
    w = Parameter("w", np.ones(3))
    tape = Tape()
    wt = tape.watch(w)
    with pytest.raises(ShapeError):
        tape.gradients(wt)


def test_mixed_tapes_rejected():
    w = Parameter("w", np.ones(2))
    t1, t2 = Tape(), Tape()
    a = t1.watch(w)
    b = t2.watch(Parameter("u", np.ones(2)))
    with pytest.raises(ValueError):
        ad.add(a, b)


def test_grad_check_quadratic():
    rng = np.random.default_rng(2)
    w = Parameter("w", rng.normal(size=4))

    def fn(tape):
        wt = tape.watch(w) if tape is not None else Tensor(w.data)
        return ad.mul(ad.tsum(ad.mul(wt, wt)), 0.5)

    assert grad_check(fn, {"w": w}) < 1e-8


def test_grad_check_two_layer_network():
    rng = np.random.default_rng(3)
    params = {
        "w1": Parameter("w1", uniform_init(rng, (4, 5), 4)),
        "b1": Parameter("b1", uniform_init(rng, (5,), 4)),
        "w2": Parameter("w2", uniform_init(rng, (5, 3), 5)),
    }
    # keep inputs away from the leaky_relu kink
    x = rng.normal(size=(2, 4)) + 3.0

    def fn(tape):
        get = (lambda p: tape.watch(p)) if tape is not None else (lambda p: Tensor(p.data))
        h = ad.leaky_relu(ad.add(ad.matmul(Tensor(x), get(params["w1"])), get(params["b1"])))
        out = ad.matmul(h, get(params["w2"]))
        return ad.tsum(ad.mul(out, out))

    assert grad_check(fn, params) < 1e-4


def test_grad_check_softmax_loglik_head():
    rng = np.random.default_rng(4)
    params = {"w": Parameter("w", uniform_init(rng, (6, 3), 6))}
    x = rng.normal(size=6)

    def fn(tape):
        wt = tape.watch(params["w"]) if tape is not None else Tensor(params["w"].data)
        logits = ad.matmul(Tensor(x), wt)
        return ad.neg(ad.pick(ad.log(ad.softmax(logits)), 1))

    assert grad_check(fn, params) < 1e-4


def test_grad_check_logsumexp_and_gather():
    rng = np.random.default_rng(5)
    params = {"t": Parameter("t", uniform_init(rng, (4, 3), 4))}

    def fn(tape):
        tt = tape.watch(params["t"]) if tape is not None else Tensor(params["t"].data)
        r = ad.rows(tt, [0, 2, 2])
        return ad.logsumexp(ad.tsum(r, axis=1))

    assert grad_check(fn, params) < 1e-4


def _composed_logsumexp(a, axis=None):
    """log-sum-exp as the chain of five primitives that `ad.logsumexp` fuses."""
    if axis is None:
        m = float(a.data.max())
        return ad.add(ad.log(ad.tsum(ad.exp(ad.sub(a, m)))), m)
    m = a.data.max(axis=axis, keepdims=True)
    return ad.add(ad.log(ad.tsum(ad.exp(ad.sub(a, m)), axis=axis)), np.squeeze(m, axis=axis))


@pytest.mark.parametrize("shape", [(7,), (4, 5), (2, 3, 4)])
def test_fused_logsumexp_equals_the_composed_chain(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.normal(size=shape) * 3.0
    x[(0,) * (len(shape) - 1)] = np.linspace(-900.0, 0.0, shape[-1])  # exp underflows to 0
    for axis in [None] + list(range(len(shape))) + [-1]:
        results = []
        for fn in (ad.logsumexp, _composed_logsumexp):
            tape = Tape()
            a = tape.watch(Parameter("x", x))
            before = len(tape._entries)
            out = fn(a, axis)
            entries = len(tape._entries) - before
            weights = np.random.default_rng(1).normal(size=out.shape)
            grad = tape.gradients(ad.tsum(ad.mul(out, weights)))["x"]
            results.append((out.data, grad, entries))
        (value, grad, entries), (ref_value, ref_grad, _) = results
        assert value.shape == ref_value.shape
        assert np.array_equal(value, ref_value), axis
        assert np.array_equal(grad, ref_grad), axis
        assert entries == 1


def test_grad_check_matmul_blocks():
    rng = np.random.default_rng(7)
    params = {f"x{i}": Parameter(f"x{i}", rng.normal(size=(1, rows, 4)))
              for i, rows in enumerate((1, 3, 2))}
    params["w"] = Parameter("w", uniform_init(rng, (4, 5), 4))
    weights = rng.normal(size=(1, 6, 5))

    def fn(tape):
        get = (lambda p: tape.watch(p)) if tape is not None else (lambda p: Tensor(p.data))
        out = ad.matmul_blocks([get(params[f"x{i}"]) for i in range(3)], get(params["w"]))
        return ad.tsum(ad.mul(ad.tanh(out), weights))

    assert grad_check(fn, params) < 1e-6


def _flat_gather_results(x, gather):
    """`gather(a)` of x watched on a tape: its value and x's gradient under a
    fixed random weighting."""
    tape = Tape()
    out = gather(tape.watch(Parameter("x", x)))
    weights = np.random.default_rng(2).normal(size=out.shape)
    return out.data, tape.gradients(ad.tsum(ad.mul(out, weights)))["x"]


@pytest.mark.parametrize("shape", [(4, 5), (2, 3, 4)])
def test_take_and_pick_read_any_tensor_flat(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.normal(size=shape)
    ids = rng.integers(0, x.size, size=(3, 4))
    ids[0, :2] = ids[1, 3]                       # a repeated entry adds its gradients
    cases = [(lambda a: ad.take(a, ids), lambda a: ad.take(ad.reshape(a, (-1,)), ids))]
    cases += [(lambda a, i=i: ad.pick(a, i), lambda a, i=i: ad.pick(ad.reshape(a, (-1,)), i))
              for i in (0, int(ids[1, 3]), x.size - 1)]
    for flat, via_reshape in cases:
        (value, grad), (want_value, want_grad) = (_flat_gather_results(x, flat),
                                                  _flat_gather_results(x, via_reshape))
        assert value.shape == want_value.shape
        assert np.array_equal(value, want_value)
        assert np.array_equal(grad, want_grad)


def test_grad_check_take_of_a_3d_tensor():
    rng = np.random.default_rng(9)
    params = {"t": Parameter("t", rng.normal(size=(2, 3, 4)))}
    ids = np.array([[0, 5, 23], [5, 17, 11]])
    weights = rng.normal(size=ids.shape)

    def fn(tape):
        t = tape.watch(params["t"]) if tape is not None else Tensor(params["t"].data)
        return ad.tsum(ad.mul(ad.exp(ad.take(t, ids)), weights))

    assert grad_check(fn, params) < 1e-6


class TestMatmulBlocks:
    def test_each_block_has_the_bits_of_its_own_matmul(self):
        """At the default edge-head widths, blocks of 1 to 15 rows, each
        1-row block included: BLAS gives a lone row other bits than the same
        row inside a larger product, so each block is multiplied alone."""
        rng = np.random.default_rng(8)
        w = Parameter("w", uniform_init(rng, (384, 256), 384))
        sizes = [1, 15, 2, 1, 7, 3, 11, 1, 4, 5, 6, 8, 9, 10, 12, 13, 14, 1]
        parts = [Parameter(f"x{i}", rng.normal(size=(1, rows, 384)))
                 for i, rows in enumerate(sizes)]
        upstream = rng.normal(size=(1, sum(sizes), 256))
        tape = Tape()
        out = ad.matmul_blocks([tape.watch(p) for p in parts], tape.watch(w))
        grads = tape.gradients(ad.tsum(ad.mul(out, upstream)))
        lo = 0
        for p, rows in zip(parts, sizes):
            alone = Tape()
            own = ad.matmul(alone.watch(p), alone.watch(w))
            assert np.array_equal(out.data[:, lo:lo + rows], own.data), rows
            own_grad = alone.gradients(ad.tsum(ad.mul(own, upstream[:, lo:lo + rows])))
            assert np.array_equal(grads[p.name], own_grad[p.name]), rows
            lo += rows
        joined = np.concatenate([p.data for p in parts], axis=1)[0]
        assert np.array_equal(grads["w"], joined.T @ upstream[0])

    @pytest.mark.parametrize("parts, w", [
        ([], np.ones((3, 2))),
        ([np.ones((2, 3))], np.ones((3, 2))),
        ([np.ones((2, 1, 3))], np.ones((3, 2))),
        ([np.ones((1, 2, 3)), np.ones((1, 2, 4))], np.ones((3, 2))),
        ([np.ones((1, 2, 3))], np.ones(3)),
    ], ids=["no-block", "2-d", "stack", "width", "vector"])
    def test_bad_shapes_are_refused(self, parts, w):
        with pytest.raises(ShapeError, match="matmul_blocks"):
            ad.matmul_blocks(parts, w)


def test_grad_check_rejects_nondeterministic_fn():
    rng = np.random.default_rng(6)
    w = Parameter("w", np.ones(2))

    def fn(tape):
        return Tensor(rng.normal())

    with pytest.raises(ValueError):
        grad_check(fn, {"w": w})


def test_operations_are_deterministic():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 4))
    a = ad.softmax(Tensor(x), axis=0)
    b = ad.softmax(Tensor(x.copy()), axis=0)
    assert np.array_equal(a.data, b.data)


def test_sorted_reduction_is_permutation_exact():
    rng = np.random.default_rng(8)
    x = rng.normal(size=17)
    perm = rng.permutation(17)
    assert ad.tsum(Tensor(x)).item() == ad.tsum(Tensor(x[perm])).item()
    s1 = ad.softmax(Tensor(x)).data
    s2 = ad.softmax(Tensor(x[perm])).data
    assert np.array_equal(s2, s1[perm])


def _getter(tape):
    if tape is None:
        return lambda p: Tensor(p.data)
    return tape.watch


def test_einsum_against_numpy():
    rng = np.random.default_rng(30)
    a, b = rng.normal(size=(5, 3, 4)), rng.normal(size=(3, 4))
    out = ad.einsum("nhk,hk->nh", Tensor(a), Tensor(b)).data
    assert np.allclose(out, (a * b).sum(axis=2), atol=1e-12)


@pytest.mark.parametrize("spec, shape_a, shape_b", [
    ("ij,jk->ik", (3, 4), (4, 2)),
    ("nhk,hk->nh", (4, 3, 2), (3, 2)),
    ("ij,kj->jik", (3, 2), (4, 2)),
])
def test_grad_check_einsum(spec, shape_a, shape_b):
    rng = np.random.default_rng(31)
    params = {"a": Parameter("a", rng.normal(size=shape_a)),
              "b": Parameter("b", rng.normal(size=shape_b))}
    out_shape = np.einsum(spec, params["a"].data, params["b"].data).shape
    weights = rng.normal(size=out_shape)

    def fn(tape):
        get = _getter(tape)
        out = ad.einsum(spec, get(params["a"]), get(params["b"]))
        return ad.tsum(ad.mul(out, weights))

    assert grad_check(fn, params) < 1e-6


@pytest.mark.parametrize("spec, shape_a, shape_b", [
    ("ij,jk", (2, 2), (2, 2)),            # no explicit output
    ("ij,jk->ik", (2, 3), (2, 2)),        # j disagrees
    ("ij,jk->ik", (2, 2), (2, 2, 2)),     # rank does not match the term
    ("ij,k->ik", (2, 2), (2,)),           # j is summed over a alone
    ("ii,ij->j", (2, 2), (2, 2)),         # repeated index in one term
    ("ij,jk->iz", (2, 2), (2, 2)),        # z is in no operand
])
def test_einsum_rejects_bad_specs(spec, shape_a, shape_b):
    with pytest.raises(ShapeError):
        ad.einsum(spec, Tensor(np.ones(shape_a)), Tensor(np.ones(shape_b)))


def _softmax_mask(rng, shape):
    mask = rng.random(shape) < 0.5
    mask[:, 0] = True      # no fully masked row
    return mask


@pytest.mark.parametrize("axis", [1, 0])
def test_grad_check_masked_softmax(axis):
    rng = np.random.default_rng(32)
    params = {"x": Parameter("x", rng.normal(size=(4, 5)))}
    mask = _softmax_mask(rng, (4, 5))
    mask[0, :] = True      # no fully masked column either
    weights = rng.normal(size=(4, 5))

    def fn(tape):
        p = ad.masked_softmax(_getter(tape)(params["x"]), mask, axis=axis)
        return ad.tsum(ad.mul(p, weights))

    assert grad_check(fn, params) < 1e-6


def test_masked_softmax_matches_softmax_of_kept_entries():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(3, 9))
    mask = _softmax_mask(rng, (3, 9))
    out = ad.masked_softmax(Tensor(x), mask).data
    for i in range(3):
        kept = ad.softmax(Tensor(x[i, mask[i]])).data
        assert np.allclose(out[i, mask[i]], kept, atol=1e-15)


def test_masked_entries_get_zero_probability_and_gradient():
    rng = np.random.default_rng(34)
    x = Parameter("x", rng.normal(size=(3, 6)) * 50.0)
    mask = _softmax_mask(rng, (3, 6))
    tape = Tape()
    p = ad.masked_softmax(tape.watch(x), mask)
    assert np.all(p.data[~mask] == 0.0)
    assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-12)
    loss = ad.tsum(ad.mul(p, rng.normal(size=(3, 6))))
    grad = tape.gradients(loss)["x"]
    assert np.all(grad[~mask] == 0.0)
    assert np.any(grad[mask] != 0.0)


def test_masked_softmax_mask_broadcasts():
    rng = np.random.default_rng(35)
    x = rng.normal(size=(4, 4, 3))
    mask = _softmax_mask(rng, (4, 4))
    out = ad.masked_softmax(Tensor(x), mask[:, :, None], axis=1).data
    for h in range(3):
        expect = ad.masked_softmax(Tensor(x[:, :, h]), mask, axis=1).data
        assert np.array_equal(out[:, :, h], expect)


def test_fully_masked_row_raises():
    mask = np.array([[True, False], [False, False]])
    with pytest.raises(ShapeError):
        ad.masked_softmax(Tensor(np.zeros((2, 2))), mask)
    with pytest.raises(ShapeError):
        ad.masked_softmax(Tensor(np.zeros((2, 2))), np.ones(3, dtype=bool))


def test_masked_softmax_is_permutation_exact():
    rng = np.random.default_rng(36)
    x = rng.normal(size=(4, 17))
    mask = _softmax_mask(rng, (4, 17))
    perm = rng.permutation(17)
    base = ad.masked_softmax(Tensor(x), mask).data
    permuted = ad.masked_softmax(Tensor(x[:, perm]), mask[:, perm]).data
    assert np.array_equal(permuted, base[:, perm])


def test_sorted_reductions_ignore_memory_layout():
    rng = np.random.default_rng(37)
    x = rng.normal(size=(5, 17))
    xf = np.asfortranarray(x)
    assert np.array_equal(ad.tsum(Tensor(xf), axis=1).data, ad.tsum(Tensor(x), axis=1).data)
    assert np.array_equal(ad.softmax(Tensor(xf)).data, ad.softmax(Tensor(x)).data)


def _gru_reference(h, m, p):
    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))
    z = sig(h @ p["wz"] + m @ p["uz"] + p["bz"])
    r = sig(h @ p["wr"] + m @ p["ur"] + p["br"])
    c = np.tanh((r * h) @ p["wc"] + m @ p["uc"] + p["bc"])
    return (1.0 - z) * h + z * c


def _gru_tensor_params(arrays):
    return {k: Tensor(v) for k, v in arrays.items()}


def test_gru_zero_weights_mixes_half():
    hdim = 3
    arrays = {k: np.zeros((hdim, hdim)) for k in ("wz", "uz", "wr", "ur", "wc", "uc")}
    arrays.update({k: np.zeros(hdim) for k in ("bz", "br", "bc")})
    h = np.array([1.0, -2.0, 0.5])
    m = np.array([0.3, 0.1, -0.4])
    out = gru_cell(Tensor(h), Tensor(m), _gru_tensor_params(arrays))
    assert np.allclose(out.data, 0.5 * h, atol=1e-12)
    assert np.allclose(out.data, _gru_reference(h, m, arrays), atol=1e-12)


def test_gru_zero_message_candidate_path():
    rng = np.random.default_rng(9)
    hdim = 3
    arrays = {k: np.zeros((hdim, hdim)) for k in ("wz", "uz", "wr", "ur")}
    arrays["wc"] = rng.normal(size=(hdim, hdim))
    arrays["uc"] = rng.normal(size=(hdim, hdim))
    arrays.update({k: np.zeros(hdim) for k in ("bz", "br", "bc")})
    h = rng.normal(size=hdim)
    m = np.zeros(hdim)
    out = gru_cell(Tensor(h), Tensor(m), _gru_tensor_params(arrays))
    expect = 0.5 * h + 0.5 * np.tanh((0.5 * h) @ arrays["wc"])
    assert np.allclose(out.data, expect, atol=1e-12)


def test_gru_shape_contract():
    rng = np.random.default_rng(10)
    hdim = 4
    arrays = {k: rng.normal(size=(hdim, hdim)) * 0.1 for k in ("wz", "uz", "wr", "ur", "wc", "uc")}
    arrays.update({k: rng.normal(size=hdim) * 0.1 for k in ("bz", "br", "bc")})
    out = gru_cell(Tensor(rng.normal(size=hdim)), Tensor(rng.normal(size=hdim)),
                   _gru_tensor_params(arrays))
    assert out.data.shape == (hdim,)
    with pytest.raises(ShapeError):
        gru_cell(Tensor(np.ones(3)), Tensor(np.ones(4)), _gru_tensor_params(arrays))


def test_gru_grad_check():
    rng = np.random.default_rng(11)
    hdim = 3
    params = {}
    for k in ("wz", "uz", "wr", "ur", "wc", "uc"):
        params[k] = Parameter(k, uniform_init(rng, (hdim, hdim), hdim))
    for k in ("bz", "br", "bc"):
        params[k] = Parameter(k, uniform_init(rng, (hdim,), hdim))
    h = rng.normal(size=hdim)
    m = rng.normal(size=hdim)

    def fn(tape):
        if tape is not None:
            pt = {k: tape.watch(p) for k, p in params.items()}
        else:
            pt = {k: Tensor(p.data) for k, p in params.items()}
        out = gru_cell(Tensor(h), Tensor(m), pt)
        return ad.tsum(ad.mul(out, out))

    assert grad_check(fn, params) < 1e-4


def test_finite_difference_on_random_composite_network():
    rng = np.random.default_rng(12)
    params = {
        "emb": Parameter("emb", uniform_init(rng, (5, 4), 5)),
        "w": Parameter("w", uniform_init(rng, (8, 4), 8)),
        "a": Parameter("a", uniform_init(rng, (4,), 4)),
    }

    def fn(tape):
        get = (lambda p: tape.watch(p)) if tape is not None else (lambda p: Tensor(p.data))
        e = ad.rows(get(params["emb"]), [0, 3, 1])
        h = ad.tanh(ad.matmul(ad.concat([e, e], axis=1), get(params["w"])))
        scores = ad.matmul(h, get(params["a"]))
        return ad.neg(ad.pick(ad.log(ad.softmax(scores)), 0))

    assert grad_check(fn, params, eps=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# memory: reference counting alone frees a tape
# ---------------------------------------------------------------------------

@pytest.fixture
def cyclic_gc_off():
    """Only reference counting frees objects while the test runs."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _public_ops() -> set[str]:
    non_ops = {"uniform_init", "as_tensor", "grad_check"}
    return {name for name, obj in vars(ad).items()
            if inspect.isfunction(obj) and obj.__module__ == ad.__name__
            and not name.startswith("_") and name not in non_ops}


def _loss_through_every_op(tape: Tape) -> Tensor:
    rng = np.random.default_rng(50)
    w = tape.watch(Parameter("w", rng.normal(size=(4, 4))))
    v = tape.watch(Parameter("v", rng.normal(size=4)))
    tape.register(Parameter("unused", np.ones(2)))
    gru = {k: tape.watch(Parameter(k, rng.normal(size=(4, 4))))
           for k in ("wz", "uz", "wr", "ur", "wc", "uc")}
    gru.update({k: tape.watch(Parameter(k, rng.normal(size=4))) for k in ("bz", "br", "bc")})
    h = ad.tanh(ad.matmul(w, v))
    parts = [
        ad.add(h, 1.0), ad.sub(h, v), ad.neg(h), ad.mul(h, v), h @ w,
        ad.concat([h, v]), ad.stack([h, v]), ad.reshape(w, (2, 8)), ad.tile_row(v, 3),
        ad.rows(w, [0, 2, 2]), ad.take(v, [1, 3, 1]), ad.pick(v, 2),
        ad.relu(h), ad.leaky_relu(h), ad.sigmoid(h), ad.exp(h),
        ad.log(ad.sigmoid(v)), ad.tmean(w, axis=0), ad.softmax(w, axis=-1),
        ad.masked_softmax(w, np.array([True, False, True, True])),
        ad.einsum("ij,j->i", w, v), ad.logsumexp(w, axis=1), ad.logsumexp(v),
        ad.gru_cell(h, v, gru),
        ad.matmul_blocks([ad.reshape(w, (1, 4, 4)), ad.reshape(h, (1, 1, 4))], w),
    ]
    total = ad.tsum(parts[0])
    for part in parts[1:]:
        total = total + ad.tsum(part)
    return total


class TestTapeFreedByReferenceCounting:
    """Backward closures hold arrays, never a Tensor, and the tape keeps node
    ids, so a tape is no reference cycle: it dies with its last tensor."""

    def test_every_op_leaves_the_tape_acyclic(self, cyclic_gc_off, monkeypatch):
        ops, called = _public_ops(), set()
        for name in ops:
            def counted(*args, _op=getattr(ad, name), _name=name, **kwargs):
                called.add(_name)
                return _op(*args, **kwargs)

            monkeypatch.setattr(ad, name, counted)
        tape = Tape()
        grads = tape.gradients(_loss_through_every_op(tape))
        freed = weakref.ref(tape)
        del tape
        assert called == ops
        assert np.array_equal(grads["unused"], np.zeros(2))
        assert all(np.isfinite(g).all() for g in grads.values())
        assert freed() is None

    def test_a_live_tensor_keeps_its_tape(self, cyclic_gc_off):
        tape = Tape()
        y = ad.exp(tape.watch(Parameter("w", np.ones(3))))
        freed = weakref.ref(tape)
        del tape
        assert freed() is not None
        assert y.tape is freed()
        del y
        assert freed() is None


def test_backward_drops_each_spent_gradient():
    # Each neg's gradient is a new array; a sweep that kept every node's
    # gradient to the end would hold all 200 of them at once.
    size, chain = 10**5, 200
    tape = Tape()
    y = tape.watch(Parameter("w", np.ones(size)))
    for _ in range(chain):
        y = ad.neg(y)
    loss = ad.tsum(y)
    tracemalloc.start()
    try:
        grads = tape.gradients(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(grads["w"], np.ones(size))
    assert peak < 10 * size * 8


def _per_rank_matmul_grads(a, b, g):
    """The gradients of `a @ b` for the output gradient `g` by the per-rank
    formulas `matmul`'s backward once had, one branch per rank pair: the
    reference for its one rule."""
    an, bn = a.ndim, b.ndim
    if an >= 2 and bn == 2:
        grad_a = g @ b.T
    elif an == 1 and bn == 2:
        grad_a = b @ g
    elif an == 2 and bn == 1:
        grad_a = np.outer(g, b)
    else:
        grad_a = g * b
    if an > 2:
        grad_b = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    elif an == 2 and bn == 2:
        grad_b = a.T @ g
    elif an == 1 and bn == 2:
        grad_b = np.outer(a, g)
    elif an == 2 and bn == 1:
        grad_b = a.T @ g
    else:
        grad_b = g * a
    return grad_a, grad_b


@pytest.mark.parametrize("shape_a, shape_b", [
    ((5,), (5,)), ((64,), (64,)),                       # 1-D @ 1-D
    ((5,), (5, 3)), ((64,), (64, 128)),                 # 1-D @ 2-D
    ((4, 5), (5,)), ((1, 5), (5,)),                     # 2-D @ 1-D
    ((37, 16), (16,)), ((120, 64), (64,)),              # the GAT edge-table product
    ((4, 5), (5, 3)), ((1, 64), (64, 128)), ((4, 1), (1, 3)),  # 2-D @ 2-D
    ((3, 1, 5), (5, 4)), ((3, 1, 64), (64, 64)),        # a stack of one-row slices
    ((3, 4, 5), (5, 4)), ((2, 3, 7, 64), (64, 32)),     # a stack of m > 1 rows
])
def test_matmul_gradients_equal_the_per_rank_formulas(shape_a, shape_b):
    rng = np.random.default_rng(len(shape_a) * 100 + shape_a[-1])
    for _ in range(5):
        a = Parameter("a", rng.normal(size=shape_a))
        b = Parameter("b", rng.normal(size=shape_b))
        tape = Tape()
        out = ad.matmul(tape.watch(a), tape.watch(b))
        upstream = rng.normal(size=out.data.shape)
        # the gradient reaching the product is exactly `upstream`
        grads = tape.gradients(ad.tsum(ad.mul(out, upstream)))
        grad_a, grad_b = _per_rank_matmul_grads(a.data, b.data, upstream)
        assert np.array_equal(grads["a"], grad_a) and grads["a"].shape == shape_a
        assert np.array_equal(grads["b"], grad_b) and grads["b"].shape == shape_b


def test_matmul_blocks_gradients_equal_the_per_rank_formulas():
    rng = np.random.default_rng(61)
    parts = [Parameter(f"x{i}", rng.normal(size=(1, rows, 64)))
             for i, rows in enumerate((3, 1, 7))]
    w = Parameter("w", rng.normal(size=(64, 32)))
    tape = Tape()
    out = ad.matmul_blocks([tape.watch(p) for p in parts], tape.watch(w))
    upstream = rng.normal(size=out.data.shape)
    grads = tape.gradients(ad.tsum(ad.mul(out, upstream)))
    lo = 0
    for p in parts:
        hi = lo + p.data.shape[1]
        assert np.array_equal(grads[p.name], _per_rank_matmul_grads(
            p.data, w.data, upstream[:, lo:hi])[0])
        lo = hi
    joined = np.concatenate([p.data for p in parts], axis=1)
    assert np.array_equal(grads["w"], _per_rank_matmul_grads(joined, w.data, upstream)[1])


@pytest.mark.parametrize("layout", ["row-major", "transposed"])
@pytest.mark.parametrize("shape", [(7,), (3, 5), (4, 3, 2)])
def test_tsum_over_all_entries_is_the_flat_sum_along_axis_0(shape, layout):
    data = np.random.default_rng(67).normal(size=shape)
    if layout == "transposed":
        data = data.T
    results = []
    for flat_first in (False, True):
        x = Parameter("x", data)
        tape = Tape()
        xt = tape.watch(x)
        total = ad.tsum(ad.reshape(xt, (-1,)), axis=0) if flat_first else ad.tsum(xt)
        grad = tape.gradients(ad.mul(total, 3.7))["x"]
        assert grad.flags.writeable
        results.append((total.data, grad))
    (value, grad), (flat_value, flat_grad) = results
    assert value.shape == () and np.array_equal(value, flat_value)
    assert np.array_equal(grad, flat_grad)


@pytest.mark.parametrize("op", ["tsum", "tsum over an axis", "matmul by a constant",
                                "matmul of a constant"])
def test_backward_keeps_no_operand_its_gradient_does_not_read(op):
    # The gradient of a sum reads no operand, and the gradient of x in
    # x @ c (or c @ x) reads c alone, so once the tape holds the only
    # references, x's data is freed.
    tape = Tape()
    x = ad.add(tape.watch(Parameter("w", np.ones((3, 4)))), 1.0)
    data = weakref.ref(x.data)
    if op.startswith("tsum"):
        out = ad.tsum(x, axis=None if op == "tsum" else 1)
    elif op == "matmul by a constant":
        out = ad.matmul(x, np.ones(4))
    else:
        out = ad.matmul(np.ones(3), x)
    del x
    assert data() is None
    assert out.tape is tape
