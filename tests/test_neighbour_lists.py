"""The attention round over padded neighbour lists, the comparator network of
the sorted sum, and the exact checks and draws that ride along: each against
the computation it replaces, bit for bit."""

import warnings

import numpy as np
import pytest

from agd import autodiff as ad
from agd.autodiff import NonFiniteError
from agd.graphs import categorical_cdf
from tests.test_fused_ops import (_run, assert_same_bits, composed_gat_round,
                                  composed_ordering_round)


# ---------------------------------------------------------------------------
# the sorted sum
# ---------------------------------------------------------------------------

def _signed(rng, shape):
    """Normal entries, with exact zeros of both signs and repeated values."""
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.25] = 0.0
    x[rng.random(shape) < 0.25] *= -0.0
    x[rng.random(shape) < 0.1] = 1.5
    return x


def test_comparator_network_sums_like_numpy_sort(monkeypatch):
    # the network wherever the axis is not innermost, whatever the shape rule
    # would pick
    monkeypatch.setattr(ad, "_network_us", lambda width, lanes: 0.0)
    rng = np.random.default_rng(0)
    cases = 0
    while cases < 1200:
        shape = [int(s) for s in rng.integers(1, 6, size=rng.integers(2, 5))]
        axis = int(rng.integers(0, len(shape) - 1))
        shape[axis] = int(rng.integers(1, 18))
        if np.prod(shape[axis + 1:]) == 1:
            continue
        x = _signed(rng, tuple(shape))
        keepdims = bool(rng.integers(2))
        got = ad._stable_sum(x, axis, keepdims)
        want = np.sort(x, axis=axis).sum(axis=axis, keepdims=keepdims)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        cases += 1


def test_network_sorts_infinities_like_numpy_sort(monkeypatch):
    monkeypatch.setattr(ad, "_network_us", lambda width, lanes: 0.0)
    x = np.array([[np.inf, 1.0], [-2.0, -np.inf], [0.5, 3.0], [-np.inf, np.inf]])
    with np.errstate(invalid="ignore"):
        got, want = ad._stable_sum(x, 0), np.sort(x, axis=0).sum(axis=0)
    assert np.array_equal(got, want, equal_nan=True)


def test_an_innermost_axis_keeps_numpy_sort(monkeypatch):
    # numpy sums an innermost axis pairwise, which a left fold does not repeat
    monkeypatch.setattr(ad, "_network_us", lambda width, lanes: 0.0)
    rng = np.random.default_rng(1)
    for shape, axis in [((40, 16), 1), ((3, 33, 1), 1), ((9, 12, 1, 1), 1)]:
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        assert np.array_equal(ad._stable_sum(x, axis), np.sort(x, axis=axis).sum(axis=axis))


def test_merge_network_sorts_every_zero_one_input():
    # the zero-one principle: a comparator network that sorts every 0/1
    # input sorts every input
    for width in range(1, 13):
        pairs = ad._merge_network(width)
        bits = (np.arange(2 ** width)[:, None] >> np.arange(width)) & 1
        slots = [bits[:, i] for i in range(width)]
        for lo, hi in pairs:
            slots[lo], slots[hi] = np.minimum(slots[lo], slots[hi]), np.maximum(slots[lo], slots[hi])
        assert np.array_equal(np.stack(slots, axis=1), np.sort(bits, axis=1)), width


# ---------------------------------------------------------------------------
# the attention round over neighbour lists
# ---------------------------------------------------------------------------

def _uses_lists(mask, shape, edge_terms=False, long_lists=False):
    """Whether the shape rule lays both sides out as lists, and, if
    `long_lists`, with a group of long lists on each side."""
    lists = ad.NeighbourLists(mask, shape, edge_terms)
    return all(side.width < shape[1] and (not long_lists or len(side.groups) == 2)
               for side in (lists.rows, lists.columns))


def _ordering_case(rng, mask, b, heads=6, k=32):
    n, d = mask.shape[0], heads * k
    arrays = {"h": rng.normal(size=(b, n, d)), "w": rng.normal(size=(d, d)) / np.sqrt(d),
              "a_src": rng.normal(size=(heads, k)), "a_dst": rng.normal(size=(heads, k))}
    mask = mask[:, :, None]
    args = lambda t: (t["h"], t["w"], t["a_src"], t["a_dst"], mask)
    fused = lambda t: ad.attention_round(*args(t), slope=0.2)
    composed = lambda t: composed_ordering_round(*args(t))
    assert_same_bits(fused, composed, arrays)
    assert_same_bits(fused, composed, arrays, ("h",))
    return mask


def _sparse(rng, n, p=0.25, symmetric=True):
    mask = rng.random((n, n)) < p
    return (mask | mask.T if symmetric else mask) | np.eye(n, dtype=bool)


def test_lists_equal_the_ordering_layer_with_a_hub_row():
    rng = np.random.default_rng(10)
    mask = _sparse(rng, 16, p=0.12)
    mask[0, :] = mask[:, 0] = True                   # D = n
    assert _uses_lists(mask[:, :, None], (4, 16, 192), long_lists=True)
    _ordering_case(rng, mask, 4)


def test_lists_equal_the_ordering_layer_with_an_isolated_node():
    rng = np.random.default_rng(11)
    mask = _sparse(rng, 14)
    mask[5, :] = mask[:, 5] = False
    mask[5, 5] = True                                # self only
    assert _uses_lists(mask[:, :, None], (3, 14, 192))
    _ordering_case(rng, mask, 3)


def test_lists_equal_the_ordering_layer_with_an_asymmetric_mask():
    rng = np.random.default_rng(12)
    mask = _sparse(rng, 15, p=0.3, symmetric=False)
    assert not np.array_equal(mask, mask.T)
    assert _uses_lists(mask[:, :, None], (5, 15, 192))
    _ordering_case(rng, mask, 5)


def test_the_scalar_mask_attends_every_pair():
    rng = np.random.default_rng(13)
    arrays = {"h": rng.normal(size=(2, 9, 192)), "w": rng.normal(size=(192, 192)) / 14.0,
              "a_src": rng.normal(size=(6, 32)), "a_dst": rng.normal(size=(6, 32))}
    args = lambda t: (t["h"], t["w"], t["a_src"], t["a_dst"], True)
    assert_same_bits(lambda t: ad.attention_round(*args(t)),
                     lambda t: composed_ordering_round(*args(t)), arrays)


def _gat_case(rng, mask, d=128, untracked=()):
    B, m = mask.shape[:2]
    arrays = {"h": rng.normal(size=(B, m, d)), "w": rng.normal(size=(d, d)) / np.sqrt(d),
              "a_src": rng.normal(size=d), "a_dst": rng.normal(size=d),
              "bias": rng.normal(size=d), "edge_logits": rng.normal(size=(B, m, m)),
              "edge_msgs": rng.normal(size=(B, m, m, d))}
    extra = lambda t: (t["bias"], t["edge_logits"], t["edge_msgs"])
    lists = ad.NeighbourLists(mask[..., None], (B, m, d), edge_terms=True)
    fused = lambda t: ad.attention_round(t["h"], t["w"], t["a_src"], t["a_dst"], lists,
                                         *extra(t))
    composed = lambda t: composed_gat_round(t["h"], t["w"], t["a_src"], t["a_dst"], mask,
                                            *extra(t))
    assert_same_bits(fused, composed, arrays, untracked)


def _views_with_a_target_row(rng, B, m):
    """Per-view masks that differ, each with the target (node 0) attending
    and attended by every node, as the denoiser's MASK pairs are."""
    mask = np.stack([_sparse(rng, m, p=0.2) for _ in range(B)])
    mask[:, 0, :] = mask[:, :, 0] = True
    return mask


def test_lists_equal_the_gat_layer_with_a_target_row_and_differing_views():
    rng = np.random.default_rng(14)
    mask = _views_with_a_target_row(rng, 8, 16)
    assert not all(np.array_equal(mask[0], view) for view in mask[1:])
    assert _uses_lists(mask[..., None], (8, 16, 128), edge_terms=True, long_lists=True)
    _gat_case(rng, mask)
    _gat_case(rng, mask, untracked=("edge_msgs", "h"))


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_every_forced_width_equals_the_composed_chains(monkeypatch, width):
    # small shapes the shape rule would keep dense, laid out at each width,
    # so that most lists are padded and many are long
    monkeypatch.setattr(ad, "_list_width", lambda counts, d, edge_terms: min(
        width, counts.shape[-1]) if d > 1 else counts.shape[-1])
    rng = np.random.default_rng(width)
    for case in range(12):
        B, n = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        mask = rng.random((B, n, n)) < rng.random()
        mask |= np.eye(n, dtype=bool)
        if case % 2:
            heads, k = int(rng.integers(1, 3)), int(rng.integers(2, 5))
            d = heads * k
            arrays = {"h": rng.normal(size=(B, n, d)), "w": rng.normal(size=(d, d)),
                      "a_src": rng.normal(size=(heads, k)), "a_dst": rng.normal(size=(heads, k))}
            args = lambda t: (t["h"], t["w"], t["a_src"], t["a_dst"], mask[0, :, :, None])
            assert_same_bits(lambda t: ad.attention_round(*args(t)),
                             lambda t: composed_ordering_round(*args(t)), arrays)
        else:
            _gat_case(rng, mask, d=int(rng.integers(2, 6)), untracked=("edge_msgs",)[:case % 4])


def test_lists_built_once_serve_every_round():
    rng = np.random.default_rng(15)
    mask = _sparse(rng, 13)[:, :, None]
    arrays = {"h": rng.normal(size=(4, 13, 192)), "w": rng.normal(size=(192, 192)) / 14.0,
              "a_src": rng.normal(size=(6, 32)), "a_dst": rng.normal(size=(6, 32))}
    lists = ad.NeighbourLists(mask, (4, 13, 192))

    def rounds(t, given):
        h = t["h"]
        for _ in range(3):
            h = ad.attention_round(h, t["w"], t["a_src"], t["a_dst"], given)
        return ad.tsum(ad.reshape(h, (-1,)))

    value, grads, _ = _run(lambda t: rounds(t, lists), arrays)
    ref_value, ref_grads, _ = _run(lambda t: rounds(t, mask), arrays)
    assert np.array_equal(value, ref_value)
    assert all(np.array_equal(grads[k], ref_grads[k]) for k in grads)


def test_lists_for_another_shape_are_refused():
    rng = np.random.default_rng(16)
    lists = ad.NeighbourLists(True, (1, 4, 8))
    with pytest.raises(ad.ShapeError):
        ad.attention_round(rng.normal(size=(2, 4, 8)), np.eye(8), np.ones((2, 4)),
                           np.ones((2, 4)), lists)


def test_an_edge_sum_overflowing_outside_the_lists_still_raises():
    rng = np.random.default_rng(17)
    B, m, d = 8, 16, 128
    mask = _views_with_a_target_row(rng, B, m)
    i, j = np.argwhere(~mask[0])[0]                  # a pair no head attends
    assert _uses_lists(mask[..., None], (B, m, d), edge_terms=True)
    edge_msgs = rng.normal(size=(B, m, m, d))
    edge_msgs[0, i, j] = 1e308
    args = (rng.normal(size=(B, m, d)), np.eye(d), np.zeros(d), np.zeros(d))
    bias = np.full(d, 1e308)                         # Wh is finite, Wh + 1e308 is not
    for fn in (lambda: ad.attention_round(*args, mask[..., None], bias, None, edge_msgs),
               lambda: composed_gat_round(*args, mask, bias, np.zeros((B, m, m)),
                                          edge_msgs)):
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match="^add produced a non-finite value$"):
            fn()


# ---------------------------------------------------------------------------
# the finiteness check and the categorical draws
# ---------------------------------------------------------------------------

def test_a_finite_array_whose_sum_overflows_passes_the_check():
    data = np.full((3, 4), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")                # as the test run sets it
        assert ad._check_finite(data, "op") is data
    assert ad.add(np.full(3, 1e308), 0.0).data.shape == (3,)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_each_non_finite_value_raises_naming_the_op(bad):
    data = np.arange(6.0).reshape(2, 3)
    data[1, 2] = bad
    with pytest.raises(NonFiniteError, match="^myop produced a non-finite value$"):
        ad._check_finite(data, "myop")
    data[0, 0] = -data[1, 2]                         # inf - inf: the sum is nan
    with pytest.raises(NonFiniteError, match="^myop produced a non-finite value$"):
        ad._check_finite(data, "myop")


def test_inverse_cdf_draws_equal_generator_choice():
    # value and generator state, as the samplers draw: one uniform a draw
    for seed in range(400):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            k = int(rng.integers(1, 15))
            p = rng.random(k) * (rng.random(k) > 0.2)
            p[rng.integers(k)] += 0.5
            p /= p.sum()
            ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
            for _ in range(3):
                drawn = int(categorical_cdf(p).searchsorted(ours.random(), side="right"))
                assert drawn == int(theirs.choice(k, p=p))
                assert ours.bit_generator.state == theirs.bit_generator.state
    rows = np.random.default_rng(3).random((4, 6))
    rows /= rows.sum(axis=1, keepdims=True)
    assert np.array_equal(categorical_cdf(rows)[2], categorical_cdf(rows[2]))
