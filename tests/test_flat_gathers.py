"""Scoring gathers read their operands flat: no `take` or `pick` in the
ordering log-probability or the denoiser's step log-likelihoods reads a
tensor that `reshape` or `rows` made for it."""

import numpy as np
import pytest

from agd import autodiff as ad
from agd.autodiff import Tape
from agd.denoiser import DenoiserConfig, DenoiserNet
from agd.graphs import (absorb_node, denoising_view, forward_trajectory, initial_state,
                        new_graph)
from agd.ordering import OrderingConfig, OrderingNet
from agd.training import loss_views, observed_step


@pytest.fixture
def gather_reads(monkeypatch):
    """For each `take` and `pick` call, whether its operand was made by
    `reshape` or `rows`. Every output of those two is kept alive, so no
    object id is reused while the test runs."""
    made, made_ids, reads = [], set(), []

    def recorded(op):
        def wrapped(*args, **kwargs):
            out = op(*args, **kwargs)
            made.append(out)
            made_ids.add(id(out))
            return out
        return wrapped

    def checked(op):
        def wrapped(a, *args, **kwargs):
            reads.append(id(a) in made_ids)
            return op(a, *args, **kwargs)
        return wrapped

    for name in ("reshape", "rows"):
        monkeypatch.setattr(ad, name, recorded(getattr(ad, name)))
    for name in ("take", "pick"):
        monkeypatch.setattr(ad, name, checked(getattr(ad, name)))
    return reads


def _graph(n, seed):
    rng = np.random.default_rng(seed)
    types = rng.integers(0, 2, size=n).tolist()
    edges = [(i, j, int(rng.integers(1, 3))) for i in range(n) for j in range(i + 1, n)
             if j == i + 1 or rng.random() < 0.3]
    return new_graph(types, edges, 2, 3)


def _taped(net):
    tape = Tape()
    for p in net.params.values():
        tape.register(p)
    return tape


def _denoiser(aggregator):
    config = DenoiserConfig(2, 3, aggregator=aggregator, layers=2, hidden=6,
                            mlp_hidden=8, mixtures=3)
    return DenoiserNet.init(config, np.random.default_rng(1))


def test_ordering_log_prob(gather_reads):
    net = OrderingNet.init(OrderingConfig(num_node_types=2, layers=1, heads=2, hidden=3,
                                          embed_dim=2, pe_dim=2), np.random.default_rng(2))
    g = _graph(6, 3)
    net.ordering_log_prob(g, [4, 1, 0, 5, 2, 3], _taped(net))
    assert len(gather_reads) == 2 * g.n       # a take and a pick per step
    assert not any(gather_reads)


@pytest.mark.parametrize("aggregator", ["gat", "gru-gate"])
class TestStepLogLikelihoods:
    def test_taped_over_a_trajectory(self, gather_reads, aggregator):
        net = _denoiser(aggregator)
        g = _graph(5, 4)
        terms = list(loss_views(forward_trajectory(g, [3, 0, 4, 1, 2]), range(1, 6)))
        assert sorted(view.size for view, *_ in terms) == [1, 2, 3, 4, 5]
        labels = [observed_step(g, state, cand) for _, state, cand, _ in terms]
        net.taped_log_likelihoods([view for view, *_ in terms], *zip(*labels), _taped(net))
        assert gather_reads and not any(gather_reads)

    def test_a_stack_untaped(self, gather_reads, aggregator):
        g = _graph(6, 5)
        state = absorb_node(absorb_node(absorb_node(initial_state(g), 1), 3), 4)
        views = [denoising_view(state, v) for v in (1, 3, 4)]
        labels = [observed_step(g, state, v) for v in (1, 3, 4)]
        _denoiser(aggregator).step_log_likelihood(views, *map(list, zip(*labels)))
        assert gather_reads and not any(gather_reads)

    def test_one_view_taped(self, gather_reads, aggregator):
        net = _denoiser(aggregator)
        g = _graph(6, 6)
        state = absorb_node(initial_state(g), 2)
        net.step_log_likelihood(denoising_view(state, 2), *observed_step(g, state, 2),
                                _taped(net))
        assert gather_reads and not any(gather_reads)
