"""Relabeling a graph relabels every output bit for bit, at the paper's
default widths: BLAS matrix-vector and narrow products give a row bits that
depend on its position, so the tiny test widths alone would not catch a
product routed through them."""

import numpy as np
import pytest

from agd.datasets import gen_community_small
from agd.denoiser import DenoiserConfig, DenoiserNet
from agd.graphs import denoising_view, forward_trajectory, observed_step, permute
from agd.ordering import OrderingConfig, OrderingNet


def community_pair(seed):
    """A community graph, a random relabeling of it, and the permutation."""
    rng = np.random.default_rng(seed)
    g = gen_community_small(rng, 1, size_range=(12, 20)).graphs[0]
    perm = [int(v) for v in rng.permutation(g.n)]
    return g, permute(g, perm), perm


def views_along(graph, ordering, timesteps):
    trajectory = forward_trajectory(graph, ordering)
    for t in timesteps:
        state = trajectory.states[t]
        yield state, denoising_view(state, ordering[t - 1])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("aggregator", ["gat", "gru-gate"])
def test_denoiser_outputs_follow_a_relabeling_exactly(aggregator, seed):
    net = DenoiserNet.init(DenoiserConfig(1, 2, aggregator=aggregator),
                           np.random.default_rng(seed))
    g, gp, perm = community_pair(seed + 10)
    ordering = [int(v) for v in np.random.default_rng(seed).permutation(g.n)]
    ordering_p = [perm[v] for v in ordering]
    timesteps = range(1, g.n, 2)
    pairs = zip(views_along(g, ordering, timesteps), views_along(gp, ordering_p, timesteps))
    for (state, view), (state_p, view_p) in pairs:
        h, h_g = net.message_pass(view)
        hp, hp_g = net.message_pass(view_p)
        assert np.array_equal(h_g.data, hp_g.data)
        local_p = [view_p.nodes.index(perm[v]) for v in view.nodes]
        assert np.array_equal(h.data, hp.data[local_p])

        pred, pred_p = net.predict_step(view), net.predict_step(view_p)
        assert np.array_equal(pred.node_probs, pred_p.node_probs)
        assert np.array_equal(pred.mixture_weights, pred_p.mixture_weights)
        rows_p = [pred_p.prev_nodes.index(perm[v]) for v in pred.prev_nodes]
        assert np.array_equal(pred.edge_probs, pred_p.edge_probs[:, rows_p])

        ll = net.step_log_likelihood(view, *observed_step(g, state, view.target))
        ll_p = net.step_log_likelihood(view_p, *observed_step(gp, state_p, view_p.target))
        assert ll.item() == ll_p.item()


@pytest.mark.parametrize("seed", [0, 1])
def test_ordering_scores_follow_a_relabeling_exactly(seed):
    net = OrderingNet.init(OrderingConfig(1), np.random.default_rng(seed))
    g, gp, perm = community_pair(seed + 20)
    ordering = [int(v) for v in np.random.default_rng(seed).permutation(g.n)]
    for t in range(g.n):
        prefix = ordering[:t]
        scores = net.node_scores(g, prefix).data
        scores_p = net.node_scores(gp, [perm[v] for v in prefix]).data
        assert np.array_equal(scores, scores_p[perm])
