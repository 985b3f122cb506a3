import itertools
import math

import numpy as np
import pytest

from agd import autodiff as ad
from agd.autodiff import Tape, Tensor, grad_check
from agd.graphs import new_graph, permute
from agd.ordering import OrderingConfig, OrderingNet, positional_encoding


def reference_node_scores(net, graph, prefix):
    """The per-node, per-head GAT loop that OrderingNet.node_scores replaced,
    kept as the reference for the dense masked-attention forward."""
    c = net.config
    p = {name: Tensor(param.data) for name, param in net.params.items()}
    n = graph.n
    position = {v: i + 1 for i, v in enumerate(prefix)}
    emb = ad.rows(p["embed"], list(graph.node_types))
    pe_rows = [Tensor(positional_encoding(position[i], c.pe_dim)) if i in position
               else p["pe_unabsorbed"] for i in range(n)]
    x = ad.concat([emb, ad.stack(pe_rows)], axis=1)
    h = ad.add(ad.matmul(x, p["w_in"]), p["b_in"])
    nbrs = [sorted(set(graph.neighbors(i)) | {i}) for i in range(n)]
    for l in range(c.layers):
        head_parts = []   # head_parts[h][i]
        for hd in range(c.heads):
            wh = ad.matmul(h, p[f"l{l}_h{hd}_w"])
            s = ad.matmul(wh, p[f"l{l}_h{hd}_asrc"])
            r = ad.matmul(wh, p[f"l{l}_h{hd}_adst"])
            outs = []
            for i in range(n):
                nb = nbrs[i]
                logits = ad.leaky_relu(ad.add(ad.pick(s, i), ad.take(r, nb)),
                                       slope=c.leaky_slope)
                alpha = ad.softmax(logits)
                msgs = ad.rows(wh, nb)
                outs.append(ad.tsum(ad.mul(ad.reshape(alpha, (len(nb), 1)), msgs), axis=0))
            head_parts.append(outs)
        merged = [ad.concat([head_parts[hd][i] for hd in range(c.heads)])
                  for i in range(n)]
        h = ad.add(ad.relu(ad.stack(merged)), h)   # residual connection
    return ad.matmul(h, p["w_out"]).data


def tiny_net(num_node_types=2, seed=0, **overrides):
    kwargs = dict(layers=2, heads=2, hidden=4, embed_dim=4, pe_dim=4)
    kwargs.update(overrides)
    config = OrderingConfig(num_node_types=num_node_types, **kwargs)
    return OrderingNet.init(config, np.random.default_rng(seed))


def star(leaves=3):
    return new_graph([0] * (leaves + 1), [(0, i, 1) for i in range(1, leaves + 1)])


class TestPositionalEncoding:
    def test_position_one_dim_four(self):
        got = positional_encoding(1, 4)
        expect = [math.sin(1), math.cos(1),
                  math.sin(1 / 10000 ** (2 / 4)), math.cos(1 / 10000 ** (2 / 4))]
        assert np.allclose(got, expect, atol=1e-12)

    def test_positions_distinct(self):
        assert not np.allclose(positional_encoding(1, 8), positional_encoding(2, 8))

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            positional_encoding(1, 5)

    def test_unabsorbed_sentinel_shared(self):
        net = tiny_net()
        g = star(3)
        dist = net.step_distribution(g, [])
        # the three leaves share type, sentinel encoding and neighborhood
        assert dist[1] == dist[2] == dist[3]


def random_graph(rng, n, hub_degree=0, num_node_types=2):
    """Random graph on n nodes; node 0 gets at least `hub_degree` neighbours."""
    types = rng.integers(0, num_node_types, size=n).tolist()
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25}
    edges |= {(0, j) for j in range(1, hub_degree + 1)}
    return new_graph(types, [(i, j, 1) for i, j in sorted(edges)],
                     num_node_types=num_node_types)


class TestDenseAttention:
    # The dense forward normalizes and aggregates over rows of length n with
    # zeros at non-neighbours, where the loop used neighbour lists; numpy's
    # pairwise summation groups those terms differently, so values agree to
    # rounding (observed about 3e-17), not bit for bit.
    TOL = 1e-12

    @pytest.mark.parametrize("widths", [{}, dict(layers=2, heads=2, hidden=4,
                                                 embed_dim=4, pe_dim=4)],
                             ids=["paper-defaults", "tiny-net"])
    def test_matches_reference_loop(self, widths):
        rng = np.random.default_rng(40)
        net = OrderingNet.init(OrderingConfig(num_node_types=2, **widths),
                               np.random.default_rng(41))
        for n, hub in ((1, 0), (5, 0), (12, 9), (16, 11)):
            g = random_graph(rng, n, hub_degree=hub)
            assert g.degree(0) >= hub
            order = [int(v) for v in rng.permutation(n)]
            for t in (0, n // 2, n - 1):
                got = net.node_scores(g, order[:t]).data
                want = reference_node_scores(net, g, order[:t])
                assert np.abs(got - want).max() <= self.TOL

    def test_tape_size_guard(self):
        # The per-node loop recorded 67,619 tape entries for ordering_log_prob
        # plus backward on this graph at paper defaults (the dense forward
        # records 1,439); a per-node loop coming back fails this bound.
        rng = np.random.default_rng(42)
        g = random_graph(rng, 20, hub_degree=8)
        net = OrderingNet.init(OrderingConfig(num_node_types=2), np.random.default_rng(43))
        tape = Tape()
        for p in net.params.values():
            tape.register(p)
        logq = net.ordering_log_prob(g, range(20), tape)
        tape.gradients(logq)
        assert len(tape._entries) <= 67_619 // 10


@pytest.mark.parametrize("field, value", [
    ("pe_dim", 3), ("pe_dim", 0), ("heads", 0), ("hidden", 0), ("embed_dim", 0),
    ("num_node_types", 0), ("layers", -1),
])
def test_config_rejects_bad_widths(field, value):
    kwargs = {"num_node_types": 1, field: value}
    with pytest.raises(ValueError, match=f"^{field} "):
        OrderingConfig(**kwargs)


class TestStepDistribution:
    def test_softmax_arithmetic(self):
        net = tiny_net()
        logp = net._step_log_probs(Tensor([0.0, math.log(2.0)]), [0, 1]).data
        assert np.allclose(np.exp(logp), [1 / 3, 2 / 3], atol=1e-12)

    def test_one_node_remaining(self):
        net = tiny_net()
        g = new_graph([0, 1], [(0, 1, 1)])
        dist = net.step_distribution(g, [1])
        assert dist[1] == 0.0
        assert abs(dist[0] - 1.0) < 1e-12

    def test_sums_to_one_and_zeros_on_absorbed(self):
        net = tiny_net()
        g = star(4)
        dist = net.step_distribution(g, [2, 0])
        assert dist[2] == 0.0 and dist[0] == 0.0
        assert abs(dist.sum() - 1.0) < 1e-9

    def test_all_absorbed_rejected(self):
        net = tiny_net()
        g = new_graph([0], [])
        with pytest.raises(Exception):
            net.step_distribution(g, [0])

    def test_equivariance_under_relabeling(self):
        rng = np.random.default_rng(1)
        net = tiny_net()
        g = new_graph([0, 1, 0, 1, 0],
                      [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 4, 1)])
        perm = list(rng.permutation(5))
        gp = permute(g, perm)
        for prefix in ([], [3], [3, 0]):
            base = net.step_distribution(g, prefix)
            mapped = net.step_distribution(gp, [perm[v] for v in prefix])
            relabeled = np.zeros(5)
            for i in range(5):
                relabeled[perm[i]] = base[i]
            assert np.array_equal(mapped, relabeled)


class TestSampleOrdering:
    def test_single_node(self):
        net = tiny_net()
        g = new_graph([0], [])
        traj = net.sample_ordering(g, np.random.default_rng(0))
        assert traj.ordering == (0,)
        assert traj.step_log_probs == (0.0,)

    def test_recorded_log_probs_match_ordering_log_prob(self):
        net = tiny_net()
        g = new_graph([0, 1, 0], [(0, 1, 1), (1, 2, 2)], num_edge_types=3)
        traj = net.sample_ordering(g, np.random.default_rng(3))
        total = net.ordering_log_prob(g, traj.ordering).item()
        assert total == sum(traj.step_log_probs)

    def test_sampling_frequencies_match_probabilities(self):
        net = tiny_net(seed=5, layers=1, heads=1, hidden=2, embed_dim=2, pe_dim=2)
        g = new_graph([0, 1], [(0, 1, 1)])
        exact = {}
        for sigma in itertools.permutations(range(2)):
            exact[sigma] = math.exp(net.ordering_log_prob(g, sigma).item())
        rng = np.random.default_rng(7)
        draws = 10_000
        counts = {sigma: 0 for sigma in exact}
        for _ in range(draws):
            counts[net.sample_ordering(g, rng).ordering] += 1
        for sigma, p in exact.items():
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(counts[sigma] / draws - p) < 3 * se + 1e-12


class TestOrderingLogProb:
    def test_single_node_zero(self):
        net = tiny_net()
        g = new_graph([0], [])
        assert net.ordering_log_prob(g, [0]).item() == 0.0

    def test_permutations_sum_to_one(self):
        net = tiny_net(seed=11)
        g = new_graph([0, 1, 0], [(0, 1, 1), (0, 2, 1)])
        total = sum(math.exp(net.ordering_log_prob(g, s).item())
                    for s in itertools.permutations(range(3)))
        assert abs(total - 1.0) < 1e-9

    def test_normalization_on_random_graphs(self):
        rng = np.random.default_rng(13)
        for trial in range(3):
            n = int(rng.integers(2, 5))
            types = rng.integers(0, 2, size=n).tolist()
            edges = [(i, j, 1) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            g = new_graph(types, edges, num_node_types=2, num_edge_types=2)
            net = tiny_net(seed=trial + 20, layers=1)
            total = sum(math.exp(net.ordering_log_prob(g, s).item())
                        for s in itertools.permutations(range(n)))
            assert abs(total - 1.0) < 1e-8

    def test_non_permutation_rejected(self):
        net = tiny_net()
        g = new_graph([0, 0], [])
        with pytest.raises(Exception):
            net.ordering_log_prob(g, [0, 0])

    def test_gradient_matches_finite_differences(self):
        net = tiny_net(seed=17, layers=1, heads=1, hidden=3, embed_dim=2, pe_dim=2)
        g = new_graph([0, 1, 1], [(0, 1, 1), (1, 2, 1)])

        def fn(tape):
            return net.ordering_log_prob(g, [2, 0, 1], tape)

        assert grad_check(fn, net.params, eps=1e-6) < 1e-4

    def test_multi_head_gradient_matches_finite_differences(self):
        # Exercises the head concat and split. With seed 19 one entry's
        # gradient is 2.8e-7, where central differences carry ~1e-3 relative
        # noise, so the seed is one whose entries all sit above that noise.
        net = tiny_net(seed=20, layers=2, heads=3, hidden=2, embed_dim=2, pe_dim=2)
        g = new_graph([0, 1, 1, 0], [(0, 1, 1), (1, 2, 1), (0, 3, 1)])

        def fn(tape):
            return net.ordering_log_prob(g, [3, 0, 2, 1], tape)

        assert grad_check(fn, net.params, eps=1e-6) < 1e-4
