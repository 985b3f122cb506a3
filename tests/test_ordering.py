import copy
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


class TestSampleOrderings:
    def test_equals_successive_single_draws(self):
        net = tiny_net(seed=2)
        g = new_graph([0, 1, 0, 1], [(0, 1, 1), (1, 2, 1), (2, 3, 2)], num_edge_types=3)
        rng, rng2 = np.random.default_rng(11), np.random.default_rng(11)
        many = net.sample_orderings(g, rng, 12)
        single = [net.sample_ordering(g, rng2) for _ in range(12)]
        for a, b in zip(many, single, strict=True):
            assert a.ordering == b.ordering
            assert a.step_log_probs == b.step_log_probs
            assert a.step_weights == b.step_weights
        assert rng.bit_generator.state == rng2.bit_generator.state

    def test_scores_each_distinct_prefix_once(self, monkeypatch):
        net = tiny_net(seed=4)
        g = new_graph([0, 0, 0, 0], [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        prefixes = []
        original = OrderingNet.node_scores

        def counted(self, graph, prefix, *args, **kwargs):
            prefixes.append(tuple(prefix))
            return original(self, graph, prefix, *args, **kwargs)

        monkeypatch.setattr(OrderingNet, "node_scores", counted)
        drawn = net.sample_orderings(g, np.random.default_rng(5), 60)
        reached = {t.ordering[:k] for t in drawn for k in range(g.n)}
        assert len({t.ordering for t in drawn}) > 1
        assert sorted(prefixes) == sorted(reached)

    def test_generator_sequence_equals_one_call_per_generator(self, monkeypatch):
        # Two generators share a seed, so their orderings share every prefix.
        net = tiny_net(seed=6)
        g = new_graph([0, 1, 0, 1, 1, 0], [(0, 1, 1), (1, 2, 1), (2, 3, 2), (3, 4, 1),
                                           (1, 5, 2)], num_edge_types=3)
        rngs = [np.random.default_rng(s) for s in (3, 3, 4, 5, 6)]
        own = copy.deepcopy(rngs)
        stacks = []
        original = OrderingNet._stack_node_scores

        def counted(self, graph, prefixes, *args, **kwargs):
            stacks.append([tuple(p) for p in prefixes])
            return original(self, graph, prefixes, *args, **kwargs)

        monkeypatch.setattr(OrderingNet, "_stack_node_scores", counted)
        drawn = net.sample_orderings(g, rngs)
        scored = [p for stack in stacks for p in stack]
        monkeypatch.undo()
        assert len({t.ordering for t in drawn}) > 2
        assert drawn[0].ordering == drawn[1].ordering
        # one forward per step, each reached prefix scored once
        assert len(stacks) == g.n and max(map(len, stacks)) > 1
        assert sorted(scored) == sorted({t.ordering[:k] for t in drawn for k in range(g.n)})
        for traj, rng, alone_rng in zip(drawn, rngs, own, strict=True):
            alone = net.sample_ordering(g, alone_rng)
            assert traj.ordering == alone.ordering
            assert traj.step_log_probs == alone.step_log_probs
            assert traj.step_weights == alone.step_weights
            assert rng.bit_generator.state == alone_rng.bit_generator.state

    def test_count_goes_with_one_generator_only(self):
        net = tiny_net()
        g = star(2)
        with pytest.raises(ValueError, match="count"):
            net.sample_orderings(g, np.random.default_rng(0))
        with pytest.raises(ValueError, match="count"):
            net.sample_orderings(g, [np.random.default_rng(0)], 1)


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


PAPER_AND_TINY = pytest.mark.parametrize(
    "widths", [{}, dict(layers=2, heads=2, hidden=4, embed_dim=4, pe_dim=4)],
    ids=["paper-defaults", "tiny-net"])


def taped_log_prob(net, g, ordering, log_prob):
    """log q from `log_prob(tape)` and its gradients over every parameter."""
    tape = Tape()
    for p in net.params.values():
        tape.register(p)
    logq = log_prob(tape)
    return logq.data, tape.gradients(logq), len(tape._entries)


def per_prefix_log_prob(net, g, ordering, tape):
    """log q the per-prefix way: one taped `node_scores` call per prefix,
    sharing one set of layer weights, step terms added from zero."""
    weights = net.layer_weights(tape)
    total = Tensor(0.0)
    for t, v in enumerate(ordering):
        remaining = sorted(ordering[t:])
        logp = net._step_log_probs(net.node_scores(g, ordering[:t], tape, weights),
                                   remaining)
        total = ad.add(total, ad.pick(logp, remaining.index(v)))
    return total


def forbid_per_prefix_forward(monkeypatch):
    """Make `node_scores` raise from here on: `ordering_log_prob` scores its
    prefixes in one stacked forward."""
    def refuse(*args, **kwargs):
        raise AssertionError("ordering_log_prob ran a per-prefix forward")

    monkeypatch.setattr(OrderingNet, "node_scores", refuse)


class TestPrefixStack:
    @PAPER_AND_TINY
    def test_every_slice_equals_its_prefix_alone(self, widths):
        rng = np.random.default_rng(50)
        net = OrderingNet.init(OrderingConfig(num_node_types=2, **widths),
                               np.random.default_rng(51))
        for n, hub in ((1, 0), (4, 0), (12, 9), (16, 0)):
            g = random_graph(rng, n, hub_degree=hub)
            assert g.degree(0) >= hub
            order = [int(v) for v in rng.permutation(n)]
            prefixes = [order[:t] for t in range(n + 1)]
            stacked = net._stack_node_scores(g, prefixes).data
            assert stacked.shape == (n + 1, n)
            for prefix, row in zip(prefixes, stacked):
                assert np.array_equal(row, net.node_scores(g, prefix).data)

    def test_log_prob_runs_one_stacked_forward(self, monkeypatch):
        forbid_per_prefix_forward(monkeypatch)
        stacks = []
        original = OrderingNet._stack_node_scores

        def counted(self, graph, prefixes, *args, **kwargs):
            stacks.append([tuple(p) for p in prefixes])
            return original(self, graph, prefixes, *args, **kwargs)

        monkeypatch.setattr(OrderingNet, "_stack_node_scores", counted)
        net = tiny_net(seed=3)
        g = star(4)
        assert math.isfinite(net.ordering_log_prob(g, [2, 0, 4, 1, 3]).item())
        tape = Tape()
        assert math.isfinite(net.ordering_log_prob(g, [4, 3, 2, 1, 0], tape).item())
        assert stacks == [[(), (2,), (2, 0), (2, 0, 4), (2, 0, 4, 1)],
                          [(), (4,), (4, 3), (4, 3, 2), (4, 3, 2, 1)]]

    def test_equals_sampled_steps_and_relabeling_at_paper_widths(self, monkeypatch):
        rng = np.random.default_rng(52)
        net = OrderingNet.init(OrderingConfig(num_node_types=2), np.random.default_rng(53))
        g = random_graph(rng, 10, hub_degree=6)
        perm = [int(v) for v in rng.permutation(10)]
        gp = permute(g, perm)
        drawn = net.sample_orderings(g, np.random.default_rng(54), 3)
        forbid_per_prefix_forward(monkeypatch)
        for traj in drawn:
            logq = net.ordering_log_prob(g, traj.ordering).item()
            assert logq == sum(traj.step_log_probs)
            mapped = [perm[v] for v in traj.ordering]
            assert net.ordering_log_prob(gp, mapped).item() == logq

    @PAPER_AND_TINY
    def test_gradients_match_the_per_prefix_path(self, widths, monkeypatch):
        # A stacked product sums each weight's gradient over all B*n rows at
        # once, where the per-prefix path adds n gradients on the shared
        # node, so the two agree to rounding (observed 5e-16), not bit for bit.
        rng = np.random.default_rng(55)
        net = OrderingNet.init(OrderingConfig(num_node_types=2, **widths),
                               np.random.default_rng(56))
        g = random_graph(rng, 9, hub_degree=5)
        order = [int(v) for v in rng.permutation(9)]
        want_q, want, _ = taped_log_prob(
            net, g, order, lambda tape: per_prefix_log_prob(net, g, order, tape))
        forbid_per_prefix_forward(monkeypatch)
        got_q, got, _ = taped_log_prob(
            net, g, order, lambda tape: net.ordering_log_prob(g, order, tape))
        assert got_q == want_q
        assert got.keys() == want.keys()
        for name in want:
            assert np.abs(got[name] - want[name]).max() <= 1e-12, name

    def test_tape_entries_at_paper_widths(self):
        # The per-prefix path recorded 788 entries here: n full forwards.
        rng = np.random.default_rng(57)
        net = OrderingNet.init(OrderingConfig(num_node_types=2), np.random.default_rng(58))
        g = random_graph(rng, 12, hub_degree=9)
        _, _, entries = taped_log_prob(
            net, g, range(12), lambda tape: net.ordering_log_prob(g, range(12), tape))
        assert entries <= 240
