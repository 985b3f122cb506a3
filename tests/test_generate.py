import math
from collections import Counter

import numpy as np
import pytest

from agd.denoiser import DenoiserConfig, DenoiserNet
from agd.generate import (GenerationConfig, GenerationTrace, enforce_degree_cap,
                          generate, generate_batch, replay, sample_size)
from agd.graphs import ABSENT, new_graph


def tiny_denoiser(num_node_types=1, num_edge_types=2, seed=0):
    config = DenoiserConfig(num_node_types=num_node_types,
                            num_edge_types=num_edge_types,
                            layers=1, hidden=5, mlp_hidden=6, mixtures=2)
    return DenoiserNet.init(config, np.random.default_rng(seed))


class TestSampleSize:
    def test_constant_corpus(self):
        class Corpus:
            graphs = [new_graph([0] * 5, []) for _ in range(3)]
        assert sample_size(Corpus(), np.random.default_rng(0)) == 5

    def test_empirical_frequencies(self):
        sizes = [3, 3, 6]
        rng = np.random.default_rng(1)
        draws = 30_000
        hits = sum(1 for _ in range(draws) if sample_size(sizes, rng) == 3)
        p = 2 / 3
        se = math.sqrt(p * (1 - p) / draws)
        assert abs(hits / draws - p) < 3 * se

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_size([], np.random.default_rng(0))


class TestGenerate:
    def test_single_node_single_type(self):
        net = tiny_denoiser()
        trace = generate(net, 1, np.random.default_rng(0))
        assert trace.graph.n == 1 and trace.graph.node_types == (0,)
        assert trace.order() == [0]

    def test_structural_validity_and_step_counts(self):
        net = tiny_denoiser(seed=3)
        for seed in range(5):
            n = 5
            trace = generate(net, n, np.random.default_rng(seed))
            g = trace.graph
            assert g.n == n
            for (i, j) in g.edges:
                assert i < j  # canonical symmetric storage, no self-loops
            assert len(trace.steps) == n
            # step t proposes one edge decision per already-generated node
            assert [len(s.edges) for s in trace.steps] == list(range(n))
            total_edge_decisions = sum(len(s.edges) for s in trace.steps)
            assert total_edge_decisions == n * (n - 1) // 2

    def test_trace_replays_to_graph(self):
        net = tiny_denoiser(num_node_types=2, num_edge_types=3, seed=5)
        for seed in range(5):
            trace = generate(net, 6, np.random.default_rng(seed))
            rebuilt = replay(trace, 2, 3)
            assert rebuilt == trace.graph

    def test_deterministic_given_rng(self):
        net = tiny_denoiser(seed=7)
        a = generate(net, 5, np.random.default_rng(11))
        b = generate(net, 5, np.random.default_rng(11))
        assert a == b


class TestDegreeCap:
    def test_no_violation_unchanged(self):
        partial = new_graph([0, 0, 0], [(0, 1, 1)], 1, 2)
        proposed = {0: 1, 1: 0, 2: 1}
        adjusted, dropped = enforce_degree_cap(partial, proposed, 3,
                                               np.random.default_rng(0))
        assert adjusted == proposed and dropped == ()

    def test_existing_node_at_cap_loses_edge(self):
        # node 1 already has degree 2 = cap
        partial = new_graph([0, 0, 0], [(0, 1, 1), (1, 2, 1)], 1, 2)
        proposed = {0: 1, 1: 1, 2: 0}
        adjusted, dropped = enforce_degree_cap(partial, proposed, 2,
                                               np.random.default_rng(0))
        assert adjusted[1] == ABSENT and dropped == (1,)
        assert adjusted[0] == 1

    def test_new_node_trimmed_to_cap(self):
        partial = new_graph([0] * 6, [], 1, 2)
        proposed = {j: 1 for j in range(6)}
        d_max = 3
        adjusted, dropped = enforce_degree_cap(partial, proposed, d_max,
                                               np.random.default_rng(1))
        kept = [j for j, s in adjusted.items() if s != ABSENT]
        assert len(kept) == d_max and len(dropped) == 3

    def test_survivors_uniform_over_trials(self):
        partial = new_graph([0] * 5, [], 1, 2)
        d_max = 2
        rng = np.random.default_rng(2)
        trials = 10_000
        keep_counts = Counter()
        for _ in range(trials):
            adjusted, _ = enforce_degree_cap(partial, {j: 1 for j in range(5)},
                                             d_max, rng)
            for j, s in adjusted.items():
                if s != ABSENT:
                    keep_counts[j] += 1
        p = d_max / 5
        se = math.sqrt(p * (1 - p) / trials)
        for j in range(5):
            assert abs(keep_counts[j] / trials - p) < 4 * se

    def test_generation_under_cap_never_violates(self):
        net = tiny_denoiser(seed=9)
        # bias the edge head toward "edge" so the cap actually binds
        for k in range(net.config.mixtures):
            net.params[f"eh{k}_2b"].data[:] = np.array([-3.0, 3.0])
        for seed in range(10):
            trace = generate(net, 8, np.random.default_rng(seed), max_degree=3)
            degrees = [trace.graph.degree(v) for v in range(8)]
            assert max(degrees) <= 3
            assert any(s.dropped for s in trace.steps)  # the cap did something


class TestGenerateBatch:
    def test_count_zero(self):
        net = tiny_denoiser()
        assert generate_batch(net, GenerationConfig(count=0, n=4)) == []

    def test_same_seed_identical(self):
        net = tiny_denoiser(seed=11)
        cfg = GenerationConfig(count=5, n=4, seed=3)
        assert generate_batch(net, cfg) == generate_batch(net, cfg)

    def test_size_pool_and_cap(self):
        net = tiny_denoiser(seed=13)
        cfg = GenerationConfig(count=8, sizes=(3, 5), max_degree=2, seed=4)
        traces = generate_batch(net, cfg)
        assert all(t.graph.n in (3, 5) for t in traces)
        assert all(max(t.graph.degree(v) for v in range(t.graph.n)) <= 2
                   for t in traces)

    def test_sample_i_uses_its_own_rng_stream(self):
        net = tiny_denoiser(seed=15)
        fixed = generate_batch(net, GenerationConfig(count=4, n=5, max_degree=2, seed=6))
        for i, trace in enumerate(fixed):
            assert trace == generate(net, 5, np.random.default_rng([6, i]), max_degree=2)
        pooled = generate_batch(net, GenerationConfig(count=4, sizes=(2, 4, 6), seed=7))
        for i, trace in enumerate(pooled):
            rng = np.random.default_rng([7, i])
            assert trace == generate(net, sample_size((2, 4, 6), rng), rng)

    @pytest.mark.parametrize("count", [1, 3])
    def test_batch_is_a_prefix_of_a_larger_batch(self, count):
        net = tiny_denoiser(seed=17)
        small = generate_batch(net, GenerationConfig(count=count, sizes=(3, 5), seed=8))
        large = generate_batch(net, GenerationConfig(count=count + 1, sizes=(3, 5), seed=8))
        assert large[:count] == small

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(count=1)
        with pytest.raises(ValueError):
            GenerationConfig(count=1, n=0)
        with pytest.raises(ValueError):
            GenerationConfig(count=1, n=3, max_degree=0)


class TestModelBundleRoundTrip:
    def test_save_load_identity(self, tmp_path):
        from agd.model import ModelBundle
        from agd.ordering import OrderingConfig

        rng = np.random.default_rng(17)
        bundle = ModelBundle.init(
            OrderingConfig(num_node_types=2, layers=1, heads=2, hidden=3,
                           embed_dim=4, pe_dim=4),
            DenoiserConfig(num_node_types=2, num_edge_types=3, layers=1,
                           hidden=5, mlp_hidden=6, mixtures=2),
            rng)
        # give the optimizer some state worth round-tripping
        bundle.adam_denoiser.step = 3
        bundle.adam_denoiser.m = {k: np.full_like(p.data, 0.25)
                                  for k, p in bundle.denoiser.params.items()}
        bundle.adam_denoiser.v = {k: np.full_like(p.data, 0.5)
                                  for k, p in bundle.denoiser.params.items()}
        path = tmp_path / "ckpt.json"
        bundle.save(path)
        loaded = ModelBundle.load(path)
        assert loaded.ordering.config == bundle.ordering.config
        assert loaded.denoiser.config == bundle.denoiser.config
        for k, p in bundle.denoiser.params.items():
            assert np.array_equal(loaded.denoiser.params[k].data, p.data)
        for k, p in bundle.ordering.params.items():
            assert np.array_equal(loaded.ordering.params[k].data, p.data)
        assert loaded.adam_denoiser.step == 3
        for k in bundle.denoiser.params:
            assert np.array_equal(loaded.adam_denoiser.m[k],
                                  bundle.adam_denoiser.m[k])

    def test_checkpoint_bytes_stable(self, tmp_path):
        from agd.model import ModelBundle
        from agd.ordering import OrderingConfig

        def build():
            return ModelBundle.init(
                OrderingConfig(num_node_types=1, layers=1, heads=1, hidden=2,
                               embed_dim=2, pe_dim=2),
                DenoiserConfig(num_node_types=1, num_edge_types=2, layers=1,
                               hidden=3, mlp_hidden=4, mixtures=1),
                np.random.default_rng(23))

        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        build().save(p1)
        build().save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_generation_identical_after_reload(self, tmp_path):
        from agd.model import ModelBundle
        from agd.ordering import OrderingConfig

        bundle = ModelBundle.init(
            OrderingConfig(num_node_types=1, layers=1, heads=1, hidden=2,
                           embed_dim=2, pe_dim=2),
            DenoiserConfig(num_node_types=1, num_edge_types=2, layers=1,
                           hidden=3, mlp_hidden=4, mixtures=2),
            np.random.default_rng(29))
        path = tmp_path / "m.json"
        bundle.save(path)
        loaded = ModelBundle.load(path)
        cfg = GenerationConfig(count=3, n=4, seed=8)
        assert generate_batch(bundle.denoiser, cfg) == \
            generate_batch(loaded.denoiser, cfg)


@pytest.mark.parametrize("count", [-1, -3])
def test_config_rejects_a_negative_count(count):
    with pytest.raises(ValueError, match="^count "):
        GenerationConfig(count=count, n=4)
