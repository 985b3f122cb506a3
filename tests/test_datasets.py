import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agd.datasets import (TYPED_TOY_NODE_TYPE_PROBS, Corpus, _induced,
                          _preferential_attachment, ego_graph, export_dot,
                          export_trace_dot, gen_caveman, gen_community_small,
                          gen_ego, gen_er, gen_typed_toy, load_corpus,
                          save_corpus, split)
from agd.generate import GenerationTrace, StepRecord
from agd.graphs import GraphError, LabeledGraph, new_graph
from agd.metrics import spectral_bipartition


def connected(g):
    seen = {0}
    stack = [0]
    adj = [[] for _ in range(g.n)]
    for (i, j) in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


class TestCommunitySmall:
    def test_count_zero(self):
        corpus = gen_community_small(np.random.default_rng(0), 0)
        assert len(corpus) == 0

    def test_sizes_connectivity_and_block_structure(self):
        corpus = gen_community_small(np.random.default_rng(1), 10)
        for g in corpus.graphs:
            assert 12 <= g.n <= 20 and g.n % 2 == 0
            assert connected(g)
            half = g.n // 2
            intra = sum(1 for (i, j) in g.edges
                        if (i < half) == (j < half))
            inter = g.m - intra
            assert intra > inter  # two dense blocks, sparse bridge edges
            labels, ok = spectral_bipartition(g)
            assert ok
            # the spectral split should mostly recover the two blocks
            agreement = sum(1 for v in range(g.n) if labels[v] == (v >= half))
            assert max(agreement, g.n - agreement) >= 0.8 * g.n

    def test_seed_reproducible(self):
        a = gen_community_small(np.random.default_rng(5), 3)
        b = gen_community_small(np.random.default_rng(5), 3)
        assert a.graphs == b.graphs


class TestCaveman:
    def test_count_zero(self):
        assert len(gen_caveman(np.random.default_rng(0), 0)) == 0

    def test_clique_grid_sizes(self):
        corpus = gen_caveman(np.random.default_rng(2), 20)
        for g in corpus.graphs:
            assert g.n in (6, 8, 9, 10)   # l*k for the legal (l, k) shapes
            assert 5 <= g.n <= 10
            assert connected(g)

    def test_degree_multiset_matches_construction(self):
        # rewiring moves one endpoint per clique: the second member drops to
        # k-2 and the previous clique's last member rises to k
        corpus = gen_caveman(np.random.default_rng(3), 30)
        for g in corpus.graphs:
            degrees = sorted(g.degree(v) for v in range(g.n))
            n = g.n
            for l in (2, 3):
                if n % l == 0 and 3 <= n // l <= 5:
                    k = n // l
                    expect = sorted([k - 2] * l + [k] * l + [k - 1] * (n - 2 * l))
                    if degrees == expect:
                        break
            else:
                pytest.fail(f"unexpected degree multiset {degrees} for n={n}")


class TestEgo:
    def test_sizes_and_radius(self):
        corpus = gen_ego(np.random.default_rng(4), 30)
        for g in corpus.graphs:
            assert 4 <= g.n <= 18
            assert connected(g)
            # some node (the center) reaches everything within two hops
            adj = [[] for _ in range(g.n)]
            for (i, j) in g.edges:
                adj[i].append(j)
                adj[j].append(i)

            def eccentricity(s):
                dist = {s: 0}
                frontier = [s]
                while frontier:
                    nxt = []
                    for v in frontier:
                        for u in adj[v]:
                            if u not in dist:
                                dist[u] = dist[v] + 1
                                nxt.append(u)
                    frontier = nxt
                return max(dist.values()) if len(dist) == g.n else math.inf

            assert min(eccentricity(v) for v in range(g.n)) <= 2

    def test_ego_of_isolated_node_is_single_node(self):
        from agd.datasets import ego_graph
        base = new_graph([0, 0, 0], [(1, 2, 1)], 1, 2)  # node 0 isolated
        g, center = ego_graph(base, 0)
        assert g.n == 1 and center == 0 and g.m == 0

    def test_center_keeps_all_radius_one_neighbors(self):
        from agd.datasets import ego_graph
        rng = np.random.default_rng(11)
        base = gen_community_small(rng, 1).graphs[0]
        for center in range(0, base.n, 3):
            g, c = ego_graph(base, center, radius=1)
            assert g.degree(c) == base.degree(center)
            g2, c2 = ego_graph(base, center, radius=2)
            assert g2.degree(c2) == base.degree(center)

    def test_external_base_supported(self):
        base = new_graph([0] * 30, [(i, i + 1, 1) for i in range(29)], 1, 2)
        corpus = gen_ego(np.random.default_rng(12), 5, base=base)
        assert all(4 <= g.n <= 18 for g in corpus.graphs)

    def test_empty_base_rejected(self):
        with pytest.raises(Exception):
            gen_ego(np.random.default_rng(0), 1, base_size=0)

    @pytest.mark.parametrize("base, size_range", [
        (new_graph([0] * 5, [], 1, 2), (4, 18)),              # isolated nodes
        (new_graph([0] * 30, [(i, i + 1, 1) for i in range(29)], 1, 2), (6, 18)),
        (None, (10, 5)),
    ], ids=["isolated", "path-too-short", "empty-range"])
    def test_unreachable_size_range_is_an_error(self, base, size_range):
        with pytest.raises(ValueError, match=re.escape(f"size_range {size_range}")):
            gen_ego(np.random.default_rng(0), 3, base_size=20, size_range=size_range,
                    base=base)

    @pytest.mark.parametrize("size_range", [(4, 18), (2, 3), (17, 18)])
    def test_draws_are_those_of_the_sampling_loop(self, size_range):
        # the sampling loop alone, with no up-front check: the corpus is the
        # same graph for graph, and the rng ends in the same place
        lo, hi = size_range
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        corpus = gen_ego(rng, 12, base_size=60, size_range=size_range)
        base_pairs = _preferential_attachment(ref_rng, 60)
        base = new_graph([0] * 60, [(i, j, 1) for i, j in base_pairs], 1, 2)
        want = []
        while len(want) < 12:
            center = int(ref_rng.integers(0, base.n))
            g, _ = ego_graph(base, center, radius=2)
            if g.n > hi:
                g, _ = ego_graph(base, center, radius=1)
            if g.n > hi:
                g = _induced(base, {center, *base.neighbors(center)[:hi - 1]})
            if g.n >= lo:
                want.append(g)
        assert corpus.graphs == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestTypedToy:
    def test_vocabulary_and_sizes(self):
        corpus = gen_typed_toy(np.random.default_rng(5), 50)
        assert corpus.num_node_types == 4 and corpus.num_edge_types == 4
        for g in corpus.graphs:
            assert 3 <= g.n <= 9
            assert g.node_types[0] == 0
            assert connected(g)

    def test_type_frequencies_match_grammar(self):
        corpus = gen_typed_toy(np.random.default_rng(6), 400)
        counts = np.zeros(4)
        total = 0
        for g in corpus.graphs:
            for t in g.node_types[1:]:
                counts[t] += 1
                total += 1
        for t, p in enumerate(TYPED_TOY_NODE_TYPE_PROBS):
            se = math.sqrt(p * (1 - p) / total)
            assert abs(counts[t] / total - p) < 3 * se + 1e-9


class TestSplit:
    def corpus(self, n=10):
        rng = np.random.default_rng(7)
        return gen_caveman(rng, n)

    def test_ten_graphs_eight_two(self):
        train, val, test = split(self.corpus(10), seed=1)
        assert len(test) == 2
        assert len(train) + len(val) == 8

    def test_disjoint_and_covering(self):
        corpus = self.corpus(12)
        train, val, test = split(corpus, seed=2)
        combined = train.graphs + val.graphs + test.graphs
        assert len(combined) == len(corpus)

    def test_seed_stable(self):
        corpus = self.corpus(10)
        a = split(corpus, seed=3)
        b = split(corpus, seed=3)
        for x, y in zip(a, b):
            assert x.graphs == y.graphs

    def test_val_fraction_switch(self):
        corpus = self.corpus(20)
        _, val20, _ = split(corpus, seed=4, val_fraction=0.2)
        _, val25, _ = split(corpus, seed=4, val_fraction=0.25)
        assert len(val25) == round(0.25 * 16) and len(val20) == round(0.2 * 16)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            split(self.corpus(4), seed=0)


class TestCorpusIO:
    def test_roundtrip_identity(self, tmp_path):
        corpus = gen_typed_toy(np.random.default_rng(8), 7)
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.graphs == corpus.graphs
        assert loaded.num_node_types == corpus.num_node_types
        assert loaded.num_edge_types == corpus.num_edge_types
        # byte-stable re-save
        path2 = tmp_path / "c2.jsonl"
        save_corpus(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpus = load_corpus(path)
        assert len(corpus) == 0

    def test_conflicting_edge_reported_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"nodes": [0, 0], "edges": [[0, 1, 1]], "meta": {}})
        bad = json.dumps({"nodes": [0, 0], "edges": [[0, 1, 1], [1, 0, 2]],
                          "meta": {}})
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(GraphError) as err:
            load_corpus(path)
        assert ":2:" in str(err.value)

    def test_malformed_json_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(GraphError) as err:
            load_corpus(path)
        assert ":1:" in str(err.value)


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2, 5) | st.integers()
                 | st.floats() | st.text(max_size=3))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=3),
    max_leaves=10)
_INDEX = st.integers(-1, 4) | _JSON_SCALARS
_CORPUS_LINES = st.fixed_dictionaries({}, optional={
    "nodes": st.lists(_INDEX, max_size=5) | _JSON_VALUES,
    "edges": st.lists(st.lists(_INDEX, min_size=2, max_size=4) | _JSON_VALUES,
                      max_size=4) | _JSON_VALUES,
    "meta": st.fixed_dictionaries({}, optional={"num_node_types": _INDEX,
                                                "num_edge_types": _INDEX,
                                                "generator": _JSON_VALUES})
    | _JSON_VALUES,
}) | _JSON_VALUES | st.fixed_dictionaries({
    "nodes": st.lists(st.integers(0, 2), min_size=1, max_size=5),
    "edges": st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), max_size=4),
})


class TestMalformedCorpusLines:
    """A corpus line either loads or raises GraphError naming path:line."""

    @pytest.mark.parametrize("line", [
        "[1,2]", '{"nodes":[0,0],"meta":"x"}', "null", "3", '"nodes"',
        '{"edges":[]}', '{"nodes":"01"}', '{"nodes":{"0":0}}',
        '{"nodes":[1.5]}', '{"nodes":[true]}', '{"nodes":["1"]}',
        '{"nodes":[0,0],"edges":[[0,1,1.5]]}', '{"nodes":[0,0],"edges":[[0,true,1]]}',
        '{"nodes":[0,0],"edges":[["0",1,1]]}', '{"nodes":[0,0],"edges":[0,1,1]}',
        '{"nodes":[0,0],"edges":[[0,1]]}', '{"nodes":[0,0],"edges":{"0":[0,1,1]}}',
        '{"nodes":[0],"meta":{"num_node_types":1.5}}',
        '{"nodes":[0],"meta":{"num_edge_types":"2"}}',
    ])
    def test_rejected_with_its_line_number(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"nodes": [0]}) + "\n" + line + "\n")
        with pytest.raises(GraphError, match=f"^{path}:2: "):
            load_corpus(path)

    @pytest.mark.parametrize("nodes, edges", [
        ([0, 1.0], []), ([0, True], []), ([0, "1"], []),
        ([0, 0], [(0, 1, 1.5)]), ([0, 0], [(0.0, 1, 1)]), ([0, 0], [(0, np.True_, 1)]),
    ])
    def test_new_graph_rejects_non_integers(self, nodes, edges):
        with pytest.raises(GraphError, match="must be an integer"):
            new_graph(nodes, edges)

    def test_new_graph_accepts_numpy_integers(self):
        g = new_graph(np.array([0, 1, 1]), [(np.int64(0), np.int32(2), np.uint8(1))],
                      np.int64(2), 2)
        assert g == new_graph([0, 1, 1], [(0, 2, 1)], 2, 2)
        assert all(type(t) is int for t in g.node_types)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_CORPUS_LINES)
    def test_any_json_line_loads_or_raises_graph_error(self, tmp_path, doc):
        path = tmp_path / "line.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        try:
            corpus = load_corpus(path)
        except GraphError as exc:
            assert str(exc).startswith(f"{path}:1: ")
        else:
            assert len(corpus) == 1 and isinstance(corpus.graphs[0], LabeledGraph)


class TestDotExport:
    def test_single_node(self):
        g = new_graph([0], [])
        dot = export_dot(g)
        assert dot.count("--") == 0
        assert '0 [label="n0"];' in dot

    def test_edge_count(self):
        g = new_graph([0, 0, 0], [(0, 1, 1), (1, 2, 1)])
        assert export_dot(g).count("--") == g.m

    def test_trace_coloring_monotone(self):
        g = new_graph([0, 0, 0], [(0, 1, 1)], 1, 2)
        trace = GenerationTrace(g, (
            StepRecord(0, 0, (), ()),
            StepRecord(1, 0, ((0, 1),), ()),
            StepRecord(2, 0, ((0, 0), (1, 0)), ()),
        ))
        dot = export_trace_dot(trace)
        values = []
        for line in dot.splitlines():
            if "fillcolor" in line:
                values.append(float(line.split()[-1].rstrip('"];')))
        assert values == sorted(values, reverse=True)
        assert len(values) == 3


class TestErBaseline:
    def test_density(self):
        corpus = gen_er(np.random.default_rng(9), 40, [10], 0.3)
        densities = [g.m / (g.n * (g.n - 1) / 2) for g in corpus.graphs]
        assert abs(float(np.mean(densities)) - 0.3) < 0.05
