"""`LabeledGraph.adjacency` and `graphs.components` against the edge scans
they replaced, kept here as references."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from agd.datasets import gen_community_small, gen_ego
from agd.graphs import (ABSENT, MASK, absorb_node, components, denoising_view,
                        initial_state, new_graph, permute)
from agd.metrics import (_GRAPHLET_BY_DEGSEQ, _ORBIT_BY_GRAPHLET_DEGREE,
                         GRAPHLET_NAMES, clustering_coefficients, degree_histogram,
                         graphlet_counts_4, isomorphic, orbit_counts_4,
                         spectral_bipartition, wl_hash)


def random_graph(rng, n, num_node_types=2, num_edge_types=3, p=0.3):
    types = rng.integers(0, num_node_types, size=n).tolist()
    edges = [(i, j, int(rng.integers(1, num_edge_types)))
             for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return new_graph(types, edges, num_node_types, num_edge_types)


def seeded_graphs(count=25, sizes=range(1, 13)):
    rng = np.random.default_rng(41)
    sizes = list(sizes)
    return [random_graph(rng, sizes[k % len(sizes)], p=rng.uniform(0.0, 0.7))
            for k in range(count)]


# -- references: the edge scans the adjacency replaced ------------------------

def reference_adjacency_sets(graph):
    adj = [set() for _ in range(graph.n)]
    for (i, j) in graph.edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def reference_neighbors(graph, i):
    out = []
    for (a, b) in graph.edges:
        if a == i:
            out.append(b)
        elif b == i:
            out.append(a)
    return sorted(out)


def reference_degree(graph, i):
    return sum(1 for (a, b) in graph.edges if a == i or b == i)


def reference_components(graph):
    adj = reference_adjacency_sets(graph)
    seen = [False] * graph.n
    comps = []
    for start in range(graph.n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def reference_edge_states(state, target):
    kept = sorted(state.unmasked_nodes() + [target])
    size = len(kept)
    states = [[ABSENT] * size for _ in range(size)]
    for a in range(size):
        for b in range(a + 1, size):
            va, vb = kept[a], kept[b]
            if va == target or vb == target:
                s = MASK
            else:
                s = state.base.edge_type(va, vb)
            states[a][b] = s
            states[b][a] = s
    return tuple(tuple(r) for r in states)


def reference_clustering(graph):
    adj = reference_adjacency_sets(graph)
    out = np.zeros(graph.n)
    for i in range(graph.n):
        d = len(adj[i])
        if d < 2:
            continue
        links = 0
        nbrs = sorted(adj[i])
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                if nbrs[b] in adj[nbrs[a]]:
                    links += 1
        out[i] = 2.0 * links / (d * (d - 1))
    return out


def reference_orbits_and_graphlets(graph):
    adj = reference_adjacency_sets(graph)
    counts = np.zeros((graph.n, 11), dtype=int)
    occ = {name: 0 for name in GRAPHLET_NAMES}
    for quad in itertools.combinations(range(graph.n), 4):
        degs = [sum(1 for other in quad if other != v and other in adj[v])
                for v in quad]
        if min(degs) == 0 or sum(degs) < 6:
            continue
        name = _GRAPHLET_BY_DEGSEQ.get(tuple(sorted(degs)))
        if name is None:
            continue
        occ[name] += 1
        for v, d in zip(quad, degs):
            counts[v, _ORBIT_BY_GRAPHLET_DEGREE[(name, d)]] += 1
    return counts, occ


def reference_spectral_bipartition(graph):
    n = graph.n
    comps = reference_components(graph)
    if len(comps) > 1:
        labels = np.zeros(n, dtype=int)
        totals = [0, 0]
        for comp in sorted(comps, key=lambda c: (-len(c), c[0])):
            side = 0 if totals[0] <= totals[1] else 1
            labels[comp] = side
            totals[side] += len(comp)
        return labels, False
    if n == 1:
        return np.zeros(1, dtype=int), True
    a = np.zeros((n, n))
    for i, nbrs in enumerate(reference_adjacency_sets(graph)):
        for j in nbrs:
            a[i, j] = 1.0
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    _, vecs = np.linalg.eigh(np.eye(n) - dinv[:, None] * a * dinv[None, :])
    fiedler = vecs[:, 1]
    nonzero = np.nonzero(np.abs(fiedler) > 1e-12)[0]
    if len(nonzero) and fiedler[nonzero[0]] < 0:
        fiedler = -fiedler
    return (fiedler < 0).astype(int), True


def reference_wl_hash(graph, rounds=3):
    adj = [[] for _ in range(graph.n)]
    for (i, j), k in graph.edges.items():
        adj[i].append((j, k))
        adj[j].append((i, k))
    labels = [str(t) for t in graph.node_types]

    def digest(text):
        return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()

    for _ in range(rounds):
        labels = [digest(labels[v] + "|" + ";".join(
            sorted(f"{k}:{labels[u]}" for u, k in adj[v]))) for v in range(graph.n)]
    return digest(",".join(sorted(labels)) + f"#{graph.n}")


# -- the adjacency matrix -----------------------------------------------------

class TestAdjacency:
    @pytest.mark.parametrize("graph", seeded_graphs())
    def test_symmetric_absent_diagonal_and_matches_edges(self, graph):
        a = graph.adjacency
        assert a.shape == (graph.n, graph.n)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == ABSENT)
        for i in range(graph.n):
            for j in range(graph.n):
                if i != j:
                    assert a[i, j] == graph.edge_type(i, j)
        assert np.count_nonzero(a != ABSENT) == 2 * graph.m

    def test_read_only_and_cached(self):
        g = new_graph([0, 0, 0], [(0, 1, 2), (1, 2, 1)], 1, 3)
        with pytest.raises(ValueError):
            g.adjacency[0, 2] = 1
        with pytest.raises(ValueError):
            g.adjacency[0, 0] = 1
        assert g.adjacency is g.adjacency
        assert g.edge_type(0, 2) == ABSENT

    def test_cache_leaves_equality_and_hash_alone(self):
        g = new_graph([0, 1], [(0, 1, 1)])
        h = new_graph([0, 1], [(0, 1, 1)])
        g.adjacency
        assert g == h and hash(g) == hash(h)

    @pytest.mark.parametrize("graph", seeded_graphs())
    def test_degree_and_neighbors_equal_edge_scans(self, graph):
        for i in range(graph.n):
            assert graph.degree(i) == reference_degree(graph, i)
            assert graph.neighbors(i) == reference_neighbors(graph, i)
            assert all(type(v) is int for v in graph.neighbors(i))


class TestComponents:
    def test_isolated_nodes_are_singletons(self):
        g = new_graph([0] * 5, [(1, 3, 1)])
        assert components(g) == [[0], [1, 3], [2], [4]]

    def test_several_components_ordered_by_smallest_node(self):
        g = new_graph([0] * 8, [(6, 2, 1), (2, 7, 1), (0, 5, 1), (4, 3, 1), (3, 1, 1)])
        assert components(g) == [[0, 5], [1, 3, 4], [2, 6, 7]]

    def test_connected_and_single_node(self):
        assert components(new_graph([0], [])) == [[0]]
        assert components(new_graph([0] * 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])) \
            == [[0, 1, 2, 3]]

    @pytest.mark.parametrize("graph", seeded_graphs())
    def test_equals_the_depth_first_reference(self, graph):
        assert components(graph) == reference_components(graph)


class TestDenoisingViewStates:
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_pairwise_loop(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, int(rng.integers(1, 10)), p=0.5)
        state = initial_state(graph)
        for v in rng.permutation(graph.n):
            state = absorb_node(state, int(v))
            for target in state.masked_nodes():
                view = denoising_view(state, target)
                assert view.edge_states == reference_edge_states(state, target)
                assert all(type(s) is int for row in view.edge_states for s in row)


class TestMetricsOnAdjacency:
    @pytest.mark.parametrize("graph", seeded_graphs())
    def test_clustering_bit_identical(self, graph):
        got = clustering_coefficients(graph)
        assert got.tobytes() == reference_clustering(graph).tobytes()

    @pytest.mark.parametrize("graph", seeded_graphs())
    def test_wl_hash_unchanged(self, graph):
        assert wl_hash(graph) == reference_wl_hash(graph)

    @pytest.mark.parametrize("graph", seeded_graphs())
    def test_degree_histogram_matches_degrees(self, graph):
        degrees = [reference_degree(graph, i) for i in range(graph.n)]
        expected = np.bincount(degrees, minlength=max(degrees) + 1) / graph.n
        assert degree_histogram(graph).tobytes() == expected.tobytes()

    def test_isomorphic_reads_edge_types(self):
        rng = np.random.default_rng(5)
        for graph in seeded_graphs(count=10, sizes=range(3, 9)):
            perm = [int(v) for v in rng.permutation(graph.n)]
            assert isomorphic(graph, permute(graph, perm))
            if graph.m:
                (i, j), k = next(iter(graph.edges.items()))
                other = dict(graph.edges)
                other[(i, j)] = 1 + k % 2
                retyped = new_graph(graph.node_types,
                                    [(a, b, t) for (a, b), t in other.items()], 2, 3)
                assert not isomorphic(graph, retyped)

    @pytest.mark.parametrize("graph", seeded_graphs(count=12, sizes=range(4, 12)))
    def test_orbits_and_graphlets_equal_the_set_based_loop(self, graph):
        counts, occ = reference_orbits_and_graphlets(graph)
        assert np.array_equal(orbit_counts_4(graph), counts)
        assert graphlet_counts_4(graph) == occ

    @pytest.mark.parametrize("graph", seeded_graphs())
    def test_spectral_bipartition_unchanged(self, graph):
        labels, connected = spectral_bipartition(graph)
        ref_labels, ref_connected = reference_spectral_bipartition(graph)
        assert connected == ref_connected
        assert np.array_equal(labels, ref_labels)


class TestCorporaUnchanged:
    """Connectivity checks and ego walks read the adjacency; the corpora they
    draw are the ones the edge-scan versions drew."""

    @staticmethod
    def digest(corpus):
        text = "".join(json.dumps([list(g.node_types), g.edge_list()]) + "\n"
                       for g in corpus.graphs)
        return hashlib.sha256(text.encode()).hexdigest()

    def test_community_small(self):
        corpus = gen_community_small(np.random.default_rng(3), 6)
        assert all(len(components(g)) == 1 for g in corpus.graphs)
        assert self.digest(corpus) == \
            "5d93b981d2a13f574e634b43a355bf8035d40582fc07a662814758c5280386b0"

    def test_ego(self):
        corpus = gen_ego(np.random.default_rng(3), 6)
        assert self.digest(corpus) == \
            "45c291c637f16b1ac730573fbff7ce434eafc0e1249658924fc62b242fd62893"

    def test_ego_with_the_neighbour_fallback(self):
        corpus = gen_ego(np.random.default_rng(3), 6, size_range=(3, 5))
        assert self.digest(corpus) == \
            "1570ce41ef46d2f68cc594b09765505a145a0a424d2289652669760b4f642808"
