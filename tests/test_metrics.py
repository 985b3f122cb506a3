import itertools
import math

import numpy as np
import pytest

from agd.graphs import new_graph, permute
from agd.metrics import (GRAPHLET_NAMES, MmdReport, clustering_coefficients,
                         cross_cluster_count, degree_histogram, emd_1d,
                         graphlet_counts_4, isomorphic, mmd, mmd_report,
                         orbit_counts_4, spectral_bipartition,
                         uniqueness_novelty, wl_hash)

# ---------------------------------------------------------------------------
# independent orbit oracle: match 4-subsets against reference graphlets by
# trying all 24 bijections
# ---------------------------------------------------------------------------

_REFERENCE = {
    "path": ({(0, 1), (1, 2), (2, 3)}, {0: 0, 1: 1, 2: 1, 3: 0}),
    "star": ({(0, 1), (0, 2), (0, 3)}, {0: 3, 1: 2, 2: 2, 3: 2}),
    "cycle": ({(0, 1), (1, 2), (2, 3), (0, 3)}, {0: 4, 1: 4, 2: 4, 3: 4}),
    "paw": ({(0, 1), (0, 2), (1, 2), (2, 3)}, {0: 6, 1: 6, 2: 7, 3: 5}),
    "diamond": ({(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}, {0: 8, 1: 8, 2: 9, 3: 9}),
    "clique": ({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)},
               {0: 10, 1: 10, 2: 10, 3: 10}),
}


def oracle_orbits(graph):
    present = {(min(i, j), max(i, j)) for (i, j) in graph.edges}
    counts = np.zeros((graph.n, 11), dtype=int)
    occ = {name: 0 for name in GRAPHLET_NAMES}
    for quad in itertools.combinations(range(graph.n), 4):
        induced = {(a, b) for a, b in itertools.combinations(sorted(quad), 2)
                   if (a, b) in present}
        matched = False
        for name, (ref_edges, ref_orbits) in _REFERENCE.items():
            if len(ref_edges) != len(induced):
                continue
            for perm in itertools.permutations(range(4)):
                mapped = {tuple(sorted((quad[perm[a]], quad[perm[b]])))
                          for (a, b) in ref_edges}
                if mapped == induced:
                    occ[name] += 1
                    for pos in range(4):
                        counts[quad[perm[pos]], ref_orbits[pos]] += 1
                    matched = True
                    break
            if matched:
                break
    return counts, occ


def untyped(n, pairs):
    return new_graph([0] * n, [(i, j, 1) for (i, j) in pairs])


def random_untyped(rng, n, p=0.4):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return untyped(n, pairs)


K3 = untyped(3, [(0, 1), (1, 2), (0, 2)])
P4 = untyped(4, [(0, 1), (1, 2), (2, 3)])
K4 = untyped(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
STAR3 = untyped(4, [(0, 1), (0, 2), (0, 3)])


class TestDegreeHistogram:
    def test_triangle_all_degree_two(self):
        assert np.array_equal(degree_histogram(K3), [0, 0, 1.0])

    def test_star(self):
        hist = degree_histogram(STAR3)
        assert np.allclose(hist, [0, 3 / 4, 0, 1 / 4])

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = random_untyped(rng, 10)
            degrees = [sum(1 for u in range(10) if u != v and g.edge_type(v, u) != 0)
                       for v in range(10)]
            naive = np.zeros(max(degrees) + 1)
            for d in degrees:
                naive[d] += 1 / 10
            assert np.allclose(degree_histogram(g), naive, atol=1e-15)


class TestClustering:
    def test_triangle_node_is_one(self):
        assert np.array_equal(clustering_coefficients(K3), [1.0, 1.0, 1.0])

    def test_star_center_is_zero(self):
        assert clustering_coefficients(STAR3)[0] == 0.0

    def test_matches_triangle_triple_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_untyped(rng, 9)
            got = clustering_coefficients(g)
            for v in range(g.n):
                nbrs = [u for u in range(g.n) if u != v and g.edge_type(v, u) != 0]
                d = len(nbrs)
                if d < 2:
                    assert got[v] == 0.0
                    continue
                tri = sum(1 for a, b in itertools.combinations(nbrs, 2)
                          if g.edge_type(a, b) != 0)
                assert got[v] == 2 * tri / (d * (d - 1))


class TestOrbits:
    def test_p4_end_node(self):
        counts = orbit_counts_4(P4)
        assert counts[0, 0] == 1
        assert counts[0].sum() == 1
        assert counts[1, 1] == 1

    def test_k4_node(self):
        counts = orbit_counts_4(K4)
        for v in range(4):
            assert counts[v, 10] == 1
            assert counts[v].sum() == 1

    def test_too_small_graph_all_zero(self):
        assert orbit_counts_4(K3).sum() == 0

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            g = random_untyped(rng, int(rng.integers(4, 10)))
            counts, occ = oracle_orbits(g)
            assert np.array_equal(orbit_counts_4(g), counts)
            assert graphlet_counts_4(g) == occ

    def test_every_graph_on_four_labelled_nodes(self):
        # the degree test passes exactly the connected graphs, and each one's
        # sorted degree sequence names its graphlet
        pairs = list(itertools.combinations(range(4), 2))
        seen = {name: 0 for name in GRAPHLET_NAMES}
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            edges = [p for p, keep in zip(pairs, chosen) if keep]
            reached = {0}
            for _ in range(3):                   # a path on 4 nodes has at most 3 edges
                reached |= {u for a, b in edges if {a, b} & reached for u in (a, b)}
            occ = graphlet_counts_4(untyped(4, edges))
            assert sum(occ.values()) == (len(reached) == 4)
            for name, count in occ.items():
                seen[name] += count
        assert seen == {"path": 12, "star": 4, "cycle": 3, "paw": 12, "diamond": 6,
                        "clique": 1}

    def test_orbit_participation_identity(self):
        orbit_class_sizes = {
            "path": {0: 2, 1: 2}, "star": {2: 3, 3: 1}, "cycle": {4: 4},
            "paw": {5: 1, 6: 2, 7: 1}, "diamond": {8: 2, 9: 2}, "clique": {10: 4},
        }
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_untyped(rng, 8)
            counts = orbit_counts_4(g)
            occ = graphlet_counts_4(g)
            for name, orbits in orbit_class_sizes.items():
                for orbit, size in orbits.items():
                    assert counts[:, orbit].sum() == occ[name] * size


class TestMmd:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(4)
        graphs = [random_untyped(rng, 6) for _ in range(4)]
        for kind in ("degree", "clustering", "orbit"):
            assert mmd(graphs, list(graphs), kind) == 0.0

    def test_singleton_closed_form(self):
        g_a = untyped(2, [])          # degree histogram [1]
        g_b = untyped(2, [(0, 1)])    # degree histogram [0, 1]
        value = mmd([g_a], [g_b], "degree", sigma=1.0)
        assert abs(value ** 2 - (2 - 2 * math.exp(-0.5))) < 1e-12

    def test_emd_padding(self):
        assert emd_1d(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert emd_1d(np.array([1.0]), np.array([0.0, 1.0])) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = [random_untyped(rng, 7) for _ in range(3)]
        b = [random_untyped(rng, 7) for _ in range(5)]
        for kind in ("degree", "clustering", "orbit"):
            assert abs(mmd(a, b, kind) - mmd(b, a, kind)) < 1e-15

    def test_against_reference_double_loop(self):
        rng = np.random.default_rng(6)
        a = [random_untyped(rng, 6) for _ in range(3)]
        b = [random_untyped(rng, 6) for _ in range(4)]
        from agd.metrics import descriptor

        def naive(kind):
            da = [descriptor(g, kind) for g in a]
            db = [descriptor(g, kind) for g in b]

            def k(x, y):
                if kind == "orbit":
                    d = float(np.linalg.norm(x - y))
                else:
                    d = emd_1d(x, y)
                return math.exp(-d * d / 2.0)

            def mean_k(xs, ys):
                total = 0.0
                for x in xs:
                    for y in ys:
                        total += k(x, y)
                return total / (len(xs) * len(ys))

            sq = mean_k(da, da) + mean_k(db, db) - 2 * mean_k(da, db)
            return math.sqrt(max(sq, 0.0))

        for kind in ("degree", "clustering", "orbit"):
            assert mmd(a, b, kind) == naive(kind)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            mmd([], [K3], "degree")

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="^sigma must be finite and > 0"):
            mmd([K3], [K3], "degree", sigma)

    def test_report_average(self):
        rng = np.random.default_rng(7)
        a = [random_untyped(rng, 6) for _ in range(3)]
        rep = mmd_report(a, a)
        assert rep.average == 0.0
        assert rep.to_dict()["generated_count"] == 3


class TestSpectralBipartition:
    def test_two_triangles_with_bridge(self):
        g = untyped(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        labels, connected = spectral_bipartition(g)
        assert connected
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_k4_balanced_and_deterministic(self):
        l1, c1 = spectral_bipartition(K4)
        l2, _ = spectral_bipartition(K4)
        assert c1 and np.array_equal(l1, l2)
        assert 0 < l1.sum() < 4

    def test_p2(self):
        g = untyped(2, [(0, 1)])
        labels, connected = spectral_bipartition(g)
        assert connected and labels[0] != labels[1]

    def test_disconnected_flagged_and_split_by_component(self):
        g = untyped(5, [(0, 1), (1, 2), (3, 4)])
        labels, connected = spectral_bipartition(g)
        assert not connected
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]


class TestCrossClusterCount:
    def test_block_order_counts_one(self):
        labels = [0, 0, 0, 1, 1, 1]
        assert cross_cluster_count([0, 1, 2, 3, 4, 5], labels) == 1

    def test_alternating_order(self):
        k = 4
        labels = [0, 1] * k
        order = list(range(2 * k))
        assert cross_cluster_count(order, labels) == 2 * k - 1

    def test_coverage_checked(self):
        with pytest.raises(ValueError):
            cross_cluster_count([0, 3], [0, 1])

    def test_mean_over_all_orders_matches_sample(self):
        labels = [0] * 4 + [1] * 4
        total = 0
        count = 0
        for order in itertools.permutations(range(8)):
            total += cross_cluster_count(order, labels)
            count += 1
        exact_mean = total / count
        rng = np.random.default_rng(8)
        draws = 4000
        sampled = np.mean([cross_cluster_count(list(rng.permutation(8)), labels)
                           for _ in range(draws)])
        assert abs(exact_mean - 4.0) < 1e-12  # 7 * 4/7
        assert abs(sampled - exact_mean) < 0.15


class TestUniquenessNovelty:
    def test_all_identical(self):
        gen = [K3] * 5
        unique, novel = uniqueness_novelty(gen, [])
        assert unique == 1 / 5 and novel == 1.0

    def test_disjoint_from_training(self):
        unique, novel = uniqueness_novelty([P4, K4], [K3])
        assert unique == 1.0 and novel == 1.0

    def test_relabeled_graphs_collapse(self):
        rng = np.random.default_rng(9)
        g = random_untyped(rng, 7, p=0.5)
        relabeled = [permute(g, list(rng.permutation(7))) for _ in range(4)]
        unique, novel = uniqueness_novelty([g] + relabeled, [g])
        assert unique == 1 / 5
        assert novel == 0.0

    def test_wl_hash_invariant_and_type_sensitive(self):
        rng = np.random.default_rng(10)
        g = new_graph([0, 1, 0, 1], [(0, 1, 1), (1, 2, 2), (2, 3, 1)], 2, 3)
        assert wl_hash(g) == wl_hash(permute(g, list(rng.permutation(4))))
        g2 = new_graph([0, 1, 0, 1], [(0, 1, 2), (1, 2, 2), (2, 3, 1)], 2, 3)
        assert wl_hash(g) != wl_hash(g2)

    def test_isomorphic_backtracking(self):
        rng = np.random.default_rng(11)
        g = new_graph([0, 1, 0, 1, 2], [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 2)], 3, 3)
        assert isomorphic(g, permute(g, list(rng.permutation(5))))
        h = new_graph([0, 1, 0, 1, 2], [(0, 1, 1), (1, 2, 2), (2, 3, 1), (2, 4, 2)], 3, 3)
        assert not isomorphic(g, h)

    def test_descriptors_invariant_under_relabeling(self):
        rng = np.random.default_rng(12)
        g = random_untyped(rng, 8)
        perm = list(rng.permutation(8))
        gp = permute(g, perm)
        assert np.array_equal(degree_histogram(g), degree_histogram(gp))
        c1 = clustering_coefficients(g)
        c2 = clustering_coefficients(gp)
        assert np.array_equal(np.sort(c1), np.sort(c2))
        o1 = orbit_counts_4(g)
        o2 = orbit_counts_4(gp)
        assert np.array_equal(o1[np.lexsort(o1.T)], o2[np.lexsort(o2.T)])
