"""Distribution statistics between graph sets: degree / clustering / 4-node
orbit descriptors under a Gaussian-EMD MMD, spectral bipartitions and
cross-cluster generation counts, and WL-hash-based uniqueness/novelty.

Orbit vector layout (the 11 node orbits of the 6 connected 4-node graphlets):
  0 path end        1 path middle
  2 star leaf       3 star center
  4 cycle node
  5 paw pendant     6 paw triangle (far)   7 paw attachment
  8 diamond deg-2   9 diamond deg-3
 10 clique node
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

from .graphs import ABSENT, LabeledGraph, components

DESCRIPTOR_KINDS = ("degree", "clustering", "orbit")
CLUSTERING_BINS = 100


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def degree_histogram(graph: LabeledGraph) -> np.ndarray:
    """Fraction of nodes at each degree, bins 0..max_degree."""
    degrees = np.count_nonzero(graph.adjacency != ABSENT, axis=1)
    hist = np.bincount(degrees, minlength=degrees.max() + 1).astype(float)
    return hist / graph.n


def clustering_coefficients(graph: LabeledGraph) -> np.ndarray:
    """Local clustering coefficient per node (0 below degree 2)."""
    a = (graph.adjacency != ABSENT).astype(int)
    deg = a.sum(axis=1)
    links = (a @ a * a).sum(axis=1) // 2       # edges among each node's neighbours
    return np.where(deg >= 2, 2.0 * links / np.maximum(deg * (deg - 1), 1), 0.0)


def clustering_histogram(graph: LabeledGraph, bins: int = CLUSTERING_BINS) -> np.ndarray:
    coeffs = clustering_coefficients(graph)
    hist, _ = np.histogram(coeffs, bins=bins, range=(0.0, 1.0))
    return hist.astype(float) / graph.n


# graphlet classification: a 4-subset is connected iff it has >= 3 induced
# edges and no isolated node; the sorted degree sequence then pins the type.
_GRAPHLET_BY_DEGSEQ = {
    (1, 1, 2, 2): "path",
    (1, 1, 1, 3): "star",
    (2, 2, 2, 2): "cycle",
    (1, 2, 2, 3): "paw",
    (2, 2, 3, 3): "diamond",
    (3, 3, 3, 3): "clique",
}

_ORBIT_BY_GRAPHLET_DEGREE = {
    ("path", 1): 0, ("path", 2): 1,
    ("star", 1): 2, ("star", 3): 3,
    ("cycle", 2): 4,
    ("paw", 1): 5, ("paw", 2): 6, ("paw", 3): 7,
    ("diamond", 2): 8, ("diamond", 3): 9,
    ("clique", 3): 10,
}

GRAPHLET_NAMES = ("path", "star", "cycle", "paw", "diamond", "clique")


def orbit_counts_4(graph: LabeledGraph) -> np.ndarray:
    """Per-node participation counts in the 11 orbits, by enumerating all
    4-subsets (the O(n^4) form that doubles as the oracle)."""
    counts, _ = _orbits_and_graphlets(graph)
    return counts


def graphlet_counts_4(graph: LabeledGraph) -> dict[str, int]:
    """Occurrences of each connected 4-node graphlet."""
    _, occ = _orbits_and_graphlets(graph)
    return occ


def _orbits_and_graphlets(graph: LabeledGraph):
    adj = (graph.adjacency != ABSENT).tolist()
    counts = [[0] * 11 for _ in range(graph.n)]
    occ = {name: 0 for name in GRAPHLET_NAMES}
    for quad in itertools.combinations(range(graph.n), 4):
        a, b, c, d = quad
        ab, ac, ad, bc, bd, cd = (adj[a][b], adj[a][c], adj[a][d],
                                  adj[b][c], adj[b][d], adj[c][d])
        degs = (ab + ac + ad, ab + bc + bd, ac + bc + cd, ad + bd + cd)
        if min(degs) == 0 or sum(degs) < 6:      # disconnected
            continue
        name = _GRAPHLET_BY_DEGSEQ[tuple(sorted(degs))]
        occ[name] += 1
        for v, deg in zip(quad, degs):
            counts[v][_ORBIT_BY_GRAPHLET_DEGREE[(name, deg)]] += 1
    return np.array(counts, dtype=int), occ


def descriptor(graph: LabeledGraph, kind: str) -> np.ndarray:
    if kind == "degree":
        return degree_histogram(graph)
    if kind == "clustering":
        return clustering_histogram(graph)
    if kind == "orbit":
        return orbit_counts_4(graph).mean(axis=0)
    raise ValueError(f"unknown descriptor kind: {kind!r}")


# ---------------------------------------------------------------------------
# MMD
# ---------------------------------------------------------------------------

def emd_1d(x: np.ndarray, y: np.ndarray) -> float:
    """L1 distance of the CDFs over a zero-padded common support."""
    size = max(len(x), len(y))
    xp = np.zeros(size)
    yp = np.zeros(size)
    xp[:len(x)] = x
    yp[:len(y)] = y
    return float(np.abs(np.cumsum(xp - yp)).sum())


def _ground_distance(a: np.ndarray, b: np.ndarray, kind: str) -> float:
    if kind in ("degree", "clustering"):
        return emd_1d(a, b)
    return float(np.linalg.norm(a - b))


def mmd(set_a, set_b, kind: str, sigma: float = 1.0) -> float:
    """sqrt of the diagonal-inclusive squared MMD with kernel
    exp(-d(x, y)^2 / (2 sigma^2)); identical sets give exactly zero."""
    if not set_a or not set_b:
        raise ValueError("mmd needs two non-empty graph sets")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    da = [descriptor(g, kind) for g in set_a]
    db = [descriptor(g, kind) for g in set_b]

    def kernel_mean(xs, ys):
        total = 0.0
        for x in xs:
            for y in ys:
                d = _ground_distance(x, y, kind)
                total += np.exp(-(d * d) / (2.0 * sigma * sigma))
        return total / (len(xs) * len(ys))

    sq = kernel_mean(da, da) + kernel_mean(db, db) - 2.0 * kernel_mean(da, db)
    return float(np.sqrt(max(sq, 0.0)))


@dataclass
class MmdReport:
    degree: float
    clustering: float
    orbit: float
    sigma: float
    generated_count: int
    reference_count: int

    @property
    def average(self) -> float:
        return (self.degree + self.clustering + self.orbit) / 3.0

    def to_dict(self) -> dict:
        return {"degree": self.degree, "clustering": self.clustering,
                "orbit": self.orbit, "average": self.average,
                "kernel_sigma": self.sigma,
                "generated_count": self.generated_count,
                "reference_count": self.reference_count}


def mmd_report(generated, reference, sigma: float = 1.0) -> MmdReport:
    return MmdReport(
        degree=mmd(generated, reference, "degree", sigma),
        clustering=mmd(generated, reference, "clustering", sigma),
        orbit=mmd(generated, reference, "orbit", sigma),
        sigma=sigma,
        generated_count=len(generated),
        reference_count=len(reference),
    )


def average_mmd(generated, reference, sigma: float = 1.0) -> float:
    return mmd_report(generated, reference, sigma).average


def descriptors_csv(graphs, kind: str) -> str:
    """One row per graph of the chosen descriptor, zero-padded to a common
    width; for plotting outside the package."""
    rows = [descriptor(g, kind) for g in graphs]
    width = max((len(r) for r in rows), default=0)
    lines = [",".join(["graph"] + [f"{kind}_{i}" for i in range(width)])]
    for idx, row in enumerate(rows):
        padded = list(row) + [0.0] * (width - len(row))
        lines.append(",".join([str(idx)] + [repr(float(v)) for v in padded]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# spectral bipartition and generation-order analysis
# ---------------------------------------------------------------------------

def spectral_bipartition(graph: LabeledGraph):
    """Two-cluster labels from the sign of the normalized-Laplacian Fiedler
    vector (zero entries join the positive side). Disconnected graphs are
    split by grouping whole components onto balanced sides; the returned
    flag reports whether the graph was connected."""
    n = graph.n
    comps = components(graph)
    if len(comps) > 1:
        labels = np.zeros(n, dtype=int)
        totals = [0, 0]
        for comp in sorted(comps, key=lambda c: (-len(c), c[0])):
            side = 0 if totals[0] <= totals[1] else 1
            for v in comp:
                labels[v] = side
            totals[side] += len(comp)
        return labels, False
    if n == 1:
        return np.zeros(1, dtype=int), True
    a = (graph.adjacency != ABSENT).astype(float)
    deg = a.sum(axis=1)
    dinv = 1.0 / np.sqrt(deg)
    lap = np.eye(n) - dinv[:, None] * a * dinv[None, :]
    _, vecs = np.linalg.eigh(lap)
    fiedler = vecs[:, 1]
    nonzero = np.nonzero(np.abs(fiedler) > 1e-12)[0]
    if len(nonzero) and fiedler[nonzero[0]] < 0:
        fiedler = -fiedler
    return (fiedler < 0).astype(int), True


def cross_cluster_count(order_or_trace, labels) -> int:
    """Consecutive generation steps landing in different clusters."""
    order = order_or_trace.order() if hasattr(order_or_trace, "order") \
        else list(order_or_trace)
    labels = np.asarray(labels)
    if any(not 0 <= v < len(labels) for v in order):
        raise ValueError("labeling does not cover all generated nodes")
    return sum(1 for a, b in zip(order, order[1:]) if labels[a] != labels[b])


# ---------------------------------------------------------------------------
# uniqueness / novelty
# ---------------------------------------------------------------------------

def wl_hash(graph: LabeledGraph, rounds: int = 3) -> str:
    """Weisfeiler-Lehman graph hash over node and edge types."""
    adj = graph.adjacency.tolist()
    labels = [str(t) for t in graph.node_types]

    def digest(text: str) -> str:
        return blake2b(text.encode(), digest_size=16).hexdigest()

    for _ in range(rounds):
        labels = [digest(labels[v] + "|" + ";".join(
            sorted(f"{k}:{labels[u]}" for u, k in enumerate(adj[v]) if k != ABSENT)))
            for v in range(graph.n)]
    return digest(",".join(sorted(labels)) + f"#{graph.n}")


def isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Exact type-aware isomorphism by backtracking (small graphs)."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.node_types) != sorted(g2.node_types):
        return False
    adj1 = g1.adjacency.tolist()
    adj2 = g2.adjacency.tolist()
    deg1 = [len(row) - row.count(ABSENT) for row in adj1]
    deg2 = [len(row) - row.count(ABSENT) for row in adj2]
    if sorted(deg1) != sorted(deg2):
        return False
    n = g1.n
    # most-constrained-first: map high-degree nodes early
    order = sorted(range(n), key=lambda v: -deg1[v])
    mapping = [-1] * n
    used = [False] * n

    def compatible(v, w):
        if g1.node_types[v] != g2.node_types[w] or deg1[v] != deg2[w]:
            return False
        # edge states (including absence) must agree with every mapped node
        for u in range(n):
            if u != v and mapping[u] != -1:
                if adj1[v][u] != adj2[w][mapping[u]]:
                    return False
        return True

    def backtrack(idx):
        if idx == n:
            return True
        v = order[idx]
        for w in range(n):
            if used[w] or not compatible(v, w):
                continue
            mapping[v] = w
            used[w] = True
            if backtrack(idx + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    return backtrack(0)


def uniqueness_novelty(generated, training, exact_limit: int = 16):
    """(unique fraction, novel fraction) over a generated set.

    Graphs are keyed by WL hash; hash-equal pairs at or below `exact_limit`
    nodes are confirmed by backtracking, so hash collisions cannot merge
    non-isomorphic graphs there."""
    if not generated:
        raise ValueError("empty generated set")

    def classes(graphs):
        buckets: dict[str, list[LabeledGraph]] = {}
        for g in graphs:
            reps = buckets.setdefault(wl_hash(g), [])
            for rep in reps:
                if g.n > exact_limit or isomorphic(g, rep):
                    break
            else:
                reps.append(g)
        return buckets

    gen_classes = classes(generated)
    train_classes = classes(training) if training else {}

    distinct = sum(len(reps) for reps in gen_classes.values())
    novel = 0
    for h, reps in gen_classes.items():
        known = train_classes.get(h, [])
        for rep in reps:
            if not known:
                novel += 1
            elif rep.n <= exact_limit:
                if not any(isomorphic(rep, other) for other in known):
                    novel += 1
            # beyond the exact limit a hash match counts as known
    return distinct / len(generated), novel / distinct
