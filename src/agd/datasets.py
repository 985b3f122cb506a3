"""Synthetic corpora, the JSON-lines corpus format, splits, and DOT export.

The real benchmark suites this mirrors are replaced by generators with the
same size ranges and structure; externally supplied corpora in the same file
format load through the same path.

Corpus file format: one graph per line,
  {"nodes": [t0, t1, ...], "edges": [[i, j, type], ...], "meta": {...}}
with node/edge vocabulary sizes carried in each line's meta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .graphs import GraphError, LabeledGraph, components, new_graph


@dataclass
class Corpus:
    graphs: list[LabeledGraph]
    num_node_types: int
    num_edge_types: int
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.graphs)

    def sizes(self) -> list[int]:
        return [g.n for g in self.graphs]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gen_community_small(rng: np.random.Generator, count: int,
                        size_range=(12, 20)) -> Corpus:
    """Two equal dense blocks (intra p=0.7) with sparse inter-block edges at
    an expected rate of 0.05 n; resampled until connected."""
    lo, hi = size_range
    graphs = []
    for _ in range(count):
        while True:
            n = int(rng.choice([v for v in range(lo, hi + 1) if v % 2 == 0]))
            half = n // 2
            pairs = []
            for block in (range(half), range(half, n)):
                block = list(block)
                for a in range(len(block)):
                    for b in range(a + 1, len(block)):
                        if rng.random() < 0.7:
                            pairs.append((block[a], block[b]))
            p_inter = 0.05 * n / (half * half)
            for i in range(half):
                for j in range(half, n):
                    if rng.random() < p_inter:
                        pairs.append((i, j))
            g = new_graph([0] * n, [(i, j, 1) for i, j in pairs], 1, 2)
            if len(components(g)) == 1:
                break
        graphs.append(g)
    return Corpus(graphs, 1, 2, {"generator": "community-small",
                                 "size_range": list(size_range)})


def gen_caveman(rng: np.random.Generator, count: int,
                size_range=(5, 10)) -> Corpus:
    """Connected caveman graphs: l cliques of size k, one edge per clique
    rewired to the previous clique."""
    lo, hi = size_range
    shapes = [(l, k) for l in range(2, 4) for k in range(3, 6)
              if lo <= l * k <= hi]
    graphs = []
    for _ in range(count):
        l, k = shapes[int(rng.integers(0, len(shapes)))]
        n = l * k
        pairs = set()
        for c in range(l):
            members = range(c * k, (c + 1) * k)
            for a in members:
                for b in members:
                    if a < b:
                        pairs.add((a, b))
        for c in range(l):
            start = c * k
            pairs.discard((start, start + 1))
            partner = (start - 1) % n
            pairs.add((min(start, partner), max(start, partner)))
        graphs.append(new_graph([0] * n, [(i, j, 1) for i, j in sorted(pairs)], 1, 2))
    return Corpus(graphs, 1, 2, {"generator": "caveman",
                                 "size_range": list(size_range)})


def _preferential_attachment(rng: np.random.Generator, n: int, m: int = 2):
    """Scale-free base graph; each new node attaches to m earlier nodes with
    probability proportional to degree."""
    pairs = {(0, 1), (0, 2), (1, 2)}
    targets = [0, 1, 2, 0, 1, 2]
    for v in range(3, n):
        chosen = set()
        while len(chosen) < min(m, v):
            chosen.add(targets[int(rng.integers(0, len(targets)))])
        for u in chosen:
            pairs.add((min(u, v), max(u, v)))
            targets.extend([u, v])
    return pairs


def ego_graph(base: LabeledGraph, center: int, radius: int = 2):
    """Induced subgraph of everything within `radius` hops of `center`.
    Returns (graph, new index of the center)."""
    nodes = {center}
    frontier = [center]
    for _ in range(radius):
        frontier = [u for v in frontier for u in base.neighbors(v) if u not in nodes]
        nodes.update(frontier)
    return _induced(base, nodes), sorted(nodes).index(center)


def _induced(base: LabeledGraph, nodes) -> LabeledGraph:
    """The subgraph on `nodes`, relabeled in ascending order."""
    relabel = {v: i for i, v in enumerate(sorted(nodes))}
    edges = [(relabel[i], relabel[j], k) for (i, j), k in base.edges.items()
             if i in relabel and j in relabel]
    return new_graph([base.node_types[v] for v in sorted(nodes)], edges,
                     base.num_node_types, base.num_edge_types)


def gen_ego(rng: np.random.Generator, count: int, base_size: int = 120,
            size_range=(4, 18), base: LabeledGraph | None = None) -> Corpus:
    """Radius-2 (falling back to radius-1) ego subgraphs of a scale-free base
    (synthesized unless one is supplied), sizes clipped to the range."""
    lo, hi = size_range
    if base is None:
        base_pairs = _preferential_attachment(rng, base_size)
        base = new_graph([0] * base_size, [(i, j, 1) for i, j in base_pairs], 1, 2)
    if base.n == 0:
        raise ValueError("empty ego base graph")

    def clipped(center: int) -> LabeledGraph:
        g, _ = ego_graph(base, center, radius=2)
        if g.n > hi:
            g, _ = ego_graph(base, center, radius=1)
        if g.n > hi:
            # keep the center and its lowest-indexed neighbors
            g = _induced(base, {center, *base.neighbors(center)[:hi - 1]})
        return g

    # checked without the rng, so every corpus that generates is unchanged
    if count > 0 and not any(lo <= clipped(c).n for c in range(base.n)):
        raise ValueError(f"no ego graph of the base has a size in size_range "
                         f"{tuple(size_range)}")
    graphs = []
    while len(graphs) < count:
        g = clipped(int(rng.integers(0, base.n)))
        if g.n >= lo:
            graphs.append(g)
    return Corpus(graphs, base.num_node_types, base.num_edge_types,
                  {"generator": "ego", "size_range": list(size_range)})


TYPED_TOY_NODE_TYPE_PROBS = (0.1, 0.4, 0.3, 0.2)
TYPED_TOY_EDGE_TYPE_PROBS = (0.5, 0.3, 0.2)


def gen_typed_toy(rng: np.random.Generator, count: int) -> Corpus:
    """Small typed graphs from a fixed stochastic grammar: a type-0 root, a
    random attachment tree with node types drawn from (0.1, 0.4, 0.3, 0.2)
    and edge types from (0.5, 0.3, 0.2), plus one optional extra edge."""
    graphs = []
    for _ in range(count):
        n = int(rng.integers(3, 10))
        types = [0] + [int(rng.choice(4, p=TYPED_TOY_NODE_TYPE_PROBS))
                       for _ in range(n - 1)]
        edges = []
        present = set()
        for v in range(1, n):
            parent = int(rng.integers(0, v))
            etype = 1 + int(rng.choice(3, p=TYPED_TOY_EDGE_TYPE_PROBS))
            edges.append((parent, v, etype))
            present.add((parent, v))
        if rng.random() < 0.5:
            free = [(a, b) for a in range(n) for b in range(a + 1, n)
                    if (a, b) not in present]
            if free:
                a, b = free[int(rng.integers(0, len(free)))]
                etype = 1 + int(rng.choice(3, p=TYPED_TOY_EDGE_TYPE_PROBS))
                edges.append((a, b, etype))
        graphs.append(new_graph(types, edges, 4, 4))
    return Corpus(graphs, 4, 4, {"generator": "typed-toy"})


def gen_er(rng: np.random.Generator, count: int, sizes, p: float) -> Corpus:
    """Plain Erdos-Renyi graphs; the density-matched baseline for evaluation."""
    sizes = list(sizes)
    graphs = []
    for _ in range(count):
        n = int(sizes[rng.integers(0, len(sizes))])
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        graphs.append(new_graph([0] * n, [(i, j, 1) for i, j in pairs], 1, 2))
    return Corpus(graphs, 1, 2, {"generator": "er", "p": p})


GENERATORS = {
    "community-small": gen_community_small,
    "caveman": gen_caveman,
    "ego": gen_ego,
    "typed-toy": gen_typed_toy,
}


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def split(corpus: Corpus, seed: int, val_fraction: float = 0.2):
    """(train, val, test): 80/20 train-side vs test, validation carved out of
    the training side (`val_fraction` of it, default 20%)."""
    n = len(corpus)
    if n < 5:
        raise ValueError("corpus too small to split (need >= 5 graphs)")
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(n))
    n_test = max(1, round(0.2 * n))
    test_ids = order[:n_test]
    rest = order[n_test:]
    n_val = max(1, round(val_fraction * len(rest)))
    val_ids = rest[:n_val]
    train_ids = rest[n_val:]

    def sub(ids, role):
        return Corpus([corpus.graphs[i] for i in sorted(ids)],
                      corpus.num_node_types, corpus.num_edge_types,
                      {**corpus.meta, "split": role, "split_seed": seed})

    return sub(train_ids, "train"), sub(val_ids, "val"), sub(test_ids, "test")


# ---------------------------------------------------------------------------
# corpus IO
# ---------------------------------------------------------------------------

def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w") as fh:
        for g in corpus.graphs:
            meta = {**corpus.meta,
                    "num_node_types": corpus.num_node_types,
                    "num_edge_types": corpus.num_edge_types}
            fh.write(json.dumps({"nodes": list(g.node_types),
                                 "edges": [[i, j, k] for (i, j, k) in g.edge_list()],
                                 "meta": meta}, sort_keys=True) + "\n")


def load_corpus(path) -> Corpus:
    graphs = []
    num_node_types = 1
    num_edge_types = 1
    meta: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    raise GraphError(f"expected a JSON object, got {type(doc).__name__}")
                if not isinstance(doc.get("nodes"), list):
                    raise GraphError("'nodes' must be a list of node types")
                edges = doc.get("edges", [])
                if not (isinstance(edges, list) and all(isinstance(e, list) for e in edges)):
                    raise GraphError("'edges' must be a list of [i, j, type] triples")
                line_meta = doc.get("meta", {})
                if not isinstance(line_meta, dict):
                    raise GraphError("'meta' must be an object")
                g = new_graph(doc["nodes"], edges, line_meta.get("num_node_types"),
                              line_meta.get("num_edge_types"))
            except (GraphError, ValueError, RecursionError) as exc:
                raise GraphError(f"{path}:{lineno}: {exc}") from None
            graphs.append(g)
            num_node_types = max(num_node_types, g.num_node_types)
            num_edge_types = max(num_edge_types, g.num_edge_types)
            if not meta:
                meta = {k: v for k, v in line_meta.items()
                        if k not in ("num_node_types", "num_edge_types")}
    return Corpus(graphs, num_node_types, num_edge_types, meta)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def export_dot(graph: LabeledGraph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for v, t in enumerate(graph.node_types):
        lines.append(f'  {v} [label="n{t}"];')
    for (i, j, k) in graph.edge_list():
        lines.append(f'  {i} -- {j} [label="{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_trace_dot(trace, name: str = "G") -> str:
    """Like export_dot, with nodes shaded darker the later they were
    generated (fill value is monotone in the step index)."""
    graph = trace.graph
    order = trace.order()
    rank = {v: i for i, v in enumerate(order)}
    n = max(len(order) - 1, 1)
    lines = [f"graph {name} {{", "  node [style=filled];"]
    for v, t in enumerate(graph.node_types):
        value = 0.95 - 0.55 * rank[v] / n
        lines.append(f'  {v} [label="n{t} s{rank[v]}" fillcolor="0.58 0.25 {value:.4f}"];')
    for (i, j, k) in graph.edge_list():
        lines.append(f'  {i} -- {j} [label="{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
