"""Discrete graph data model and the node-absorbing forward process.

Edge-type id 0 is reserved for "no edge" (ABSENT). MASK is a sentinel state
outside the type vocabulary: it can be observed through `edge_state` or in a
denoising view, but is never stored in a base graph.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

ABSENT = 0
MASK = -1


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable undirected graph with categorical node and edge types."""

    node_types: tuple[int, ...]
    edges: dict[tuple[int, int], int]          # keys (i, j) with i < j, values >= 1
    num_node_types: int
    num_edge_types: int                        # includes ABSENT

    @property
    def n(self) -> int:
        return len(self.node_types)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_type(self, i: int, j: int) -> int:
        if i == j:
            raise GraphError("no self-loops: i == j")
        key = (i, j) if i < j else (j, i)
        return self.edges.get(key, ABSENT)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only (n, n) matrix of edge types, ABSENT off the edges and on
        the diagonal; built from `edges` on first use."""
        out = np.full((self.n, self.n), ABSENT, dtype=int)
        pairs = np.array(list(self.edges), dtype=int).reshape(-1, 2)
        types = list(self.edges.values())
        out[pairs[:, 0], pairs[:, 1]] = types
        out[pairs[:, 1], pairs[:, 0]] = types
        out.flags.writeable = False
        return out

    def neighbors(self, i: int) -> list[int]:
        return np.flatnonzero(self.adjacency[i] != ABSENT).tolist()

    def degree(self, i: int) -> int:
        return int(np.count_nonzero(self.adjacency[i] != ABSENT))

    def edge_list(self) -> list[tuple[int, int, int]]:
        return [(i, j, k) for (i, j), k in sorted(self.edges.items())]

    def __hash__(self):
        return hash((self.node_types, tuple(sorted(self.edges.items()))))

    def __eq__(self, other):
        return (isinstance(other, LabeledGraph)
                and self.node_types == other.node_types
                and self.edges == other.edges)


def is_integer(value) -> bool:
    # int() would truncate 1.5 and parse "1"; bool is an int subclass.
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A real number, not a bool, that is finite as a float64."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:    # an int too large for a float64
        return False


def _integer(value, what: str) -> int:
    if not is_integer(value):
        raise GraphError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_config_numbers(config, integer_fields) -> None:
    """Reject a network config whose `integer_fields` hold a bool or a
    non-integer, or whose `leaky_slope` is not a finite real number, as a
    checkpoint header can give; each ValueError starts with the field name.
    Integer fields are stored as python ints."""
    for name in integer_fields:
        value = getattr(config, name)
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        setattr(config, name, int(value))
    slope = config.leaky_slope
    if not is_finite_real(slope):
        raise ValueError(f"leaky_slope must be a finite real number, got {slope!r}")


def new_graph(node_types, edge_list, num_node_types: int | None = None,
              num_edge_types: int | None = None) -> LabeledGraph:
    """Validated construction from a type list and (i, j, type) triples of
    integers (python or numpy)."""
    node_types = tuple(_integer(t, "node type") for t in node_types)
    n = len(node_types)
    if n == 0:
        raise GraphError("graph needs at least one node")
    edges: dict[tuple[int, int], int] = {}
    max_edge_type = 0
    for edge in edge_list:
        if len(edge) != 3:
            raise GraphError(f"edge {edge!r} is not an (i, j, type) triple")
        i, j = _integer(edge[0], "edge endpoint"), _integer(edge[1], "edge endpoint")
        k = _integer(edge[2], "edge type")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise GraphError(f"self-loop at node {i}")
        if k < 1:
            raise GraphError(f"edge type must be >= 1, got {k} (0 means absent)")
        key = (i, j) if i < j else (j, i)
        if key in edges and edges[key] != k:
            raise GraphError(f"conflicting types for edge {key}: {edges[key]} vs {k}")
        edges[key] = k
        max_edge_type = max(max_edge_type, k)
    if num_node_types is None:
        num_node_types = max(node_types) + 1
    num_node_types = _integer(num_node_types, "num_node_types")
    if num_edge_types is None:
        num_edge_types = max_edge_type + 1
    num_edge_types = _integer(num_edge_types, "num_edge_types")
    for t in node_types:
        if not (0 <= t < num_node_types):
            raise GraphError(f"node type {t} outside vocabulary of size {num_node_types}")
    for k in edges.values():
        if k >= num_edge_types:
            raise GraphError(f"edge type {k} outside vocabulary of size {num_edge_types}")
    return LabeledGraph(node_types, edges, num_node_types, max(num_edge_types, 1))


def components(graph: LabeledGraph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest node."""
    linked = graph.adjacency != ABSENT
    seen = np.zeros(graph.n, dtype=bool)
    comps = []
    for start in range(graph.n):
        if seen[start]:
            continue
        reach = np.zeros(graph.n, dtype=bool)
        reach[start] = True
        frontier = reach
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~reach
            reach |= frontier
        seen |= reach
        comps.append(np.flatnonzero(reach).tolist())
    return comps


def empty_graph(n: int, num_node_types: int, num_edge_types: int) -> LabeledGraph:
    """All-placeholder graph used as the base of a generation run."""
    return LabeledGraph(tuple([0] * n), {}, num_node_types, num_edge_types)


@dataclass(frozen=True)
class MaskedGraph:
    """A diffusion state: mask flags and absorption positions over a base graph.

    Positions of the masked nodes are exactly 1..t (absorption step index);
    unabsorbed nodes carry None. The dense masked adjacency is never stored;
    `edge_state` derives it.
    """

    base: LabeledGraph
    masked: tuple[bool, ...]
    absorb_position: tuple[int | None, ...]

    @property
    def t(self) -> int:
        return sum(self.masked)

    @property
    def n(self) -> int:
        return self.base.n

    def masked_nodes(self) -> list[int]:
        return [i for i, m in enumerate(self.masked) if m]

    def unmasked_nodes(self) -> list[int]:
        return [i for i, m in enumerate(self.masked) if not m]

    def last_absorbed(self) -> int:
        """The masked node with the highest absorption position."""
        if self.t == 0:
            raise GraphError("no node is masked")
        return max(self.masked_nodes(), key=lambda i: self.absorb_position[i])


def initial_state(graph: LabeledGraph) -> MaskedGraph:
    return MaskedGraph(graph, tuple([False] * graph.n), tuple([None] * graph.n))


def fully_masked_state(graph: LabeledGraph) -> MaskedGraph:
    """All nodes masked, slot i at position n - i (slot 0 is denoised first)."""
    n = graph.n
    return MaskedGraph(graph, tuple([True] * n), tuple(n - i for i in range(n)))


def absorb_node(state: MaskedGraph, node: int) -> MaskedGraph:
    if state.masked[node]:
        raise GraphError(f"node {node} is already masked")
    masked = list(state.masked)
    pos = list(state.absorb_position)
    masked[node] = True
    pos[node] = state.t + 1
    return MaskedGraph(state.base, tuple(masked), tuple(pos))


def edge_state(state: MaskedGraph, i: int, j: int) -> int:
    """MASK if either endpoint is masked, else the base edge type (0 = absent)."""
    if i == j:
        raise GraphError("edge_state of a node with itself")
    if state.masked[i] or state.masked[j]:
        return MASK
    return state.base.edge_type(i, j)


@dataclass(frozen=True)
class DenoisingView:
    """The pruned input to the denoiser: unmasked nodes plus one masked target.

    `nodes` are original node ids in ascending order; `node_tokens` carries
    real types with MASK at the target; `edge_states[a][b]` covers kept-node
    pairs (MASK for any pair touching the target, base state otherwise).
    """

    nodes: tuple[int, ...]
    node_tokens: tuple[int, ...]
    target: int                                 # original node id
    edge_states: tuple[tuple[int, ...], ...]    # local indexing, ABSENT on diagonal

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def target_index(self) -> int:
        return self.nodes.index(self.target)

    def prev_nodes(self) -> list[int]:
        """Previously denoised nodes (original ids, ascending)."""
        return [v for v in self.nodes if v != self.target]


def denoising_view(state: MaskedGraph, target: int) -> DenoisingView:
    """Keep the unmasked nodes plus `target`; drop every other masked node."""
    if not state.masked[target]:
        raise GraphError(f"target {target} is not masked")
    kept = sorted(state.unmasked_nodes() + [target])
    tokens = tuple(MASK if v == target else state.base.node_types[v] for v in kept)
    states = state.base.adjacency[np.ix_(kept, kept)]
    t = kept.index(target)
    states[t, :] = states[:, t] = MASK
    states[t, t] = ABSENT
    return DenoisingView(tuple(kept), tokens, target, tuple(map(tuple, states.tolist())))


def apply_prediction(state: MaskedGraph, target: int, node_type: int,
                     edge_assignment: dict[int, int]) -> MaskedGraph:
    """Unmask `target`, writing its predicted type and edges into the base.

    `edge_assignment` must give one non-MASK state (type id or ABSENT) per
    currently-unmasked node. The target must be the most recently absorbed
    masked node, so positions stay contiguous.
    """
    if not state.masked[target]:
        raise GraphError(f"target {target} is not masked")
    if state.absorb_position[target] != state.t:
        raise GraphError("target is not the most recently absorbed node")
    unmasked = state.unmasked_nodes()
    if set(edge_assignment) != set(unmasked):
        raise GraphError("edge assignment must cover exactly the unmasked nodes")
    base = state.base
    if not (0 <= node_type < base.num_node_types):
        raise GraphError(f"node type {node_type} outside vocabulary")
    for j, k in edge_assignment.items():
        if k == MASK:
            raise GraphError("MASK is not an assignable edge state")
        if not (0 <= k < base.num_edge_types):
            raise GraphError(f"edge state {k} outside vocabulary")
    types = list(base.node_types)
    types[target] = int(node_type)
    edges = dict(base.edges)
    for j, k in edge_assignment.items():
        key = (target, j) if target < j else (j, target)
        if k == ABSENT:
            edges.pop(key, None)
        else:
            edges[key] = int(k)
    new_base = LabeledGraph(tuple(types), edges, base.num_node_types, base.num_edge_types)
    masked = list(state.masked)
    pos = list(state.absorb_position)
    masked[target] = False
    pos[target] = None
    return MaskedGraph(new_base, tuple(masked), tuple(pos))


def permute(graph: LabeledGraph, perm) -> LabeledGraph:
    """Relabel nodes: old index i becomes perm[i]."""
    perm = list(int(p) for p in perm)
    n = graph.n
    if sorted(perm) != list(range(n)):
        raise GraphError("perm is not a bijection on node ids")
    types = [0] * n
    for i, t in enumerate(graph.node_types):
        types[perm[i]] = t
    edges = {}
    for (i, j), k in graph.edges.items():
        a, b = perm[i], perm[j]
        edges[(a, b) if a < b else (b, a)] = k
    return LabeledGraph(tuple(types), edges, graph.num_node_types, graph.num_edge_types)


@dataclass(frozen=True)
class DiffusionTrajectory:
    """A full forward pass: ordering, the state sequence G_0..G_n, and the
    per-step log-probabilities / candidate weights recorded at sampling time."""

    ordering: tuple[int, ...]
    states: tuple[MaskedGraph, ...]
    step_log_probs: tuple[float, ...]
    step_weights: tuple[dict[int, float], ...]   # step t: candidate -> probability

    @property
    def n(self) -> int:
        return len(self.ordering)

    @property
    def graph(self) -> LabeledGraph:
        return self.states[0].base


def forward_trajectory(graph: LabeledGraph, ordering,
                       step_log_probs=None, step_weights=None) -> DiffusionTrajectory:
    """Materialize the state sequence for a given absorption ordering."""
    ordering = tuple(int(v) for v in ordering)
    if sorted(ordering) != list(range(graph.n)):
        raise GraphError("ordering is not a permutation of the node ids")
    states = [initial_state(graph)]
    for v in ordering:
        states.append(absorb_node(states[-1], v))
    if step_log_probs is None:
        step_log_probs = tuple([0.0] * graph.n)
    if step_weights is None:
        step_weights = tuple({v: 1.0} for v in ordering)
    return DiffusionTrajectory(ordering, tuple(states), tuple(step_log_probs),
                               tuple(step_weights))


def observed_step(graph: LabeledGraph, state: MaskedGraph, target: int):
    """Ground-truth labels for denoising `target` out of `state`:
    (node type, {unmasked node -> edge state in the original graph})."""
    assignment = {j: graph.edge_type(target, j) for j in state.unmasked_nodes()}
    return graph.node_types[target], assignment
