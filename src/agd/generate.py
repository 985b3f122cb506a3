"""Reverse autoregressive sampling: instantiate masked slots one at a time,
optionally under a hard maximum-degree constraint."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import DenoiserNet
from .graphs import (ABSENT, GraphError, LabeledGraph, apply_prediction,
                     denoising_view, empty_graph, fully_masked_state)


@dataclass
class GenerationConfig:
    count: int
    n: int | None = None                  # fixed size ...
    sizes: tuple[int, ...] | None = None  # ... or an empirical size pool
    max_degree: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.n is None and not self.sizes:
            raise ValueError("need a fixed n or a size pool")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be >= 1")
        if self.max_degree is not None and self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    slot: int
    node_type: int
    edges: tuple[tuple[int, int], ...]     # (partner, state) pairs, committed
    dropped: tuple[int, ...]               # partners removed by the degree cap


@dataclass(frozen=True)
class GenerationTrace:
    graph: LabeledGraph
    steps: tuple[StepRecord, ...]

    def order(self) -> list[int]:
        return [s.slot for s in self.steps]


def sample_size(reference, rng: np.random.Generator) -> int:
    """Draw a node count from the empirical size distribution of a corpus."""
    sizes = [g.n for g in reference.graphs] if hasattr(reference, "graphs") \
        else [int(s) for s in reference]
    if not sizes:
        raise ValueError("empty reference corpus")
    return int(sizes[rng.integers(0, len(sizes))])


def enforce_degree_cap(partial: LabeledGraph, proposed: dict[int, int],
                       d_max: int, rng: np.random.Generator):
    """Two-phase degree check for one step's proposed edges.

    First drop proposals onto nodes already at the cap; then, if the new node
    itself still exceeds the cap, remove a uniform random subset of its
    surviving edges. Returns (adjusted assignment, dropped partners).
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    adjusted = dict(proposed)
    dropped = []
    for j in sorted(adjusted):
        if adjusted[j] != ABSENT and partial.degree(j) >= d_max:
            adjusted[j] = ABSENT
            dropped.append(j)
    kept = [j for j in sorted(adjusted) if adjusted[j] != ABSENT]
    excess = len(kept) - d_max
    if excess > 0:
        victims = rng.choice(len(kept), size=excess, replace=False)
        for idx in sorted(int(v) for v in victims):
            adjusted[kept[idx]] = ABSENT
            dropped.append(kept[idx])
    return adjusted, tuple(sorted(dropped))


def generate(denoiser: DenoiserNet, n: int, rng: np.random.Generator,
             max_degree: int | None = None) -> GenerationTrace:
    """Sample one graph of n nodes by denoising n masked slots in order."""
    return _generate_lockstep(denoiser, [n], [rng], max_degree)[0]


def _generate_lockstep(denoiser: DenoiserNet, sizes, rngs,
                       max_degree: int | None) -> list[GenerationTrace]:
    """Generate graph i of sizes[i] from rngs[i], all graphs step by step
    together. At step s every unfinished graph's view has s + 1 nodes, so
    the views of a step are drawn as one stack, and then each graph's
    degree cap runs. Each graph draws from its own rng in the order of
    generating it alone, and the stacked slices carry the bits of single
    views, so every graph equals its own `generate`."""
    if any(n < 1 for n in sizes):
        raise GraphError("n must be >= 1")
    c = denoiser.config
    states = [fully_masked_state(empty_graph(n, c.num_node_types, c.num_edge_types))
              for n in sizes]
    steps: list[list[StepRecord]] = [[] for _ in sizes]
    for s in range(max(sizes, default=0)):
        live = [i for i, n in enumerate(sizes) if n > s]
        targets = [states[i].last_absorbed() for i in live]
        views = [denoising_view(states[i], t) for i, t in zip(live, targets)]
        draws = denoiser.sample_step(views, [rngs[i] for i in live])
        for i, target, (node_type, assignment) in zip(live, targets, draws):
            dropped: tuple[int, ...] = ()
            if max_degree is not None:
                assignment, dropped = enforce_degree_cap(states[i].base, assignment,
                                                         max_degree, rngs[i])
            states[i] = apply_prediction(states[i], target, node_type, assignment)
            steps[i].append(StepRecord(target, node_type,
                                       tuple(sorted(assignment.items())), dropped))
    return [GenerationTrace(state.base, tuple(records))
            for state, records in zip(states, steps)]


def replay(trace: GenerationTrace, num_node_types: int,
           num_edge_types: int) -> LabeledGraph:
    """Rebuild the graph by re-applying the recorded steps."""
    n = trace.graph.n
    state = fully_masked_state(empty_graph(n, num_node_types, num_edge_types))
    for rec in trace.steps:
        state = apply_prediction(state, rec.slot, rec.node_type, dict(rec.edges))
    return state.base


def generate_batch(denoiser: DenoiserNet, config: GenerationConfig) -> list[GenerationTrace]:
    """Independent generations, run in lockstep; sample i uses the rng
    stream (seed, i) and equals its own `generate` call."""
    rngs = [np.random.default_rng([config.seed, i]) for i in range(config.count)]
    sizes = [config.n if config.n is not None else sample_size(config.sizes, rng)
             for rng in rngs]
    return _generate_lockstep(denoiser, sizes, rngs, config.max_degree)
