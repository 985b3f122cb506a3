"""The diffusion ordering network: scores which unabsorbed node decays next.

A small multi-head attention GNN over the original graph topology. Node
features are a type embedding concatenated with a positional encoding of the
node's own absorption step (a learned sentinel vector while unabsorbed), so
the distribution is conditioned on the absorption prefix.

Like the denoiser, the network runs one forward over a stack of B prefixes of
one graph, laid out (B, n, ...); one prefix is a stack of one. Products run
slice by slice and every sort, sum and softmax stays within a slice, so each
slice has the bits of its prefix scored alone. `ordering_log_prob` scores
its n prefixes in one forward, and `sample_orderings`, given one generator
per ordering, moves the orderings forward together and scores each step's
new prefixes in one forward.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .graphs import (ABSENT, DiffusionTrajectory, GraphError, LabeledGraph,
                     categorical_cdf, check_at_least, check_config_numbers,
                     forward_trajectory)


def positional_encoding(position: int, dim: int) -> np.ndarray:
    """Sinusoidal encoding of an absorption step index (1-based)."""
    if dim % 2 != 0:
        raise ValueError("positional encoding dimension must be even")
    if position < 1:
        raise ValueError("absorption positions are 1-based")
    out = np.empty(dim)
    for i in range(dim // 2):
        freq = position / (10000.0 ** (2.0 * i / dim))
        out[2 * i] = math.sin(freq)
        out[2 * i + 1] = math.cos(freq)
    return out


@functools.cache
def _pe_row(position: int, dim: int) -> np.ndarray:
    """`positional_encoding(position, dim)`, built once and kept read-only:
    every ordering forward reads it."""
    row = positional_encoding(position, dim)
    row.flags.writeable = False
    return row


@dataclass
class OrderingConfig:
    num_node_types: int
    layers: int = 3
    heads: int = 6
    hidden: int = 32          # per-head width; model width is heads * hidden
    embed_dim: int = 16
    pe_dim: int = 16
    leaky_slope: float = 0.2

    def __post_init__(self):
        # Each message starts with the field name; RunConfig maps it to its key.
        check_config_numbers(self, ("num_node_types", "layers", "heads", "hidden",
                                    "embed_dim", "pe_dim"))
        check_at_least(self, 1, ("num_node_types", "heads", "hidden", "embed_dim"))
        check_at_least(self, 0, ("layers",))
        if self.pe_dim < 2 or self.pe_dim % 2:
            raise ValueError(f"pe_dim must be even and >= 2, got {self.pe_dim}")

    @property
    def model_dim(self) -> int:
        return self.heads * self.hidden

    def to_dict(self) -> dict:
        return asdict(self)


class OrderingNet(ad.Network):
    """q(ordering | graph) with a recurrent per-step categorical structure."""

    @staticmethod
    def param_specs(config: OrderingConfig) -> list[tuple[str, tuple[int, ...], int]]:
        """(name, shape, fan_in) of every parameter, in initialization order."""
        c = config
        fdim = c.embed_dim + c.pe_dim
        d = c.model_dim
        specs: list[tuple[str, tuple[int, ...], int]] = []

        def add(name, shape, fan_in):
            specs.append((name, shape, fan_in))

        add("embed", (c.num_node_types, c.embed_dim), c.embed_dim)
        add("pe_unabsorbed", (c.pe_dim,), c.pe_dim)
        add("w_in", (fdim, d), fdim)
        add("b_in", (d,), fdim)
        for l in range(c.layers):
            for h in range(c.heads):
                add(f"l{l}_h{h}_w", (d, c.hidden), d)
                add(f"l{l}_h{h}_asrc", (c.hidden,), c.hidden)
                add(f"l{l}_h{h}_adst", (c.hidden,), c.hidden)
        # no output bias: a uniform score offset cancels in the softmax
        add("w_out", (d,), d)
        return specs

    # -- forward ------------------------------------------------------------

    def layer_weights(self, tape: Tape | None = None) -> list[tuple[Tensor, Tensor, Tensor]]:
        """Each layer's heads as one (d, heads * hidden) projection and
        (heads, hidden) source and target attention vectors. A caller that
        scores many stacks builds these once and passes them in."""
        heads = range(self.config.heads)
        return [(ad.concat([self._get(tape, f"l{l}_h{hd}_w") for hd in heads], axis=1),
                 ad.stack([self._get(tape, f"l{l}_h{hd}_asrc") for hd in heads]),
                 ad.stack([self._get(tape, f"l{l}_h{hd}_adst") for hd in heads]))
                for l in range(self.config.layers)]

    def node_scores(self, graph: LabeledGraph, prefix, tape: Tape | None = None,
                    weights=None) -> Tensor:
        """Per-node scalar scores given the absorbed prefix (in order): the
        stack of one prefix. `weights` is `layer_weights(tape)`, built here
        when not given."""
        return ad.reshape(self._stack_node_scores(graph, [prefix], tape, weights), (-1,))

    def _stack_node_scores(self, graph: LabeledGraph, prefixes, tape: Tape | None = None,
                           weights=None) -> Tensor:
        """(B, n) scores of B prefixes of one graph; each slice has the bits
        of its prefix scored alone.

        Each layer is one `autodiff.attention_round` over all prefixes,
        heads and nodes at once: logits s_i + r_j of shape (B, n, n, heads),
        softmax over the neighbours j of i (self included), and a sorted sum
        over j of alpha * Wh, so the scores are equivariant to node
        relabeling bit for bit.
        """
        c = self.config
        weights = weights or self.layer_weights(tape)
        b, n = len(prefixes), graph.n
        # row 0 of the encoding table is the unabsorbed sentinel, row p the
        # encoding of absorption step p
        position = np.zeros((b, n), dtype=int)
        for row, prefix in zip(position, prefixes):
            row[list(prefix)] = np.arange(1, len(prefix) + 1)
        table = ad.stack([self._get(tape, "pe_unabsorbed")]
                         + [Tensor(_pe_row(p, c.pe_dim))
                            for p in range(1, position.max(initial=0) + 1)])
        emb = ad.rows(self._get(tape, "embed"), np.tile(graph.node_types, (b, 1)))
        x = ad.concat([emb, ad.rows(table, position)], axis=2)
        h = ad.add(ad.matmul(x, self._get(tape, "w_in")), self._get(tape, "b_in"))

        neighbours = ad.NeighbourLists(
            ((graph.adjacency != ABSENT) | np.eye(n, dtype=bool))[:, :, None], h.shape)
        for w, a_src, a_dst in weights:
            h = ad.attention_round(h, w, a_src, a_dst, neighbours, slope=c.leaky_slope)
        # an einsum, not a BLAS matrix-vector product, whose bits would
        # depend on each node's row position
        return ad.einsum("bnd,d->bn", h, self._get(tape, "w_out"))

    def _step_log_probs(self, scores: Tensor, unabsorbed: list[int]) -> Tensor:
        return ad.log_softmax(ad.take(scores, unabsorbed))

    # -- public operations ----------------------------------------------------

    def step_distribution(self, graph: LabeledGraph, prefix) -> np.ndarray:
        """Probabilities over all nodes; absorbed ones get exactly zero."""
        prefix = list(prefix)
        if len(set(prefix)) != len(prefix) or any(not 0 <= v < graph.n for v in prefix):
            raise GraphError("prefix must contain distinct in-range node ids")
        if len(prefix) == graph.n:
            raise GraphError("all nodes are already absorbed")
        unabsorbed = sorted(set(range(graph.n)).difference(prefix))
        logp = self._step_log_probs(self.node_scores(graph, prefix), unabsorbed)
        out = np.zeros(graph.n)
        out[unabsorbed] = np.exp(logp.data)
        return out

    def sample_ordering(self, graph: LabeledGraph,
                        rng: np.random.Generator) -> DiffusionTrajectory:
        """Draw a full absorption ordering; records per-step log q and weights."""
        return self.sample_orderings(graph, rng, 1)[0]

    def sample_orderings(self, graph: LabeledGraph, rng,
                         count: int | None = None) -> list[DiffusionTrajectory]:
        """Draw full absorption orderings, each recording its per-step log q
        and weights.

        `rng` is one generator, from which `count` orderings are drawn in
        turn, or a sequence of generators, one per ordering and no `count`.
        A sequence is drawn in lockstep: each step scores the distinct
        prefixes its orderings reach in one stacked forward, and each
        ordering draws from its own generator. The result equals one
        `sample_ordering` call per generator, with each generator left where
        its own call leaves it. Either way, each prefix's step distribution
        is computed once per call, however many draws reach it, and its
        weights dict is shared by the trajectories that pass through that
        prefix."""
        if (count is None) == isinstance(rng, np.random.Generator):
            raise ValueError("give a count with one generator, and only then")
        weights = self.layer_weights()
        steps: dict[tuple, tuple] = {}
        if count is None:
            return self._draw_in_lockstep(graph, list(rng), weights, steps)
        return [trajectory for _ in range(count)
                for trajectory in self._draw_in_lockstep(graph, [rng], weights, steps)]

    def _draw_in_lockstep(self, graph: LabeledGraph, rngs, weights,
                          steps: dict) -> list[DiffusionTrajectory]:
        """One ordering per generator, all moved forward a step at a time.
        `steps` maps a prefix to its step distribution; the prefixes a step
        reaches that it lacks are scored in one forward, through
        `node_scores` when there is one, and each stacked slice is read over
        the flat ids b * n + u."""
        n = graph.n
        prefixes: list[tuple] = [()] * len(rngs)
        step_log_probs: list[list[float]] = [[] for _ in rngs]
        step_weights: list[list[dict[int, float]]] = [[] for _ in rngs]
        for _ in range(n):
            new = list(dict.fromkeys(p for p in prefixes if p not in steps))
            if new:
                scores = (self.node_scores(graph, new[0], weights=weights) if len(new) == 1
                          else self._stack_node_scores(graph, new, weights=weights))
            for b, prefix in enumerate(new):
                remaining = sorted(set(range(n)).difference(prefix))
                logp = self._step_log_probs(scores, [b * n + u for u in remaining]).data
                probs = np.exp(logp)
                steps[prefix] = (remaining, categorical_cdf(probs / probs.sum()), logp,
                                 {v: float(p) for v, p in zip(remaining, probs)})
            for k, rng in enumerate(rngs):
                remaining, cdf, logp, step_weight = steps[prefixes[k]]
                step_weights[k].append(step_weight)
                # rng.choice(len(remaining), p=probs / probs.sum()), bit for bit
                idx = int(cdf.searchsorted(rng.random(), side="right"))
                prefixes[k] += (remaining[idx],)
                step_log_probs[k].append(float(logp[idx]))
        return [forward_trajectory(graph, prefix, tuple(logps), tuple(ws))
                for prefix, logps, ws in zip(prefixes, step_log_probs, step_weights)]

    def ordering_log_prob(self, graph: LabeledGraph, ordering,
                          tape: Tape | None = None) -> Tensor:
        """log q(ordering | graph), differentiable when a tape is given. One
        stacked forward scores the n prefixes, (n, n), which each step reads
        flat; the step log-probabilities are added in step order from zero."""
        ordering = [int(v) for v in ordering]
        if sorted(ordering) != list(range(graph.n)):
            raise GraphError("ordering is not a permutation of the node ids")
        scores = self._stack_node_scores(graph, [ordering[:t] for t in range(graph.n)], tape)
        total = Tensor(0.0)
        for t, v in enumerate(ordering):
            remaining = sorted(ordering[t:])
            logp = self._step_log_probs(scores, [t * graph.n + u for u in remaining])
            total = ad.add(total, ad.pick(logp, remaining.index(v)))
        return total
