"""The diffusion ordering network: scores which unabsorbed node decays next.

A small multi-head attention GNN over the original graph topology. Node
features are a type embedding concatenated with a positional encoding of the
node's own absorption step (a learned sentinel vector while unabsorbed), so
the distribution is conditioned on the absorption prefix.

Like the denoiser, the network runs one forward over a stack of B prefixes of
one graph, laid out (B, n, ...); one prefix is a stack of one. Products run
slice by slice and every sort, sum and softmax stays within a slice, so each
slice has the bits of its prefix scored alone, and `ordering_log_prob` scores
its n prefixes in one forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Tensor
from .graphs import (ABSENT, DiffusionTrajectory, GraphError, LabeledGraph,
                     check_config_numbers, forward_trajectory)


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
        for name in ("num_node_types", "heads", "hidden", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.layers < 0:
            raise ValueError(f"layers must be >= 0, got {self.layers}")
        if self.pe_dim < 2 or self.pe_dim % 2:
            raise ValueError(f"pe_dim must be even and >= 2, got {self.pe_dim}")

    @property
    def model_dim(self) -> int:
        return self.heads * self.hidden

    def to_dict(self) -> dict:
        return asdict(self)


class OrderingNet:
    """q(ordering | graph) with a recurrent per-step categorical structure."""

    def __init__(self, config: OrderingConfig, params: dict[str, Parameter]):
        self.config = config
        self.params = params

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

    @classmethod
    def init(cls, config: OrderingConfig, rng: np.random.Generator) -> "OrderingNet":
        return cls(config, {name: Parameter(name, ad.uniform_init(rng, shape, fan_in))
                            for name, shape, fan_in in cls.param_specs(config)})

    # -- forward ------------------------------------------------------------

    def _get(self, tape: Tape | None, name: str) -> Tensor:
        if tape is None:
            return Tensor(self.params[name].data)
        return tape.watch(self.params[name])

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

        Each layer attends over all prefixes, heads and nodes at once: logits
        s_i + r_j of shape (B, n, n, heads), softmax over the neighbours j of
        i (self included), and a sorted sum over j of alpha * Wh, so the
        scores are equivariant to node relabeling bit for bit.
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
                         + [Tensor(positional_encoding(p, c.pe_dim))
                            for p in range(1, position.max(initial=0) + 1)])
        emb = ad.rows(self._get(tape, "embed"), np.tile(graph.node_types, (b, 1)))
        x = ad.concat([emb, ad.rows(table, position)], axis=2)
        h = ad.add(ad.matmul(x, self._get(tape, "w_in")), self._get(tape, "b_in"))

        neighbours = ((graph.adjacency != ABSENT) | np.eye(n, dtype=bool))[:, :, None]
        for w, a_src, a_dst in weights:
            # wh is laid out (b, -, j, head, k), so it broadcasts over i below
            wh = ad.reshape(ad.matmul(h, w), (b, 1, n, c.heads, c.hidden))
            s = ad.reshape(ad.einsum("bxnhk,hk->bxnh", wh, a_src), (b, n, 1, c.heads))
            r = ad.einsum("bxnhk,hk->bxnh", wh, a_dst)
            logits = ad.leaky_relu(ad.add(s, r), slope=c.leaky_slope)
            alpha = ad.masked_softmax(logits, neighbours, axis=2)
            msgs = ad.mul(ad.reshape(alpha, (b, n, n, c.heads, 1)), wh)   # (b, i, j, head, k)
            merged = ad.reshape(ad.tsum(msgs, axis=2), (b, n, c.model_dim))
            h = ad.add(ad.relu(merged), h)   # residual connection
        # an einsum, not a BLAS matrix-vector product, whose bits would
        # depend on each node's row position
        return ad.einsum("bnd,d->bn", h, self._get(tape, "w_out"))

    def _step_log_probs(self, scores: Tensor, unabsorbed: list[int]) -> Tensor:
        sel = ad.take(scores, unabsorbed)
        return ad.sub(sel, ad.logsumexp(sel))

    def step_log_probs(self, graph: LabeledGraph, prefix,
                       weights=None) -> tuple[list[int], Tensor]:
        """The unabsorbed nodes (ascending) after `prefix`, and the log
        probability of each being absorbed next."""
        unabsorbed = sorted(set(range(graph.n)).difference(prefix))
        scores = self.node_scores(graph, prefix, weights=weights)
        return unabsorbed, self._step_log_probs(scores, unabsorbed)

    # -- public operations ----------------------------------------------------

    def step_distribution(self, graph: LabeledGraph, prefix) -> np.ndarray:
        """Probabilities over all nodes; absorbed ones get exactly zero."""
        prefix = list(prefix)
        if len(set(prefix)) != len(prefix) or any(not 0 <= v < graph.n for v in prefix):
            raise GraphError("prefix must contain distinct in-range node ids")
        if len(prefix) == graph.n:
            raise GraphError("all nodes are already absorbed")
        unabsorbed, logp = self.step_log_probs(graph, prefix)
        out = np.zeros(graph.n)
        out[unabsorbed] = np.exp(logp.data)
        return out

    def sample_ordering(self, graph: LabeledGraph,
                        rng: np.random.Generator) -> DiffusionTrajectory:
        """Draw a full absorption ordering; records per-step log q and weights."""
        return self.sample_orderings(graph, rng, 1)[0]

    def sample_orderings(self, graph: LabeledGraph, rng: np.random.Generator,
                         count: int) -> list[DiffusionTrajectory]:
        """Draw `count` full absorption orderings in turn, each recording its
        per-step log q and weights. Each prefix's step distribution is
        computed once per call, however many draws reach it, and its weights
        dict is shared by the trajectories that pass through that prefix."""
        weights = self.layer_weights()
        steps: dict[tuple, tuple] = {}
        trajectories = []
        for _ in range(count):
            prefix: tuple = ()
            step_log_probs: list[float] = []
            step_weights: list[dict[int, float]] = []
            for _ in range(graph.n):
                step = steps.get(prefix)
                if step is None:
                    remaining, logp = self.step_log_probs(graph, prefix, weights=weights)
                    probs = np.exp(logp.data)
                    step = steps[prefix] = (remaining, probs, logp.data,
                                            {v: float(p) for v, p in zip(remaining, probs)})
                remaining, probs, logp, step_weight = step
                step_weights.append(step_weight)
                idx = int(rng.choice(len(remaining), p=probs / probs.sum()))
                prefix += (remaining[idx],)
                step_log_probs.append(float(logp[idx]))
            trajectories.append(forward_trajectory(graph, prefix, tuple(step_log_probs),
                                                   tuple(step_weights)))
        return trajectories

    def ordering_log_prob(self, graph: LabeledGraph, ordering,
                          tape: Tape | None = None) -> Tensor:
        """log q(ordering | graph), differentiable when a tape is given. One
        stacked forward scores the n prefixes; the step log-probabilities
        are added in step order from zero."""
        ordering = [int(v) for v in ordering]
        if sorted(ordering) != list(range(graph.n)):
            raise GraphError("ordering is not a permutation of the node ids")
        scores = ad.reshape(self._stack_node_scores(
            graph, [ordering[:t] for t in range(graph.n)], tape), (-1,))
        total = Tensor(0.0)
        for t, v in enumerate(ordering):
            remaining = sorted(ordering[t:])
            logp = self._step_log_probs(scores, [t * graph.n + u for u in remaining])
            total = ad.add(total, ad.pick(logp, remaining.index(v)))
        return total
