"""The denoising network: edge-aware message passing over a pruned view,
a node-type head, and a K-component mixture-of-multinomials edge head.

Two aggregators:
  "gat"      attention with edge-state embeddings in both logits and messages
             (a node-only variant is available via edge_in_attention=False);
  "gru-gate" sigmoid-gated messages folded into the state by a GRU, the
             variant used for typed toy graphs.

Edge states seen by the network: real types (1..E-1), MASK for pairs touching
the target, and a SELF marker for the attention self-loop. Pairs with no edge
do not exchange one; absence is only an outcome of the edge head.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Tensor, gru_cell
from .graphs import ABSENT, MASK, DenoisingView, GraphError


@dataclass
class DenoiserConfig:
    num_node_types: int
    num_edge_types: int              # includes ABSENT
    aggregator: str = "gat"          # "gat" | "gru-gate"
    layers: int = 7
    hidden: int = 128
    mlp_hidden: int = 256
    mixtures: int = 20
    edge_in_attention: bool = True
    leaky_slope: float = 0.2

    def __post_init__(self):
        # Each message starts with the field name; RunConfig maps it to its key.
        if self.aggregator not in ("gat", "gru-gate"):
            raise ValueError("aggregator must be 'gat' or 'gru-gate', "
                             f"got {self.aggregator!r}")
        for name in ("num_node_types", "num_edge_types", "hidden", "mlp_hidden",
                     "mixtures"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.layers < 0:
            raise ValueError(f"layers must be >= 0, got {self.layers}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def for_typed_graphs(cls, num_node_types: int, num_edge_types: int,
                         **overrides) -> "DenoiserConfig":
        """The typed-graph variant: gated-GRU aggregation, 5 rounds, width 256."""
        kwargs = dict(aggregator="gru-gate", layers=5, hidden=256,
                      mlp_hidden=256)
        kwargs.update(overrides)
        return cls(num_node_types, num_edge_types, **kwargs)

    @property
    def mask_node_token(self) -> int:
        return self.num_node_types

    @property
    def mask_edge_token(self) -> int:
        return self.num_edge_types

    @property
    def self_edge_token(self) -> int:
        return self.num_edge_types + 1


@dataclass
class StepPrediction:
    """Distributions for one reverse step. `edge_probs[k, j]` is component k's
    categorical over edge states between the target and prev_nodes[j]."""

    node_probs: np.ndarray
    mixture_weights: np.ndarray | None
    edge_probs: np.ndarray | None        # (K, P, E)
    prev_nodes: tuple[int, ...]


def _mlp2(x: Tensor, w1, b1, w2, b2) -> Tensor:
    return ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(x, w1), b1)), w2), b2)


def _log_softmax(logits: Tensor) -> Tensor:
    """Log-probabilities over the last axis."""
    shape = logits.data.shape
    lse = ad.logsumexp(logits, axis=len(shape) - 1)
    return ad.sub(logits, ad.reshape(lse, shape[:-1] + (1,)))


class DenoiserNet:
    def __init__(self, config: DenoiserConfig, params: dict[str, Parameter]):
        self.config = config
        self.params = params

    @staticmethod
    def param_specs(config: DenoiserConfig) -> list[tuple[str, tuple[int, ...], int]]:
        """(name, shape, fan_in) of every parameter, in initialization order."""
        c = config
        d, mh = c.hidden, c.mlp_hidden
        specs: list[tuple[str, tuple[int, ...], int]] = []

        def add(name, shape, fan_in):
            specs.append((name, shape, fan_in))

        add("node_embed", (c.num_node_types + 1, d), d)        # + MASK token
        add("edge_embed", (c.num_edge_types + 2, d), d)        # + MASK, SELF
        for l in range(c.layers):
            if c.aggregator == "gat":
                add(f"l{l}_w", (d, d), d)
                add(f"l{l}_b", (d,), d)
                add(f"l{l}_asrc", (d,), d)
                add(f"l{l}_adst", (d,), d)
                add(f"l{l}_aedge", (d,), d)
                add(f"l{l}_p", (d, d), d)
            else:
                add(f"l{l}_f1", (3 * d, mh), 3 * d)
                add(f"l{l}_f1b", (mh,), 3 * d)
                add(f"l{l}_f2", (mh, d), mh)
                add(f"l{l}_f2b", (d,), mh)
                add(f"l{l}_g1", (3 * d, mh), 3 * d)
                add(f"l{l}_g1b", (mh,), 3 * d)
                add(f"l{l}_g2", (mh, 1), mh)
                add(f"l{l}_g2b", (1,), mh)
                for gp in ("wz", "uz", "wr", "ur", "wc", "uc"):
                    add(f"l{l}_{gp}", (d, d), d)
                for gp in ("bz", "br", "bc"):
                    add(f"l{l}_{gp}", (d,), d)
        add("nh1", (2 * d, mh), 2 * d)
        add("nh1b", (mh,), 2 * d)
        add("nh2", (mh, c.num_node_types), mh)
        add("nh2b", (c.num_node_types,), mh)
        add("mh1", (3 * d, mh), 3 * d)
        add("mh1b", (mh,), 3 * d)
        add("mh2", (mh, c.mixtures), mh)
        add("mh2b", (c.mixtures,), mh)
        for k in range(c.mixtures):
            add(f"eh{k}_1", (3 * d, mh), 3 * d)
            add(f"eh{k}_1b", (mh,), 3 * d)
            add(f"eh{k}_2", (mh, c.num_edge_types), mh)
            add(f"eh{k}_2b", (c.num_edge_types,), mh)
        return specs

    @classmethod
    def init(cls, config: DenoiserConfig, rng: np.random.Generator) -> "DenoiserNet":
        return cls(config, {name: Parameter(name, ad.uniform_init(rng, shape, fan_in))
                            for name, shape, fan_in in cls.param_specs(config)})

    def _get(self, tape: Tape | None, name: str) -> Tensor:
        if tape is None:
            return Tensor(self.params[name].data)
        return tape.watch(self.params[name])

    # -- message passing ------------------------------------------------------

    def message_pass(self, view: DenoisingView, tape: Tape | None = None):
        """L rounds over the view; returns (per-node embeddings, mean pooling).

        Each round is one dense masked op over the view's (m, m) pairs: a
        pair (a, b) exchanges a message only if its edge state is not ABSENT,
        and the result sums over b in sorted order, so the embeddings are
        equivariant to node relabeling bit for bit.
        """
        c = self.config
        m = view.size
        states = np.array(view.edge_states, dtype=int).reshape(m, m)
        neighbours = states != ABSENT                 # the diagonal is ABSENT
        edge_tokens = np.where(states == MASK, c.mask_edge_token, states)
        np.fill_diagonal(edge_tokens, c.self_edge_token)
        node_tokens = [c.mask_node_token if t == MASK else t for t in view.node_tokens]
        h = ad.rows(self._get(tape, "node_embed"), node_tokens)
        e = ad.rows(self._get(tape, "edge_embed"), edge_tokens.reshape(-1))  # (m*m, d)

        if c.aggregator == "gat":
            attend = neighbours | np.eye(m, dtype=bool)
            for l in range(c.layers):
                wh = ad.add(ad.matmul(h, self._get(tape, f"l{l}_w")),
                            self._get(tape, f"l{l}_b"))
                s = ad.reshape(ad.matmul(wh, self._get(tape, f"l{l}_asrc")), (m, 1))
                r = ad.reshape(ad.matmul(wh, self._get(tape, f"l{l}_adst")), (1, m))
                logits = ad.add(s, r)
                msgs = wh                              # broadcasts as (1, m, d)
                if c.edge_in_attention:
                    e_att = ad.matmul(e, self._get(tape, f"l{l}_aedge"))
                    logits = ad.add(logits, ad.reshape(e_att, (m, m)))
                    e_msg = ad.matmul(e, self._get(tape, f"l{l}_p"))
                    msgs = ad.add(ad.reshape(e_msg, (m, m, c.hidden)), wh)
                alpha = ad.masked_softmax(ad.leaky_relu(logits, slope=c.leaky_slope),
                                          attend, axis=1)
                out = ad.tsum(ad.mul(ad.reshape(alpha, (m, m, 1)), msgs), axis=1)
                h = ad.add(ad.relu(out), h)   # residual connection
        else:
            src = np.repeat(np.arange(m), m)            # a of the pair (a, b)
            dst = np.tile(np.arange(m), m)              # b of the pair (a, b)
            keep = neighbours.reshape(m * m, 1).astype(np.float64)
            for l in range(c.layers):
                inp = ad.concat([ad.rows(h, src), ad.rows(h, dst), e], axis=1)
                msg = _mlp2(inp, self._get(tape, f"l{l}_f1"), self._get(tape, f"l{l}_f1b"),
                            self._get(tape, f"l{l}_f2"), self._get(tape, f"l{l}_f2b"))
                gate = ad.sigmoid(_mlp2(inp, self._get(tape, f"l{l}_g1"),
                                        self._get(tape, f"l{l}_g1b"),
                                        self._get(tape, f"l{l}_g2"),
                                        self._get(tape, f"l{l}_g2b")))
                gated = ad.mul(ad.mul(gate, keep), msg)   # exact zero off the edges
                agg = ad.tsum(ad.reshape(gated, (m, m, c.hidden)), axis=1)
                h = gru_cell(h, agg, {gp: self._get(tape, f"l{l}_{gp}")
                                      for gp in ("wz", "uz", "bz", "wr", "ur", "br",
                                                 "wc", "uc", "bc")})
        return h, ad.tmean(h, axis=0)

    # -- heads ----------------------------------------------------------------

    def _trunk(self, view: DenoisingView, tape: Tape | None):
        """Everything before the edge heads: (node log-probs, mixture
        log-weights, (P, 3d) pair features). The last two are None when the
        view has no previously denoised node."""
        c = self.config
        h, h_g = self.message_pass(view, tape)
        h_t = ad.reshape(ad.rows(h, [view.target_index]), (c.hidden,))
        node_logits = _mlp2(ad.reshape(ad.concat([h_g, h_t]), (1, 2 * c.hidden)),
                            self._get(tape, "nh1"), self._get(tape, "nh1b"),
                            self._get(tape, "nh2"), self._get(tape, "nh2b"))
        node_logits = ad.reshape(node_logits, (c.num_node_types,))
        node_logp = ad.sub(node_logits, ad.logsumexp(node_logits))

        prev = view.prev_nodes()
        if not prev:
            return node_logp, None, None
        prev_idx = [view.nodes.index(v) for v in prev]
        pair = ad.concat([ad.tile_row(h_g, len(prev)), ad.tile_row(h_t, len(prev)),
                          ad.rows(h, prev_idx)], axis=1)
        mix_logits = ad.tsum(_mlp2(pair, self._get(tape, "mh1"), self._get(tape, "mh1b"),
                                   self._get(tape, "mh2"), self._get(tape, "mh2b")), axis=0)
        return node_logp, ad.sub(mix_logits, ad.logsumexp(mix_logits)), pair

    def _edge_logits(self, pair: Tensor, k: int, tape: Tape | None) -> Tensor:
        """Mixture component k's edge head: (P, E) logits."""
        return _mlp2(pair, self._get(tape, f"eh{k}_1"), self._get(tape, f"eh{k}_1b"),
                     self._get(tape, f"eh{k}_2"), self._get(tape, f"eh{k}_2b"))

    def _log_heads(self, view: DenoisingView, tape: Tape | None):
        """(node log-probs, mixture log-weights, edge log-probs of shape (K, P, E))."""
        node_logp, mix_logw, pair = self._trunk(view, tape)
        if pair is None:
            return node_logp, None, None
        edge_logits = ad.stack([self._edge_logits(pair, k, tape)
                                for k in range(self.config.mixtures)])
        return node_logp, mix_logw, _log_softmax(edge_logits)

    def predict_step(self, view: DenoisingView) -> StepPrediction:
        node_logp, mix_logw, edge_logp = self._log_heads(view, None)
        if mix_logw is None:
            return StepPrediction(np.exp(node_logp.data), None, None,
                                  tuple(view.prev_nodes()))
        return StepPrediction(np.exp(node_logp.data), np.exp(mix_logw.data),
                              np.exp(edge_logp.data), tuple(view.prev_nodes()))

    def step_log_likelihood(self, view: DenoisingView, node_type: int,
                            observed_edges: dict[int, int],
                            tape: Tape | None = None) -> Tensor:
        """log p(node type) + log sum_k alpha_k prod_j p_k(e_j), stabilized."""
        c = self.config
        prev = view.prev_nodes()
        if set(observed_edges) != set(prev):
            raise GraphError("observed edges must cover exactly the previously denoised nodes")
        for e in observed_edges.values():
            if e == MASK or not 0 <= e < c.num_edge_types:
                raise GraphError(f"invalid observed edge state: {e}")
        if not 0 <= node_type < c.num_node_types:
            raise GraphError(f"invalid observed node type: {node_type}")
        node_logp, mix_logw, edge_logp = self._log_heads(view, tape)
        ll = ad.pick(node_logp, node_type)
        if not prev:
            return ll
        observed = np.zeros((len(prev), c.num_edge_types))
        observed[np.arange(len(prev)), [observed_edges[v] for v in prev]] = 1.0
        comps = ad.tsum(ad.tsum(ad.mul(edge_logp, observed), axis=2), axis=1)   # (K,)
        return ad.add(ll, ad.logsumexp(ad.add(mix_logw, comps)))

    def sample_step(self, view: DenoisingView, rng: np.random.Generator,
                    edge_mask=None):
        """Sample (node type, {prev node -> edge state}); one mixture component
        is drawn and all edges of the step come from it. Slots named in
        `edge_mask` are forced ABSENT."""
        return StepSampler(self, view).draw(rng, edge_mask)


class StepSampler:
    """One reverse step's distributions, for drawing from repeatedly.

    The node head and the mixture weights are computed up front. A draw uses
    one mixture component, so each component's edge head is computed the
    first time that component is drawn, and kept. The draws, and the rng
    values they consume, are those of sampling from `predict_step`.
    """

    def __init__(self, net: DenoiserNet, view: DenoisingView):
        node_logp, mix_logw, self._pair = net._trunk(view, None)
        self._net = net
        self.node_probs = np.exp(node_logp.data)
        self.mixture_weights = None if mix_logw is None else np.exp(mix_logw.data)
        self.prev_nodes = tuple(view.prev_nodes())
        self._edge_probs: dict[int, np.ndarray] = {}

    def edge_probs(self, k: int) -> np.ndarray:
        """Component k's (P, E) edge-state probabilities."""
        probs = self._edge_probs.get(k)
        if probs is None:
            logp = _log_softmax(self._net._edge_logits(self._pair, k, None))
            probs = self._edge_probs[k] = np.exp(logp.data)
        return probs

    def draw(self, rng: np.random.Generator, edge_mask=None):
        """(node type, {prev node -> edge state}), as `DenoiserNet.sample_step`."""
        node_type = int(rng.choice(len(self.node_probs), p=self.node_probs))
        if not self.prev_nodes:
            return node_type, {}
        forbidden = set(edge_mask) if edge_mask is not None else set()
        k = int(rng.choice(len(self.mixture_weights), p=self.mixture_weights))
        probs = self.edge_probs(k)
        assignment = {}
        for j, v in enumerate(self.prev_nodes):
            if v in forbidden:
                assignment[v] = ABSENT
            else:
                assignment[v] = int(rng.choice(probs.shape[1], p=probs[j]))
        return node_type, assignment
