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


class DenoiserNet:
    def __init__(self, config: DenoiserConfig, params: dict[str, Parameter]):
        if config.aggregator not in ("gat", "gru-gate"):
            raise ValueError(f"unknown aggregator: {config.aggregator!r}")
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
        """L rounds over the view; returns (per-node embeddings, mean pooling)."""
        c = self.config
        m = view.size
        tokens = [c.mask_node_token if t == MASK else t for t in view.node_tokens]
        h = ad.rows(self._get(tape, "node_embed"), tokens)
        nbrs = [[b for b in range(m) if b != a and view.edge_states[a][b] != ABSENT]
                for a in range(m)]

        def edge_token(a, b):
            s = view.edge_states[a][b]
            return c.mask_edge_token if s == MASK else s

        for l in range(c.layers):
            if c.aggregator == "gat":
                h = self._gat_layer(view, h, nbrs, edge_token, l, tape)
            else:
                h = self._gru_layer(view, h, nbrs, edge_token, l, tape)
        return h, ad.tmean(h, axis=0)

    def _gat_layer(self, view, h, nbrs, edge_token, l, tape):
        c = self.config
        m = view.size
        wh = ad.add(ad.matmul(h, self._get(tape, f"l{l}_w")), self._get(tape, f"l{l}_b"))
        s = ad.matmul(wh, self._get(tape, f"l{l}_asrc"))
        r = ad.matmul(wh, self._get(tape, f"l{l}_adst"))
        edge_table = self._get(tape, "edge_embed")
        outs = []
        for a in range(m):
            nb = nbrs[a] + [a]
            etoks = [edge_token(a, b) for b in nbrs[a]] + [c.self_edge_token]
            e_emb = ad.rows(edge_table, etoks)
            logits = ad.add(ad.pick(s, a), ad.take(r, nb))
            if c.edge_in_attention:
                logits = ad.add(logits, ad.matmul(e_emb, self._get(tape, f"l{l}_aedge")))
            alpha = ad.softmax(ad.leaky_relu(logits, slope=c.leaky_slope))
            msgs = ad.rows(wh, nb)
            if c.edge_in_attention:
                msgs = ad.add(msgs, ad.matmul(e_emb, self._get(tape, f"l{l}_p")))
            outs.append(ad.tsum(ad.mul(ad.reshape(alpha, (len(nb), 1)), msgs), axis=0))
        return ad.add(ad.relu(ad.stack(outs)), h)

    def _gru_layer(self, view, h, nbrs, edge_token, l, tape):
        c = self.config
        m = view.size
        gru_params = {gp: self._get(tape, f"l{l}_{gp}")
                      for gp in ("wz", "uz", "bz", "wr", "ur", "br", "wc", "uc", "bc")}
        edge_table = self._get(tape, "edge_embed")
        outs = []
        for a in range(m):
            h_a = ad.reshape(ad.rows(h, [a]), (c.hidden,))
            nb = nbrs[a]
            if nb:
                e_emb = ad.rows(edge_table, [edge_token(a, b) for b in nb])
                inp = ad.concat([ad.tile_row(h_a, len(nb)), ad.rows(h, nb), e_emb], axis=1)
                msg = _mlp2(inp, self._get(tape, f"l{l}_f1"), self._get(tape, f"l{l}_f1b"),
                            self._get(tape, f"l{l}_f2"), self._get(tape, f"l{l}_f2b"))
                gate = ad.sigmoid(_mlp2(inp, self._get(tape, f"l{l}_g1"),
                                        self._get(tape, f"l{l}_g1b"),
                                        self._get(tape, f"l{l}_g2"),
                                        self._get(tape, f"l{l}_g2b")))
                agg = ad.tsum(ad.mul(gate, msg), axis=0)
            else:
                agg = Tensor(np.zeros(c.hidden))
            outs.append(gru_cell(h_a, agg, gru_params))
        return ad.stack(outs)

    # -- heads ----------------------------------------------------------------

    def _log_heads(self, view: DenoisingView, tape: Tape | None):
        """(node log-probs, mixture log-weights, per-component edge log-probs)."""
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
        mix_logw = ad.sub(mix_logits, ad.logsumexp(mix_logits))
        edge_logp = []
        for k in range(c.mixtures):
            logits = _mlp2(pair, self._get(tape, f"eh{k}_1"), self._get(tape, f"eh{k}_1b"),
                           self._get(tape, f"eh{k}_2"), self._get(tape, f"eh{k}_2b"))
            lse = ad.reshape(ad.logsumexp(logits, axis=1), (len(prev), 1))
            edge_logp.append(ad.sub(logits, lse))
        return node_logp, mix_logw, edge_logp

    def predict_step(self, view: DenoisingView) -> StepPrediction:
        node_logp, mix_logw, edge_logp = self._log_heads(view, None)
        if mix_logw is None:
            return StepPrediction(np.exp(node_logp.data), None, None,
                                  tuple(view.prev_nodes()))
        edge = np.stack([np.exp(e.data) for e in edge_logp], axis=0)
        return StepPrediction(np.exp(node_logp.data), np.exp(mix_logw.data), edge,
                              tuple(view.prev_nodes()))

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
        cols = [observed_edges[v] for v in prev]
        rows_ = list(range(len(prev)))
        comps = [ad.tsum(ad.gather2d(edge_logp[k], rows_, cols)) for k in range(c.mixtures)]
        comp_vec = ad.concat([ad.reshape(cp, (1,)) for cp in comps])
        return ad.add(ll, ad.logsumexp(ad.add(mix_logw, comp_vec)))

    def sample_step(self, view: DenoisingView, rng: np.random.Generator,
                    edge_mask=None):
        """Sample (node type, {prev node -> edge state}); one mixture component
        is drawn and all edges of the step come from it. Slots named in
        `edge_mask` are forced ABSENT."""
        pred = self.predict_step(view)
        node_type = int(rng.choice(len(pred.node_probs), p=pred.node_probs))
        if not pred.prev_nodes:
            return node_type, {}
        forbidden = set(edge_mask) if edge_mask is not None else set()
        k = int(rng.choice(len(pred.mixture_weights), p=pred.mixture_weights))
        assignment = {}
        for j, v in enumerate(pred.prev_nodes):
            if v in forbidden:
                assignment[v] = ABSENT
            else:
                assignment[v] = int(rng.choice(self.config.num_edge_types,
                                               p=pred.edge_probs[k, j]))
        return node_type, assignment
