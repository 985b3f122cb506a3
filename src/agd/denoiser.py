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

Every forward runs over a stack of views of one size, and one view is a
stack of one; each view of a stack gets the bits of its own stack of one.
Training's taped views, of any sizes, go through `taped_log_likelihoods`:
one trunk per view, then each edge head once over all the views' pair rows,
so a head's weights get one gradient product per call. Each view's values
still carry the bits of its own stack of one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, gru_cell
from .graphs import (ABSENT, MASK, DenoisingView, GraphError, categorical_cdf,
                     check_at_least, check_config_numbers)


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
        check_config_numbers(self, ("num_node_types", "num_edge_types", "layers",
                                    "hidden", "mlp_hidden", "mixtures"))
        if not isinstance(self.edge_in_attention, bool):
            raise ValueError("edge_in_attention must be a bool, "
                             f"got {self.edge_in_attention!r}")
        if self.aggregator not in ("gat", "gru-gate"):
            raise ValueError("aggregator must be 'gat' or 'gru-gate', "
                             f"got {self.aggregator!r}")
        check_at_least(self, 1, ("num_node_types", "num_edge_types", "hidden",
                                 "mlp_hidden", "mixtures"))
        check_at_least(self, 0, ("layers",))

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


# the reference loops in tests/test_denoiser.py import the head MLP by this name
_mlp2 = ad.mlp2


class DenoiserNet(ad.Network):
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

    # -- message passing ------------------------------------------------------

    def message_pass(self, view, tape: Tape | None = None):
        """L rounds over the view; returns (per-node embeddings, mean pooling).

        `view` may also be a sequence of B views of one size m; the results
        are then stacked, (B, m, d) and (B, d). One view is a stack of one.
        """
        if not isinstance(view, DenoisingView):
            return self._stack_message_pass(view, tape)
        h, h_g = self._stack_message_pass([view], tape)
        return ad.reshape(h, h.shape[1:]), ad.reshape(h_g, h_g.shape[1:])

    def _stack_message_pass(self, views, tape: Tape | None):
        """L rounds over B views of one size m; returns ((B, m, d) per-node
        embeddings, (B, d) mean pooling).

        Each round is one dense masked op over the views' (m, m) pairs:
        `autodiff.attention_round` with one head (GAT), or `gated_messages`
        then `gru_cell` (gated GRU). A pair (a, b) exchanges a message only
        if its edge state is not ABSENT, and the result sums over b in
        sorted order, so the embeddings are equivariant to node relabeling
        bit for bit. Products run one view's slice at a time, and every sum
        and normalization stays within a slice, so each view gets the bits
        of its own stack of one.
        """
        c = self.config
        B, m = len(views), views[0].size
        states = np.array([v.edge_states for v in views], dtype=int).reshape(B, m, m)
        neighbours = states != ABSENT                 # the diagonal is ABSENT
        edge_tokens = np.where(states == MASK, c.mask_edge_token, states)
        edge_tokens[:, np.arange(m), np.arange(m)] = c.self_edge_token
        node_tokens = [[c.mask_node_token if t == MASK else t for t in v.node_tokens]
                       for v in views]
        h = ad.rows(self._get(tape, "node_embed"), node_tokens)       # (B, m, d)

        if c.aggregator == "gat":
            attend = ad.NeighbourLists((neighbours | np.eye(m, dtype=bool))[..., None],
                                       h.shape, c.edge_in_attention)    # one head
            edge_table = self._get(tape, "edge_embed")
            for l in range(c.layers):
                w, b, a_src, a_dst = (self._get(tape, f"l{l}_{name}")
                                      for name in ("w", "b", "asrc", "adst"))
                e_att = e_msg = None
                if c.edge_in_attention:
                    # per-token tables, gathered: a pair's terms depend on its
                    # token alone, never on where its row sits in a product
                    e_att = ad.take(ad.matmul(edge_table, self._get(tape, f"l{l}_aedge")),
                                    edge_tokens)
                    e_msg = ad.rows(ad.matmul(edge_table, self._get(tape, f"l{l}_p")),
                                    edge_tokens)
                h = ad.attention_round(h, w, a_src, a_dst, attend, bias=b, edge_logits=e_att,
                                       edge_msgs=e_msg, slope=c.leaky_slope)
        else:
            first = (np.arange(B) * m)[:, None]       # row of each view's node 0
            src = first + np.repeat(np.arange(m), m)  # a of the pair (a, b)
            dst = first + np.tile(np.arange(m), m)    # b of the pair (a, b)
            e = ad.rows(self._get(tape, "edge_embed"), edge_tokens.reshape(B, m * m))
            for l in range(c.layers):
                agg = ad.gated_messages(ad.rows(h, src), ad.rows(h, dst), e, neighbours,
                                        {name: self._get(tape, f"l{l}_{name}")
                                         for name in ad.MESSAGE_PARAMS})
                h = gru_cell(h, agg, {name: self._get(tape, f"l{l}_{name}")
                                      for name in ad.GRU_PARAMS})
        return h, ad.tmean(h, axis=1)

    # -- heads ----------------------------------------------------------------

    def _trunk(self, view: DenoisingView, tape: Tape | None):
        """`_stack_trunk` of one view."""
        return self._stack_trunk([view], tape)

    def _stack_trunk(self, views, tape: Tape | None):
        """Everything before the edge heads, over B views of one size: (B, T)
        node log-probs, (B, K) mixture log-weights and (B, P, 3d) pair
        features. The last two are None when the views have no previously
        denoised node."""
        c = self.config
        B, m = len(views), views[0].size
        first = np.arange(B) * m
        h, h_g = self.message_pass(views, tape)
        h_t = ad.rows(h, first + [v.target_index for v in views])          # (B, d)
        node_in = ad.reshape(ad.concat([h_g, h_t], axis=1), (B, 1, 2 * c.hidden))
        node_logits = ad.mlp2(node_in, self._get(tape, "nh1"), self._get(tape, "nh1b"),
                              self._get(tape, "nh2"), self._get(tape, "nh2b"))
        node_logp = ad.log_softmax(ad.reshape(node_logits, (B, c.num_node_types)))
        if m == 1:
            return node_logp, None, None
        prev_idx = [[v.nodes.index(u) for u in v.prev_nodes()] for v in views]
        pair = ad.concat([ad.tile_row(h_g, m - 1), ad.tile_row(h_t, m - 1),
                          ad.rows(h, first[:, None] + prev_idx)], axis=2)
        mix_logits = ad.tsum(ad.mlp2(pair, self._get(tape, "mh1"), self._get(tape, "mh1b"),
                                     self._get(tape, "mh2"), self._get(tape, "mh2b")), axis=1)
        return node_logp, ad.log_softmax(mix_logits), pair

    def _edge_logits(self, pair, k: int, tape: Tape | None) -> Tensor:
        """Mixture component k's edge head over (B, P, 3d) pair features:
        (B, P, E) logits. `pair` may also be a list of (1, P_i, 3d) blocks,
        one per view; the head then runs over all their rows at once,
        (1, sum P_i, E), each block's rows with the bits of its own head.
        The narrow output layer is an einsum: BLAS gives its rows bits that
        depend on their position."""
        w1 = self._get(tape, f"eh{k}_1")
        first = ad.matmul_blocks(pair, w1) if isinstance(pair, list) else ad.matmul(pair, w1)
        hidden = ad.relu(ad.add(first, self._get(tape, f"eh{k}_1b")))
        return ad.add(ad.einsum("bpi,ie->bpe", hidden, self._get(tape, f"eh{k}_2")),
                      self._get(tape, f"eh{k}_2b"))

    def _edge_log_probs(self, pair, tape: Tape | None) -> Tensor:
        """All K components' edge log-probs, (B, K, P, E), over the pair
        features that `_edge_logits` takes."""
        return ad.log_softmax(ad.stack([self._edge_logits(pair, k, tape)
                                        for k in range(self.config.mixtures)], axis=1))

    def _stack_log_heads(self, views, tape: Tape | None):
        """(node log-probs (B, T), mixture log-weights (B, K), edge log-probs
        (B, K, P, E)) over B views of one size."""
        node_logp, mix_logw, pair = self._stack_trunk(views, tape)
        if pair is None:
            return node_logp, None, None
        return node_logp, mix_logw, self._edge_log_probs(pair, tape)

    def _log_heads(self, view: DenoisingView, tape: Tape | None):
        """(node log-probs, mixture log-weights, edge log-probs of shape (K, P, E))."""
        return tuple(None if x is None else ad.reshape(x, x.shape[1:])
                     for x in self._stack_log_heads([view], tape))

    def predict_step(self, view: DenoisingView) -> StepPrediction:
        node_logp, mix_logw, edge_logp = self._log_heads(view, None)
        if mix_logw is None:
            return StepPrediction(np.exp(node_logp.data), None, None,
                                  tuple(view.prev_nodes()))
        return StepPrediction(np.exp(node_logp.data), np.exp(mix_logw.data),
                              np.exp(edge_logp.data), tuple(view.prev_nodes()))

    def _check_labels(self, view: DenoisingView, node_type: int,
                      observed_edges: dict[int, int]) -> None:
        c = self.config
        if set(observed_edges) != set(view.prev_nodes()):
            raise GraphError("observed edges must cover exactly the previously denoised nodes")
        for e in observed_edges.values():
            if e == MASK or not 0 <= e < c.num_edge_types:
                raise GraphError(f"invalid observed edge state: {e}")
        if not 0 <= node_type < c.num_node_types:
            raise GraphError(f"invalid observed node type: {node_type}")

    def _stack_log_likelihood(self, views, node_types, observed_edges,
                              tape: Tape | None) -> Tensor:
        """The (B,) step log-likelihoods of B views of one size."""
        return self._heads_log_likelihood(views, node_types, observed_edges,
                                          *self._stack_log_heads(views, tape))

    def _heads_log_likelihood(self, views, node_types, observed_edges, node_logp,
                              mix_logw, edge_logp, offset: int = 0) -> Tensor:
        """The (B,) step log-likelihoods of B views of one size, from their
        `_stack_log_heads`. `edge_logp` may hold more pair rows than the
        views have pairs; the views' pairs start at row `offset` of its pair
        axis. The labels are checked here, before they index."""
        for view, node_type, observed in zip(views, node_types, observed_edges):
            self._check_labels(view, node_type, observed)
        B, T = node_logp.shape
        ll = ad.take(node_logp, np.arange(B) * T + node_types)
        if mix_logw is None:
            return ll
        _, K, rows, E = edge_logp.shape
        states = np.array([[observed[v] for v in view.prev_nodes()]
                           for view, observed in zip(views, observed_edges)])
        # flat index of (view b, component k, pair row offset + p, observed state of p)
        lane = np.arange(B)[:, None, None] * K + np.arange(K)[:, None]
        flat = (lane * rows + offset + np.arange(states.shape[1])) * E + states[:, None, :]
        comps = ad.tsum(ad.take(edge_logp, flat), axis=2)               # (B, K)
        return ad.add(ll, ad.logsumexp(ad.add(mix_logw, comps), axis=1))

    def taped_log_likelihoods(self, views, node_types, observed_edges,
                              tape: Tape) -> list[Tensor]:
        """The step log-likelihoods of views of any sizes, with one node type
        and one observed-edge dict per view, as 0-d tensors on `tape`, each
        with the bits of its own `step_log_likelihood` call.

        Each view runs its own trunk. Each edge head then runs once over all
        the views' pair rows, so its weights get one gradient product for
        the lot rather than one per view; each view's scoring then reads its
        own rows."""
        trunks = [self._trunk(view, tape) for view in views]
        pairs = [pair for _, _, pair in trunks if pair is not None]
        edge_logp = self._edge_log_probs(pairs, tape) if pairs else None   # (1, K, sum P, E)
        out, offset = [], 0
        for view, node_type, observed, (node_logp, mix_logw, _) in zip(
                views, node_types, observed_edges, trunks, strict=True):
            ll = self._heads_log_likelihood([view], [node_type], [observed],
                                            node_logp, mix_logw, edge_logp, offset)
            offset += view.size - 1           # the view's pairs: its other nodes
            out.append(ad.reshape(ll, ()))
        return out

    def step_log_likelihood(self, view, node_type, observed_edges,
                            tape: Tape | None = None):
        """log p(node type) + log sum_k alpha_k prod_j p_k(e_j), stabilized.

        `view` may also be a sequence of views of one size, with one node
        type and one observed-edge dict per view. They are computed untaped,
        in the stacks of `stack_chunks`, and the result is a list of 0-d
        tensors, each with the bits of its own call."""
        if isinstance(view, DenoisingView):
            return ad.reshape(self._stack_log_likelihood([view], [node_type],
                                                         [observed_edges], tape), ())
        if tape is not None:
            raise ValueError("a stack of views is computed untaped")
        out: list[Tensor] = []
        for lo, chunk in stack_chunks(view):
            hi = lo + len(chunk)
            ll = self._stack_log_likelihood(chunk, node_type[lo:hi],
                                            observed_edges[lo:hi], None)
            out.extend(Tensor(v) for v in ll.data)
        return out

    def sample_step(self, view, rng, edge_mask=None):
        """Sample (node type, {prev node -> edge state}); one mixture component
        is drawn and all edges of the step come from it. Slots named in
        `edge_mask` are forced ABSENT.

        `view` may also be a sequence of views of one size, with `rng` a
        sequence of one generator per view and no `edge_mask`. The views are
        drawn in the stacks of `stack_chunks`, each stack before the next is
        computed, so at most one stack's features are held at a time. The
        result is the list of draws, each equal to its own call, with each
        generator left where its own call leaves it."""
        if isinstance(view, DenoisingView):
            return StepSampler(self, view).draw(rng, edge_mask)
        if edge_mask is not None:
            raise ValueError("a stack of views is drawn without an edge mask")
        draws = []
        for lo, chunk in stack_chunks(view):
            trunk = self._stack_trunk(chunk, None)
            draws.extend(StepSampler(self, v, trunk, b).draw(rng[lo + b])
                         for b, v in enumerate(chunk))
            del trunk              # freed before the next stack is computed
        return draws


# Most (view, node, node) pairs, B * m^2, in one stacked forward. A GAT
# round holds a few KB of transient arrays per pair at the default widths:
# one infer-paper benchmark operation (2-core x86 host, one BLAS thread)
# peaked at 58.9 MB one view at a time, 60.2 MB at this budget and 62.2 MB
# at 1,024.
STACK_PAIR_BUDGET = 512


def stack_chunks(views) -> list[tuple[int, tuple]]:
    """Split views of one size, in order, into stacks of at most
    STACK_PAIR_BUDGET pairs; a view larger than the budget is a stack of one.
    Returns (index of the stack's first view, stack) pairs."""
    views = tuple(views)
    if len({v.size for v in views}) > 1:
        raise ValueError("a stack holds views of one size")
    step = max(1, STACK_PAIR_BUDGET // views[0].size ** 2) if views else 1
    return [(lo, views[lo:lo + step]) for lo in range(0, len(views), step)]


class StepSampler:
    """One reverse step's distributions, for drawing from repeatedly.

    The node head and the mixture weights are computed up front. A draw uses
    one mixture component, so each component's edge head is computed the
    first time that component is drawn, and kept. The draws, and the rng
    values they consume, are those of sampling from `predict_step`.
    """

    def __init__(self, net: DenoiserNet, view: DenoisingView, trunk=None, b: int = 0):
        """`trunk` is a `_stack_trunk` over a stack whose slice b is `view`;
        without one, the view's own trunk is computed."""
        node_logp, mix_logw, pair = net._trunk(view, None) if trunk is None else trunk
        self._net = net
        self.node_probs = np.exp(node_logp.data[b])
        self.mixture_weights = None if mix_logw is None else np.exp(mix_logw.data[b])
        self._pair = None if pair is None else Tensor(pair.data[b:b + 1])
        self.prev_nodes = tuple(view.prev_nodes())
        self._edge_probs: dict[int, np.ndarray] = {}

    def edge_probs(self, k: int) -> np.ndarray:
        """Component k's (P, E) edge-state probabilities."""
        probs = self._edge_probs.get(k)
        if probs is None:
            logp = ad.log_softmax(self._net._edge_logits(self._pair, k, None))
            probs = self._edge_probs[k] = np.exp(logp.data[0])
        return probs

    def draw(self, rng: np.random.Generator, edge_mask=None):
        """(node type, {prev node -> edge state}), as `DenoiserNet.sample_step`.
        Each draw is `rng.choice(k, p=p)`'s, by `categorical_cdf`."""
        node_type = int(categorical_cdf(self.node_probs).searchsorted(rng.random(), side="right"))
        if not self.prev_nodes:
            return node_type, {}
        forbidden = set(edge_mask) if edge_mask is not None else set()
        k = int(categorical_cdf(self.mixture_weights).searchsorted(rng.random(), side="right"))
        cdf = categorical_cdf(self.edge_probs(k))
        assignment = {}
        for j, v in enumerate(self.prev_nodes):
            if v in forbidden:
                assignment[v] = ABSENT
            else:
                assignment[v] = int(cdf[j].searchsorted(rng.random(), side="right"))
        return node_type, assignment
