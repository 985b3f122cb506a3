"""Print best-of-N wall times of the models' hot layers, one BLAS thread.

    python3 tools/layer_times.py [--repeats N] [--tiny]

The graphs are seeded community-small graphs of (12, 22) and (16, 40)
(nodes, edges) and one 16-node hub graph, whose node 0 neighbours every other
node. The layers, each timed on each graph:

  node_scores, B = 1      one prefix, half the nodes absorbed
  node_scores, B = n      every prefix of one ordering, untaped
  log_prob + backward     `ordering_log_prob` on a tape, and its gradients
  gat pass, one view      the GAT message pass over the view of the last
                          reverse step, which has all n nodes
  gat pass, stack         the GAT message pass over the n/2 views of the
                          state with n/2 nodes absorbed
  gru pass, stack         the gated-GRU message pass over the same stack

The widths are the paper defaults, or the test configs with `--tiny`. The
times are each call's least over N repeats, in milliseconds.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from agd.autodiff import Tape  # noqa: E402
from agd.datasets import gen_community_small  # noqa: E402
from agd.denoiser import DenoiserConfig, DenoiserNet  # noqa: E402
from agd.graphs import (absorb_node, denoising_view, initial_state,  # noqa: E402
                        new_graph)
from agd.ordering import OrderingConfig, OrderingNet  # noqa: E402


def community_graph(rng, n: int, m: int):
    """A community-small graph of n nodes and m edges, drawn until one fits."""
    while True:
        g = gen_community_small(rng, 1, (n, n)).graphs[0]
        if g.m == m:
            return g


def hub_graph(rng, n: int):
    """n nodes; node 0 neighbours all others, which are joined at rate 0.25."""
    edges = {(0, j) for j in range(1, n)}
    edges |= {(i, j) for i in range(1, n) for j in range(i + 1, n) if rng.random() < 0.25}
    return new_graph([0] * n, [(i, j, 1) for i, j in sorted(edges)], 1, 2)


def best_ms(fn, repeats: int) -> float:
    """The least wall time of `repeats` calls of `fn`, in milliseconds."""
    fn()                                     # warm caches and lazy imports
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def nets(tiny: bool):
    """(ordering net, GAT denoiser, gated-GRU denoiser), seeded."""
    if tiny:
        order = OrderingConfig(1, layers=1, heads=2, hidden=3, embed_dim=2, pe_dim=2)
        widths = dict(layers=1, hidden=6, mlp_hidden=8, mixtures=2)
    else:
        order, widths = OrderingConfig(1), {}
    return (OrderingNet.init(order, np.random.default_rng(1)),
            DenoiserNet.init(DenoiserConfig(1, 2, **widths), np.random.default_rng(2)),
            DenoiserNet.init(DenoiserConfig(1, 2, aggregator="gru-gate", **widths),
                             np.random.default_rng(3)))


def layer_calls(graph, order: OrderingNet, gat: DenoiserNet, gru: DenoiserNet, rng):
    """(layer, zero-argument call) for each layer on `graph`."""
    n = graph.n
    ordering = rng.permutation(n).tolist()
    prefixes = [ordering[:t] for t in range(n)]
    last = denoising_view(absorb_node(initial_state(graph), ordering[0]), ordering[0])
    state = initial_state(graph)
    for v in ordering[:n // 2]:
        state = absorb_node(state, v)
    stack = [denoising_view(state, v) for v in ordering[:n // 2]]

    def log_prob_backward():
        tape = Tape()
        for p in order.params.values():
            tape.register(p)
        tape.gradients(order.ordering_log_prob(graph, ordering, tape))

    return [
        ("node_scores, B = 1", lambda: order.node_scores(graph, ordering[:n // 2])),
        ("node_scores, B = n", lambda: order._stack_node_scores(graph, prefixes)),
        ("log_prob + backward", log_prob_backward),
        ("gat pass, one view", lambda: gat.message_pass(last)),
        ("gat pass, stack", lambda: gat.message_pass(stack)),
        ("gru pass, stack", lambda: gru.message_pass(stack)),
    ]


def rows(repeats: int, tiny: bool) -> list[tuple[str, list[float]]]:
    """(layer, milliseconds on each graph) for every layer."""
    rng = np.random.default_rng(7)
    graphs = [community_graph(rng, 12, 22), community_graph(rng, 16, 40), hub_graph(rng, 16)]
    models = nets(tiny)
    table: dict[str, list[float]] = {}
    for graph in graphs:
        for layer, fn in layer_calls(graph, *models, np.random.default_rng(graph.n)):
            table.setdefault(layer, []).append(best_ms(fn, repeats))
    return list(table.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="calls per layer and graph")
    parser.add_argument("--tiny", action="store_true", help="the test configs' widths")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    table = rows(args.repeats, args.tiny)
    width = max(len(layer) for layer, _ in table)
    print(f"{'layer (ms)':<{width}}  {'c12-22':>8}  {'c16-40':>8}  {'hub16':>8}")
    for layer, times in table:
        print(f"{layer:<{width}}  " + "  ".join(f"{t:8.2f}" for t in times))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
