"""Print how many public `agd.autodiff` ops one call of each of the models'
entry points makes, on fixed seeded inputs. The count is perfbench's
`autodiff.op_calls`, from its tracer: nested calls count too, so an op that
calls other public ops (`tmean`, `softmax`) counts once for itself and
once for each op it calls. Every wrapped op is put back after each call.

    python3 tools/op_counts.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
for _path in (str(_ROOT / "src"), str(_ROOT / "perfbench")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np

from agd.autodiff import Tape
from agd.denoiser import DenoiserConfig, DenoiserNet
from agd.graphs import (absorb_node, denoising_view, forward_trajectory,
                        initial_state, new_graph)
from agd.ordering import OrderingConfig, OrderingNet
from agd.training import loss_views, observed_step
from tracer import Tracer


def count_ops(fn) -> int:
    """The public autodiff ops that `fn()` calls, nested calls included,
    counted by perfbench's tracer, which is installed only while `fn` runs."""
    tracer = Tracer("op_counts")
    tracer.install()
    try:
        fn()
    finally:
        tracer.restore()
    return tracer.counts["autodiff.op"]


def _graph(n: int, seed: int, node_types: int, edge_types: int):
    rng = np.random.default_rng(seed)
    types = rng.integers(0, node_types, size=n).tolist()
    edges = [(i, j, int(rng.integers(1, edge_types))) for i in range(n)
             for j in range(i + 1, n) if j == i + 1 or rng.random() < 0.3]
    return new_graph(types, edges, node_types, edge_types)


def _last_step(graph, node: int):
    """The view that denoises `node` out of the graph with only it masked,
    with its labels."""
    state = absorb_node(initial_state(graph), node)
    return (denoising_view(state, node),) + observed_step(graph, state, node)


def rows() -> list[tuple[str, int]]:
    """(call, ops) for each entry point, on inputs fixed by their seeds."""
    tiny_order = OrderingNet.init(
        OrderingConfig(num_node_types=2, layers=1, heads=1, hidden=2, embed_dim=2,
                       pe_dim=2), np.random.default_rng(106))
    pair = new_graph([0, 1], [(0, 1, 1)], 2, 3)
    order = OrderingNet.init(OrderingConfig(num_node_types=1), np.random.default_rng(1))
    g12 = _graph(12, 2, 1, 2)
    ordering = np.random.default_rng(3).permutation(12).tolist()
    gat = DenoiserNet.init(DenoiserConfig(2, 3), np.random.default_rng(4))
    gru = DenoiserNet.init(DenoiserConfig.for_typed_graphs(2, 3), np.random.default_rng(5))
    g7 = _graph(7, 6, 2, 3)
    view7 = _last_step(g7, 3)
    g4 = _graph(4, 7, 2, 3)
    terms = list(loss_views(forward_trajectory(g4, [2, 0, 3, 1]), [1, 2, 3, 4]))
    taped_labels = [observed_step(g4, state, cand) for _, state, cand, _ in terms]
    state = absorb_node(absorb_node(absorb_node(initial_state(g7), 1), 4), 6)
    stack = [denoising_view(state, v) for v in (1, 4, 6)]
    return [
        ("sample_ordering, 2 nodes, criterion 06's widths",
         count_ops(lambda: tiny_order.sample_ordering(pair, np.random.default_rng(8)))),
        ("node_scores, n = 12, 6 absorbed, paper widths",
         count_ops(lambda: order.node_scores(g12, ordering[:6]))),
        ("ordering_log_prob, n = 12, paper widths",
         count_ops(lambda: order.ordering_log_prob(g12, ordering, Tape()))),
        ("step_log_likelihood, 7-node view, gat, paper widths",
         count_ops(lambda: gat.step_log_likelihood(*view7, Tape()))),
        ("step_log_likelihood, 7-node view, gru-gate, paper widths",
         count_ops(lambda: gru.step_log_likelihood(*view7, Tape()))),
        ("taped_log_likelihoods, 4-step trajectory, gat, paper widths",
         count_ops(lambda: gat.taped_log_likelihoods(
             [view for view, *_ in terms], *zip(*taped_labels), Tape()))),
        ("sample_step, stack of three 5-node views, gat, paper widths",
         count_ops(lambda: gat.sample_step(
             stack, [np.random.default_rng(s) for s in (9, 10, 11)]))),
    ]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    table = rows()
    width = max(len(call) for call, _ in table)
    print(f"{'call':<{width}}  ops")
    for call, ops in table:
        print(f"{call:<{width}}  {ops}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
