"""The README's tape-entry figures, measured: each is the entry count of one
taped forward plus backward on the inputs its sentence names, so a change
to the op graph that leaves a figure stale fails here."""

import re
from pathlib import Path

import numpy as np
import pytest

from agd.autodiff import Tape
from agd.denoiser import DenoiserConfig, DenoiserNet
from agd.graphs import forward_trajectory, new_graph
from agd.ordering import OrderingConfig, OrderingNet
from agd.training import denoiser_loss
from tests.test_ordering import random_graph


def _readme_figures(pattern: str) -> tuple[int, ...]:
    """The numbers that `pattern`'s groups capture in the one README passage
    it matches, with line breaks read as spaces."""
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    found = list(re.finditer(pattern, text))
    assert len(found) == 1, f"the README has {len(found)} passages matching {pattern!r}"
    return tuple(int(group.replace(",", "")) for group in found[0].groups())


def _entries_after_backward(net, loss_fn) -> int:
    tape = Tape()
    for p in net.params.values():
        tape.register(p)
    tape.gradients(loss_fn(tape))
    return len(tape._entries)


@pytest.mark.parametrize("n, seeds, hub, pattern", [
    # tests/test_ordering.py's tape-size guards use these graphs and nets
    (20, (42, 43), 8, r"on a 20-node graph at the default widths records ([\d,]+) tape entries"),
    (12, (57, 58), 9, r"At n=12 and the default widths, `ordering_log_prob` plus backward "
                      r"records ([\d,]+) tape entries"),
], ids=["n20", "n12"])
def test_ordering_log_prob_entries(n, seeds, hub, pattern):
    g = random_graph(np.random.default_rng(seeds[0]), n, hub_degree=hub)
    net = OrderingNet.init(OrderingConfig(num_node_types=2), np.random.default_rng(seeds[1]))
    entries = _entries_after_backward(net, lambda tape: net.ordering_log_prob(g, range(n), tape))
    assert (entries,) == _readme_figures(pattern)


@pytest.mark.parametrize("aggregator, figure", [("gat", 0), ("gru-gate", 1)])
def test_denoiser_loss_entries(aggregator, figure):
    # the 16-node graph and four timesteps of tests/test_denoiser.py's tape-size guard
    rng = np.random.default_rng(5)
    n = 16
    edges = [(0, j, 1) for j in range(1, 10)] + [
        (i, j, 1) for i in range(1, n) for j in range(i + 1, n) if rng.random() < 0.2]
    g = new_graph([0] * n, edges, 1, 2)
    net = DenoiserNet.init(DenoiserConfig(1, 2, aggregator=aggregator),
                           np.random.default_rng(6))
    entries = _entries_after_backward(net, lambda tape: denoiser_loss(
        g, forward_trajectory(g, range(n)), (4, 8, 12, 16), net, tape=tape))
    assert entries == _readme_figures(
        r"records ([\d,]+) tape entries \(GAT\) and ([\d,]+) \(gated GRU\)")[figure]
