import math
from dataclasses import replace

import numpy as np

from agd.denoiser import DenoiserConfig, DenoiserNet
from agd.generate import generate
from agd.graphs import new_graph
from agd.metrics import MmdReport, mmd_report

from checks import (all_finite, equals_replay, exact_bounds_expected,
                    mmd_self_zero, respects_max_degree, size_from_pool)
from workloads import community_graphs


def tiny_trace(n=6, max_degree=None, seed=0):
    denoiser = DenoiserNet.init(DenoiserConfig(1, 2, layers=1, hidden=8, mlp_hidden=8,
                                               mixtures=2), np.random.default_rng(0))
    return generate(denoiser, n, np.random.default_rng(seed), max_degree=max_degree)


def test_all_finite():
    assert all_finite([0.0, -3.5, 1e300])
    assert all_finite([])
    assert not all_finite([1.0, math.nan])
    assert not all_finite([math.inf])
    assert not all_finite([None])


def test_size_from_pool():
    trace = tiny_trace(n=6)
    assert size_from_pool(trace, (4, 6, 8))
    assert not size_from_pool(trace, (4, 8))


def test_respects_max_degree():
    capped = tiny_trace(n=8, max_degree=2)
    assert respects_max_degree(capped, 2)
    star = replace(capped, graph=new_graph([0] * 4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)], 1, 2))
    assert not respects_max_degree(star, 2)
    assert respects_max_degree(star, 3)


def test_equals_replay():
    trace = tiny_trace(n=6, seed=3)
    assert equals_replay(trace)
    other = tiny_trace(n=6, seed=4)
    assert trace.graph != other.graph
    assert not equals_replay(replace(trace, graph=other.graph))


def test_exact_bounds_expected():
    assert exact_bounds_expected(10.0, 12.5)
    assert exact_bounds_expected(12.5, 12.5)
    # a mean that rounds one ulp below the smallest trajectory NLL still passes
    assert exact_bounds_expected(12.5, math.nextafter(12.5, 0.0))
    assert not exact_bounds_expected(12.6, 12.5)


def test_mmd_self_zero():
    graphs = community_graphs(np.random.default_rng(0), ((6, 5), (8, 8)))
    assert mmd_self_zero(mmd_report(graphs, graphs))
    report = MmdReport(0.0, 0.0, 1e-17, 1.0, 2, 2)
    assert not mmd_self_zero(report)
