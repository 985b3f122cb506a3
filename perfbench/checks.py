"""Output checks the benchmark applies to every operation it runs.

Each check returns True when the output is correct. A failed check counts
toward the run's `failed` total like a failed operation.
"""

from __future__ import annotations

import math

from agd.generate import GenerationTrace, replay

# `expected_nll` averages trajectory NLLs with numpy's mean, which may round
# below the smallest of several (near-)equal values by a few ulps; the exact
# marginal is at most that smallest value.
MEAN_ROUNDING = 1e-12


def all_finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def size_from_pool(trace: GenerationTrace, sizes) -> bool:
    return trace.graph.n in set(sizes)


def respects_max_degree(trace: GenerationTrace, max_degree: int) -> bool:
    g = trace.graph
    return all(g.degree(v) <= max_degree for v in range(g.n))


def equals_replay(trace: GenerationTrace) -> bool:
    g = trace.graph
    return replay(trace, g.num_node_types, g.num_edge_types) == g


def exact_bounds_expected(exact_nats: float, expected_nats: float) -> bool:
    """The exact marginal NLL lower-bounds every trajectory NLL, hence their
    mean over sampled orderings."""
    return exact_nats <= expected_nats + MEAN_ROUNDING * abs(expected_nats)


def mmd_self_zero(report) -> bool:
    """`mmd_report(ref, ref)` must be exactly 0 for every descriptor."""
    return report.degree == 0.0 and report.clustering == 0.0 and report.orbit == 0.0
