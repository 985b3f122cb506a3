"""Likelihood estimation: expected NLL over sampled orderings, an
importance-sampled marginal, an exact enumeration oracle for small graphs,
and a diagnostic comparing the denoiser's implied generation order with the
learned absorption order.

Every estimator first takes all its orderings: the sampled ones draw them
with `OrderingNet.sample_orderings`, which scores each prefix once however
many draws reach it (an NLL consumes no rng, so the stream is that of
successive `sample_ordering` calls); `exact_marginal` enumerates the n!
permutations. `_ordering_nlls` then returns each distinct ordering's NLL.
It builds the ordering's loss views once (`training.loss_views`, the views
`denoiser_loss` reads), has `training.fill_step_memos` compute every
distinct view into one step memo for the graph, with one stacked
`step_log_likelihood` call per view size, and sums each ordering's NLL from
the memo's floats with `trajectory_nll`. At n=4 exact enumeration reaches
96 views of which 32 are distinct, computed in 4 calls.

The memo is keyed by the `DenoisingView`. A view is fixed by the unmasked
node set and the target, and within one graph those also fix the step's
observed node type and edges, so the memo is valid for one graph and one
denoiser, and only untaped: `denoiser_loss` refuses a memo together with a
tape. The trajectory NLL adds its per-step terms as floats in timestep
order, from the first term, so an NLL read through the shared memo equals
the one computed for the ordering alone bit for bit.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .denoiser import StepSampler
from .graphs import (DiffusionTrajectory, GraphError, LabeledGraph,
                     denoising_view, forward_trajectory)
from .model import ModelBundle
from .training import fill_step_memos, loss_views, weighted_log_likelihood


@dataclass
class NllEstimate:
    nats: float
    std_error: float
    samples: int
    kind: str                     # "expected-nll" | "is-marginal" | "exact"

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error must be nonnegative")


def trajectory_nll(model: ModelBundle, graph: LabeledGraph, ordering,
                   memo: dict | None = None, *, _views=None) -> float:
    """-sum_t log p(step t) along the full trajectory for one ordering: the
    denoiser loss at every timestep, without soft labels. `memo` is a step
    memo for this graph and model (see the module docstring). `_views` are
    the ordering's `loss_views`, when the caller built them."""
    if _views is None:
        _views = loss_views(forward_trajectory(graph, ordering), range(1, graph.n + 1))
    # the denoiser loss at all n timesteps, whose n/T scale is 1
    return -weighted_log_likelihood(graph, _views, model.denoiser, memo=memo)


def _ordering_nlls(model: ModelBundle, graph: LabeledGraph, orderings) -> dict:
    """Each distinct ordering's trajectory NLL, summed through one step memo
    of every view the orderings reach (see the module docstring)."""
    timesteps = range(1, graph.n + 1)
    built: dict[tuple, tuple] = {}        # ordering -> its loss views
    for ordering in orderings:
        if ordering not in built:
            built[ordering] = tuple(loss_views(forward_trajectory(graph, ordering), timesteps))
    memo: dict = {}
    fill_step_memos(model.denoiser, [(graph, views, memo) for views in built.values()])
    return {ordering: trajectory_nll(model, graph, ordering, memo, _views=views)
            for ordering, views in built.items()}


def expected_nll(model: ModelBundle, graph: LabeledGraph, num_orderings: int,
                 rng: np.random.Generator) -> NllEstimate:
    """Monte Carlo mean of the trajectory NLL over orderings sampled from the
    ordering network."""
    if num_orderings < 1:
        raise ValueError("need at least one ordering sample")
    orderings = [trajectory.ordering for trajectory in
                 model.ordering.sample_orderings(graph, rng, num_orderings)]
    nll = _ordering_nlls(model, graph, orderings)
    values = np.array([nll[ordering] for ordering in orderings])
    se = float(values.std(ddof=1) / math.sqrt(num_orderings)) if num_orderings > 1 else 0.0
    return NllEstimate(float(values.mean()), se, num_orderings, "expected-nll")


def is_marginal_likelihood(model: ModelBundle, graph: LabeledGraph,
                           num_orderings: int,
                           rng: np.random.Generator) -> NllEstimate:
    """-log of the importance-sampled marginal likelihood, with the ordering
    network as the proposal: p(G) ~ mean_s p(G, sigma_s) / q(sigma_s)."""
    if num_orderings < 1:
        raise ValueError("need at least one ordering sample")
    samples = model.ordering.sample_orderings(graph, rng, num_orderings)
    nll = _ordering_nlls(model, graph, [s.ordering for s in samples])
    # log q summed left to right from 0.0, as the draw produced it
    logw = np.array([-nll[s.ordering] - reduce(operator.add, s.step_log_probs, 0.0)
                     for s in samples])
    m = logw.max()
    scaled = np.exp(logw - m)
    log_mean = m + math.log(scaled.mean())
    # delta method on the log of the weight mean
    se = float(scaled.std(ddof=1) / (scaled.mean() * math.sqrt(num_orderings))) \
        if num_orderings > 1 else 0.0
    return NllEstimate(-log_mean, se, num_orderings, "is-marginal")


def exact_marginal(model: ModelBundle, graph: LabeledGraph,
                   limit: int = 6) -> NllEstimate:
    """-log sum over all n! orderings of the joint p(G, sigma); the ground
    truth the importance-sampled estimate converges to."""
    if graph.n > limit:
        raise GraphError(f"exact enumeration limited to n <= {limit}")
    log_terms = [-nll for nll in _ordering_nlls(
        model, graph, itertools.permutations(range(graph.n))).values()]
    m = max(log_terms)
    total = m + math.log(sum(math.exp(v - m) for v in log_terms))
    return NllEstimate(-total, 0.0, len(log_terms), "exact")


def ordering_kl_diagnostic(model: ModelBundle, graph: LabeledGraph,
                           samples_per_step: int, rng: np.random.Generator,
                           trajectory: DiffusionTrajectory | None = None):
    """Per-step divergence between the absorption order and the denoiser's
    implied generation order, along one reference trajectory.

    At step t the still-masked nodes of G_t are the candidates; repeated
    denoiser samples are attributed to candidates whose original connectivity
    to the unmasked nodes matches the sampled edge pattern exactly (ties split
    uniformly), giving an add-one-smoothed empirical reveal distribution. The
    ordering network's step conditional, restricted to those candidates, is a
    point mass on the reference node, so the step divergence reduces to
    -log p_hat(reference node). Returns (per-step values, their sum).
    """
    if samples_per_step < 1:
        raise ValueError("need at least one sample per step")
    if trajectory is None:
        trajectory = model.ordering.sample_ordering(graph, rng)
    per_step = []
    for t in range(1, graph.n + 1):
        state = trajectory.states[t]
        reference = trajectory.ordering[t - 1]
        candidates = sorted(state.masked_nodes())
        unmasked = state.unmasked_nodes()
        patterns = {c: tuple(graph.edge_type(c, j) for j in unmasked)
                    for c in candidates}
        sampler = StepSampler(model.denoiser, denoising_view(state, reference))
        counts = {c: 0.0 for c in candidates}
        for _ in range(samples_per_step):
            _, assignment = sampler.draw(rng)
            sampled = tuple(assignment[j] for j in unmasked)
            matches = [c for c in candidates if patterns[c] == sampled]
            for c in matches:
                counts[c] += 1.0 / len(matches)
        p_ref = (counts[reference] + 1.0) / (samples_per_step + len(candidates))
        per_step.append(-math.log(p_ref))
    return per_step, float(sum(per_step))
