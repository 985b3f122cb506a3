"""Likelihood estimation: expected NLL over sampled orderings, an
importance-sampled marginal, an exact enumeration oracle for small graphs,
and a diagnostic comparing the denoiser's implied generation order with the
learned absorption order.

Ordering samples, per-ordering NLLs and per-view step log-likelihoods are
memoized per call: graphs small enough for these estimators revisit the same
prefixes constantly, and the networks are deterministic, so the caches change
nothing but the runtime. The step memo is keyed by the `DenoisingView`. A
view is fixed by the unmasked node set and the target, and within one graph
those also fix the step's observed node type and edges. So the memo is valid
for one graph and one denoiser, which is the lifetime of an `_OrderingCache`,
and only untaped: `denoiser_loss` refuses a memo together with a tape. The
trajectory NLL still adds its per-step terms in timestep order, so an NLL
read through the memo equals the one computed without it bit for bit. On
exact enumeration this cuts n * n! denoiser forwards to the n * 2^(n-1)
distinct views (96 to 32 at n=4).

Every estimator takes all its orderings first: the sampled ones draw them
(an NLL consumes no rng, so the stream is unchanged), `exact_marginal`
enumerates the n! permutations. It then fills the memo with every view those
orderings reach (`training.loss_views`, the views `denoiser_loss` reads),
computing the missing views of each size in one stacked
`step_log_likelihood` call, whose slices carry the bits of single views. At
n=4 that is 4 calls for the 32 views. Each ordering's views are built once,
by the fill, and its NLL is summed from them through the memo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .denoiser import StepSampler
from .graphs import (DiffusionTrajectory, GraphError, LabeledGraph,
                     denoising_view, forward_trajectory, observed_step)
from .model import ModelBundle
from .training import loss_views, weighted_log_likelihood


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
    the ordering's `loss_views`, when `_OrderingCache.fill` built them."""
    if _views is None:
        _views = loss_views(forward_trajectory(graph, ordering), range(1, graph.n + 1))
    # the denoiser loss at all n timesteps, whose n/T scale is 1
    return -weighted_log_likelihood(graph, _views, model.denoiser, memo=memo).item()


class _OrderingCache:
    """Memoized per-prefix step distributions of the ordering network, and
    per-ordering NLLs over a per-view step memo of the denoiser."""

    def __init__(self, model: ModelBundle, graph: LabeledGraph):
        self.model = model
        self.graph = graph
        self.steps: dict[tuple, tuple] = {}
        self.nll: dict[tuple, float] = {}
        self.views: dict = {}            # DenoisingView -> step log-likelihood
        self.built: dict[tuple, tuple] = {}   # ordering -> its loss views, until summed
        self.weights = model.ordering.layer_weights()

    def step(self, prefix: tuple):
        cached = self.steps.get(prefix)
        if cached is None:
            remaining, logp = self.model.ordering.step_log_probs(self.graph, prefix,
                                                                 weights=self.weights)
            cached = (remaining, np.exp(logp.data), logp.data)
            self.steps[prefix] = cached
        return cached

    def sample(self, rng: np.random.Generator):
        prefix: tuple = ()
        logq = 0.0
        for _ in range(self.graph.n):
            remaining, probs, logp = self.step(prefix)
            idx = int(rng.choice(len(remaining), p=probs / probs.sum()))
            logq += float(logp[idx])
            prefix = prefix + (remaining[idx],)
        return prefix, logq

    def fill(self, orderings) -> None:
        """Build the loss views of each ordering once, and memoize every view
        their trajectory NLLs read, computing the missing views of each size
        as one stack."""
        pending: dict = {}                # DenoisingView -> (node type, edges)
        timesteps = range(1, self.graph.n + 1)
        for ordering in orderings:
            if ordering in self.built:
                continue
            views = tuple(loss_views(forward_trajectory(self.graph, ordering), timesteps))
            self.built[ordering] = views
            for view, state, target, _ in views:
                if view not in self.views and view not in pending:
                    pending[view] = observed_step(self.graph, state, target)
        by_size: dict[int, list] = {}
        for view in pending:
            by_size.setdefault(view.size, []).append(view)
        for views in by_size.values():
            node_types, edges = zip(*(pending[v] for v in views))
            self.views.update(zip(views, self.model.denoiser.step_log_likelihood(
                tuple(views), node_types, edges)))

    def ordering_nll(self, ordering: tuple) -> float:
        cached = self.nll.get(ordering)
        if cached is None:
            cached = trajectory_nll(self.model, self.graph, ordering, self.views,
                                    _views=self.built.pop(ordering, None))
            self.nll[ordering] = cached
        return cached


def expected_nll(model: ModelBundle, graph: LabeledGraph, num_orderings: int,
                 rng: np.random.Generator) -> NllEstimate:
    """Monte Carlo mean of the trajectory NLL over orderings sampled from the
    ordering network."""
    if num_orderings < 1:
        raise ValueError("need at least one ordering sample")
    cache = _OrderingCache(model, graph)
    orderings = [cache.sample(rng)[0] for _ in range(num_orderings)]
    cache.fill(orderings)
    values = np.array([cache.ordering_nll(ordering) for ordering in orderings])
    se = float(values.std(ddof=1) / math.sqrt(num_orderings)) if num_orderings > 1 else 0.0
    return NllEstimate(float(values.mean()), se, num_orderings, "expected-nll")


def is_marginal_likelihood(model: ModelBundle, graph: LabeledGraph,
                           num_orderings: int,
                           rng: np.random.Generator) -> NllEstimate:
    """-log of the importance-sampled marginal likelihood, with the ordering
    network as the proposal: p(G) ~ mean_s p(G, sigma_s) / q(sigma_s)."""
    if num_orderings < 1:
        raise ValueError("need at least one ordering sample")
    cache = _OrderingCache(model, graph)
    samples = [cache.sample(rng) for _ in range(num_orderings)]
    cache.fill(ordering for ordering, _ in samples)
    logw = np.array([-cache.ordering_nll(ordering) - logq for ordering, logq in samples])
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
    cache = _OrderingCache(model, graph)
    orderings = list(itertools.permutations(range(graph.n)))
    cache.fill(orderings)
    log_terms = [-cache.ordering_nll(sigma) for sigma in orderings]
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
