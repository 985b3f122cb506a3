import builtins
import itertools
import math

import numpy as np
import pytest

import agd.likelihood as likelihood
import agd.training as training
from agd.autodiff import Tape
from agd.denoiser import STACK_PAIR_BUDGET, DenoiserConfig, DenoiserNet
from agd.graphs import (DenoisingView, GraphError, denoising_view, forward_trajectory,
                        new_graph)
from agd.likelihood import (NllEstimate, exact_marginal, expected_nll,
                            is_marginal_likelihood, ordering_kl_diagnostic,
                            trajectory_nll)
from agd.model import ModelBundle
from agd.ordering import OrderingConfig, OrderingNet
from agd.training import denoiser_loss


def tiny_model(num_node_types=1, num_edge_types=2, seed=0) -> ModelBundle:
    rng = np.random.default_rng(seed)
    return ModelBundle.init(
        OrderingConfig(num_node_types=num_node_types, layers=1, heads=2,
                       hidden=3, embed_dim=4, pe_dim=4),
        DenoiserConfig(num_node_types=num_node_types,
                       num_edge_types=num_edge_types,
                       layers=1, hidden=5, mlp_hidden=6, mixtures=2),
        rng)


def zero_node_head(model):
    for name in ("nh1", "nh1b", "nh2", "nh2b"):
        model.denoiser.params[name].data[:] = 0.0


def enumerate_expected_nll(model, graph):
    total = 0.0
    for sigma in itertools.permutations(range(graph.n)):
        q = math.exp(model.ordering.ordering_log_prob(graph, sigma).item())
        total += q * trajectory_nll(model, graph, sigma)
    return total


class TestExpectedNll:
    def test_perfect_model_is_zero(self):
        model = tiny_model(num_node_types=1)
        g = new_graph([0], [], 1, 2)
        est = expected_nll(model, g, 5, np.random.default_rng(0))
        assert est.nats == 0.0 and est.std_error == 0.0

    def test_single_node_uniform_head_is_ln2(self):
        model = tiny_model(num_node_types=2)
        zero_node_head(model)
        g = new_graph([1], [], 2, 2)
        est = expected_nll(model, g, 3, np.random.default_rng(0))
        assert abs(est.nats - math.log(2)) < 1e-12

    def test_monte_carlo_matches_enumeration(self):
        model = tiny_model(num_node_types=2, num_edge_types=2, seed=3)
        g = new_graph([0, 1, 0], [(0, 1, 1), (1, 2, 1)], 2, 2)
        exact = enumerate_expected_nll(model, g)
        est = expected_nll(model, g, 4000, np.random.default_rng(1))
        assert abs(est.nats - exact) < 3 * est.std_error + 1e-9

    def test_estimator_kind_and_determinism(self):
        model = tiny_model(seed=5)
        g = new_graph([0, 0], [(0, 1, 1)], 1, 2)
        a = expected_nll(model, g, 50, np.random.default_rng(7))
        b = expected_nll(model, g, 50, np.random.default_rng(7))
        assert a == b and a.kind == "expected-nll"


class TestIsMarginal:
    def test_single_node_exact_for_any_sample_count(self):
        model = tiny_model(num_node_types=2)
        g = new_graph([1], [], 2, 2)
        direct = trajectory_nll(model, g, [0])
        for s in (1, 7):
            est = is_marginal_likelihood(model, g, s, np.random.default_rng(s))
            assert abs(est.nats - direct) < 1e-12

    def test_symmetric_two_node_case_has_zero_variance(self):
        model = tiny_model(num_node_types=1, seed=11)
        g = new_graph([0, 0], [(0, 1, 1)], 1, 2)
        est = is_marginal_likelihood(model, g, 64, np.random.default_rng(3))
        oracle = exact_marginal(model, g)
        assert est.std_error < 1e-12
        assert abs(est.nats - oracle.nats) < 1e-12

    def test_converges_to_exact_marginal(self):
        model = tiny_model(num_node_types=2, num_edge_types=3, seed=13)
        g = new_graph([0, 1, 1], [(0, 1, 1), (1, 2, 2)], 2, 3)
        oracle = exact_marginal(model, g)
        est = is_marginal_likelihood(model, g, 10_000, np.random.default_rng(5))
        assert abs(est.nats - oracle.nats) < 0.02 * abs(oracle.nats)


class TestExactMarginal:
    def test_two_node_hand_value(self):
        model = tiny_model(num_node_types=1, seed=17)
        g = new_graph([0, 0], [(0, 1, 1)], 1, 2)
        p = sum(math.exp(-trajectory_nll(model, g, sigma))
                for sigma in itertools.permutations(range(2)))
        oracle = exact_marginal(model, g)
        assert abs(oracle.nats - (-math.log(p))) < 1e-12
        assert oracle.kind == "exact" and oracle.std_error == 0.0

    def test_uniform_edge_head_hand_value(self):
        model = tiny_model(num_node_types=1, seed=19)
        for k in range(model.denoiser.config.mixtures):
            for suffix in ("_1", "_1b", "_2", "_2b"):
                model.denoiser.params[f"eh{k}{suffix}"].data[:] = 0.0
        g = new_graph([0, 0], [(0, 1, 1)], 1, 2)
        # each ordering: p(edge) = 1/2, so the summed joint is exactly 1
        assert abs(exact_marginal(model, g).nats) < 1e-12

    def test_never_runs_the_ordering_network(self, monkeypatch):
        model = tiny_model(num_node_types=2, num_edge_types=3, seed=31)
        g = typed_graph(4, seed=3)

        def refuse(*args, **kwargs):
            raise AssertionError("exact enumeration needs no ordering network")

        monkeypatch.setattr(OrderingNet, "layer_weights", refuse)
        monkeypatch.setattr(OrderingNet, "node_scores", refuse)
        assert math.isfinite(exact_marginal(model, g).nats)

    def test_size_limit(self):
        model = tiny_model()
        g = new_graph([0] * 7, [], 1, 2)
        with pytest.raises(Exception):
            exact_marginal(model, g, limit=6)

    def test_jensen_inequality(self):
        for seed in (23, 29):
            model = tiny_model(num_node_types=2, num_edge_types=2, seed=seed)
            g = new_graph([0, 1, 0], [(0, 1, 1), (0, 2, 1)], 2, 2)
            expected = enumerate_expected_nll(model, g)
            oracle = exact_marginal(model, g)
            nlls = [trajectory_nll(model, g, s)
                    for s in itertools.permutations(range(3))]
            assert expected >= oracle.nats - 1e-12
            if max(nlls) - min(nlls) > 1e-9:
                assert expected > oracle.nats


class TestNllEstimate:
    def test_negative_std_error_rejected(self):
        with pytest.raises(ValueError):
            NllEstimate(1.0, -0.1, 3, "exact")


class TestOrderingKlDiagnostic:
    def test_single_node_graph_is_exactly_zero(self):
        model = tiny_model()
        g = new_graph([0], [], 1, 2)
        per_step, total = ordering_kl_diagnostic(model, g, 32,
                                                 np.random.default_rng(0))
        assert per_step == [0.0] and total == 0.0

    def test_saturated_denoiser_on_unique_patterns_near_zero(self):
        # force "always an edge": every step's pattern matches only the
        # reference node in a path graph generated tail-first
        model = tiny_model(num_node_types=1, seed=31)
        for k in range(model.denoiser.config.mixtures):
            model.denoiser.params[f"eh{k}_2b"].data[:] = np.array([-40.0, 40.0])
        g = new_graph([0, 0], [(0, 1, 1)], 1, 2)
        per_step, total = ordering_kl_diagnostic(model, g, 400,
                                                 np.random.default_rng(1))
        # step 1 (one candidate, pattern forced): -log((S+1)/(S+1)) = 0
        assert per_step[0] < 1e-12
        # step 2 is the fully-masked floor: both candidates tie
        assert abs(per_step[1] - math.log((400 + 2) / (400 / 2 + 1))) < 1e-12

    def test_untrained_model_positive_on_asymmetric_graph(self):
        model = tiny_model(num_node_types=1, num_edge_types=2, seed=37)
        g = new_graph([0, 0, 0, 0], [(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 1)], 1, 2)
        _, total = ordering_kl_diagnostic(model, g, 64, np.random.default_rng(2))
        assert total > 0.0

    def test_deterministic_given_seed(self):
        model = tiny_model(seed=41)
        g = new_graph([0, 0, 0], [(0, 1, 1)], 1, 2)
        a = ordering_kl_diagnostic(model, g, 16, np.random.default_rng(9))
        b = ordering_kl_diagnostic(model, g, 16, np.random.default_rng(9))
        assert a == b


def count_step_log_likelihoods(monkeypatch):
    """Record each view `step_log_likelihood` computes; a stacked call adds
    each of its views."""
    calls = []
    original = DenoiserNet.step_log_likelihood

    def counted(self, *args, **kwargs):
        view = args[0]
        calls.extend([view] if isinstance(view, DenoisingView) else view)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DenoiserNet, "step_log_likelihood", counted)
    return calls


def reference_exact_marginal(model, graph):
    """exact_marginal's sum over all orderings, each NLL computed afresh."""
    log_terms = [-trajectory_nll(model, graph, sigma)
                 for sigma in itertools.permutations(range(graph.n))]
    m = max(log_terms)
    return -(m + math.log(sum(math.exp(v - m) for v in log_terms)))


def reference_ordering_kl_diagnostic(model, graph, samples_per_step, rng):
    """The diagnostic with one `sample_step` call, and so one full denoiser
    forward, per sample."""
    trajectory = model.ordering.sample_ordering(graph, rng)
    per_step = []
    for t in range(1, graph.n + 1):
        state = trajectory.states[t]
        reference = trajectory.ordering[t - 1]
        candidates = sorted(state.masked_nodes())
        unmasked = state.unmasked_nodes()
        patterns = {c: tuple(graph.edge_type(c, j) for j in unmasked)
                    for c in candidates}
        view = denoising_view(state, reference)
        counts = {c: 0.0 for c in candidates}
        for _ in range(samples_per_step):
            _, assignment = model.denoiser.sample_step(view, rng)
            sampled = tuple(assignment[j] for j in unmasked)
            matches = [c for c in candidates if patterns[c] == sampled]
            for c in matches:
                counts[c] += 1.0 / len(matches)
        p_ref = (counts[reference] + 1.0) / (samples_per_step + len(candidates))
        per_step.append(-math.log(p_ref))
    return per_step, float(sum(per_step))


def typed_graph(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j, int(rng.integers(1, 3))) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    return new_graph(rng.integers(0, 2, size=n).tolist(), edges, 2, 3)


class TestStepMemo:
    """The likelihood estimators compute each distinct denoising view once."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exact_marginal_equals_unmemoized_sum(self, n):
        model = tiny_model(num_node_types=2, num_edge_types=3, seed=50 + n)
        g = typed_graph(n, seed=n)
        assert exact_marginal(model, g).nats == reference_exact_marginal(model, g)

    @pytest.mark.parametrize("n, views", [(4, 32), (5, 80)])
    def test_exact_marginal_runs_one_forward_per_distinct_view(self, monkeypatch,
                                                               n, views):
        model = tiny_model(num_node_types=2, num_edge_types=3, seed=61)
        g = typed_graph(n, seed=7)
        calls = count_step_log_likelihoods(monkeypatch)
        exact_marginal(model, g)
        assert len(calls) == views == n * 2 ** (n - 1)
        assert len(set(calls)) == views

    @pytest.mark.parametrize("n", [4, 5])
    def test_exact_marginal_makes_one_call_per_view_size(self, monkeypatch, n):
        model = tiny_model(num_node_types=2, num_edge_types=3, seed=61)
        g = typed_graph(n, seed=7)
        sizes = []
        original = DenoiserNet.step_log_likelihood

        def counted(self, views, *args, **kwargs):
            sizes.append({v.size for v in views})
            return original(self, views, *args, **kwargs)

        monkeypatch.setattr(DenoiserNet, "step_log_likelihood", counted)
        exact_marginal(model, g)
        assert sorted(s for (s,) in sizes) == list(range(1, n + 1))

    @pytest.mark.parametrize("aggregator", ["gat", "gru-gate"])
    def test_exact_marginal_equals_unmemoized_sum_at_default_widths(self, monkeypatch,
                                                                    aggregator):
        model = ModelBundle.init(
            OrderingConfig(num_node_types=2, layers=1, heads=2, hidden=3,
                           embed_dim=4, pe_dim=4),
            DenoiserConfig(num_node_types=2, num_edge_types=3, aggregator=aggregator),
            np.random.default_rng(69))
        g = typed_graph(4, seed=17)
        nlls = {}

        def recorded(model, graph, ordering, *args, **kwargs):
            nlls[ordering] = trajectory_nll(model, graph, ordering, *args, **kwargs)
            return nlls[ordering]

        monkeypatch.setattr(likelihood, "trajectory_nll", recorded)
        assert exact_marginal(model, g).nats == reference_exact_marginal(model, g)
        # the final log-sum-exp can hide a last-bit change; each ordering cannot
        assert len(nlls) == 24
        assert all(nll == trajectory_nll(model, g, sigma) for sigma, nll in nlls.items())

    @pytest.mark.parametrize("aggregator", ["gat", "gru-gate"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_each_ordering_nll_equals_memo_free_at_tiny_widths(self, monkeypatch,
                                                               aggregator, n):
        model = ModelBundle.init(
            OrderingConfig(num_node_types=2, layers=1, heads=2, hidden=3,
                           embed_dim=4, pe_dim=4),
            DenoiserConfig(num_node_types=2, num_edge_types=3, layers=1, hidden=5,
                           mlp_hidden=6, mixtures=2, aggregator=aggregator),
            np.random.default_rng(80 + n))
        g = typed_graph(n, seed=20 + n)
        nlls = {}

        def recorded(model, graph, ordering, *args, **kwargs):
            nlls[ordering] = trajectory_nll(model, graph, ordering, *args, **kwargs)
            return nlls[ordering]

        monkeypatch.setattr(likelihood, "trajectory_nll", recorded)
        exact_marginal(model, g)
        assert len(nlls) == math.factorial(n)
        assert all(nll == trajectory_nll(model, g, sigma) for sigma, nll in nlls.items())

    def test_exact_marginal_stacks_stay_within_the_pair_budget(self, monkeypatch):
        model = tiny_model(num_node_types=2, num_edge_types=3, seed=71)
        g = typed_graph(6, seed=19)
        stacks = []
        original = DenoiserNet._stack_trunk

        def recorded(self, views, tape):
            stacks.append((len(views), views[0].size))
            return original(self, views, tape)

        monkeypatch.setattr(DenoiserNet, "_stack_trunk", recorded)
        exact_marginal(model, g)
        assert all(b * m * m <= STACK_PAIR_BUDGET for b, m in stacks)
        # the 60 views of size 4 (960 pairs) are split across stacks
        size4 = [b for b, m in stacks if m == 4]
        assert sum(size4) == 60 and len(size4) > 1

    def test_trajectory_nll_through_a_shared_memo_is_unchanged(self):
        model = tiny_model(num_node_types=2, num_edge_types=3, seed=63)
        g = typed_graph(4, seed=9)
        memo = {}
        for sigma in itertools.permutations(range(g.n)):
            assert trajectory_nll(model, g, sigma, memo) == trajectory_nll(model, g, sigma)

    def test_sampled_estimators_reuse_views(self, monkeypatch):
        model = tiny_model(num_node_types=2, num_edge_types=3, seed=65)
        g = typed_graph(4, seed=11)
        plain = expected_nll(model, g, 30, np.random.default_rng(4))
        calls = count_step_log_likelihoods(monkeypatch)
        assert expected_nll(model, g, 30, np.random.default_rng(4)) == plain
        assert len(calls) == len(set(calls)) <= 32

    def test_memo_refuses_a_tape(self):
        model = tiny_model(seed=67)
        g = new_graph([0, 0], [(0, 1, 1)], 1, 2)
        tape = Tape()
        for p in model.denoiser.params.values():
            tape.register(p)
        with pytest.raises(ValueError, match="memo"):
            denoiser_loss(g, forward_trajectory(g, [0, 1]), [1, 2], model.denoiser,
                          tape=tape, memo={})


def count_view_builds(monkeypatch):
    """Record each view built through `agd.training.denoising_view`, where
    the loss and the step memos build theirs."""
    built = []
    original = training.denoising_view

    def counted(state, target):
        built.append(original(state, target))
        return built[-1]

    monkeypatch.setattr(training, "denoising_view", counted)
    return built


class TestEachViewBuiltOnce:
    """The step memo is keyed by what fixes a view, so the estimators build a
    view only when their memo lacks it."""

    def test_exact_marginal_builds_each_distinct_view_once(self, monkeypatch):
        n = 6
        model = tiny_model(num_node_types=2, num_edge_types=3, seed=73)
        g = typed_graph(n, seed=23)
        built = count_view_builds(monkeypatch)
        exact_marginal(model, g)
        assert len(built) == len(set(built)) == n * 2 ** (n - 1) == 192

    def test_expected_nll_builds_each_distinct_view_once(self, monkeypatch):
        model = tiny_model(num_node_types=2, num_edge_types=3, seed=75)
        g = typed_graph(5, seed=13)
        plain = expected_nll(model, g, 8, np.random.default_rng(6))
        built = count_view_builds(monkeypatch)
        calls = count_step_log_likelihoods(monkeypatch)
        assert expected_nll(model, g, 8, np.random.default_rng(6)) == plain
        assert built and len(built) == len(set(built))
        assert set(built) == set(calls)


class TestOrderingKlDiagnosticSampler:
    """The diagnostic draws from one sampler per timestep; its values and rng
    stream must equal one `sample_step` call per sample."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_one_sample_step_per_sample(self, seed):
        rng = np.random.default_rng(70 + seed)
        model = ModelBundle.init(
            OrderingConfig(num_node_types=2, layers=1, heads=2, hidden=3,
                           embed_dim=4, pe_dim=4),
            DenoiserConfig(num_node_types=2, num_edge_types=3, layers=1, hidden=5,
                           mlp_hidden=6, mixtures=5), rng)
        g = typed_graph(5, seed=seed)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = ordering_kl_diagnostic(model, g, 40, a)
        assert got == reference_ordering_kl_diagnostic(model, g, 40, b)
        assert a.bit_generator.state == b.bit_generator.state

    def test_builds_one_sampler_per_timestep(self, monkeypatch):
        model = tiny_model(num_node_types=2, num_edge_types=3, seed=73)
        g = typed_graph(4, seed=13)
        trunks = []
        original = DenoiserNet._trunk

        def counted(self, view, tape):
            trunks.append(view)
            return original(self, view, tape)

        monkeypatch.setattr(DenoiserNet, "_trunk", counted)
        ordering_kl_diagnostic(model, g, 25, np.random.default_rng(5))
        assert len(trunks) == g.n


def test_default_limit_is_the_exact_enumeration_ceiling():
    g = new_graph([0] * (likelihood.EXACT_MAX_NODES + 1), [], 1, 2)
    assert likelihood.EXACT_MAX_NODES == 8
    with pytest.raises(GraphError, match=r"limited to n <= 8$"):
        exact_marginal(tiny_model(), g)


def test_float_sums_are_left_folds(monkeypatch):
    """From Python 3.12 on, `sum` over floats is compensated, so every float
    total folds with `operator.add` from 0.0: the exact marginal's
    log-sum-exp, the ordering diagnostic's total and the soft-label
    renormalizer (top-k 3 keeps several candidates)."""
    model = tiny_model(num_node_types=2, num_edge_types=2, seed=3)
    g = new_graph([0, 1, 0, 1], [(0, 1, 1), (1, 2, 1), (2, 3, 1)], 2, 2)
    trajectory = model.ordering.sample_ordering(g, np.random.default_rng(1))
    builtin_sum = builtins.sum

    def sum_without_floats(items, start=0):
        items = list(items)
        if any(isinstance(item, float) for item in items):
            raise AssertionError("builtin sum over floats")
        return builtin_sum(items, start)

    monkeypatch.setattr(builtins, "sum", sum_without_floats)
    exact_marginal(model, g)
    ordering_kl_diagnostic(model, g, 2, np.random.default_rng(2), trajectory)
    # more terms than timesteps: some step renormalizes over several candidates
    assert len(list(training.loss_terms(trajectory, range(1, g.n + 1), top_k=3))) > g.n
    denoiser_loss(g, trajectory, range(1, g.n + 1), model.denoiser, 3)
