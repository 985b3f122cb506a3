"""Stacked denoising views: a forward over B views of one size gives every
view the bits of its own stack of one, and the callers that stack views
(lockstep generation, the sampled NLL estimators) equal their one-view
references exactly, draws and rng streams included."""

import gc
import math
import weakref

import numpy as np
import pytest

from agd import autodiff as ad
from agd.autodiff import Tape
from agd.denoiser import (STACK_PAIR_BUDGET, DenoiserConfig, DenoiserNet, StepSampler,
                          stack_chunks)
from agd.generate import (GenerationConfig, StepRecord, _generate_lockstep,
                          enforce_degree_cap, generate, generate_batch)
from agd.graphs import (ABSENT, MASK, DenoisingView, apply_prediction, denoising_view,
                        empty_graph, fully_masked_state, new_graph)
from agd.likelihood import (NllEstimate, expected_nll, is_marginal_likelihood,
                            trajectory_nll)
from agd.model import ModelBundle
from agd.ordering import OrderingConfig


def denoiser(aggregator="gat", paper=False, seed=0, **overrides):
    widths = {} if paper else dict(layers=2, hidden=6, mlp_hidden=8, mixtures=3)
    widths.update(overrides)
    config = DenoiserConfig(2, 3, aggregator=aggregator, **widths)
    return DenoiserNet.init(config, np.random.default_rng(seed))


def random_view(m, rng):
    """A view of m nodes over a random typed graph: one masked target, the
    other m - 1 nodes denoised, original ids spread over a larger graph."""
    nodes = tuple(sorted(int(v) for v in rng.choice(3 * m, size=m, replace=False)))
    target = int(rng.choice(nodes))
    states = [[ABSENT] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            if target in (nodes[a], nodes[b]):
                states[a][b] = states[b][a] = MASK
            elif rng.random() < 0.4:
                states[a][b] = states[b][a] = int(rng.integers(1, 3))
    tokens = tuple(MASK if v == target else int(rng.integers(0, 2)) for v in nodes)
    return DenoisingView(nodes, tokens, target, tuple(map(tuple, states)))


def isolated_view():
    """Node 1 has no edge state to anyone, not even MASK to the target."""
    A, M = ABSENT, MASK
    return DenoisingView(nodes=(0, 1, 2, 3), node_tokens=(0, 1, 1, MASK), target=3,
                         edge_states=((A, A, 2, M), (A, A, A, A), (2, A, A, M),
                                      (M, A, M, A)))


def hub_view():
    """Ten nodes; node 0 is adjacent to all nine others (the target by MASK)."""
    edges = [(0, j, 1 + j % 2) for j in range(1, 10)] + [(3, 5, 2), (6, 7, 1)]
    g = new_graph([0, 1, 0, 0, 1, 1, 0, 1, 0, 1], edges, 2, 3)
    state = fully_masked_state(g)
    for v in range(9, 0, -1):                   # unmask all but node 9 ...
        state = apply_prediction(state, 9 - v, g.node_types[9 - v],
                                 {u: g.edge_type(9 - v, u)
                                  for u in state.unmasked_nodes()})
    return denoising_view(state, 9)             # ... which is the target


def views_of_size(m, count, seed):
    rng = np.random.default_rng(seed)
    special = {1: [], 4: [isolated_view()], 10: [hub_view()]}[m]
    return special + [random_view(m, rng) for _ in range(count - len(special))]


def labels(view, rng):
    return int(rng.integers(0, 2)), {v: int(rng.integers(0, 3)) for v in view.prev_nodes()}


def budget(m):
    return max(1, STACK_PAIR_BUDGET // (m * m))


CASES = [("gat", {}), ("gat", {"edge_in_attention": False}), ("gru-gate", {})]


def assert_slices_equal_stacks_of_one(net, views):
    rng = np.random.default_rng(len(views))
    node_types, observed = zip(*(labels(v, rng) for v in views))
    stacked = net._stack_log_heads(views, None)
    lls = net._stack_log_likelihood(views, list(node_types), list(observed), None)
    trunk = net._stack_trunk(views, None)
    chunked = net.step_log_likelihood(views, node_types, observed)
    for b, view in enumerate(views):
        alone = net._stack_log_heads([view], None)
        for got, want in zip(stacked, alone):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got.data[b:b + 1], want.data)
        ll = net.step_log_likelihood(view, node_types[b], observed[b])
        assert lls.data[b] == ll.item() == chunked[b].item()
        sampler, single = StepSampler(net, view, trunk, b), StepSampler(net, view)
        assert np.array_equal(sampler.node_probs, single.node_probs)
        if view.size > 1:
            assert np.array_equal(sampler.mixture_weights, single.mixture_weights)
            for k in range(net.config.mixtures):
                assert np.array_equal(sampler.edge_probs(k), single.edge_probs(k))


class TestSlicesEqualStacksOfOne:
    @pytest.mark.parametrize("m", [1, 4, 10])
    @pytest.mark.parametrize("aggregator, overrides", CASES)
    def test_tiny_widths_up_to_the_budget(self, aggregator, overrides, m):
        net = denoiser(aggregator, seed=m, **overrides)
        views = views_of_size(m, budget(m), seed=m)
        for count in sorted({1, 2, 3, budget(m)}):
            assert_slices_equal_stacks_of_one(net, views[:count])

    @pytest.mark.parametrize("m", [4, 10])
    @pytest.mark.parametrize("aggregator, overrides", CASES)
    def test_paper_widths(self, aggregator, overrides, m):
        net = denoiser(aggregator, paper=True, seed=m, **overrides)
        assert_slices_equal_stacks_of_one(net, views_of_size(m, min(budget(m), 6), seed=m))

    def test_mixed_sizes_are_refused(self):
        with pytest.raises(ValueError, match="one size"):
            stack_chunks([random_view(2, np.random.default_rng(0)),
                          random_view(3, np.random.default_rng(0))])

    def test_a_stack_is_untaped_and_unmasked(self):
        net = denoiser(seed=1)
        views = views_of_size(4, 2, seed=1)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="untaped"):
            net.step_log_likelihood(views, [0, 0], [labels(v, rng)[1] for v in views],
                                    tape=Tape())
        with pytest.raises(ValueError, match="edge mask"):
            net.sample_step(views, [rng, rng], edge_mask={views[0].nodes[0]})


def one_hot_log_likelihood(net, views, node_types, observed_edges, tape):
    """The (B,) step log-likelihoods scored over `_stack_log_heads` by a
    one-hot product over the edge states and two sorted sums."""
    c = net.config
    B = len(views)
    node_logp, mix_logw, edge_logp = net._stack_log_heads(views, tape)
    ll = ad.take(ad.reshape(node_logp, (B * c.num_node_types,)),
                 np.arange(B) * c.num_node_types + node_types)
    if mix_logw is None:
        return ll
    onehot = np.zeros((B, 1, views[0].size - 1, c.num_edge_types))
    for b, (view, observed) in enumerate(zip(views, observed_edges)):
        onehot[b, 0, np.arange(onehot.shape[2]),
               [observed[v] for v in view.prev_nodes()]] = 1.0
    comps = ad.tsum(ad.tsum(ad.mul(edge_logp, onehot), axis=3), axis=2)
    return ad.add(ll, ad.logsumexp(ad.add(mix_logw, comps), axis=1))


class TestScoringByGather:
    """Reading each observed edge state by one gather gives the bits of the
    one-hot product it replaced, in values and in every gradient."""

    @staticmethod
    def gradients(net, loss_fn):
        tape = Tape()
        for p in net.params.values():
            tape.register(p)
        loss = loss_fn(tape)
        return loss.item(), tape.gradients(loss)

    def check(self, net, views):
        rng = np.random.default_rng(len(views))
        node_types, observed = map(list, zip(*(labels(v, rng) for v in views)))
        got = net._stack_log_likelihood(views, node_types, observed, None)
        want = one_hot_log_likelihood(net, views, node_types, observed, None)
        assert np.array_equal(got.data, want.data)
        for view, node_type, obs in zip(views, node_types, observed):
            ll, grads = self.gradients(net, lambda tape: net.step_log_likelihood(
                view, node_type, obs, tape))
            ref_ll, ref_grads = self.gradients(net, lambda tape: ad.reshape(
                one_hot_log_likelihood(net, [view], [node_type], [obs], tape), ()))
            assert ll == ref_ll
            assert grads.keys() == ref_grads.keys()
            for name, g in grads.items():
                assert np.array_equal(g, ref_grads[name]), name

    @pytest.mark.parametrize("paper", [False, True])
    @pytest.mark.parametrize("aggregator, overrides", CASES)
    def test_equals_the_one_hot_product(self, aggregator, overrides, paper):
        net = denoiser(aggregator, paper=paper, seed=21, **overrides)
        for m in (1, 4):
            self.check(net, views_of_size(m, 3, seed=m))

    @pytest.mark.parametrize("aggregator, overrides", CASES)
    def test_a_component_with_zero_responsibility(self, aggregator, overrides):
        net = denoiser(aggregator, seed=22, **overrides)
        net.params["mh2b"].data[1] = -1000.0
        views = views_of_size(4, 3, seed=4)
        _, mix_logw, _ = net._stack_log_heads(views, None)
        assert (np.exp(mix_logw.data[:, 1]) == 0.0).all()
        self.check(net, views)


def reference_draw(net, view, rng):
    """Node type, mixture component, then edges, from `predict_step`."""
    pred = net.predict_step(view)
    node_type = int(rng.choice(len(pred.node_probs), p=pred.node_probs))
    if not pred.prev_nodes:
        return node_type, {}
    k = int(rng.choice(len(pred.mixture_weights), p=pred.mixture_weights))
    return node_type, {v: int(rng.choice(pred.edge_probs.shape[2], p=pred.edge_probs[k, j]))
                       for j, v in enumerate(pred.prev_nodes)}


def reference_generate(net, n, rng, max_degree):
    """One sample, one view at a time: generation before lockstep."""
    c = net.config
    state = fully_masked_state(empty_graph(n, c.num_node_types, c.num_edge_types))
    steps = []
    for _ in range(n):
        target = state.last_absorbed()
        node_type, assignment = reference_draw(net, denoising_view(state, target), rng)
        dropped = ()
        if max_degree is not None:
            assignment, dropped = enforce_degree_cap(state.base, assignment, max_degree, rng)
        state = apply_prediction(state, target, node_type, assignment)
        steps.append(StepRecord(target, node_type, tuple(sorted(assignment.items())),
                                dropped))
    return state.base, tuple(steps)


class TestLockstepGeneration:
    SIZES = (1, 5, 9, 12)

    @pytest.mark.parametrize("aggregator", ["gat", "gru-gate"])
    def test_batch_equals_one_sample_at_a_time(self, aggregator):
        net = denoiser(aggregator, seed=3)
        for k in range(net.config.mixtures):       # make the cap bind
            net.params[f"eh{k}_2b"].data[:] = np.array([-2.0, 2.0, 1.0])
        config = GenerationConfig(count=24, sizes=self.SIZES, max_degree=3, seed=5)
        traces = generate_batch(net, config)
        # at 9 nodes a stack holds 6 views, so the later steps are chunked
        assert sum(t.graph.n >= 9 for t in traces) > budget(9)
        for i, trace in enumerate(traces):
            rng = np.random.default_rng([config.seed, i])
            n = self.SIZES[rng.integers(0, len(self.SIZES))]
            assert (trace.graph, trace.steps) == reference_generate(net, n, rng, 3)
        assert any(s.dropped for t in traces for s in t.steps)

    def test_each_rng_ends_where_its_own_generation_ends(self):
        net = denoiser(seed=4)
        sizes = [3, 11, 1, 8, 11, 6] * 3
        rngs = [np.random.default_rng(s) for s in range(len(sizes))]
        refs = [np.random.default_rng(s) for s in range(len(sizes))]
        traces = _generate_lockstep(net, sizes, rngs, 2)
        for n, trace, rng, ref in zip(sizes, traces, rngs, refs):
            assert (trace.graph, trace.steps) == reference_generate(net, n, ref, 2)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_generate_is_a_lockstep_of_one(self):
        net = denoiser(seed=6)
        rng, ref = np.random.default_rng(1), np.random.default_rng(1)
        trace = generate(net, 7, rng)
        assert (trace.graph, trace.steps) == reference_generate(net, 7, ref, None)
        assert rng.bit_generator.state == ref.bit_generator.state


def nll_model(seed):
    return ModelBundle.init(
        OrderingConfig(num_node_types=2, layers=1, heads=2, hidden=3, embed_dim=4,
                       pe_dim=4),
        DenoiserConfig(num_node_types=2, num_edge_types=3, layers=2, hidden=6,
                       mlp_hidden=8, mixtures=3), np.random.default_rng(seed))


def typed_graph(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j, int(rng.integers(1, 3))) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    return new_graph(rng.integers(0, 2, size=n).tolist(), edges, 2, 3)


def reference_samples(model, graph, count, rng):
    """(ordering, log q) pairs drawn one at a time, each NLL computed afresh
    through `trajectory_nll` without a memo."""
    out = []
    for _ in range(count):
        trajectory = model.ordering.sample_ordering(graph, rng)
        logq = 0.0
        for lp in trajectory.step_log_probs:
            logq += lp
        out.append((trajectory_nll(model, graph, trajectory.ordering), logq))
    return out


def reference_expected_nll(model, graph, count, rng):
    values = np.array([nll for nll, _ in reference_samples(model, graph, count, rng)])
    se = float(values.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    return NllEstimate(float(values.mean()), se, count, "expected-nll")


def reference_is_marginal(model, graph, count, rng):
    logw = np.array([-nll - logq for nll, logq in reference_samples(model, graph, count, rng)])
    m = logw.max()
    scaled = np.exp(logw - m)
    se = float(scaled.std(ddof=1) / (scaled.mean() * math.sqrt(count))) if count > 1 else 0.0
    return NllEstimate(-(m + math.log(scaled.mean())), se, count, "is-marginal")


class TestStackedEstimators:
    @pytest.mark.parametrize("n, count", [(1, 3), (4, 1), (6, 12), (9, 5), (11, 4)])
    @pytest.mark.parametrize("estimator, reference", [
        (expected_nll, reference_expected_nll), (is_marginal_likelihood, reference_is_marginal)])
    def test_equal_an_unstacked_reference(self, estimator, reference, n, count):
        model = nll_model(seed=n)
        g = typed_graph(n, seed=n + 1)
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        assert estimator(model, g, count, rng) == reference(model, g, count, ref)
        assert rng.bit_generator.state == ref.bit_generator.state


def record_stacks(monkeypatch):
    stacks = []
    original = DenoiserNet._stack_trunk

    def recorded(self, views, tape):
        stacks.append((len(views), views[0].size))
        return original(self, views, tape)

    monkeypatch.setattr(DenoiserNet, "_stack_trunk", recorded)
    return stacks


def test_no_stack_exceeds_the_pair_budget(monkeypatch):
    net = denoiser(seed=8)
    stacks = record_stacks(monkeypatch)
    generate_batch(net, GenerationConfig(count=40, sizes=(4, 12, 25), seed=1))
    model = nll_model(seed=9)
    expected_nll(model, typed_graph(8, seed=2), 30, np.random.default_rng(0))
    assert all(b * m * m <= STACK_PAIR_BUDGET for b, m in stacks if b > 1)
    assert any(b * m * m > STACK_PAIR_BUDGET // 2 for b, m in stacks if b > 1)
    assert (1, 25) in stacks          # a view over the budget is a stack of one


def test_stacked_work_runs_through_the_public_entry_points(monkeypatch):
    """Lockstep generation draws through one `sample_step` call per step, the
    memo fill computes through one `step_log_likelihood` call per view size,
    and every forward runs through `message_pass`, so code that wraps those
    methods sees all of the stacked work."""
    calls = {"message_pass": [], "sample_step": [], "step_log_likelihood": []}
    for name, log in calls.items():
        def logged(self, view, *args, _original=getattr(DenoiserNet, name), _log=log,
                   **kwargs):
            _log.append(view)
            return _original(self, view, *args, **kwargs)
        monkeypatch.setattr(DenoiserNet, name, logged)
    net = denoiser(seed=10)
    generate_batch(net, GenerationConfig(count=20, n=9, seed=2))
    assert [len(v) for v in calls["sample_step"]] == [20] * 9
    assert sum(map(len, calls["message_pass"])) == 20 * 9
    assert len(calls["message_pass"]) == sum(-(-20 // budget(m)) for m in range(1, 10))
    for log in calls.values():
        log.clear()
    model = nll_model(seed=11)
    expected_nll(model, typed_graph(6, seed=3), 10, np.random.default_rng(1))
    sizes = [v[0].size for v in calls["step_log_likelihood"]]
    assert sorted(sizes) == list(range(1, 7))
    assert sum(map(len, calls["message_pass"])) == sum(map(len, calls["step_log_likelihood"]))


def test_generation_holds_one_stack_at_a_time(monkeypatch):
    """Each stack is drawn before the next is computed: when a stack's trunk
    is computed, no earlier stack's pair features are alive."""
    alive = []
    original = DenoiserNet._stack_trunk

    def checked(self, views, tape):
        gc.collect()
        assert not [ref for ref in alive if ref() is not None]
        trunk = original(self, views, tape)
        if trunk[2] is not None:
            alive.append(weakref.ref(trunk[2].data))
        return trunk

    monkeypatch.setattr(DenoiserNet, "_stack_trunk", checked)
    net = denoiser(seed=12)
    generate_batch(net, GenerationConfig(count=30, n=10, seed=3))
    assert len(alive) > 10 * 2            # several stacks per step
