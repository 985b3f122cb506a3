import itertools
import math

import numpy as np
import pytest

from agd import autodiff as ad
from agd.autodiff import Tape, Tensor, grad_check, gru_cell
from agd.denoiser import DenoiserConfig, DenoiserNet, StepSampler, _mlp2
from agd.graphs import (ABSENT, MASK, DenoisingView, absorb_node, denoising_view,
                        forward_trajectory, initial_state, new_graph, permute)
from agd.training import denoiser_loss


def reference_message_pass(net, view, tape=None):
    """The per-node, per-neighbour loop that DenoiserNet.message_pass
    replaced, kept as the reference for the dense masked forward."""
    c = net.config
    m = view.size
    get = lambda name: net._get(tape, name)
    tokens = [c.mask_node_token if t == MASK else t for t in view.node_tokens]
    h = ad.rows(get("node_embed"), tokens)
    nbrs = [[b for b in range(m) if b != a and view.edge_states[a][b] != ABSENT]
            for a in range(m)]

    def edge_token(a, b):
        s = view.edge_states[a][b]
        return c.mask_edge_token if s == MASK else s

    edge_table = get("edge_embed")
    for l in range(c.layers):
        outs = []
        if c.aggregator == "gat":
            wh = ad.add(ad.matmul(h, get(f"l{l}_w")), get(f"l{l}_b"))
            s = ad.matmul(wh, get(f"l{l}_asrc"))
            r = ad.matmul(wh, get(f"l{l}_adst"))
            for a in range(m):
                nb = nbrs[a] + [a]
                e_emb = ad.rows(edge_table, [edge_token(a, b) for b in nbrs[a]]
                                + [c.self_edge_token])
                logits = ad.add(ad.pick(s, a), ad.take(r, nb))
                if c.edge_in_attention:
                    logits = ad.add(logits, ad.matmul(e_emb, get(f"l{l}_aedge")))
                alpha = ad.softmax(ad.leaky_relu(logits, slope=c.leaky_slope))
                msgs = ad.rows(wh, nb)
                if c.edge_in_attention:
                    msgs = ad.add(msgs, ad.matmul(e_emb, get(f"l{l}_p")))
                outs.append(ad.tsum(ad.mul(ad.reshape(alpha, (len(nb), 1)), msgs), axis=0))
            h = ad.add(ad.relu(ad.stack(outs)), h)
        else:
            gru_params = {gp: get(f"l{l}_{gp}") for gp in
                          ("wz", "uz", "bz", "wr", "ur", "br", "wc", "uc", "bc")}
            for a in range(m):
                h_a = ad.reshape(ad.rows(h, [a]), (c.hidden,))
                nb = nbrs[a]
                if nb:
                    e_emb = ad.rows(edge_table, [edge_token(a, b) for b in nb])
                    inp = ad.concat([ad.tile_row(h_a, len(nb)), ad.rows(h, nb), e_emb],
                                    axis=1)
                    msg = _mlp2(inp, get(f"l{l}_f1"), get(f"l{l}_f1b"),
                                get(f"l{l}_f2"), get(f"l{l}_f2b"))
                    gate = ad.sigmoid(_mlp2(inp, get(f"l{l}_g1"), get(f"l{l}_g1b"),
                                            get(f"l{l}_g2"), get(f"l{l}_g2b")))
                    agg = ad.tsum(ad.mul(gate, msg), axis=0)
                else:
                    agg = Tensor(np.zeros(c.hidden))
                outs.append(gru_cell(h_a, agg, gru_params))
            h = ad.stack(outs)
    return h, ad.tmean(h, axis=0)


def reference_log_heads(net, view, tape=None):
    """The heads over the reference loop, with one edge log-prob matrix per
    mixture component."""
    c = net.config
    get = lambda name: net._get(tape, name)
    h, h_g = reference_message_pass(net, view, tape)
    h_t = ad.reshape(ad.rows(h, [view.target_index]), (c.hidden,))
    node_logits = ad.reshape(_mlp2(ad.reshape(ad.concat([h_g, h_t]), (1, 2 * c.hidden)),
                                   get("nh1"), get("nh1b"), get("nh2"), get("nh2b")),
                             (c.num_node_types,))
    node_logp = ad.sub(node_logits, ad.logsumexp(node_logits))
    prev = view.prev_nodes()
    if not prev:
        return node_logp, None, None
    prev_idx = [view.nodes.index(v) for v in prev]
    pair = ad.concat([ad.tile_row(h_g, len(prev)), ad.tile_row(h_t, len(prev)),
                      ad.rows(h, prev_idx)], axis=1)
    mix_logits = ad.tsum(_mlp2(pair, get("mh1"), get("mh1b"), get("mh2"), get("mh2b")),
                         axis=0)
    mix_logw = ad.sub(mix_logits, ad.logsumexp(mix_logits))
    edge_logp = []
    for k in range(c.mixtures):
        logits = _mlp2(pair, get(f"eh{k}_1"), get(f"eh{k}_1b"), get(f"eh{k}_2"),
                       get(f"eh{k}_2b"))
        lse = ad.reshape(ad.logsumexp(logits, axis=1), (len(prev), 1))
        edge_logp.append(ad.sub(logits, lse))
    return node_logp, mix_logw, edge_logp


def reference_step_log_likelihood(net, view, node_type, observed_edges, tape=None):
    node_logp, mix_logw, edge_logp = reference_log_heads(net, view, tape)
    ll = ad.pick(node_logp, node_type)
    prev = view.prev_nodes()
    if not prev:
        return ll
    flat = [j * net.config.num_edge_types + observed_edges[v] for j, v in enumerate(prev)]
    comps = [ad.reshape(ad.tsum(ad.take(ad.reshape(lp, (-1,)), flat)), (1,))
             for lp in edge_logp]
    return ad.add(ll, ad.logsumexp(ad.add(mix_logw, ad.concat(comps))))


def tiny_denoiser(num_node_types=2, num_edge_types=3, aggregator="gat",
                  seed=0, **overrides):
    kwargs = dict(layers=2, hidden=6, mlp_hidden=8, mixtures=2)
    kwargs.update(overrides)
    config = DenoiserConfig(num_node_types=num_node_types,
                            num_edge_types=num_edge_types,
                            aggregator=aggregator, **kwargs)
    return DenoiserNet.init(config, np.random.default_rng(seed))


def view_with_prev(num_prev, seed=1, num_node_types=2, num_edge_types=3):
    """A view over a random graph where `num_prev` nodes are already denoised."""
    rng = np.random.default_rng(seed)
    n = num_prev + 1
    types = rng.integers(0, num_node_types, size=n).tolist()
    edges = [(i, j, int(rng.integers(1, num_edge_types)))
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
    g = new_graph(types, edges, num_node_types, num_edge_types)
    state = absorb_node(initial_state(g), 0)
    return g, denoising_view(state, 0)


def enumerate_outcome_probs(pred, num_node_types, num_edge_types):
    """All (node type, edge assignment) probabilities from a StepPrediction."""
    out = {}
    P = len(pred.prev_nodes)
    for v in range(num_node_types):
        if P == 0:
            out[(v, ())] = pred.node_probs[v]
            continue
        for combo in itertools.product(range(num_edge_types), repeat=P):
            p_edges = 0.0
            for k in range(len(pred.mixture_weights)):
                p_k = 1.0
                for j, e in enumerate(combo):
                    p_k *= pred.edge_probs[k, j, e]
                p_edges += pred.mixture_weights[k] * p_k
            out[(v, combo)] = pred.node_probs[v] * p_edges
    return out


class TestMessagePass:
    def test_single_node_view_pools_to_itself(self):
        net = tiny_denoiser()
        g = new_graph([1, 0], [(0, 1, 1)], 2, 3)
        state = absorb_node(absorb_node(initial_state(g), 0), 1)
        view = denoising_view(state, 1)
        assert view.size == 1
        h, h_g = net.message_pass(view)
        assert np.array_equal(h.data[0], h_g.data)

    def test_relabeling_permutes_embeddings_and_keeps_pooling(self):
        net = tiny_denoiser()
        g = new_graph([0, 1, 0, 1], [(0, 1, 1), (1, 2, 2), (2, 3, 1)], 2, 3)
        state = absorb_node(initial_state(g), 2)
        view = denoising_view(state, 2)
        h, h_g = net.message_pass(view)

        perm = [3, 1, 0, 2]
        gp = permute(g, perm)
        state_p = absorb_node(initial_state(gp), perm[2])
        view_p = denoising_view(state_p, perm[2])
        hp, hp_g = net.message_pass(view_p)

        assert np.array_equal(h_g.data, hp_g.data)
        for local, v in enumerate(view.nodes):
            local_p = view_p.nodes.index(perm[v])
            assert np.array_equal(h.data[local], hp.data[local_p])

    def test_edge_states_enter_attention_and_messages(self):
        net = tiny_denoiser(seed=3)
        # identical views except for the type of the (1, 2) edge
        g1 = new_graph([0, 0, 0], [(0, 1, 1), (1, 2, 1)], 2, 3)
        g2 = new_graph([0, 0, 0], [(0, 1, 1), (1, 2, 2)], 2, 3)
        v1 = denoising_view(absorb_node(initial_state(g1), 0), 0)
        v2 = denoising_view(absorb_node(initial_state(g2), 0), 0)
        h1, _ = net.message_pass(v1)
        h2, _ = net.message_pass(v2)
        assert not np.allclose(h1.data[v1.nodes.index(1)], h2.data[v2.nodes.index(1)])

    def test_masked_edges_carry_a_distinct_embedding(self):
        net = tiny_denoiser(seed=3)
        g = new_graph([0, 0, 0], [(0, 1, 1), (1, 2, 1)], 2, 3)
        view = denoising_view(absorb_node(initial_state(g), 0), 0)
        base, _ = net.message_pass(view)
        # node 1 receives one message over a MASK edge; wiping the MASK
        # embedding row must change what it computes
        mask_row = net.config.mask_edge_token
        saved = net.params["edge_embed"].data[mask_row].copy()
        net.params["edge_embed"].data[mask_row] = 0.0
        wiped, _ = net.message_pass(view)
        net.params["edge_embed"].data[mask_row] = saved
        assert not np.allclose(base.data[view.nodes.index(1)],
                               wiped.data[view.nodes.index(1)])

    def test_unknown_aggregator_rejected(self):
        with pytest.raises(ValueError):
            DenoiserConfig(2, 3, aggregator="mean-pool") and None
            DenoiserNet.init(DenoiserConfig(2, 3, aggregator="mean-pool"),
                             np.random.default_rng(0))

    def test_gru_gate_single_node_view(self):
        net = tiny_denoiser(aggregator="gru-gate")
        g = new_graph([0], [], 2, 3)
        state = absorb_node(initial_state(g), 0)
        h, h_g = net.message_pass(denoising_view(state, 0))
        assert h.data.shape == (1, net.config.hidden)
        assert np.array_equal(h.data[0], h_g.data)


def single_node_view():
    g = new_graph([1], [], 2, 3)
    return denoising_view(absorb_node(initial_state(g), 0), 0)


def isolated_node_view():
    """Node 1 has no edge state to anyone, not even MASK to the target, so
    its dense row is all ABSENT: the loop gave it an empty neighbour list."""
    A, M = ABSENT, MASK
    return DenoisingView(nodes=(0, 1, 2, 3), node_tokens=(0, 1, 1, MASK), target=3,
                         edge_states=((A, A, 2, M), (A, A, A, A), (2, A, A, M),
                                      (M, A, M, A)))


def hub_view():
    """Ten nodes; node 0 is adjacent to eight of them."""
    edges = [(0, j, 1 + j % 2) for j in range(1, 9)] + [(3, 5, 2), (6, 7, 1), (8, 9, 2)]
    g = new_graph([0, 1, 0, 0, 1, 1, 0, 1, 0, 1], edges, 2, 3)
    return denoising_view(absorb_node(initial_state(g), 4), 4)


VIEWS = {"single": single_node_view, "isolated": isolated_node_view, "hub": hub_view}
DENSE_CASES = [("gat", {}), ("gat", {"edge_in_attention": False}), ("gru-gate", {})]


def observed_for(view):
    return {v: v % 3 for v in view.prev_nodes()}


def tape_gradients(net, fn):
    tape = Tape()
    for p in net.params.values():
        tape.register(p)
    return tape.gradients(fn(tape))


class TestDenseMatchesReference:
    """The dense masked rounds against the per-node loop they replaced. Not
    bit-identical: a masked row of m entries and a neighbour list are summed
    with a different pairwise grouping, and BLAS blocks an (m*m, d) product
    differently from a (k, d) one."""

    TOL = 1e-12

    def assert_close(self, got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= self.TOL

    def check_values(self, net, view):
        h, h_g = net.message_pass(view)
        ref_h, ref_g = reference_message_pass(net, view)
        self.assert_close(h.data, ref_h.data)
        self.assert_close(h_g.data, ref_g.data)
        node_logp, mix_logw, edge_logp = net._log_heads(view, None)
        ref_node, ref_mix, ref_edges = reference_log_heads(net, view)
        self.assert_close(node_logp.data, ref_node.data)
        if view.prev_nodes():
            self.assert_close(mix_logw.data, ref_mix.data)
            self.assert_close(edge_logp.data, np.stack([e.data for e in ref_edges]))
        else:
            assert mix_logw is None and edge_logp is None and ref_edges is None
        observed = observed_for(view)
        self.assert_close(net.step_log_likelihood(view, 1, observed).data,
                          reference_step_log_likelihood(net, view, 1, observed).data)

    def check_gradients(self, net, view):
        observed = observed_for(view)
        dense = tape_gradients(net, lambda tape: net.step_log_likelihood(
            view, 1, observed, tape))
        ref = tape_gradients(net, lambda tape: reference_step_log_likelihood(
            net, view, 1, observed, tape))
        assert dense.keys() == ref.keys()
        for name in ref:
            self.assert_close(dense[name], ref[name])

    @pytest.mark.parametrize("view_name", sorted(VIEWS))
    @pytest.mark.parametrize("aggregator, overrides", DENSE_CASES)
    def test_values(self, aggregator, overrides, view_name):
        net = tiny_denoiser(aggregator=aggregator, seed=31, **overrides)
        self.check_values(net, VIEWS[view_name]())

    @pytest.mark.parametrize("view_name", sorted(VIEWS))
    @pytest.mark.parametrize("aggregator, overrides", DENSE_CASES)
    def test_gradients(self, aggregator, overrides, view_name):
        net = tiny_denoiser(aggregator=aggregator, seed=33, **overrides)
        self.check_gradients(net, VIEWS[view_name]())

    @pytest.mark.parametrize("aggregator", ["gat", "gru-gate"])
    def test_paper_widths_on_the_hub(self, aggregator):
        config = DenoiserConfig(2, 3, aggregator=aggregator)
        net = DenoiserNet.init(config, np.random.default_rng(35))
        self.check_values(net, hub_view())
        self.check_gradients(net, hub_view())

    def test_isolated_node_gets_a_zero_message(self):
        # with zero GRU weights the state moves only through the message:
        # h' = (1 - z) h + z tanh(m Uc), so an exact zero message leaves
        # tanh(0) = 0 and h' = h / 2 exactly
        net = tiny_denoiser(aggregator="gru-gate", seed=37, layers=1)
        for gp in ("wz", "uz", "bz", "wr", "ur", "br", "wc", "bc"):
            net.params[f"l0_{gp}"].data[:] = 0.0
        view = isolated_node_view()
        h, _ = net.message_pass(view)
        embed = net.params["node_embed"].data[view.node_tokens[1]]
        assert np.array_equal(h.data[1], embed / 2)

    @pytest.mark.parametrize("aggregator, loop_entries", [("gat", 4_132),
                                                          ("gru-gate", 8_822)])
    def test_tape_size_guard(self, aggregator, loop_entries):
        # The per-node loop recorded `loop_entries` tape entries for this
        # loss at the default widths; a loop over nodes coming back fails
        # the bound.
        rng = np.random.default_rng(5)
        n = 16
        edges = [(0, j, 1) for j in range(1, 10)] + [
            (i, j, 1) for i in range(1, n) for j in range(i + 1, n) if rng.random() < 0.2]
        g = new_graph([0] * n, edges, 1, 2)
        net = DenoiserNet.init(DenoiserConfig(1, 2, aggregator=aggregator),
                               np.random.default_rng(6))
        tape = Tape()
        for p in net.params.values():
            tape.register(p)
        loss = denoiser_loss(g, forward_trajectory(g, range(n)), (4, 8, 12, 16), net,
                             tape=tape)
        tape.gradients(loss)
        assert len(tape._entries) <= loop_entries // 2


class TestPredictStep:
    def test_first_step_has_no_edge_part(self):
        net = tiny_denoiser()
        g = new_graph([0], [], 2, 3)
        view = denoising_view(absorb_node(initial_state(g), 0), 0)
        pred = net.predict_step(view)
        assert pred.mixture_weights is None and pred.edge_probs is None
        assert abs(pred.node_probs.sum() - 1.0) < 1e-9

    def test_distributions_normalized(self):
        for agg in ("gat", "gru-gate"):
            net = tiny_denoiser(aggregator=agg, seed=5)
            _, view = view_with_prev(3, seed=5)
            pred = net.predict_step(view)
            assert abs(pred.node_probs.sum() - 1.0) < 1e-9
            assert abs(pred.mixture_weights.sum() - 1.0) < 1e-9
            assert np.allclose(pred.edge_probs.sum(axis=2), 1.0, atol=1e-9)

    def test_outcome_probabilities_sum_to_one(self):
        net = tiny_denoiser(seed=7)
        _, view = view_with_prev(3, seed=7)
        pred = net.predict_step(view)
        probs = enumerate_outcome_probs(pred, 2, 3)
        assert abs(sum(probs.values()) - 1.0) < 1e-8

    def test_two_component_mixture_arithmetic(self):
        # alpha=[.5,.5], two edges: joint = .5 p1(e1)p1(e2) + .5 p2(e1)p2(e2)
        net = tiny_denoiser(seed=9)
        _, view = view_with_prev(2, seed=9)
        pred = net.predict_step(view)
        a = pred.mixture_weights
        e = pred.edge_probs
        hand = 0.0
        for k in range(2):
            hand += a[k] * e[k, 0, 1] * e[k, 1, 2]
        prev = pred.prev_nodes
        got = math.exp(net.step_log_likelihood(
            view, 0, {prev[0]: 1, prev[1]: 2}).item()) / pred.node_probs[0]
        assert abs(got - hand) < 1e-9


class TestStepLogLikelihood:
    def test_forced_outcome_is_zero(self):
        net = tiny_denoiser(num_node_types=1, seed=11)
        g = new_graph([0], [], 1, 3)
        view = denoising_view(absorb_node(initial_state(g), 0), 0)
        assert net.step_log_likelihood(view, 0, {}).item() == 0.0

    def test_single_component_factorizes(self):
        net = tiny_denoiser(mixtures=1, seed=13)
        _, view = view_with_prev(2, seed=13)
        pred = net.predict_step(view)
        prev = pred.prev_nodes
        observed = {prev[0]: 0, prev[1]: 2}
        got = net.step_log_likelihood(view, 1, observed).item()
        expect = (math.log(pred.node_probs[1]) + math.log(pred.edge_probs[0, 0, 0])
                  + math.log(pred.edge_probs[0, 1, 2]))
        assert abs(got - expect) < 1e-9

    def test_exp_sums_to_one_over_all_outcomes(self):
        net = tiny_denoiser(seed=15)
        _, view = view_with_prev(3, seed=15)
        prev = view.prev_nodes()
        total = 0.0
        for v in range(2):
            for combo in itertools.product(range(3), repeat=3):
                observed = {p: e for p, e in zip(prev, combo)}
                total += math.exp(net.step_log_likelihood(view, v, observed).item())
        assert abs(total - 1.0) < 1e-8

    def test_coverage_mismatch_rejected(self):
        net = tiny_denoiser()
        _, view = view_with_prev(2)
        prev = view.prev_nodes()
        with pytest.raises(Exception):
            net.step_log_likelihood(view, 0, {prev[0]: 1})
        with pytest.raises(Exception):
            net.step_log_likelihood(view, 0, {prev[0]: 1, prev[1]: MASK})

    def test_invariant_under_prev_node_relabeling(self):
        net = tiny_denoiser(seed=17)
        g = new_graph([0, 1, 0, 1], [(0, 1, 1), (1, 2, 2), (0, 3, 1), (2, 3, 2)], 2, 3)
        state = absorb_node(initial_state(g), 1)
        view = denoising_view(state, 1)
        observed = {0: 1, 2: 2, 3: 0}
        base = net.step_log_likelihood(view, 0, observed).item()

        perm = [2, 1, 3, 0]  # relabel the non-target nodes
        gp = permute(g, perm)
        state_p = absorb_node(initial_state(gp), 1)
        view_p = denoising_view(state_p, 1)
        observed_p = {perm[v]: e for v, e in observed.items()}
        assert net.step_log_likelihood(view_p, 0, observed_p).item() == base

    @pytest.mark.parametrize("agg", ["gat", "gru-gate"])
    def test_gradient_matches_finite_differences(self, agg):
        # hidden width 6 keeps every coordinate live at these seeds; degenerate
        # instances can park an attention direction on a flat LeakyReLU piece,
        # where finite differences see pure rounding noise
        net = tiny_denoiser(aggregator=agg, seed=100, layers=1, hidden=6, mlp_hidden=6)
        _, view = view_with_prev(2, seed=0)
        prev = view.prev_nodes()
        observed = {prev[0]: 1, prev[1]: 0}

        def fn(tape):
            return net.step_log_likelihood(view, 1, observed, tape)

        assert grad_check(fn, net.params, eps=1e-5) < 1e-4


class TestSampleStep:
    def test_deterministic_given_seed(self):
        net = tiny_denoiser(seed=21)
        _, view = view_with_prev(3, seed=21)
        a = net.sample_step(view, np.random.default_rng(42))
        b = net.sample_step(view, np.random.default_rng(42))
        assert a == b

    def test_edge_mask_forces_absent(self):
        net = tiny_denoiser(seed=23)
        _, view = view_with_prev(3, seed=23)
        prev = view.prev_nodes()
        _, assignment = net.sample_step(view, np.random.default_rng(0),
                                        edge_mask=set(prev))
        assert all(v == ABSENT for v in assignment.values())

    def test_saturated_heads_give_argmax(self):
        net = tiny_denoiser(num_node_types=3, seed=25)
        # saturate the node head bias so one class dominates
        net.params["nh2b"].data[:] = np.array([0.0, 60.0, 0.0])
        g = new_graph([0], [], 3, 3)
        view = denoising_view(absorb_node(initial_state(g), 0), 0)
        for s in range(5):
            node_type, _ = net.sample_step(view, np.random.default_rng(s))
            assert node_type == 1

    def test_frequencies_match_enumerated_probabilities(self):
        net = tiny_denoiser(seed=27, num_node_types=1, num_edge_types=2)
        _, view = view_with_prev(2, seed=27, num_node_types=1, num_edge_types=2)
        pred = net.predict_step(view)
        probs = enumerate_outcome_probs(pred, 1, 2)
        rng = np.random.default_rng(1)
        draws = 20_000
        counts = {key: 0 for key in probs}
        prev = pred.prev_nodes
        for _ in range(draws):
            v, assignment = net.sample_step(view, rng)
            counts[(v, tuple(assignment[p] for p in prev))] += 1
        for key, p in probs.items():
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(counts[key] / draws - p) < 3 * se + 1e-9


@pytest.mark.parametrize("field, value", [
    ("num_node_types", 0), ("num_edge_types", 0), ("layers", -1), ("hidden", 0),
    ("mlp_hidden", 0), ("mixtures", 0), ("aggregator", "mean-pool"),
])
def test_config_rejects_bad_values(field, value):
    kwargs = {"num_node_types": 1, "num_edge_types": 2, field: value}
    with pytest.raises(ValueError, match=f"^{field} "):
        DenoiserConfig(**kwargs)


def reference_sample_step(net, view, rng, edge_mask=None):
    """The sampler that evaluated all K edge heads through `predict_step`
    and then used the one component it drew; the reference for drawn-
    component sampling."""
    pred = net.predict_step(view)
    node_type = int(rng.choice(len(pred.node_probs), p=pred.node_probs))
    if not pred.prev_nodes:
        return node_type, {}
    forbidden = set(edge_mask) if edge_mask is not None else set()
    k = int(rng.choice(len(pred.mixture_weights), p=pred.mixture_weights))
    assignment = {}
    for j, v in enumerate(pred.prev_nodes):
        if v in forbidden:
            assignment[v] = ABSENT
        else:
            assignment[v] = int(rng.choice(net.config.num_edge_types,
                                           p=pred.edge_probs[k, j]))
    return node_type, assignment


def count_edge_heads(monkeypatch):
    """Patch DenoiserNet._edge_logits to count its calls per component."""
    calls = []
    original = DenoiserNet._edge_logits

    def counted(self, pair, k, tape):
        calls.append(k)
        return original(self, pair, k, tape)

    monkeypatch.setattr(DenoiserNet, "_edge_logits", counted)
    return calls


SAMPLER_VIEWS = {"prev3": lambda: view_with_prev(3, seed=43)[1],
                 "single": single_node_view, "hub": hub_view}


class TestDrawnComponentSampling:
    """`sample_step` evaluates only the drawn component's edge head; its draws
    and its rng stream must equal the all-components reference exactly."""

    @pytest.mark.parametrize("view_name", sorted(SAMPLER_VIEWS))
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("aggregator", ["gat", "gru-gate"])
    def test_draws_equal_the_reference(self, aggregator, masked, view_name):
        net = tiny_denoiser(aggregator=aggregator, seed=41, mixtures=5)
        view = SAMPLER_VIEWS[view_name]()
        edge_mask = set(view.prev_nodes()[::2]) if masked else None
        for seed in range(60):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = net.sample_step(view, rng, edge_mask=edge_mask)
            assert got == reference_sample_step(net, view, ref_rng, edge_mask)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("aggregator", ["gat", "gru-gate"])
    def test_component_probabilities_equal_predict_step(self, aggregator):
        net = tiny_denoiser(aggregator=aggregator, seed=45, mixtures=4)
        view = hub_view()
        pred = net.predict_step(view)
        sampler = StepSampler(net, view)
        assert np.array_equal(sampler.node_probs, pred.node_probs)
        assert np.array_equal(sampler.mixture_weights, pred.mixture_weights)
        assert sampler.prev_nodes == pred.prev_nodes
        for k in range(4):
            assert np.array_equal(sampler.edge_probs(k), pred.edge_probs[k])

    def test_sample_step_evaluates_one_edge_head(self, monkeypatch):
        net = tiny_denoiser(seed=47, mixtures=6)
        calls = count_edge_heads(monkeypatch)
        net.sample_step(hub_view(), np.random.default_rng(0))
        assert len(calls) == 1
        net.sample_step(single_node_view(), np.random.default_rng(0))
        assert len(calls) == 1

    def test_repeated_draws_equal_repeated_sample_steps(self, monkeypatch):
        net = tiny_denoiser(seed=49, mixtures=6)
        view = hub_view()
        ref_rng = np.random.default_rng(3)
        want = [reference_sample_step(net, view, ref_rng) for _ in range(80)]
        calls = count_edge_heads(monkeypatch)
        sampler = StepSampler(net, view)
        rng = np.random.default_rng(3)
        assert [sampler.draw(rng) for _ in range(80)] == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # each drawn component's head runs once, however often it is drawn
        assert len(calls) == len(set(calls)) > 1
