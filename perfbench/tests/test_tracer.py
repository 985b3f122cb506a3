import inspect
import sys

import numpy as np
import pytest

import agd.autodiff as ad
from agd.denoiser import DenoiserConfig
from agd.ordering import OrderingConfig
from agd.training import TrainConfig

import run
from tracer import EXACT_METRICS, INSTRUMENTED, LAYER_METRICS, Tracer, public_ops, self_times
from workloads import InferWorkload, TrainWorkload, community_graphs, typed_toy_graphs


def span(name, start, end, parent=None):
    return (name, start, end, parent)


class TestSelfTimes:
    def test_leaf_is_its_duration(self):
        assert self_times([span("a", 1.0, 3.5)]) == [2.5]

    def test_parent_minus_children(self):
        spans = [span("p", 0.0, 10.0), span("c1", 1.0, 3.0, 0), span("c2", 5.0, 9.0, 0)]
        assert self_times(spans) == [4.0, 2.0, 4.0]

    def test_grandchildren_count_against_their_parent_only(self):
        spans = [span("p", 0.0, 10.0), span("c", 2.0, 8.0, 0), span("g", 3.0, 7.0, 1)]
        assert self_times(spans) == [4.0, 2.0, 4.0]

    def test_overlapping_children_are_covered_once(self):
        spans = [span("p", 0.0, 10.0), span("c1", 1.0, 6.0, 0), span("c2", 4.0, 8.0, 0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("p", 2.0, 6.0), span("c", 1.0, 3.0, 0), span("d", 5.0, 9.0, 0)]
        assert self_times(spans)[0] == pytest.approx(2.0)


def test_backward_is_split_by_parent_span():
    tracer = Tracer("t")
    tracer.spans[:] = [
        span("training.fit", 0.0, 20.0),
        span("autodiff.backward", 1.0, 2.0, 0),
        span("training.reinforce_update", 3.0, 10.0, 0),
        span("training.reinforce_gradient", 3.0, 9.0, 2),
        span("autodiff.backward", 4.0, 7.0, 3),
        span("denoiser.step_log_likelihood", 11.0, 15.0, 0),
        span("denoiser.message_pass", 11.5, 14.0, 5),
    ]
    m = tracer.layer_metrics(0.1)
    assert set(m) == set(LAYER_METRICS)
    assert m["autodiff.backward.denoiser_s"] == 1.0
    assert m["autodiff.backward.ordering_s"] == 3.0
    assert m["denoiser.message_pass.self_s"] == 2.5
    assert m["denoiser.heads_s"] == 1.5
    assert m["training.reinforce_gradient.self_s"] == 3.0
    assert m["trace_overhead_frac"] == 0.1


def test_reward_loss_is_not_training_loss():
    tracer = Tracer("t")
    tracer.spans[:] = [
        span("training.fit", 0.0, 20.0),
        span("training.denoiser_loss", 1.0, 4.0, 0),
        span("denoiser.step_log_likelihood", 2.0, 3.0, 1),
        span("training.compute_reward", 5.0, 9.0, 0),
        span("training.denoiser_loss", 5.0, 8.5, 3),
        span("denoiser.step_log_likelihood", 6.0, 8.0, 4),
    ]
    m = tracer.layer_metrics(0.0)
    assert m["training.denoiser_loss.self_s"] == 2.0
    assert m["training.compute_reward.s"] == 4.0


def originals():
    """Every attribute the tracer patches, as it is before install()."""
    out = {}
    for owner, attr, _, _ in INSTRUMENTED:
        module_name, _, cls_name = owner.partition(":")
        holder = sys.modules[module_name]
        holder = getattr(holder, cls_name) if cls_name else holder
        out[(owner, attr)] = inspect.getattr_static(holder, attr)
    for fn in public_ops():
        out[("agd.autodiff", fn.__name__)] = vars(ad)[fn.__name__]
    return out


def tiny_train(tmp_path):
    wl = TrainWorkload(
        seed=3, workdir=str(tmp_path), make_graphs=typed_toy_graphs,
        train_shapes=(3, 5), val_shapes=(4,),
        ordering=OrderingConfig(4, layers=1, heads=2, hidden=4, embed_dim=4, pe_dim=4),
        denoiser=DenoiserConfig(4, 4, aggregator="gru-gate", layers=1, hidden=6,
                                mlp_hidden=8, mixtures=2),
        train=TrainConfig(epochs=1, trajectories=2, timesteps=2, seed=3))
    wl.prepare()
    return wl


def tiny_infer(tmp_path):
    wl = InferWorkload(
        seed=5, workdir=str(tmp_path),
        ordering=OrderingConfig(1, layers=1, heads=2, hidden=4, embed_dim=4, pe_dim=4),
        denoiser=DenoiserConfig(1, 2, layers=1, hidden=6, mlp_hidden=8, mixtures=2),
        reference_shapes=((8, 9), (8, 9), (10, 14)), gen_count=3, max_degree=2,
        nll_shapes=((6, 5),), nll_samples=2, exact_shapes=((4, 3),), exact_check_samples=3)
    wl.prepare()
    return wl


def traced_run(wl):
    tracer = Tracer("test")
    tracer.install()
    try:
        result = wl.run_op(wl.setup())
    finally:
        tracer.restore()
    return result, tracer.layer_metrics(0.0)


@pytest.mark.parametrize("make", [tiny_train, tiny_infer])
def test_traced_run_matches_untraced_and_repeats_exactly(make, tmp_path):
    wl = make(tmp_path)
    before = originals()
    state = wl.setup()
    untraced = wl.run_op(state)
    checks = wl.check(state, untraced)
    assert all(ok for _, ok in checks), checks
    first, m1 = traced_run(wl)
    assert originals() == before
    second, m2 = traced_run(wl)
    assert first.digest == second.digest == untraced.digest
    assert {k: m1[k] for k in EXACT_METRICS} == {k: m2[k] for k in EXACT_METRICS}
    assert m1["autodiff.op_calls"] > 0
    assert m1["ordering.node_scores.calls"] > 0


def test_output_checks_are_not_traced(tmp_path):
    wl = tiny_infer(tmp_path)
    _, op_only = traced_run(wl)
    tally = run.Tally()
    with_checks, _ = run.run_traced(wl, "test", tally, tmp_path / "spans.jsonl")
    assert tally.failed == 0
    assert {k: with_checks[k] for k in EXACT_METRICS} == {k: op_only[k] for k in EXACT_METRICS}


def test_infer_layers_are_attributed(tmp_path):
    wl = tiny_infer(tmp_path)
    _, m = traced_run(wl)
    assert m["model.load.s"] > 0
    assert m["denoiser.sample_step.calls"] > 0
    assert 0 < m["generate.edges_dropped_ratio"] < 1
    assert 0 < m["likelihood.ordering_cache_hit_ratio"] < 1
    assert 0 <= m["likelihood.nll_cache_hit_ratio"] < 1
    assert m["likelihood.trajectory_nll.calls"] > 0
    assert all(m[f"metrics.mmd.{k}.self_s"] > 0 for k in ("degree", "clustering", "orbit"))


def test_tracer_cannot_install_twice():
    tracer = Tracer("t")
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()


def test_graphs_follow_the_requested_shapes():
    graphs = community_graphs(np.random.default_rng(0), ((12, 22), (4, 3), (16, 40)))
    assert [(g.n, g.m) for g in graphs] == [(12, 22), (4, 3), (16, 40)]
    toys = typed_toy_graphs(np.random.default_rng(0), (3, 9, 9, 5))
    assert [g.n for g in toys] == [3, 9, 9, 5]
