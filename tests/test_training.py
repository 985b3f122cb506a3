import dataclasses
import functools
import gc
import itertools
import json
import math
import operator
import os
import weakref

import numpy as np
import pytest

import agd.autodiff as autodiff
import agd.training as training
from agd.autodiff import Tape, grad_check
from agd.denoiser import DenoiserConfig, DenoiserNet
from agd.graphs import (DenoisingView, GraphError, forward_trajectory, new_graph,
                        observed_step, permute)
from agd.likelihood import trajectory_nll
from agd.model import ModelBundle
from agd.ordering import OrderingConfig, OrderingNet
from agd.training import (TrainConfig, TrainingDiverged, TrainReport,
                          compute_reward, denoiser_loss, fit, reinforce_gradient,
                          reinforce_update, uniform_trajectory)


def tiny_model(num_node_types=1, num_edge_types=2, seed=0, mixtures=2) -> ModelBundle:
    rng = np.random.default_rng(seed)
    return ModelBundle.init(
        OrderingConfig(num_node_types=num_node_types, layers=1, heads=2,
                       hidden=3, embed_dim=4, pe_dim=4),
        DenoiserConfig(num_node_types=num_node_types,
                       num_edge_types=num_edge_types,
                       layers=1, hidden=5, mlp_hidden=6, mixtures=mixtures),
        rng)


def triangle():
    return new_graph([0, 0, 0], [(0, 1, 1), (1, 2, 1), (0, 2, 1)], 1, 2)


class TestDenoiserLoss:
    def test_single_node_single_type_is_zero(self):
        model = tiny_model()
        g = new_graph([0], [], 1, 2)
        traj = model.ordering.sample_ordering(g, np.random.default_rng(0))
        assert denoiser_loss(g, traj, [1], model.denoiser) == 0.0

    def test_full_timesteps_equal_trajectory_nll(self):
        model = tiny_model(seed=3)
        g = new_graph([0, 0], [(0, 1, 1)], 1, 2)
        traj = model.ordering.sample_ordering(g, np.random.default_rng(1))
        loss = denoiser_loss(g, traj, [1, 2], model.denoiser, top_k=1)
        assert abs(loss - trajectory_nll(model, g, traj.ordering)) < 1e-12

    def test_reward_equals_loss(self):
        model = tiny_model(seed=5)
        g = triangle()
        traj = model.ordering.sample_ordering(g, np.random.default_rng(2))
        ts = [1, 3]
        assert compute_reward(g, traj, ts, model.denoiser) == \
            denoiser_loss(g, traj, ts, model.denoiser)

    def test_empty_timesteps_rejected(self):
        model = tiny_model()
        g = triangle()
        traj = model.ordering.sample_ordering(g, np.random.default_rng(0))
        with pytest.raises(ValueError):
            denoiser_loss(g, traj, [], model.denoiser)

    def test_scaling_with_subsampled_timesteps(self):
        model = tiny_model(seed=7)
        g = triangle()
        traj = model.ordering.sample_ordering(g, np.random.default_rng(3))
        full = denoiser_loss(g, traj, [1, 2, 3], model.denoiser)
        parts = [denoiser_loss(g, traj, [t], model.denoiser) for t in (1, 2, 3)]
        # each single-step loss is n * that step's NLL; their mean is the full loss
        assert abs(np.mean(parts) - full) < 1e-12

    def test_soft_label_weights_renormalized(self):
        model = tiny_model(seed=9)
        g = triangle()
        traj = model.ordering.sample_ordering(g, np.random.default_rng(4))
        # with top_k >= n every candidate of step 1 is retained; weights sum to 1
        loss_all = denoiser_loss(g, traj, [1], model.denoiser, top_k=3)
        weights = traj.step_weights[0]
        assert abs(sum(weights.values()) - 1.0) < 1e-9
        assert math.isfinite(loss_all)

    def test_gradients_do_not_touch_ordering_params(self):
        model = tiny_model(seed=11)
        g = triangle()
        traj = model.ordering.sample_ordering(g, np.random.default_rng(5))
        tape = Tape()
        for p in model.denoiser.params.values():
            tape.register(p)
        for p in model.ordering.params.values():
            tape.register(p)
        loss = denoiser_loss(g, traj, [1, 2], model.denoiser, top_k=2, tape=tape)
        grads = tape.gradients(loss)
        for name in model.ordering.params:
            assert not np.any(grads[name])

    def test_invariant_under_relabeling(self):
        model = tiny_model(num_node_types=2, num_edge_types=3, seed=13)
        g = new_graph([0, 1, 0, 1], [(0, 1, 1), (1, 2, 2), (2, 3, 1)], 2, 3)
        rng = np.random.default_rng(6)
        traj = model.ordering.sample_ordering(g, rng)
        perm = [2, 0, 3, 1]
        gp = permute(g, perm)
        mapped_weights = tuple({perm[v]: w for v, w in step.items()}
                               for step in traj.step_weights)
        traj_p = forward_trajectory(gp, [perm[v] for v in traj.ordering],
                                    traj.step_log_probs, mapped_weights)
        a = denoiser_loss(g, traj, [1, 2, 4], model.denoiser, top_k=2)
        b = denoiser_loss(gp, traj_p, [1, 2, 4], model.denoiser, top_k=2)
        assert a == b

    def test_gradient_matches_finite_differences(self):
        model = tiny_model(seed=15)
        g = new_graph([0, 0, 0], [(0, 1, 1), (1, 2, 1)], 1, 2)
        traj = model.ordering.sample_ordering(g, np.random.default_rng(8))

        def fn(tape):
            return denoiser_loss(g, traj, [1, 3], model.denoiser, top_k=2, tape=tape)

        err = grad_check(fn, model.denoiser.params, eps=1e-5)
        assert err < 1e-4


class TestReinforce:
    def test_equal_rewards_with_matching_baseline_zero_update(self):
        model = tiny_model(seed=17)
        g = triangle()
        items = [(g, (0, 1, 2), 1.5), (g, (2, 1, 0), 1.5)]
        grads = reinforce_gradient(model.ordering, items, baseline=1.5,
                                   trajectories_per_graph=2)
        assert all(not np.any(v) for v in grads.values())

    def test_update_increases_probability_of_low_reward_ordering(self):
        # nodes must be distinguishable, otherwise the policy is symmetric
        model = tiny_model(num_node_types=2, seed=19)
        model.adam_ordering.lr = 0.1
        g = new_graph([0, 1], [(0, 1, 1)], 2, 2)
        sigma_good, sigma_bad = (0, 1), (1, 0)
        before = math.exp(model.ordering.ordering_log_prob(g, sigma_good).item())
        for _ in range(30):
            items = [(g, sigma_good, 1.0), (g, sigma_bad, 3.0)]
            reinforce_update(model.ordering, model.adam_ordering, items,
                             baseline=2.0, trajectories_per_graph=1)
        after = math.exp(model.ordering.ordering_log_prob(g, sigma_good).item())
        assert after > before

    def test_estimator_unbiased_on_two_orderings(self):
        # enumerated exact gradient vs Monte Carlo over sampled orderings
        model = tiny_model(seed=21)
        g = new_graph([0, 0], [(0, 1, 1)], 1, 2)
        rewards = {(0, 1): 0.5, (1, 0): 2.0}
        baseline = 1.0

        def grad_for(sigma):
            return reinforce_gradient(model.ordering, [(g, sigma, rewards[sigma])],
                                      baseline, 1)

        exact = {}
        for sigma in rewards:
            q = math.exp(model.ordering.ordering_log_prob(g, sigma).item())
            for name, val in grad_for(sigma).items():
                exact[name] = exact.get(name, 0.0) + q * val

        rng = np.random.default_rng(11)
        draws = 4000
        cached = {sigma: grad_for(sigma) for sigma in rewards}
        acc = {}
        samples = {name: [] for name in cached[(0, 1)]}
        for _ in range(draws):
            traj = model.ordering.sample_ordering(g, rng)
            for name, val in cached[traj.ordering].items():
                samples[name].append(val)
        for name, vals in samples.items():
            arr = np.stack(vals)
            mean = arr.mean(axis=0)
            se = arr.std(axis=0, ddof=1) / math.sqrt(draws)
            assert np.all(np.abs(mean - exact[name]) <= 3 * se + 1e-12)

    def test_empty_items_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            reinforce_gradient(model.ordering, [], 0.0, 1)


class TestFit:
    def test_zero_epochs_leaves_parameters_unchanged(self):
        model = tiny_model(seed=23)
        snapshot = {k: p.data.copy() for k, p in model.denoiser.params.items()}
        g = triangle()
        model, report = fit([g], [g], model, TrainConfig(epochs=0, seed=1))
        for k, p in model.denoiser.params.items():
            assert np.array_equal(p.data, snapshot[k])
        assert report.epoch_losses == []

    def test_identical_seeds_identical_reports(self):
        g = triangle()
        cfg = TrainConfig(epochs=2, batch_size=1, trajectories=2, timesteps=2,
                          lr_denoiser=1e-3, lr_ordering=1e-3, seed=7)
        _, r1 = fit([g], [g], tiny_model(seed=25), cfg)
        _, r2 = fit([g], [g], tiny_model(seed=25), cfg)
        assert r1 == r2    # wall time is excluded from comparison

    def test_gradient_accumulation_additive_over_batch(self):
        model = tiny_model(seed=27)
        g1 = triangle()
        g2 = new_graph([0, 0, 0], [(0, 1, 1), (1, 2, 1)], 1, 2)
        traj1 = model.ordering.sample_ordering(g1, np.random.default_rng(0))
        traj2 = model.ordering.sample_ordering(g2, np.random.default_rng(1))

        def grads_of(graph, traj):
            tape = Tape()
            for p in model.denoiser.params.values():
                tape.register(p)
            loss = denoiser_loss(graph, traj, [1, 2], model.denoiser, tape=tape)
            return tape.gradients(loss)

        ga = grads_of(g1, traj1)
        gb = grads_of(g2, traj2)
        combined = {k: ga[k] + gb[k] for k in ga}
        again = {k: grads_of(g1, traj1)[k] + grads_of(g2, traj2)[k] for k in ga}
        for k in combined:
            assert np.array_equal(combined[k], again[k])

    def test_loss_trends_down_on_repeated_graph(self):
        g = triangle()
        cfg = TrainConfig(epochs=12, batch_size=4, trajectories=2, timesteps=3,
                          lr_denoiser=0.02, lr_ordering=1e-3, seed=3)
        _, report = fit([g] * 4, [g], tiny_model(seed=29), cfg)
        first = np.mean(report.epoch_losses[:3])
        last = np.mean(report.epoch_losses[-3:])
        assert last < first

    def test_uniform_ordering_ablation_runs_without_val(self):
        g = triangle()
        cfg = TrainConfig(epochs=1, batch_size=1, trajectories=1, timesteps=2,
                          uniform_ordering=True, seed=5)
        model, report = fit([g], [], tiny_model(seed=31), cfg)
        assert report.epoch_rewards == [None]

    def test_uniform_trajectory_weights(self):
        g = triangle()
        traj = uniform_trajectory(g, np.random.default_rng(13))
        assert sorted(traj.ordering) == [0, 1, 2]
        assert traj.step_weights[0] == {0: 1 / 3, 1: 1 / 3, 2: 1 / 3}
        assert abs(traj.step_log_probs[0] - math.log(1 / 3)) < 1e-12

    def test_checkpoints_and_selection(self, tmp_path):
        g = triangle()
        cfg = TrainConfig(epochs=2, batch_size=4, trajectories=1, timesteps=2,
                          eval_every=1, select_samples=4, seed=9)
        _, report = fit([g] * 4, [g], tiny_model(seed=33), cfg,
                        checkpoint_dir=str(tmp_path))
        assert report.selected_checkpoint is not None
        assert (tmp_path / report.selected_checkpoint.split("/")[-1]).exists()

    def test_select_model_single_checkpoint(self, tmp_path):
        from agd.training import MetricConfig, select_model
        model = tiny_model(seed=37)
        path = str(tmp_path / "only.json")
        model.save(path)
        assert select_model([path], [triangle()], MetricConfig(samples=2)) == path

    def test_select_model_prefers_trained_checkpoint(self, tmp_path):
        from agd.training import MetricConfig, select_model
        g = triangle()
        fresh = tiny_model(seed=39)
        fresh_path = str(tmp_path / "fresh.json")
        fresh.save(fresh_path)
        trained, _ = fit([g] * 4, [g], tiny_model(seed=39),
                         TrainConfig(epochs=15, batch_size=4, trajectories=2,
                                     timesteps=3, lr_denoiser=0.02,
                                     lr_ordering=1e-3, seed=4))
        trained_path = str(tmp_path / "trained.json")
        trained.save(trained_path)
        chosen = select_model([fresh_path, trained_path], [g] * 4,
                              MetricConfig(samples=12, seed=1))
        assert chosen == trained_path

    def test_training_log_is_json_lines(self, tmp_path):
        import json
        g = triangle()
        log = tmp_path / "train.jsonl"
        cfg = TrainConfig(epochs=1, batch_size=1, trajectories=1, timesteps=1, seed=2)
        fit([g], [g], tiny_model(seed=35), cfg, log_path=str(log))
        lines = log.read_text().strip().split("\n")
        assert len(lines) >= 2
        for line in lines:
            rec = json.loads(line)
            assert {"step", "loss", "reward", "timestamp"} <= set(rec)


class TestOneTapeAtATime:
    """fit frees each trajectory's tape, and the denoiser's gradients, before
    the next forward starts, by reference counting alone."""

    @staticmethod
    def _gru_model():
        return ModelBundle.init(
            OrderingConfig(num_node_types=1, layers=1, heads=2, hidden=3,
                           embed_dim=4, pe_dim=4),
            DenoiserConfig(num_node_types=1, num_edge_types=2, layers=1, hidden=5,
                           mlp_hidden=6, mixtures=2, aggregator="gru-gate"),
            np.random.default_rng(43))

    @staticmethod
    def _fit(model):
        path = new_graph([0] * 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)], 1, 2)
        cfg = TrainConfig(epochs=2, batch_size=2, trajectories=4, seed=3)
        return fit([triangle(), path], [path], model, cfg)

    def test_no_tape_outlives_its_trajectory_without_the_cyclic_gc(self, monkeypatch):
        tapes, alive_at_creation = [], []
        init = Tape.__init__

        def tracked_init(self):
            alive_at_creation.append(sum(ref() is not None for ref in tapes))
            init(self)
            tapes.append(weakref.ref(self))

        monkeypatch.setattr(Tape, "__init__", tracked_init)
        model = self._gru_model()
        gc.collect()
        gc.disable()
        try:
            self._fit(model)
            cyclic = gc.collect()
        finally:
            gc.enable()
        # per epoch: 2 graphs x 4 denoiser trajectories, 1 graph x 4 REINFORCE
        assert len(tapes) == 2 * (2 * 4 + 1 * 4)
        assert alive_at_creation == [0] * len(tapes)
        assert cyclic == 0

    def test_denoiser_gradients_are_freed_before_the_ordering_phase(self, monkeypatch):
        model, stepped, checked = self._gru_model(), [], []
        adam_step, reinforce_gradient = training.adam_step, training.reinforce_gradient

        def recorded_adam_step(params, grads, state):
            if params is model.denoiser.params:
                stepped.extend(weakref.ref(g) for g in grads.values())
            return adam_step(params, grads, state)

        def checked_reinforce_gradient(*args, **kwargs):
            checked.append(sum(ref() is not None for ref in stepped))
            return reinforce_gradient(*args, **kwargs)

        monkeypatch.setattr(training, "adam_step", recorded_adam_step)
        monkeypatch.setattr(training, "reinforce_gradient", checked_reinforce_gradient)
        self._fit(model)
        assert stepped and checked == [0, 0]


def poison_denoiser_step(monkeypatch, step):
    """Make the first taped loss of denoiser step `step` non-finite, when
    each step records one trajectory; the autodiff op raises NonFiniteError."""
    taped = itertools.count(1)
    original = training.denoiser_loss

    def poisoned(graph, trajectory, timesteps, denoiser, top_k=1, tape=None, memo=None):
        loss = original(graph, trajectory, timesteps, denoiser, top_k, tape, memo)
        if tape is not None and next(taped) == step:
            return loss * math.inf
        return loss

    monkeypatch.setattr(training, "denoiser_loss", poisoned)


class TestDivergence:
    def test_diverged_run_names_the_step_and_keeps_its_log(self, tmp_path, monkeypatch):
        g = triangle()
        log = tmp_path / "train.jsonl"
        poison_denoiser_step(monkeypatch, 2)
        cfg = TrainConfig(epochs=1, batch_size=1, trajectories=1, timesteps=2, seed=2)
        with pytest.raises(TrainingDiverged, match="denoiser step 2: "):
            fit([g, g, g], [g], tiny_model(seed=37), cfg, log_path=str(log))
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["step"] == 1 and records[0]["reward"] is None
        assert math.isfinite(records[0]["loss"])

    def test_diverged_run_names_the_op(self, monkeypatch):
        g = triangle()
        poison_denoiser_step(monkeypatch, 1)
        cfg = TrainConfig(epochs=1, batch_size=1, trajectories=1, timesteps=2, seed=2)
        with pytest.raises(TrainingDiverged,
                           match="denoiser step 1: mul produced a non-finite value$"):
            fit([g], [g], tiny_model(seed=37), cfg)

    def test_log_is_written_as_records_are_made(self, tmp_path, monkeypatch):
        g = triangle()
        log = tmp_path / "train.jsonl"
        seen = []
        reinforce_update = training.reinforce_update

        def reading(*args, **kwargs):
            seen.append([json.loads(line)["step"] for line in log.read_text().splitlines()])
            return reinforce_update(*args, **kwargs)

        monkeypatch.setattr(training, "reinforce_update", reading)
        cfg = TrainConfig(epochs=2, batch_size=1, trajectories=1, timesteps=2, seed=2)
        fit([g, g], [g], tiny_model(seed=37), cfg, log_path=str(log))
        # each ordering update sees every denoiser step and update before it
        assert seen == [[1, 2], [1, 2, 2, 3, 4]]
        assert [json.loads(line)["step"] for line in log.read_text().splitlines()] == \
            [1, 2, 2, 3, 4, 4]


def _typed_val_graphs():
    """Two 4-node graphs that differ only in node 2's type, so the views with
    node 2 as the target are one `DenoisingView` with two labels, and a
    3-node graph."""
    edges = [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2)]
    return [new_graph([0, 1, 1, 0], edges, 2, 3), new_graph([0, 1, 0, 0], edges, 2, 3),
            new_graph([1, 0, 1], [(0, 1, 1), (1, 2, 2)], 2, 3)]


def _typed_model(aggregator="gat"):
    return ModelBundle.init(
        OrderingConfig(num_node_types=2, layers=1, heads=2, hidden=3, embed_dim=4,
                       pe_dim=4),
        DenoiserConfig(num_node_types=2, num_edge_types=3, layers=1, hidden=5,
                       mlp_hidden=6, mixtures=2, aggregator=aggregator),
        np.random.default_rng(47))


class TestOneUntapedEvaluator:
    """Rewards and likelihoods are summed from a step memo that one stacked
    `step_log_likelihood` call per view size fills."""

    def test_filled_memo_runs_no_autodiff_op(self, monkeypatch):
        model = _typed_model()
        g = _typed_val_graphs()[0]
        sigma = (2, 0, 3, 1)
        traj = model.ordering.sample_ordering(g, np.random.default_rng(3))
        nll_memo, loss_memo = {}, {}
        nll = trajectory_nll(model, g, sigma, nll_memo)
        loss = denoiser_loss(g, traj, [1, 3, 4], model.denoiser, 2, memo=loss_memo)

        def no_op(*args, **kwargs):
            raise AssertionError("an autodiff op ran")

        monkeypatch.setattr(autodiff, "_result", no_op)
        assert trajectory_nll(model, g, sigma, nll_memo) == nll
        assert denoiser_loss(g, traj, [1, 3, 4], model.denoiser, 2, memo=loss_memo) == loss

    @pytest.mark.parametrize("aggregator", ["gat", "gru-gate"])
    @pytest.mark.parametrize("top_k", [1, 3])
    def test_untaped_loss_has_the_bits_of_the_taped_one(self, aggregator, top_k):
        model = _typed_model(aggregator)
        for seed, g in enumerate(_typed_val_graphs()):
            traj = model.ordering.sample_ordering(g, np.random.default_rng(seed))
            ts = range(1, g.n + 1)
            tape = Tape()
            for p in model.denoiser.params.values():
                tape.register(p)
            taped = denoiser_loss(g, traj, ts, model.denoiser, top_k, tape).item()
            assert denoiser_loss(g, traj, ts, model.denoiser, top_k) == taped

    @pytest.mark.parametrize("top_k", [1, 3])
    def test_ordering_phase_makes_one_call_per_view_size_per_batch(self, monkeypatch,
                                                                   top_k):
        batches, current = [], []
        step_log_likelihood = DenoiserNet.step_log_likelihood
        reinforce_update = training.reinforce_update

        def recorded(self, view, *args, **kwargs):
            if kwargs.get("tape", args[2] if len(args) > 2 else None) is None:
                current.append(view)
            return step_log_likelihood(self, view, *args, **kwargs)

        def batch_end(*args, **kwargs):
            batches.append(current[:])
            current.clear()
            return reinforce_update(*args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("fit evaluates rewards through the shared memo")

        monkeypatch.setattr(DenoiserNet, "step_log_likelihood", recorded)
        monkeypatch.setattr(training, "reinforce_update", batch_end)
        monkeypatch.setattr(training, "compute_reward", refused)
        graphs = _typed_val_graphs()
        cfg = TrainConfig(epochs=2, batch_size=2, val_batch_size=2, trajectories=3,
                          timesteps=3, soft_label_top_k=top_k, seed=5)
        fit(graphs, graphs, _typed_model(), cfg)
        assert len(batches) == 2 * 2 and not current
        for calls in batches:
            assert calls and not any(isinstance(v, DenoisingView) for v in calls)
            sizes = [{v.size for v in views} for views in calls]
            assert all(len(s) == 1 for s in sizes)
            assert len(sizes) == len({s for (s,) in sizes})

    @pytest.mark.parametrize("aggregator", ["gat", "gru-gate"])
    @pytest.mark.parametrize("top_k", [1, 3])
    def test_fit_equals_one_compute_reward_per_trajectory(self, tmp_path, monkeypatch,
                                                          aggregator, top_k):
        graphs = _typed_val_graphs()
        cfg = TrainConfig(epochs=2, batch_size=2, val_batch_size=3, trajectories=3,
                          timesteps=3, soft_label_top_k=top_k, seed=6)

        def run(name):
            out = tmp_path / name
            out.mkdir()
            _, report = fit(graphs[::-1], graphs, _typed_model(aggregator), cfg,
                            checkpoint_dir=str(out))
            files = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
            return dataclasses.replace(
                report, selected_checkpoint=os.path.basename(report.selected_checkpoint)), files

        got = run("shared")
        redirected = []
        loss = training.denoiser_loss

        def per_trajectory(graph, trajectory, timesteps, denoiser, top_k=1, tape=None,
                           memo=None):
            if memo is None:
                return loss(graph, trajectory, timesteps, denoiser, top_k, tape)
            redirected.append(graph)
            return compute_reward(graph, trajectory, timesteps, denoiser, top_k)

        monkeypatch.setattr(training, "denoiser_loss", per_trajectory)
        want = run("reference")
        # every reward of the reference came from its own compute_reward call
        assert len(redirected) == cfg.epochs * len(graphs) * cfg.trajectories
        assert got == want


class TestEachViewBuiltOnce:
    """The ordering phase builds each of its terms' views once per batch: the
    step memo fill builds them, and the rewards read the memo."""

    @pytest.mark.parametrize("top_k", [1, 3])
    def test_ordering_phase_builds_each_view_once(self, monkeypatch, top_k):
        batches, built = [], []
        denoising_view = training.denoising_view
        ordering_phase = training._ordering_phase

        def counted(state, target):
            built.append((state.base, state.masked, target))
            return denoising_view(state, target)

        def recorded(*args, **kwargs):
            built.clear()
            rewards = ordering_phase(*args, **kwargs)
            batches.append(built[:])
            return rewards

        monkeypatch.setattr(training, "denoising_view", counted)
        monkeypatch.setattr(training, "_ordering_phase", recorded)
        graphs = _typed_val_graphs()
        cfg = TrainConfig(epochs=1, batch_size=2, val_batch_size=2, trajectories=3,
                          timesteps=3, soft_label_top_k=top_k, seed=5)
        fit(graphs, graphs, _typed_model(), cfg)
        assert len(batches) == 2
        for builds in batches:
            assert builds and len(builds) == len(set(builds))


class TestPhaseFunctions:
    """`fit` is a loop over the phase functions and one `TrainState`: an
    epoch driven by hand equals a 1-epoch `fit`, bit for bit."""

    @pytest.mark.parametrize("aggregator", ["gat", "gru-gate"])
    def test_one_epoch_by_hand_equals_fit(self, tmp_path, monkeypatch, aggregator):
        val = _typed_val_graphs()
        train = val[::-1] + val[:1]
        cfg = TrainConfig(epochs=1, batch_size=2, val_batch_size=2, trajectories=2,
                          timesteps=3, soft_label_top_k=2, seed=8)
        model = _typed_model(aggregator)
        state = training.TrainState(np.random.default_rng(cfg.seed))
        losses = [training._denoiser_phase(model, cfg, state, batch)
                  for batch in training._minibatches(
                      train, state.rng.permutation(len(train)), cfg.batch_size)]
        rewards = [training._ordering_phase(model, cfg, state, batch)
                   for batch in training._minibatches(
                       val, state.rng.permutation(len(val)), cfg.val_batch_size)]
        (tmp_path / "hand").mkdir()
        training._checkpoint(model, state, str(tmp_path / "hand"))

        fit_rewards, fit_states = [], []
        ordering_phase, checkpoint = training._ordering_phase, training._checkpoint

        def recorded_ordering_phase(*args):
            fit_rewards.append(ordering_phase(*args))
            return fit_rewards[-1]

        def recorded_checkpoint(model, state, checkpoint_dir):
            fit_states.append(state)
            return checkpoint(model, state, checkpoint_dir)

        monkeypatch.setattr(training, "_ordering_phase", recorded_ordering_phase)
        monkeypatch.setattr(training, "_checkpoint", recorded_checkpoint)
        (tmp_path / "fit").mkdir()
        _, report = fit(train, val, _typed_model(aggregator), cfg,
                        checkpoint_dir=str(tmp_path / "fit"))
        assert len(losses) == 2 and len(rewards) == 2 and state.steps == 2
        assert report.step_losses == losses
        assert fit_rewards == rewards
        (fitted,) = fit_states
        assert fitted.steps == state.steps
        assert state.baseline is not None and fitted.baseline == state.baseline
        assert fitted.rng.bit_generator.state == state.rng.bit_generator.state
        names = [[os.path.relpath(p, tmp_path / run) for p in s.checkpoints]
                 for run, s in (("hand", state), ("fit", fitted))]
        assert names[0] == names[1] == ["checkpoint_000002.ckpt"]
        assert ((tmp_path / "hand" / names[0][0]).read_bytes()
                == (tmp_path / "fit" / names[0][0]).read_bytes())


class TestDrawStream:
    """`_draws` takes a graph's orderings in lockstep on generator copies,
    and gives what drawing each trajectory and then its timesteps in turn
    from one generator gives, leaving that generator where the turn-by-turn
    loop leaves it."""

    @staticmethod
    def _draws_in_turn(model, config, rng, batch):
        for graph in batch:
            for _ in range(config.trajectories):
                traj = model.ordering.sample_ordering(graph, rng)
                yield graph, traj, training._sample_timesteps(graph.n, config.timesteps, rng)

    @pytest.mark.parametrize("trajectories", [1, 4])
    @pytest.mark.parametrize("graph", ["pair", "typed 7"])
    def test_equals_drawing_in_turn(self, graph, trajectories):
        g = (new_graph([0, 1], [(0, 1, 2)], 2, 3) if graph == "pair" else
             new_graph([0, 1, 1, 0, 1, 0, 0],
                       [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1), (1, 5, 1),
                        (5, 6, 2)], 2, 3))
        model = _typed_model()
        cfg = TrainConfig(epochs=1, trajectories=trajectories, timesteps=3)
        state = training.TrainState(np.random.default_rng(21))
        rng = np.random.default_rng(21)
        drawn = list(training._draws(model, cfg, state, [g, g]))
        want = list(self._draws_in_turn(model, cfg, rng, [g, g]))
        assert len(drawn) == len(want) == 2 * trajectories
        for (_, traj, ts), (_, want_traj, want_ts) in zip(drawn, want):
            assert traj.ordering == want_traj.ordering
            assert traj.step_log_probs == want_traj.step_log_probs
            assert traj.step_weights == want_traj.step_weights
            assert ts == want_ts
        assert state.rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_each_choice_draws_one_uniform(self, k):
        # `_draws` skips an ordering's draws with `rng.random(n)`: n calls of
        # `rng.choice(k, p=p)` advance a generator exactly as that does.
        p = np.random.default_rng(k).random(k)
        p /= p.sum()
        for n in (1, 6):
            chosen, skipped = np.random.default_rng(30 + k), np.random.default_rng(30 + k)
            for _ in range(n):
                chosen.choice(k, p=p)
            skipped.random(n)
            assert chosen.bit_generator.state == skipped.bit_generator.state


def _taped_step_terms(graph, traj, top_k):
    """A trajectory's loss views over every timestep (so its 1-node and
    2-node views too) and their labels."""
    items = list(training.loss_views(traj, range(1, graph.n + 1), top_k))
    labels = [observed_step(graph, state, cand) for _, state, cand, _ in items]
    return items, labels


def _weighted_gradients(denoiser, items, lls_on):
    """(log-likelihood values, gradients) of sum w * ll over `items`, with
    the lls from `lls_on(tape)`, on a tape that registers every parameter."""
    tape = Tape()
    for p in denoiser.params.values():
        tape.register(p)
    lls = lls_on(tape)
    loss = functools.reduce(operator.add, (ll * w for ll, (*_, w) in zip(lls, items)))
    return [ll.item() for ll in lls], tape.gradients(loss)


class TestTapedTrajectory:
    """`taped_log_likelihoods` runs each edge head once over a trajectory's
    views; every value keeps the bits of one taped view at a time, and only
    the edge heads' weight and bias gradients, summed over all the rows at
    once, may move."""

    @pytest.mark.parametrize("paper", [False, True], ids=["tiny", "paper"])
    @pytest.mark.parametrize("aggregator", ["gat", "gru-gate"])
    @pytest.mark.parametrize("top_k", [1, 3])
    def test_equals_one_taped_view_at_a_time(self, paper, aggregator, top_k):
        widths = ({} if paper else dict(layers=2, hidden=6, mlp_hidden=8, mixtures=3))
        denoiser = DenoiserNet.init(DenoiserConfig(2, 3, aggregator=aggregator, **widths),
                                    np.random.default_rng(11))
        ordering = OrderingNet.init(OrderingConfig(num_node_types=2, layers=1, heads=2,
                                                   hidden=3, embed_dim=4, pe_dim=4),
                                    np.random.default_rng(12))
        graph = new_graph([0, 1, 1, 0, 1, 0],
                          [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2), (3, 4, 1),
                           (4, 5, 2), (1, 5, 1)], 2, 3)
        traj = ordering.sample_ordering(graph, np.random.default_rng(top_k))
        items, labels = _taped_step_terms(graph, traj, top_k)
        views = [view for view, *_ in items]
        assert {1, 2} <= {view.size for view in views}
        ref_lls, ref_grads = _weighted_gradients(denoiser, items, lambda tape: [
            denoiser.step_log_likelihood(view, *label, tape)
            for view, label in zip(views, labels)])
        node_types, edges = zip(*labels)
        lls, grads = _weighted_gradients(denoiser, items, lambda tape: (
            denoiser.taped_log_likelihoods(views, node_types, edges, tape)))
        assert lls == ref_lls
        heads = {f"eh{k}_{part}" for k in range(denoiser.config.mixtures)
                 for part in ("1", "1b", "2", "2b")}
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            if name in heads:
                np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=1e-12,
                                           err_msg=name)
            else:
                assert np.array_equal(g, ref_grads[name]), name

    def test_labels_are_checked_and_matched_to_views(self):
        denoiser = _typed_model().denoiser
        g = _typed_val_graphs()[0]
        traj = forward_trajectory(g, [0, 1, 2, 3], (0.0,) * 4,
                                  tuple({v: 1.0} for v in (0, 1, 2, 3)))
        items, labels = _taped_step_terms(g, traj, 1)
        views = [view for view, *_ in items]
        node_types, edges = map(list, zip(*labels))
        with pytest.raises(ValueError, match="shorter"):
            denoiser.taped_log_likelihoods(views, node_types[:-1], edges, Tape())
        node_types[0] = 7
        with pytest.raises(GraphError, match="node type"):
            denoiser.taped_log_likelihoods(views, node_types, edges, Tape())


class TestInPlaceAccumulation:
    def test_bits_of_acc_plus_g_with_parameters_fed_by_one_add(self):
        """Two same-shape parameters summed by one `add` get gradients that
        share memory; accumulating in place must not add into both through
        one array."""
        a = autodiff.Parameter("a", np.array([0.5, -1.25, 2.0]))
        b = autodiff.Parameter("b", np.array([1.5, 0.25, -3.0]))
        params = {"a": a, "b": b}
        weights = np.array([0.3, 0.7, 1.1])

        def loss(tape):
            return autodiff.tsum(autodiff.mul(autodiff.add(tape.watch(a), tape.watch(b)),
                                              weights))

        tape = Tape()
        shared = tape.gradients(loss(tape))
        assert np.shares_memory(shared["a"], shared["b"])
        acc: dict = {}
        training._accumulate_gradients(acc, params, loss)
        assert not np.shares_memory(acc["a"], acc["b"])
        expected = {name: g.copy() for name, g in acc.items()}
        for scale in (None, 0.1):
            training._accumulate_gradients(acc, params, loss, scale)
            for name, g in expected.items():
                expected[name] = g + (weights if scale is None else scale * weights)
            for name in params:
                assert np.array_equal(acc[name], expected[name]), (name, scale)
        assert np.array_equal(acc["a"], acc["b"])


class TestCheckpointRoundTrip:
    def test_loaded_bundle_trains_like_the_saved_one(self, tmp_path):
        from agd.optim import adam_step
        g = triangle()
        cfg = TrainConfig(epochs=1, batch_size=2, trajectories=1, timesteps=2, seed=3)
        original, _ = fit([g] * 2, [g], tiny_model(seed=41), cfg)
        path = tmp_path / "model.ckpt"
        original.save(path)
        loaded = ModelBundle.load(path)
        for model in (original, loaded):
            params = model.denoiser.params
            adam_step(params, {k: np.full(p.shape, 0.1) for k, p in params.items()},
                      model.adam_denoiser)
        _, report_a = fit([g] * 2, [g], original, cfg)
        _, report_b = fit([g] * 2, [g], loaded, cfg)
        assert report_a.step_losses == report_b.step_losses
        for net in ("ordering", "denoiser"):
            a, b = getattr(original, net).params, getattr(loaded, net).params
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[k].data, b[k].data) for k in a)


@pytest.mark.parametrize("field, value", [
    ("epochs", -1), ("batch_size", 0), ("val_batch_size", 0), ("trajectories", 0),
    ("timesteps", 0), ("soft_label_top_k", 0), ("lr_denoiser", 0.0),
    ("lr_ordering", -1e-3), ("baseline_decay", 7.0), ("baseline_decay", -0.1),
    ("eval_every", -1), ("select_samples", -1),
])
def test_train_config_rejects_bad_values(field, value):
    kwargs = {"epochs": 1, field: value}
    with pytest.raises(ValueError, match=f"^{field} "):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("decay", [0.0, 1.0])
def test_train_config_accepts_baseline_decay_bounds(decay):
    assert TrainConfig(epochs=0, baseline_decay=decay).baseline_decay == decay


class TestNonFiniteReinforce:
    def test_infinite_reward_raises(self):
        model = tiny_model(seed=17)
        g = triangle()
        with pytest.raises(autodiff.NonFiniteError, match="gradient scale"):
            reinforce_gradient(model.ordering, [(g, (0, 1, 2), math.inf)],
                               baseline=0.0, trajectories_per_graph=1)

    @pytest.mark.parametrize("baseline", [True, False])
    def test_infinite_rewards_diverge_in_the_ordering_update(self, monkeypatch, baseline):
        original = training.denoiser_loss
        before = {}

        def infinite_reward(*args, memo=None, **kwargs):
            return math.inf if memo is not None else original(*args, **kwargs)

        def snapshot(model, adam_state, *args):
            before.update((name, p.data.copy()) for name, p in model.params.items())
            return reinforce_update(model, adam_state, *args)

        monkeypatch.setattr(training, "denoiser_loss", infinite_reward)
        monkeypatch.setattr(training, "reinforce_update", snapshot)
        g = triangle()
        model = tiny_model(seed=37)
        cfg = TrainConfig(epochs=1, batch_size=1, trajectories=1, timesteps=2,
                          baseline=baseline, seed=2)
        with pytest.raises(TrainingDiverged,
                           match="ordering update 1 after denoiser step 2: "):
            fit([g, g], [g], model, cfg)
        # the ordering network was left as it was before the update
        assert all(np.array_equal(p.data, before[name])
                   for name, p in model.ordering.params.items())


@pytest.mark.parametrize("field", ["lr_denoiser", "lr_ordering"])
@pytest.mark.parametrize("value", [math.inf, math.nan, True])
def test_train_config_requires_finite_learning_rates(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
        TrainConfig(epochs=1, **{field: value})


def test_model_init_has_the_train_config_learning_rates():
    model, cfg = tiny_model(), TrainConfig(epochs=0)
    assert model.adam_denoiser.lr == cfg.lr_denoiser
    assert model.adam_ordering.lr == cfg.lr_ordering


class TestCheckpointNames:
    """When `eval_every` divides the last denoiser step, only the end-of-run
    save writes that step's checkpoint, after the last ordering phase."""

    @staticmethod
    def _config(eval_every):
        # one batch per epoch, so the run's last denoiser step is 2
        return TrainConfig(epochs=2, batch_size=4, trajectories=1, timesteps=2,
                           eval_every=eval_every, seed=9)

    def test_each_name_is_written_once_with_the_state_it_keeps(self, tmp_path, monkeypatch):
        g = triangle()
        cfg = self._config(eval_every=1)
        # references: the state after the first denoiser step, driven by
        # hand, and the end state of a run that saves only at its end
        model = tiny_model(seed=33)
        state = training.TrainState(np.random.default_rng(cfg.seed))
        for batch in training._minibatches([g] * 4, state.rng.permutation(4), cfg.batch_size):
            training._denoiser_phase(model, cfg, state, batch)
        (tmp_path / "hand").mkdir()
        training._checkpoint(model, state, str(tmp_path / "hand"))
        (tmp_path / "end").mkdir()
        fit([g] * 4, [g], tiny_model(seed=33), self._config(eval_every=0),
            checkpoint_dir=str(tmp_path / "end"))

        saves, states = [], []
        save, checkpoint = ModelBundle.save, training._checkpoint

        def recorded_save(bundle, path):
            saves.append(os.path.basename(path))
            return save(bundle, path)

        def recorded_checkpoint(model, state, checkpoint_dir):
            states.append(state)
            return checkpoint(model, state, checkpoint_dir)

        monkeypatch.setattr(ModelBundle, "save", recorded_save)
        monkeypatch.setattr(training, "_checkpoint", recorded_checkpoint)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        _, report = fit([g] * 4, [g], tiny_model(seed=33), cfg, checkpoint_dir=str(run_dir))
        names = ["checkpoint_000001.ckpt", "checkpoint_000002.ckpt"]
        assert saves == names
        assert states[-1].checkpoints == [str(run_dir / name) for name in names]
        assert report.selected_checkpoint == str(run_dir / names[1])
        assert sorted(os.listdir(run_dir)) == names
        assert ((run_dir / names[0]).read_bytes()
                == (tmp_path / "hand" / names[0]).read_bytes())
        assert ((run_dir / names[1]).read_bytes()
                == (tmp_path / "end" / names[1]).read_bytes())


class TestRetainedCandidates:
    @pytest.mark.parametrize("top_k", [0, 1])
    def test_top_k_one_keeps_the_sampled_node_at_weight_one(self, top_k):
        for weights in ({0: 0.25, 1: 0.5, 2: 0.25}, {0: 1e-300, 1: 1.0}, {0: 1.0}):
            assert training._retained_candidates(weights, 0, top_k) == [(0, 1.0)]

    @pytest.mark.parametrize("top_k", [1, 2, 3])
    def test_zero_weight_fallback(self, top_k):
        assert training._retained_candidates({0: 0.0, 1: 0.0}, 1, top_k) == [(1, 1.0)]

    def test_top_k_two_renormalizes_over_the_best_other(self):
        kept = training._retained_candidates({0: 0.2, 1: 0.5, 2: 0.3}, 0, 2)
        assert kept == [(0, 0.2 / (0.0 + 0.2 + 0.5)), (1, 0.5 / (0.0 + 0.2 + 0.5))]
