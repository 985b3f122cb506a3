"""Joint training: gradient ascent on the soft-label likelihood bound for the
denoiser, REINFORCE on validation rewards for the ordering network.

Per minibatch, M absorption trajectories are sampled per graph and T distinct
timesteps per trajectory; the loss is -(n/T) sum_t sum_k w_k log p(candidate k),
where the candidates are the nodes still unabsorbed at step t, the sampled
node is always retained, and the weights come from the ordering network's
step distribution (treated as constants, so only the denoiser receives
gradients). The reward for a trajectory is the same quantity evaluated
without gradients; lower is better, so the ordering network descends
(R - baseline) * grad log q.

`denoiser_loss` is the one function that scores this loss: for taped
training, for the rewards here and, as `likelihood.trajectory_nll`, for
every NLL. Every untaped step log-likelihood is computed by
`fill_step_memos` into a step memo: a dict from a term's
`(state.masked, candidate)` to a float, kept per graph. Within one graph
the unmasked set and the target fix a view and its labels, so a view is
built only when its memo lacks the key. The fill makes one stacked
`step_log_likelihood` call per view size, whose slices carry the bits of
single views, and an untaped loss sums the memo's floats in the loss's term
order, so it equals a view-at-a-time sum bit for bit. A taped loss makes one
`DenoiserNet.taped_log_likelihoods` call over its trajectory's views, so
each edge head is one op per trajectory and its weights get one gradient
product; `_denoiser_phase` sums each trajectory's gradients into one
accumulator in place.

`fit` runs Algorithm 1 as a loop over phase functions that share one
`TrainState`: the generator every draw consumes, the denoiser steps taken,
the REINFORCE baseline and the checkpoints written, which is all a run
carries from one step to the next. Each epoch draws a permutation of the
training graphs and runs `_denoiser_phase` (one Adam step of the denoiser)
per minibatch, then draws a permutation of the validation graphs and runs
`_ordering_phase` (one REINFORCE step of the ordering network) per
minibatch; `_checkpoint` saves the model every `eval_every` denoiser steps
and at the end. The end-of-run save is the only one at the last step, so
each checkpoint name is written once, with the state it keeps.
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .autodiff import NonFiniteError, Tape
from .denoiser import DenoiserNet
from .graphs import (DiffusionTrajectory, LabeledGraph, absorb_node, check_at_least,
                     denoising_view, forward_trajectory, is_finite_real, observed_step)
from .model import LR_DENOISER, LR_ORDERING, ModelBundle
from .optim import adam_step
from .ordering import OrderingNet


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 8
    val_batch_size: int = 8
    trajectories: int = 4            # M
    timesteps: int = 4               # T, clamped to n per graph
    lr_denoiser: float = LR_DENOISER
    lr_ordering: float = LR_ORDERING
    soft_label_top_k: int = 1
    baseline: bool = True
    baseline_decay: float = 0.9
    uniform_ordering: bool = False   # ablation: uniform orders, no REINFORCE
    eval_every: int = 0              # checkpoint every k denoiser steps (0: end only)
    select_samples: int = 0          # >0: pick the checkpoint with lowest mean MMD
    seed: int = 0

    def __post_init__(self):
        # Each message starts with the field name; RunConfig maps it to its key.
        check_at_least(self, 1, ("batch_size", "val_batch_size", "trajectories",
                                 "timesteps", "soft_label_top_k"))
        check_at_least(self, 0, ("epochs", "eval_every", "select_samples"))
        for name in ("lr_denoiser", "lr_ordering"):
            lr = getattr(self, name)
            if not is_finite_real(lr) or not lr > 0:
                raise ValueError(f"{name} must be a finite number > 0, got {lr}")
        if not 0.0 <= self.baseline_decay <= 1.0:
            raise ValueError(f"baseline_decay must be in [0, 1], got {self.baseline_decay}")


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    epoch_rewards: list[float] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)
    selected_checkpoint: str | None = None


def _retained_candidates(weights: dict[int, float], sampled: int, top_k: int):
    """Sampled node first, then the highest-weight other candidates, weights
    renormalized over what is kept. Candidates tied with the cutoff weight are
    all retained, so the kept set depends on the weights alone (and therefore
    commutes with node relabeling)."""
    others = sorted((v for v in weights if v != sampled),
                    key=lambda v: (-weights[v], v))
    cutoff = max(top_k - 1, 0)
    if cutoff == 0 or not others:
        kept = [sampled]
    elif len(others) <= cutoff:
        kept = [sampled] + others
    else:
        threshold = weights[others[cutoff - 1]]
        kept = [sampled] + [v for v in others if weights[v] >= threshold]
    total = reduce(operator.add, (weights[v] for v in kept), 0.0)
    if total <= 0.0:
        return [(sampled, 1.0)]
    return [(v, weights[v] / total) for v in kept]


def loss_terms(trajectory: DiffusionTrajectory, timesteps, top_k: int = 1):
    """Yield (state, candidate, weight) for every term of the denoiser loss
    over the sorted `timesteps`, in the order the loss sums them: the
    candidate is denoised out of `state`."""
    for t in timesteps:
        sampled = trajectory.ordering[t - 1]
        for cand, w in _retained_candidates(trajectory.step_weights[t - 1],
                                            sampled, top_k):
            state = (trajectory.states[t] if cand == sampled
                     else absorb_node(trajectory.states[t - 1], cand))
            yield state, cand, w


def loss_views(trajectory: DiffusionTrajectory, timesteps, top_k: int = 1):
    """Yield (view, state, candidate, weight) for every `loss_terms` term:
    the candidate is denoised out of `state` through `view`."""
    for state, cand, w in loss_terms(trajectory, timesteps, top_k):
        yield denoising_view(state, cand), state, cand, w


def denoiser_loss(graph: LabeledGraph, trajectory: DiffusionTrajectory,
                  timesteps, denoiser: DenoiserNet, top_k: int = 1, tape=None,
                  memo: dict | None = None):
    """Negative soft-label log-likelihood over the sampled timesteps, scaled
    by n/T: -(n/T) sum w * log p(candidate), added in term order from the
    first term. Returns a Tensor from one `DenoiserNet.taped_log_likelihoods`
    call when a tape is given, else a float read through a step memo.

    `memo` is a step memo for this graph and denoiser (see the module
    docstring), read and filled here. It holds untaped values, so it cannot
    be combined with a tape."""
    if memo is not None and tape is not None:
        raise ValueError("a step memo holds untaped values; it cannot be used with a tape")
    timesteps = sorted(set(int(t) for t in timesteps))
    if not timesteps:
        raise ValueError("empty timestep set")
    n = trajectory.n
    if any(t < 1 or t > n for t in timesteps):
        raise ValueError("timesteps must lie in 1..n")
    if tape is None:
        terms = tuple(loss_terms(trajectory, timesteps, top_k))
        memo = {} if memo is None else memo
        fill_step_memos(denoiser, [(graph, terms, memo)])
        lls = [memo[state.masked, cand] for state, cand, _ in terms]
    else:
        terms = tuple(loss_views(trajectory, timesteps, top_k))
        node_types, edges = zip(*(observed_step(graph, state, cand)
                                  for _, state, cand, _ in terms))
        lls = denoiser.taped_log_likelihoods([view for view, *_ in terms],
                                             node_types, edges, tape)
    total = reduce(operator.add, (ll * w for ll, (*_, w) in zip(lls, terms)))
    return total * (-float(n) / len(timesteps))


def fill_step_memos(denoiser: DenoiserNet, items) -> None:
    """Store, untaped, the step log-likelihood of every term an item's memo
    lacks, as a float under the term's (state.masked, candidate). `items`
    are (graph, `loss_terms` items, memo) triples with one memo per graph; a
    view and its labels are built only for a missing key, and the views of
    all items are computed with one stacked `step_log_likelihood` call per
    view size, a stack mixing graphs since each view carries its own labels."""
    by_size: dict[int, dict] = {}      # size -> (memo id, key) -> (memo, key, view, labels...)
    for graph, terms, memo in items:
        for state, target, _ in terms:
            key = state.masked, target
            pending = by_size.setdefault(state.masked.count(False) + 1, {})
            if key not in memo and (id(memo), key) not in pending:
                pending[id(memo), key] = (memo, key, denoising_view(state, target),
                                          *observed_step(graph, state, target))
    for pending in filter(None, by_size.values()):
        memos, keys, views, node_types, edges = zip(*pending.values())
        lls = denoiser.step_log_likelihood(views, node_types, edges)
        for memo, key, ll in zip(memos, keys, lls):
            memo[key] = ll.item()


def compute_reward(graph: LabeledGraph, trajectory: DiffusionTrajectory,
                   timesteps, denoiser: DenoiserNet, top_k: int = 1) -> float:
    """The sampled negative log-likelihood bound, without gradients, for
    one trajectory; `fit` computes a validation batch's rewards at once,
    through `fill_step_memos` and `denoiser_loss`, with the same bits."""
    return denoiser_loss(graph, trajectory, timesteps, denoiser, top_k, tape=None)


def _accumulate_gradients(acc: dict, params: dict, loss_fn, scale=None) -> float:
    """Add the gradients of `loss_fn(tape)` over every parameter in `params`,
    times `scale` when given, to `acc` in place; return the loss value. The
    tape, its activations and the gradients die on return, so a caller
    looping over trajectories holds one tape at a time. A non-finite `scale`
    raises NonFiniteError, as a non-finite op would."""
    if scale is not None and not math.isfinite(scale):
        raise NonFiniteError(f"non-finite gradient scale {scale}")
    tape = Tape()
    for p in params.values():
        tape.register(p)
    loss = loss_fn(tape)
    for name, g in tape.gradients(loss).items():
        if scale is not None:
            g = scale * g
        if name in acc:
            acc[name] += g
        else:   # a copy: gradients may share memory (`add` hands both parents one array)
            acc[name] = g.copy()
    return loss.item()


def reinforce_gradient(ordering_net: OrderingNet, items, baseline: float,
                       trajectories_per_graph: int) -> dict[str, np.ndarray]:
    """(1/M) sum over (graph, ordering, reward) of (R - baseline) grad log q."""
    if not items:
        raise ValueError("no trajectories to learn from")
    acc: dict[str, np.ndarray] = {}
    for graph, ordering, reward in items:
        _accumulate_gradients(
            acc, ordering_net.params,
            lambda tape: ordering_net.ordering_log_prob(graph, ordering, tape),
            (reward - baseline) / trajectories_per_graph)
    return acc


def reinforce_update(ordering_net: OrderingNet, adam_state, items,
                     baseline: float, trajectories_per_graph: int) -> None:
    """Descend the expected reward: orderings with lower NLL gain probability."""
    grads = reinforce_gradient(ordering_net, items, baseline, trajectories_per_graph)
    adam_step(ordering_net.params, grads, adam_state)


def uniform_trajectory(graph: LabeledGraph, rng: np.random.Generator) -> DiffusionTrajectory:
    """Ablation ordering: uniform over the remaining nodes at every step."""
    ordering = [int(v) for v in rng.permutation(graph.n)]
    remaining = list(range(graph.n))
    log_probs, weights = [], []
    for v in ordering:
        w = 1.0 / len(remaining)
        weights.append({u: w for u in remaining})
        log_probs.append(math.log(w))
        remaining.remove(v)
    return forward_trajectory(graph, ordering, tuple(log_probs), tuple(weights))


def _sample_timesteps(n: int, t_cfg: int, rng: np.random.Generator) -> list[int]:
    k = min(t_cfg, n)
    return sorted(int(t) + 1 for t in rng.choice(n, size=k, replace=False))


def _minibatches(graphs, order, size: int):
    """The graphs taken in `order`, as consecutive lists of `size`."""
    for lo in range(0, len(order), size):
        yield [graphs[i] for i in order[lo:lo + size]]


@dataclass
class TrainState:
    """What `fit` carries from one step to the next: the one generator every
    draw consumes, the denoiser steps taken, the REINFORCE baseline (None
    until the first ordering update sets it) and the checkpoints written."""
    rng: np.random.Generator
    steps: int = 0
    baseline: float | None = None
    checkpoints: list[str] = field(default_factory=list)


def _draws(model: ModelBundle, config: TrainConfig, state: TrainState, batch):
    """(graph, trajectory, timesteps) for M trajectories per graph of the
    batch; the caller's work between draws consumes no rng."""
    for graph in batch:
        for _ in range(config.trajectories):
            traj = (uniform_trajectory(graph, state.rng) if config.uniform_ordering
                    else model.ordering.sample_ordering(graph, state.rng))
            yield graph, traj, _sample_timesteps(graph.n, config.timesteps, state.rng)


def _denoiser_phase(model: ModelBundle, config: TrainConfig, state: TrainState, batch) -> float:
    """One Adam step of the denoiser on a minibatch, counted in `state.steps`;
    the mean loss. The accumulated gradients die on return, before the
    ordering phase."""
    grads: dict[str, np.ndarray] = {}
    losses = [_accumulate_gradients(
        grads, model.denoiser.params,
        lambda tape: denoiser_loss(graph, traj, ts, model.denoiser,
                                   config.soft_label_top_k, tape))
        for graph, traj, ts in _draws(model, config, state, batch)]
    for g in grads.values():
        g *= 1.0 / config.trajectories
    adam_step(model.denoiser.params, grads, model.adam_denoiser)
    state.steps += 1
    # a left fold from 0.0 in draw order, not `sum`, which compensates on 3.12
    return reduce(operator.add, losses, 0.0) / len(losses)


def _ordering_phase(model: ModelBundle, config: TrainConfig, state: TrainState,
                    batch) -> list[float]:
    """One REINFORCE update of the ordering network on a validation
    minibatch; the rewards, in draw order. The batch's views are evaluated
    together by `fill_step_memos`, and each reward reads its memo."""
    drawn = list(_draws(model, config, state, batch))
    memos = {graph: {} for graph, _, _ in drawn}
    fill_step_memos(model.denoiser, [(graph, loss_terms(traj, ts, config.soft_label_top_k),
                                      memos[graph]) for graph, traj, ts in drawn])
    rewards = [denoiser_loss(graph, traj, ts, model.denoiser, config.soft_label_top_k,
                             memo=memos[graph]) for graph, traj, ts in drawn]
    if config.baseline:
        mean_r = float(np.mean(rewards))
        state.baseline = (mean_r if state.baseline is None else
                          config.baseline_decay * state.baseline
                          + (1.0 - config.baseline_decay) * mean_r)
    reinforce_update(model.ordering, model.adam_ordering,
                     [(g, traj.ordering, r) for (g, traj, _), r in zip(drawn, rewards)],
                     state.baseline if config.baseline else 0.0, config.trajectories)
    return rewards


def _checkpoint(model: ModelBundle, state: TrainState, checkpoint_dir) -> None:
    """Save the model as `checkpoint_<steps>.ckpt` in `checkpoint_dir`, if
    one is given, and list it in `state.checkpoints`."""
    if checkpoint_dir is None:
        return
    path = f"{checkpoint_dir}/checkpoint_{state.steps:06d}.ckpt"
    model.save(path)
    state.checkpoints.append(path)


def _write_record(log, step: int, loss, reward) -> None:
    if log is not None:
        log.write(json.dumps({"step": step, "loss": loss, "reward": reward,
                              "timestamp": time.time()}, sort_keys=True) + "\n")
        log.flush()


def fit(train_graphs, val_graphs, model: ModelBundle, config: TrainConfig,
        checkpoint_dir=None, log_path=None):
    """Alternating optimization per Algorithm 1; returns (model, TrainReport)."""
    if not train_graphs:
        raise ValueError("empty training set")
    if not val_graphs and not config.uniform_ordering:
        raise ValueError("empty validation set")
    state = TrainState(np.random.default_rng(config.seed))
    model.adam_denoiser.lr = config.lr_denoiser
    model.adam_ordering.lr = config.lr_ordering
    report = TrainReport()
    # the end-of-run save, after the last ordering phase, writes the last step's file
    last_step = config.epochs * math.ceil(len(train_graphs) / config.batch_size)
    # records are written as they are made, so a diverged or killed run
    # keeps the log of every step it finished
    log = open(log_path, "w") if log_path is not None else None
    try:
        for _ in range(config.epochs):
            epoch_losses = []
            for batch in _minibatches(train_graphs, state.rng.permutation(len(train_graphs)),
                                      config.batch_size):
                phase = f"denoiser step {state.steps + 1}"
                epoch_losses.append(_denoiser_phase(model, config, state, batch))
                _write_record(log, state.steps, epoch_losses[-1], None)
                if (config.eval_every and state.steps % config.eval_every == 0
                        and state.steps != last_step):
                    _checkpoint(model, state, checkpoint_dir)
            report.step_losses.extend(epoch_losses)
            epoch_rewards = []
            if not config.uniform_ordering:
                val_order = state.rng.permutation(len(val_graphs))
                for k, batch in enumerate(_minibatches(val_graphs, val_order,
                                                       config.val_batch_size), 1):
                    phase = f"ordering update {k} after denoiser step {state.steps}"
                    rewards = _ordering_phase(model, config, state, batch)
                    epoch_rewards.extend(rewards)
                    _write_record(log, state.steps, None, float(np.mean(rewards)))
            report.epoch_losses.append(float(np.mean(epoch_losses)))
            report.epoch_rewards.append(float(np.mean(epoch_rewards))
                                        if epoch_rewards else None)
    except NonFiniteError as exc:
        raise TrainingDiverged(
            f"non-finite value at {phase}: {exc}") from exc
    finally:
        if log is not None:
            log.close()

    _checkpoint(model, state, checkpoint_dir)
    if state.checkpoints:
        if config.select_samples > 0 and val_graphs:
            report.selected_checkpoint = select_model(
                state.checkpoints, val_graphs,
                MetricConfig(samples=config.select_samples, seed=config.seed))
        else:
            report.selected_checkpoint = state.checkpoints[-1]
    return model, report


@dataclass
class MetricConfig:
    samples: int = 32
    seed: int = 0


def select_model(checkpoint_paths, val_graphs, metric_config: MetricConfig) -> str:
    """Checkpoint whose generated samples have the lowest mean MMD (degree,
    clustering, orbit) against the validation graphs."""
    from .generate import GenerationConfig, generate_batch
    from .metrics import average_mmd

    if not checkpoint_paths:
        raise ValueError("no checkpoints to select from")
    if len(checkpoint_paths) == 1:
        return checkpoint_paths[0]
    sizes = tuple(g.n for g in val_graphs)
    best_path, best_score = None, None
    for path in checkpoint_paths:
        bundle = ModelBundle.load(path)
        traces = generate_batch(bundle.denoiser,
                                GenerationConfig(count=metric_config.samples,
                                                 sizes=sizes,
                                                 seed=metric_config.seed))
        score = average_mmd([t.graph for t in traces], list(val_graphs))
        if best_score is None or score < best_score:
            best_path, best_score = path, score
    return best_path
