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

Every untaped step log-likelihood, the rewards here and the NLLs of
`agd.likelihood` alike, is computed by `fill_step_memos` into a step memo: a
dict from `DenoisingView` to a float, kept per graph. It makes one stacked
`step_log_likelihood` call per view size, whose slices carry the bits of
single views, and an untaped loss sums the memo's floats in the loss's term
order, so it equals a view-at-a-time sum bit for bit. Taped losses run one
forward per view.
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
from .graphs import (DiffusionTrajectory, LabeledGraph, absorb_node,
                     denoising_view, forward_trajectory, observed_step)
from .model import ModelBundle
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
    lr_denoiser: float = 1e-4
    lr_ordering: float = 5e-4
    soft_label_top_k: int = 1
    baseline: bool = True
    baseline_decay: float = 0.9
    uniform_ordering: bool = False   # ablation: uniform orders, no REINFORCE
    eval_every: int = 0              # checkpoint every k denoiser steps (0: end only)
    select_samples: int = 0          # >0: pick the checkpoint with lowest mean MMD
    seed: int = 0

    def __post_init__(self):
        # Each message starts with the field name; RunConfig maps it to its key.
        for name in ("batch_size", "val_batch_size", "trajectories", "timesteps",
                     "soft_label_top_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("epochs", "eval_every", "select_samples"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("lr_denoiser", "lr_ordering"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
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
    total = sum(weights[v] for v in kept)
    if total <= 0.0:
        return [(sampled, 1.0)]
    return [(v, weights[v] / total) for v in kept]


def loss_views(trajectory: DiffusionTrajectory, timesteps, top_k: int = 1):
    """Yield (view, state, candidate, weight) for every term of the denoiser
    loss over the sorted `timesteps`, in the order the loss sums them: the
    candidate is denoised out of `state` through `view`."""
    for t in timesteps:
        sampled = trajectory.ordering[t - 1]
        for cand, w in _retained_candidates(trajectory.step_weights[t - 1],
                                            sampled, top_k):
            if cand == sampled:
                state = trajectory.states[t]
            else:
                state = absorb_node(trajectory.states[t - 1], cand)
            yield denoising_view(state, cand), state, cand, w


def denoiser_loss(graph: LabeledGraph, trajectory: DiffusionTrajectory,
                  timesteps, denoiser: DenoiserNet, top_k: int = 1, tape=None,
                  memo: dict | None = None):
    """Negative soft-label log-likelihood over the sampled timesteps, scaled
    by n/T. Returns a Tensor when a tape is given, else a float.

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
    total = weighted_log_likelihood(graph, loss_views(trajectory, timesteps, top_k),
                                    denoiser, tape, memo)
    return total * (-float(n) / len(timesteps))


def fill_step_memos(denoiser: DenoiserNet, items) -> None:
    """Store, untaped, the step log-likelihood of every view an item's memo
    lacks, as a float. `items` are (graph, `loss_views` items, memo) triples
    with one memo per graph; the views of all items are computed with one
    stacked `step_log_likelihood` call per view size, a stack mixing graphs
    since each view carries its own labels."""
    by_size: dict[int, dict] = {}      # size -> (memo id, view) -> (memo, view, labels...)
    for graph, views, memo in items:
        for view, state, target, _ in views:
            pending = by_size.setdefault(view.size, {})
            if view not in memo and (id(memo), view) not in pending:
                pending[id(memo), view] = (memo, view, *observed_step(graph, state, target))
    for pending in filter(None, by_size.values()):
        memos, views, node_types, edges = zip(*pending.values())
        lls = denoiser.step_log_likelihood(views, node_types, edges)
        for memo, view, ll in zip(memos, views, lls):
            memo[view] = ll.item()


def weighted_log_likelihood(graph: LabeledGraph, views, denoiser: DenoiserNet,
                            tape=None, memo: dict | None = None):
    """sum w * log p(candidate) over `loss_views` items, added in their order
    from the first term. Taped, a Tensor with one forward per view; untaped,
    a float read through `memo` (or a memo of its own) once `fill_step_memos`
    has filled it."""
    if tape is not None:
        return reduce(operator.add, (denoiser.step_log_likelihood(
            view, *observed_step(graph, state, cand), tape) * w
            for view, state, cand, w in views))
    views, memo = tuple(views), {} if memo is None else memo
    fill_step_memos(denoiser, [(graph, views, memo)])
    return reduce(operator.add, (memo[view] * w for view, _, _, w in views))


def compute_reward(graph: LabeledGraph, trajectory: DiffusionTrajectory,
                   timesteps, denoiser: DenoiserNet, top_k: int = 1) -> float:
    """The sampled negative log-likelihood bound, without gradients, for
    one trajectory; `fit` computes a validation batch's rewards at once,
    through `fill_step_memos` and `denoiser_loss`, with the same bits."""
    return denoiser_loss(graph, trajectory, timesteps, denoiser, top_k, tape=None)


def _accumulate_gradients(acc: dict, params: dict, loss_fn, scale=None) -> float:
    """Add the gradients of `loss_fn(tape)` over every parameter in `params`,
    times `scale` when given, to `acc`; return the loss value. The tape, its
    activations and the gradients die on return, so a caller looping over
    trajectories holds one tape at a time. A non-finite `scale` raises
    NonFiniteError, as a non-finite op would."""
    if scale is not None and not math.isfinite(scale):
        raise NonFiniteError(f"non-finite gradient scale {scale}")
    tape = Tape()
    for p in params.values():
        tape.register(p)
    loss = loss_fn(tape)
    for name, g in tape.gradients(loss).items():
        if scale is not None:
            g = scale * g
        acc[name] = acc[name] + g if name in acc else g
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


def _minibatches(indices, size):
    for lo in range(0, len(indices), size):
        yield indices[lo:lo + size]


def fit(train_graphs, val_graphs, model: ModelBundle, config: TrainConfig,
        checkpoint_dir=None, log_path=None):
    """Alternating optimization per Algorithm 1; returns (model, TrainReport)."""
    if not train_graphs:
        raise ValueError("empty training set")
    if not val_graphs and not config.uniform_ordering:
        raise ValueError("empty validation set")
    rng = np.random.default_rng(config.seed)
    model.adam_denoiser.lr = config.lr_denoiser
    model.adam_ordering.lr = config.lr_ordering
    report = TrainReport()
    # records are written as they are made, so a diverged or killed run
    # keeps the log of every step it finished
    log = open(log_path, "w") if log_path is not None else None
    checkpoints: list[str] = []
    baseline_value: float | None = None
    theta_steps = 0

    def draws(graphs, batch):
        """(graph, trajectory, timesteps) for M trajectories per graph of the
        batch; the caller's work between draws consumes no rng."""
        for gi in batch:
            graph = graphs[gi]
            for _ in range(config.trajectories):
                traj = (uniform_trajectory(graph, rng) if config.uniform_ordering
                        else model.ordering.sample_ordering(graph, rng))
                yield graph, traj, _sample_timesteps(graph.n, config.timesteps, rng)

    def log_record(loss, reward):
        if log is not None:
            log.write(json.dumps({"step": theta_steps, "loss": loss, "reward": reward,
                                  "timestamp": time.time()}, sort_keys=True) + "\n")
            log.flush()

    def save_ckpt():
        if checkpoint_dir is None:
            return
        path = f"{checkpoint_dir}/checkpoint_{theta_steps:06d}.ckpt"
        model.save(path)
        if path not in checkpoints:
            checkpoints.append(path)

    def denoiser_step(batch) -> float:
        """One Adam step of the denoiser on a minibatch; the mean loss. The
        accumulated gradients die on return, before the ordering phase."""
        grads_acc: dict[str, np.ndarray] = {}
        batch_loss = 0.0
        terms = 0
        for graph, traj, ts in draws(train_graphs, batch):
            batch_loss += _accumulate_gradients(
                grads_acc, model.denoiser.params,
                lambda tape: denoiser_loss(graph, traj, ts, model.denoiser,
                                           config.soft_label_top_k, tape))
            terms += 1
        scale = 1.0 / config.trajectories
        grads_acc = {k: v * scale for k, v in grads_acc.items()}
        adam_step(model.denoiser.params, grads_acc, model.adam_denoiser)
        return batch_loss / terms

    try:
        for epoch in range(config.epochs):
            order = rng.permutation(len(train_graphs))
            epoch_losses = []
            for batch in _minibatches(list(order), config.batch_size):
                theta_steps += 1
                phase = f"denoiser step {theta_steps}"
                mean_loss = denoiser_step(batch)
                epoch_losses.append(mean_loss)
                report.step_losses.append(mean_loss)
                log_record(mean_loss, None)
                if config.eval_every and theta_steps % config.eval_every == 0:
                    save_ckpt()

            epoch_rewards = []
            if not config.uniform_ordering:
                val_order = rng.permutation(len(val_graphs))
                for k, batch in enumerate(_minibatches(list(val_order),
                                                       config.val_batch_size), 1):
                    phase = f"ordering update {k} after denoiser step {theta_steps}"
                    drawn = list(draws(val_graphs, batch))
                    memos = {graph: {} for graph, _, _ in drawn}
                    fill_step_memos(model.denoiser, [(graph, tuple(loss_views(
                        traj, ts, config.soft_label_top_k)), memos[graph])
                        for graph, traj, ts in drawn])
                    rewards = [denoiser_loss(graph, traj, ts, model.denoiser,
                                             config.soft_label_top_k, memo=memos[graph])
                               for graph, traj, ts in drawn]
                    items = [(g, traj.ordering, r) for (g, traj, _), r in zip(drawn, rewards)]
                    mean_r = float(np.mean(rewards))
                    if config.baseline:
                        if baseline_value is None:
                            baseline_value = mean_r
                        else:
                            baseline_value = (config.baseline_decay * baseline_value
                                              + (1.0 - config.baseline_decay) * mean_r)
                        b = baseline_value
                    else:
                        b = 0.0
                    reinforce_update(model.ordering, model.adam_ordering, items,
                                     b, config.trajectories)
                    epoch_rewards.extend(rewards)
                    log_record(None, mean_r)
            report.epoch_losses.append(float(np.mean(epoch_losses)))
            report.epoch_rewards.append(float(np.mean(epoch_rewards))
                                        if epoch_rewards else None)
    except NonFiniteError as exc:
        raise TrainingDiverged(
            f"non-finite value at {phase}: {exc}") from exc
    finally:
        if log is not None:
            log.close()

    save_ckpt()
    if checkpoints:
        if config.select_samples > 0 and val_graphs:
            report.selected_checkpoint = select_model(
                checkpoints, val_graphs,
                MetricConfig(samples=config.select_samples, seed=config.seed))
        else:
            report.selected_checkpoint = checkpoints[-1]
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
