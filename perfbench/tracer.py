"""In-memory span tracer that instruments the `agd` package from outside.

The tracer patches public functions and methods of `agd` modules with
wrappers that record spans (name, start, end, parent, run id) or bump
counters, and puts every original back on `restore()`. Nothing inside
`src/agd` knows about it. A module-level function is patched in every `agd`
module namespace that holds it, so a name imported with `from .x import f`
is wrapped where the caller resolves it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

from agd.graphs import ABSENT

# (owner, attribute, name, mode). The owner is a module or "module:Class"
# path inside agd. Mode "span" records a span, "span+count" also counts calls,
# and "count" only counts: node_scores is called too often for a span to be
# cheap, and a span would take its time out of the caller's self time, which
# ordering.sample_ordering.self_s and ordering.ordering_log_prob.self_s keep.
INSTRUMENTED = (
    ("agd.training", "fit", "training.fit", "span"),
    ("agd.training", "denoiser_loss", "training.denoiser_loss", "span"),
    ("agd.training", "compute_reward", "training.compute_reward", "span"),
    ("agd.training", "reinforce_gradient", "training.reinforce_gradient", "span"),
    ("agd.training", "reinforce_update", "training.reinforce_update", "span"),
    ("agd.optim", "adam_step", "optim.adam_step", "span"),
    ("agd.ordering:OrderingNet", "sample_ordering", "ordering.sample_ordering", "span"),
    ("agd.ordering:OrderingNet", "ordering_log_prob", "ordering.ordering_log_prob", "span"),
    ("agd.denoiser:DenoiserNet", "message_pass", "denoiser.message_pass", "span"),
    ("agd.denoiser:DenoiserNet", "step_log_likelihood", "denoiser.step_log_likelihood", "span"),
    ("agd.denoiser:DenoiserNet", "predict_step", "denoiser.predict_step", "span"),
    ("agd.denoiser:DenoiserNet", "sample_step", "denoiser.sample_step", "span+count"),
    ("agd.autodiff:Tape", "gradients", "autodiff.backward", "span"),
    ("agd.model:ModelBundle", "save", "model.save", "span"),
    ("agd.model:ModelBundle", "load", "model.load", "span"),
    ("agd.generate", "generate_batch", "generate.generate_batch", "span"),
    ("agd.generate", "generate", "generate.generate", "span"),
    ("agd.generate", "enforce_degree_cap", "generate.enforce_degree_cap", "span"),
    ("agd.graphs", "forward_trajectory", "graphs.forward_trajectory", "span"),
    ("agd.graphs", "absorb_node", "graphs.absorb_node", "span"),
    ("agd.graphs", "denoising_view", "graphs.denoising_view", "span"),
    ("agd.graphs", "apply_prediction", "graphs.apply_prediction", "span"),
    ("agd.likelihood", "expected_nll", "likelihood.expected_nll", "span"),
    ("agd.likelihood", "is_marginal_likelihood", "likelihood.is_marginal_likelihood", "span"),
    ("agd.likelihood", "exact_marginal", "likelihood.exact_marginal", "span"),
    ("agd.likelihood", "trajectory_nll", "likelihood.trajectory_nll", "span+count"),
    ("agd.metrics", "mmd", "metrics.mmd", "span"),
    ("agd.metrics", "uniqueness_novelty", "metrics.uniqueness_novelty", "span"),
    ("agd.ordering:OrderingNet", "node_scores", "ordering.node_scores", "count"),
)

# Public names of agd.autodiff that are not tape operations.
AUTODIFF_NON_OPS = frozenset({"uniform_init", "as_tensor", "grad_check"})

GRAPHS_SPANS = ("graphs.forward_trajectory", "graphs.absorb_node",
                "graphs.denoising_view", "graphs.apply_prediction")
MMD_KINDS = ("degree", "clustering", "orbit")

# Per-layer metrics: name -> unit. Every traced run reports all of them; a
# layer that does not run in a workload reports 0.
LAYER_METRICS = {
    "ordering.sample_ordering.self_s": "s",
    "ordering.ordering_log_prob.self_s": "s",
    "ordering.node_scores.calls": "count",
    "denoiser.message_pass.self_s": "s",
    "denoiser.heads_s": "s",
    "denoiser.sample_step.calls": "count",
    "autodiff.backward.denoiser_s": "s",
    "autodiff.backward.ordering_s": "s",
    "autodiff.op_calls": "count",
    "training.denoiser_loss.self_s": "s",
    "training.compute_reward.s": "s",
    "training.reinforce_gradient.self_s": "s",
    "optim.adam_step.self_s": "s",
    "model.save.s": "s",
    "model.save.bytes": "B",
    "model.load.s": "s",
    "generate.enforce_degree_cap.self_s": "s",
    "generate.edges_dropped_ratio": "ratio",
    "graphs.self_s": "s",
    "likelihood.ordering_cache_hit_ratio": "ratio",
    "likelihood.trajectory_nll.calls": "count",
    "likelihood.nll_cache_hit_ratio": "ratio",
    **{f"metrics.mmd.{kind}.self_s": "s" for kind in MMD_KINDS},
    "metrics.uniqueness_novelty.self_s": "s",
    "trace_overhead_frac": "ratio",
}

# Counters that must repeat exactly between two traced runs with one seed.
EXACT_METRICS = (
    "ordering.node_scores.calls", "denoiser.sample_step.calls",
    "autodiff.op_calls", "model.save.bytes", "generate.edges_dropped_ratio",
    "likelihood.ordering_cache_hit_ratio", "likelihood.trajectory_nll.calls",
    "likelihood.nll_cache_hit_ratio",
)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover. `spans` holds (name, start, end, parent)
    tuples, parent being an index into `spans` or None."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls_name) if cls_name else module


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = f"{name}.{_mmd_kind(args, kwargs)}" if name == "metrics.mmd" else name
            idx = len(spans)
            spans.append((label, clock(), 0.0, stack[-1] if stack else None))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                label, start, _, parent = spans[idx]
                spans[idx] = (label, start, clock(), parent)
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _hooked(self, fn, name):
        """Wrap `fn` to read its arguments or result where a metric needs
        them; other functions are returned as they are."""
        counts = self.counts
        signature = inspect.signature(fn)
        if name == "model.save":
            def wrapper(*args, **kwargs):
                fn(*args, **kwargs)
                path = signature.bind(*args, **kwargs).arguments["path"]
                counts["model.save.bytes"] += os.path.getsize(path)
        elif name == "generate.enforce_degree_cap":
            def wrapper(*args, **kwargs):
                adjusted, dropped = fn(*args, **kwargs)
                proposed = signature.bind(*args, **kwargs).arguments["proposed"]
                counts["generate.edges_proposed"] += sum(
                    1 for s in proposed.values() if s != ABSENT)
                counts["generate.edges_dropped"] += len(dropped)
                return adjusted, dropped
        elif name.startswith("likelihood.") and name != "likelihood.trajectory_nll":
            def wrapper(*args, **kwargs):
                scores_before = counts["ordering.node_scores"]
                nll_before = counts["likelihood.trajectory_nll"]
                result = fn(*args, **kwargs)
                graph = signature.bind(*args, **kwargs).arguments["graph"]
                counts["likelihood.node_scores"] += (counts["ordering.node_scores"]
                                                     - scores_before)
                counts["likelihood.nll_computed"] += (counts["likelihood.trajectory_nll"]
                                                      - nll_before)
                # Each of the estimate's orderings needs one trajectory NLL
                # and, when sampled, the step distributions of its n prefixes.
                counts["likelihood.nll_requested"] += result.samples
                if name != "likelihood.exact_marginal":
                    counts["likelihood.prefixes_requested"] += result.samples * graph.n
                return result
        else:
            return fn
        return wrapper

    # -- installing -----------------------------------------------------------

    def _patch(self, holder, attr: str, replacement, original) -> None:
        self._patches.append((holder, attr, original, replacement))
        setattr(holder, attr, replacement)

    def _patch_everywhere(self, fn, replacement) -> None:
        """Replace `fn` in every agd module namespace that holds it."""
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name == "agd" or mod_name.startswith("agd."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, replacement, fn)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, mode in INSTRUMENTED:
            holder = _resolve(owner)
            raw = inspect.getattr_static(holder, attr)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._hooked(fn, name)
            if mode != "span":
                wrapped = self._count_wrapper(wrapped, name)
            if mode != "count":
                wrapped = self._span_wrapper(wrapped, name)
            if isinstance(holder, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._patch(holder, attr, wrapped, raw)
            else:
                self._patch_everywhere(fn, wrapped)
        for op in public_ops():
            self._patch_everywhere(op, self._count_wrapper(op, "autodiff.op"))

    def restore(self) -> None:
        """Put every original back, newest patch first, and check that each
        attribute again holds the object it held before `install()`."""
        for holder, attr, original, replacement in reversed(self._patches):
            if inspect.getattr_static(holder, attr) is not replacement:
                raise RuntimeError(f"{holder!r}.{attr} was re-patched while traced")
            setattr(holder, attr, original)
        self._patches.clear()

    # -- reporting ------------------------------------------------------------

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        backward = {"denoiser": 0.0, "ordering": 0.0}
        loss_self_s = 0.0
        for (name, start, end, parent), own in zip(self.spans, self_times(self.spans)):
            self_s[name] += own
            total_s[name] += end - start
            if name == "autodiff.backward":
                side = ("ordering" if self._has_ancestor(parent, "training.reinforce_gradient")
                        else "denoiser")
                backward[side] += end - start
            # compute_reward evaluates the loss untaped; that time belongs to
            # the reward path, not to the taped training loss.
            elif (name == "training.denoiser_loss"
                  and not self._has_ancestor(parent, "training.compute_reward")):
                loss_self_s += own
        c = self.counts
        return {
            "ordering.sample_ordering.self_s": self_s["ordering.sample_ordering"],
            "ordering.ordering_log_prob.self_s": self_s["ordering.ordering_log_prob"],
            "ordering.node_scores.calls": c["ordering.node_scores"],
            "denoiser.message_pass.self_s": self_s["denoiser.message_pass"],
            "denoiser.heads_s": (self_s["denoiser.step_log_likelihood"]
                                 + self_s["denoiser.predict_step"]),
            "denoiser.sample_step.calls": c["denoiser.sample_step"],
            "autodiff.backward.denoiser_s": backward["denoiser"],
            "autodiff.backward.ordering_s": backward["ordering"],
            "autodiff.op_calls": c["autodiff.op"],
            "training.denoiser_loss.self_s": loss_self_s,
            "training.compute_reward.s": total_s["training.compute_reward"],
            "training.reinforce_gradient.self_s": self_s["training.reinforce_gradient"],
            "optim.adam_step.self_s": self_s["optim.adam_step"],
            "model.save.s": total_s["model.save"],
            "model.save.bytes": c["model.save.bytes"],
            "model.load.s": total_s["model.load"],
            "generate.enforce_degree_cap.self_s": self_s["generate.enforce_degree_cap"],
            "generate.edges_dropped_ratio": _ratio(c["generate.edges_dropped"],
                                                   c["generate.edges_proposed"]),
            "graphs.self_s": sum(self_s[n] for n in GRAPHS_SPANS),
            "likelihood.ordering_cache_hit_ratio": _hit_ratio(
                c["likelihood.node_scores"], c["likelihood.prefixes_requested"]),
            "likelihood.trajectory_nll.calls": c["likelihood.trajectory_nll"],
            "likelihood.nll_cache_hit_ratio": _hit_ratio(
                c["likelihood.nll_computed"], c["likelihood.nll_requested"]),
            **{f"metrics.mmd.{kind}.self_s": self_s[f"metrics.mmd.{kind}"]
               for kind in MMD_KINDS},
            "metrics.uniqueness_novelty.self_s": self_s["metrics.uniqueness_novelty"],
            "trace_overhead_frac": overhead_frac,
        }

    def _has_ancestor(self, idx, name: str) -> bool:
        while idx is not None:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index, run id."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")


def public_ops():
    """The tape operations agd.autodiff exports: its public functions."""
    import agd.autodiff as ad
    return [fn for name, fn in vars(ad).items()
            if inspect.isfunction(fn) and fn.__module__ == ad.__name__
            and not name.startswith("_") and name not in AUTODIFF_NON_OPS]


def _mmd_kind(args, kwargs) -> str:
    return kwargs["kind"] if "kind" in kwargs else args[2]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hit_ratio(computed: float, requested: float) -> float:
    return 1.0 - computed / requested if requested else 0.0

